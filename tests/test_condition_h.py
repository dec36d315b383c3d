"""Differential tests of the integer condition-H path and the signed-permutation brackets.

Each quantity has one reference, built once per (group, resolution) from the
rational constructions, never from ``integer_S``, ``integer_brackets`` or the
package's Pfaffians (``tests/test_linalg.py`` checks each against a slower one):

- brackets: ``reference_brackets``;
- pencil det at a ``sphere_grid`` point: ``bareiss_det`` on the int-cleared pencil;
- Pfaffian there: ``expansion_pfaffian`` on the same pencil;
- symbolic det, where exact mode needs it: ``cofactor_det`` on the ``Poly`` pencil;
- rank: ``dense_rank``;
- curvature entries E_ab of the ``VIEW_CASES``: ``restricted_curvature`` from
  ``tests/test_boundary.py``, the ambient -d^0 d^1 rho, never the block
  formulas of ``curvature_entry``, in ``test_integer_view_matches_the_fraction_brackets``.
"""

import math
import random
from fractions import Fraction
from functools import cache

import pytest

from cfx import groups, linalg
from cfx.groups import (GroupSpec, I_MATS, block_diag, check_condition_H, classify,
                        curvature_entry, group_from_phi, horizontal_fields, is_right_type,
                        is_stratified, mat_mul)
from cfx.poly import Poly, x_vars
from cfx.randgen import SectionGenerator
from test_boundary import curvature_component, restricted_curvature
from test_groups import package_brackets, reference_horizontal_fields, reference_is_right_type
from test_linalg import (LAM, central_pairing_det, cofactor_det, dense_rank, mat,
                         expansion_pfaffian, int_pencil, pencil_at, reference_brackets,
                         symbolic_pencil)
from test_operators import coeffs
from test_poly import is_homogeneous, total_degree
from test_rational import ComplexRational, terms


def sphere_grid(resolution):
    """Rational covectors covering all directions: the cube faces max |lam_i| = 1,
    the coordinates multiples of 1/resolution, each point once in first-seen order."""
    vals = [Fraction(i, resolution) for i in range(-resolution, resolution + 1)]
    seen = set()
    out = []
    for axis in range(3):
        for sign in (1, -1):
            for u in vals:
                for w in vals:
                    lam = [u, w]
                    lam.insert(axis, Fraction(sign))
                    key = tuple(lam)
                    if key not in seen:
                        seen.add(key)
                        out.append(key)
    return out


@cache
def case_brackets(name):
    """The reference brackets of a case of ``CASES`` or ``VIEW_CASES``."""
    g = _view_case(name) if name in VIEW_CASES else _case(name)
    return reference_brackets(g.S, g.n)


@cache
def grid_dets(name, resolution):
    """{lam: det( sum lam_beta B^beta )} over ``sphere_grid``, in its order."""
    pencil = int_pencil(case_brackets(name))
    return {lam: central_pairing_det(pencil, lam) for lam in sphere_grid(resolution)}


@cache
def grid_pfaffians(name, resolution):
    """{lam: Pf( sum lam_beta B^beta )} over ``sphere_grid``, in its order, by
    ``expansion_pfaffian`` on the int matrix q resolution times the pencil."""
    q, ints = int_pencil(case_brackets(name))
    scale = (q * resolution) ** (len(ints[0]) // 2)
    return {lam: Fraction(expansion_pfaffian(pencil_at(ints, [int(x * resolution) for x in lam])),
                          scale) for lam in sphere_grid(resolution)}


@cache
def symbolic_det(name):
    """det( sum lam_beta B^beta ) in lam1..lam3 (0 when it vanishes), a form of degree 4n."""
    brackets = case_brackets(name)
    det_poly = cofactor_det(symbolic_pencil(brackets))
    assert not det_poly or is_homogeneous(det_poly, len(brackets[0]))
    return det_poly


def reference_condition_H(values, resolution, det_poly=None):
    """check_condition_H from {lam: value} in grid order; exact mode when det_poly is given."""
    if det_poly is not None and not det_poly:
        return {"verdict": "false", "witness": ["1", "0", "0"],
                "reason": "determinant vanishes identically"}
    for lam, value in values.items():
        if value == 0:
            return {"verdict": "false", "witness": [str(x) for x in lam],
                    "reason": "determinant vanishes at a rational covector"}
    result = {"verdict": "sampled-true", "grid_points": len(values),
              "resolution": resolution,
              "note": "no zero on the sampled direction grid; not a positivity proof"}
    if det_poly is not None:
        result["det_degree"] = total_degree(det_poly)
    return result


def rational_symmetric(seed, size):
    """Symmetric matrix with denominators among 1, 2, 3 and 6."""
    rng = random.Random(seed)
    m = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            m[i][j] = m[j][i] = Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 6]))
    return m


def phi_group():
    v = x_vars(4)
    rng = random.Random(3)
    phi = Poly.zero(v)
    for a in range(4):
        for b in range(a, 4):
            c = Fraction(rng.randint(-3, 3), rng.choice([1, 2, 5]))
            phi = phi + Poly.var(v, f"x{a+1}", c) * Poly.var(v, f"x{b+1}")
    return group_from_phi(phi)


def _case(name):
    kind, n, seed = name.split("-")
    n, seed = int(n), int(seed)
    if kind == "named":
        return GroupSpec.named(("rightQH", "leftQH", "abelian")[seed], n)
    if kind == "int":
        return GroupSpec(n, SectionGenerator(seed).symmetric_matrix(4 * n))
    if kind == "rational":
        return GroupSpec(n, rational_symmetric(seed, 4 * n))
    if kind == "witness":
        return GroupSpec(1, ((-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    if kind == "line":
        # det = 16 lam2^4: zero on the whole line lam2 = 0 of the lam1 = 1 face
        return GroupSpec(1, ((1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 1, 0), (0, 0, 0, -1)))
    if kind == "half":
        # S = blockdiag(Id, 0): S != 0, but the pencil is singular everywhere
        return GroupSpec(2, [[int(i == j < 4) for j in range(8)] for i in range(8)])
    assert kind == "phi"
    return phi_group()


# (group, resolution); the symbolic reference for exact mode runs only at
# n <= 2, where cofactor expansion is cheap enough for a unit test.
CASES = [
    ("named-1-0", 3), ("named-2-0", 2), ("named-1-1", 5), ("named-2-1", 3),
    ("named-1-2", 2), ("witness-1-0", 2), ("witness-1-0", 6),
    ("line-1-0", 3), ("half-2-0", 2),
    ("int-1-5", 6), ("int-1-19", 3), ("int-2-7", 2), ("int-2-11", 3), ("int-3-5", 2),
    ("rational-1-1", 5), ("rational-1-2", 4), ("rational-2-3", 2), ("rational-2-4", 2),
    ("phi-1-0", 4),
]


@pytest.mark.parametrize("name,resolution", CASES)
def test_integer_condition_H_matches_rational_reference(name, resolution):
    g = _case(name)
    assert package_brackets(g) == case_brackets(name)
    values = grid_dets(name, resolution)
    assert check_condition_H(g, "sampled", resolution) == \
        reference_condition_H(values, resolution)
    if g.n > 2:
        return
    assert check_condition_H(g, "exact", resolution) == \
        reference_condition_H(values, resolution, symbolic_det(name))


@pytest.mark.parametrize("name,resolution", CASES)
def test_pairing_det_is_even_on_the_grid(name, resolution):
    # the pencil is 4n x 4n, so Pf(-M) = Pf(M), and det = Pf^2 with it: the
    # antipode of a grid point needs no value of its own
    pf = grid_pfaffians(name, resolution)
    value = groups._form_evaluator(groups.pairing_pfaffian_form(_case(name)))
    for lam, (mu, _) in zip(pf, groups._direction_grid(resolution), strict=True):
        assert pf[lam] == pf[tuple(-x for x in lam)]
        assert value(mu) == value(tuple(-x for x in mu))


@pytest.mark.parametrize("resolution", [1, 2, 3, 4, 5, 6])
def test_cached_grid_evaluates_one_point_of_each_antipodal_pair(resolution):
    grid = groups._direction_grid(resolution)
    assert grid is groups._direction_grid(resolution)
    assert [tuple(Fraction(x, resolution) for x in mu) for mu, _ in grid] == \
        sphere_grid(resolution)
    position = {}
    for i, (mu, _) in enumerate(grid):
        assert all(type(m) is int for m in mu)
        assert max(map(abs, mu)) == resolution
        position[mu] = i
    assert len(position) == len(grid)
    evaluated = 0
    for i, (mu, evaluate) in enumerate(grid):
        antipode = position[tuple(-m for m in mu)]
        # exactly one of the pair is evaluated: the one that comes first
        assert evaluate == (i < antipode)
        assert evaluate != grid[antipode][1]
        evaluated += evaluate
    assert 2 * evaluated == len(grid)


def test_cases_cover_every_outcome_resolution_and_denominator():
    # det of a real skew matrix is a Pfaffian squared, so the grid never
    # sees a sign change; zeros and clean grids are the reachable outcomes
    outcomes = set()
    for name, resolution in CASES:
        g = _case(name)
        for mode in ("sampled", "exact"):
            result = check_condition_H(g, mode, resolution)
            outcomes.add(result.get("reason", result["verdict"]))
    assert outcomes == {"sampled-true", "determinant vanishes at a rational covector",
                        "determinant vanishes identically"}
    assert {resolution for _, resolution in CASES} == {2, 3, 4, 5, 6}
    dens = {x.denominator for name, _ in CASES if name.startswith("rational")
            for row in _case(name).S for x in row}
    assert dens == {1, 2, 3, 6}
    assert _case("phi-1-0").integer_brackets[0] > 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_brackets_and_fields_match_dense_products(n):
    for seed in range(3):
        S = rational_symmetric(10 * n + seed, 4 * n)
        g = GroupSpec(n, S)
        expected = reference_brackets(S, n)
        den, brackets = g.integer_brackets
        assert den == math.lcm(*(x.denominator for row in g.S for x in row))
        assert all(type(x) is int for b in brackets for row in b for x in row)
        assert package_brackets(g) == expected
        variables = g.vars
        fields = horizontal_fields(g)
        for beta in range(3):
            si = mat_mul(g.S, block_diag(I_MATS[beta], n))
            for b, fld in enumerate(fields):
                want = Poly.zero(variables)
                for a in range(4 * n):
                    want = want + Poly.var(variables, f"x{a+1}", 2 * si[a][b])
                assert coeffs(fld).get(f"t{beta+1}", Poly.zero(variables)) == want


# -- the one integer view (den, den S) against the Fraction bracket matrices --------------


def _scaled(S, den):
    return [[Fraction(x) / den for x in row] for row in S]


def _view_case(name):
    kind, n = name.rsplit("-", 1)
    n = int(n)
    if kind == "half-leftQH":  # den S = 2, and B = Ibeta is an integer matrix
        return GroupSpec(n, _scaled(GroupSpec.left_qh(n).S, 2))
    if kind == "sixth-leftQH-plus-dense":  # den S = 6, and 3 B is an integer matrix
        D = SectionGenerator(50 + n).symmetric_matrix(4 * n)
        return GroupSpec(n, [[Fraction(int(i == j), 6) + Fraction(x, 3) for j, x in enumerate(row)]
                             for i, row in enumerate(D)])
    if kind == "half-witness":  # grid zeros, and B^2 = B^3 = 0: not stratified
        return GroupSpec(n, _scaled(block_diag(((-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 1, 0),
                                                (0, 0, 0, 1)), n), 2))
    if kind == "half-block":  # S = blockdiag(Id, 0) / 2: det vanishes identically
        return GroupSpec(n, [[Fraction(int(i == j < 4), 2) for j in range(4 * n)]
                             for i in range(4 * n)])
    if kind == "rightQH-over-3":
        return GroupSpec(n, _scaled(GroupSpec.right_qh(n).S, 3))
    if kind == "dense-over-6":
        return GroupSpec(n, _scaled(SectionGenerator(60 + n).symmetric_matrix(4 * n), 6))
    if kind == "right-over-6":
        return GroupSpec(n, _scaled(SectionGenerator(70 + n).right_type_matrix(n), 6))
    assert kind == "phi-file"
    # a potential record as ``cfx classify --file`` reads it
    rng = random.Random(80 + n)
    terms = []
    for a in range(4 * n):
        for b in range(a, 4 * n):
            expo = [0] * (4 * n)
            expo[a] += 1
            expo[b] += 1
            terms.append({"c": f"{rng.randint(-5, 5)}/{rng.choice([1, 2, 3, 6])}", "e": expo})
    record = {"vars": [f"x{i + 1}" for i in range(4 * n)], "terms": terms}
    return group_from_phi(Poly.from_json(record))


VIEW_CASES = [f"{kind}-{n}" for kind in ("half-leftQH", "sixth-leftQH-plus-dense",
                                         "rightQH-over-3", "dense-over-6", "right-over-6")
              for n in (1, 2, 3)]
VIEW_CASES += ["half-witness-1", "half-witness-3", "half-block-2", "phi-file-1", "phi-file-2"]


def test_view_cases_include_groups_whose_brackets_have_a_smaller_denominator():
    # there den S is not the lcm of the denominators of B, and the integer
    # brackets are a larger multiple of B than the Fraction route gave
    differ = set()
    for name in VIEW_CASES:
        g = _view_case(name)
        den_b, _ = int_pencil(case_brackets(name))
        assert g.integer_S[0] > 1 and g.integer_S[0] % den_b == 0
        if g.integer_S[0] != den_b:
            differ.add(name.rsplit("-", 1)[0])
    assert differ == {"half-leftQH", "sixth-leftQH-plus-dense", "half-witness", "half-block"}


@pytest.mark.parametrize("name", VIEW_CASES)
def test_integer_view_matches_the_fraction_brackets(name):
    g = _view_case(name)
    brackets = case_brackets(name)
    assert package_brackets(g) == brackets
    size = 4 * g.n
    assert is_right_type(g) == reference_is_right_type(g)
    _, ints = int_pencil(brackets)
    rows = [[(b[a][c], 0) for b in ints] for a in range(size) for c in range(a + 1, size)]
    assert is_stratified(g) == (dense_rank(rows) == 3)
    for X, Y in zip(horizontal_fields(g), reference_horizontal_fields(g), strict=True):
        assert list(coeffs(X)) == list(coeffs(Y))
        for v, p in coeffs(X).items():
            assert p == coeffs(Y)[v] and list(p.num.items()) == list(coeffs(Y)[v].num.items())
    E = restricted_curvature(g)
    for a in range(2 * g.n):
        for b in range(2 * g.n):
            assert ComplexRational(*curvature_entry(g, a, b)) == curvature_component(E, a, b)
    for resolution in (2, 3, 4, 5):
        values = grid_dets(name, resolution)
        sampled = reference_condition_H(values, resolution)
        assert check_condition_H(g, "sampled", resolution) == sampled
        if any(values.values()):
            # det is not the zero polynomial, so it is a form of degree 4n
            exact = sampled if "witness" in sampled else dict(sampled, det_degree=size)
        else:
            exact = reference_condition_H(values, resolution, symbolic_det(name))
        assert check_condition_H(g, "exact", resolution) == exact


def test_asymmetric_S_is_rejected():
    S = rational_symmetric(1, 4)
    S[0][1] += 1
    with pytest.raises(ValueError, match="symmetric"):
        GroupSpec(1, S)


def _count_calls(monkeypatch, module, name, counts):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def lattice_size(n):
    # the principal lattice u, w >= 0, u + w <= 2n
    return math.comb(2 * n + 2, 2)


@pytest.mark.parametrize("group", ["rightQH", "leftQH"])
def test_classify_takes_one_pfaffian_per_lattice_point(monkeypatch, group):
    g = GroupSpec.named(group, 2)
    counts = {}
    for module in (linalg, groups):
        _count_calls(monkeypatch, module, "bareiss", counts)
        _count_calls(monkeypatch, module, "pfaffian", counts)
    for mode in ("sampled", "exact"):
        counts.clear()
        result = classify(g, mode)
        assert result["condition_H"]["verdict"] == "sampled-true"
        assert result["condition_H"]["grid_points"] == len(sphere_grid(4))
        # 15 Pfaffians fix the form, whatever the grid; one rank: is_stratified
        assert counts == {"pfaffian": lattice_size(2), "bareiss": 1}


@pytest.mark.parametrize("name", ["named-1-2", "half-2-0"])
def test_zero_pencil_takes_one_determinant_per_lattice_point(monkeypatch, name):
    # the value at each lattice point is one Pfaffian, and no determinant
    g = _case(name)
    counts = {}
    _count_calls(monkeypatch, groups, "pfaffian", counts)
    _count_calls(monkeypatch, groups, "bareiss", counts)
    assert check_condition_H(g, "exact")["reason"] == "determinant vanishes identically"
    assert counts == {"pfaffian": lattice_size(g.n)}


def pencil_key(g, mu):
    """The int pencil sum mu_beta (den B^beta) as a tuple of rows."""
    _, brackets = g.integer_brackets
    return tuple(tuple(mu[0] * a + mu[1] * b + mu[2] * c for a, b, c in zip(*rows))
                 for rows in zip(*brackets))


def patch_lattice_pfaffians(monkeypatch, g, pf):
    """Make ``groups.pfaffian`` return pf(mu), an int, on the pencil at each lattice point mu."""
    d = 2 * g.n
    table = {}
    for u in range(d + 1):
        for w in range(d + 1 - u):
            value = Fraction(pf(g, (1, u, w)))
            assert value.denominator == 1
            table[pencil_key(g, (1, u, w))] = value.numerator
    assert len(table) == lattice_size(g.n)

    def fake(rows):
        return table[tuple(tuple(row) for row in rows)]

    monkeypatch.setattr(groups, "pfaffian", fake)


def test_zero_pencil_probe_is_a_proof_for_any_form_of_degree_2n(monkeypatch):
    # lam2 (lam2 - lam1) has degree 2 = 2n at n = 1 and vanishes at every
    # lattice point (1, u, w) with u < 2
    def pf(g, lam):
        lam1, lam2, _ = (Fraction(x) for x in lam)
        return lam2 * (lam2 - lam1)

    g = GroupSpec.right_qh(1)
    patch_lattice_pfaffians(monkeypatch, g, pf)
    result = check_condition_H(g, "exact")
    assert result["reason"] == "determinant vanishes at a rational covector"


# -- the interpolated Pfaffian form --------------------------------------------------------


def form_at(form, lam):
    """The form at a rational covector lam, term by term: in ints at r lam, over r^d."""
    d = len(form) - 1
    r = math.lcm(*(x.denominator for x in lam))
    m1, m2, m3 = (int(x * r) for x in lam)
    return Fraction(sum(c * m1 ** (d - a - b) * m2 ** a * m3 ** b
                        for b, col in enumerate(form) for a, c in enumerate(col)), r ** d)


def form_poly(form):
    """The form as a ``Poly`` in lam1, lam2, lam3."""
    d = len(form) - 1
    return sum((Poly.monomial(LAM, (d - a - b, a, b), c)
                for b, col in enumerate(form) for a, c in enumerate(col)), Poly.zero(LAM))


def coefficient_pairs(left, right):
    """(left, right) coefficients over the monomials of either real form; 0 is the zero form."""
    lt = terms(left) if left else {}
    rt = terms(right) if right else {}
    assert all(x.im == 0 for x in (*lt.values(), *rt.values()))
    return [(lt[e].re if e in lt else 0, rt[e].re if e in rt else 0) for e in set(lt) | set(rt)]


def scale_of(pairs):
    """The one c with left == c right on every pair (None when every value is 0)."""
    ratios = {Fraction(left) / right for left, right in pairs if right}
    assert all(left == 0 for left, right in pairs if not right)
    assert len(ratios) <= 1
    return ratios.pop() if ratios else None


@pytest.mark.parametrize("name,resolution", CASES)
def test_form_is_the_determinant_times_one_positive_constant(name, resolution):
    # the form is c Pf with c > 0, so its square is c^2 det
    g = _case(name)
    form = groups.pairing_pfaffian_form(g)
    assert len(form) == 2 * g.n + 1
    assert all(len(col) == 2 * g.n + 1 - b and all(type(x) is int for x in col)
               for b, col in enumerate(form))
    pf, det = grid_pfaffians(name, resolution), grid_dets(name, resolution)
    c = scale_of([(form_at(form, lam), pf[lam]) for lam in pf])
    c_det = scale_of([(form_at(form, lam) ** 2, det[lam]) for lam in det])
    value = groups._form_evaluator(form)
    for mu, _ in groups._direction_grid(resolution):
        assert value(mu) == form_at(form, mu)
    if c is None:
        assert c_det is None
        assert not any(any(col) for col in form)
    else:
        assert c > 0 and c_det == c * c
        assert math.gcd(*(x for col in form for x in col)) == 1


@pytest.mark.parametrize("name", sorted({name for name, _ in CASES if _case(name).n <= 2}))
def test_form_coefficients_are_the_symbolic_determinant_times_the_constant(name):
    # squared, the form's coefficients are those of the symbolic determinant
    # times one c > 0; unsquared, those of the symbolic Pfaffian times sqrt(c)
    g = _case(name)
    size = 4 * g.n
    form = form_poly(groups.pairing_pfaffian_form(g))
    det_poly = symbolic_det(name)
    assert all(sum(e) == size for e in (terms(det_poly) if det_poly else ()))
    c = scale_of(coefficient_pairs(form * form, det_poly))
    assert (c is None) == (not det_poly)
    pencil = symbolic_pencil(case_brackets(name))
    root = scale_of(coefficient_pairs(form, expansion_pfaffian(pencil)))
    assert (root is None) == (c is None)
    assert c is None or (root > 0 and root * root == c)


def lattice_lagrange(d, u0, w0):
    """A degree-d form that vanishes at every lattice point (1, u, w) but (1, u0, w0)."""
    t0 = d - u0 - w0

    def pf(g, lam):
        lam1, lam2, lam3 = (Fraction(x) for x in lam)
        value = Fraction(1)
        for k in range(u0):
            value *= lam2 - k * lam1
        for k in range(w0):
            value *= lam3 - k * lam1
        for k in range(t0):
            value *= (d - k) * lam1 - lam2 - lam3
        return value

    return pf


@pytest.mark.parametrize("n", [1, 2])
def test_one_nonzero_lattice_value_is_never_a_zero_pencil(monkeypatch, n):
    # each point of the degree-2n lattice in turn carries the only nonzero
    # Pfaffian: the form is then nonzero, and the grid verdict is the
    # rational reference's
    g = GroupSpec.right_qh(n)
    d = 2 * n
    grid = sphere_grid(4)
    directions = [mu for mu, _ in groups._direction_grid(4)]
    for u0 in range(d + 1):
        for w0 in range(d + 1 - u0):
            pf = lattice_lagrange(d, u0, w0)
            assert [(u, w) for u in range(d + 1) for w in range(d + 1 - u)
                    if pf(g, (1, u, w))] == [(u0, w0)]
            patch_lattice_pfaffians(monkeypatch, g, pf)
            form = groups.pairing_pfaffian_form(g)
            assert any(any(col) for col in form)
            value = groups._form_evaluator(form)
            assert scale_of([(value(mu), pf(g, mu)) for mu in directions]) > 0
            exact = check_condition_H(g, "exact")
            assert exact.get("reason") != "determinant vanishes identically"
            sampled = check_condition_H(g, "sampled")
            assert sampled == reference_condition_H({lam: pf(g, lam) for lam in grid}, 4)
            if "witness" in sampled:
                assert exact == sampled
            else:
                assert exact == dict(sampled, det_degree=4 * n)


def block_congruence(rng, S, n):
    """P^T S P with P = A (x) I_4, A = (unit lower-triangular)(signed permutation).

    A is unimodular, and P commutes with every block_diag(Ibeta, n), so the
    brackets go to P^T B^beta P: the pencil's Pfaffian is multiplied by
    det P = (det A)^4 = 1, and its denominators stay.
    """
    lower = [[int(i == j) or (rng.randint(-2, 2) if j < i else 0) for j in range(n)]
             for i in range(n)]
    perm = rng.sample(range(n), n)
    signed = [[rng.choice((-1, 1)) if j == perm[i] else 0 for j in range(n)] for i in range(n)]
    a = mat_mul(mat(lower), mat(signed))
    p = mat([[a[i // 4][j // 4] if i % 4 == j % 4 else 0 for j in range(4 * n)]
             for i in range(4 * n)])
    return mat_mul(mat_mul(tuple(zip(*p)), mat(S)), p)


@pytest.mark.parametrize("n", [2, 3])
def test_unimodular_block_congruence_keeps_the_form_and_the_verdicts(n):
    rng = random.Random(n)
    seen, changed = set(), 0
    for seed in range(15):
        gen = SectionGenerator(500 + 20 * n + seed)
        if seed == 0:  # blockdiag(Id, 0, ...): the pencil is singular everywhere
            S = [[int(i == j < 4) for j in range(4 * n)] for i in range(4 * n)]
        elif seed == 1:  # blockdiag(diag(-1, -1, 1, 1), ...): a grid zero
            S = block_diag(((-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)), n)
        else:
            S = gen.symmetric_matrix(4 * n) if seed % 2 else gen.right_type_matrix(n)
        g, h = GroupSpec(n, S), GroupSpec(n, block_congruence(rng, S, n))
        changed += h.S != g.S
        assert groups.pairing_pfaffian_form(h) == groups.pairing_pfaffian_form(g)
        before, after = classify(g, "exact"), classify(h, "exact")
        for key in ("right_type", "stratified"):
            assert after[key] == before[key]
        verdict = after["condition_H"]["verdict"]
        assert verdict == before["condition_H"]["verdict"]
        seen.add((before["right_type"], before["stratified"], verdict))
    assert changed >= 12
    assert {v for _, _, v in seen} == {"false", "sampled-true"}
    assert {rt for rt, _, _ in seen} == {True, False}
