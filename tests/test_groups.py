import json
import random
from fractions import Fraction

import pytest

from cfx.groups import (GroupSpec, I_MATS, ID4, J_MATS, block_diag,
                        check_condition_H, classify, group_from_phi,
                        horizontal_fields, is_right_type, is_right_type_via_E,
                        is_stratified, mat_mul, quaternion_relations_ok)
from cfx.operators import FirstOrderOp
from cfx.poly import Poly, x_vars
from cfx.randgen import SectionGenerator
from test_linalg import (central_pairing_det, cofactor_det, int_pencil, mat, reference_brackets,
                         symbolic_pencil)
from test_operators import coeffs
from test_poly import constant_term, is_homogeneous, poly_to_json, total_degree
from test_rational import terms


# -- helpers: exact matrix arithmetic and the group JSON record -------------------------


def mat_add(a, b) -> tuple:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(a, s) -> tuple:
    s = Fraction(s)
    return tuple(tuple(x * s for x in row) for row in a)


def mat_neg(a) -> tuple:
    return mat_scale(a, -1)


def mat_is_zero(a) -> bool:
    return all(x == 0 for row in a for x in row)


def mat_eq(a, b) -> bool:
    return mat_is_zero(mat_add(a, mat_neg(b)))


def group_to_json(g: GroupSpec) -> dict:
    """The {"n", "S"} record ``GroupSpec.from_json`` reads, entries as strings."""
    return {"n": g.n, "S": [[str(x) for x in row] for row in g.S]}


# -- references: the group law and the bracket table ------------------------------------


def package_brackets(g) -> tuple:
    """The package's bracket matrices, ``integer_brackets`` over its den, as Fractions."""
    den, brackets = g.integer_brackets
    return tuple(tuple(tuple(Fraction(x, den) for x in row) for row in b) for b in brackets)


def s_block(g, l, m) -> tuple:
    """The 4x4 block (l, m) of S."""
    return tuple(tuple(g.S[4 * l + i][4 * m + j] for j in range(4)) for i in range(4))


def representations_commute() -> bool:
    return all(
        mat_eq(mat_mul(mat(i_m), mat(j_m)), mat_mul(mat(j_m), mat(i_m)))
        for i_m in I_MATS for j_m in J_MATS
    )


def b_block(brackets, beta, l, m):
    return tuple(tuple(brackets[beta][4 * l + i][4 * m + j] for j in range(4))
                 for i in range(4))


def multiply(g, p, q):
    """Group product: (x, t) . (y, s) = (x + y, t + s + 2 x^T B^beta y)."""
    size = 4 * g.n
    x, t = p[:size], p[size:]
    y, s = q[:size], q[size:]
    if len(t) != 3 or len(s) != 3:
        raise ValueError(f"points must have {size}+3 coordinates")
    out_x = tuple(Fraction(a) + Fraction(b) for a, b in zip(x, y))
    out_t = []
    brackets = reference_brackets(g.S, g.n)
    for beta in range(3):
        twist = sum(Fraction(x[a]) * brackets[beta][a][b] * Fraction(y[b])
                    for a in range(size) for b in range(size))
        out_t.append(Fraction(t[beta]) + Fraction(s[beta]) + 2 * twist)
    return out_x + tuple(out_t)


def inverse(p):
    """Group inverse: skew bracket matrices make it plain negation."""
    return tuple(-Fraction(a) for a in p)


def bracket_table_matches(g) -> bool:
    """[X_a, X_b] must equal 2 sum_beta B^beta_{ab} d_{t_beta}, exactly."""
    fields = horizontal_fields(g)
    brackets = reference_brackets(g.S, g.n)
    variables = g.vars
    size = 4 * g.n
    for a in range(size):
        for b in range(size):
            lhs = fields[a].commutator(fields[b])
            expected = {}
            for beta in range(3):
                c = 2 * brackets[beta][a][b]
                if c:
                    expected[f"t{beta+1}"] = Poly.const(variables, c)
            rhs = FirstOrderOp(variables, expected)
            if not (lhs - rhs).is_zero():
                return False
    return True


@pytest.mark.parametrize("n, S, message", [
    (0, (), "need n >= 1"),
    (1, ((0, 0, 0, 0),) * 3, "S must be 4x4"),
    (1, ((0, 0, 0),) * 4, "S must be 4x4"),
    (1, ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)), "S must be symmetric"),
])
def test_group_spec_rejects_a_bad_size_or_an_asymmetric_S(n, S, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        GroupSpec(n, S)


@pytest.mark.parametrize("call, error, message", [
    (lambda: quaternion_relations_ok(I_MATS, orientation=0), ValueError,
     "orientation must be \\+1 or -1"),
    (lambda: GroupSpec.named("mystery", 1), KeyError, "unknown group name 'mystery'"),
    (lambda: check_condition_H(GroupSpec.left_qh(1), "guessed"), ValueError,
     "mode must be 'exact' or 'sampled'"),
], ids=["orientation", "group-name", "condition-h-mode"])
def test_groups_errors_name_their_fault(call, error, message):
    with pytest.raises(error, match=message):
        call()


def _identity_with(entry):
    rows = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    rows[0][0] = entry
    return rows


@pytest.mark.parametrize("n, S, message", [
    (1, _identity_with(0.1), "an exact rational is an int or a Fraction, not 0.1"),
    (1, _identity_with("1/2"), "an exact rational is an int or a Fraction, not '1/2'"),
    (1, [["1e3000000"] * 4] * 4, "an exact rational is an int or a Fraction, not '1e3000000'"),
    (1.0, _identity_with(1), "n must be an int, not 1.0"),
    (True, _identity_with(1), "n must be an int, not True"),
], ids=["float-entry", "text-entry", "huge-text-entry", "float-n", "bool-n"])
def test_group_spec_refuses_an_inexact_n_or_S(n, S, message):
    # 0.1 was read as 3602879701896397/36028797018963968, text was parsed
    # without parse_fraction's exponent guard (four "1e3000000" took seconds)
    import time

    start = time.perf_counter()
    with pytest.raises(TypeError, match=message):
        GroupSpec(n, S)
    assert time.perf_counter() - start < 0.1


def test_a_group_reads_S_once_into_its_fraction_and_integer_views():
    g = GroupSpec(1, [[Fraction(1, 2), 0, 0, 0], [0, 1, 0, 0], [0, 0, Fraction(-2, 3), 0],
                      [0, 0, 0, 1]])
    assert all(type(x) is Fraction for row in g.S for x in row)
    assert g.integer_S == (6, ((3, 0, 0, 0), (0, 6, 0, 0), (0, 0, -4, 0), (0, 0, 0, 6)))


def test_quaternion_relations_exact():
    assert quaternion_relations_ok(I_MATS, orientation=1)
    assert quaternion_relations_ok([[list(row) for row in m] for m in I_MATS])
    # the second family closes with reversed orientation (its products mirror)
    assert quaternion_relations_ok(J_MATS, orientation=-1)
    assert not quaternion_relations_ok(J_MATS, orientation=1)
    assert representations_commute()


def random_group(gen, n):
    return GroupSpec(n, tuple(tuple(r) for r in gen.symmetric_matrix(4 * n)))


@pytest.mark.parametrize("seed", [2, 7])
def test_bracket_matrices_skew(seed):
    gen = SectionGenerator(seed)
    g = random_group(gen, 2)
    for b in g.integer_brackets[1]:
        assert mat_eq(tuple(zip(*b)), mat_neg(b))


def test_block_identity():
    gen = SectionGenerator(13)
    g = random_group(gen, 2)
    brackets = package_brackets(g)
    for beta in range(3):
        for l in range(2):
            for m in range(2):
                blk = b_block(brackets, beta, l, m)
                s = s_block(g, l, m)
                i = mat(I_MATS[beta])
                expected = mat_add(mat_mul(i, s), mat_mul(s, i))
                assert mat_eq(blk, expected)


def test_first_bracket_block_entrywise():
    # frozen entrywise formula for the first bracket block in terms of S
    gen = SectionGenerator(3)
    g = random_group(gen, 1)
    s = s_block(g, 0, 0)
    expected = (
        (s[1][0] - s[0][1], s[1][1] + s[0][0], s[1][2] + s[0][3], s[1][3] - s[0][2]),
        (-s[0][0] - s[1][1], -s[0][1] + s[1][0], -s[0][2] + s[1][3], -s[0][3] - s[1][2]),
        (-s[3][0] - s[2][1], -s[3][1] + s[2][0], -s[3][2] + s[2][3], -s[3][3] - s[2][2]),
        (s[2][0] - s[3][1], s[2][1] + s[3][0], s[2][2] + s[3][3], s[2][3] - s[3][2]),
    )
    assert mat_eq(b_block(package_brackets(g), 0, 0, 0), mat(expected))


def _span_decompose(block):
    """Coefficients of block on {J1, J2, J3, Id} plus the exact residual.

    The four basis matrices are trace-orthogonal with squared norm 4, so the
    coefficients come from exact trace pairings.
    """
    basis = (J_MATS[0], J_MATS[1], J_MATS[2], ID4)
    coeffs = tuple(
        Fraction(sum(block[i][j] * e[i][j] for i in range(4) for j in range(4)), 4)
        for e in basis
    )
    residual = tuple(
        tuple(Fraction(block[i][j]) - sum(c * e[i][j] for c, e in zip(coeffs, basis))
              for j in range(4))
        for i in range(4)
    )
    return coeffs, residual


def reference_is_right_type(g):
    """is_right_type on the Fraction blocks of B, by ``_span_decompose``."""
    brackets = reference_brackets(g.S, g.n)
    offending = []
    for beta in range(3):
        for l in range(g.n):
            for m in range(g.n):
                _, residual = _span_decompose(b_block(brackets, beta, l, m))
                if not mat_is_zero(residual):
                    offending.append({
                        "l": l, "m": m, "beta": beta + 1,
                        "residual": [[str(x) for x in row] for row in residual],
                    })
    return (not offending), offending


def _rational_group(seed, n, den):
    rng = random.Random(seed)
    size = 4 * n
    m = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            m[i][j] = m[j][i] = Fraction(rng.randint(-6, 6), rng.choice([1, den]))
    return GroupSpec(n, m)


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("den", [2, 3, 6, 7])
def test_integer_right_type_matches_fraction_reference(n, den):
    for seed in range(4):
        g = _rational_group(100 * den + 10 * n + seed, n, den)
        assert is_right_type(g) == reference_is_right_type(g)
        # the right-type locus too, scaled to the same denominator
        rt = GroupSpec(n, [[x / den for x in row]
                           for row in SectionGenerator(seed).right_type_matrix(n)])
        assert is_right_type(rt) == reference_is_right_type(rt) == (True, [])


def test_integer_right_type_matches_reference_on_a_potential():
    v = x_vars(8)
    rng = random.Random(7)
    phi = Poly.zero(v)
    for a in range(8):
        for b in range(a, 8):
            c = Fraction(rng.randint(-3, 3), rng.choice([1, 2, 5]))
            phi = phi + Poly.var(v, f"x{a+1}", c) * Poly.var(v, f"x{b+1}")
    g = group_from_phi(phi)
    assert g.integer_brackets[0] > 1
    ok, certificate = is_right_type(g)
    assert not ok and certificate
    assert (ok, certificate) == reference_is_right_type(g)


def test_diagonal_blocks_have_no_identity_component():
    gen = SectionGenerator(5)
    brackets = package_brackets(random_group(gen, 3))
    for beta in range(3):
        for l in range(3):
            coeffs, _ = _span_decompose(b_block(brackets, beta, l, l))
            assert coeffs[3] == 0


def right_type_group(gen, n):
    return GroupSpec(n, tuple(tuple(r) for r in gen.right_type_matrix(n)))


def four_conditions(s) -> tuple:
    """The four linear conditions on a 4x4 block of S: trace and three skew combinations."""
    return (
        s[0][0] + s[1][1] + s[2][2] + s[3][3],
        s[0][1] - s[1][0] + s[2][3] - s[3][2],
        s[0][2] - s[2][0] - s[1][3] + s[3][1],
        s[0][3] - s[3][0] + s[1][2] - s[2][1],
    )


def is_right_type_via_conditions(g: GroupSpec) -> bool:
    """Reference: the four linear conditions hold on every 4x4 block of S."""
    return not any(any(four_conditions(s_block(g, l, m)))
                   for l in range(g.n) for m in range(g.n))


def test_right_type_examples():
    assert is_right_type(GroupSpec.right_qh(2))[0]
    ok, certificate = is_right_type(GroupSpec.left_qh(2))
    assert not ok and certificate
    assert is_right_type(GroupSpec.abelian(2))[0]


def test_via_conditions_examples():
    assert is_right_type_via_E(GroupSpec.right_qh(1))
    # identity matrix fails the trace condition
    assert not is_right_type_via_E(GroupSpec.left_qh(1))


def test_classification_routes_agree_randomly():
    gen = SectionGenerator(41)
    for t in range(40):
        g2 = gen.spawn(t)
        n = g2.rng.choice([1, 2, 3])
        g = right_type_group(g2, n) if t % 3 == 0 else random_group(g2, n)
        assert is_right_type(g)[0] == is_right_type_via_E(g) == is_right_type_via_conditions(g)


def test_curvature_route_matches_the_four_conditions_one_violation_at_a_time():
    # from a right-type matrix, break one condition in one block and its
    # mirror: s00 enters only the trace, s01, s02 and s03 only one skew
    # combination each; a diagonal block is symmetric, so there only the
    # trace can fail
    gen = SectionGenerator(45)
    cases = 0
    for t, n in enumerate((1, 2, 3)):
        base = gen.spawn(t).right_type_matrix(n)
        assert is_right_type_via_E(GroupSpec(n, tuple(map(tuple, base))))
        for l in range(n):
            for m in range(l, n):
                for j in range(4) if l != m else (0,):
                    for eps in (Fraction(1, 3), Fraction(-2, 5)):
                        S = [list(row) for row in base]
                        S[4 * l][4 * m + j] += eps
                        if (l, j) != (m, 0):
                            S[4 * m + j][4 * l] += eps
                        g = GroupSpec(n, tuple(map(tuple, S)))
                        failed = [(bl, bm) for bl in range(n) for bm in range(n)
                                  if any(four_conditions(s_block(g, bl, bm)))]
                        assert set(failed) == {(l, m), (m, l)}
                        assert sum(map(bool, four_conditions(s_block(g, l, m)))) == 1
                        assert not is_right_type_via_conditions(g)
                        assert not is_right_type_via_E(g)
                        assert not is_right_type(g)[0]
                        cases += 1
    assert cases == 2 * (1 + 6 + 15)


def test_right_type_generator_hits_true_branch():
    gen = SectionGenerator(43)
    g = right_type_group(gen, 2)
    assert is_right_type(g)[0]


def test_group_from_phi_right_structure():
    v = x_vars(8)
    phi = Poly.zero(v)
    for l in range(2):
        for off, c in ((1, -3), (2, 1), (3, 1), (4, 1)):
            name = f"x{4 * l + off}"
            phi = phi + (Poly.var(v, name) * Poly.var(v, name)).scale(c)
    g = group_from_phi(phi)
    # bracket matrices proportional (negatively) to the second block family
    for beta in range(3):
        expected = mat_scale(block_diag(J_MATS[beta], 2), -2)
        assert mat_eq(package_brackets(g)[beta], expected)
    assert is_right_type(g)[0]
    assert mat_eq(g.S, GroupSpec.right_qh(2).S)


def test_group_from_phi_squared_norm():
    v = x_vars(4)
    phi = Poly.zero(v)
    for i in range(1, 5):
        phi = phi + Poly.var(v, f"x{i}") * Poly.var(v, f"x{i}")
    g = group_from_phi(phi)
    for beta in range(3):
        assert mat_eq(package_brackets(g)[beta], mat_scale(mat(I_MATS[beta]), 2))
    assert not is_right_type(g)[0]


def test_group_from_phi_zero_and_errors():
    v = x_vars(4)
    assert all(map(mat_is_zero, package_brackets(group_from_phi(Poly.zero(v)))))
    with pytest.raises(ValueError, match="homogeneous quadratic"):
        group_from_phi(Poly.var(v, "x1"))
    cubic = Poly.var(v, "x1") * Poly.var(v, "x1") * Poly.var(v, "x2")
    with pytest.raises(ValueError, match="homogeneous quadratic"):
        group_from_phi(cubic)


def hessian_group_from_phi(phi: Poly) -> GroupSpec:
    """The Hessian route ``group_from_phi`` replaced: S_ij is half the
    constant term of d^2 phi / dx_i dx_j, (4n)^2 double derivatives."""
    xnames = [v for v in phi.vars if v.startswith("x")]
    if len(xnames) % 4:
        raise ValueError("potential needs 4n x-variables")
    n = len(xnames) // 4
    if not phi.is_zero():
        if total_degree(phi) != 2 or not is_homogeneous(phi, 2):
            raise ValueError("potential must be homogeneous quadratic")
    for expo, coeff in terms(phi).items():
        if coeff.im != 0:
            raise ValueError("potential must have rational coefficients")
        for v, e in zip(phi.vars, expo):
            if e and not v.startswith("x"):
                raise ValueError("potential must not involve center variables")
    size = 4 * n
    S = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            d2 = phi.diff(f"x{i+1}").diff(f"x{j+1}")
            S[i][j] = constant_term(d2).re / 2
    return GroupSpec(n, tuple(tuple(row) for row in S))


def _seeded_potential(seed: int):
    """A quadratic potential on a shuffled table of x1..x4n and 0 to 2 centre
    variables, n <= 3; every fourth one is spoilt in one of six ways."""
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    names = [f"x{i + 1}" for i in range(4 * n)] + [f"t{i + 1}" for i in range(rng.randint(0, 2))]
    rng.shuffle(names)
    xs = [a for a, v in enumerate(names) if v.startswith("x")]
    monomials = {}
    for _ in range(rng.randint(0, 12)):
        expo = [0] * len(names)
        for a in rng.sample(xs, rng.randint(1, 2)):
            expo[a] += 1
        if sum(expo) == 1:
            expo[a] = 2
        monomials[tuple(expo)] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    if seed % 4 == 0:
        expo = [0] * len(names)
        flaw = rng.randrange(6)
        if flaw == 0:  # a linear term
            expo[rng.choice(xs)] = 1
        elif flaw == 1:  # a cubic term
            expo[rng.choice(xs)] = 3
        elif flaw == 2:  # a complex coefficient
            expo[rng.choice(xs)] = 2
        elif flaw == 3:  # a centre variable
            expo[rng.choice(xs)] = 1
            expo[rng.choice([a for a, v in enumerate(names) if a not in xs] or xs)] += 1
        elif flaw == 4:  # x-variables that are not x1..x4n
            names[rng.choice(xs)] = f"x{4 * n + 1}"
        else:  # not 4n x-variables
            names[rng.choice(xs)] = "y"
        if flaw < 4:
            monomials[tuple(expo)] = (1, 1 if flaw == 2 else 0)
    return Poly(names, monomials)


def test_group_from_phi_reads_the_hessian_off_the_coefficients():
    # 300 seeded potentials against the Hessian route: the same S, and on
    # a spoilt potential the same ValueError, except that x-variables other
    # than x1..x4n were a KeyError of Poly.diff and are a ValueError now
    checked = invalid = 0
    for seed in range(300):
        phi = _seeded_potential(seed)
        try:
            want = hessian_group_from_phi(phi)
        except (KeyError, ValueError) as exc:
            invalid += 1
            with pytest.raises(ValueError) as got:
                group_from_phi(phi)
            if isinstance(exc, KeyError):
                assert "x-variables x1.." in str(got.value)
            else:
                assert str(got.value) == str(exc)
            continue
        got = group_from_phi(phi)
        assert got.n == want.n and got.S == want.S
        assert got.integer_brackets == want.integer_brackets
        checked += 1
    assert checked >= 225 and invalid >= 60


def test_horizontal_fields_abelian():
    g = GroupSpec.abelian(1)
    fields = horizontal_fields(g)
    for b, X in enumerate(fields):
        assert coeffs(X) == {f"x{b+1}": Poly.const(g.vars, 1)}
    for a in range(4):
        for b in range(4):
            assert fields[a].commutator(fields[b]).is_zero()


def test_bracket_table():
    assert bracket_table_matches(GroupSpec.right_qh(1))
    assert bracket_table_matches(GroupSpec.left_qh(1))


def test_bracket_antisymmetry():
    fields = horizontal_fields(GroupSpec.right_qh(1))
    lhs = fields[0].commutator(fields[1])
    rhs = fields[1].commutator(fields[0])
    assert (lhs + rhs).is_zero()


def reference_horizontal_fields(g):
    """X_b as validated Poly arithmetic: one Poly.var per entry of the dense
    product S block_diag(Ibeta), summed."""
    variables = g.vars
    size = 4 * g.n
    si = [mat_mul(g.S, block_diag(I_MATS[beta], g.n)) for beta in range(3)]
    fields = []
    for b in range(size):
        coeffs = {f"x{b+1}": Poly.const(variables, 1)}
        for beta in range(3):
            p = Poly.zero(variables)
            for a in range(size):
                c = si[beta][a][b]
                if c:
                    p = p + Poly.var(variables, f"x{a+1}", 2 * c)
            if not p.is_zero():
                coeffs[f"t{beta+1}"] = p
        fields.append(FirstOrderOp(variables, coeffs))
    return fields


def _phi_group(seed, n):
    """Group of a random quadratic potential with denominators 2 to 5."""
    v = x_vars(4 * n)
    rng = random.Random(seed)
    phi = Poly.zero(v)
    for a in range(4 * n):
        for b in range(a, 4 * n):
            c = Fraction(rng.randint(-3, 3), rng.randint(2, 5))
            phi = phi + Poly.var(v, f"x{a+1}", c) * Poly.var(v, f"x{b+1}")
    return group_from_phi(phi)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_horizontal_fields_match_the_poly_sum_reference(n):
    groups = [GroupSpec.right_qh(n), GroupSpec.left_qh(n), GroupSpec.abelian(n),
              _phi_group(n, n)]
    for den in (2, 3, 4, 5):
        groups.append(_rational_group(1000 * den + n, n, den))
        groups.append(GroupSpec(n, [[x / den for x in row]
                                    for row in SectionGenerator(den).right_type_matrix(n)]))
    groups.append(random_group(SectionGenerator(50 + n), n))
    assert any(p.den > 1 for g in groups[3:] for X in horizontal_fields(g)
               for p in coeffs(X).values())
    for g in groups:
        got, want = horizontal_fields(g), reference_horizontal_fields(g)
        for X, Y in zip(got, want, strict=True):
            assert list(coeffs(X)) == list(coeffs(Y))
            for v, p in coeffs(X).items():
                q = coeffs(Y)[v]
                assert p == q and list(p.num.items()) == list(q.num.items())
                assert poly_to_json(p) == poly_to_json(q)


def test_stratified():
    assert is_stratified(GroupSpec.right_qh(1))
    assert is_stratified(GroupSpec.left_qh(2))
    assert not is_stratified(GroupSpec.abelian(1))
    # diag(-1,-1,1,1) has only the first bracket matrix nonzero
    g = GroupSpec(1, ((-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    b1, b2, b3 = package_brackets(g)
    assert mat_is_zero(b2) and mat_is_zero(b3)
    assert not mat_is_zero(b1)
    assert not is_stratified(g)


def test_condition_h_right_qh_symbolic():
    g = GroupSpec.right_qh(1)
    det = cofactor_det(symbolic_pencil(reference_brackets(g.S, g.n)))
    lam = ("lam1", "lam2", "lam3")
    norm = Poly.zero(lam)
    for name in lam:
        norm = norm + Poly.var(lam, name) * Poly.var(lam, name)
    assert det == (norm * norm).scale(16)
    assert check_condition_H(g, "exact", resolution=3)["verdict"] == "sampled-true"


def test_condition_h_failures():
    assert check_condition_H(GroupSpec.abelian(1), "exact")["verdict"] == "false"
    g = GroupSpec(1, ((-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    result = check_condition_H(g, "sampled", resolution=2)
    assert result["verdict"] == "false"
    lam = [Fraction(x) for x in result["witness"]]
    assert central_pairing_det(int_pencil(reference_brackets(g.S, g.n)), lam) == 0


def test_condition_h_modes_agree():
    gen = SectionGenerator(19)
    g = random_group(gen, 1)
    exact = check_condition_H(g, "exact", resolution=2)
    sampled = check_condition_H(g, "sampled", resolution=2)
    assert exact["verdict"] == sampled["verdict"]


def test_json_roundtrip():
    g = GroupSpec.right_qh(2)
    data = json.loads(json.dumps(group_to_json(g)))
    back = GroupSpec.from_json(data)
    assert mat_eq(back.S, g.S) and back.n == 2


def test_json_potential_route():
    v = x_vars(4)
    phi = Poly.zero(v)
    for i in range(1, 5):
        phi = phi + Poly.var(v, f"x{i}") * Poly.var(v, f"x{i}")
    data = json.loads(json.dumps(poly_to_json(phi)))
    g = group_from_phi(Poly.from_json(data))
    assert mat_eq(g.S, GroupSpec.left_qh(1).S)


def test_group_law_is_a_group():
    gen = SectionGenerator(61)
    g = random_group(gen, 1)
    pts = [tuple(gen.spawn(i).rational_vector(7)) for i in range(3)]
    a, b, c = pts
    assert multiply(g, multiply(g, a, b), c) == multiply(g, a, multiply(g, b, c))
    zero = (Fraction(0),) * 7
    assert multiply(g, a, inverse(a)) == zero
    assert multiply(g, zero, a) == tuple(Fraction(x) for x in a)


def test_group_law_commutator_matches_brackets():
    # the group commutator of small elements isolates the bracket matrices
    g = GroupSpec.left_qh(1)
    e1 = (Fraction(1), 0, 0, 0, 0, 0, 0)
    e2 = (0, Fraction(1), 0, 0, 0, 0, 0)
    pq = multiply(g, e1, e2)
    qp = multiply(g, e2, e1)
    comm = multiply(g, pq, inverse(qp))
    assert comm[:4] == (0, 0, 0, 0)
    assert comm[4:] == tuple(4 * b[0][1] for b in package_brackets(g))


def test_classify_payload():
    result = classify(GroupSpec.abelian(1))
    assert result["right_type"] and not result["stratified"]
    assert result["condition_H"]["verdict"] == "false"
    assert result["routes_agree"]
