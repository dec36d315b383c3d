from fractions import Fraction
from itertools import combinations

import pytest

from cfx.exterior import (ExtForm, from_hat_components, hat_component, insert_index,
                          kaehler_like_sum, merge_sign)
from cfx.poly import Poly, x_vars
from cfx.randgen import SectionGenerator

V = x_vars(4)


def wedge(f: ExtForm, g: ExtForm) -> ExtForm:
    return f.wedge(g)


def scale_poly(f: ExtForm, p: Poly) -> ExtForm:
    """f with every coefficient multiplied by the polynomial p."""
    return f.map_coeffs(lambda c: c * p)


def basis_form(dim, idx, variables, coeff=1) -> ExtForm:
    """The form coeff * w^{idx} for a strictly increasing tuple idx."""
    idx = tuple(idx)
    return ExtForm(dim, len(idx), variables, {idx: Poly.const(variables, coeff)})


def w(*idx):
    return basis_form(4, idx, V)


def top_form(dim: int, variables) -> ExtForm:
    """Reference: w^0 ^ w^1 ^ ... ^ w^{dim-1}."""
    return basis_form(dim, tuple(range(dim)), variables)


def test_wedge_antisymmetry_of_basis():
    assert wedge(w(0), w(1)) == w(0, 1)
    assert wedge(w(1), w(0)) == w(0, 1).scale(-1)


def test_wedge_repeated_index_vanishes():
    assert wedge(w(0), w(0)).is_zero()


def test_wedge_bilinearity():
    f = scale_poly(w(0), Poly.var(V, "x1"))
    g = scale_poly(w(1), Poly.var(V, "x2")) + w(2)
    result = wedge(f, g)
    x1x2 = Poly.var(V, "x1") * Poly.var(V, "x2")
    expected = ExtForm(4, 2, V, {(0, 1): x1x2, (0, 2): Poly.var(V, "x1")})
    assert result == expected


def test_dimension_mismatch_errors():
    other = basis_form(6, (0,), x_vars(4))
    with pytest.raises(ValueError, match="dimension mismatch"):
        wedge(w(0), other)


def test_strictly_increasing_enforced():
    with pytest.raises(ValueError, match="not strictly increasing"):
        ExtForm(4, 2, V, {(1, 0): Poly.const(V, 1)})


@pytest.mark.parametrize("seed", [3, 5, 11])
def test_graded_anticommutativity(seed):
    gen = SectionGenerator(seed)
    for p, q in [(1, 1), (1, 2), (2, 2), (2, 1)]:
        f = gen.form(4, p, V)
        g = gen.form(4, q, V)
        sign = (-1) ** (p * q)
        assert (wedge(f, g) - wedge(g, f).scale(sign)).is_zero()


def test_merge_sign_parity():
    assert merge_sign((0, 2), (1,)) == (-1, (0, 1, 2))
    assert merge_sign((0,), (1, 2)) == (1, (0, 1, 2))
    assert merge_sign((1,), (1, 2)) is None
    assert insert_index(1, (0, 2)) == (-1, (0, 1, 2))
    assert insert_index(2, (0, 2)) is None


# -- references: the merge-permutation sign and the Poly-level wedge loop ------------------


def _reference_merge_sign(left: tuple, right: tuple):
    """Merge two strictly increasing tuples; (sign, merged) or None, the sign
    being the parity of the permutation sorting left + right."""
    if set(left) & set(right):
        return None
    sign = 1
    merged = list(left)
    for r in right:
        pos = len(merged)
        while pos > 0 and merged[pos - 1] > r:
            pos -= 1
        sign *= -1 if (len(merged) - pos) % 2 else 1
        merged.insert(pos, r)
    return sign, tuple(merged)


def _reference_wedge(f: ExtForm, g: ExtForm):
    """(f ^ g, number of merged indices dropped because their sum cancelled),
    one ``Poly`` product, scaling and sum per pair of components."""
    out: dict = {}
    dropped = 0
    for i1, c1 in f.comps.items():
        for i2, c2 in g.comps.items():
            merged = _reference_merge_sign(i1, i2)
            if merged is None:
                continue
            sign, idx = merged
            term = (c1 * c2).scale(sign)
            acc = out.get(idx)
            acc = term if acc is None else acc + term
            if acc.is_zero():
                out.pop(idx, None)
                dropped += 1
            else:
                out[idx] = acc
    return ExtForm(f.dim, f.degree + g.degree, f.vars, out), dropped


def _index_tuples(dim: int) -> list:
    return [idx for d in range(dim + 1) for idx in combinations(range(dim), d)]


def test_insert_index_and_merge_sign_match_reference():
    # every pair of strictly increasing tuples over 7 indices covers every
    # pair with dim <= 7
    tuples = _index_tuples(7)
    for idx in tuples:
        for a in range(7):
            assert insert_index(a, idx) == _reference_merge_sign((a,), idx)
    pairs = vanishing = 0
    for left in tuples:
        for right in tuples:
            want = _reference_merge_sign(left, right)
            assert merge_sign(left, right) == want
            pairs += 1
            vanishing += want is None
    assert (pairs, vanishing) == (16384, 14197)


def _wedge_cases(count: int):
    """Seeded form pairs of mixed degrees (some past the top degree), with
    rational scalings; every tenth pair is f ^ c f at odd degree, which
    cancels completely."""
    gen = SectionGenerator(404, degree=2)
    for t in range(count):
        g = gen.spawn(t)
        rng = g.rng
        dim = rng.randint(1, 6)
        p = rng.randint(0, dim)
        f = g.form(dim, p, V).scale(Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 12)))
        if t % 10 == 0 and p % 2:
            h = f.scale(Fraction(rng.randint(1, 5), rng.randint(1, 5)))
        else:
            h = g.form(dim, rng.randint(0, dim), V).scale(
                Fraction(rng.randint(1, 7), rng.randint(1, 12)))
        yield f, h


def test_wedge_matches_poly_level_reference():
    cases = cancelling = 0
    for f, h in _wedge_cases(400):
        got = f.wedge(h)
        want, dropped = _reference_wedge(f, h)
        assert got == want and got.degree == f.degree + h.degree
        assert list(got.comps) == list(want.comps)
        cases += 1
        cancelling += dropped > 0
    assert (cases, cancelling) == (400, 5)


def test_top_and_pair_sum_forms():
    top = top_form(4, V)
    beta = kaehler_like_sum(4, V)
    assert wedge(beta, beta) == top.scale(2)  # beta^2 = 2! * top in dim 4


def test_hat_decomposition_roundtrip():
    gen = SectionGenerator(9)
    coeffs = [gen.spawn(i).poly(V) for i in range(4)]
    T = from_hat_components(4, V, coeffs)
    assert T.degree == 3
    for a in range(4):
        assert hat_component(T, a) == coeffs[a]
    # w^a ^ (w^a -| top) = top
    for a in range(4):
        single = from_hat_components(4, V, [Poly.const(V, 1) if i == a else Poly.zero(V)
                                            for i in range(4)])
        assert wedge(basis_form(4, (a,), V), single) == top_form(4, V)



def test_wedge_past_top_degree_keeps_true_degree():
    out = w(0, 1, 2).wedge(w(1, 3))
    assert out.is_zero() and out.degree == 5


@pytest.mark.parametrize("seed", [2, 9, 31])
def test_ring_results_hold_no_zero_component(seed):
    gen = SectionGenerator(seed, degree=2)
    for p in range(4):
        f = gen.form(4, p, V)
        g = gen.form(4, p, V)
        h = gen.form(4, 4 - p, V)
        results = [f + g, f - g, f - f, f + (-f), -f, f.scale(0), f.scale(Fraction(2, 3)),
                   scale_poly(f, Poly.zero(V)), f.map_coeffs(lambda c: c - c),
                   f.map_coeffs(lambda c: c.diff("x1")), f.wedge(h), f.wedge(f),
                   f.wedge(g)]
        for form in results:
            assert all(not c.is_zero() for c in form.comps.values())
            assert form == ExtForm(form.dim, form.degree, V, form.comps)
        assert (f - f).is_zero() and f.scale(0).is_zero()
