from fractions import Fraction

import pytest

from cfx.exterior import (ExtForm, from_hat_components, hat_component,
                          kaehler_like_sum, merge_sign, wedge)
from cfx.poly import Poly, x_vars
from cfx.randgen import SectionGenerator

V = x_vars(4)


def w(*idx):
    return ExtForm.basis(4, idx, V)


def top_form(dim: int, variables) -> ExtForm:
    """Reference: w^0 ^ w^1 ^ ... ^ w^{dim-1}."""
    return ExtForm.basis(dim, tuple(range(dim)), variables)


def test_wedge_antisymmetry_of_basis():
    assert wedge(w(0), w(1)) == w(0, 1)
    assert wedge(w(1), w(0)) == w(0, 1).scale(-1)


def test_wedge_repeated_index_vanishes():
    assert wedge(w(0), w(0)).is_zero()


def test_wedge_bilinearity():
    f = w(0).scale_poly(Poly.var(V, "x1"))
    g = w(1).scale_poly(Poly.var(V, "x2")) + w(2)
    result = wedge(f, g)
    x1x2 = Poly.var(V, "x1") * Poly.var(V, "x2")
    expected = ExtForm(4, 2, V, {(0, 1): x1x2, (0, 2): Poly.var(V, "x1")})
    assert result == expected


def test_dimension_mismatch_errors():
    other = ExtForm.basis(6, (0,), x_vars(4))
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
        assert wedge(ExtForm.basis(4, (a,), V), single) == top_form(4, V)



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
                   f.scale_poly(Poly.zero(V)), f.map_coeffs(lambda c: c - c),
                   f.map_coeffs(lambda c: c.diff("x1")), f.wedge(h), f.wedge(f),
                   f.wedge(g)]
        for form in results:
            assert all(not c.is_zero() for c in form.comps.values())
            assert form == ExtForm(form.dim, form.degree, V, form.comps)
        assert (f - f).is_zero() and f.scale(0).is_zero()
