import random
from fractions import Fraction

import pytest

from cfx.operators import FirstOrderOp
from cfx.poly import Poly, x_vars
from cfx.quadrature import (SeparableSum, gauss_points_for_degree, gauss_rule,
                            integrate_poly_box, integrate_poly_face,
                            substitute_axis, uni_diff, uni_integral, uni_mul_x)
from cfx.rational import cq

V = x_vars(3)


def test_gauss_rule_exact_on_monomials():
    nodes, weights = gauss_rule(3)
    for e in range(6):  # exact through degree 5
        approx = sum(w * x ** e for x, w in zip(nodes, weights))
        exact = 0.0 if e % 2 else 2.0 / (e + 1)
        assert approx == pytest.approx(exact, abs=1e-14)


def test_points_for_degree():
    assert gauss_points_for_degree(0) == 2
    assert gauss_points_for_degree(4) == 3
    assert gauss_points_for_degree(5) == 3
    assert gauss_points_for_degree(6) == 4


def test_box_integration_separable():
    p = Poly.var(V, "x1") * Poly.var(V, "x1")
    val = integrate_poly_box(p, [0, 0, 0], [1, 1, 1])
    assert val.real == pytest.approx(1 / 3, rel=1e-14)
    assert val.imag == 0


def test_doubling_resolution_stable():
    p = Poly.var(V, "x1") ** 3 * Poly.var(V, "x2")
    a = integrate_poly_box(p, [-1, 0, 0], [1, 2, 1], min_points=2)
    b = integrate_poly_box(p, [-1, 0, 0], [1, 2, 1], min_points=4)
    assert a.real == pytest.approx(b.real, abs=1e-13)


def test_substitute_axis_exact():
    p = Poly.var(V, "x1") * Poly.var(V, "x2") + Poly.var(V, "x1") ** 2
    q = substitute_axis(p, 0, Fraction(1, 2))
    assert q == Poly.var(V, "x2").scale(Fraction(1, 2)) + Poly.const(V, Fraction(1, 4))


def test_face_integration_matches_divergence():
    # volume integral of d/dx1 equals the difference of the two face integrals
    p = Poly.var(V, "x1") ** 2 * Poly.var(V, "x2")
    dp = p.diff("x1")
    volume = integrate_poly_box(dp, [0, 0, 0], [1, 1, 1])
    hi = integrate_poly_face(p, [0, 0, 0], [1, 1, 1], 0, Fraction(1))
    lo = integrate_poly_face(p, [0, 0, 0], [1, 1, 1], 0, Fraction(0))
    assert volume.real == pytest.approx((hi - lo).real, abs=1e-13)


def test_uni_helpers():
    assert uni_diff((Fraction(1), Fraction(2), Fraction(3))) == (2, 6)
    assert uni_integral((Fraction(0), Fraction(1)), 0, 2) == 2


def test_separable_sum_against_expanded():
    factors = {0: (Fraction(1), Fraction(1)), 1: (Fraction(2), Fraction(0), Fraction(1))}
    s = SeparableSum.product(3, factors)
    # expanded polynomial (1 + x1)(2 + x2^2)
    p = (Poly.const(V, 1) + Poly.var(V, "x1")) * \
        (Poly.const(V, 2) + Poly.var(V, "x2") ** 2)
    lows, highs = [0, 0, 0], [1, 1, 1]
    exact = s.integrate_box(lows, highs)
    via_poly = integrate_poly_box(p, lows, highs)
    assert complex(exact) == pytest.approx(via_poly, rel=1e-14)


def test_separable_apply_first_order_op():
    factors = {0: (Fraction(0), Fraction(0), Fraction(1))}  # x1^2
    s = SeparableSum.product(3, factors)
    op = FirstOrderOp(V, {"x1": Poly.var(V, "x2")})  # x2 d/dx1
    out = s.apply_op(op, {name: i for i, name in enumerate(V)})
    # x2 * 2 x1
    expected = Poly.var(V, "x1") * Poly.var(V, "x2") * 2
    val = out.integrate_box([0, 0, 0], [1, 1, 1])
    want = integrate_poly_box(expected, [0, 0, 0], [1, 1, 1])
    assert complex(val) == pytest.approx(want, rel=1e-14)


def test_separable_integrate_against_poly():
    s = SeparableSum.product(3, {0: (Fraction(1), Fraction(1))})  # 1 + x1
    p = Poly.var(V, "x1")
    got = s.integrate_against_poly(p, [0, 0, 0], [1, 1, 1])
    # int_0^1 x(1+x) dx = 5/6
    assert got == cq(Fraction(5, 6))


# -- one-pass integrate_box against the per-term, per-monomial loop ---------------------


def _reference_integrate(s, lows, highs, weight=None):
    """Every term on every axis, once per weight monomial, by uni_integral."""
    if weight is None:
        monomials = [((0,) * s.naxes, cq(1))]
    else:
        monomials = list(weight.terms.items())
    total = cq(0)
    for expo, w in monomials:
        for c, factors in s.terms:
            prod = c * w
            for axis in range(s.naxes):
                base = factors.get(axis, (Fraction(1),))
                if expo[axis]:
                    base = uni_mul_x(base, expo[axis])
                prod = prod * cq(uni_integral(base, lows[axis], highs[axis]))
            total = total + prod
    return total


def _rand_fraction(rng, bound=4):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, 3))


def _random_sum(rng, naxes, terms):
    out = []
    for _ in range(terms):
        factors = {}
        for axis in range(naxes):
            kind = rng.choice(("missing", "one", "odd", "dense"))
            if kind == "one":
                factors[axis] = (Fraction(1),)
            elif kind == "odd":  # odd in x: vanishing moments on a symmetric axis
                factors[axis] = (Fraction(0), _rand_fraction(rng), Fraction(0),
                                 _rand_fraction(rng))
            elif kind == "dense":
                factors[axis] = tuple(_rand_fraction(rng)
                                      for _ in range(rng.randint(1, 4)))
        coeff = cq(_rand_fraction(rng), _rand_fraction(rng))
        out.append((coeff, factors))
    s = SeparableSum(naxes, out)
    return s + s.scale(cq(Fraction(1, 2), -1)) + s  # repeated factor tuples


def _random_weight(rng, variables, terms):
    p = Poly.zero(variables)
    for _ in range(terms):
        expo = tuple(rng.randint(0, 3) for _ in variables)
        p = p + Poly.monomial(variables, expo, cq(_rand_fraction(rng), _rand_fraction(rng)))
    return p


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("weight_kind", ["none", "zero", "poly"])
def test_integrate_box_matches_per_term_reference(seed, weight_kind):
    rng = random.Random(seed)
    s = _random_sum(rng, 3, terms=5)
    # axis 0 symmetric, the others asymmetric rational intervals
    lows = [Fraction(-2, 3), Fraction(-1, 3), Fraction(1, 5)]
    highs = [Fraction(2, 3), Fraction(2, 5), Fraction(7, 4)]
    weight = {"none": None, "zero": Poly.zero(V),
              "poly": _random_weight(rng, V, terms=4)}[weight_kind]
    want = _reference_integrate(s, lows, highs, weight)
    assert s.integrate_box(lows, highs, weight) == want
    if weight is not None:
        assert s.integrate_against_poly(weight, lows, highs) == want
    if weight_kind == "zero":
        assert want == cq(0)


def test_integrate_box_cancelling_terms_and_vanishing_axis():
    s = SeparableSum.product(2, {0: (Fraction(0), Fraction(1)), 1: (Fraction(3),)})
    # s - s merges to a zero coefficient; an odd factor on [-1, 1] integrates to 0
    assert (s - s).integrate_box([0, 0], [1, 1]) == cq(0)
    assert s.scale(cq(0, 1)).integrate_box([-1, 0], [1, 1]) == cq(0)
    weight = Poly.var(x_vars(2), "x1")
    got = s.scale(cq(0, 1)).integrate_against_poly(weight, [-1, 0], [1, 1])
    assert got == cq(0, 2)  # i * 3 * int_{-1}^{1} x^2 dx


def test_integrate_box_rejects_mismatched_weight():
    s = SeparableSum.product(3, {0: (Fraction(1),)})
    with pytest.raises(ValueError):
        s.integrate_box([0, 0, 0], [1, 1, 1], Poly.var(x_vars(2), "x1"))
