import random
from fractions import Fraction

import pytest

from cfx.operators import FirstOrderOp
from cfx.poly import Poly, x_vars
from cfx.quadrature import (SeparableSum, integrate_poly_box, integrate_poly_face,
                            substitute_axis, uni_diff, uni_integral, uni_mul_x)
from cfx.rational import ComplexRational, cq

V = x_vars(3)


def test_box_integration_separable():
    p = Poly.var(V, "x1") * Poly.var(V, "x1")
    val = integrate_poly_box(p, [0, 0, 0], [1, 1, 1])
    assert val.real == pytest.approx(1 / 3, rel=1e-14)
    assert val.imag == 0


# -- integrate_poly_box / integrate_poly_face against a per-monomial closed form -----------


def _monomial_reference(p, lows, highs, frozen=None):
    """complex() of the exact sum of c * prod_i (b_i^(e_i+1) - a_i^(e_i+1)) / (e_i+1);
    a ``frozen`` (axis, value) pair evaluates that axis at the value instead."""
    re = im = Fraction(0)
    for expo, c in p.terms.items():
        prod = Fraction(1)
        for axis, e in enumerate(expo):
            if frozen is not None and axis == frozen[0]:
                prod *= Fraction(frozen[1]) ** e
            else:
                a, b = Fraction(lows[axis]), Fraction(highs[axis])
                prod *= (b ** (e + 1) - a ** (e + 1)) / (e + 1)
        re += c.re * prod
        im += c.im * prod
    return complex(ComplexRational(re, im))


def _random_poly(rng, variables, terms, max_exp=5):
    p = Poly.zero(variables)
    for _ in range(terms):
        expo = tuple(rng.randint(0, max_exp) for _ in variables)
        p = p + Poly.monomial(variables, expo, cq(_rand_fraction(rng), _rand_fraction(rng)))
    return p


@pytest.mark.parametrize("seed", range(8))
def test_box_and_face_integrals_equal_the_closed_form(seed):
    rng = random.Random(seed)
    p = _random_poly(rng, V, terms=rng.randint(1, 8))
    lows = [Fraction(-3, 4), Fraction(1, 3), Fraction(-2, 7)]
    highs = [Fraction(1, 2), Fraction(5, 3), Fraction(9, 5)]
    assert integrate_poly_box(p, lows, highs) == _monomial_reference(p, lows, highs)
    for axis in range(3):
        for value in (lows[axis], highs[axis]):
            want = _monomial_reference(p, lows, highs, frozen=(axis, value))
            assert integrate_poly_face(p, lows, highs, axis, value) == want


def test_box_integral_of_zero_and_mismatched_box():
    assert integrate_poly_box(Poly.zero(V), [0, 0, 0], [1, 1, 1]) == 0j
    with pytest.raises(ValueError, match="variable table"):
        integrate_poly_box(Poly.var(V, "x1"), [0, 0], [1, 1])


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
    got = s.integrate_box([0, 0, 0], [1, 1, 1], p)
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
    if weight_kind == "zero":
        assert want == cq(0)


def test_integrate_box_cancelling_terms_and_vanishing_axis():
    s = SeparableSum.product(2, {0: (Fraction(0), Fraction(1)), 1: (Fraction(3),)})
    # s - s merges to a zero coefficient; an odd factor on [-1, 1] integrates to 0
    assert (s - s).integrate_box([0, 0], [1, 1]) == cq(0)
    assert s.scale(cq(0, 1)).integrate_box([-1, 0], [1, 1]) == cq(0)
    weight = Poly.var(x_vars(2), "x1")
    got = s.scale(cq(0, 1)).integrate_box([-1, 0], [1, 1], weight)
    assert got == cq(0, 2)  # i * 3 * int_{-1}^{1} x^2 dx


def test_integrate_box_rejects_mismatched_weight():
    s = SeparableSum.product(3, {0: (Fraction(1),)})
    with pytest.raises(ValueError):
        s.integrate_box([0, 0, 0], [1, 1, 1], Poly.var(x_vars(2), "x1"))
