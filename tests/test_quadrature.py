import random
from fractions import Fraction
from math import gcd

import pytest

from cfx.boundary import TangentFrame
from cfx.groups import GroupSpec
from cfx.operators import FirstOrderOp
from cfx.poly import Poly, x_vars
from cfx.quadrature import (SeparableSum, integrate_poly_box, integrate_poly_face,
                            substitute_axis)
from cfx.randgen import SectionGenerator
from cfx.rational import ComplexRational, cq

V = x_vars(3)


# -- the Fraction reference: univariate helpers and the term-list sum ------------------------


def uni_mul_x(coeffs: tuple, power: int) -> tuple:
    return (Fraction(0),) * power + tuple(coeffs)


def uni_diff(coeffs: tuple) -> tuple:
    return tuple(c * i for i, c in enumerate(coeffs))[1:] or (Fraction(0),)


def uni_integral(coeffs: tuple, a, b) -> Fraction:
    a, b = Fraction(a), Fraction(b)
    return sum((c * (b ** (i + 1) - a ** (i + 1)) / (i + 1)
                for i, c in enumerate(coeffs) if c), Fraction(0))


class ReferenceSum:
    """The ComplexRational term list that ``SeparableSum`` replaced: terms
    are (coefficient, {axis: tuple of Fractions}) and nothing is merged."""

    def __init__(self, naxes: int, terms=None):
        self.naxes = naxes
        self.terms = list(terms or [])

    @classmethod
    def zero(cls, naxes: int) -> "ReferenceSum":
        return cls(naxes, [])

    def __add__(self, other):
        return ReferenceSum(self.naxes, self.terms + other.terms)

    def scale(self, value):
        value = cq(value)
        return ReferenceSum(self.naxes, [(c * value, f) for c, f in self.terms])

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def mul_monomial(self, expo, coeff):
        coeff = cq(coeff)
        out = []
        for c, factors in self.terms:
            new = dict(factors)
            for axis, e in enumerate(expo):
                if e:
                    new[axis] = uni_mul_x(new.get(axis, (Fraction(1),)), e)
            out.append((c * coeff, new))
        return ReferenceSum(self.naxes, out)

    def diff_axis(self, axis: int):
        out = []
        for c, factors in self.terms:
            base = factors.get(axis)
            if base is None:
                continue
            d = uni_diff(base)
            if all(x == 0 for x in d):
                continue
            new = dict(factors)
            new[axis] = d
            out.append((c, new))
        return ReferenceSum(self.naxes, out)

    def apply_op(self, op, axis_of):
        out = ReferenceSum.zero(self.naxes)
        for var, coeff_poly in op.coeffs.items():
            d = self.diff_axis(axis_of[var])
            if not d.terms:
                continue
            for expo, c in coeff_poly.terms.items():
                out = out + d.mul_monomial(expo, c)
        return out

    def integrate_box(self, lows, highs, weight=None):
        return _reference_integrate(self, lows, highs, weight)


def test_box_integration_separable():
    p = Poly.var(V, "x1") * Poly.var(V, "x1")
    assert integrate_poly_box(p, [0, 0, 0], [1, 1, 1]) == Fraction(1, 3)


# -- integrate_poly_box / integrate_poly_face against a per-monomial closed form -----------


def _monomial_reference(p, lows, highs, frozen=None):
    """The exact sum of c * prod_i (b_i^(e_i+1) - a_i^(e_i+1)) / (e_i+1);
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
    return ComplexRational(re, im)


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
    assert integrate_poly_box(Poly.zero(V), [0, 0, 0], [1, 1, 1]) == 0
    with pytest.raises(ValueError, match="variable table"):
        integrate_poly_box(Poly.var(V, "x1"), [0, 0], [1, 1])


def test_substitute_axis_exact():
    p = Poly.var(V, "x1") * Poly.var(V, "x2") + Poly.var(V, "x1") ** 2
    q = substitute_axis(p, 0, Fraction(1, 2))
    assert q == Poly.var(V, "x2").scale(Fraction(1, 2)) + Poly.const(V, Fraction(1, 4))


def _assert_canonical_poly(p):
    assert p.den > 0 and (p.num or p.den == 1)
    g = p.den
    for re, im in p.num.values():
        assert (re, im) != (0, 0)
        g = gcd(g, re, im)
    assert g == 1 or not p.num


@pytest.mark.parametrize("seed", range(6))
def test_substitute_axis_at_zero_stores_no_zero_numerator(seed):
    # at the value 0 every term with the axis gets weight 0, and none may be
    # stored as a (0, 0) numerator
    rng = random.Random(seed)
    p = _random_poly(rng, V, terms=rng.randint(1, 8), max_exp=3)
    for axis in range(3):
        q = substitute_axis(p, axis, Fraction(0))
        _assert_canonical_poly(q)
        want = {e: c for e, c in p.terms.items() if not e[axis]}
        assert q == Poly(V, want)
    x1, x2 = Poly.var(V, "x1"), Poly.var(V, "x2")
    p = x1 * x2 - x2.scale(2)
    assert substitute_axis(p, 0, Fraction(0)) == x2.scale(-2)
    # at 2 the two terms land on one key and cancel: the key is deleted
    q = substitute_axis(p, 0, Fraction(2))
    _assert_canonical_poly(q)
    assert q.num == {} and q.den == 1


def test_face_integration_matches_divergence():
    # volume integral of d/dx1 equals the difference of the two face integrals
    p = Poly.var(V, "x1") ** 2 * Poly.var(V, "x2")
    dp = p.diff("x1")
    volume = integrate_poly_box(dp, [0, 0, 0], [1, 1, 1])
    hi = integrate_poly_face(p, [0, 0, 0], [1, 1, 1], 0, Fraction(1))
    lo = integrate_poly_face(p, [0, 0, 0], [1, 1, 1], 0, Fraction(0))
    assert volume == hi - lo


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
    assert s.integrate_box(lows, highs) == integrate_poly_box(p, lows, highs)


def test_separable_apply_first_order_op():
    factors = {0: (Fraction(0), Fraction(0), Fraction(1))}  # x1^2
    s = SeparableSum.product(3, factors)
    op = FirstOrderOp(V, {"x1": Poly.var(V, "x2")})  # x2 d/dx1
    out = s.apply_op(op)
    # x2 * 2 x1
    expected = Poly.var(V, "x1") * Poly.var(V, "x2") * 2
    assert out.integrate_box([0, 0, 0], [1, 1, 1]) == \
        integrate_poly_box(expected, [0, 0, 0], [1, 1, 1])


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


def _from_terms(naxes, terms):
    """SeparableSum of (coefficient, {axis: factor}) pairs, by product, scale and +."""
    total = SeparableSum.product(naxes, {}).scale(0)
    for coeff, factors in terms:
        total = total + SeparableSum.product(naxes, factors).scale(coeff)
    return total


def _random_sum(rng, naxes, terms):
    return _from_terms(naxes, _random_terms(rng, naxes, terms))


def _random_terms(rng, naxes, terms):
    """Random (coefficient, {axis: Fraction tuple}) pairs; every factor tuple
    appears three times."""
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
    return out + [(c * cq(Fraction(1, 2), -1), f) for c, f in out] + out


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


# -- differential test: the integer SeparableSum against the Fraction reference -------------


def _canonical(s) -> dict:
    """{key: ComplexRational} in the canonical form of SeparableSum, computed
    from the (coefficient, {axis: factor}) pairs with Fractions: each factor
    made primitive with a positive leading coefficient, equal keys merged."""
    out = {}
    for coeff, factors in s.terms:
        key = []
        for axis in range(s.naxes):
            f = [Fraction(c) for c in factors.get(axis, (1,))]
            while f and f[-1] == 0:
                f.pop()
            if not f:
                break
            common = 1
            for c in f:
                common = common * c.denominator // gcd(common, c.denominator)
            ints = [int(c * common) for c in f]
            g = gcd(*ints) * (1 if ints[-1] > 0 else -1)
            key.append(tuple(c // g for c in ints))
            coeff = coeff * cq(Fraction(g, common))
        else:
            key = tuple(key)
            out[key] = out.get(key, cq(0)) + coeff
    return {k: v for k, v in out.items() if not v.is_zero()}


def _assert_canonical(s):
    assert s.den > 0
    if not s.num:
        assert s.den == 1
    g = s.den
    for key, (re, im) in s.num.items():
        assert (re, im) != (0, 0)
        g = gcd(g, re, im)
        assert len(key) == s.naxes
        for f in key:
            assert f and f[-1] > 0 and gcd(*f) == 1
    assert g == 1 or not s.num


def _assert_same(fast, ref):
    _assert_canonical(fast)
    got = {key: ComplexRational(Fraction(re, fast.den), Fraction(im, fast.den))
           for key, (re, im) in fast.num.items()}
    assert got == _canonical(ref)


@pytest.fixture(scope="module")
def frames():
    dense = GroupSpec(1, SectionGenerator(4).right_type_matrix(1))
    return [TangentFrame(GroupSpec.right_qh(1)), TangentFrame(GroupSpec.left_qh(1)),
            TangentFrame(dense)]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("frame_index", range(3), ids=["rightQH", "leftQH", "dense"])
def test_integer_sum_matches_the_fraction_reference(seed, frame_index, frames):
    frame = frames[frame_index]
    rng = random.Random(seed)
    naxes = len(frame.vars)
    axis_of = {name: i for i, name in enumerate(frame.vars)}
    terms = _random_terms(rng, naxes, terms=2)
    fast, ref = _from_terms(naxes, terms), ReferenceSum(naxes, terms)
    _assert_same(fast, ref)
    # two rounds of lowered rows, as the degree-2 operator applies them
    a, b = rng.randrange(frame.dim), rng.randrange(frame.dim)
    for row, col in ((a, 0), (b, 1)):
        op = frame.Z_lower[row][col]
        fast, ref = fast.apply_op(op), ref.apply_op(op, axis_of)
        _assert_same(fast, ref)
    other_terms = _random_terms(rng, naxes, terms=1)
    other, other_ref = _from_terms(naxes, other_terms), ReferenceSum(naxes, other_terms)
    axis = rng.randrange(naxes)
    expo = tuple(rng.randint(0, 2) for _ in range(naxes))
    coeff = cq(_rand_fraction(rng), Fraction(rng.randint(1, 5), rng.randint(1, 4)))
    # d/dx_axis alone, and times one monomial, as apply_op runs them
    partial = FirstOrderOp.partial(frame.vars, frame.vars[axis])
    monomial_partial = FirstOrderOp(frame.vars,
                                    {frame.vars[axis]: Poly.monomial(frame.vars, expo, coeff)})
    steps = [
        (lambda s: s.apply_op(partial), lambda r: r.diff_axis(axis)),
        (lambda s: s.apply_op(monomial_partial),
         lambda r: r.diff_axis(axis).mul_monomial(expo, coeff)),
        (lambda s: s.scale(coeff), lambda r: r.scale(coeff)),
        (lambda s: s.scale(0), lambda r: r.scale(0)),
        (lambda s: s + other, lambda r: r + other_ref),
        (lambda s: s - other, lambda r: r - other_ref),
        (lambda s: s - s, lambda r: r - r),
    ]
    for step_fast, step_ref in steps:
        _assert_same(step_fast(fast), step_ref(ref))
    lows = [Fraction(-2, 3), Fraction(1, 5), Fraction(-7, 4)] + \
        [Fraction(-1, 2 + i) for i in range(naxes - 3)]
    highs = [Fraction(1, 2), Fraction(4, 3), Fraction(-1, 6)] + \
        [Fraction(3, 1 + i) for i in range(naxes - 3)]
    weights = [None, Poly.zero(frame.vars), _random_weight(rng, frame.vars, terms=3)]
    for weight in weights:
        for s, r in ((fast, ref), (fast + other, ref + other_ref)):
            assert s.integrate_box(lows, highs, weight) == r.integrate_box(lows, highs, weight)


def test_terms_view_shows_the_canonical_factors():
    s = SeparableSum.product(2, {0: (Fraction(1, 2), Fraction(-1, 3)), 1: (1,)}).scale(cq(1, 1))
    [(coeff, factors)] = s.terms
    assert len(s.terms) == 1
    # 1/2 - x/3 = (-1/6)(2x - 3): the content moves into the coefficient
    assert factors == {0: (-3, 2)} and coeff == cq(Fraction(-1, 6), Fraction(-1, 6))
    assert s.num == {((-3, 2), (1,)): (-1, -1)} and s.den == 6
