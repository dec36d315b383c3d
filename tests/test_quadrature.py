import random
from fractions import Fraction
from math import gcd

import pytest

from cfx.boundary import TangentFrame
from cfx.groups import GroupSpec
from cfx.operators import FirstOrderOp
from cfx.poly import Poly, add_term, pack, x_vars
from cfx.quadrature import CutoffJet, integrate_jets, integrate_poly_box, integrate_poly_face
from cfx.randgen import SectionGenerator
from test_operators import coeffs
from test_poly import power, tuple_num
from test_rational import ComplexRational, cq, pair, terms

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
    """A ComplexRational term list of factored functions: terms are
    (coefficient, {axis: tuple of Fractions}) and nothing is merged.  With
    the bump factors below it holds a cutoff jet expanded by hand."""

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
        for var, coeff_poly in coeffs(op).items():
            d = self.diff_axis(axis_of[var])
            if not d.terms:
                continue
            for expo, c in terms(coeff_poly).items():
                out = out + d.mul_monomial(expo, c)
        return out

    def integrate_box(self, lows, highs, weight=None):
        return _reference_integrate(self, lows, highs, weight)


def test_box_integration_separable():
    p = Poly.var(V, "x1") * Poly.var(V, "x1")
    assert integrate_poly_box(p, [0, 0, 0], [1, 1, 1]) == (Fraction(1, 3), 0)


# -- integrate_poly_box / integrate_poly_face against a per-monomial closed form -----------


def _monomial_reference(p, lows, highs, frozen=None):
    """The exact sum of c * prod_i (b_i^(e_i+1) - a_i^(e_i+1)) / (e_i+1);
    a ``frozen`` (axis, value) pair evaluates that axis at the value instead."""
    re = im = Fraction(0)
    for expo, c in terms(p).items():
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
        p = p + Poly.monomial(variables, expo, (_rand_fraction(rng), _rand_fraction(rng)))
    return p


@pytest.mark.parametrize("seed", range(8))
def test_box_and_face_integrals_equal_the_closed_form(seed):
    rng = random.Random(seed)
    p = _random_poly(rng, V, terms=rng.randint(1, 8))
    lows = [Fraction(-3, 4), Fraction(1, 3), Fraction(-2, 7)]
    highs = [Fraction(1, 2), Fraction(5, 3), Fraction(9, 5)]
    assert ComplexRational(*integrate_poly_box(p, lows, highs)) == \
        _monomial_reference(p, lows, highs)
    for axis in range(3):
        for value in (lows[axis], highs[axis]):
            want = _monomial_reference(p, lows, highs, frozen=(axis, value))
            assert ComplexRational(*integrate_poly_face(p, lows, highs, axis, value)) == want


def test_box_integral_of_zero_and_mismatched_box():
    assert integrate_poly_box(Poly.zero(V), [0, 0, 0], [1, 1, 1]) == (0, 0)
    with pytest.raises(ValueError, match="variable table"):
        integrate_poly_box(Poly.var(V, "x1"), [0, 0], [1, 1])
    # a face axis past the table would leave every axis a moment table
    for axis in (-1, 3):
        with pytest.raises(ValueError, match="variable table"):
            integrate_poly_face(Poly.var(V, "x1"), [0, 0, 0], [1, 1, 1], axis, 1)


def substitute_axis(p: Poly, axis: int, value: Fraction) -> Poly:
    """Freeze one variable at a rational value (exact): the face polynomial
    that ``integrate_poly_face`` integrated before it froze the axis in the
    moment sum.

    With value = r/s and E the highest power of the axis, x^e becomes
    r^e s^(E-e) / s^E: every term stays over the one denominator den * s^E.
    """
    value = Fraction(value)
    r, s = value.numerator, value.denominator
    num = tuple_num(p)
    top = max((expo[axis] for expo in num), default=0)
    out: dict = {}
    for expo, (re, im) in num.items():
        e = expo[axis]
        w = r ** e * s ** (top - e)
        add_term(out, pack(expo[:axis] + (0,) + expo[axis + 1:]), re * w, im * w)
    return Poly._make(p.vars, out, p.den * s ** top)


def test_substitute_axis_exact():
    p = Poly.var(V, "x1") * Poly.var(V, "x2") + power(Poly.var(V, "x1"), 2)
    q = substitute_axis(p, 0, Fraction(1, 2))
    assert q == Poly.var(V, "x2").scale(Fraction(1, 2)) + Poly.const(V, Fraction(1, 4))


@pytest.mark.parametrize("seed", range(6))
def test_face_integral_is_the_box_integral_of_the_frozen_polynomial(seed):
    # the reference route: freeze the axis in a Poly, then integrate over the
    # box with the frozen axis spanning [0, 1], where x^0 integrates to 1
    rng = random.Random(seed)
    p = _random_poly(rng, V, terms=rng.randint(1, 8))
    lows = [Fraction(-3, 4), Fraction(1, 3), Fraction(-2, 7)]
    highs = [Fraction(1, 2), Fraction(5, 3), Fraction(9, 5)]
    for axis in range(3):
        unit_lows, unit_highs = list(lows), list(highs)
        unit_lows[axis], unit_highs[axis] = 0, 1
        for value in (lows[axis], highs[axis], Fraction(0), Fraction(-7, 3)):
            want = integrate_poly_box(substitute_axis(p, axis, value), unit_lows, unit_highs)
            assert integrate_poly_face(p, lows, highs, axis, value) == want


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
        want = {e: c for e, c in terms(p).items() if not e[axis]}
        assert q == Poly(V, {e: pair(c) for e, c in want.items()})
    x1, x2 = Poly.var(V, "x1"), Poly.var(V, "x2")
    p = x1 * x2 - x2.scale(2)
    assert substitute_axis(p, 0, Fraction(0)) == x2.scale(-2)
    # at 2 the two terms land on one key and cancel: the key is deleted
    q = substitute_axis(p, 0, Fraction(2))
    _assert_canonical_poly(q)
    assert q.num == {} and q.den == 1


def test_face_integration_matches_divergence():
    # volume integral of d/dx1 equals the difference of the two face integrals
    p = power(Poly.var(V, "x1"), 2) * Poly.var(V, "x2")
    dp = p.diff("x1")
    volume = integrate_poly_box(dp, [0, 0, 0], [1, 1, 1])
    hi = integrate_poly_face(p, [0, 0, 0], [1, 1, 1], 0, Fraction(1))
    lo = integrate_poly_face(p, [0, 0, 0], [1, 1, 1], 0, Fraction(0))
    assert ComplexRational(*volume) == ComplexRational(*hi) - ComplexRational(*lo)


def test_uni_helpers():
    assert uni_diff((Fraction(1), Fraction(2), Fraction(3))) == (2, 6)
    assert uni_integral((Fraction(0), Fraction(1)), 0, 2) == 2


# -- the cutoff by hand: the bump factor, the expanded bump and the reference jet ------------


def bump_factor(low, high) -> tuple:
    """Fraction coefficients of ((x - l)(h - x))^2 / r^4, r = (h - l) / 2.

    With s = l + h and p = l h, (x - l)(h - x) = -x^2 + s x - p.
    """
    l, h = Fraction(low), Fraction(high)
    s, p = l + h, l * h
    r4 = ((h - l) / 2) ** 4
    return tuple(c / r4 for c in (p * p, -2 * p * s, s * s + 2 * p, -2 * s, 1))


def reference_bump(lows, highs) -> ReferenceSum:
    """The bump of the box as one product term."""
    return ReferenceSum(len(lows), [(cq(1), {axis: bump_factor(l, h)
                                             for axis, (l, h) in enumerate(zip(lows, highs))})])


def reference_jet(jet, lows, highs) -> ReferenceSum:
    """sum_alpha P_alpha d^alpha chi term by term: c x^e in P_alpha becomes
    c prod_axis x^e_axis phi_axis^(alpha_axis)."""
    out = []
    for alpha, part in jet.parts.items():
        for expo, c in terms(part).items():
            factors = {}
            for axis, (l, h) in enumerate(zip(lows, highs)):
                f = bump_factor(l, h)
                for _ in range(alpha[axis]):
                    f = uni_diff(f)
                factors[axis] = uni_mul_x(f, expo[axis])
            out.append((c, factors))
    return ReferenceSum(len(lows), out)


def expanded_bump(variables, lows, highs) -> Poly:
    """The bump of the box as one expanded polynomial (5^naxes terms)."""
    chi = Poly.const(variables, 1)
    for name, l, h in zip(variables, lows, highs):
        x = Poly.var(variables, name)
        chi = chi * sum((power(x, i) * c for i, c in enumerate(bump_factor(l, h))),
                        Poly.zero(variables))
    return chi


def _jet_integral(jet, lows, highs, weight):
    [value] = integrate_jets(lows, highs, [[(jet, weight)]])
    return ComplexRational(*value)


def test_separable_sum_against_expanded():
    # the jet after zero, one and two operators against the expanded bump,
    # moved by the same operators and integrated as one polynomial
    lows, highs = [Fraction(-1, 3), 0, Fraction(1, 2)], [Fraction(2, 3), Fraction(1, 5), 2]
    chi = expanded_bump(V, lows, highs)
    x1, x2, x3 = (Poly.var(V, name) for name in V)
    ops = [FirstOrderOp(V, {"x1": x2 * x3 + 1, "x3": x1.scale((0, 2))}),
           FirstOrderOp(V, {"x2": x1 * x1, "x1": Poly.const(V, Fraction(-3, 4))})]
    weight = x1 * x2 + x3.scale(Fraction(5, 7)) + Poly.const(V, (1, -1))
    jet = CutoffJet.bump(V)
    assert _jet_integral(jet, lows, highs, weight) == \
        ComplexRational(*integrate_poly_box(chi * weight, lows, highs))
    for op in ops:
        jet, chi = jet.apply_op(op), op.apply(chi)
        assert _jet_integral(jet, lows, highs, weight) == \
            ComplexRational(*integrate_poly_box(chi * weight, lows, highs))


def test_separable_apply_first_order_op():
    # x2 d/dx1 on the bump puts x2 at d/dx1; d/dx1 on x1 chi keeps 1 at 0 (Leibniz)
    x1, x2 = Poly.var(V, "x1"), Poly.var(V, "x2")
    jet = CutoffJet.bump(V).apply_op(FirstOrderOp(V, {"x1": x2}))
    assert jet.parts == {(1, 0, 0): x2}
    jet = CutoffJet(V, {(0, 0, 0): x1}).apply_op(FirstOrderOp.partial(V, "x1"))
    assert jet.parts == {(0, 0, 0): Poly.const(V, 1), (1, 0, 0): x1}
    with pytest.raises(ValueError, match="variable tables"):
        CutoffJet.bump(V).apply_op(FirstOrderOp.partial(x_vars(2), "x1"))


def test_separable_integrate_against_poly():
    # int_0^1 x phi = 1/2 int_0^1 phi = 4/15 on [0, 1]: phi is symmetric about 1/2
    got = _jet_integral(CutoffJet.bump(V), [0, 0, 0], [1, 1, 1], Poly.var(V, "x1"))
    assert got == cq(Fraction(4, 15) * Fraction(8, 15) ** 2)
    assert uni_integral(bump_factor(0, 1), 0, 1) == Fraction(8, 15)


# -- the integer jet integral against the per-term, per-monomial loop -------------------


def _reference_integrate(s, lows, highs, weight=None):
    """Every term on every axis, once per weight monomial, by uni_integral
    (each distinct factor integrated once)."""
    if weight is None:
        monomials = [((0,) * s.naxes, cq(1))]
    else:
        monomials = list(terms(weight).items())
    integrals = {}
    total = cq(0)
    for expo, w in monomials:
        for c, factors in s.terms:
            prod = Fraction(1)
            for axis in range(s.naxes):
                base = factors.get(axis, (Fraction(1),))
                if expo[axis]:
                    base = uni_mul_x(base, expo[axis])
                key = (axis, *((c.numerator, c.denominator) for c in base))
                if key not in integrals:
                    integrals[key] = uni_integral(base, lows[axis], highs[axis])
                prod *= integrals[key]
            total = total + c * w * cq(prod)
    return total


def _rand_fraction(rng, bound=4):
    return Fraction(rng.randint(-bound, bound), rng.randint(1, 3))


def _random_weight(rng, variables, terms):
    p = Poly.zero(variables)
    for _ in range(terms):
        expo = tuple(rng.randint(0, 3) for _ in variables)
        p = p + Poly.monomial(variables, expo, (_rand_fraction(rng), _rand_fraction(rng)))
    return p


def _random_jet(rng, variables, parts):
    """A jet of random parts at random orders 0..2 per axis; an order drawn
    twice sums its parts."""
    out = {}
    for _ in range(parts):
        alpha = tuple(rng.randint(0, 2) for _ in variables)
        out[alpha] = out.get(alpha, Poly.zero(variables)) + \
            _random_weight(rng, variables, rng.randint(1, 3))
    return CutoffJet(tuple(variables), {a: p for a, p in out.items() if p})


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("weight_kind", ["none", "zero", "poly"])
def test_integrate_box_matches_per_term_reference(seed, weight_kind):
    rng = random.Random(seed)
    jet = _random_jet(rng, V, parts=5)
    # axis 0 symmetric, the others asymmetric rational intervals
    lows = [Fraction(-2, 3), Fraction(-1, 3), Fraction(1, 5)]
    highs = [Fraction(2, 3), Fraction(2, 5), Fraction(7, 4)]
    weight = {"none": Poly.const(V, 1), "zero": Poly.zero(V),
              "poly": _random_weight(rng, V, terms=4)}[weight_kind]
    want = _reference_integrate(reference_jet(jet, lows, highs), lows, highs, weight)
    assert _jet_integral(jet, lows, highs, weight) == want
    if weight_kind == "zero":
        assert want == cq(0)


def test_integrate_box_cancelling_terms_and_vanishing_axis():
    W = x_vars(2)
    x1 = Poly.var(W, "x1")
    jet = CutoffJet.bump(W).apply_op(FirstOrderOp(W, {"x2": x1 + 3}))
    # jet - jet has no part left; an odd weight on the symmetric axis integrates to 0
    assert (jet - jet).parts == {}
    assert _jet_integral(jet - jet, [0, 0], [1, 1], x1) == cq(0)
    bump, i = CutoffJet.bump(W), (0, 1)
    assert _jet_integral(bump, [-1, 0], [1, 1], x1.scale(i)) == cq(0)
    # i * int_{-1}^{1} x^2 (1 - x^2)^2 dx * int_0^1 16 x^2 (1 - x)^2 dx
    assert _jet_integral(bump, [-1, 0], [1, 1], (x1 * x1).scale(i)) == \
        cq(0, Fraction(16, 105) * Fraction(8, 15))


def test_integrate_box_rejects_mismatched_weight():
    with pytest.raises(ValueError):
        _jet_integral(CutoffJet.bump(V), [0, 0, 0], [1, 1, 1], Poly.var(x_vars(2), "x1"))
    with pytest.raises(ValueError):
        _jet_integral(CutoffJet.bump(V), [0, 0], [1, 1], Poly.var(V, "x1"))


# -- differential test: the jet on the horizontal fields against the Fraction reference ----


@pytest.fixture(scope="module")
def frames():
    """rightQH, leftQH and a dense right-type group, each at n = 1 and n = 2."""
    makers = (GroupSpec.right_qh, GroupSpec.left_qh,
              lambda n: GroupSpec(n, SectionGenerator(4).right_type_matrix(n)))
    return [[TangentFrame(make(n)) for n in (1, 2)] for make in makers]


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("frame_index", range(3), ids=["rightQH", "leftQH", "dense"])
def test_integer_sum_matches_the_fraction_reference(seed, frame_index, frames):
    # the jet's integral after zero, one and two lowered rows, as the
    # degree-2 operator applies them, against the bump moved by hand
    for frame in frames[frame_index]:
        rng = random.Random(seed)
        naxes = len(frame.vars)
        axis_of = {name: i for i, name in enumerate(frame.vars)}
        lows = [Fraction(-rng.randint(1, 5), rng.randint(2, 7)) for _ in range(naxes)]
        highs = [Fraction(rng.randint(1, 5), rng.randint(2, 7)) for _ in range(naxes)]
        weights = [_random_weight(rng, frame.vars, terms=3) for _ in range(2)]
        jet, ref = CutoffJet.bump(frame.vars), reference_bump(lows, highs)
        a, b = rng.randrange(frame.dim), rng.randrange(frame.dim)
        for op in (None, frame.Z_lower[a][0], frame.Z_lower[b][1]):
            if op is not None:
                jet, ref = jet.apply_op(op), ref.apply_op(op, axis_of)
            assert all(part for part in jet.parts.values())
            want = [ref.integrate_box(lows, highs, w) for w in weights]
            got = integrate_jets(lows, highs, [[(jet, w)] for w in weights]
                                 + [[(jet, w) for w in weights]])
            assert [ComplexRational(*value) for value in got] == want + [want[0] + want[1]]
        # the part-by-part difference, against the same on the reference
        other = CutoffJet.bump(frame.vars).apply_op(frame.Z_lower[b][0])
        other_ref = reference_bump(lows, highs).apply_op(frame.Z_lower[b][0], axis_of)
        for fast, slow in ((jet - other, ref - other_ref), (jet - jet, ref - ref)):
            assert _jet_integral(fast, lows, highs, weights[0]) == \
                slow.integrate_box(lows, highs, weights[0])


def test_jet_parts_are_canonical_polys():
    # every part is a nonzero Poly: a part that cancels is dropped
    x1, x2 = Poly.var(V, "x1"), Poly.var(V, "x2")
    jet = CutoffJet(V, {(0, 0, 0): x1, (1, 0, 0): x2})
    other = CutoffJet(V, {(1, 0, 0): x2, (0, 1, 0): x1})
    diff = jet - other
    assert diff.parts == {(0, 0, 0): x1, (0, 1, 0): -x1}
    assert (diff - CutoffJet(V, {(0, 0, 0): x1})).parts == {(0, 1, 0): -x1}
    with pytest.raises(AttributeError):
        jet.parts = {}
