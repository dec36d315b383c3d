"""Differential tests of the exact box quadrature.

Each quantity has one reference, a closed form that reads no package kernel:

- box integral (``integrate_poly_box``): ``monomial_reference``, each monomial
  as prod (b^(e+1) - a^(e+1)) / (e+1), in ``test_box_and_face_integrals_equal_the_closed_form``;
- face pair (``integrate_poly_faces``): ``monomial_reference`` with the axis
  frozen at the high face minus the same at the low face, in
  ``test_box_and_face_integrals_equal_the_closed_form``,
  ``test_paired_faces_are_the_high_face_minus_the_low_face`` and
  ``test_face_integral_is_the_box_integral_of_the_frozen_polynomial``
  (``tests/test_ma.py`` reads it for the Stokes face term);
- cutoff-jet integral (``integrate_jets``): ``ReferenceSum``, the bump and
  its derivatives expanded by hand into univariate factors, each integrated
  by ``uni_integral``, in ``test_separable_sum_against_expanded``,
  ``test_integrate_box_matches_per_term_reference`` and
  ``test_integer_sum_matches_the_fraction_reference``;
- the Leibniz step (``CutoffJet.apply_op``): ``reference_apply_op``, one
  ``Poly`` per part moved by the Poly-coefficient operator algebra of
  ``tests/test_operators.py``, in ``test_apply_op_matches_the_per_part_leibniz_step``.
"""

import random
from fractions import Fraction
from functools import cache
from math import gcd, lcm, prod

import pytest

from cfx.boundary import TangentFrame
from cfx.groups import GroupSpec
from cfx.operators import FirstOrderOp
from cfx.poly import BITS, Poly, pack, x_vars
from cfx.quadrature import CutoffJet, integrate_jets, integrate_poly_box, integrate_poly_faces
from cfx.randgen import SectionGenerator
from test_operators import alpha_view, coeffs, reference_apply
from test_poly import power
from test_rational import ComplexRational, cq, terms

V = x_vars(3)


# -- the per-part view of a cutoff jet ------------------------------------------------------


def jet_of(variables, parts: dict) -> CutoffJet:
    """The jet sum_alpha P_alpha d^alpha chi of {alpha: nonzero Poly}: each
    term's key is its monomial plus alpha packed past the variable table."""
    variables = tuple(variables)
    den = lcm(1, *(p.den for p in parts.values()))
    lift = BITS * len(variables)
    num = {key + (pack(alpha) << lift): (re * (den // p.den), im * (den // p.den))
           for alpha, p in parts.items() for key, (re, im) in p.num.items()}
    return CutoffJet._make(variables, num, den)


def jet_parts(jet) -> dict:
    """{alpha: Poly P_alpha} of a jet, read key by key."""
    return {alpha: Poly._make(jet.vars, num, jet.den)
            for alpha, num in alpha_view(jet.vars, jet.num).items()}


def reference_apply_op(parts: dict, op) -> dict:
    """The Leibniz step part by part, on Polys: Z(P_alpha) at alpha and
    c_v P_alpha at alpha + e_v, summed with ``Poly`` arithmetic."""
    out = {}

    def add(alpha, p):
        out[alpha] = out.get(alpha, Poly.zero(op.vars)) + p

    for alpha, part in parts.items():
        add(alpha, reference_apply(op, part))
        for name, c in coeffs(op).items():
            i = op.vars.index(name)
            add(alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:], c * part)
    return {alpha: p for alpha, p in out.items() if p}


def assert_canonical_jet(jet):
    """No (0, 0) numerator, gcd 1 with den, den 1 for the zero jet."""
    assert jet.den > 0 and all(re or im for re, im in jet.num.values())
    assert gcd(jet.den, *(x for value in jet.num.values() for x in value)) == 1
    assert jet.num or jet.den == 1


# -- the Fraction reference: univariate helpers and the factored sum -------------------------


def uni_mul_x(coeffs: tuple, power: int) -> tuple:
    return (Fraction(0),) * power + tuple(coeffs)


def uni_diff(coeffs: tuple) -> tuple:
    return tuple(c * i for i, c in enumerate(coeffs))[1:] or (Fraction(0),)


def uni_integral(coeffs: tuple, a, b) -> Fraction:
    a, b = Fraction(a), Fraction(b)
    return sum((c * (b ** (i + 1) - a ** (i + 1)) / (i + 1)
                for i, c in enumerate(coeffs) if c), Fraction(0))


# every univariate factor, a tuple of Fractions (lowest power first, no zero
# top coefficient), is stored once and named by its index, so that the sums
# below hash ints, not Fractions; index 0 is the zero factor ()
_FACTORS: list = [()]
_INDEX: dict = {(): 0}


def factor_index(factor: tuple) -> int:
    """The index of a univariate factor."""
    top = len(factor)
    while top and not factor[top - 1]:
        top -= 1
    factor = tuple(factor[:top])
    if factor not in _INDEX:
        _INDEX[factor] = len(_FACTORS)
        _FACTORS.append(factor)
    return _INDEX[factor]


@cache
def _diff(i: int) -> int:
    return factor_index(uni_diff(_FACTORS[i]))


@cache
def _times_x(i: int, e: int) -> int:
    return factor_index(uni_mul_x(_FACTORS[i], e))


class ReferenceSum:
    """sum c * prod_axis f_axis(x_axis) over ComplexRational coefficients c:
    ``terms`` maps the tuple of factor indices, one per axis, to its nonzero
    c, so terms with equal factors merge and a term with a zero factor is
    dropped.  With the bump factors below it
    holds a cutoff jet expanded by hand."""

    def __init__(self, naxes: int, terms=()):
        self.naxes = naxes
        self.terms = {}
        for factors, c in terms:
            self._add(factors, c)

    def _add(self, factors: tuple, c) -> None:
        if all(factors):
            total = self.terms.pop(factors, cq(0)) + c
            if total:
                self.terms[factors] = total

    def __add__(self, other):
        return ReferenceSum(self.naxes, [*self.terms.items(), *other.terms.items()])

    def __neg__(self):
        return ReferenceSum(self.naxes, [(f, -c) for f, c in self.terms.items()])

    def __sub__(self, other):
        return self + (-other)

    def apply_op(self, op, axis_of):
        """sum_v c_v d_v of the sum, c_v a polynomial: for each term and
        variable, the factor of the variable's axis differentiated, times
        each monomial of c_v, a power of x on every axis."""
        out = ReferenceSum(self.naxes)
        for var, coeff_poly in coeffs(op).items():
            axis = axis_of[var]
            for factors, c in self.terms.items():
                d = factors[:axis] + (_diff(factors[axis]),) + factors[axis + 1:]
                for expo, w in terms(coeff_poly).items():
                    out._add(tuple(_times_x(f, e) for f, e in zip(d, expo)), c * w)
        return out

    def integrate_box(self, lows, highs, weight=None):
        """sum_terms c * sum_monomials w * prod_axis int x^e f_axis, each
        univariate integral by ``uni_integral``, once per axis, factor and e."""
        monomials = [((0,) * self.naxes, cq(1))] if weight is None else terms(weight).items()
        moments = {}  # (axis, factor, e) -> the integral's (numerator, denominator)
        total = cq(0)
        for expo, w in monomials:
            re = im = Fraction(0)
            for factors, c in self.terms.items():
                num = den = 1
                for key in zip(range(self.naxes), factors, expo):
                    if key not in moments:
                        axis, f, e = key
                        m = uni_integral(uni_mul_x(_FACTORS[f], e), lows[axis], highs[axis])
                        moments[key] = m.numerator, m.denominator
                    m, d = moments[key]
                    num *= m
                    den *= d
                value = Fraction(num, den)
                re += c.re * value
                im += c.im * value
            total = total + w * ComplexRational(re, im)
        return total


def test_box_integration_separable():
    p = Poly.var(V, "x1") * Poly.var(V, "x1")
    assert integrate_poly_box(p, [0, 0, 0], [1, 1, 1]) == (Fraction(1, 3), 0)


# -- integrate_poly_box / integrate_poly_faces against a per-monomial closed form ----------


def monomial_reference(p, lows, highs, frozen=None) -> ComplexRational:
    """The exact sum of c * prod_i (b_i^(e_i+1) - a_i^(e_i+1)) / (e_i+1);
    a ``frozen`` (axis, value) pair evaluates that axis at the value instead,
    which is the integral over the face x_axis = value."""
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


def face_pair_reference(p, lows, highs, axis: int) -> ComplexRational:
    """The face x_axis = high minus the face x_axis = low, each by
    :func:`monomial_reference`."""
    return (monomial_reference(p, lows, highs, frozen=(axis, highs[axis]))
            - monomial_reference(p, lows, highs, frozen=(axis, lows[axis])))


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
        monomial_reference(p, lows, highs)
    for axis in range(3):
        assert ComplexRational(*integrate_poly_faces(p, lows, highs, axis)) == \
            face_pair_reference(p, lows, highs, axis)


def test_box_integral_of_zero_and_mismatched_box():
    assert integrate_poly_box(Poly.zero(V), [0, 0, 0], [1, 1, 1]) == (0, 0)
    with pytest.raises(ValueError, match="variable table"):
        integrate_poly_box(Poly.var(V, "x1"), [0, 0], [1, 1])
    # a face axis past the table would leave every axis a moment table
    for axis in (-1, 3):
        with pytest.raises(ValueError, match="variable table"):
            integrate_poly_faces(Poly.var(V, "x1"), [0, 0, 0], [1, 1, 1], axis)


def _face_case(rng, naxes: int) -> tuple:
    """A box that is not centred, with bounds that are not dyadic (one low
    of 0 in some draws), and a random polynomial carrying every power 0..6
    of a random axis, each with random powers 0..3 of the others."""
    lows, highs = [], []
    for _ in range(naxes):
        low = Fraction(rng.randint(-9, 6), rng.choice([3, 5, 7, 9])) if rng.random() < 0.8 \
            else Fraction(0)
        lows.append(low)
        highs.append(low + Fraction(rng.randint(1, 9), rng.choice([3, 5, 7, 11])))
    axis = rng.randrange(naxes)
    variables = x_vars(naxes)
    p = Poly.zero(variables)
    for e in range(7):
        expo = [rng.randint(0, 3) for _ in range(naxes)]
        expo[axis] = e
        p = p + Poly.monomial(variables, expo, (_rand_fraction(rng), _rand_fraction(rng)))
    return p, lows, highs, axis


@pytest.mark.parametrize("seed", range(12))
def test_paired_faces_are_the_high_face_minus_the_low_face(seed):
    # one moment sum against the two faces by the closed form, on the whole
    # polynomial and on each power x_axis^e, e = 0..6, alone
    rng = random.Random(seed)
    p, lows, highs, axis = _face_case(rng, rng.choice([1, 2, 3, 4]))
    assert any(l + h for l, h in zip(lows, highs))
    assert ComplexRational(*integrate_poly_faces(p, lows, highs, axis)) == \
        face_pair_reference(p, lows, highs, axis)
    for e in range(7):
        expo = [0] * len(p.vars)
        expo[axis] = e
        x_e = Poly.monomial(p.vars, expo, 1)
        got = integrate_poly_faces(x_e, lows, highs, axis)
        assert ComplexRational(*got) == face_pair_reference(x_e, lows, highs, axis)
        # the other axes integrate 1 to the side lengths
        width = prod(h - l for a, (l, h) in enumerate(zip(lows, highs)) if a != axis)
        assert got == (width * (highs[axis] ** e - lows[axis] ** e), 0)


@pytest.mark.parametrize("seed", range(6))
def test_face_integral_is_the_box_integral_of_the_frozen_polynomial(seed):
    # the face pair with its low face at the box's low bound, at 0 (every
    # term with the axis drops out) and at -7/3, below every box: the row
    # H^e - L^e of the frozen axis at L = 0 and at a negative L
    rng = random.Random(seed)
    p = _random_poly(rng, V, terms=rng.randint(1, 8))
    lows = [Fraction(-3, 4), Fraction(1, 3), Fraction(-2, 7)]
    highs = [Fraction(1, 2), Fraction(5, 3), Fraction(9, 5)]
    for axis in range(3):
        for value in (lows[axis], Fraction(0), Fraction(-7, 3)):
            box = list(lows)
            box[axis] = value
            assert ComplexRational(*integrate_poly_faces(p, box, highs, axis)) == \
                face_pair_reference(p, box, highs, axis)


def test_face_integration_matches_divergence():
    # volume integral of d/dx1 equals the difference of the two face integrals
    p = power(Poly.var(V, "x1"), 2) * Poly.var(V, "x2")
    dp = p.diff("x1")
    volume = integrate_poly_box(dp, [0, 0, 0], [1, 1, 1])
    assert integrate_poly_faces(p, [0, 0, 0], [1, 1, 1], 0) == volume


def test_uni_helpers():
    assert uni_diff((Fraction(1), Fraction(2), Fraction(3))) == (2, 6)
    assert uni_integral((Fraction(0), Fraction(1)), 0, 2) == 2


# -- the cutoff by hand: the bump factor, the bump and the reference jet --------------------


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
    return ReferenceSum(len(lows), [(tuple(factor_index(bump_factor(l, h))
                                           for l, h in zip(lows, highs)), cq(1))])


def reference_jet(jet, lows, highs) -> ReferenceSum:
    """sum_alpha P_alpha d^alpha chi term by term: c x^e in P_alpha becomes
    c prod_axis x^e_axis phi_axis^(alpha_axis)."""
    out = []
    for alpha, part in jet_parts(jet).items():
        for expo, c in terms(part).items():
            factors = []
            for axis, (l, h) in enumerate(zip(lows, highs)):
                f = bump_factor(l, h)
                for _ in range(alpha[axis]):
                    f = uni_diff(f)
                factors.append(factor_index(uni_mul_x(f, expo[axis])))
            out.append((tuple(factors), c))
    return ReferenceSum(len(lows), out)


def _jet_integral(jet, lows, highs, weight):
    [value] = integrate_jets(lows, highs, [[(jet, weight)]])
    return ComplexRational(*value)


def test_separable_sum_against_expanded():
    # the jet after zero, one and two operators against the bump moved by
    # the same operators by hand
    lows, highs = [Fraction(-1, 3), 0, Fraction(1, 2)], [Fraction(2, 3), Fraction(1, 5), 2]
    ref = reference_bump(lows, highs)
    x1, x2, x3 = (Poly.var(V, name) for name in V)
    axis_of = {name: i for i, name in enumerate(V)}
    ops = [FirstOrderOp(V, {"x1": x2 * x3 + Poly.const(V, 1), "x3": x1.scale((0, 2))}),
           FirstOrderOp(V, {"x2": x1 * x1, "x1": Poly.const(V, Fraction(-3, 4))})]
    weight = x1 * x2 + x3.scale(Fraction(5, 7)) + Poly.const(V, (1, -1))
    jet = CutoffJet.bump(V)
    assert _jet_integral(jet, lows, highs, weight) == ref.integrate_box(lows, highs, weight)
    for op in ops:
        jet, ref = jet.apply_op(op), ref.apply_op(op, axis_of)
        assert _jet_integral(jet, lows, highs, weight) == ref.integrate_box(lows, highs, weight)


def test_separable_apply_first_order_op():
    # x2 d/dx1 on the bump puts x2 at d/dx1; d/dx1 on x1 chi keeps 1 at 0 (Leibniz)
    x1, x2 = Poly.var(V, "x1"), Poly.var(V, "x2")
    jet = CutoffJet.bump(V).apply_op(FirstOrderOp(V, {"x1": x2}))
    assert jet_parts(jet) == {(1, 0, 0): x2}
    jet = jet_of(V, {(0, 0, 0): x1}).apply_op(FirstOrderOp.partial(V, "x1"))
    assert jet_parts(jet) == {(0, 0, 0): Poly.const(V, 1), (1, 0, 0): x1}
    with pytest.raises(ValueError, match="variable tables"):
        CutoffJet.bump(V).apply_op(FirstOrderOp.partial(x_vars(2), "x1"))


def test_separable_integrate_against_poly():
    # int_0^1 x phi = 1/2 int_0^1 phi = 4/15 on [0, 1]: phi is symmetric about 1/2
    got = _jet_integral(CutoffJet.bump(V), [0, 0, 0], [1, 1, 1], Poly.var(V, "x1"))
    assert got == cq(Fraction(4, 15) * Fraction(8, 15) ** 2)
    assert uni_integral(bump_factor(0, 1), 0, 1) == Fraction(8, 15)


# -- the integer jet integral against the factored reference ----------------------------


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
    return jet_of(variables, {a: p for a, p in out.items() if p})


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
    want = reference_jet(jet, lows, highs).integrate_box(lows, highs, weight)
    assert _jet_integral(jet, lows, highs, weight) == want
    if weight_kind == "zero":
        assert want == cq(0)


def test_integrate_box_cancelling_terms_and_vanishing_axis():
    W = x_vars(2)
    x1 = Poly.var(W, "x1")
    jet = CutoffJet.bump(W).apply_op(FirstOrderOp(W, {"x2": x1 + Poly.const(W, 3)}))
    # jet - jet has no part left; an odd weight on the symmetric axis integrates to 0
    assert (jet - jet).num == {} and (jet - jet).den == 1
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


def test_integrate_jets_stops_at_order_two():
    # the cutoff rows go up to phi'': d1 d1 chi integrates (int phi'' = 0 on
    # the axis), d1 d1 d1 chi is refused by name, not read past the rows
    W = x_vars(2)
    d1 = FirstOrderOp.partial(W, "x1")
    jet = CutoffJet.bump(W).apply_op(d1).apply_op(d1)
    assert _jet_integral(jet, [0, 0], [1, 1], Poly.const(W, 1)) == cq(0)
    with pytest.raises(ValueError, match="order 3 on an axis: the cutoff rows stop at order 2"):
        _jet_integral(jet.apply_op(d1), [0, 0], [1, 1], Poly.const(W, 1))


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
            assert_canonical_jet(jet)
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
    jet = jet_of(V, {(0, 0, 0): x1, (1, 0, 0): x2})
    other = jet_of(V, {(1, 0, 0): x2, (0, 1, 0): x1})
    diff = jet - other
    assert jet_parts(diff) == {(0, 0, 0): x1, (0, 1, 0): -x1}
    assert jet_parts(diff - jet_of(V, {(0, 0, 0): x1})) == {(0, 1, 0): -x1}
    # a difference over a common den whose numerators share its factor
    half = jet_of(V, {(0, 0, 0): x1.scale(Fraction(1, 2)), (1, 0, 0): x2.scale(Fraction(1, 2))})
    for got in (diff, jet - half, half - half):
        assert_canonical_jet(got)
    assert jet_parts(jet - half) == {(0, 0, 0): x1.scale(Fraction(1, 2)),
                                     (1, 0, 0): x2.scale(Fraction(1, 2))}
    with pytest.raises(AttributeError):
        jet.num = {}


@pytest.mark.parametrize("frame_index", range(3), ids=["rightQH", "leftQH", "dense"])
def test_apply_op_matches_the_per_part_leibniz_step(frame_index, frames):
    # the packed step (one apply_into and one mul_into) against the Poly
    # Leibniz step part by part, on the lowered and raised rows and the
    # translations of each frame at n = 1 and 2, up to order 2
    for frame in frames[frame_index]:
        rng = random.Random(frame_index * 10 + frame.n)
        rows = [op for table in (frame.Z_lower, frame.Z_upper) for row in table for op in row]
        ops = rows + list(frame.T_upper.values())
        start = [CutoffJet.bump(frame.vars),
                 jet_of(frame.vars, {(0,) * len(frame.vars): _random_weight(rng, frame.vars, 3)})]
        for jet in start:
            for op1, op2 in (rng.sample(ops, 2) for _ in range(4)):
                once = jet.apply_op(op1)
                twice = once.apply_op(op2)
                for before, after, op in ((jet, once, op1), (once, twice, op2)):
                    assert_canonical_jet(after)
                    assert jet_parts(after) == reference_apply_op(jet_parts(before), op)
