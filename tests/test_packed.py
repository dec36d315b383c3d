"""The shared contract of the packed layout (``poly.Packed``), on its four kinds.

A ``Poly``, an ``ExtForm``, a ``FirstOrderOp`` and a ``CutoffJet`` are each
one Gaussian-integer numerator dict over one ``den``.  Whatever its keys
mean, every value the ring operations build is canonical: no ``(0, 0)``,
gcd 1 of ``den`` and the numerators, ``den == 1`` for zero, so ``==`` is
exact.  Values of two kinds are never equal, and no value can be changed.
"""

import random
from fractions import Fraction

import pytest

from cfx.exterior import ExtForm
from cfx.operators import FirstOrderOp
from cfx.poly import Poly, x_vars
from cfx.quadrature import CutoffJet
from test_poly import assert_canonical

V = x_vars(3)
KINDS = ["Poly", "ExtForm", "FirstOrderOp", "CutoffJet"]


def build(kind: str, p: Poly, q: Poly, variables=V):
    """A value of ``kind`` from two coefficients: p + q x2, the 1-form
    p w^0 + q w^2, the operator p d1 + q d3, and that operator moved onto
    the bump, the jet p d1 chi + q d3 chi."""
    if kind == "Poly":
        return p + q * Poly.var(variables, "x2")
    if kind == "ExtForm":
        return ExtForm(3, 1, variables, {(0,): p, (2,): q})
    op = FirstOrderOp(variables, {"x1": p, "x3": q})
    return op if kind == "FirstOrderOp" else CutoffJet.bump(variables).apply_op(op)


def random_poly(rng, variables=V) -> Poly:
    def frac():
        return Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 4, 6, 9]))

    return Poly(variables, {tuple(rng.randint(0, 2) for _ in variables): (frac(), frac())
                            for _ in range(rng.randint(1, 4))})


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", KINDS)
def test_every_packed_kind_keeps_the_canonical_contract(kind, seed):
    rng = random.Random(seed)
    p, q, r, s = (random_poly(rng) for _ in range(4))
    zero = Poly.zero(V)
    a, b = build(kind, p, q), build(kind, r, s)
    assert a.num and b.num and a != b
    # every operation's value is canonical, and a cancelled value is the zero
    # of its kind and shape, den 1
    third = Fraction(1, 3)
    results = [a + b, a - b, -a, a.scale(0), a - a, a.scale((third, 0)), a.scale((0, 2)),
               a.scale(third) + a.scale(third)]
    for value in results:
        assert type(value) is type(a)
        assert_canonical(value)
    for value in (a - a, a.scale(0), a + (-a)):
        assert value == build(kind, zero, zero) and value.num == {} and value.den == 1
        assert not value and value.is_zero()
    assert a and not a.is_zero()
    # == is exact: equal values reached over different dens are equal
    assert a.scale(third) + a.scale(Fraction(2, 3)) == a
    assert a - b == -(b - a) and a + b == b + a and a == build(kind, p, q)
    assert (a - b) + b == a and a.scale(third).scale(3) == a
    if kind == "ExtForm":
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a.scale(third) + a.scale(Fraction(2, 3))) == hash(a)
    # the variable tables must agree, for - as for +
    other = build(kind, *(random_poly(rng, x_vars(4)) for _ in range(2)), x_vars(4))
    for op in (a.__add__, a.__sub__):
        with pytest.raises(ValueError, match="variable table"):
            op(other)
    # immutable, with its kind's name
    for name in ("vars", "num", "den", "extra"):
        with pytest.raises(AttributeError, match=f"^{kind} is immutable$"):
            setattr(a, name, None)


def test_values_of_two_kinds_are_never_equal():
    # the same dict over the same den, two kinds: a 0-form and its Poly, an
    # operator and the jet it makes of the bump (whose keys pack alpha = e_v
    # as the operator packs d_v)
    p = random_poly(random.Random(5))
    form = ExtForm.from_scalar(3, p)
    assert (form.vars, form.num, form.den) == (p.vars, p.num, p.den)
    assert form != p and p != form
    op = FirstOrderOp(V, {"x1": p, "x3": p.scale(Fraction(1, 5))})
    jet = CutoffJet.bump(V).apply_op(op)
    assert (jet.vars, jet.num, jet.den) == (op.vars, op.num, op.den)
    assert jet != op and op != jet
    # forms differ in their shape too: the zero form of each degree and dim
    zeros = [ExtForm.zero(dim, degree, V) for dim in (2, 3) for degree in (0, 1)]
    assert [z == w for z in zeros for w in zeros] == [z is w for z in zeros for w in zeros]
