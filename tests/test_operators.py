"""FirstOrderOp's integer table against the Poly-coefficient algebra.

The Poly-level operator algebra below (one ``Poly`` per coefficient, summed,
scaled, conjugated and differentiated with ``Poly`` arithmetic) is the
reference: the package keeps only the integer table.
"""

import random
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import pytest

from cfx.boundary import TangentFrame, ambient_frame, frak_d
from cfx.groups import GroupSpec
from cfx.operators import FirstOrderOp
from cfx.poly import BITS, FIELD, GUARD, Poly, x_vars
from cfx.randgen import SectionGenerator
from test_poly import conjugate, total_degree


# -- the Poly-coefficient algebra: the reference ----------------------------------------------


def alpha_view(variables, num: dict) -> dict:
    """{alpha: numerator dict of P_alpha} of a packed dict whose keys carry a
    derivative multi-index alpha past the variable table, one order per
    variable (a ``FirstOrderOp``'s or a ``CutoffJet``'s), read key by key:
    alpha is a tuple and the terms are keyed by their monomials."""
    width = len(variables)
    low = (1 << BITS * width) - 1
    view = {}
    for key, value in num.items():
        alpha = tuple(key >> BITS * (width + v) & FIELD for v in range(width))
        assert key >> BITS * 2 * width == 0, "a key past alpha's fields"
        view.setdefault(alpha, {})[key & low] = value
    return view


def coeffs(op) -> dict:
    """{variable name: Poly coefficient} of an operator, in its dict's order;
    every alpha of an operator is the unit of one variable."""
    out = {}
    for alpha, num in alpha_view(op.vars, op.num).items():
        assert sorted(alpha) == [0] * (len(alpha) - 1) + [1], alpha
        out[op.vars[alpha.index(1)]] = Poly._make(op.vars, num, op.den)
    return out


def coefficient(cs: dict, variables, name) -> Poly:
    return cs.get(name, Poly.zero(variables))


def reference_apply(op, p):
    """sum_v c_v * d_v p, one Poly per partial, product and partial sum."""
    out = Poly.zero(op.vars)
    for v, c in coeffs(op).items():
        d = p.diff(v)
        if d:
            out = out + c * d
    return out


def _nonzero(cs: dict) -> dict:
    return {v: c for v, c in cs.items() if not c.is_zero()}


def _merged(x, cs: dict) -> dict:
    """The coefficients of x plus those of ``cs``, Poly by Poly."""
    merged = coeffs(x)
    for v, c in cs.items():
        merged[v] = coefficient(merged, x.vars, v) + c
    return _nonzero(merged)


def reference_neg(x) -> dict:
    return {v: -c for v, c in coeffs(x).items()}


def reference_add(x, y) -> dict:
    return _merged(x, coeffs(y))


def reference_sub(x, y) -> dict:
    return _merged(x, reference_neg(y))


def reference_scale(x, value) -> dict:
    return _nonzero({v: c.scale(value) for v, c in coeffs(x).items()})


def reference_conjugate(x) -> dict:
    return {v: conjugate(c) for v, c in coeffs(x).items()}


def reference_commutator(x, y) -> dict:
    """[x, y]: x applied to y's coefficients minus y applied to x's."""
    cx, cy = coeffs(x), coeffs(y)
    out = {}
    for v in set(cx) | set(cy):
        c = (reference_apply(x, coefficient(cy, x.vars, v))
             - reference_apply(y, coefficient(cx, x.vars, v)))
        if not c.is_zero():
            out[v] = c
    return out


def reference_kernel(variables, cs: dict) -> tuple:
    """(den, {variable index: {key: (re, im)}}) of a Poly-coefficient
    operator: den the lcm of the coefficient denominators, 0 the key of the
    constant term."""
    den = lcm(1, *(c.den for c in cs.values()))
    return den, {variables.index(v): {e: (re * (den // c.den), im * (den // c.den))
                                      for e, (re, im) in c.num.items()}
                 for v, c in cs.items()}


def assert_canonical(op):
    """Int keys, each a monomial plus the unit of one variable past the
    table; no (0, 0) numerator; gcd 1; den 1 for zero."""
    assert op.den > 0
    assert all(type(key) is int and key >= 0 and not key & GUARD for key in op.num)
    assert all(re or im for re, im in op.num.values())
    assert all(sorted(alpha) == [0] * (len(alpha) - 1) + [1]
               for alpha in alpha_view(op.vars, op.num))
    g = op.den
    for re, im in op.num.values():
        g = gcd(g, re, im)
    assert g == 1
    if not op.num:
        assert op.den == 1


def assert_matches(op, cs: dict):
    """``op`` is canonical and has the reference's coefficients and kernel rows."""
    assert_canonical(op)
    assert coeffs(op) == cs
    rows = op.kernel()
    assert all(unit == 1 << shift and shift % BITS == 0 for shift, unit, _ in rows)
    assert (op.den, {shift // BITS: {e: (re, im) for e, re, im in terms}
                  for shift, _, terms in rows}) == reference_kernel(op.vars, cs)


def _blocked_right_type(n, seed, factors):
    """A dense right-type group with the 4x4 block (l, m) of S scaled by
    factors(l, m), symmetric in l and m: the right-type conditions are
    linear in each 4x4 block pair, so they still hold."""
    S = SectionGenerator(seed).right_type_matrix(n)
    return GroupSpec(n, tuple(tuple(x * factors(i // 4, j // 4) for j, x in enumerate(row))
                              for i, row in enumerate(S)))


def _dense_rational_right_type():
    """A dense right-type n = 2 group whose fields have denominators 2 and 3:
    the diagonal blocks of S scaled by 1/4 and the off-diagonal ones by 1/3,
    and the fields carry 2 S."""
    frame = TangentFrame(_blocked_right_type(
        2, 4, lambda l, m: Fraction(1, 4) if l == m else Fraction(1, 3)))
    assert frame.right_type
    return frame


def _lowered(frame) -> list:
    """The lowered rows as the raised ones relabelled: Z_0 = -Z^1, Z_1 = Z^0.
    (``test_boundary.lowered_rows`` builds them from the fields; this module
    cannot import it, since ``test_boundary`` imports this one.)"""
    return [(-z1, z0) for z0, z1 in frame.Z_upper]


def _frame_ops(frame):
    rows = [op for table in (_lowered(frame), frame.Z_upper) for row in table for op in row]
    return list(frame.X) + rows


def _annihilated(op):
    """l^3 for a linear l with op(l) == 0, from two constant coefficients; else None."""
    const = [(v, c) for v, c in coeffs(op).items() if total_degree(c) == 0]
    if len(const) < 2:
        return None
    (u, cu), (v, cv) = const[:2]
    ell = Poly.var(op.vars, u) * cv - Poly.var(op.vars, v) * cu
    return ell * ell * ell


def _polys(op, seed):
    """Seeded inputs with den > 1, plus one whose image cancels term by term."""
    gen = SectionGenerator(seed, degree=3, terms=4)
    out = []
    for t in range(3):
        g = gen.spawn(t)
        out.append(g.poly(op.vars).scale(Fraction(1, 6)))
        out.append(g.poly(op.vars) + Poly.const(op.vars, Fraction(2, 3)))
    zero = _annihilated(op)
    if zero is not None:
        assert reference_apply(op, zero).is_zero()
        out.append(zero.scale(Fraction(1, 5)))
        out.append(zero + out[0])
    return out


def _check(ops, seed):
    for k, op in enumerate(ops):
        for p in _polys(op, seed * 1000 + k):
            got = op.apply(p)
            assert got == reference_apply(op, p)
            # the same image through the accumulating entry point
            num = op.apply_into({}, p.num, 3)
            assert Poly._make(op.vars, num, p.den * op.den * 3) == got


@pytest.mark.parametrize("n", [0, 1, 2])
def test_apply_matches_reference_on_ambient_rows(n):
    _check(_frame_ops(ambient_frame(n)), n)


@pytest.mark.parametrize("name", ["rightQH", "leftQH"])
def test_apply_matches_reference_on_tangent_rows(name):
    _check(_frame_ops(TangentFrame(GroupSpec.named(name, 1))), 10 + len(name))


def test_apply_matches_reference_on_dense_rational_rows():
    frame = _dense_rational_right_type()
    ops = _frame_ops(frame)
    # each field mixes both kinds of block: its kernel clears 2 and 3
    assert {op.den for op in frame.X} == {6}
    assert any(total_degree(c) == 1 for op in ops for c in coeffs(op).values())
    _check(ops, 20)


def translation_ops(frame: TangentFrame) -> list:
    """The raised translations T^{a'b'} and their skew part (T^{01} - T^{10}) / 2,
    which is the canonical zero operator on every frame."""
    T = frame.T_upper
    return [*T.values(), (T[0, 1] - T[1, 0]).scale(Fraction(1, 2))]


def test_apply_matches_reference_on_t_operators():
    frame = _dense_rational_right_type()
    _check(translation_ops(frame), 30)


def test_apply_matches_reference_on_commutators():
    frame = _dense_rational_right_type()
    rows = [op for row in _lowered(frame)[:2] for op in row] + list(frame.X[:2])
    ops = [a.commutator(b) for a, b in product(rows, repeat=2)]
    assert any(not op.is_zero() for op in ops)
    _check(ops, 40)


def test_apply_rejects_another_variable_table():
    op = FirstOrderOp.partial(x_vars(2), "x1")
    with pytest.raises(ValueError, match="variable tables differ"):
        op.apply(Poly.var(x_vars(3), "x1"))
    with pytest.raises(ValueError, match="variable tables differ"):
        op.apply(Poly.zero(x_vars(3)))


def test_algebra_rejects_another_variable_table():
    # the table is keyed by variable index: without the check, operators on
    # two tables of one width would add coefficients of different variables
    op = FirstOrderOp.partial(x_vars(2), "x1")
    others = [FirstOrderOp.partial(("y1", "y2"), "y1"), FirstOrderOp.partial(x_vars(3), "x1"),
              FirstOrderOp(x_vars(3), {})]
    for other in others:
        for combine in (lambda x, y: x + y, lambda x, y: x - y,
                        lambda x, y: x.commutator(y)):
            for x, y in ((op, other), (other, op)):
                with pytest.raises(ValueError, match="variable tables differ"):
                    combine(x, y)
    with pytest.raises(ValueError, match="variable tables differ"):
        FirstOrderOp(x_vars(2), {"x1": Poly.var(x_vars(3), "x1")})


@pytest.mark.parametrize("call, error, message", [
    (lambda: FirstOrderOp(x_vars(2), {"x3": 1}), KeyError, "unknown variable 'x3'"),
    (lambda: FirstOrderOp.partial(x_vars(2), "t1"), KeyError, "unknown variable 't1'"),
    (lambda: FirstOrderOp.partial(x_vars(2), "x1", 0.5), TypeError,
     r"a scalar is an int, a Fraction or an \(re, im\) pair of them, not 0.5"),
    (lambda: FirstOrderOp.partial(x_vars(2), "x1").apply(1), TypeError,
     "^apply takes a Poly or an ExtForm, not int$"),
    (lambda: FirstOrderOp.partial(x_vars(2), "x1").apply(FirstOrderOp.partial(x_vars(2), "x2")),
     TypeError, "^apply takes a Poly or an ExtForm, not FirstOrderOp$"),
], ids=["unknown-variable", "unknown-partial", "float-coefficient", "apply-int",
        "apply-operator"])
def test_operator_errors_name_their_fault(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_op_without_coefficients_gives_the_zero_poly():
    V = x_vars(2)
    op = FirstOrderOp(V, {"x1": 0})
    assert op.is_zero() and op.den == 1 and str(op) == "0"
    p = Poly.var(V, "x1", (Fraction(1, 3), 1))
    got = op.apply(p)
    assert got == Poly.zero(V) and got.den == 1


# -- one Poly per result -------------------------------------------------------------------


def _count_make(monkeypatch):
    counts = {"make": 0}
    original = Poly._make

    def counted(cls, *args, **kwargs):
        counts["make"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(Poly, "_make", classmethod(counted))
    return counts


def test_apply_builds_one_poly(monkeypatch):
    frame = _dense_rational_right_type()
    op = frame.Z_upper[1][0]
    p = SectionGenerator(5, degree=3, terms=4).poly(frame.vars).scale(Fraction(1, 6))
    counts = _count_make(monkeypatch)
    got = op.apply(p)
    assert counts["make"] == 1
    monkeypatch.undo()
    assert got == reference_apply(op, p)


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_frak_d_builds_one_poly_per_component(monkeypatch, degree):
    frame = _dense_rational_right_type()
    gen = SectionGenerator(60 + degree, degree=2)
    f = gen.form(frame.dim, degree, frame.vars).scale(Fraction(1, 6))
    for aprime in (0, 1):
        counts = _count_make(monkeypatch)
        out = frak_d(aprime, f, frame)
        # frak_d builds no Poly; the view builds one per component, once
        assert counts["make"] == 0
        view = out.comps
        assert view and counts["make"] == len(view)
        assert out.comps is view and counts["make"] == len(view)
        monkeypatch.undo()


# -- the integer algebra against the Poly-coefficient reference ------------------------------

SCALARS = [0, 1, -3, 7, Fraction(1, 2), (0, 1), (Fraction(1, 3), Fraction(2, 3))]


def _sixths(l, m):
    # S denominators 2, 3 and 6: the diagonal blocks halved and thirded
    return Fraction(1, 6) if l != m else Fraction(1, 2 + l)


def _family_ops(frame, count=6):
    """The first fields, the first two lowered and raised rows, and for a
    tangent frame its translations."""
    ops = list(frame.X[:count])
    ops += [op for table in (_lowered(frame), frame.Z_upper) for row in table[:2] for op in row]
    if isinstance(frame, TangentFrame):
        ops += translation_ops(frame)
    return ops


def _seeded_ops(seed, count=8):
    """Operators on x1..x3 with Gaussian polynomial coefficients of degree <= 3,
    scaled by Gaussian rationals, some of them with a variable left out."""
    V = x_vars(3)
    gen = SectionGenerator(seed, degree=3, terms=3)
    rng = random.Random(seed)
    ops = []
    for t in range(count):
        g = gen.spawn(t)
        cs = {}
        for v in V:
            if rng.random() < 0.75:
                value = (Fraction(rng.randint(-4, 4), rng.randint(1, 6)),
                         Fraction(rng.randint(-4, 4), rng.randint(1, 6)))
                cs[v] = g.poly(V).scale(value if any(value) else 1)
        op = FirstOrderOp(V, cs)
        assert_matches(op, _nonzero(cs))
        ops.append(op)
    return ops


FAMILIES = {
    "ambient-1": lambda: _family_ops(ambient_frame(1)),
    "rightQH-1": lambda: _family_ops(TangentFrame(GroupSpec.right_qh(1))),
    "leftQH-2": lambda: _family_ops(TangentFrame(GroupSpec.left_qh(2))),
    "dense-right-1": lambda: _family_ops(
        TangentFrame(GroupSpec(1, SectionGenerator(71).right_type_matrix(1)))),
    "dense-right-2": lambda: _family_ops(
        TangentFrame(GroupSpec(2, SectionGenerator(72).right_type_matrix(2))), count=3),
    "sixths-2": lambda: _family_ops(TangentFrame(_blocked_right_type(2, 73, _sixths)), count=3),
    "seeded": lambda: _seeded_ops(74),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_unary_algebra_matches_the_poly_reference(family):
    ops = FAMILIES[family]()
    if family in ("sixths-2", "seeded"):
        assert any(op.den > 1 for op in ops)
    for op in ops:
        assert_matches(op, coeffs(op))
        assert_matches(-op, reference_neg(op))
        assert_matches(op.conjugate(), reference_conjugate(op))
        for value in SCALARS:
            assert_matches(op.scale(value), reference_scale(op, value))


@pytest.mark.parametrize("family", FAMILIES)
def test_binary_algebra_matches_the_poly_reference(family):
    ops = FAMILIES[family]()
    rng = random.Random(len(family))
    pairs = [(x, y) for x, y in product(ops, repeat=2) if rng.random() < 0.4]
    nonzero = 0
    for x, y in pairs:
        assert_matches(x + y, reference_add(x, y))
        assert_matches(x - y, reference_sub(x, y))
        bracket = x.commutator(y)
        assert_matches(bracket, reference_commutator(x, y))
        nonzero += not bracket.is_zero()
    assert len(pairs) > 20
    if family != "ambient-1":
        assert nonzero


@pytest.mark.parametrize("family", FAMILIES)
def test_cancelling_sums_give_the_canonical_zero(family):
    ops = FAMILIES[family]()
    zero = FirstOrderOp(ops[0].vars, {})
    assert_matches(zero, {})
    for x, y in zip(ops, ops[1:] + ops[:1]):
        for got in (x + (-x), x - x, x + x.scale(-1), x.scale((0, 1)) + x.scale((0, -1)),
                    (x + y) - x - y, x.scale(Fraction(1, 2)) + x.scale(Fraction(-1, 2)),
                    x.commutator(x), x.scale(0), zero.scale(3), zero.conjugate(), -zero):
            assert_matches(got, {})
            assert got == zero and hash(got) == hash(zero)
        assert x + zero == x == zero + x
