"""FirstOrderOp's integer kernel against the per-coefficient Poly loop."""

from fractions import Fraction
from itertools import product

import pytest

from cfx.boundary import TangentFrame, ambient_frame, frak_d
from cfx.groups import GroupSpec
from cfx.operators import FirstOrderOp
from cfx.poly import Poly, x_vars
from cfx.randgen import SectionGenerator
from cfx.rational import ComplexRational, cq
from test_poly import total_degree


def reference_apply(op, p):
    """sum_v c_v * d_v p, one Poly per partial, product and partial sum."""
    out = Poly.zero(op.vars)
    for v, c in op.coeffs.items():
        d = p.diff(v)
        if d:
            out = out + c * d
    return out


def _dense_rational_right_type():
    """A dense right-type n = 2 group whose fields have denominators 2 and 3.

    The right-type conditions are linear in each 4x4 block pair, so scaling
    the diagonal blocks by 1/4 and the off-diagonal ones by 1/3 keeps them;
    the fields carry 2 S, so their coefficients have denominators 2 and 3.
    """
    S = SectionGenerator(4).right_type_matrix(2)
    S = tuple(tuple(x * (Fraction(1, 4) if i // 4 == j // 4 else Fraction(1, 3))
                    for j, x in enumerate(row)) for i, row in enumerate(S))
    frame = TangentFrame(GroupSpec(2, S))
    assert frame.right_type
    return frame


def _frame_ops(frame):
    rows = [op for table in (frame.Z_lower, frame.Z_upper) for row in table for op in row]
    return list(frame.X) + rows


def _annihilated(op):
    """l^3 for a linear l with op(l) == 0, from two constant coefficients; else None."""
    const = [(v, c) for v, c in op.coeffs.items() if total_degree(c) == 0]
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
        out.append(g.poly(op.vars).scale(cq(Fraction(1, 6))))
        out.append(g.poly(op.vars) + Poly.const(op.vars, Fraction(2, 3)))
    zero = _annihilated(op)
    if zero is not None:
        assert reference_apply(op, zero).is_zero()
        out.append(zero.scale(cq(Fraction(1, 5))))
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
    assert any(total_degree(c) == 1 for op in ops for c in op.coeffs.values())
    _check(ops, 20)


def test_apply_matches_reference_on_t_operators():
    frame = _dense_rational_right_type()
    ops = [frame.T_sym[a, b] for a, b in product((0, 1), repeat=2)]
    ops.append(frame.T_skew)
    _check(ops, 30)


def test_apply_matches_reference_on_commutators():
    frame = _dense_rational_right_type()
    rows = [op for row in frame.Z_lower[:2] for op in row] + list(frame.X[:2])
    ops = [a.commutator(b) for a, b in product(rows, repeat=2)]
    assert any(not op.is_zero() for op in ops)
    _check(ops, 40)


def test_apply_rejects_another_variable_table():
    op = FirstOrderOp.partial(x_vars(2), "x1")
    with pytest.raises(ValueError, match="variable tables differ"):
        op.apply(Poly.var(x_vars(3), "x1"))
    with pytest.raises(ValueError, match="variable tables differ"):
        op.apply(Poly.zero(x_vars(3)))


def test_op_without_coefficients_gives_the_zero_poly():
    V = x_vars(2)
    op = FirstOrderOp(V, {"x1": 0})
    assert op.is_zero() and op.den == 1
    p = Poly.var(V, "x1", ComplexRational(Fraction(1, 3), 1))
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
    p = SectionGenerator(5, degree=3, terms=4).poly(frame.vars).scale(cq(Fraction(1, 6)))
    counts = _count_make(monkeypatch)
    got = op.apply(p)
    assert counts["make"] == 1
    monkeypatch.undo()
    assert got == reference_apply(op, p)


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_frak_d_builds_one_poly_per_component(monkeypatch, degree):
    frame = _dense_rational_right_type()
    gen = SectionGenerator(60 + degree, degree=2)
    f = gen.form(frame.dim, degree, frame.vars).scale(cq(Fraction(1, 6)))
    for aprime, raised in product((0, 1), (True, False)):
        counts = _count_make(monkeypatch)
        out = frak_d(aprime, f, frame, raised=raised)
        assert out.comps and counts["make"] == len(out.comps)
        monkeypatch.undo()
