"""Packed monomials against the tuple layout they replaced.

Every numerator dict keys its terms by packed exponent vectors, one int per
monomial (``poly.pack``).  The kernels below are the tuple-keyed ones the
package ran before: they are the references.  On seeded polynomials and on
the operators of the ambient frames, of rightQH and leftQH and of a dense
right-type group, each packed kernel must give the same terms, unpacked,
in the same key order, since every report reads that order.
"""

import random
from fractions import Fraction
from functools import cache
from math import lcm
from operator import add

import pytest

from cfx.boundary import TangentFrame, ambient_frame
from cfx.groups import GroupSpec
from cfx.operators import FirstOrderOp
from cfx.poly import (BITS, FIELD, GUARD, MAX_EXPONENT, MAX_VARS, Poly, _gaussian_parts,
                      add_term, mul_into, pack, support, unpack)
from cfx.quadrature import _moment_sum, _moment_table
from cfx.randgen import SectionGenerator
from cfx.rational import gaussian_from_json
from test_poly import poly_to_json, tuple_num

# -- the tuple-keyed kernels: the references ----------------------------------------------


def tuples(num: dict, width: int) -> dict:
    """A packed numerator dict keyed by exponent tuples, in its key order."""
    return {unpack(key, width): c for key, c in num.items()}


def ref_mul_into(out: dict, num1: dict, num2: dict, mult: int) -> dict:
    if len(num1) == 1 and not any(next(iter(num1))):
        num1, num2 = num2, num1
    if len(num2) == 1:
        [(e2, (c, d))] = num2.items()
        if not any(e2):
            c *= mult
            d *= mult
            for e1, (a, b) in num1.items():
                add_term(out, e1, a * c - b * d, a * d + b * c)
            return out
    right = num2.items()
    for e1, (a, b) in num1.items():
        a *= mult
        b *= mult
        for e2, (c, d) in right:
            add_term(out, tuple(map(add, e1, e2)), a * c - b * d, a * d + b * c)
    return out


def ref_kernel(op: FirstOrderOp) -> list:
    """[(variable index, [(expo or None, re, im), ...]), ...] of den * op."""
    width = len(op.vars)
    zero = (0,) * width
    return [(v, [(None if e == zero else e, re, im)
                 for e, (re, im) in tuples(coeff, width).items()])
            for v, coeff in op.num.items()]


def ref_apply_into(kernel: list, out: dict, num: dict, mult: int) -> dict:
    for idx, terms in kernel:
        for expo, (re, im) in num.items():
            e = expo[idx]
            if not e:
                continue
            m = mult * e
            a, b = re * m, im * m
            lowered = expo[:idx] + (e - 1,) + expo[idx + 1:]
            for cexpo, c, d in terms:
                key = lowered if cexpo is None else tuple(map(add, lowered, cexpo))
                add_term(out, key, a * c - b * d, a * d + b * c)
    return out


def ref_diff(num: dict, idx: int) -> dict:
    out = {}
    for expo, (re, im) in num.items():
        e = expo[idx]
        if e:
            out[expo[:idx] + (e - 1,) + expo[idx + 1:]] = (re * e, im * e)
    return out


def ref_support(num: dict) -> int:
    """Bit v set iff some term has a nonzero exponent in variable v."""
    mask = 0
    for expo in num:
        for v, e in enumerate(expo):
            if e:
                mask |= 1 << v
    return mask


def ref_moment_sum(num: dict, tables) -> tuple:
    re = im = 0
    for expo, (a, b) in num.items():
        m = 1
        for table, e in zip(tables, expo):
            m *= table[e]
            if not m:
                break
        else:
            re += a * m
            im += b * m
    return re, im


def ref_str(variables: tuple, num: dict, den: int) -> str:
    if not num:
        return "0"
    parts = []
    for expo in sorted(num, key=lambda e: (sum(e), e), reverse=True):
        re, im = (Fraction(x, den) for x in num[expo])
        if not im:
            coeff = str(re)
        elif not re:
            coeff = f"{im}*i"
        else:
            coeff = f"({re}{'+' if im > 0 else '-'}{abs(im)}*i)"
        body = "*".join(f"{v}^{e}" if e > 1 else v for v, e in zip(variables, expo) if e > 0)
        parts.append(f"{coeff}*{body}" if body else coeff)
    return " + ".join(parts)


def ref_from_json(data: dict) -> tuple:
    """(vars, tuple-keyed num, den) of a well-formed polynomial record."""
    clean = {}
    for item in data["terms"]:
        re, im, d = _gaussian_parts(gaussian_from_json(item["c"]))
        if re or im:
            clean[tuple(item["e"])] = re, im, d
    den = lcm(1, *(d for _, _, d in clean.values()))
    return (tuple(data["vars"]),
            {e: (re * (den // d), im * (den // d)) for e, (re, im, d) in clean.items()}, den)


# -- seeded data on the frames -------------------------------------------------------------


FRAMES = ["ambient-1", "ambient-2", "rightQH-1", "rightQH-2", "leftQH-1", "leftQH-2",
          "dense-right-2"]


@cache
def _frame(name: str):
    kind, n = name.rsplit("-", 1)
    n = int(n)
    if kind == "ambient":
        return ambient_frame(n)
    if kind == "dense-right":
        matrix = SectionGenerator(4).right_type_matrix(n)
        return TangentFrame(GroupSpec(n, tuple(tuple(row) for row in matrix)))
    return TangentFrame(GroupSpec.named(kind, n))


def _polys(frame, seed: int) -> list:
    gen = SectionGenerator(seed, degree=3, terms=6)
    polys = [gen.spawn(i).poly(frame.vars) for i in range(6)]
    return polys + [Poly.const(frame.vars, (2, -1)), polys[0] * polys[1]]


def _operators(frame) -> list:
    ops = [*frame.X, *(op for row in frame.Z_lower + frame.Z_upper for op in row)]
    ops.append(frame.X[0].commutator(frame.X[1]))
    ops.append(frame.Z_lower[0][0] + frame.Z_upper[1][1].scale((1, 3)))
    if isinstance(frame, TangentFrame):
        ops += [*frame.T_sym.values(), frame.T_skew]
    return [op for op in ops if not op.is_zero()]


def _same(packed: dict, ref: dict, width: int):
    """Equal terms in the same key order, and every key a valid packed int."""
    assert list(tuples(packed, width).items()) == list(ref.items())
    assert all(type(key) is int and key >= 0 and not key & GUARD for key in packed)


@pytest.mark.parametrize("name", FRAMES)
def test_mul_into_matches_the_tuple_reference(name):
    frame = _frame(name)
    width = len(frame.vars)
    nums = [p.num for p in _polys(frame, 11)]
    nums += [coeff for op in _operators(frame)[:4] for coeff in op.num.values()]
    out, ref = {}, {}
    for i, num1 in enumerate(nums):
        for num2 in nums[i:]:
            _same(mul_into({}, num1, num2, 3),
                  ref_mul_into({}, tuples(num1, width), tuples(num2, width), 3), width)
            # one accumulating dict, whose terms merge and cancel
            mult = 1 if len(out) % 2 else -2
            mul_into(out, num1, num2, mult)
            ref_mul_into(ref, tuples(num1, width), tuples(num2, width), mult)
    _same(out, ref, width)


@pytest.mark.parametrize("name", FRAMES)
def test_apply_into_matches_the_tuple_reference(name):
    frame = _frame(name)
    width = len(frame.vars)
    polys = _polys(frame, 12)
    for op in _operators(frame):
        kernel = ref_kernel(op)
        out, ref = {}, {}
        for p in polys:
            _same(op.apply_into({}, p.num, 5), ref_apply_into(kernel, {}, tuples(p.num, width), 5),
                  width)
            op.apply_into(out, p.num, -1)
            ref_apply_into(kernel, ref, tuples(p.num, width), -1)
        _same(out, ref, width)


@pytest.mark.parametrize("name", FRAMES)
def test_diff_str_and_json_match_the_tuple_reference(name):
    frame = _frame(name)
    width = len(frame.vars)
    for p in _polys(frame, 13):
        num = tuple_num(p)
        for idx, v in enumerate(frame.vars):
            d = p.diff(v)
            _same(d.num, ref_diff(num, idx), width)
        assert str(p) == ref_str(p.vars, num, p.den)
        data = poly_to_json(p)
        q = Poly.from_json(data)
        assert q == p
        assert (q.vars, tuple_num(q), q.den) == ref_from_json(data)
        assert list(tuple_num(q)) == list(ref_from_json(data)[1])


@pytest.mark.parametrize("name", FRAMES)
def test_support_and_row_masks_match_the_tuple_reference(name):
    frame = _frame(name)
    width = len(frame.vars)
    for p in _polys(frame, 14):
        mask = support(p.num)
        num = tuple_num(p)
        ref = ref_support(num)
        assert {v for v in range(width) if mask >> BITS * v & FIELD} == \
            {v for v in range(width) if ref >> v & 1}
        # each field bounds its variable's exponents: at least the highest, below twice it
        for v, bound in enumerate(unpack(mask, width)):
            top = max(e[v] for e in num) if num else 0
            assert top <= bound <= max(0, 2 * top - 1)
        for aprime in (0, 1):
            for raised in (False, True):
                for op, _, row_mask in frame.row_table(aprime, raised)[1]:
                    assert bool(mask & row_mask) == bool(ref & sum(1 << v for v in op.num))


@pytest.mark.parametrize("name", FRAMES)
def test_moment_sum_matches_the_tuple_reference(name):
    frame = _frame(name)
    lows = [Fraction(-1 - a % 3, 2 + a % 2) for a in range(len(frame.vars))]
    highs = [Fraction(1 + a % 2, 3) for a in range(len(frame.vars))]
    polys = _polys(frame, 15)
    for p in polys:
        num = tuple_num(p)
        tables = [_moment_table(lo, hi, 1 + 2 * max(e[axis] for e in num))[0]
                  for axis, (lo, hi) in enumerate(zip(lows, highs))]
        assert _moment_sum(p.num, tables) == ref_moment_sum(num, tables)
        # the weight of a cutoff jet's term x^e: every key shifted by e
        for e in list(num)[:3]:
            shifted = [table[k:] for table, k in zip(tables, e)]
            assert _moment_sum(p.num, tables, pack(e)) == ref_moment_sum(num, shifted)


# -- the packed field: round trip, guard and input limit -----------------------------------


def test_pack_and_unpack_round_trip():
    rng = random.Random(38)
    for width in (0, 1, 2, 7, 15, MAX_VARS, MAX_VARS + 3):
        for _ in range(20):
            expo = tuple(rng.choice((0, 1, 2, rng.randint(0, MAX_EXPONENT)))
                         if v < MAX_VARS else 0 for v in range(width))
            key = pack(expo)
            assert unpack(key, width) == expo
            assert not key & GUARD
            assert all(key >> BITS * v & FIELD == e for v, e in enumerate(expo))
    assert pack(()) == pack((0, 0, 0)) == 0
    assert pack((MAX_EXPONENT,)) == MAX_EXPONENT == FIELD >> 1
    assert pack((1, 0, 2)) == 1 + (2 << 2 * BITS)


@pytest.mark.parametrize("expo", [(MAX_EXPONENT + 1, 0), (0, -1), (0,) * MAX_VARS + (1,)])
def test_pack_refuses_an_exponent_outside_the_field(expo):
    with pytest.raises(ValueError):
        pack(expo)
    with pytest.raises(ValueError):
        Poly([f"x{i}" for i in range(len(expo))], {expo: 1})


def test_a_product_reaching_the_guard_bit_raises():
    V = ("x1", "x2", "t1")
    top = Poly.monomial(V, (MAX_EXPONENT, 0, 1))
    x1 = Poly.var(V, "x1")
    # a sum just below the guard bit is kept
    below = Poly.monomial(V, (MAX_EXPONENT - 1, 0, 0)) * x1
    assert tuple_num(below) == {(MAX_EXPONENT, 0, 0): (1, 0)}
    with pytest.raises(ValueError, match="above"):
        top * x1
    with pytest.raises(ValueError, match="above"):
        x1 * (x1 + top)
    # the operator x1^MAX d/dx2 on x1 x2: the lowered term times the coefficient
    op = FirstOrderOp(V, {"x2": Poly.monomial(V, (MAX_EXPONENT, 0, 0))})
    assert op.apply(Poly.var(V, "x2")) == Poly.monomial(V, (MAX_EXPONENT, 0, 0))
    with pytest.raises(ValueError, match="above"):
        op.apply(x1 * Poly.var(V, "x2"))
