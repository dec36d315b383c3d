from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfx.poly import Poly, add_term, unpack, x_vars
from test_rational import ONE, ZERO, ComplexRational, cq, pair, terms

V = x_vars(4) + ("t1",)


def complex_rational_to_json(c: ComplexRational) -> list:
    """The [re, im] string pair ``ComplexRational.from_json`` reads."""
    return [str(c.re), str(c.im)]


def poly_to_json(p: Poly) -> dict:
    """The polynomial record ``Poly.from_json`` reads, terms in exponent order."""
    return {"vars": list(p.vars),
            "terms": [{"c": complex_rational_to_json(coeff), "e": list(expo)}
                      for expo, coeff in sorted(terms(p).items())]}


def eval_exact(p: Poly, point) -> ComplexRational:
    """Evaluate ``p`` at a point of Fractions/ComplexRationals, exactly."""
    total = ZERO
    for expo, coeff in terms(p).items():
        m = ONE
        for x, e in zip(point, expo):
            for _ in range(e):
                m = m * cq(x)
        total = total + coeff * m
    return total


def power(p: Poly, exponent: int) -> Poly:
    """p ** exponent by repeated squaring."""
    if exponent < 0:
        raise ValueError("negative power")
    result = Poly.const(p.vars, 1)
    while exponent:
        if exponent & 1:
            result = result * p
        exponent >>= 1
        if exponent:
            p = p * p
    return result


def conjugate(p: Poly) -> Poly:
    """The complex conjugate of ``p`` (the variables are real), on its numerators."""
    return Poly._make(p.vars, {e: (re, -im) for e, (re, im) in p.num.items()}, p.den)


def constant_term(p: Poly) -> ComplexRational:
    return terms(p).get((0,) * len(p.vars), ZERO)


def tuple_num(p: Poly) -> dict:
    """``p.num`` keyed by exponent tuples, in its key order."""
    return {unpack(key, len(p.vars)): c for key, c in p.num.items()}


def total_degree(p: Poly) -> int:
    """Total degree; -1 for the zero polynomial."""
    return max((sum(e) for e in tuple_num(p)), default=-1)


def is_homogeneous(p: Poly, degree: int) -> bool:
    return all(sum(e) == degree for e in tuple_num(p))


def poly_diff(p: Poly, var: str) -> Poly:
    """Function form of :meth:`Poly.diff`."""
    return p.diff(var)


def flat_laplacian(p: Poly, names=None) -> Poly:
    """Sum of second partials over ``names`` (all variables by default)."""
    names = tuple(names) if names is not None else p.vars
    out = Poly.zero(p.vars)
    for name in names:
        out = out + p.diff(name).diff(name)
    return out


def p_var(name):
    return Poly.var(V, name)


def test_diff_power_rule():
    p = p_var("x1") * p_var("x1") * p_var("x2")
    assert poly_diff(p, "x1") == p_var("x1").scale(2) * p_var("x2")


def test_diff_absent_variable():
    assert poly_diff(p_var("x1"), "x3").is_zero()


def test_diff_linearity():
    p = p_var("x1") * p_var("t1") + p_var("t1") * p_var("t1")
    assert poly_diff(p, "t1") == p_var("x1") + p_var("t1").scale(2)


def test_diff_unknown_variable_errors():
    with pytest.raises(KeyError, match="x9"):
        p_var("x1").diff("x9")


@pytest.mark.parametrize("call, error, message", [
    (lambda: Poly(("x", "y"), {(1,): 1}), ValueError,
     r"exponent vector \(1,\) does not match variable table of size 2"),
    (lambda: Poly.var(("x",), "y"), KeyError, "unknown variable 'y'"),
    (lambda: Poly(("x",), {(-1,): 1}), ValueError, "exponent -1 is outside 0..32767"),
], ids=["expo-length", "unknown-var", "negative-exponent"])
def test_poly_errors_name_their_fault(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("expo", [(1.5,), (True,), ("1",), (1.0,)], ids=repr)
@pytest.mark.parametrize("coeff", [1, 0])
def test_an_exponent_that_is_not_an_int_is_refused(expo, coeff):
    # 1.5 was truncated to 1 (the polynomial printed 1*x), True read as 1;
    # the exponent is checked even where the coefficient is 0
    with pytest.raises(TypeError, match=f"an exponent must be an int, not {expo[0]!r}"):
        Poly(("x",), {expo: coeff})


def test_a_scalar_is_not_a_poly_operand():
    # a Poly combines only with a Poly: a constant is Poly.const and a
    # scalar multiple is scale, and every scalar operand is a TypeError
    x = p_var("x1")
    assert x - Poly.const(V, 2) == x + Poly.const(V, -2)
    assert x - Poly.const(V, (0, 1)) == Poly(V, {(1, 0, 0, 0, 0): 1, (0, 0, 0, 0, 0): (0, -1)})
    assert x.scale(2) == x + x
    for combine in (lambda: x + 1, lambda: 1 + x, lambda: x - Fraction(1, 2),
                    lambda: Fraction(1, 2) - x, lambda: 2 * x, lambda: x * 2,
                    lambda: x + (0, 1), lambda: sum([x, x])):
        with pytest.raises(TypeError, match="unsupported operand"):
            combine()


def test_no_stored_zero_coefficients():
    p = p_var("x1") - p_var("x1")
    assert terms(p) == {} and p.is_zero()


def test_exact_rational_coefficients():
    p = Poly.const(V, Fraction(1, 3)) + Poly.const(V, Fraction(1, 6))
    assert constant_term(p) == cq(Fraction(1, 2))


def test_variable_table_mismatch():
    other = Poly.var(x_vars(2), "x1")
    with pytest.raises(ValueError, match="variable tables differ"):
        p_var("x1") + other


def test_json_roundtrip():
    p = p_var("x1").scale((Fraction(2, 3), Fraction(-1, 7))) + \
        Poly.monomial(V, (0, 2, 0, 0, 1), 5)
    data = poly_to_json(p)
    assert data["vars"] == list(V)
    assert all(isinstance(t["c"][0], str) for t in data["terms"])
    assert Poly.from_json(data) == p


small_polys = st.lists(
    st.tuples(
        st.tuples(*[st.integers(0, 2) for _ in range(5)]),
        st.integers(-4, 4),
    ),
    min_size=0, max_size=4,
).map(lambda items: Poly(V, {e: c for e, c in items}))


@given(small_polys, small_polys)
@settings(max_examples=60, deadline=None)
def test_leibniz_rule(p, q):
    lhs = poly_diff(p * q, "x2")
    rhs = poly_diff(p, "x2") * q + p * poly_diff(q, "x2")
    assert lhs == rhs


@given(small_polys, small_polys)
@settings(max_examples=40, deadline=None)
def test_ring_commutativity(p, q):
    assert p * q == q * p
    assert p + q == q + p


def test_laplacian_of_harmonic_pair():
    p = p_var("x1") * p_var("x1") - p_var("x2") * p_var("x2")
    assert flat_laplacian(p, ("x1", "x2")).is_zero()


def test_eval_exact():
    p = p_var("x1") * p_var("x2") + Poly.const(V, 3)
    val = eval_exact(p, [Fraction(1, 2), Fraction(4), 0, 0, 0])
    assert val == cq(5)


# -- differential test of the integer layout -------------------------------------------
#
# The reference is the dict-of-ComplexRational polynomial that the
# numerator/denominator layout replaced: every operation below is written on
# plain dicts, term by term, in the order the old Poly used.

from math import gcd



def ref_add(p, q):
    out = dict(p)
    for e, c in q.items():
        acc = out.get(e, ZERO) + c
        if acc.is_zero():
            out.pop(e, None)
        else:
            out[e] = acc
    return out


def ref_neg(p):
    return {e: -c for e, c in p.items()}


def ref_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            expo = tuple(a + b for a, b in zip(e1, e2))
            acc = out.get(expo, ZERO) + c1 * c2
            if acc.is_zero():
                out.pop(expo, None)
            else:
                out[expo] = acc
    return out


def ref_scale(p, value):
    value = cq(value)
    return {} if value.is_zero() else {e: c * value for e, c in p.items()}


def ref_diff(p, idx):
    out = {}
    for expo, c in p.items():
        if expo[idx]:
            new = list(expo)
            new[idx] -= 1
            out[tuple(new)] = c * expo[idx]
    return out


def ref_eval(p, point):
    total = ZERO
    for expo, c in p.items():
        m = ONE
        for x, e in zip(point, expo):
            for _ in range(e):
                m = m * cq(x)
        total = total + c * m
    return total


def ref_to_json(p):
    return {"vars": list(V),
            "terms": [{"c": complex_rational_to_json(c), "e": list(e)}
                      for e, c in sorted(p.items())]}


def ref_poly(ref):
    """The Poly on V with the reference dict's coefficients."""
    return Poly(V, {e: pair(c) for e, c in ref.items()})


def assert_canonical(p):
    assert type(p.den) is int and p.den > 0
    g = p.den
    for re, im in p.num.values():
        assert type(re) is int and type(im) is int
        assert re or im
        g = gcd(g, re, im)
    assert g == 1
    if not p.num:
        assert p.den == 1


def assert_matches(p, ref):
    """Same coefficients in the same term order, a canonical layout, and the same edges."""
    assert_canonical(p)
    assert list(terms(p)) == list(ref)
    assert dict(terms(p).items()) == ref
    assert len(terms(p)) == len(ref)
    rebuilt = ref_poly(ref)
    assert p == rebuilt and hash(p) == hash(rebuilt)
    assert constant_term(p) == ref.get((0,) * len(V), ZERO)
    assert poly_to_json(p) == ref_to_json(ref)
    assert p.is_zero() == (not ref)


gaussian_rationals = st.builds(
    lambda a, b, d, e: ComplexRational(Fraction(a, d), Fraction(b, e)),
    st.integers(-12, 12), st.integers(-12, 12), st.integers(1, 6), st.integers(1, 6))

ref_polys = st.dictionaries(
    st.tuples(*[st.integers(0, 2) for _ in range(len(V))]),
    gaussian_rationals, max_size=5,
).map(lambda d: {e: c for e, c in d.items() if not c.is_zero()})

points = st.lists(st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)),
                  min_size=len(V), max_size=len(V))


@given(ref_polys, ref_polys, gaussian_rationals, st.integers(0, len(V) - 1), points)
@settings(max_examples=150, deadline=None)
def test_integer_layout_matches_the_reference(p, q, value, idx, point):
    P, Q = ref_poly(p), ref_poly(q)
    assert_matches(P, p)
    assert_matches(P + Q, ref_add(p, q))
    assert_matches(P - Q, ref_add(p, ref_neg(q)))
    assert_matches(P - P, {})
    assert_matches(-P, ref_neg(p))
    assert_matches(P * Q, ref_mul(p, q))
    const = {(0,) * len(V): value} if value else {}
    assert_matches(P * ref_poly(const), ref_mul(p, const))
    assert_matches(ref_poly(const) * P, ref_mul(const, p))
    assert_matches(P.scale(pair(value)), ref_scale(p, value))
    assert_matches(P.scale(value.re), ref_scale(p, value.re))
    assert_matches(P.diff(V[idx]), ref_diff(p, idx))
    assert_matches(conjugate(P), {e: c.conjugate() for e, c in p.items()})
    assert eval_exact(P, point) == ref_eval(p, point)
    assert (P == Q) == (p == q)
    if p == q:
        assert hash(P) == hash(Q)


def test_canonical_form_after_cancellation():
    half = Poly.const(V, Fraction(1, 2))
    assert_matches(half + half, {(0,) * len(V): cq(1)})
    third = p_var("x1").scale(Fraction(1, 3))
    assert_matches(third.scale(3) - p_var("x1"), {})
    assert (third - third).den == 1
    assert_matches(p_var("x1").scale(Fraction(2, 3)) * Poly.const(V, Fraction(3, 2)),
                   {(1, 0, 0, 0, 0): cq(1)})


def test_add_term_accumulates_deletes_on_cancellation_and_skips_zero():
    num = {}
    add_term(num, "a", 2, -1)
    add_term(num, "b", 0, 3)
    add_term(num, "a", 1, 4)
    assert num == {"a": (3, 3), "b": (0, 3)} and list(num) == ["a", "b"]
    # a zero addend neither inserts (0, 0) nor moves a live key
    add_term(num, "c", 0, 0)
    add_term(num, "a", 0, 0)
    assert num == {"a": (3, 3), "b": (0, 3)} and list(num) == ["a", "b"]
    # a sum that cancels deletes the key; adding again puts it at the end
    add_term(num, "a", -3, -3)
    assert num == {"b": (0, 3)}
    add_term(num, "a", 5, 0)
    assert list(num.items()) == [("b", (0, 3)), ("a", (5, 0))]
    assert all(v != (0, 0) for v in num.values())
