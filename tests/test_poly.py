from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfx.poly import Poly, flat_laplacian, poly_diff, x_vars
from cfx.rational import ComplexRational, cq

V = x_vars(4) + ("t1",)


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


def test_no_stored_zero_coefficients():
    p = p_var("x1") - p_var("x1")
    assert p.terms == {} and p.is_zero()


def test_exact_rational_coefficients():
    p = Poly.const(V, Fraction(1, 3)) + Poly.const(V, Fraction(1, 6))
    assert p.constant_term() == cq(Fraction(1, 2))


def test_variable_table_mismatch():
    other = Poly.var(x_vars(2), "x1")
    with pytest.raises(ValueError, match="variable tables differ"):
        p_var("x1") + other


def test_json_roundtrip():
    p = p_var("x1").scale(ComplexRational(Fraction(2, 3), Fraction(-1, 7))) + \
        Poly.monomial(V, (0, 2, 0, 0, 1), 5)
    data = p.to_json()
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
    val = p.eval_exact([Fraction(1, 2), Fraction(4), 0, 0, 0])
    assert val == cq(5)
