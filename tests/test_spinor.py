from fractions import Fraction
from itertools import permutations, product
from math import comb, factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cfx.boundary import BoundarySpec
from cfx.exterior import ExtForm
from cfx.flat import ComplexSpec
from cfx.poly import Poly, x_vars
from cfx.randgen import SectionGenerator
from cfx.spinor import (SpinorField, is_symmetric, raise_primed, symmetrize,
                        tuple_to_slots)
from test_exterior import basis_form

V = x_vars(4)


def zero_spinor_field(sigma, basis, dim, degree, variables) -> SpinorField:
    """The zero slot field of one shape."""
    return SpinorField(sigma, basis, [ExtForm.zero(dim, degree, variables)] * (sigma + 1))


# -- references: the pairing tables, the slot conventions and the tuple basis --------------

# Lower/raise tables: eps_lower[a][b] and its inverse eps_upper[a][b].
EPS_LOWER = ((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0)))
EPS_UPPER = ((Fraction(0), Fraction(-1)), (Fraction(1), Fraction(0)))


class EpsilonTable:
    """The 2x2 symplectic pairing used to raise and lower primed indices."""

    lower = EPS_LOWER
    upper = EPS_UPPER

    @staticmethod
    def check_inverse() -> bool:
        prod_ = [
            [
                sum(EPS_LOWER[i][k] * EPS_UPPER[k][j] for k in range(2))
                for j in range(2)
            ]
            for i in range(2)
        ]
        return prod_ == [[1, 0], [0, 1]]


def lower_primed(pair):
    """(f^0, f^1) -> (f_0, f_1) with f_c = sum_a f^a eps_{ac}."""
    g0, g1 = pair
    # eps_{10} = -1, eps_{01} = 1
    return (-g1, g0)


def sym_basis_derivative(a: int, sigma: int, aprime: int):
    """Action of the derivation d_{aprime} on descending-basis element (a, sigma).

    Returns (a', sigma-1) or None when the result is zero by convention.
    """
    if not 0 <= a <= sigma:
        raise ValueError(f"slot {a} out of range for degree {sigma}")
    if aprime not in (0, 1):
        raise ValueError("primed index must be 0 or 1")
    new_a = a - aprime
    if not 0 <= new_a <= sigma - 1:
        return None
    return (new_a, sigma - 1)


def tilde_basis_multiply(a: int, sigma: int, aprime: int):
    """Action of multiplication m_{aprime} on ascending-basis element (a, sigma)."""
    if not 0 <= a <= sigma:
        raise ValueError(f"slot {a} out of range for degree {sigma}")
    if aprime not in (0, 1):
        raise ValueError("primed index must be 0 or 1")
    return (a + aprime, sigma + 1)


def slots_to_tuple(field: SpinorField) -> dict:
    """Inverse of :func:`tuple_to_slots`: the dict {primed multi-index: ExtForm}."""
    s = field.sigma
    comps = {}
    for idx in product((0, 1), repeat=s):
        a = sum(idx)
        form = field.slots[a]
        if field.basis == "tilde":
            form = form.scale(Fraction(1, comb(s, a)))
        comps[idx] = form
    return comps


def scalar(c):
    return ExtForm.from_scalar(2, Poly.const(V, c))


def test_epsilon_tables_are_inverse():
    assert EpsilonTable.check_inverse()
    assert EpsilonTable.lower == ((0, 1), (-1, 0))


def test_raise_primed_example():
    assert raise_primed((1, 2)) == (2, -1)


def test_raise_primed_zero():
    assert raise_primed((0, 0)) == (0, 0)


@given(st.integers(-5, 5), st.integers(-5, 5))
def test_raise_lower_inverse(a, b):
    assert lower_primed(raise_primed((a, b))) == (a, b)
    assert raise_primed(lower_primed((a, b))) == (a, b)


def test_descending_basis_derivative():
    assert sym_basis_derivative(0, 2, 0) == (0, 1)
    assert sym_basis_derivative(0, 2, 1) is None  # slot would go negative
    assert sym_basis_derivative(2, 2, 1) == (1, 1)
    assert sym_basis_derivative(2, 2, 0) is None  # slot exceeds new degree
    with pytest.raises(ValueError):
        sym_basis_derivative(3, 2, 0)


def test_ascending_basis_multiply():
    assert tilde_basis_multiply(1, 1, 0) == (1, 2)
    assert tilde_basis_multiply(1, 1, 1) == (2, 2)


def test_symmetrize_two_slot_average():
    comps = {(0, 1): scalar(1), (1, 0): scalar(0),
             (0, 0): scalar(0), (1, 1): scalar(0)}
    sym = symmetrize(comps)
    assert sym[(0, 1)] == scalar(Fraction(1, 2))
    assert sym[(1, 0)] == scalar(Fraction(1, 2))


def test_symmetrize_idempotent():
    comps = {idx: scalar(3 * idx[0] + idx[1] - 2 * idx[2])
             for idx in product((0, 1), repeat=3)}
    once = symmetrize(comps)
    assert symmetrize(once) == once
    assert is_symmetric(once)


def test_symmetrize_matches_partial_formula():
    # when the tail indices are already symmetric, full symmetrization equals
    # the cyclic average over which index comes first
    comps = {}
    for idx in product((0, 1), repeat=3):
        # value depends on first index and the multiset of the last two
        comps[idx] = scalar(5 * idx[0] + idx[1] + idx[2])
    sym = symmetrize(comps)
    third = Fraction(1, 3)
    for idx in product((0, 1), repeat=3):
        rotations = [
            comps[idx],
            comps[(idx[1], idx[0], idx[2])],
            comps[(idx[2], idx[0], idx[1])],
        ]
        expected = (rotations[0] + rotations[1] + rotations[2]).scale(third)
        assert (sym[idx] - expected).is_zero()


def _permutation_average(field):
    """Reference symmetrization: the mean over all s! index permutations."""
    s = len(next(iter(field)))
    sample = next(iter(field.values()))
    out = {}
    for idx in product((0, 1), repeat=s):
        acc = ExtForm.zero(sample.dim, sample.degree, sample.vars)
        for perm in permutations(range(s)):
            acc = acc + field[tuple(idx[p] for p in perm)]
        out[idx] = acc.scale(Fraction(1, factorial(s)))
    return out


@pytest.mark.parametrize("s", [0, 1, 2, 3, 4])
def test_symmetrize_matches_permutation_average(s):
    # every tuple component drawn independently, so the input is not symmetric
    gen = SectionGenerator(90 + s, degree=2)
    for t in range(3):
        g = gen.spawn(t)
        fld = {idx: g.form(3, 1, V) for idx in product((0, 1), repeat=s)}
        assert s < 2 or not is_symmetric(fld)
        sym = symmetrize(fld)
        assert sym == _permutation_average(fld)
        assert is_symmetric(sym)


def _reference_is_symmetric(field):
    """The arithmetic definition: the field equals its class average."""
    average = symmetrize(field)
    return all((average[idx] - form).is_zero() for idx, form in field.items())


def _symmetric_variants(field):
    """Seeded near-symmetric variants of a symmetric tuple field."""
    s = len(next(iter(field)))
    tuples = dict(field)
    yield field
    for a in range(s + 1):
        cls = [idx for idx in tuples if sum(idx) == a]
        # one component changed
        changed = dict(tuples)
        changed[cls[-1]] = tuples[cls[-1]] + _scalar_like(tuples[cls[-1]], 1)
        yield changed
        # one component a scalar multiple of the rest of its class
        scaled = dict(tuples)
        scaled[cls[0]] = tuples[cls[0]].scale(Fraction(2, 3))
        yield scaled
        # the whole class scaled: still symmetric
        yield {idx: f.scale(-3) if sum(idx) == a else f for idx, f in tuples.items()}


def _scalar_like(form, c):
    """The constant form c w^0 ^ ... of the shape of ``form``."""
    idx = tuple(range(form.degree))
    return basis_form(form.dim, idx, form.vars, c)


@pytest.mark.parametrize("s", [0, 1, 2, 3, 4])
def test_is_symmetric_matches_arithmetic_reference(s):
    gen = SectionGenerator(310 + s, degree=2)
    seen = set()
    for t in range(3):
        g = gen.spawn(t)
        sym = symmetrize({idx: g.form(3, 1, V) for idx in product((0, 1), repeat=s)})
        for field in (sym, g.tuple_field(s, 3, 2, V), *_symmetric_variants(sym)):
            want = _reference_is_symmetric(field)
            assert is_symmetric(field) == want
            seen.add(want)
    assert seen == ({True} if s < 2 else {True, False})


def test_tuple_slot_roundtrip_descending():
    comps = {idx: scalar(sum(idx) + 1) for idx in product((0, 1), repeat=2)}
    slots = tuple_to_slots(comps, "S")
    assert slots.slots[1] == scalar(2)
    assert slots_to_tuple(slots) == comps


def test_tuple_slot_roundtrip_ascending_binomial():
    comps = {idx: scalar(1) for idx in product((0, 1), repeat=2)}
    slots = tuple_to_slots(comps, "tilde")
    # middle slot carries multiplicity binom(2,1) = 2
    assert slots.slots[1] == scalar(2)
    assert slots_to_tuple(slots) == comps


def test_multiply_then_convert_consistency():
    # multiplying in the ascending basis then converting agrees with
    # converting first and acting on the symmetric tuple
    comps = {(0,): scalar(2), (1,): scalar(5)}
    tilde = tuple_to_slots(comps, "tilde")
    # multiply by the 0-indexed coordinate: slots shift per the ascending rule
    lifted = SpinorField(2, "tilde", [tilde.slots[0], tilde.slots[1],
                                      ExtForm.zero(2, 0, V)])
    lifted_tuple = slots_to_tuple(lifted)
    # direct symmetric product: (s0 * f)_{AB} = symmetrize of f with a 0 slot
    expect = {}
    for idx in product((0, 1), repeat=2):
        total = ExtForm.zero(2, 0, V)
        count = 0
        for pos in range(2):
            if idx[pos] == 0:
                rest = idx[:pos] + idx[pos + 1:]
                total = total + comps[rest]
                count += 1
        expect[idx] = total.scale(Fraction(1, 2))
    assert lifted_tuple == expect


def _zero(degree=0, dim=4):
    return ExtForm.zero(dim, degree, V)


@pytest.mark.parametrize("call, message", [
    (lambda: SpinorField(1, "S", [_zero(0), _zero(1)]),
     "^degree mismatch: 0 vs 1$"),
    (lambda: SpinorField(0, "S", [_zero()]) + SpinorField(1, "S", [_zero()] * 2),
     "spinor shape mismatch"),
    (lambda: tuple_to_slots({(0, 0): _zero(), (0, 1): scalar(1), (1, 0): scalar(2),
                             (1, 1): _zero()}, "S"), "tuple field is not symmetric"),
    (lambda: ComplexSpec(1, 1).check_field(zero_spinor_field(1, "S", 2, 0, V), (1, 0, "S"),
                                           "field", 0),
     "field dimension 2 does not match 4"),
    (lambda: ComplexSpec(1, 1).check_field(zero_spinor_field(1, "S", 4, 4, V), (1, 4, "tilde"),
                                           "field", 3),
     "field basis must be tilde at level 3"),
], ids=["slot-shapes", "sum-shapes", "asymmetric-tuple", "field-dim", "field-basis"])
def test_spinor_errors_name_their_fault(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_a_slot_field_equals_no_other_kind():
    field = SpinorField(0, "S", [_zero()])
    assert field.__eq__(_zero()) is NotImplemented and field != _zero()


@pytest.mark.parametrize("call, message", [
    (lambda: SpinorField(1.0, "S", [_zero()] * 2), "sigma must be an int, not 1.0"),
    (lambda: SpinorField(False, "S", [_zero()]), "sigma must be an int, not False"),
    (lambda: ComplexSpec(1.0, 1), "n must be an int, not 1.0"),
    (lambda: ComplexSpec(1, 1.5), "k must be an int, not 1.5"),
    (lambda: ComplexSpec(0, 1.5), "k must be an int, not 1.5"),
], ids=["float-sigma", "bool-sigma", "float-n", "float-k", "float-k-with-bad-n"])
def test_a_level_size_that_is_not_an_int_is_refused(call, message):
    # ComplexSpec(1.0, 1) was accepted with form_dim 4.0
    with pytest.raises(TypeError, match=message):
        call()


def test_slot_field_shape_validation():
    with pytest.raises(ValueError, match="need 3 slots"):
        SpinorField(2, "S", [scalar(1)])


@pytest.mark.parametrize("spec_type, past_top", [(ComplexSpec, 0), (BoundarySpec, 1)],
                         ids=["flat", "boundary"])
def test_every_slot_rule_entry_names_a_slot_in_range(spec_type, past_top):
    # the operators index a field's slots by the rule with no range test:
    # slot_rule(j) lists only input slots 0..sigma(j) and one entry per slot
    # of level j + 1.  The boundary companion step reads slot_rule(j + 1), so
    # a BoundarySpec is checked one level past its last operator level
    for n in (1, 2, 3):
        for k in range(13):
            spec = spec_type(n, k)
            for j in range(spec.top_level + past_top):
                rule = spec.slot_rule(j)
                assert len(rule) == spec.sigma(j + 1) + 1, (n, k, j)
                assert all(0 <= a <= spec.sigma(j) for terms in rule for a, _ in terms), (n, k, j)
