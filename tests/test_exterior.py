"""The exterior layout against its per-component reference.

The package keeps a form as one numerator dict over one den, each key the
packed monomial plus the component's index mask.  The reference here is
the per-component form the package had before: ``RefForm`` keeps a dict
{strictly increasing index tuple: ``Poly``} and does every operation
component by component in ``Poly`` arithmetic, with the wedge sign read off
the permutation that sorts the two index tuples (``reference_merge_sign``).
``reference_frak_d`` in ``tests/test_boundary.py`` is the row kernel on it.

The package's ``comps`` view lists its components in increasing
index-tuple order; every check of a view's order compares it with
``sorted`` of the reference's keys.
"""

from fractions import Fraction
from itertools import combinations

import pytest

from cfx.exterior import (MAX_DIM, ExtForm, from_hat_components, hat_component,
                          kaehler_like_sum, merge_sign, wedge_sign)
from cfx.poly import BITS, Poly, x_vars
from cfx.randgen import SectionGenerator

V = x_vars(4)


def wedge(f: ExtForm, g: ExtForm) -> ExtForm:
    return f.wedge(g)


def map_coeffs(f: ExtForm, fn) -> ExtForm:
    """f with ``fn`` applied to every component of its view."""
    return ExtForm(f.dim, f.degree, f.vars, {idx: fn(c) for idx, c in f.comps.items()})


def scale_poly(f: ExtForm, p: Poly) -> ExtForm:
    """f with every coefficient multiplied by the polynomial p."""
    return map_coeffs(f, lambda c: c * p)


def basis_form(dim, idx, variables, coeff=1) -> ExtForm:
    """The form coeff * w^{idx} for a strictly increasing tuple idx."""
    idx = tuple(idx)
    return ExtForm(dim, len(idx), variables, {idx: Poly.const(variables, coeff)})


def w(*idx):
    return basis_form(4, idx, V)


def top_form(dim: int, variables) -> ExtForm:
    """Reference: w^0 ^ w^1 ^ ... ^ w^{dim-1}."""
    return basis_form(dim, tuple(range(dim)), variables)


def mask_of(idx) -> int:
    return sum(1 << i for i in idx)


# -- the reference: one Poly per component ------------------------------------------------


def reference_merge_sign(left: tuple, right: tuple):
    """Merge two strictly increasing tuples; (sign, merged) or None, the sign
    being the parity of the permutation sorting left + right."""
    if set(left) & set(right):
        return None
    sign = 1
    merged = list(left)
    for r in right:
        pos = len(merged)
        while pos > 0 and merged[pos - 1] > r:
            pos -= 1
        sign *= -1 if (len(merged) - pos) % 2 else 1
        merged.insert(pos, r)
    return sign, tuple(merged)


class RefForm:
    """A form as {strictly increasing index tuple: nonzero Poly}, with the ring
    operations done component by component in Poly arithmetic."""

    def __init__(self, dim, degree, variables, comps=None):
        self.dim, self.degree, self.vars = dim, degree, tuple(variables)
        self.comps = {}
        for idx, c in (comps or {}).items():
            assert len(idx) == degree and all(a < b for a, b in zip(idx, idx[1:]))
            self._put(tuple(idx), c)

    def _put(self, idx, value):
        if value.is_zero():
            self.comps.pop(idx, None)
        else:
            self.comps[idx] = value

    def __add__(self, other):
        assert (self.dim, self.degree, self.vars) == (other.dim, other.degree, other.vars)
        out = RefForm(self.dim, self.degree, self.vars, self.comps)
        for idx, c in other.comps.items():
            acc = out.comps.get(idx)
            out._put(idx, c if acc is None else acc + c)
        return out

    def __neg__(self):
        return self.map(lambda c: -c)

    def __sub__(self, other):
        return self + (-other)

    def map(self, fn):
        return RefForm(self.dim, self.degree, self.vars,
                       {idx: fn(c) for idx, c in self.comps.items()})

    def scale(self, value):
        return self.map(lambda c: c.scale(value))

    def wedge(self, other):
        """The product; ``dropped`` counts the merged indices whose sum cancelled."""
        out = RefForm(self.dim, self.degree + other.degree, self.vars)
        out.dropped = 0
        for i1, c1 in self.comps.items():
            for i2, c2 in other.comps.items():
                merged = reference_merge_sign(i1, i2)
                if merged is not None:
                    sign, idx = merged
                    term = (c1 * c2).scale(sign)
                    acc = out.comps.get(idx)
                    acc = term if acc is None else acc + term
                    out._put(idx, acc)
                    out.dropped += acc.is_zero()
        return out

    def component(self, idx):
        return self.comps.get(tuple(idx), Poly.zero(self.vars))

    def __str__(self):
        if not self.comps:
            return "0"
        return " + ".join(f"({self.comps[idx]}) "
                          + ("w^(" + ",".join(map(str, idx)) + ")" if idx else "1")
                          for idx in sorted(self.comps))


def to_ref(f: ExtForm) -> RefForm:
    return RefForm(f.dim, f.degree, f.vars, dict(f.comps))


def assert_matches(got: ExtForm, want: RefForm):
    """``got`` is the reference form: degree, view, order rule, components,
    ``str``, and every key holds its component's mask past the variables."""
    assert (got.dim, got.degree, got.vars) == (want.dim, want.degree, want.vars)
    assert dict(got.comps) == want.comps
    assert list(got.comps) == sorted(want.comps)
    assert got == ExtForm(want.dim, want.degree, want.vars, want.comps)
    assert str(got) == str(want)
    assert got.is_zero() == (not want.comps)
    shift = BITS * len(got.vars)
    for c in got.comps.values():
        assert all(key >> shift == 0 for key in c.num)
    assert {key >> shift for key in got.num} == {mask_of(idx) for idx in want.comps}


def layout_cases(seed: int, dim: int, degree: int, variables):
    """(f, g, fr, gr): two forms of ``degree`` as package forms and
    references.  Each component has its own fractional den; g negates one
    component of f exactly (it cancels in f + g) and shares another with
    half its coefficient."""
    gen = SectionGenerator(seed, degree=2, terms=3)
    idxs = list(combinations(range(dim), degree))
    rng = gen.rng
    picks = rng.sample(idxs, k=min(len(idxs), rng.randint(1, 4)))
    comps_f = {idx: gen.poly(variables).scale(Fraction(rng.randint(-9, 9) or 1,
                                                       rng.randint(1, 12)))
               for idx in picks}
    comps_g = {}
    for t, idx in enumerate(picks):
        if t == 0:
            comps_g[idx] = -comps_f[idx]
        elif t == 1:
            comps_g[idx] = comps_f[idx].scale(Fraction(-1, 2)) + gen.poly(variables)
    for idx in rng.sample(idxs, k=min(len(idxs), 2)):
        comps_g.setdefault(idx, gen.poly(variables).scale(Fraction(rng.randint(1, 7), 3)))
    return (ExtForm(dim, degree, variables, comps_f), ExtForm(dim, degree, variables, comps_g),
            RefForm(dim, degree, variables, comps_f), RefForm(dim, degree, variables, comps_g))


SCALARS = [0, 1, -3, Fraction(2, 3), (0, 1), (Fraction(1, 3), Fraction(-2, 5))]


@pytest.mark.parametrize("dim", [1, 2, 4, 6, 8])
def test_ring_operations_match_the_per_component_reference(dim):
    variables = x_vars(4 * (dim // 2 + 1))
    cases = cancelled = 0
    for degree in range(dim + 1):
        for seed in range(4):
            f, g, fr, gr = layout_cases(1000 * dim + 10 * degree + seed, dim, degree, variables)
            assert_matches(f, fr)
            assert_matches(g, gr)
            total = f + g
            assert_matches(total, fr + gr)
            cancelled += len(fr.comps) + len(gr.comps) > len((fr + gr).comps)
            assert_matches(f - g, fr - gr)
            assert_matches(-f, -fr)
            assert (f - f).is_zero() and (f - f).den == 1 and not (f - f).comps
            for value in SCALARS:
                assert_matches(f.scale(value), fr.scale(value))
            for idx in combinations(range(dim), degree):
                assert f.component(idx) == fr.component(idx)
            # the wedge with forms of every degree, past the top one too
            for other in range(dim + 2 - degree):
                h, _, hr, _ = layout_cases(7 * seed + other, dim, min(other, dim), variables)
                assert_matches(f.wedge(h), fr.wedge(hr))
            cases += 1
    assert cases == 4 * (dim + 1) and cancelled == cases


def test_operator_application_matches_the_per_component_reference():
    from cfx.operators import FirstOrderOp

    variables = x_vars(6)
    ops = [FirstOrderOp.partial(variables, "x1"),
           FirstOrderOp(variables, {"x2": Poly.var(variables, "x3", Fraction(1, 3)),
                                    "x3": (Fraction(1, 2), -1)}),
           FirstOrderOp(variables, {"x1": 0})]
    for degree in range(5):
        for seed in range(3):
            f, _, fr, _ = layout_cases(50 + 5 * degree + seed, 4, degree, variables)
            for op in ops:
                assert_matches(op.apply(f), fr.map(op.apply))
    with pytest.raises(ValueError, match="variable tables differ"):
        FirstOrderOp.partial(x_vars(2), "x1").apply(f)


def test_a_text_index_or_exponent_is_refused_not_read_as_an_int():
    # ("0",) is not a second name of the component (0,): an index and an
    # exponent are ints, checked and never coerced
    with pytest.raises(TypeError, match="a form index must be an int, not '0'"):
        ExtForm(2, 1, ("x",), {(0,): Fraction(1, 2), ("0",): 3})
    with pytest.raises(TypeError, match="an exponent must be an int, not '1'"):
        Poly(("x",), {(1,): Fraction(1, 2), ("1",): 3})


def test_wedge_antisymmetry_of_basis():
    assert wedge(w(0), w(1)) == w(0, 1)
    assert wedge(w(1), w(0)) == w(0, 1).scale(-1)


def test_wedge_repeated_index_vanishes():
    assert wedge(w(0), w(0)).is_zero()


def test_wedge_bilinearity():
    f = scale_poly(w(0), Poly.var(V, "x1"))
    g = scale_poly(w(1), Poly.var(V, "x2")) + w(2)
    result = wedge(f, g)
    x1x2 = Poly.var(V, "x1") * Poly.var(V, "x2")
    expected = ExtForm(4, 2, V, {(0, 1): x1x2, (0, 2): Poly.var(V, "x1")})
    assert result == expected


def test_dimension_mismatch_errors():
    other = basis_form(6, (0,), x_vars(4))
    with pytest.raises(ValueError, match="dimension mismatch"):
        wedge(w(0), other)


@pytest.mark.parametrize("call, message", [
    (lambda: ExtForm(3, 2, V, {(0,): 1}), r"index tuple \(0,\) has wrong length for degree 2"),
    (lambda: ExtForm(3, 1, V, {(3,): 1}), r"index out of range in \(3,\)"),
    (lambda: ExtForm(3, -1, V), "negative form degree"),
    (lambda: w(0) + w(0, 1), "degree mismatch: 1 vs 2"),
    (lambda: kaehler_like_sum(3, V), "dimension must be even"),
    (lambda: hat_component(ExtForm.zero(3, 1, V), 0), "hat decomposition needs degree = dim - 1"),
], ids=["index-length", "index-range", "negative-degree", "degree-mismatch", "odd-kaehler",
        "hat-degree"])
def test_exterior_errors_name_their_fault(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: ExtForm(3, 1, ("x",), {(1.9,): 1}), "a form index must be an int, not 1.9"),
    (lambda: ExtForm(3, 1, ("x",), {(True,): 1}), "a form index must be an int, not True"),
    (lambda: ExtForm(3.7, 1, ("x",), {(1,): 1}), "a form's dim must be an int, not 3.7"),
    (lambda: ExtForm(3, 1.0, ("x",)), "a form's degree must be an int, not 1.0"),
    (lambda: ExtForm.zero(3.0, 0, ("x",)), "a form's dim must be an int, not 3.0"),
    (lambda: ExtForm.zero(3, True, ("x",)), "a form's degree must be an int, not True"),
    (lambda: ExtForm.from_scalar(2.5, Poly.const(("x",), 1)),
     "a form's dim must be an int, not 2.5"),
], ids=["float-index", "bool-index", "float-dim", "float-degree", "zero-float-dim",
        "zero-bool-degree", "from-scalar-float-dim"])
def test_a_form_shape_or_index_that_is_not_an_int_is_refused(call, message):
    # a float was truncated (1.9 read as 1, dim 3.7 as 3), a bool read as 0 or
    # 1; ExtForm.zero and from_scalar kept a float dim (zero(3.0, ...).dim was 3.0)
    with pytest.raises(TypeError, match=message):
        call()


def test_strictly_increasing_enforced():
    with pytest.raises(ValueError, match="not strictly increasing"):
        ExtForm(4, 2, V, {(1, 0): Poly.const(V, 1)})


def test_dimension_past_the_mask_field_is_refused():
    # mask bit 15 would be the guard bit of the index field
    assert MAX_DIM == BITS - 1 == 15
    p = Poly.var(V, "x1")
    for build in (lambda: ExtForm(16, 1, V, {(0,): p}), lambda: ExtForm.zero(16, 0, V),
                  lambda: ExtForm.from_scalar(16, p)):
        with pytest.raises(ValueError, match="at most 15 indices"):
            build()
    # at dim 15 every index fits: the top form is a product of 15 one-forms,
    # and an operator's products never read the mask
    from cfx.operators import FirstOrderOp

    top = ExtForm.from_scalar(MAX_DIM, p)
    for a in range(MAX_DIM):
        top = top.wedge(basis_form(MAX_DIM, (a,), V))
    assert list(top.comps) == [tuple(range(MAX_DIM))] and top.component(range(15)) == p
    assert FirstOrderOp.partial(V, "x1").apply(top) == basis_form(MAX_DIM, range(MAX_DIM), V)


@pytest.mark.parametrize("seed", [3, 5, 11])
def test_graded_anticommutativity(seed):
    gen = SectionGenerator(seed)
    for p, q in [(1, 1), (1, 2), (2, 2), (2, 1)]:
        f = gen.form(4, p, V)
        g = gen.form(4, q, V)
        sign = (-1) ** (p * q)
        assert wedge(f, g) == wedge(g, f).scale(sign)


def test_merge_sign_parity():
    # w^0 w^2 ^ w^1 = -w^0 w^1 w^2; w^0 ^ w^1 w^2 = +; w^1 ^ w^0 w^2 = -
    assert merge_sign(0b101, 0b010) == -1
    assert merge_sign(0b001, 0b110) == 1
    assert wedge_sign(0b101, 1) == -1 and wedge_sign(0b101, 3) == 1


def test_insert_index_and_merge_sign_match_reference():
    # every pair of strictly increasing tuples over 7 indices covers every
    # pair with dim <= 7; the sign of one inserted index is wedge_sign
    tuples = [idx for d in range(8) for idx in combinations(range(7), d)]
    for idx in tuples:
        for a in range(7):
            want = reference_merge_sign((a,), idx)
            if want is not None:
                assert (wedge_sign(mask_of(idx), a), mask_of(idx) | 1 << a) == \
                    (want[0], mask_of(want[1]))
    pairs = vanishing = 0
    for left in tuples:
        for right in tuples:
            want = reference_merge_sign(left, right)
            if want is None:
                assert mask_of(left) & mask_of(right)
            else:
                assert merge_sign(mask_of(left), mask_of(right)) == want[0]
            pairs += 1
            vanishing += want is None
    assert (pairs, vanishing) == (16384, 14197)


def _wedge_cases(count: int):
    """Seeded form pairs of mixed degrees (some past the top degree), with
    rational scalings; every tenth pair is f ^ c f at odd degree, which
    cancels completely."""
    gen = SectionGenerator(404, degree=2)
    for t in range(count):
        g = gen.spawn(t)
        rng = g.rng
        dim = rng.randint(1, 6)
        p = rng.randint(0, dim)
        f = g.form(dim, p, V).scale(Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 12)))
        if t % 10 == 0 and p % 2:
            h = f.scale(Fraction(rng.randint(1, 5), rng.randint(1, 5)))
        else:
            h = g.form(dim, rng.randint(0, dim), V).scale(
                Fraction(rng.randint(1, 7), rng.randint(1, 12)))
        yield f, h


def test_wedge_matches_poly_level_reference():
    cases = cancelling = 0
    for f, h in _wedge_cases(400):
        got = f.wedge(h)
        want = to_ref(f).wedge(to_ref(h))
        assert_matches(got, want)
        assert got.degree == f.degree + h.degree
        cases += 1
        cancelling += want.dropped > 0
    assert (cases, cancelling) == (400, 5)


def test_top_and_pair_sum_forms():
    top = top_form(4, V)
    beta = kaehler_like_sum(4, V)
    assert wedge(beta, beta) == top.scale(2)  # beta^2 = 2! * top in dim 4


def test_hat_decomposition_roundtrip():
    gen = SectionGenerator(9)
    coeffs = [gen.spawn(i).poly(V) for i in range(4)]
    T = from_hat_components(4, V, coeffs)
    assert T.degree == 3
    for a in range(4):
        assert hat_component(T, a) == coeffs[a]
    # w^a ^ (w^a -| top) = top
    for a in range(4):
        single = from_hat_components(4, V, [Poly.const(V, 1) if i == a else Poly.zero(V)
                                            for i in range(4)])
        assert wedge(basis_form(4, (a,), V), single) == top_form(4, V)


def test_wedge_past_top_degree_keeps_true_degree():
    out = w(0, 1, 2).wedge(w(1, 3))
    assert out.is_zero() and out.degree == 5


@pytest.mark.parametrize("seed", [2, 9, 31])
def test_ring_results_hold_no_zero_component(seed):
    gen = SectionGenerator(seed, degree=2)
    for p in range(4):
        f = gen.form(4, p, V)
        g = gen.form(4, p, V)
        h = gen.form(4, 4 - p, V)
        results = [f + g, f - g, f - f, f + (-f), -f, f.scale(0), f.scale(Fraction(2, 3)),
                   scale_poly(f, Poly.zero(V)), map_coeffs(f, lambda c: c - c),
                   map_coeffs(f, lambda c: c.diff("x1")), f.wedge(h), f.wedge(f),
                   f.wedge(g)]
        for form in results:
            assert (0, 0) not in form.num.values()
            assert all(not c.is_zero() for c in form.comps.values())
            assert form == ExtForm(form.dim, form.degree, V, form.comps)
        assert (f - f).is_zero() and f.scale(0).is_zero()


def test_the_view_is_read_only_and_kept():
    f = SectionGenerator(4).form(4, 2, V).scale(Fraction(1, 6))
    view = f.comps
    assert f.comps is view
    with pytest.raises(TypeError):
        view[(0, 1)] = Poly.const(V, 1)
    with pytest.raises(AttributeError):
        f.num = {}


def test_a_form_combines_only_with_a_form():
    # another kind is NotImplemented in Packed.__add__ and __sub__, so
    # Python raises its TypeError; a Poly is a 0-form through from_scalar
    f, p = ExtForm.zero(2, 0, V), Poly.const(V, 1)
    for combine in (lambda: f + p, lambda: p + f, lambda: f - p, lambda: f + 1):
        with pytest.raises(TypeError, match="unsupported operand"):
            combine()
    # wedge makes its own kind test (it read a Poly's missing dim)
    with pytest.raises(TypeError, match="^wedge takes an ExtForm, not Poly$"):
        f.wedge(p)
    assert f + ExtForm.from_scalar(2, p) == ExtForm.from_scalar(2, p)
