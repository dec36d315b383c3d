import math

import pytest

from cfx.boundary import ambient_frame, frak_d
from cfx.exterior import ExtForm
from cfx.flat import ComplexSpec, flat_D, flat_D_tuple
from cfx.linalg import bareiss
from cfx.poly import Poly, x_vars
from cfx.randgen import SectionGenerator
from cfx.verify import flat_composition_suite, flat_tuple_equivalence_suite
from test_boundary import lowered_rows, reference_frak_d
from test_exterior import assert_matches, to_ref
from test_operators import coeffs
from test_poly import constant_term, flat_laplacian, total_degree
from test_rational import cq, pair, terms
from test_spinor import zero_spinor_field

V8 = x_vars(8)
FLAT1 = ambient_frame(1)


def d_upper(aprime, form):
    """The raised flat operator on R^8."""
    return frak_d(aprime, form, FLAT1)


def constant_entries(op):
    """{var: constant} of a row entry, which must have constant coefficients."""
    assert all(total_degree(p) == 0 for p in coeffs(op).values())
    return {v: constant_term(p) for v, p in coeffs(op).items()}


# -- an independent expansion of the raised operator, used as the oracle ------------------

RAISED_ENTRIES = {
    # row -> (column 0 entries, column 1 entries) as {var: coeff}
    0: ({"x3": cq(-1), "x4": cq((0, -1))}, {"x1": cq(-1), "x2": cq((0, -1))}),
    1: ({"x1": cq(1), "x2": cq((0, -1))}, {"x3": cq(-1), "x4": cq((0, 1))}),
    2: ({"x7": cq(-1), "x8": cq((0, -1))}, {"x5": cq(-1), "x6": cq((0, -1))}),
    3: ({"x5": cq(1), "x6": cq((0, -1))}, {"x7": cq(-1), "x8": cq((0, 1))}),
}


def oracle_d_upper(aprime, form):
    """Naive expansion with the frozen entry table and sorting-parity signs."""
    comps = {}
    for idx, coeff in form.comps.items():
        for row, cols in RAISED_ENTRIES.items():
            if row in idx:
                continue
            applied = Poly.zero(form.vars)
            for var, c in cols[aprime].items():
                applied = applied + coeff.diff(var).scale(pair(c))
            if applied.is_zero():
                continue
            merged = tuple(sorted((row,) + idx))
            inversions = sum(1 for i in idx if i < row)
            sign = (-1) ** inversions
            acc = comps.get(merged, Poly.zero(form.vars))
            comps[merged] = acc + applied.scale(sign)
    return ExtForm(form.dim, form.degree + 1, form.vars,
                   {k: v for k, v in comps.items() if not v.is_zero()})


def test_raised_matrix_matches_frozen_entries():
    rows = FLAT1.Z_upper
    assert len(rows) == len(RAISED_ENTRIES)
    for row, cols in RAISED_ENTRIES.items():
        for a in (0, 1):
            assert list(constant_entries(rows[row][a]).items()) == list(cols[a].items())


def test_lowered_row_pattern():
    rows = lowered_rows(FLAT1)
    assert constant_entries(rows[0][0]) == {"x1": cq(1), "x2": cq((0, 1))}
    assert constant_entries(rows[0][1]) == {"x3": cq(-1), "x4": cq((0, -1))}
    assert constant_entries(rows[1][0]) == {"x3": cq(1), "x4": cq((0, -1))}
    assert constant_entries(rows[1][1]) == {"x1": cq(1), "x2": cq((0, -1))}


def test_raised_is_lowered_composed_with_pairing():
    frame = ambient_frame(2)
    for row_l, row_r in zip(lowered_rows(frame), frame.Z_upper, strict=True):
        assert constant_entries(row_r[0]) == constant_entries(row_l[1])
        assert constant_entries(row_r[1]) == {
            v: -c for v, c in constant_entries(row_l[0]).items()}


def test_spec_frame_is_the_ambient_frame_built_once():
    spec = ComplexSpec(1, 1)
    assert spec.frame is spec.frame
    assert spec.frame.vars == spec.vars and spec.frame.dim == spec.form_dim
    for got, want in zip(spec.frame.Z_upper, FLAT1.Z_upper):
        assert [constant_entries(op) for op in got] == [constant_entries(op) for op in want]


@pytest.mark.parametrize("n", [1, 2])
def test_ambient_frame_is_one_shared_immutable_frame(n):
    # a constant of n: every spec at that n gets the same frame, and its
    # fields and rows are tuples, so no caller can change them for the others
    frame = ambient_frame(n)
    assert frame is ambient_frame(n)
    assert ComplexSpec(n, 0).frame is ComplexSpec(n, 2 * n).frame is frame
    assert type(frame.X) is type(frame.Z_upper) is tuple
    assert all(type(row) is tuple and len(row) == 2 for row in frame.Z_upper)


def test_lower_upper_operator_pairing():
    # raising the operator index: d^0 = d_1 and d^1 = -d_0, the lowered
    # operators from the lowered rows
    gen = SectionGenerator(44)
    f = gen.form(4, 1, V8)
    lowered = lowered_rows(FLAT1)
    assert_matches(d_upper(0, f), reference_frak_d(1, to_ref(f), lowered))
    assert_matches(d_upper(1, f), -reference_frak_d(0, to_ref(f), lowered))


def test_d_upper_on_linear_coefficient():
    f = ExtForm(4, 1, V8, {(0,): Poly.var(V8, "x1")})
    expected = ExtForm(4, 2, V8, {(0, 1): Poly.const(V8, -1)})
    assert d_upper(0, f) == expected


def test_d_upper_kills_constants():
    f = ExtForm(4, 1, V8, {(2,): Poly.const(V8, 5)})
    assert d_upper(0, f).is_zero()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_d_upper_matches_independent_expansion(seed):
    gen = SectionGenerator(seed)
    for deg in (0, 1, 2):
        f = gen.form(4, deg, V8)
        for a in (0, 1):
            assert (d_upper(a, f) - oracle_d_upper(a, f)).is_zero()


@pytest.mark.parametrize("seed", [4, 9])
def test_double_operator_vanishes(seed):
    gen = SectionGenerator(seed)
    f = gen.form(4, 0, V8)
    for a in (0, 1):
        assert d_upper(a, d_upper(a, f)).is_zero()
    plus = d_upper(0, d_upper(1, f)) + d_upper(1, d_upper(0, f))
    assert plus.is_zero()


def test_leibniz_for_d_upper():
    gen = SectionGenerator(21)
    for tau in (1, 2):
        F = gen.form(4, tau, V8)
        G = gen.form(4, 1, V8)
        for a in (0, 1):
            lhs = d_upper(a, F.wedge(G))
            rhs = d_upper(a, F).wedge(G) + F.wedge(d_upper(a, G)).scale((-1) ** tau)
            assert (lhs - rhs).is_zero()


def test_level_tables():
    spec = ComplexSpec(1, 1)
    assert [spec.sigma(j) for j in range(4)] == [1, 0, 0, 1]
    assert [spec.tau(j) for j in range(4)] == [0, 1, 3, 4]
    assert [spec.level_dim(j) for j in range(4)] == [2, 4, 4, 2]
    spec20 = ComplexSpec(2, 2)
    assert [spec20.level_dim(j) for j in range(6)] == [3, 12, 15, 15, 12, 3]
    # alternating sums vanish
    for n, k in [(1, 0), (1, 1), (1, 2), (2, 1), (2, 2)]:
        s = ComplexSpec(n, k)
        alt = sum((-1) ** j * s.level_dim(j) for j in range(2 * n + 2))
        assert alt == 0


def test_middle_operator_on_square():
    # second-order branch applied to x1^2, against the independent expansion
    from cfx.spinor import SpinorField
    spec = ComplexSpec(1, 0)
    u = Poly.var(V8, "x1") * Poly.var(V8, "x1")
    fld = SpinorField([ExtForm.from_scalar(4, u)])
    out = flat_D(spec, 0, fld)
    oracle = oracle_d_upper(0, oracle_d_upper(1, ExtForm.from_scalar(4, u)))
    assert (out.slots[0] - oracle).is_zero()
    assert out.slots[0].degree == spec.tau(1)


def test_shape_after_middle_level():
    spec = ComplexSpec(1, 1)
    gen = SectionGenerator(5)
    fld = gen.slot_field((0, 1), 4, V8)
    out = flat_D(spec, 1, fld)
    assert out.sigma == spec.sigma(2) and out.degree == spec.tau(2)


@pytest.mark.parametrize("n,k", [(1, 0), (1, 1), (1, 2), (2, 1)])
def test_composition_suite_quick(n, k):
    report = flat_composition_suite(n, k, trials=3, seed=17, degree=3)
    assert report.passed, report


@pytest.mark.parametrize("n,k", [(1, 1), (1, 2), (2, 1)])
def test_tuple_equivalence_quick(n, k):
    report = flat_tuple_equivalence_suite(n, k, trials=2, seed=23, degree=2)
    assert report.passed, report


def test_tuple_equivalence_catches_a_dropped_binomial_weight(monkeypatch):
    # tuple_to_slots without the ascending binomial weight binom(sigma, a)
    # breaks the slot/tuple agreement above the middle level, and the suite
    # reports it
    from cfx import verify
    from cfx.spinor import SpinorField

    assert flat_tuple_equivalence_suite(2, 1, trials=2, seed=1, degree=2).passed

    def unweighted(tuples, ascending):
        s = len(next(iter(tuples)))
        return SpinorField([tuples[(0,) * (s - a) + (1,) * a] for a in range(s + 1)])

    monkeypatch.setattr(verify, "tuple_to_slots", unweighted)
    report = flat_tuple_equivalence_suite(2, 1, trials=2, seed=1, degree=2)
    assert not report.passed and report["failures"]


def test_tuple_operator_descending_example():
    # degree-2 symmetric tuple with only the (0,0) component set: the output
    # (0)-component is the first-index contraction of that single slot
    spec = ComplexSpec(1, 2)
    x1 = ExtForm.from_scalar(4, Poly.var(V8, "x1"))
    zero = ExtForm.zero(4, 0, V8)
    fld = {(0, 0): x1, (0, 1): zero, (1, 0): zero, (1, 1): zero}
    out = flat_D_tuple(spec, 0, fld)
    assert list(out) == [(0,), (1,)]
    assert (out[(0,)] - d_upper(0, x1)).is_zero()
    assert out[(1,)].is_zero()


def test_tuple_operator_needs_every_primed_index_of_the_level():
    # level 0 of (n, k) = (1, 2) carries sigma = 2: four primed multi-indices
    spec = ComplexSpec(1, 2)
    zero = ExtForm.zero(4, 0, V8)
    full = {(0, 0): zero, (0, 1): zero, (1, 0): zero, (1, 1): zero}
    assert all(form.is_zero() for form in flat_D_tuple(spec, 0, full).values())
    missing = {idx: form for idx, form in full.items() if idx != (1, 0)}
    wrong_sigma = {(0,): zero, (1,): zero}
    for bad in (missing, wrong_sigma, {**full, (0, 0, 1): zero}):
        with pytest.raises(ValueError, match="every primed multi-index of length 2"):
            flat_D_tuple(spec, 0, bad)


def test_tuple_output_is_symmetric():
    from cfx.spinor import is_symmetric
    spec = ComplexSpec(1, 0)
    gen = SectionGenerator(31, degree=2)
    fld = gen.tuple_field(spec.shape(1), 4, V8)
    out = flat_D_tuple(spec, 1, fld)
    assert is_symmetric(out)


def test_flat_D_rejects_bad_level():
    spec = ComplexSpec(1, 1)
    with pytest.raises(ValueError, match="out of range"):
        flat_D(spec, 3, zero_spinor_field((1, 4), 4, V8))


def test_closed_sections_are_harmonic():
    # solve the bottom equation over degree <= 3 polynomials by elimination,
    # then check every component is annihilated by the flat Laplacian
    spec = ComplexSpec(1, 1)
    monos = _monomials_up_to(V8, 3)
    unknowns = [(slot, m) for slot in (0, 1) for m in monos]
    rows = {}
    for col, (slot, mono) in enumerate(unknowns):
        fld_slots = [ExtForm.zero(4, 0, V8), ExtForm.zero(4, 0, V8)]
        fld_slots[slot] = ExtForm.from_scalar(4, Poly.monomial(V8, mono, 1))
        from cfx.spinor import SpinorField
        out = flat_D(spec, 0, SpinorField(fld_slots))
        image = out.slots[0]
        for idx, coeff in image.comps.items():
            for expo, c in terms(coeff).items():
                rows.setdefault((idx, expo), {})[col] = c
    rows = list(rows.values())
    free, kernel = _kernel_exact(rows, len(unknowns))
    assert kernel, "expected nontrivial low-degree solutions"
    # the free columns are as many as the sparse eliminator leaves
    assert free == len(unknowns) - bareiss([_gaussian_row(row) for row in rows])
    for vec in kernel:
        for row in rows:
            assert sum((x * vec[c] for c, x in row.items()), cq(0)).is_zero()
        for slot in (0, 1):
            p = Poly.zero(V8)
            for col, (s, mono) in enumerate(unknowns):
                if s == slot and not vec[col].is_zero():
                    p = p + Poly.monomial(V8, mono, pair(vec[col]))
            assert flat_laplacian(p).is_zero()


def _monomials_up_to(variables, degree):
    out = []

    def rec(idx, left, expo):
        if idx == len(variables):
            out.append(tuple(expo))
            return
        for e in range(left + 1):
            expo.append(e)
            rec(idx + 1, left - e, expo)
            expo.pop()

    rec(0, degree, [])
    return out


def _kernel_exact(rows, cols):
    """(free column count, kernel vectors of the first 10 free columns) of a
    ``ComplexRational`` matrix given as sparse ``{column: value}`` rows.

    Gauss-Jordan elimination that works only on the nonzero entries: the
    reduced row echelon form is unique, so each vector is the dense one.
    """
    m = [dict(row) for row in rows]
    pivots = []
    for col in range(cols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(m)) if col in m[r]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = cq(1) / m[rank][col]
        y = m[rank] = {c: x * inv for c, x in m[rank].items()}
        for r, x in enumerate(m):
            if r != rank and col in x:
                f = x[col]
                new = dict(x)
                for c, value in y.items():
                    value = new.get(c, cq(0)) - f * value
                    if value.is_zero():
                        del new[c]
                    else:
                        new[c] = value
                m[r] = new
        pivots.append(col)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fcol in free[:10]:
        vec = [cq(0)] * cols
        vec[fcol] = cq(1)
        for r, pcol in enumerate(pivots):
            vec[pcol] = -m[r].get(fcol, cq(0))
        basis.append(vec)
    return len(free), basis


def _gaussian_row(row):
    """A sparse ``ComplexRational`` row over the lcm of its denominators, as
    the ``{column: (re, im)}`` int pairs that ``bareiss`` takes."""
    den = math.lcm(*(part.denominator for x in row.values() for part in (x.re, x.im)))
    return {c: (int(x.re * den), int(x.im * den)) for c, x in row.items()}
