"""Tests of the boundary complex on step-two groups.

Each quantity checked against a slower construction has one reference here:

- the tangential frame: ``ambient_tangential_fields``, the ambient fields
  corrected to annihilate rho, in ``test_group_fields_match_ambient_projection``;
- ``frak_d``: ``reference_frak_d``, one basis wedge per row, in
  ``test_frak_d_index_insertion_matches_the_basis_wedge``;
- the lowered rows: ``lowered_rows``, built from the fields by the ``Frame``
  docstring's formula, which the tests here and in ``test_flat``, ``test_ma``,
  ``test_monomials`` and ``test_quadrature`` read where the frame keeps only
  the raised rows;
- the curvature entries E_ab (``groups.curvature_entry``, ``curvature_form``):
  ``restricted_curvature``, the ambient -d^0 d^1 rho on the tangential
  indices, read by ``curvature_component``, in
  ``test_curvature_matches_block_formulas`` (60 seeded groups) and in
  ``tests/test_condition_h.py::test_integer_view_matches_the_fraction_brackets``
  (its ``VIEW_CASES``);
- ``boundary_D``: ``_reference_boundary_D``, its four branches written out, in
  ``test_boundary_D_matches_four_branch_reference``;
- ``anticommute_suite``: ``verify_anticommute``, in
  ``test_anticommute_suite_matches_the_loop_reference``;
- ``bracket_identity``: ``_reference_bracket_identity``, eight compositions per
  row pair, in ``test_bracket_identity_matches_eight_composition_reference``;
- ``subcomplex_D`` at level 0 and its adjoint: ``lead_first_operator`` and
  ``reference_adjoint_compose``, in
  ``test_level_zero_subcomplex_D_matches_the_written_out_operator``.
"""

import copy
from fractions import Fraction
from itertools import combinations

import pytest

from cfx import boundary
from cfx.boundary import (BoundaryField, BoundarySpec, TangentFrame, ambient_frame,
                          anticommutation_defect, boundary_D, bracket_identity,
                          curvature_form, frak_d, hodge_diag, lead_first_adjoint_compose,
                          sub_laplacian, subcomplex_D)
from cfx.exterior import ExtForm
from cfx.flat import ComplexSpec
from cfx.groups import GroupSpec, curvature_entry, is_right_type
from cfx.ma import Region
from cfx.operators import FirstOrderOp
from cfx.poly import MAX_EXPONENT, Poly
from cfx.randgen import SectionGenerator
from cfx.spinor import SpinorField, raise_primed
from cfx.verify import (anticommute_suite, boundary_composition_suite, random_boundary_field,
                        subcomplex_suite)
from test_exterior import RefForm, assert_matches, basis_form, layout_cases, to_ref
from test_groups import group_to_json
from test_operators import coeffs
from test_poly import constant_term, power, total_degree
from test_rational import ComplexRational, cq, pair, terms
from test_spinor import zero_spinor_field


def zero_field(spec: BoundarySpec, j: int, frame: TangentFrame) -> BoundaryField:
    """The zero level-j field: a zero lead and no companion given."""
    lead = zero_spinor_field(spec.shape(j), spec.form_dim, frame.vars)
    return BoundaryField(spec, j, lead, None)


def lowered_translations(frame: TangentFrame) -> list:
    """The lowered translation matrix T_{a'b'}, row a', column b'; raising the
    rows with ``raise_primed`` gives ``frame.T_upper``."""
    v, d = frame.vars, FirstOrderOp.partial
    return [[d(v, "t1", (0, -1)), d(v, "t2", -1) + d(v, "t3", (0, 1))],
            [d(v, "t2", 1) + d(v, "t3", (0, 1)), d(v, "t1", (0, 1))]]


def lowered_rows(frame) -> tuple:
    """The lowered 2m x 2 row matrix Z_{a a'}, built from ``frame.X`` by the
    ``Frame`` docstring's formula, not from ``frame.Z_upper``:
    row 2l is (X1 + i X2, -X3 - i X4), row 2l+1 is (X3 - i X4, X1 - i X2)."""
    i, rows = (0, 1), []
    for l in range(len(frame.X) // 4):
        x1, x2, x3, x4 = frame.X[4 * l:4 * l + 4]
        rows.append((x1 + x2.scale(i), -(x3 + x4.scale(i))))
        rows.append((x3 - x4.scale(i), x1 - x2.scale(i)))
    return tuple(rows)


def lowered_d(aprime: int, f: ExtForm, frame) -> ExtForm:
    """The lowered operator d_a' f as the raised one relabelled: d_0 = -d^1, d_1 = d^0."""
    return -frak_d(1, f, frame) if aprime == 0 else frak_d(0, f, frame)


# -- ambient references: the defining function and the fields that annihilate it ----------


def ambient_rho(group: GroupSpec) -> Poly:
    """Defining function x_{4n+1} - phi(x) in ambient coordinates."""
    n = group.n
    variables = ambient_frame(n).vars
    rho = Poly.var(variables, f"x{4 * n + 1}")
    for i in range(4 * n):
        for j in range(4 * n):
            c = group.S[i][j]
            if c:
                rho = rho - (Poly.var(variables, f"x{i+1}") *
                             Poly.var(variables, f"x{j+1}")).scale(c)
    return rho


def ambient_omega(aprime: int, rho: Poly, n: int) -> ExtForm:
    """Boundary 1-form: the raised ambient operator applied to the defining function."""
    return frak_d(aprime, ExtForm.from_scalar(2 * n + 2, rho), ambient_frame(n))


def ambient_curvature(rho: Poly, n: int) -> ExtForm:
    """-d^0 d^1 rho over the full ambient exterior algebra."""
    flat = ambient_frame(n)
    return -frak_d(0, frak_d(1, ExtForm.from_scalar(2 * n + 2, rho), flat), flat)


def restricted_curvature(group: GroupSpec) -> ExtForm:
    """The ambient curvature of rho on the tangential indices, over the group's variables."""
    n = group.n
    amb = ambient_curvature(ambient_rho(group), n)
    return ExtForm(2 * n, 2, group.vars,
                   {idx: Poly.const(group.vars, pair(constant_term(coeff)))
                    for idx, coeff in amb.comps.items() if max(idx) < 2 * n})


def ambient_tangential_fields(group: GroupSpec):
    """Ambient vector fields annihilating the rigid defining function.

    Z_{AC'} = nabla_{AC'} - sum_B' (nabla_{AB'} rho) N_{B'C'} for tangential
    rows A; the normal block N is the last two rows of the lowered matrix.
    """
    n = group.n
    variables = ambient_frame(n).vars
    rho = ambient_rho(group)
    lowered = lowered_rows(ambient_frame(n))
    normal = lowered[2 * n:]
    rows = []
    for a in range(2 * n):
        row = []
        for cprime in (0, 1):
            op = lowered[a][cprime]
            for bprime in (0, 1):
                grad = lowered[a][bprime].apply(rho)
                correction = FirstOrderOp(
                    variables,
                    {v: grad * c for v, c in coeffs(normal[bprime][cprime]).items()})
                op = op - correction
            row.append(op)
        rows.append(row)
    return rows, rho


RIGHT1 = TangentFrame(GroupSpec.right_qh(1))
LEFT1 = TangentFrame(GroupSpec.left_qh(1))
ABELIAN1 = TangentFrame(GroupSpec.abelian(1))
# a dense right-type group at n = 2: every horizontal field carries every t
DENSE_RIGHT2 = TangentFrame(GroupSpec(2, tuple(
    tuple(row) for row in SectionGenerator(4).right_type_matrix(2))))


@pytest.fixture(scope="module")
def right2():
    return TangentFrame(GroupSpec.right_qh(2))


@pytest.fixture(scope="module")
def left2():
    return TangentFrame(GroupSpec.left_qh(2))


# -- tangency and frame construction -------------------------------------------------------


@pytest.mark.parametrize("group", [GroupSpec.right_qh(1), GroupSpec.left_qh(1),
                                   GroupSpec.abelian(2)])
def test_ambient_fields_annihilate_rho(group):
    rows, rho = ambient_tangential_fields(group)
    for row in rows:
        for op in row:
            assert op.apply(rho).is_zero()


def test_ambient_fields_annihilate_rho_random():
    gen = SectionGenerator(6)
    S = gen.symmetric_matrix(4)
    group = GroupSpec(1, tuple(tuple(r) for r in S))
    rows, rho = ambient_tangential_fields(group)
    assert all(op.apply(rho).is_zero() for row in rows for op in row)


def test_ambient_omega_leading_term():
    # the two boundary 1-forms are the normal-slot covectors plus potential terms
    group = GroupSpec.abelian(1)
    rho = ambient_rho(group)
    omega0 = ambient_omega(0, rho, 1)
    omega1 = ambient_omega(1, rho, 1)
    assert omega0.component((3,)) == Poly.const(omega0.vars, 1)
    assert omega1.component((2,)) == Poly.const(omega1.vars, -1)


def test_ambient_omega_derivative_pair():
    # applying the ambient operators to the boundary 1-forms reproduces the
    # curvature with alternating signs and kills the diagonal pairings
    group = GroupSpec.left_qh(1)
    flat = ambient_frame(1)
    rho = ambient_rho(group)
    omega = [ambient_omega(a, rho, 1) for a in (0, 1)]
    E = ambient_curvature(rho, 1)
    assert (frak_d(0, omega[1], flat) + E).is_zero()
    assert (frak_d(1, omega[0], flat) - E).is_zero()
    for a in (0, 1):
        assert frak_d(a, omega[a], flat).is_zero()


def test_boundary_one_forms_of_a_group(right2):
    rho = ambient_rho(right2.group)
    omega0, omega1 = (ambient_omega(a, rho, 2) for a in (0, 1))
    assert omega0.degree == 1 and omega0.dim == 6
    assert omega0.component((5,)) == Poly.const(omega0.vars, 1)
    assert omega1.component((4,)) == Poly.const(omega1.vars, -1)


@pytest.mark.parametrize("name", ["rightQH", "leftQH", "abelian"])
def test_group_fields_match_ambient_projection(name):
    # the frame's tangential rows agree with the ambient annihilating fields
    # pushed down to the group: rename the three center variables, restrict
    # to functions independent of the transverse coordinate, compare exactly
    group = GroupSpec.named(name, 1)
    frame = TangentFrame(group)
    rows, _ = ambient_tangential_fields(group)
    amb_vars = rows[0][0].vars
    rename = {"t1": "x6", "t2": "x7", "t3": "x8"}

    def to_ambient(p):
        out = Poly.zero(amb_vars)
        for expo, c in terms(p).items():
            new = [0] * len(amb_vars)
            for v, e in zip(p.vars, expo):
                new[amb_vars.index(rename.get(v, v))] = e
            out = out + Poly.monomial(amb_vars, tuple(new), pair(c))
        return out

    gen = SectionGenerator(66, degree=2)
    for t in range(3):
        u = gen.spawn(t).poly(frame.vars)
        for a in range(2):
            raised = raise_primed(rows[a])
            for cp in (0, 1):
                lhs = raised[cp].apply(to_ambient(u))
                rhs = to_ambient(frame.Z_upper[a][cp].apply(u))
                assert (lhs - rhs).is_zero()


def _constant_rows(rows):
    """Row entries as {var: constant}, or None if any coefficient is not constant."""
    out = []
    for row in rows:
        for op in row:
            if any(total_degree(p) > 0 for p in coeffs(op).values()):
                return None
            out.append({v: constant_term(p) for v, p in coeffs(op).items()})
    return out


@pytest.mark.parametrize("n", [1, 2])
def test_abelian_frame_is_the_ambient_frame(n):
    # on the abelian group the tangential fields are the coordinate partials,
    # so the boundary rows are the flat rows of R^{4n}, entry by entry
    frame = TangentFrame(GroupSpec.named("abelian", n))
    flat = ambient_frame(n - 1)
    assert frame.dim == flat.dim == 2 * n
    assert _constant_rows(frame.Z_upper) is not None
    assert _constant_rows(frame.Z_upper) == _constant_rows(flat.Z_upper)
    assert _constant_rows(TangentFrame(GroupSpec.named("rightQH", n)).Z_upper) is None


def test_operators_and_fields_are_immutable(right2):
    op = right2.Z_upper[0][0]
    with pytest.raises(AttributeError):
        op.num = {}
    with pytest.raises(AttributeError):
        FirstOrderOp.partial(right2.vars, "x1").vars = ()
    fld = zero_field(BoundarySpec(2, 1), 1, right2)
    with pytest.raises(AttributeError):
        fld.companion = None
    # the records as well; a spec reads the shared ambient frame, and a
    # cached property still fills in once
    spec = ComplexSpec(1, 1)
    assert spec.frame is spec.frame
    assert right2.group.integer_S is right2.group.integer_S
    for record, name in ((spec, "k"), (BoundarySpec(2, 1), "n"), (right2.group, "S"),
                         (Region.cube(2, 1), "lows"), (fld, "lead")):
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(record, name, getattr(record, name))


def test_frame_rows_use_horizontal_fields():
    fr = ABELIAN1
    x1 = Poly.var(fr.vars, "x1")
    out = frak_d(0, ExtForm.from_scalar(2, x1), fr)
    assert out == ExtForm(2, 1, fr.vars, {(1,): Poly.const(fr.vars, 1)})


def test_frak_d_kills_constants():
    fr = RIGHT1
    c = ExtForm.from_scalar(2, Poly.const(fr.vars, 7))
    for a in (0, 1):
        assert frak_d(a, c, fr).is_zero()


def test_frak_d_leibniz(right2):
    gen = SectionGenerator(14, degree=2)
    F = gen.form(4, 1, right2.vars)
    G = gen.form(4, 1, right2.vars)
    for a in (0, 1):
        lhs = frak_d(a, F.wedge(G), right2)
        rhs = frak_d(a, F, right2).wedge(G) + F.wedge(frak_d(a, G, right2)).scale(-1)
        assert (lhs - rhs).is_zero()


def reference_frak_d(aprime, f: RefForm, rows) -> RefForm:
    """The wedge form of frak_d on the per-component reference:
    sum_a w^a ^ rows[a][aprime] f, each row operator applied component by
    component; ``rows`` is ``frame.Z_upper`` or :func:`lowered_rows`."""
    out = RefForm(f.dim, f.degree + 1, f.vars)
    for a, row in enumerate(rows):
        w_a = RefForm(f.dim, 1, f.vars, {(a,): Poly.const(f.vars, 1)})
        out = out + w_a.wedge(f.map(row[aprime].apply))
    return out


def _sparse_forms(gen, frame, degree):
    """A form in one seeded variable and a constant form, on the index tuples
    of a seeded form: frak_d skips most or all of their (row, component) pairs."""
    idxs = list(gen.form(frame.dim, degree, frame.vars).comps)
    x = Poly.var(frame.vars, frame.vars[gen.rng.randrange(len(frame.vars))])
    one = {idx: power(x, 1 + t % 3).scale(Fraction(t + 1, 2)) + Poly.const(frame.vars, t)
           for t, idx in enumerate(idxs)}
    const = {idx: Fraction(t + 1, 3) for t, idx in enumerate(idxs)}
    return [ExtForm(frame.dim, degree, frame.vars, comps) for comps in (one, const)]


@pytest.fixture(scope="module")
def dense_right3():
    return TangentFrame(GroupSpec(3, tuple(
        tuple(row) for row in SectionGenerator(4).right_type_matrix(3))))


@pytest.mark.parametrize("seed", [5, 17, 40])
def test_frak_d_index_insertion_matches_the_basis_wedge(seed, right2, left2, dense_right3):
    # every degree on the ambient frames at n = 1..3 and on the group frames,
    # raised, and lowered through lowered_d; the forms include per-component
    # fractional dens and a sum whose components partly cancel
    # (layout_cases).  At the larger sizes (the ambient frames at n = 4 and
    # 5, a dense right-type frame at n = 3) degrees 0-2 and the top two
    gen = SectionGenerator(seed, degree=2)
    ambient = [ambient_frame(n) for n in (1, 2, 3, 4, 5)]
    large = [ambient[3], ambient[4], dense_right3]
    frames = [*ambient, RIGHT1, LEFT1, right2, left2, DENSE_RIGHT2, dense_right3]
    for frame in frames:
        tables = ((frame.Z_upper, frak_d), (lowered_rows(frame), lowered_d))
        degrees = range(frame.dim + 1)
        if frame in large:
            degrees = [0, 1, 2, frame.dim - 1, frame.dim]
        for degree in degrees:
            f, g, _, _ = layout_cases(100 * seed + degree, frame.dim, degree, frame.vars)
            forms = [gen.form(frame.dim, degree, frame.vars), *_sparse_forms(gen, frame, degree),
                     f, f + g]
            for f in forms:
                for aprime in (0, 1):
                    # operator application, one pass over the form's terms
                    op = frame.Z_upper[degree % frame.dim][aprime]
                    assert_matches(op.apply(f), to_ref(f).map(op.apply))
                    for rows, d in tables:
                        got = d(aprime, f, frame)
                        assert_matches(got, reference_frak_d(aprime, to_ref(f), rows))
                        if frame in ambient:
                            # constant rows commute: every term of d^a' d^a' f cancels
                            assert d(aprime, got, frame).is_zero()


def test_frak_d_matches_the_reference_on_every_basis_field(right2, left2):
    # frak_d is first order with no zeroth-order term, so its images of the
    # constant forms w^I and of x_v w^I, for every variable v and every index
    # set I below the top degree, determine it: comparing them all compares
    # the operators themselves, not only what seeded forms reach
    frames = [ambient_frame(1), ambient_frame(2), right2, left2, DENSE_RIGHT2]
    compared = 0
    for frame in frames:
        tables = ((frame.Z_upper, frak_d), (lowered_rows(frame), lowered_d))
        coeffs = [Poly.const(frame.vars, 1), *(Poly.var(frame.vars, v) for v in frame.vars)]
        for degree in range(frame.dim):
            for idx in combinations(range(frame.dim), degree):
                for c in coeffs:
                    f = ExtForm(frame.dim, degree, frame.vars, {idx: c})
                    for aprime in (0, 1):
                        for rows, d in tables:
                            assert_matches(d(aprime, f, frame),
                                           reference_frak_d(aprime, to_ref(f), rows))
                            compared += 1
    assert compared == 5976


@pytest.mark.parametrize("n", [1, 2])
def test_frak_d_applies_only_the_rows_that_differentiate_the_input(n):
    # a coefficient in x1 alone: of the 2n + 2 rows of each primed index,
    # exactly one differentiates in x1, the frame's table lists only it
    # under x1, and the output holds only its index bit
    frame = ambient_frame(n)
    x1 = Poly.var(frame.vars, "x1")
    f = ExtForm.from_scalar(frame.dim, power(x1, 3) + x1.scale(Fraction(-2, 3)))
    rows = frame.Z_upper
    for aprime in (0, 1):
        entries = frame.field_table(aprime)[1][0]
        assert len(entries) == 1
        (a, _, _), = entries
        assert not rows[a][aprime].coefficient("x1").is_zero()
        assert [r for r, row in enumerate(rows)
                if not row[aprime].coefficient("x1").is_zero()] == [a]
        got = frak_d(aprime, f, frame)
        assert not got.is_zero()
        assert list(got.comps) == [(a,)]
        assert_matches(got, reference_frak_d(aprime, to_ref(f), rows))


@pytest.mark.parametrize("e, raises", [(MAX_EXPONENT, True), (MAX_EXPONENT - 1, False)])
def test_frak_d_refuses_a_product_past_the_exponent_guard(e, raises):
    # on rightQH a row's t1 coefficient is linear in x1: applied to
    # x1^e t1 it multiplies x1^e by x1, which at e = MAX_EXPONENT would
    # carry into the guard bit of x1's field
    frame = RIGHT1
    x1, t1 = (Poly.var(frame.vars, name) for name in ("x1", "t1"))
    f = ExtForm.from_scalar(frame.dim, power(x1, e) * t1)
    assert any(not row[0].coefficient("t1").diff("x1").is_zero() for row in frame.Z_upper)
    if raises:
        with pytest.raises(ValueError, match="above"):
            frak_d(0, f, frame)
    else:
        assert not frak_d(0, f, frame).is_zero()


def test_frak_d_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        frak_d(0, ExtForm.from_scalar(4, Poly.const(RIGHT1.vars, 1)), RIGHT1)


# -- curvature ------------------------------------------------------------------------------


def curvature_component(E: ExtForm, a: int, b: int) -> ComplexRational:
    """Reference: the antisymmetric coefficient E_{ab} read back from the
    2-form E = sum_{a,b} E_{ab} w^a w^b, whose (a, b) component is 2 E_{ab}."""
    if a == b:
        return cq(0)
    if a < b:
        return constant_term(E.component((a, b))) / cq(2)
    return -curvature_component(E, b, a)


def test_curvature_examples():
    assert curvature_form(GroupSpec.right_qh(2)).is_zero()
    assert curvature_form(GroupSpec.abelian(2)).is_zero()
    E = curvature_form(GroupSpec.left_qh(1))
    assert curvature_component(E, 0, 1) == cq(4)
    assert curvature_component(E, 1, 0) == cq(-4)
    assert curvature_component(E, 1, 1) == cq(0)


def _seeded_groups(seed: int, count: int):
    """Groups for n = 1, 2, 3, alternately symmetric and right-type, entries
    over the denominators 2, 3, 4 and 5 in turn."""
    gen = SectionGenerator(seed)
    for n in (1, 2, 3):
        for t in range(count):
            g = gen.spawn(10 * n + t)
            S = g.right_type_matrix(n) if t % 2 else g.symmetric_matrix(4 * n)
            den = 2 + t % 4
            yield GroupSpec(n, tuple(tuple(x / den for x in row) for row in S))


def test_curvature_matches_block_formulas():
    # the closed-form entries against -d^0 d^1 rho, restricted, as exact
    # forms, on 60 groups
    groups = list(_seeded_groups(77, 20))
    zero = 0
    for group in groups:
        E = curvature_form(group)
        assert E == restricted_curvature(group)
        zero += E.is_zero()
        for a in range(2 * group.n):
            for b in range(2 * group.n):
                want = ComplexRational(*curvature_entry(group, a, b))
                assert curvature_component(E, a, b) == want
    assert 0 < zero < len(groups)


def test_curvature_conjugate_pairing():
    gen = SectionGenerator(31)
    S = gen.symmetric_matrix(8)
    group = GroupSpec(2, tuple(tuple(r) for r in S))
    E = curvature_form(group)
    for l in range(2):
        for m in range(2):
            even = curvature_component(E, 2 * l, 2 * m)
            odd = curvature_component(E, 2 * l + 1, 2 * m + 1)
            assert odd == even.conjugate()


def test_curvature_zero_iff_right_type():
    # against the bracket-projection route, which never reads the curvature
    seen = set()
    for group in _seeded_groups(55, 6):
        zero = curvature_form(group).is_zero()
        assert zero == is_right_type(group)[0] == TangentFrame(group).right_type
        seen.add(zero)
    assert seen == {True, False}


def test_general_polynomial_defining_function():
    # non-quadratic defining functions still yield symbolic curvature data
    from cfx.poly import x_vars
    amb = x_vars(8)
    rho = Poly.var(amb, "x5") - power(Poly.var(amb, "x1"), 3)
    E = ambient_curvature(rho, 1)
    assert E.degree == 2
    assert not E.is_zero()


# -- the operator: shapes, examples, composition ---------------------------------------------


def test_level_shapes():
    spec = BoundarySpec(2, 1)
    assert spec.shape(0) == (1, 0)
    assert spec.companion_shape(0) is None
    assert spec.shape(1) == (0, 1)
    assert spec.companion_shape(1) == (0, 1)
    assert spec.shape(2) == (0, 3)
    assert spec.companion_shape(2) == (1, 2)
    assert spec.shape(3) == (1, 4)
    assert spec.companion_shape(3) == (2, 3)
    spec22 = BoundarySpec(2, 2)
    assert spec22.shape(1) == (1, 1)
    assert spec22.companion_shape(1) == (0, 0)
    assert spec22.companion_shape(2) == (0, 2)


def _explicit_shapes(k, j):
    """The per-branch lead and companion shapes written out before the shared level table."""
    lead = (k - j, j) if j <= k else (j - k - 1, j + 1)
    if j == 0:
        return lead, None
    if j <= k:
        return lead, ((0, k) if j == k else (k - j - 1, j - 1))
    return lead, (j - k, j)


def test_level_table_matches_explicit_shapes():
    from cfx.flat import ComplexSpec
    for n in (1, 2, 3):
        for k in range(2 * n + 3):
            spec, flat = BoundarySpec(n + 1, k), ComplexSpec(n, k)
            assert spec.top_level == flat.top_level == 2 * n + 1
            for j in range(spec.top_level + 1):
                assert (spec.shape(j), spec.companion_shape(j)) == _explicit_shapes(k, j)
                assert flat.shape(j) == spec.shape(j)
                assert flat.level_dim(j) == spec.level_dim(j)


def test_operator_output_lands_in_next_level(right2):
    spec = BoundarySpec(2, 1)
    gen = SectionGenerator(8, degree=2)
    for j in range(spec.top_level):
        fld = random_boundary_field(gen.spawn(j), spec, right2, j)
        out = boundary_D(right2, fld)
        assert out.level == j + 1
        assert (out.lead.sigma, out.lead.degree) == spec.shape(j + 1)
        cshape = spec.companion_shape(j + 1)
        if cshape is not None:
            assert (out.companion.sigma, out.companion.degree) == cshape


def test_middle_branch_first_component(right2, left2):
    # with an empty companion the first output is the double operator minus
    # the curvature coupling through the raised translation pair
    spec = BoundarySpec(2, 1)
    gen = SectionGenerator(9, degree=2)
    for frame in (right2, left2):
        F1 = gen.form(4, 1, frame.vars)
        fld = BoundaryField(spec, 1, SpinorField([F1]),
                            SpinorField([ExtForm.zero(frame.dim, 1, frame.vars)]))
        out = boundary_D(frame, fld)
        manual = frak_d(0, frak_d(1, F1, frame), frame) - frame.E0.wedge(
            frame.T_upper[(1, 0)].apply(F1))
        assert (out.lead.slots[0] - manual).is_zero()


def test_right_type_curvature_coupling_vanishes(right2):
    # zero companion input: the companion only feeds the output through the
    # curvature wedge and the translation source; on a right-type group the
    # curvature part is absent so the lead output is the projected operator
    spec = BoundarySpec(2, 2)
    gen = SectionGenerator(10, degree=2)
    lead = gen.slot_field((2, 0), 4, right2.vars)
    fld = BoundaryField(spec, 0, lead, None)
    out = boundary_D(right2, fld)
    projected = subcomplex_D(right2, spec, 0, lead)
    assert out.lead == projected
    # the translation-sourced companion is retained, not asserted away
    assert out.companion is not None


@pytest.mark.parametrize("name,k", [("rightQH", 1), ("rightQH", 2),
                                    ("leftQH", 1), ("leftQH", 2)])
def test_composition_law(name, k, right2, left2):
    frame = right2 if name == "rightQH" else left2
    report = boundary_composition_suite(frame.group, k, trials=3, seed=37,
                                        degree=2, frame=frame)
    assert report.passed, report


def test_composition_law_above_middle(right2):
    # k = 0 exercises the pair of ascending branches
    report = boundary_composition_suite(right2.group, 0, trials=3, seed=41,
                                        degree=2, frame=right2)
    assert report.passed


# The operator as four branch functions, one per position of j relative to k,
# each typing its own slot combinations: the reference for the one-function
# boundary_D.


def _reference_boundary_D(frame: TangentFrame, fld: BoundaryField) -> BoundaryField:
    """Level-j boundary operator; branch chosen by the position of j relative to k."""
    spec, j, k = fld.spec, fld.level, fld.spec.k
    spec._check_operator_level(j)
    if j <= k - 2:
        return _ref_below(frame, fld)
    if j == k - 1:
        return _ref_middle_in(frame, fld)
    if j == k:
        return _ref_middle_out(frame, fld)
    return _ref_above(frame, fld)


def _ref_dd(frame, f, a, b):
    return frak_d(a, frak_d(b, f, frame), frame)


def _ref_apply_T(frame, key, form: ExtForm) -> ExtForm:
    return frame.T_upper[key].apply(form)


def _slot(field: SpinorField, a: int) -> ExtForm:
    """Slot a of ``field``, and the zero form for a slot outside 0..sigma, as
    the written-out four-branch references read their neighbours."""
    if 0 <= a <= field.sigma:
        return field.slots[a]
    return ExtForm.zero(field.dim, field.degree, field.vars)


def _ref_below(frame: TangentFrame, fld: BoundaryField) -> BoundaryField:
    spec, j = fld.spec, fld.level
    E0 = frame.E0
    f = lambda a: _slot(fld.lead, a)
    has_comp = fld.companion is not None
    G = lambda a: _slot(fld.companion, a)
    out_lead = []
    for b in range(spec.sigma(j + 1) + 1):
        term = frak_d(0, f(b), frame) + frak_d(1, f(b + 1), frame)
        if has_comp:
            term = term + E0.wedge(G(b))
        out_lead.append(term)
    out_comp = []
    for c in range(spec.sigma(j + 2) + 1):
        term = -_ref_apply_T(frame, (0, 0), f(c))
        term = term - (_ref_apply_T(frame, (0, 1), f(c + 1)) + _ref_apply_T(frame, (1, 0), f(c + 1)))
        term = term - _ref_apply_T(frame, (1, 1), f(c + 2))
        if has_comp:
            term = term - (frak_d(0, G(c), frame) + frak_d(1, G(c + 1), frame))
        out_comp.append(term)
    lead = SpinorField(out_lead)
    comp = SpinorField(out_comp)
    return BoundaryField(spec, j + 1, lead, comp)


def _ref_middle_in(frame: TangentFrame, fld: BoundaryField) -> BoundaryField:
    """j = k-1: both output components are plain middle-degree forms."""
    spec, j = fld.spec, fld.level
    E0 = frame.E0
    f0, f1 = fld.lead.slots[0], fld.lead.slots[1]
    T_lower = lowered_translations(frame)
    out_lead = frak_d(0, f0, frame) + frak_d(1, f1, frame)
    out_comp = ExtForm.zero(frame.dim, spec.k, frame.vars)
    if fld.companion is not None:
        G = fld.companion.slots[0]
        out_lead = out_lead + E0.wedge(G)
        half = Fraction(1, 2)
        skew_dd = (_ref_dd(frame, G, 0, 1) - _ref_dd(frame, G, 1, 0)).scale(half)
        t_skew_op = (frame.T_upper[(0, 1)] - frame.T_upper[(1, 0)]).scale(half)
        t_skew = t_skew_op.apply(G)
        out_comp = out_comp + skew_dd + E0.wedge(t_skew)
    for ap in (0, 1):
        for bp in (0, 1):
            lowered = T_lower[bp][ap].apply(fld.lead.slots[ap])
            out_comp = out_comp - frak_d(bp, lowered, frame)
    lead = SpinorField([out_lead])
    comp = SpinorField([out_comp])
    return BoundaryField(spec, j + 1, lead, comp)


def _ref_middle_out(frame: TangentFrame, fld: BoundaryField) -> BoundaryField:
    """j = k: output lead is the double operator; companion is an ascending pair."""
    spec, j = fld.spec, fld.level
    E0 = frame.E0
    F1 = fld.lead.slots[0]
    T_lower = lowered_translations(frame)
    F2 = (ExtForm.zero(frame.dim, 0, frame.vars) if fld.companion is None
          else fld.companion.slots[0])
    coupled = frame.T_upper[(1, 0)].apply(F1) + F2
    out_lead = _ref_dd(frame, F1, 0, 1) - E0.wedge(coupled)

    def h(ap: int) -> ExtForm:
        term = frak_d(1, T_lower[ap][0].apply(F1), frame)
        term = term - frak_d(0, T_lower[ap][1].apply(F1), frame)
        # lowered-index operators: first slot is -d^1, second slot is d^0
        dn = -frak_d(1, F2, frame) if ap == 0 else frak_d(0, F2, frame)
        return term - dn

    # pair (h_0, h_1) with a lowered free index corresponds to ascending
    # slots (-h_1, +h_0)
    out_comp = SpinorField([-h(1), h(0)])
    lead = SpinorField([out_lead])
    return BoundaryField(spec, j + 1, lead, out_comp)


def _ref_above(frame: TangentFrame, fld: BoundaryField) -> BoundaryField:
    spec, j = fld.spec, fld.level
    E0 = frame.E0
    f = lambda a: _slot(fld.lead, a)
    G = lambda a: _slot(fld.companion, a)
    out_lead = []
    for b in range(spec.sigma(j + 1) + 1):
        out_lead.append(frak_d(0, f(b), frame) + frak_d(1, f(b - 1), frame)
                        + E0.wedge(G(b)))
    out_comp = []
    for c in range(spec.sigma(j + 2) + 1):
        term = -(frak_d(0, G(c), frame) + frak_d(1, G(c - 1), frame))
        term = term - _ref_apply_T(frame, (0, 0), f(c))
        term = term - (_ref_apply_T(frame, (0, 1), f(c - 1)) + _ref_apply_T(frame, (1, 0), f(c - 1)))
        term = term - _ref_apply_T(frame, (1, 1), f(c - 2))
        out_comp.append(term)
    lead = SpinorField(out_lead)
    comp = SpinorField(out_comp)
    return BoundaryField(spec, j + 1, lead, comp)


def _dense_frame(seed, right_type, n=2):
    gen = SectionGenerator(seed)
    matrix = gen.right_type_matrix(n) if right_type else gen.symmetric_matrix(4 * n)
    frame = TangentFrame(GroupSpec(n, tuple(tuple(r) for r in matrix)))
    assert frame.right_type == right_type
    return frame


def test_boundary_D_matches_four_branch_reference(right2, left2):
    frames = [RIGHT1, LEFT1, right2, left2, _dense_frame(1234, False), _dense_frame(777, True)]
    gen = SectionGenerator(2024, degree=2)
    positions = set()
    for i, frame in enumerate(frames):
        for k in range(5):
            spec = BoundarySpec(frame.n, k)
            for j in range(spec.top_level):
                positions.add("below" if j < k - 1 else "middle-in" if j == k - 1
                              else "middle-out" if j == k else "above")
                fld = random_boundary_field(gen.spawn(100 * i + 10 * k + j), spec, frame, j)
                for case in (fld, BoundaryField(spec, j, fld.lead, None)):
                    got, want = boundary_D(frame, case), _reference_boundary_D(frame, case)
                    assert got.level == want.level
                    assert got.lead == want.lead
                    assert (got.companion is None) == (want.companion is None)
                    if want.companion is not None:
                        assert got.companion == want.companion
                    assert got == want
    assert positions == {"below", "middle-in", "middle-out", "above"}


# D = [[A, C], [T, B]] on (lead, companion); C = 0 on right-type groups
_BLOCKS = {("lead-only", "lead"): "A A + C T", ("lead-only", "companion"): "T A + B T",
           ("companion-only", "lead"): "A C + C B", ("companion-only", "companion"): "T C + B B"}


@pytest.mark.parametrize("name", ["rightQH", "dense-right", "leftQH"])
def test_boundary_blocks_compose_to_zero(name, right2, left2):
    # D^2 = 0 on lead-only fields is A^2 = 0 and T A + B T = 0 on a right-type
    # group, and on companion-only fields B^2 = 0; on leftQH the C terms join
    # them.  Degree 3, since the T rows are d/dt of weight 2
    frame = {"rightQH": right2, "dense-right": DENSE_RIGHT2, "leftQH": left2}[name]
    gen = SectionGenerator(3917, degree=3)
    for k in range(4):
        spec = BoundarySpec(frame.n, k)
        for j in range(spec.top_level - 1):
            fld = random_boundary_field(gen.spawn(10 * k + j), spec, frame, j)
            cases = {"lead-only": BoundaryField(spec, j, fld.lead, None)}
            if fld.companion is not None:
                zero_lead = zero_spinor_field(spec.shape(j), spec.form_dim, frame.vars)
                cases["companion-only"] = BoundaryField(spec, j, zero_lead, fld.companion)
            for what, case in cases.items():
                out = boundary_D(frame, boundary_D(frame, case))
                for part in ("lead", "companion"):
                    assert getattr(out, part).is_zero(), \
                        f"{_BLOCKS[what, part]} != 0 at k={k}, j={j}, {what} field"


def test_translation_table_is_symmetric(right2, left2):
    # T^{01} = T^{10} = i d/dt1 on every frame: swapping x and y in T^{xy} is
    # an equivalent change of boundary_D
    frames = [RIGHT1, LEFT1, ABELIAN1, DENSE_RIGHT2, right2, left2,
              _dense_frame(1234, False), _dense_frame(777, True)]
    for frame in frames:
        assert frame.T_upper[0, 1] == frame.T_upper[1, 0]
        assert not frame.T_upper[0, 1].is_zero()


def test_raised_lowered_translations_are_T_upper():
    # the four-branch reference reads the lowered matrix, boundary_D the raised
    # table: raising row a' of T_lower, (T_{0a'}, T_{1a'}), gives T^{a'b'}
    frames = [TangentFrame(GroupSpec.named(name, n))
              for name in ("rightQH", "leftQH", "abelian") for n in (1, 2, 3)]
    for frame in [*frames, DENSE_RIGHT2]:
        T = lowered_translations(frame)
        raised = {(a, b): raise_primed((T[0][a], T[1][a]))[b] for a in (0, 1) for b in (0, 1)}
        assert list(raised) == list(frame.T_upper)
        for key, op in raised.items():
            assert op == frame.T_upper[key]
            assert list(op.num) == list(frame.T_upper[key].num)


def test_composition_law_generic_group():
    # the formulas are not specific to the named examples: any symmetric
    # matrix gives a group on which consecutive operators compose to zero
    gen = SectionGenerator(1234)
    group = GroupSpec(2, tuple(tuple(r) for r in gen.symmetric_matrix(8)))
    frame = TangentFrame(group)
    assert not frame.right_type
    for k in (0, 1, 2):
        report = boundary_composition_suite(group, k, trials=2, seed=9,
                                            degree=2, frame=frame)
        assert report.passed, report


def test_diag_identity_generic_right_type_group():
    gen = SectionGenerator(777)
    group = GroupSpec(2, tuple(tuple(r) for r in gen.right_type_matrix(2)))
    frame = TangentFrame(group)
    assert frame.right_type
    for k in (1, 2):
        assert hodge_diag(BoundarySpec(2, k), frame, trials=2, seed=3)["pass"]


def test_subcomplex_composition(right2):
    for k in (0, 1, 2):
        report = subcomplex_suite(right2.group, k, trials=3, seed=43,
                                  degree=2, frame=right2)
        assert report.passed


def test_subcomplex_needs_right_type(left2):
    with pytest.raises(ValueError, match="right-type"):
        subcomplex_suite(left2.group, 1, trials=1, seed=1, degree=2, frame=left2)


def test_operator_level_out_of_range(right2):
    spec = BoundarySpec(2, 1)
    with pytest.raises(ValueError, match="out of range"):
        zero_field(spec, 4, right2)
    fld = zero_field(spec, spec.top_level, right2)
    with pytest.raises(ValueError, match="operator level"):
        boundary_D(right2, fld)


def test_missing_companion_equals_the_zero_companion(right2):
    # above level 0 a None companion is stored as the zero field of its
    # shape, so both ways of writing a lead-only field compare equal
    spec = BoundarySpec(2, 1)
    gen = SectionGenerator(41, degree=2)
    lead = gen.slot_field(spec.shape(1), spec.form_dim, right2.vars)
    zero = zero_spinor_field(spec.companion_shape(1), spec.form_dim, right2.vars)
    assert BoundaryField(spec, 1, lead, None) == BoundaryField(spec, 1, lead, zero)
    assert BoundaryField(spec, 1, lead, None).companion == zero
    # level 0 has no companion slot: a zero companion is not kept
    lead = gen.slot_field(spec.shape(0), spec.form_dim, right2.vars)
    dropped = BoundaryField(spec, 0, lead, zero_spinor_field((0, 0), spec.form_dim, right2.vars))
    assert dropped.companion is None
    assert dropped == BoundaryField(spec, 0, lead, None)


def test_field_shape_mismatch(right2):
    spec = BoundarySpec(2, 1)
    bad_lead = SpinorField([ExtForm.zero(right2.dim, 2, right2.vars)])
    with pytest.raises(ValueError, match="lead shape"):
        BoundaryField(spec, 1, bad_lead, None)


# -- anticommutation and brackets ------------------------------------------------------------


def test_anticommutation_right_type(right2):
    report = anticommute_suite(right2, trials=4, seed=3)
    assert report.passed and report["plain_anticommutation"]


def test_anticommutation_left(left2):
    report = anticommute_suite(left2, trials=4, seed=3)
    assert report.passed and not report["plain_anticommutation"]


def test_anticommutation_abelian():
    report = anticommute_suite(ABELIAN1, trials=3, seed=5)
    assert report.passed and report["plain_anticommutation"]


def verify_anticommute(frame: TangentFrame, trials: int, seed: int, degree: int = 2) -> dict:
    """The anticommutation check as its own seeded loop with a report-shaped
    dict, from before the suite ran the loop itself: the reference."""
    gen = SectionGenerator(seed, degree=degree)
    identity_ok = True
    plain_zero = True
    residual = "0"
    for t in range(trials):
        g = gen.spawn(t)
        f = g.form(frame.dim, g.rng.randint(0, max(0, frame.dim - 2)), frame.vars)
        for ap in (0, 1):
            for bp in (0, 1):
                defect, rhs = anticommutation_defect(frame, f, ap, bp)
                diff = defect - rhs
                if not diff.is_zero():
                    identity_ok = False
                    residual = str(diff)
                if not defect.is_zero():
                    plain_zero = False
    return {"identity": "anticommutation-curvature",
            "params": {"trials": trials, "degree": degree}, "seed": seed,
            "pass": identity_ok, "plain_anticommutation": plain_zero,
            "right_type": frame.right_type, "residual": residual}


def test_anticommute_suite_matches_the_loop_reference(right2, left2):
    frames = [RIGHT1, LEFT1, ABELIAN1, right2, left2, _dense_frame(1234, False),
              _tampered(RIGHT1, 0, 1, 2), _tampered(left2, 2, 1, 2)]
    verdicts = set()
    for i, frame in enumerate(frames):
        for trials, seed in ((1, 4), (3, 20 + i)):
            # the suite's record is the reference's dict, key for key
            want = verify_anticommute(frame, trials, seed)
            got = anticommute_suite(frame, trials, seed)
            assert got == want
            verdicts.add((got.passed, got["plain_anticommutation"]))
    assert verdicts == {(True, True), (True, False), (False, False)}


def test_anticommutation_on_central_coordinate():
    # the defect on the central coordinate matches the curvature term exactly
    t1 = Poly.var(LEFT1.vars, "t1")
    f = ExtForm.from_scalar(2, t1)
    defect, rhs = anticommutation_defect(LEFT1, f, 0, 1)
    assert not defect.is_zero()
    assert (defect - rhs).is_zero()


def test_anticommutation_defect_past_top_degree():
    # f of degree dim - 1: both sides have degree dim + 1 and vanish
    f = ExtForm(2, 1, RIGHT1.vars, {(0,): Poly.var(RIGHT1.vars, "x1")})
    defect, rhs = anticommutation_defect(RIGHT1, f, 0, 1)
    assert defect.degree == rhs.degree == 3
    assert defect.is_zero() and rhs.is_zero() and (defect - rhs).is_zero()


def test_bracket_identity_all_groups():
    for frame in (RIGHT1, LEFT1, ABELIAN1):
        assert bracket_identity(frame)["pass"]


@pytest.mark.parametrize("make_frame", [lambda: RIGHT1, lambda: LEFT1,
                                       lambda: _dense_frame(31, True, n=1)],
                         ids=["rightQH", "leftQH", "dense-right"])
def test_bracket_identity_takes_four_commutators_per_row_pair(make_frame, monkeypatch):
    frame = make_frame()
    calls = []
    original = FirstOrderOp.commutator

    def counting(self, other):
        calls.append(1)
        return original(self, other)

    with monkeypatch.context() as patch:
        patch.setattr(FirstOrderOp, "commutator", counting)
        assert bracket_identity(frame)["pass"]
    assert len(calls) == 4 * (frame.dim * (frame.dim - 1) // 2)

    # the shared commutators must not hide a broken field
    tampered = _tampered(frame, 0, 1, 2)
    result = bracket_identity(tampered)
    assert result["pass"] is False and result["residual"] != "0"


def _tampered(frame, row, column, factor):
    tampered = copy.copy(frame)
    # the row tables are built from Z_upper: the copy builds its own
    tampered._rows = {}
    tampered.Z_upper = [list(r) for r in frame.Z_upper]
    tampered.Z_upper[row][column] = tampered.Z_upper[row][column].scale(factor)
    return tampered


@pytest.mark.parametrize("name, n, residual", [
    ("rightQH", 1, "(-2*i) d/dt1"),
    ("rightQH", 2, "(-2*i) d/dt1"),
    ("leftQH", 1, "(4) d/dt2 + (-4*i) d/dt3"),
    ("leftQH", 2, "(4) d/dt2 + (-4*i) d/dt3"),
])
def test_bracket_identity_residual_string_is_pinned(name, n, residual):
    # the string the report prints for a broken field, recorded from the
    # Poly-coefficient operator algebra
    result = bracket_identity(_tampered(TangentFrame(GroupSpec.named(name, n)), 0, 1, 2))
    assert result["pass"] is False and result["residual"] == residual


# The identity as eight second-order compositions per row pair, with the
# composition type it needed: the reference for the commutator form.


class _SecondOrderOp:
    """Composition of first-order operators kept in canonical split form.

    ``order2`` maps unordered variable pairs (v <= w) to Poly coefficients of
    d2/dv dw; ``order1`` maps variables to first-order coefficients.
    """

    def __init__(self, variables, order2=None, order1=None):
        merged = {}
        for key, p in (order2 or {}).items():
            v, w = sorted(key)
            if not p.is_zero():
                acc = merged.get((v, w))
                merged[(v, w)] = p if acc is None else acc + p
        self.vars = tuple(variables)
        self.order2 = {k: p for k, p in merged.items() if not p.is_zero()}
        self.order1 = {v: p for v, p in (order1 or {}).items() if not p.is_zero()}

    @classmethod
    def compose(cls, outer, inner):
        order2 = {}
        order1 = {}
        for v, cv in coeffs(outer).items():
            for w, cw in coeffs(inner).items():
                key = tuple(sorted((v, w)))
                term = cv * cw
                acc = order2.get(key)
                order2[key] = term if acc is None else acc + term
        # outer differentiates inner coefficients
        for w, cw in coeffs(inner).items():
            c = outer.apply(cw)
            if not c.is_zero():
                acc = order1.get(w)
                order1[w] = c if acc is None else acc + c
        return cls(outer.vars, order2, order1)

    def __add__(self, other):
        order2 = dict(self.order2)
        for k, p in other.order2.items():
            order2[k] = order2.get(k, Poly.zero(self.vars)) + p
        order1 = dict(self.order1)
        for v, p in other.order1.items():
            order1[v] = order1.get(v, Poly.zero(self.vars)) + p
        return _SecondOrderOp(self.vars, order2, order1)

    def __neg__(self):
        return _SecondOrderOp(self.vars,
                              {k: -p for k, p in self.order2.items()},
                              {v: -p for v, p in self.order1.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, value):
        return _SecondOrderOp(self.vars,
                              {k: p.scale(value) for k, p in self.order2.items()},
                              {v: p.scale(value) for v, p in self.order1.items()})

    def is_zero(self):
        return not self.order2 and not self.order1

    def __str__(self):
        parts = [f"({p}) d2/d{v}d{w}" for (v, w), p in sorted(self.order2.items())]
        parts += [f"({p}) d/d{v}" for v, p in sorted(self.order1.items())]
        return " + ".join(parts) if parts else "0"


def _reference_bracket_identity(frame: TangentFrame) -> dict:
    quarter, half = Fraction(1, 4), Fraction(1, 2)
    ok = True
    worst = "0"
    for a in range(frame.dim):
        za = frame.Z_upper[a]
        for b in range(a + 1, frame.dim):
            zb = frame.Z_upper[b]
            coeff = curvature_component(frame.E0, a, b)
            for primes in (((0, 0),), ((0, 1), (1, 0)), ((1, 1),)):
                ab = {(x, y): _SecondOrderOp.compose(za[x], zb[y]) for x, y in primes}
                ba = {(x, y): _SecondOrderOp.compose(zb[x], za[y]) for x, y in primes}
                for ap, bp in primes:
                    lhs = ab[ap, bp] + ab[bp, ap] - ba[ap, bp] - ba[bp, ap]
                    lhs = lhs.scale(quarter)
                    t_sym = (frame.T_upper[(ap, bp)] + frame.T_upper[(bp, ap)]).scale(half)
                    rhs = _SecondOrderOp(frame.vars, {}, {v: c.scale(pair(coeff))
                                                          for v, c in coeffs(t_sym).items()})
                    diff = lhs - rhs
                    if not diff.is_zero():
                        ok = False
                        worst = str(diff)
    return {"identity": "bracket-curvature", "params": {"n": frame.n},
            "seed": None, "pass": ok, "residual": worst}


def test_bracket_identity_matches_eight_composition_reference(right2, left2):
    frames = [RIGHT1, LEFT1, ABELIAN1, right2, left2, TangentFrame(GroupSpec.abelian(2))]
    frames += [_dense_frame(40 + n, right_type, n) for n in (1, 2) for right_type in (True, False)]
    frames += [_tampered(frame, row, column, factor)
               for frame, row, column, factor in ((RIGHT1, 0, 1, 2), (RIGHT1, 1, 0, -1),
                                                  (LEFT1, 1, 1, 2), (ABELIAN1, 0, 0, -1),
                                                  (_dense_frame(43, True, 1), 1, 1, 2),
                                                  (right2, 3, 0, -1), (left2, 2, 1, 2))]
    verdicts = set()
    for frame in frames:
        got = {key: value for key, value in bracket_identity(frame).items()
               if key != "paired_rows_cancel"}
        want = _reference_bracket_identity(frame)
        assert got == want
        verdicts.add(got["pass"])
    assert verdicts == {True, False}


def test_paired_rows_cancel_on_right_type(right2):
    assert bracket_identity(RIGHT1)["paired_rows_cancel"]
    assert bracket_identity(right2)["paired_rows_cancel"]


def horizontal_pair_identity(frame: TangentFrame) -> bool:
    """The paired-row check as 2n commutators of its own, from before the
    bracket table served it: the reference."""
    for l in range(frame.n):
        lhs = (frame.Z_upper[2 * l][0].commutator(frame.Z_upper[2 * l + 1][1])
               + frame.Z_upper[2 * l][1].commutator(frame.Z_upper[2 * l + 1][0]))
        if not lhs.is_zero():
            return False
    return True


def test_paired_rows_cancel_matches_the_commutator_reference(right2, left2, tmp_path):
    right = [RIGHT1, ABELIAN1, right2, TangentFrame(GroupSpec.abelian(2)),
             _dense_frame(41, True, 1), _dense_frame(42, True, 2)]
    right += [_tampered(frame, row, column, factor)
              for frame, row, column, factor in ((RIGHT1, 0, 1, 2), (RIGHT1, 1, 0, -1),
                                                 (right2, 2, 0, 2), (right2, 3, 1, -1),
                                                 (_dense_frame(43, True, 1), 1, 1, 2))]
    verdicts = set()
    for frame in right:
        got = bracket_identity(frame)["paired_rows_cancel"]
        assert got == horizontal_pair_identity(frame)
        verdicts.add(got)
    assert verdicts == {True, False}
    # the key is reported on right-type frames only, in the record the CLI prints
    for frame in (LEFT1, left2, _dense_frame(44, False, 1)):
        assert "paired_rows_cancel" not in bracket_identity(frame)
        assert "paired_rows_cancel" not in _cli_bracket_record(frame, tmp_path)


def _cli_bracket_record(frame: TangentFrame, tmp_path) -> dict:
    """The one record of ``cfx verify boundary --check bracket`` on the frame's group."""
    import contextlib
    import io
    import json

    from cfx.cli import main

    path = tmp_path / "group.json"
    path.write_text(json.dumps(group_to_json(frame.group)))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["verify", "boundary", "--file", str(path), "--check", "bracket"]) == 0
    [record] = json.loads(out.getvalue())
    return record


def test_the_bracket_check_takes_no_commutator_of_its_own(right2, tmp_path, monkeypatch):
    # rightQH, n = 2: 6 row pairs of 4 commutators; neither the paired rows
    # nor the CLI add any
    calls = []
    original = FirstOrderOp.commutator

    def counting(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(FirstOrderOp, "commutator", counting)
    record = _cli_bracket_record(right2, tmp_path)
    assert record["pass"] and record["paired_rows_cancel"] is True
    assert set(record) == {"identity", "params", "seed", "pass", "residual",
                           "paired_rows_cancel"}
    assert len(calls) == 24


# -- diagonal identity -------------------------------------------------------------------------


@pytest.mark.parametrize("n,k", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_hodge_diagonal(n, k, right2):
    frame = RIGHT1 if n == 1 else right2
    report = hodge_diag(BoundarySpec(n, k), frame, trials=3, seed=2)
    assert report["pass"], report


def test_hodge_diag_example_slots():
    # degenerate but exact: first-degree slots are annihilated
    slots = [Poly.var(RIGHT1.vars, "x1"), Poly.var(RIGHT1.vars, "x3")]
    out = lead_first_adjoint_compose(RIGHT1, slots)
    for a, p in enumerate(out):
        assert (p - sub_laplacian(RIGHT1, slots[a])).is_zero()


def test_hodge_middle_weight_two():
    # a quadratic middle slot picks up the doubled operator
    gen = SectionGenerator(71)
    slots = [Poly.zero(RIGHT1.vars), gen.poly(RIGHT1.vars), Poly.zero(RIGHT1.vars)]
    out = lead_first_adjoint_compose(RIGHT1, slots)
    assert (out[1] - sub_laplacian(RIGHT1, slots[1]).scale(2)).is_zero()


def test_hodge_constants_vanish():
    slots = [Poly.const(RIGHT1.vars, 3), Poly.const(RIGHT1.vars, -2)]
    out = lead_first_adjoint_compose(RIGHT1, slots)
    assert all(p.is_zero() for p in out)


def lead_first_operator(frame: TangentFrame, k: int, slots):
    """(row, b) table of Z_row^0 slots[b] + Z_row^1 slots[b + 1], one
    ``FirstOrderOp.apply`` at a time: the bottom-level operator as the
    diagonal identity wrote it out before it read ``subcomplex_D``."""
    if len(slots) != k + 1:
        raise ValueError(f"need {k + 1} slot functions")
    out = {}
    for a in range(frame.dim):
        for b in range(k):
            out[(a, b)] = (frame.Z_upper[a][0].apply(slots[b])
                           + frame.Z_upper[a][1].apply(slots[b + 1]))
    return out


def reference_adjoint_compose(frame: TangentFrame, k: int, slots):
    """The adjoint on the table above, one conjugation per (slot, row, b')."""
    image = lead_first_operator(frame, k, slots)
    out = []
    for a in range(k + 1):
        acc = Poly.zero(frame.vars)
        for row in range(frame.dim):
            for bp in (0, 1):
                b = a - bp
                if 0 <= b <= k - 1:
                    acc = acc - frame.Z_upper[row][bp].conjugate().apply(image[(row, b)])
        out.append(acc)
    return out


@pytest.mark.parametrize("name", ["rightQH", "leftQH", "dense-right"])
@pytest.mark.parametrize("n", [1, 2])
def test_level_zero_subcomplex_D_matches_the_written_out_operator(name, n):
    group = (GroupSpec.named(name, n) if name != "dense-right"
             else GroupSpec(n, SectionGenerator(60 + n).right_type_matrix(n)))
    frame = TangentFrame(group)
    gen = SectionGenerator(90 + n, degree=3)
    for k in (1, 2, 3):
        slots = [gen.spawn(10 * k + a).poly(frame.vars) for a in range(k + 1)]
        lead = SpinorField([ExtForm.from_scalar(frame.dim, p) for p in slots])
        image = subcomplex_D(frame, BoundarySpec(n, k), 0, lead)
        table = lead_first_operator(frame, k, slots)
        assert (image.sigma, image.degree) == (k - 1, 1)
        for b in range(k):
            want = ExtForm(frame.dim, 1, frame.vars,
                           {(row,): table[row, b] for row in range(frame.dim)})
            assert image.slots[b] == want
        assert lead_first_adjoint_compose(frame, slots) == \
            reference_adjoint_compose(frame, k, slots)


def test_hodge_diag_reads_D0_from_subcomplex_D(monkeypatch):
    # mutation: the slot combination loses its d^1 term, so D_0 is wrong and
    # the diagonal identity must fail
    original = boundary._slot_combination

    def without_d1(frame, rule, slot):
        return original(frame, [[(a, path) for a, path in terms if path != (1,)]
                                for terms in rule], slot)

    for k in (1, 2):
        assert hodge_diag(BoundarySpec(1, k), RIGHT1, trials=2, seed=3)["pass"]
    monkeypatch.setattr(boundary, "_slot_combination", without_d1)
    for k in (1, 2):
        report = hodge_diag(BoundarySpec(1, k), RIGHT1, trials=2, seed=3)
        assert not report["pass"] and report["residual"] != "0"


def test_hodge_requires_right_type(left2):
    with pytest.raises(ValueError, match="right-type"):
        hodge_diag(BoundarySpec(2, 1), left2, trials=1)


# -- refusals: each error names its fault --------------------------------------------------


@pytest.mark.parametrize("call, error, message", [
    (lambda f: boundary.Frame(("x1",), [FirstOrderOp.partial(("x1",), "x1")] * 3),
     ValueError, "a frame needs 4m real fields"),
    (lambda f: frak_d(2, ExtForm.zero(f.dim, 0, f.vars), f),
     ValueError, "primed index must be 0 or 1"),
    (lambda f: frak_d(0, ExtForm.zero(f.dim, 0, ("y",)), f),
     ValueError, r"^variable tables differ: \('y',\) vs \('x1', "),
    (lambda f: frak_d(0, Poly.const(f.vars, 1), f),
     TypeError, "^frak_d takes an ExtForm, not Poly$"),
    (lambda f: BoundaryField(BoundarySpec(2, 1), 0, zero_spinor_field((1, 0), 4, f.vars),
                             SpinorField([ExtForm.from_scalar(4, Poly.const(f.vars, 1))])),
     ValueError, "level 0 has no companion slot"),
    (lambda f: subcomplex_D(f, BoundarySpec(2, 2), 0, zero_spinor_field((0, 0), 4, f.vars)),
     ValueError, r"^field shape \(0, 0\) does not match level 0: \(2, 0\)$"),
    (lambda f: subcomplex_D(RIGHT1, BoundarySpec(1, 2), 0,
                            zero_spinor_field((0, 0), 2, RIGHT1.vars)),
     ValueError, r"^field shape \(0, 0\) does not match level 0: \(2, 0\)$"),
    (lambda f: subcomplex_D(ComplexSpec(1, 2).frame, ComplexSpec(1, 2), 0,
                            zero_spinor_field((0, 0), 4, ComplexSpec(1, 2).vars)),
     ValueError, r"^field shape \(0, 0\) does not match level 0: \(2, 0\)$"),
    (lambda f: hodge_diag(BoundarySpec(1, 1), f, trials=1, seed=1),
     ValueError, "^spec n = 1 does not match the frame's n = 2$"),
    (lambda f: BoundarySpec(2.0, 1), TypeError, "n must be an int, not 2.0"),
], ids=["frame-size", "primed-index", "frame-vars", "frak-d-kind", "level-0-companion",
        "lead-slot-count", "lead-slot-count-n1", "flat-lead-slot-count", "hodge-n", "float-n"])
def test_boundary_errors_name_their_fault(right2, call, error, message):
    with pytest.raises(error, match=message):
        call(right2)


def test_a_boundary_field_equals_no_other_kind(right2):
    field = zero_field(BoundarySpec(2, 1), 1, right2)
    assert field.__eq__(field.lead) is NotImplemented and field != field.lead
