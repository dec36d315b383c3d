"""Tests of the Monge-Ampere experiments of ``cfx ma``.

Each quantity checked against a slower construction has one reference here:

- the wedge power of the inputs' degree-2 forms: ``ma_power``, in the
  ``test_ma_power_*`` tests and ``test_key_identity_linear_first_input``;
- the Stokes face term: ``_reference_face_sum``, the row coefficients of
  ``_z_rho_on_face`` integrated face by face by the closed form
  ``monomial_reference`` of ``tests/test_quadrature.py``, in
  ``test_stokes_face_term_matches_the_reference``;
- the cutoff-mass record: ``reference_cln``, with every degree-2 cutoff jet
  built, in ``test_cln_builds_the_record_of_every_jet``;
- the sup bound: ``_reference_bound``, term by term, in the ``test_sup_norm_*``
  tests; on the quadratics ``cfx ma`` draws it is the exact corner maximum
  ``_corner_max``, in ``test_sup_bound_is_the_corner_maximum_on_drawn_quadratics``;
- the convergence record: ``reference_convergence`` on the per-step masses
  of ``approximation_masses``, in the ``test_convergence_*`` tests.
"""

import logging
import random
from fractions import Fraction
from math import factorial, lcm, prod
from itertools import combinations
from typing import Sequence

import pytest

from cfx import ma, quadrature
from cfx.boundary import TangentFrame, frak_d
from cfx.exterior import ExtForm, from_hat_components, hat_component, kaehler_like_sum
from cfx.groups import I_MATS, GroupSpec, block_diag, mat_mul
from cfx.ma import (CONVERGENCE_TOL, Region,
                    cln_experiment, convergence_experiment, integrate_top,
                    key_identity_check, stokes_check, sup_bound,
                    top_coefficient, triangle, triangle_form)
from cfx.poly import Poly, unpack
from cfx.quadrature import CutoffJet, integrate_jets, integrate_poly_box, integrate_poly_faces
from cfx.randgen import SectionGenerator
from cfx.reports import dumps
from test_boundary import lowered_rows, reference_frak_d
from test_exterior import assert_matches, basis_form, reference_merge_sign, scale_poly, to_ref
from test_operators import coeffs
from test_poly import power
from test_quadrature import bump_factor, jet_of, monomial_reference, uni_diff
from test_rational import ZERO, ComplexRational, pair, terms


log = logging.getLogger(__name__)


# -- references: the wedge power of the inputs' degree-2 forms and the volume form --------


def ma_power(us: Sequence[Poly], frame: TangentFrame) -> ExtForm:
    """Wedge of the degree-2 forms of the inputs; zero with a notice past top degree."""
    frame.require_right_type()
    p = len(us)
    if p > frame.n:
        log.warning("wedge power %d exceeds top degree %d; returning the zero form",
                    p, frame.n)
        return ExtForm.zero(frame.dim, 2 * p, frame.vars)
    out = triangle(us[0], frame)
    for u in us[1:]:
        out = out.wedge(triangle(u, frame))
    return out


def volume_form(frame: TangentFrame) -> ExtForm:
    """w^0 ^ w^1 ^ ... ^ w^{dim-1} on the frame's form indices."""
    return basis_form(frame.dim, tuple(range(frame.dim)), frame.vars)


def box_volume(region: Region) -> Fraction:
    """Product of the region's side lengths."""
    v = Fraction(1)
    for l, h in zip(region.lows, region.highs):
        v *= h - l
    return v


@pytest.fixture(scope="module")
def right2():
    return TangentFrame(GroupSpec.right_qh(2))


@pytest.fixture(scope="module")
def left2():
    return TangentFrame(GroupSpec.left_qh(2))


def squared_norm(frame):
    p = Poly.zero(frame.vars)
    for i in range(4 * frame.n):
        expo = tuple(2 if t == i else 0 for t in range(len(frame.vars)))
        p = p + Poly.monomial(frame.vars, expo, 1)
    return p


def test_triangle_of_constant_vanishes(right2):
    assert triangle(Poly.const(right2.vars, 9), right2).is_zero()


def test_triangle_of_squared_norm(right2):
    got = triangle(squared_norm(right2), right2)
    assert (got - kaehler_like_sum(right2.dim, right2.vars).scale(8)).is_zero()


def test_triangle_by_independent_second_order_expansion(right2):
    # oracle: coefficient of w^a ^ w^b is the alternating pair of lowered rows
    gen = SectionGenerator(12)
    u = gen.poly(right2.vars)
    got = triangle(u, right2)
    za = lowered_rows(right2)
    for a in range(4):
        for b in range(a + 1, 4):
            direct = (za[a][0].apply(za[b][1].apply(u))
                      - za[b][0].apply(za[a][1].apply(u)))
            assert (got.component((a, b)) - direct).is_zero()


def _x_quadratic(frame, A) -> Poly:
    """x^T A x in the frame's variables, for a symmetric 4n x 4n matrix A."""
    width, terms = len(frame.vars), {}
    for i, row in enumerate(A):
        for j, entry in enumerate(row):
            expo = tuple((t == i) + (t == j) for t in range(width))
            terms[expo] = terms.get(expo, 0) + entry
    return Poly(frame.vars, terms)


def _quaternionic_part(A, n):
    """P(A) = (A + sum_beta I_beta^T A I_beta) / 4, I_beta block-diagonal."""
    terms = [A] + [mat_mul(mat_mul(tuple(zip(*ib)), A), ib)
                   for ib in (block_diag(i_m, n) for i_m in I_MATS)]
    return [[sum(t[i][j] for t in terms) / 4 for j in range(4 * n)] for i in range(4 * n)]


@pytest.mark.parametrize("n", [1, 2])
def test_wedge_power_of_an_x_quadratic_is_its_quaternionic_determinant(n):
    # an outside check of frak_d and wedge on group frames, for u = x^T A x:
    # at n = 1 the one component of triangle(u) is 2 tr A; at n = 2 the top
    # component of triangle(u)^2 is 128 (ab - |q|^2), P(A) = [[a, q], [q*, b]]
    groups = [GroupSpec.right_qh(n),
              GroupSpec(n, tuple(tuple(r) for r in SectionGenerator(4).right_type_matrix(n)))]
    for g, group in enumerate(groups):
        frame = TangentFrame(group)
        assert frame.right_type
        for seed in range(3):
            A = [[x / (seed + 1) for x in row]
                 for row in SectionGenerator(100 * g + seed).symmetric_matrix(4 * n)]
            T = triangle(_x_quadratic(frame, A), frame)
            if n == 1:
                want = 2 * sum(A[i][i] for i in range(4))
                assert T == ExtForm(2, 2, frame.vars, {(0, 1): want})
            else:
                P = _quaternionic_part(A, n)
                want = 128 * (P[0][0] * P[4][4] - sum(P[i][4] ** 2 for i in range(4)))
                assert T.wedge(T) == ExtForm(4, 4, frame.vars, {(0, 1, 2, 3): want})


@pytest.mark.parametrize("name", ["rightQH", "leftQH"])
def test_triangle_form_is_the_lowered_composition_on_every_frame(name, right2, left2):
    # triangle_form is d_0 d_1 written with the raised rows, -d^1 d^0, so it
    # equals the lowered composition off right-type frames too; d^0 d^1
    # agrees with it only where the rows anticommute (E0 = 0), so on leftQH
    # some drawn form tells the two orders apart
    frame = {"rightQH": right2, "leftQH": left2}[name]
    lowered = lowered_rows(frame)
    gen = SectionGenerator(47, degree=2)
    differs = 0
    for degree in range(frame.dim - 1):
        for t in range(3):
            f = gen.spawn(3 * degree + t).form(frame.dim, degree, frame.vars)
            got = triangle_form(f, frame)
            assert_matches(got, reference_frak_d(0, reference_frak_d(1, to_ref(f), lowered),
                                                 lowered))
            differs += frak_d(0, frak_d(1, f, frame), frame) != got
    assert (differs > 0) == (name == "leftQH")


def test_triangle_linear(right2):
    gen = SectionGenerator(4)
    u, v = gen.poly(right2.vars), gen.spawn(1).poly(right2.vars)
    lhs = triangle(u + v, right2)
    rhs = triangle(u, right2) + triangle(v, right2)
    assert (lhs - rhs).is_zero()


def test_triangle_requires_right_type(left2):
    with pytest.raises(ValueError, match="right-type"):
        triangle(Poly.var(left2.vars, "x1"), left2)


def test_triangle_closed(right2):
    gen = SectionGenerator(18)
    u = gen.poly(right2.vars)
    t = triangle(u, right2)
    for a in (0, 1):
        assert frak_d(a, t, right2).is_zero()


def test_ma_power_symmetric(right2):
    gen = SectionGenerator(25)
    us = [gen.spawn(i).psh_quadratic(right2.vars, 8) for i in range(2)]
    a = ma_power(us, right2)
    b = ma_power(list(reversed(us)), right2)
    assert (a - b).is_zero()


def test_ma_power_top_is_multiple_of_volume(right2):
    us = [squared_norm(right2)] * 2
    top = ma_power(us, right2)
    # (8 beta)^2 = 64 * 2! * volume form
    assert (top - volume_form(right2).scale(128)).is_zero()


def test_ma_power_constant_input_vanishes(right2):
    us = [Poly.const(right2.vars, 1), squared_norm(right2)]
    assert ma_power(us, right2).is_zero()


def test_ma_power_beyond_top_degree_notice(right2, caplog):
    import logging
    with caplog.at_level(logging.WARNING, logger="cfx.ma"):
        out = ma_power([squared_norm(right2)] * 3, right2)
    assert out.is_zero()
    assert "zero form" in caplog.text


def test_ma_power_beyond_top_degree_has_true_degree(right2):
    # three degree-2 factors on a 4-dimensional frame: a zero 6-form
    out = ma_power([squared_norm(right2)] * 3, right2)
    assert out.is_zero() and out.degree == 6


def test_key_identity_on_psh_quadratics(right2):
    gen = SectionGenerator(33)
    for t in range(3):
        us = [gen.spawn(10 * t + i).psh_quadratic(right2.vars, 8) for i in range(2)]
        assert key_identity_check(us, right2)["pass"]


def test_key_identity_linear_first_input(right2):
    us = [Poly.var(right2.vars, "x1"), squared_norm(right2)]
    result = key_identity_check(us, right2)
    assert result["pass"]
    assert ma_power(us, right2).is_zero()


def test_key_identity_matches_power(right2):
    us = [squared_norm(right2)] * 2
    assert key_identity_check(us, right2)["pass"]


# -- integration ------------------------------------------------------------------------------


def test_integrate_constant_is_volume(right2):
    region = Region.cube(11, Fraction(1, 2))
    assert integrate_top(volume_form(right2), region) == (1, 0)


def test_integrate_separable_monomial(right2):
    region = Region((0,) * 11, (1,) * 11)
    x1_squared = power(Poly.var(right2.vars, "x1"), 2)
    form = scale_poly(volume_form(right2), x1_squared)
    assert integrate_top(form, region) == (Fraction(1, 3), 0)


def test_beta_power_is_factorial_volume(right2):
    region = Region.cube(11, Fraction(1, 2))
    beta = kaehler_like_sum(right2.dim, right2.vars)
    beta2 = beta.wedge(beta)
    assert (beta2 - volume_form(right2).scale(factorial(2))).is_zero()
    assert integrate_top(beta2, region) == (factorial(2), 0)


def test_integrate_top_rejects_lower_degree(right2):
    with pytest.raises(ValueError, match="top-degree"):
        integrate_top(kaehler_like_sum(right2.dim, right2.vars), Region.cube(11, 1))


def test_region_validation():
    with pytest.raises(ValueError, match="positive volume"):
        Region((0, 0), (0, 1))
    assert box_volume(Region.cube(3, Fraction(1, 2))) == 1


@pytest.mark.parametrize("call, message", [
    (lambda f: Region((0,), (1, 1)), "box bounds have mismatched lengths"),
    (lambda f: key_identity_check([Poly.zero(f.vars)], f),
     "need exactly n=2 inputs for the top power"),
    (lambda f: stokes_check(Poly.zero(f.vars), ExtForm.zero(f.dim, 1, f.vars),
                            Region.cube(11, 1), f),
     "the boundary formula needs a form of degree dim-1"),
    (lambda f: cln_experiment([], Region.cube(11, 1), Region.cube(11, 1), f),
     "need between 1 and n inputs"),
    (lambda f: convergence_experiment(Poly.zero(f.vars[:7]), TangentFrame(GroupSpec.right_qh(1)),
                                      Region.cube(7, 1)),
     "the squared-power experiment is set up for n = 2"),
], ids=["bounds-length", "identity-inputs", "stokes-degree", "cln-inputs", "convergence-n"])
def test_ma_errors_name_their_fault(right2, call, message):
    with pytest.raises(ValueError, match=message):
        call(right2)


@pytest.mark.parametrize("call, message", [
    (lambda: Region((0, Fraction(1, 2)), (1, 1.5)), "not 1.5"),
    (lambda: Region((0,), ("1",)), "not '1'"),
    (lambda: Region.cube(2, 0.5), "not 0.5"),
    (lambda: Region.cube(2, "1/2"), "not '1/2'"),
], ids=["float-bound", "text-bound", "float-half-width", "text-half-width"])
def test_a_box_bound_that_is_not_exact_is_refused(call, message):
    # a float bound was read as its binary expansion, a text bound parsed
    # without parse_fraction's exponent guard
    with pytest.raises(TypeError, match=f"an exact rational is an int or a Fraction, {message}"):
        call()


def test_region_bound_below_the_float_range_is_rejected():
    # a nonzero bound that rounds to 0.0 would print as an exact 0
    with pytest.raises(ValueError, match="below the float range"):
        Region((0,), (Fraction(1, 10 ** 400),))
    with pytest.raises(ValueError, match="below the float range"):
        Region.cube(3, Fraction(1, 10 ** 400))


def test_region_bound_of_exactly_zero_is_accepted():
    region = Region((0,), (1,))
    assert region.lows == (0,) and box_volume(region) == 1
    assert ma._float(Fraction(0)) == 0.0


def test_top_coefficient_extraction(right2):
    form = volume_form(right2).scale(3)
    assert top_coefficient(form) == Poly.const(right2.vars, 3)


# -- boundary formula --------------------------------------------------------------------------


def test_stokes_zero_form(right2):
    region = Region.cube(11, Fraction(1, 2))
    T = ExtForm.zero(4, 3, right2.vars)
    report = stokes_check(Poly.var(right2.vars, "x1"), T, region, right2)
    assert report["pass"]
    assert report["lhs"] == [0.0, 0.0]


def test_stokes_bump_has_no_boundary_term():
    # h vanishing on every face kills the face integrals; the box is not
    # symmetric, so the interior integrals are not 0 by parity alone
    frame = TangentFrame(GroupSpec.right_qh(1))
    low, high = Fraction(-1, 2), Fraction(1)
    region = Region((low,) * 7, (high,) * 7)
    h = Poly.const(frame.vars, 1)
    for name in frame.vars:
        x = Poly.var(frame.vars, name)
        h = h * ((x - Poly.const(frame.vars, low)) * (x - Poly.const(frame.vars, high))).scale(-1)
    gen = SectionGenerator(3, degree=2)
    T = from_hat_components(2, frame.vars, [gen.spawn(i).poly(frame.vars) for i in range(2)])
    report = stokes_check(h, T, region, frame)
    assert report["pass"]
    assert report["boundary"] == [0.0, 0.0]
    assert report["lhs"] != [0.0, 0.0]
    # interior terms cancel each other exactly once the boundary term is gone
    assert report["lhs"] == [-x for x in report["interior"]]


@pytest.mark.parametrize("aprime", [0, 1])
def test_stokes_random_data(aprime, right2):
    region = Region.cube(11, Fraction(1, 2))
    gen = SectionGenerator(6, degree=4)
    h = gen.poly(right2.vars)
    T = from_hat_components(4, right2.vars,
                            [gen.spawn(i).poly(right2.vars) for i in range(4)])
    report = stokes_check(h, T, region, right2, aprime)
    assert report["pass"], report
    assert report["absolute_residual"] == report["relative_residual"] == 0.0


def test_stokes_check_builds_each_moment_table_once(right2):
    # the volume and face integrals of one check read a few (low, high,
    # size) moment tables over and over: each is built once
    region = Region.cube(11, Fraction(1, 2))
    gen = SectionGenerator(6, degree=4)
    h = gen.poly(right2.vars)
    T = from_hat_components(4, right2.vars,
                            [gen.spawn(i).poly(right2.vars) for i in range(4)])
    quadrature._moments.cache_clear()
    assert stokes_check(h, T, region, right2)["pass"]
    info = quadrature._moments.cache_info()
    assert info.misses == info.currsize
    assert info.currsize * 10 < info.hits


def test_stokes_without_one_face_fails(right2, monkeypatch):
    # mutation: the first axis whose face pair is not 0 keeps only its high
    # face, by the closed form, and the residual is no longer 0; on a
    # centred and on an off-centre box
    gen = SectionGenerator(6, degree=4)
    h = gen.poly(right2.vars)
    T = from_hat_components(4, right2.vars,
                            [gen.spawn(i).poly(right2.vars) for i in range(4)])
    dropped = []

    def without_the_low_face(p, lows, highs, axis):
        got = integrate_poly_faces(p, lows, highs, axis)
        if any(got) and not dropped:
            dropped.append(axis)
            return pair(monomial_reference(p, lows, highs, frozen=(axis, highs[axis])))
        return got

    monkeypatch.setattr(ma, "integrate_poly_faces", without_the_low_face)
    for region in (Region.cube(11, Fraction(1, 2)),
                   Region((Fraction(-1, 3),) * 11, (Fraction(3, 5),) * 11)):
        dropped.clear()
        report = stokes_check(h, T, region, right2)
        assert dropped
        assert not report["pass"]
        assert report["absolute_residual"] > 0


def _z_rho_on_face(frame: TangentFrame, row: int, aprime: int, axis: int,
                   sign: int) -> Poly:
    """Z_row^{aprime} applied to the face defining function (unit normal),
    built as a zero Poly plus the scaled coefficient: the reference for the
    face term of ``stokes_check``."""
    out = Poly.zero(frame.vars)
    coeff = coeffs(frame.Z_upper[row][aprime]).get(frame.vars[axis])
    if coeff is not None:
        out = out + coeff.scale(sign)
    return out


def _dense_right_frame(n: int) -> TangentFrame:
    return TangentFrame(GroupSpec(n, SectionGenerator(20 + n).right_type_matrix(n)))


@pytest.mark.parametrize("make_frame", [lambda: TangentFrame(GroupSpec.right_qh(1)),
                                        lambda: TangentFrame(GroupSpec.left_qh(2)),
                                        lambda: _dense_right_frame(1),
                                        lambda: _dense_right_frame(2)],
                         ids=["rightQH-1", "leftQH-2", "dense-right-1", "dense-right-2"])
def test_face_term_is_the_row_coefficient(make_frame):
    frame = make_frame()
    nonzero = 0
    for row in range(frame.dim):
        for aprime in (0, 1):
            for axis in range(len(frame.vars)):
                for side in (1, -1):
                    got = frame.Z_upper[row][aprime].coefficient(frame.vars[axis]).scale(side)
                    want = _z_rho_on_face(frame, row, aprime, axis, side)
                    assert got == want
                    nonzero += not got.is_zero()
    assert nonzero > 0


def _reference_face_sum(h: Poly, T: ExtForm, region: Region, frame: TangentFrame,
                        aprime: int):
    """The exact face term of the boundary formula with the reference above."""
    total = ZERO
    for axis in range(region.naxes):
        for side, value in ((1, region.highs[axis]), (-1, region.lows[axis])):
            face = Poly.zero(frame.vars)
            for a in range(frame.dim):
                face = face + h * hat_component(T, a) * _z_rho_on_face(frame, a, aprime,
                                                                       axis, side)
            total += monomial_reference(face, region.lows, region.highs, frozen=(axis, value))
    return total


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("aprime", [0, 1])
def test_stokes_face_term_matches_the_reference(n, aprime):
    frame = _dense_right_frame(n)
    naxes = len(frame.vars)
    region = Region((Fraction(-1, 3),) * naxes, (Fraction(1, 2),) * naxes)
    gen = SectionGenerator(30 + 2 * n + aprime, degree=2)
    h = gen.poly(frame.vars)
    T = from_hat_components(frame.dim, frame.vars,
                            [gen.spawn(i).poly(frame.vars) for i in range(frame.dim)])
    report = stokes_check(h, T, region, frame, aprime)
    boundary = _reference_face_sum(h, T, region, frame, aprime)
    assert report["pass"] and not boundary.is_zero()
    assert report["boundary"] == ma._c(pair(boundary))


def test_stokes_abelian_reduces_to_classical():
    frame = TangentFrame(GroupSpec.abelian(1))
    region = Region.cube(7, Fraction(1, 2))
    # T = f * (w^0 -| top): the formula collapses to 1-D integration by parts
    f = power(Poly.var(frame.vars, "x1"), 2)
    T = from_hat_components(2, frame.vars, [f, Poly.zero(frame.vars)])
    h = Poly.var(frame.vars, "x2")
    report = stokes_check(h, T, region, frame, 0)
    assert report["pass"]
    # row 1 raised slot 0 is X1 - i X2 = d/dx1 - i d/dx2 in the abelian case;
    # classical parts: int h Z(f) = -int Z(h) f + boundary
    lhs = complex(*report["lhs"])
    assert lhs == pytest.approx(complex(*report["boundary"]) - complex(*report["interior"]),
                                abs=1e-12)


# -- cutoff estimate experiments -----------------------------------------------------------------


def test_bump_vanishes_on_faces():
    region = Region((Fraction(-1, 3), Fraction(1, 4), -1), (Fraction(2, 5), Fraction(7, 3), 2))

    def at(coeffs, x):
        return sum(c * x ** i for i, c in enumerate(coeffs))

    for low, high in zip(region.lows, region.highs):
        f = bump_factor(low, high)
        # zero of second order on both faces, one at the centre
        assert at(f, low) == at(f, high) == 0
        assert at(uni_diff(f), low) == at(uni_diff(f), high) == 0
        assert at(f, (low + high) / 2) == 1
    # so the integral of an exact derivative of the cutoff has no face term:
    # int d_x1 chi = int d_x2^2 chi = int x3 d_x3^2 chi = 0, while int chi != 0
    W = ("x1", "x2", "x3")
    bump = CutoffJet.bump(W)
    exact = [jet_of(W, {(1, 0, 0): Poly.const(W, 1)}),
             jet_of(W, {(0, 2, 0): Poly.const(W, 1)}),
             jet_of(W, {(0, 0, 2): Poly.var(W, "x3")})]
    one = Poly.const(W, 1)
    values = integrate_jets(region.lows, region.highs, [[(jet, one)] for jet in [bump, *exact]])
    values = [ComplexRational(*value) for value in values]
    assert values[1:] == [ZERO] * 3 and values[0] != ZERO


def test_cln_two_evaluations_agree(right2):
    K = Region.cube(11, Fraction(1, 2))
    L = Region.cube(11, Fraction(1, 4))
    gen = SectionGenerator(21)
    us = [gen.spawn(i).psh_quadratic(right2.vars, 8) for i in range(2)]
    for p in (1, 2):
        report = cln_experiment(us[:p], K, L, right2)
        assert report["pass"], report
        assert report["agreement"] == 0.0
        assert report["mass_direct"] == report["mass_middle"] == report["mass_ibp"]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("group", ["rightQH", "dense"])
def test_cln_masses_agree_exactly_on_a_non_dyadic_box(group, n):
    # the three masses are exact rationals with the box's denominators
    g = GroupSpec.right_qh(n) if group == "rightQH" else \
        GroupSpec(n, SectionGenerator(4).right_type_matrix(n))
    frame = TangentFrame(g)
    naxes = len(frame.vars)
    K = Region((Fraction(-2, 3),) * naxes, (Fraction(3, 5),) * naxes)
    L = Region((Fraction(-1, 3),) * naxes, (Fraction(1, 5),) * naxes)
    gen = SectionGenerator(40 + n)
    us = [gen.spawn(i).psh_quadratic(frame.vars, 4 * n) + gen.spawn(i).poly(frame.vars)
          for i in range(n)]
    for p in range(1, n + 1):
        report = cln_experiment(us[:p], K, L, frame)
        assert report["pass"], report
        assert report["agreement"] == 0.0


def test_cln_cutoff_alive_on_the_faces_fails(right2, monkeypatch):
    # mutation: a cutoff that does not vanish on the faces of K leaves face
    # terms behind, so moving the operators onto it changes the mass
    K = Region.cube(11, Fraction(1, 2))
    L = Region.cube(11, Fraction(1, 4))

    def alive_rows(a, b, size):
        # the rows of phi = 1 + x + x^4 in place of the bump
        table, den = quadrature._moment_table(a, b, size + 4)
        g, rows = [1, 1, 0, 0, 1], []
        for _ in range(3):
            rows.append([sum(c * table[e + i] for i, c in enumerate(g)) for e in range(size)])
            g = [i * c for i, c in enumerate(g)][1:]
        return rows, den

    monkeypatch.setattr(quadrature, "_cutoff_rows", alive_rows)
    u = SectionGenerator(21).psh_quadratic(right2.vars, 8)
    report = cln_experiment([u], K, L, right2)
    assert not report["pass"]
    assert len({tuple(report[k]) for k in ("mass_direct", "mass_middle", "mass_ibp")}) > 1
    assert report["agreement"] > 0


def test_cln_zero_mass_does_not_pass(right2):
    # a linear input has a zero degree-2 form: every mass is 0 and nothing is checked
    K = Region.cube(11, Fraction(1, 2))
    L = Region.cube(11, Fraction(1, 4))
    report = cln_experiment([Poly.var(right2.vars, "x1")], K, L, right2)
    assert report["mass_direct"] == report["mass_middle"] == report["mass_ibp"] == [0.0, 0.0]
    assert not report["pass"]


def test_cln_scaling_invariance(right2):
    K = Region.cube(11, Fraction(1, 2))
    L = Region.cube(11, Fraction(1, 4))
    gen = SectionGenerator(29)
    u = gen.psh_quadratic(right2.vars, 8)
    base = cln_experiment([u], K, L, right2)
    scaled = cln_experiment([u.scale(3)], K, L, right2)
    assert complex(*scaled["mass_direct"]) == pytest.approx(
        3 * complex(*base["mass_direct"]), rel=1e-12)
    assert scaled["empirical_C"] == pytest.approx(base["empirical_C"], rel=1e-6)


def test_cln_region_nesting_enforced(right2):
    K = Region.cube(11, Fraction(1, 4))
    L = Region.cube(11, Fraction(1, 2))
    with pytest.raises(ValueError, match="inside"):
        cln_experiment([squared_norm(right2)], K, L, right2)


def reference_cln(us, K: Region, L: Region, frame: TangentFrame) -> dict:
    """``cln_experiment`` as it was with every one of the C(2n, 2) degree-2
    cutoff jets built, the ones whose weight is 0 included."""
    chi = CutoffJet.bump(frame.vars)
    p, n = len(us), frame.n
    rest = ExtForm.from_scalar(frame.dim, Poly.const(frame.vars, 1))
    for u in us[1:]:
        rest = rest.wedge(triangle(u, frame))
    for _ in range(n - p):
        rest = rest.wedge(kaehler_like_sum(frame.dim, frame.vars))
    T = triangle(us[0], frame).wedge(rest)

    def pairs(parts: dict, other: ExtForm) -> list:
        out = []
        for idx, jet in parts.items():
            comp = other.component(tuple(i for i in range(frame.dim) if i not in idx))
            if comp:
                sign, _ = reference_merge_sign(idx, tuple(i for i in range(frame.dim)
                                                          if i not in idx))
                out.append((jet, comp.scale(sign)))
        return out

    za = lowered_rows(frame)
    z0 = [chi.apply_op(za[a][0]) for a in range(frame.dim)]
    tri_chi = {(a, b): z0[a].apply_op(za[b][1]) - z0[b].apply_op(za[a][1])
               for a, b in combinations(range(frame.dim), 2)}
    assert len(tri_chi) == n * (2 * n - 1)
    d1u = frak_d(0, ExtForm.from_scalar(frame.dim, us[0]), frame)  # d_1 = d^0
    mid_pairs = pairs({(a,): jet for a, jet in enumerate(z0)}, d1u.wedge(rest))
    ibp_pairs = [(jet, us[0] * w) for jet, w in pairs(tri_chi, rest)]
    direct, middle, ibp = integrate_jets(K.lows, K.highs,
                                         [[(chi, top_coefficient(T))], mid_pairs, ibp_pairs])
    middle = (-middle[0], -middle[1])
    inner = integrate_top(T, L)
    gap = max(ma._abs(tuple(x - y for x, y in zip(direct, ibp))),
              ma._abs(tuple(x - y for x, y in zip(direct, middle))))
    sups = [sup_bound(u, K) for u in us]
    return {"identity": "cutoff-mass-two-evaluations", "params": {"p": p, "n": n},
            "pass": direct == middle == ibp and any(direct),
            "mass_direct": ma._c(direct), "mass_middle": ma._c(middle), "mass_ibp": ma._c(ibp),
            "agreement": gap / max(map(ma._abs, (direct, middle, ibp))) if gap else 0.0,
            "mass_inner": ma._c(inner), "sup_norms": sups,
            "empirical_C": ma._abs(inner) / prod(sups) if prod(sups) > 0 else None}


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("group", ["rightQH", "dense"])
def test_cln_builds_the_record_of_every_jet(group, n):
    # differential: the jets on demand against all C(2n, 2) jets, on the
    # inputs cfx ma draws and on cubic ones, at every power p <= n
    frame = TangentFrame(GroupSpec.right_qh(n)) if group == "rightQH" else _dense_right_frame(n)
    naxes = len(frame.vars)
    K, L = Region.cube(naxes, Fraction(1, 2)), Region.cube(naxes, Fraction(1, 4))
    gen = SectionGenerator(50 + n)
    drawn = [gen.spawn(i).psh_quadratic(frame.vars, 4 * n) for i in range(n)]
    cubic = [u + gen.spawn(10 + i).poly(frame.vars) for i, u in enumerate(drawn)]
    for us in (drawn, cubic):
        for p in range(1, n + 1):
            got = cln_experiment(us[:p], K, L, frame)
            assert got["pass"]
            assert dumps(got) == dumps(reference_cln(us[:p], K, L, frame)), (p, us)


def _reference_bound(u, region) -> Fraction:
    """sum (|re| + |im|) prod max(|low|, |high|) ** e, term by term."""
    total = Fraction(0)
    for expo, c in terms(u).items():
        m = abs(c.re) + abs(c.im)
        for l, h, e in zip(region.lows, region.highs, expo):
            m *= max(-l, l, -h, h) ** e
        total += m
    return total


def _corner_max(u, region) -> Fraction:
    """The exact max of |u| over the corners of a box, for a real u: the
    corners over the axes u uses, its other axes at their lows.  Each value
    is an integer over den * D ** K, D the common denominator of the bounds
    and K the degree of u."""
    D = lcm(*(x.denominator for x in region.lows + region.highs))
    ends = [(int(l * D), int(h * D)) for l, h in zip(region.lows, region.highs)]
    expos = {key: unpack(key, len(u.vars)) for key in u.num}
    K = max(map(sum, expos.values()), default=0)
    coeffs = []
    for key, (re, im) in u.num.items():
        assert im == 0
        coeffs.append(([(a, e) for a, e in enumerate(expos[key]) if e],
                       re * D ** (K - sum(expos[key]))))
    used = sorted({a for powers, _ in coeffs for a, _ in powers})
    best = 0
    for mask in range(1 << len(used)):
        point = [l for l, _ in ends]
        for bit, a in enumerate(used):
            if mask >> bit & 1:
                point[a] = ends[a][1]
        best = max(best, abs(sum(c * prod(point[a] ** e for a, e in powers)
                                 for powers, c in coeffs)))
    return Fraction(best, u.den * D ** K)


@pytest.mark.parametrize("half", ["1/2", "2/3", "3/4", "2"])
@pytest.mark.parametrize("n", [1, 2])
def test_sup_bound_is_the_corner_maximum_on_drawn_quadratics(n, half):
    # the inputs `cfx ma` draws: on the centred cube their sup is the bound,
    # reached at the corner that lines up the signs of the linear terms
    frame = TangentFrame(GroupSpec.right_qh(n))
    region = Region.cube(len(frame.vars), Fraction(half))
    for seed in range(1, 51):
        for i in range(n):
            u = SectionGenerator(seed).spawn(i).psh_quadratic(frame.vars, 4 * n)
            exact = _corner_max(u, region)
            assert _reference_bound(u, region) == exact, (seed, i)
            assert sup_bound(u, region).hex() == float(exact).hex(), (seed, i)


def test_cln_sup_norms_are_the_bounds_of_the_inputs(right2):
    K = Region.cube(11, Fraction(1, 2))
    L = Region.cube(11, Fraction(1, 4))
    us = [squared_norm(right2), SectionGenerator(21).psh_quadratic(right2.vars, 8)]
    report = cln_experiment(us, K, L, right2)
    # max of sum x^2 over the x-part of the box is 8 * (1/2)^2 = 2
    sups = [2.0, sup_bound(us[1], K)]
    assert report["sup_norms"] == sups
    assert report["empirical_C"] == abs(complex(*report["mass_inner"])) / (sups[0] * sups[1])


@pytest.mark.parametrize("case", ["zero", "constant", "complex-constant", "no-axes"])
def test_sup_norm_zero_and_constant_inputs_match_the_reference(right2, case):
    u = {"zero": Poly.zero(right2.vars),
         "constant": Poly.const(right2.vars, Fraction(-5, 3)),
         "complex-constant": Poly.const(right2.vars, (Fraction(3, 4), Fraction(-1, 2))),
         "no-axes": Poly.const((), Fraction(-5, 3))}[case]
    region = Region((Fraction(-2, 3),) * 11, (Fraction(3, 4),) * 11) if u.vars else Region((), ())
    got = sup_bound(u, region)
    assert got.hex() == float(_reference_bound(u, region)).hex()
    # |re| + |im|: the bound, not the modulus, of a complex coefficient
    assert got == {"zero": 0.0, "complex-constant": 1.25}.get(case, 5 / 3)


@pytest.mark.parametrize("case", ["power", "product"])
def test_sup_norm_corner_value_past_the_float_range_raises(case):
    # 3 ** 1000 and 2 ** 600 * 2 ** 600 are past the largest float
    if case == "power":
        u, region = Poly.monomial(("y",), (1000,), 1), Region.cube(1, 3)
    else:
        u, region = Poly.monomial(("y", "z"), (600, 600), 1), Region.cube(2, 2)
    with pytest.raises(ValueError, match="float range"):
        sup_bound(u, region)


def _drawn_sup_case(rng):
    """A random input and box for the sup-bound checks.

    Boxes cross 0 or lie above it.  Terms mix signs and axes, with complex
    coefficients, powers up to 4 and whole inputs scaled by 2**±500.  A
    cubic bump (x - l)**2 (h - x), 0 on both faces of its axis, puts the
    maximum of |u| strictly inside the box on many inputs.
    """
    naxes = rng.choice([3, 4])
    if rng.random() < 0.5:
        lows = [-Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(naxes)]
        highs = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(naxes)]
    else:
        lows = [Fraction(rng.randint(1, 9), 10) for _ in range(naxes)]
        highs = [low + Fraction(rng.randint(1, 9), 10) for low in lows]
    names = [f"y{i}" for i in range(naxes)]
    y = [Poly.var(names, name) for name in names]
    u = Poly.zero(names)
    for _ in range(rng.choice([1, 2, 3, 4])):
        axes = rng.sample(range(naxes), rng.choice([1, 1, 2, 3]))
        expo = [0] * naxes
        for axis in axes:
            expo[axis] = rng.randint(1, 4)
        coeff = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
        if rng.random() < 0.3:
            coeff = (coeff, Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        u = u + Poly.monomial(names, expo, coeff)
    if rng.random() < 0.5:
        a = rng.randrange(naxes)
        rise = y[a] + Poly.const(names, -lows[a])
        u = u + (rise * rise * (y[a].scale(-1) + Poly.const(names, highs[a]))).scale(
            Fraction(rng.randint(1, 9), 1) / (highs[a] - lows[a]) ** 3)
    if rng.random() < 0.25:
        u = u.scale(Fraction(2) ** rng.choice([-500, 500]))
    return u, Region(lows, highs)


def test_sup_norm_drawn_inputs_match_the_reference():
    rng = random.Random(33)
    for case in range(200):
        u, region = _drawn_sup_case(rng)
        assert sup_bound(u, region).hex() == float(_reference_bound(u, region)).hex(), case


def test_sup_norm_sampling():
    # the bound is at least |u| at every corner and at 200 seeded points of
    # each box, evaluated in floats; the slack covers the rounding of the
    # evaluation and of the bound.  Some inputs reach the bound at a corner
    rng = random.Random(33)
    reached = 0
    for case in range(200):
        u, region = _drawn_sup_case(rng)
        coeffs = [(expo, complex(float(c.re), float(c.im))) for expo, c in terms(u).items()]
        lows = [float(x) for x in region.lows]
        highs = [float(x) for x in region.highs]
        points = [[h if mask >> a & 1 else l for a, (l, h) in enumerate(zip(lows, highs))]
                  for mask in range(1 << region.naxes)]
        points += [[l + (h - l) * rng.random() for l, h in zip(lows, highs)] for _ in range(200)]
        top = max(abs(sum(c * prod(x ** e for x, e in zip(point, expo)) for expo, c in coeffs))
                  for point in points)
        bound = sup_bound(u, region)
        assert top <= bound * (1 + 2 ** -40), case
        reached += top >= bound * (1 - 2 ** -40)
    assert reached >= 20, reached


def test_convergence_experiment_needs_two_steps(right2):
    q = SectionGenerator(31).psh_quadratic(right2.vars, 8)
    for steps in (1, 0, -3):
        with pytest.raises(ValueError, match="at least 2 steps"):
            convergence_experiment(q, right2, Region.cube(11, Fraction(1, 4)), steps=steps)


def approximation_masses(q: Poly, frame: TangentFrame, L: Region, steps: int) -> list:
    """Exact real parts of the inner-region masses of u_j = q + (1/j) sum x^2,
    j = 1..steps, one Fraction A + 2B/j + C/j^2 per step, A, B and C the
    masses of tri q ^ tri q, tri q ^ tri sum x^2 and tri sum x^2 ^ tri sum x^2."""
    tri_q, tri_sq = triangle(q, frame), triangle(squared_norm(frame), frame)
    A, B, C = (integrate_top(F, L)[0]
               for F in (tri_q.wedge(tri_q), tri_q.wedge(tri_sq), tri_sq.wedge(tri_sq)))
    return [A + 2 * B / j + C / (j * j) for j in range(1, steps + 1)]


def reference_convergence(masses: list) -> dict:
    """The convergence report from the exact per-step masses, with every
    successive difference a Fraction."""
    steps = len(masses)
    diffs = [abs(a - b) for a, b in zip(masses, masses[1:])]
    monotone = all(d >= e for d, e in zip(diffs, diffs[1:]))
    return {
        "identity": "approximation-mass-convergence",
        "params": {"steps": steps, "tol": float(CONVERGENCE_TOL)},
        "pass": monotone and diffs[-1] < CONVERGENCE_TOL,
        "masses": [float(m) for m in masses[:8]] + (["..."] if steps > 8 else []),
        "final_difference": float(diffs[-1]),
        "monotone": monotone,
    }


def _hex(report: dict) -> dict:
    """The report with every float as its .hex() string."""
    def hexed(x):
        return x.hex() if isinstance(x, float) else x
    return {key: [hexed(x) for x in value] if key == "masses" else
            {k: hexed(v) for k, v in value.items()} if key == "params" else hexed(value)
            for key, value in report.items()}


CONVERGENCE_STEPS = [2, 3, 8, 9, 64, 10000]


@pytest.mark.parametrize("group", ["rightQH", "dense"])
def test_convergence_report_matches_the_per_step_differences(right2, group):
    frame = right2 if group == "rightQH" else _dense_right_frame(2)
    q = SectionGenerator(31).psh_quadratic(frame.vars, 8)
    L = Region.cube(11, Fraction(1, 4))
    masses = approximation_masses(q, frame, L, max(CONVERGENCE_STEPS))
    for steps in CONVERGENCE_STEPS:
        got = convergence_experiment(q, frame, L, steps)
        assert _hex(got) == _hex(reference_convergence(masses[:steps])), steps


def test_convergence_int_test_matches_the_per_step_differences_on_both_branches():
    # chosen (A, B, C), over different denominators: N_j changes sign once
    # for B and C of opposite signs, so the differences stop decaying
    cases = [(Fraction(1), Fraction(1), Fraction(-10)),
             (Fraction(-3, 7), Fraction(5, 11), Fraction(-40, 13)),
             (Fraction(2, 9), Fraction(-1, 6), Fraction(7, 4)),
             (Fraction(1, 3), Fraction(0), Fraction(5, 8)),
             (Fraction(0), Fraction(0), Fraction(0))]
    seen = set()
    for A, B, C in cases:
        masses = [A + 2 * B / j + C / (j * j) for j in range(1, max(CONVERGENCE_STEPS) + 1)]
        for steps in CONVERGENCE_STEPS:
            got = ma._convergence_report(A, B, C, steps)
            assert _hex(got) == _hex(reference_convergence(masses[:steps])), (A, B, C, steps)
            seen.add(got["monotone"])
    assert seen == {True, False}


@pytest.mark.parametrize("group", ["rightQH", "dense"])
def test_closed_form_masses_equal_the_per_step_integrals(right2, group):
    """A + 2B/j + C/j^2 against the exact integral of (tri u_j)^2, j = 1..64."""
    if group == "rightQH":
        frame = right2
    else:
        frame = TangentFrame(GroupSpec(2, SectionGenerator(1).right_type_matrix(2)))
    gen = SectionGenerator(7)
    # a cubic part keeps the coefficients of tri q non-constant
    q = gen.psh_quadratic(frame.vars, 8) + gen.poly(frame.vars)
    L = Region((Fraction(-1, 4),) * 11, (Fraction(1, 3),) * 11)
    tri_q, tri_sq = triangle(q, frame), triangle(squared_norm(frame), frame)
    closed = approximation_masses(q, frame, L, 64)
    assert len(closed) == 64
    for j in range(1, 65):
        tri_u = tri_q + tri_sq.scale(Fraction(1, j))
        coeff = top_coefficient(tri_u.wedge(tri_u))
        exact = integrate_poly_box(coeff, L.lows, L.highs)
        assert closed[j - 1] == exact[0]


def test_convergence_experiment_quick(right2):
    gen = SectionGenerator(31)
    q = gen.psh_quadratic(right2.vars, 8)
    L = Region.cube(11, Fraction(1, 4))
    report = convergence_experiment(q, right2, L, steps=16)
    assert report["monotone"]
    masses = report["masses"]
    assert all(masses[i] >= masses[i + 1] for i in range(min(len(masses), 8) - 1))
