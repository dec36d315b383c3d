"""Wedge-power operator and its integral experiments, exact up to the report.

On a right-type group the pair of lowered tangential operators composes to
a closed 2-form for every scalar input; its wedge powers define the fully
nonlinear operator studied here.  Every integral is an exact box integral
from :mod:`cfx.quadrature`, an exact (re, im) pair of Fractions, and every
check decides by exact comparison of such pairs:
the Stokes residual is 0, the cutoff mass comes out equal three ways, the
approximation masses decay monotonically below an exact tolerance.  Values
become floats only where the report is written, through :func:`_float`;
the sampled sup norms are the one inexact quantity.  Their sampler skips
every chunk of points on which a coefficient bound, sum |c| prod max|x|^e
widened by its worst rounding error, stays below an input's running
maximum; ``max`` would keep that maximum there, so the floats are those
of evaluating every point.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence
from fractions import Fraction
from itertools import chain, combinations, repeat, starmap
from operator import add, mul, sub

from .boundary import TangentFrame, frak_d
from .exterior import ExtForm, hat_component, kaehler_like_sum, merge_sign
from .poly import Poly, unpack
from .quadrature import CutoffJet, integrate_jets, integrate_poly_box, integrate_poly_face


# -- region ------------------------------------------------------------------------------


class Region:
    """Axis-aligned box in group coordinates; immutable."""

    def __init__(self, lows, highs):
        lows = tuple(Fraction(x) for x in lows)
        highs = tuple(Fraction(x) for x in highs)
        object.__setattr__(self, "lows", lows)
        object.__setattr__(self, "highs", highs)
        if len(lows) != len(highs):
            raise ValueError("box bounds have mismatched lengths")
        if any(h <= l for l, h in zip(lows, highs)):
            raise ValueError("region must have positive volume")
        # the sup-norm sampler and the report read the bounds as floats
        for x in lows + highs:
            _float(x)

    def __setattr__(self, name, value):
        raise AttributeError("Region is immutable")

    @classmethod
    def cube(cls, naxes: int, half_width) -> "Region":
        h = Fraction(half_width)
        return cls((-h,) * naxes, (h,) * naxes)

    @property
    def naxes(self) -> int:
        return len(self.lows)

    def contains(self, other: "Region") -> bool:
        return all(sl <= ol and oh <= sh for sl, ol, oh, sh in
                   zip(self.lows, other.lows, other.highs, self.highs))


# -- the degree-2 operator and its powers ------------------------------------------------


def triangle(u: Poly, frame: TangentFrame) -> ExtForm:
    """Closed 2-form from a scalar: lowered pair composition.

    Requires a right-type frame: only there does the result anticommute out
    of every further lowered operator, which all wedge identities rely on.
    """
    frame.require_right_type()
    return triangle_form(ExtForm.from_scalar(frame.dim, u), frame)


def triangle_form(f: ExtForm, frame: TangentFrame) -> ExtForm:
    """Lowered pair composition on a form input (no right-type gate)."""
    return frak_d(0, frak_d(1, f, frame, raised=False), frame, raised=False)


def _triangles_after_first(us: Sequence[Poly], frame: TangentFrame) -> ExtForm:
    """triangle(u_2) ^ ... ^ triangle(u_p), the constant form 1 for one input."""
    rest = ExtForm.from_scalar(frame.dim, Poly.const(frame.vars, 1))
    for u in us[1:]:
        rest = rest.wedge(triangle(u, frame))
    return rest


def key_identity_check(us: Sequence[Poly], frame: TangentFrame) -> dict:
    """Four independent evaluations of the top wedge power must agree exactly.

    direct product / pulled through the first factor once / with the other
    orientation / applied to the scalar-weighted rest.
    """
    frame.require_right_type()
    if len(us) != frame.n:
        raise ValueError(f"need exactly n={frame.n} inputs for the top power")
    rest = _triangles_after_first(us, frame)
    u1 = ExtForm.from_scalar(frame.dim, us[0])

    e1 = triangle(us[0], frame).wedge(rest)
    e2 = frak_d(0, frak_d(1, u1, frame, raised=False).wedge(rest), frame, raised=False)
    e3 = -frak_d(1, frak_d(0, u1, frame, raised=False).wedge(rest), frame, raised=False)
    e4 = triangle_form(u1.wedge(rest), frame)

    diffs = [e2 - e1, e3 - e1, e4 - e1]
    ok = all(d.is_zero() for d in diffs)
    residual = "0" if ok else str(next(d for d in diffs if not d.is_zero()))
    return {"identity": "wedge-power-pullout", "params": {"n": frame.n},
            "pass": ok, "residual": residual}


# -- integration -------------------------------------------------------------------------


def top_coefficient(F: ExtForm) -> Poly:
    """Coefficient of the full top form; errors unless F has top degree."""
    if F.degree != F.dim:
        raise ValueError(f"expected a top-degree form (degree {F.dim}), got degree {F.degree}")
    return F.component(tuple(range(F.dim)))


def integrate_top(F: ExtForm, region: Region) -> tuple:
    """Exact integral of a top-degree form over a region via the volume
    functional, as its (re, im) pair of Fractions."""
    return integrate_poly_box(top_coefficient(F), region.lows, region.highs)


def beta_form(frame: TangentFrame) -> ExtForm:
    return kaehler_like_sum(frame.dim, frame.vars)


# -- Stokes-type boundary formula -------------------------------------------------------


def stokes_check(h: Poly, T: ExtForm, region: Region, frame: TangentFrame,
                 aprime: int = 0) -> dict:
    """Integration-by-parts identity with the face term, by exact box integrals.

    volume(h * dT) + volume(dh ^ T) - faces(h T_a Z_a rho) must be exactly 0;
    the report also carries the rounded residual, absolute and relative.
    On the face x_axis = value with outward side +-1, Z_a^{a'} rho is the
    row's coefficient of d/dx_axis times the side.
    """
    if T.degree != frame.dim - 1:
        raise ValueError("the boundary formula needs a form of degree dim-1")
    lhs_form = frak_d(aprime, T, frame)
    lhs = integrate_top(ExtForm.from_scalar(frame.dim, h).wedge(lhs_form), region)
    dh_T = frak_d(aprime, ExtForm.from_scalar(frame.dim, h), frame).wedge(T)
    mid = integrate_top(dh_T, region)

    h_t = [h * hat_component(T, a) for a in range(frame.dim)]
    boundary = (0, 0)
    for axis in range(region.naxes):
        # the flux sum_a h T_a Z_a rho through the faces x_axis = high and low
        flux = Poly.zero(frame.vars)
        for a, ht in enumerate(h_t):
            z_rho = frame.Z_upper[a][aprime].coefficient(frame.vars[axis])
            if ht and z_rho:
                flux = flux + ht * z_rho
        if flux:
            high = integrate_poly_face(flux, region.lows, region.highs, axis, region.highs[axis])
            low = integrate_poly_face(flux, region.lows, region.highs, axis, region.lows[axis])
            boundary = tuple(b + h - l for b, h, l in zip(boundary, high, low))

    residual = tuple(a + b - c for a, b, c in zip(lhs, mid, boundary))
    absolute = _abs(residual)
    return {"identity": "boundary-parts-formula",
            "params": {"aprime": aprime, "dims": region.naxes},
            "pass": not any(residual),
            "lhs": _c(lhs), "interior": _c(mid), "boundary": _c(boundary),
            "absolute_residual": absolute,
            "relative_residual": absolute / max(_abs(lhs), _abs(mid), _abs(boundary), 1.0)}


# -- the report edge -------------------------------------------------------------------


def _float(x: Fraction) -> float:
    """The one rounding of an exact value to a report float.

    A value outside the float range is an input error: one too large (from
    a very wide box), and a nonzero one that rounds to 0.0 (from a very
    narrow box), which the report could not tell from an exact 0.
    """
    try:
        value = float(x)
    except OverflowError:
        raise ValueError("an exact value is outside the float range of the report; "
                         "use a smaller box") from None
    if value == 0.0 and x:
        raise ValueError("a nonzero exact value is below the float range of the report; "
                         "use a larger box")
    return value


def _c(z: tuple) -> list:
    """An exact (re, im) pair as the report's [re, im] floats."""
    return [_float(z[0]), _float(z[1])]


def _abs(z: tuple) -> float:
    return math.hypot(*_c(z))


# -- the cutoff experiment ---------------------------------------------------------------


def _wedge_complement_pairs(parts: dict, other: ExtForm) -> list:
    """Pairs (cutoff jet, polynomial weight) whose products sum to the top
    coefficient of (sum parts_idx w^idx) ^ other."""
    pairs = []
    for idx, jet in parts.items():
        rest = tuple(i for i in range(other.dim) if i not in idx)
        comp = other.component(rest)
        if comp:
            sign, _ = merge_sign(idx, rest)
            pairs.append((jet, comp if sign > 0 else -comp))
    return pairs


# points per chunk of the sup-norm sampler: a few hundred run each term's
# work in C while the columns of a chunk stay small in memory
_CHUNK = 256


def _point_chunks(lows: list, highs: list, used: list, samples: int, seed: int):
    """The sampled points as (size, reach, columns) chunks over the used axes.

    The corners over the used axes (for 16 or fewer axes), the centre, then
    ``samples`` seeded points drawn point by point in axis order, every axis
    drawn whether used or not, so the draws are those of one point at a time.
    ``columns()`` builds the chunk's {axis: column}.  ``reach`` is None for
    the corners and the centre; for a sample chunk it is {axis: M_a}, the
    largest |x_a| of the chunk's points.  A coordinate is ``l + span * r``
    with span > 0, and both roundings are monotone in r, so M_a is the larger
    of |l + span * min r| and |l + span * max r|: exactly the largest
    |column entry|, found without building the column.
    """
    naxes = len(lows)
    if naxes <= 16:
        # a point's value reads only the used axes, so corners that differ
        # elsewhere give the same float: one corner per choice on those
        corners = 1 << len(used)
        for start in range(0, corners, _CHUNK):
            masks = range(start, min(start + _CHUNK, corners))
            yield len(masks), None, lambda masks=masks: {
                axis: [highs[axis] if mask >> bit & 1 else lows[axis] for mask in masks]
                for bit, axis in enumerate(used)}
    yield 1, None, lambda: {axis: [(lows[axis] + highs[axis]) / 2] for axis in used}
    spans = [(axis, lows[axis], highs[axis] - lows[axis]) for axis in used]
    draw = random.Random(seed).random
    for start in range(0, samples, _CHUNK):
        size = min(_CHUNK, samples - start)
        draws = list(starmap(draw, repeat((), size * naxes)))
        reach = {}
        for axis, l, span in spans:
            rs = draws[axis::naxes]
            reach[axis] = max(abs(l + span * min(rs)), abs(l + span * max(rs)))
        yield size, reach, lambda draws=draws: {axis: [l + span * r for r in draws[axis::naxes]]
                                                for axis, l, span in spans}


def sup_norm_on_grid(us: Sequence[Poly], region: Region, samples: int = 4096,
                     seed: int = 2) -> list:
    """Sampled sup of |u| over the region for each input, on one set of points.

    The points are all corners, the centre and ``samples`` seeded interior
    points, drawn once per call for every input.  A sampled estimate
    (documented as such in reports); exact polynomial sup over a box is a
    separate optimization problem.

    The points are evaluated a chunk at a time, kept as per-axis columns,
    term by term with ``map``; a chunk's ``x ** e`` column serves every
    input.  Each point still gets the float operations of a per-point loop,
    in its order: ``x ** e``, the product from 1.0 over the term's axes in
    axis order, ``coeff * m``, the sum from 0 in term order, ``abs``, and the
    maximum by ``>`` (which skips NaN).  Inputs with real coefficients sum
    in floats: the real part of the complex sum takes the same float steps
    and ``abs`` of ``re ± 0j`` is ``abs(re)``, so the sups are the same floats.

    The corners and the centre are always evaluated, and first.  An input
    skips a sample chunk when B * (1 + (N + K + 8) * 2**-40) + floor is
    below its running maximum.  B is the sum over the terms of
    (|re| + |im|) * prod M_a ** e, with M_a the chunk's largest |x_a| (see
    :func:`_point_chunks`); N is the term count and K the largest degree.
    A point's float value is a sum of N rounded products of at most K
    rounded factors (``pow`` within 1 ulp) and a coefficient, so its
    absolute value exceeds the exact sum of the |terms| by a relative error
    of at most about (N + 3K + 4) * 2**-53 (recursive summation: Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2nd ed., section 4.2).
    The rounding of B is of the same size, and the slack covers both
    thousands of times over.  Below the normal range a rounding errs by up
    to 2**-1074 absolute instead, which the later factors and the
    coefficient enlarge by at most W = sum over the terms of
    (|re| + |im|) * S ** K, where S = max(1, twice the largest |low| or
    |high|) exceeds every |coordinate|: floor = (N + K) * 2**-1000 * (1 + W)
    covers that.  So every value on a skipped chunk is at most the running
    maximum, and ``max``, which replaces only on a greater value, would
    have kept it: the sups are the same floats.  An inf or NaN bound never
    skips, and NaN never becomes the maximum.
    """
    lows = [_float(x) for x in region.lows]
    highs = [_float(x) for x in region.highs]
    # S of the floor: every |coordinate| is below twice the largest |low| or |high|
    spread = max(1.0, 2 * max(map(abs, lows + highs), default=0.0))
    inputs, bounds = [], []
    for u in us:
        # each coefficient is converted once and each term keeps only its
        # nonzero (axis, exponent) pairs, in axis order
        terms = [([(axis, e) for axis, e in enumerate(unpack(key, len(u.vars))) if e],
                  complex(*_c((Fraction(re, u.den), Fraction(im, u.den)))))
                 for key, (re, im) in u.num.items()]
        if all(coeff.imag == 0.0 for _, coeff in terms):
            inputs.append(([(powers, coeff.real) for powers, coeff in terms], 0.0))
        else:
            inputs.append((terms, 0j))
        # the chunk bound's table, each term's powers and |re| + |im|, with
        # its slack and its floor
        table = [(powers, abs(coeff.real) + abs(coeff.imag)) for powers, coeff in terms]
        N = len(table)
        K = max((sum(e for _, e in powers) for powers, _ in table), default=0)
        W = sum(c for _, c in table) * spread ** K
        bounds.append((table, 1.0 + (N + K + 8) * 2.0 ** -40, (N + K) * 2.0 ** -1000 * (1 + W)))
    used = sorted({axis for terms, _ in inputs for powers, _ in terms for axis, _ in powers})
    keys = {key for table, _, _ in bounds for powers, _ in table for key in powers}
    best = [0.0] * len(inputs)
    for size, reach, columns in _point_chunks(lows, highs, used, samples, seed):
        live = range(len(inputs))
        if reach is not None:
            # the largest |x ** e| on the chunk, per (axis, exponent)
            top = {(axis, e): reach[axis] ** e for axis, e in keys}
            live = [i for i, (table, slack, floor) in enumerate(bounds)
                    if not sum(c * math.prod(map(top.__getitem__, powers)) for powers, c in table)
                    * slack + floor < best[i]]
            if not live:
                continue
        columns = columns()
        powered = {}
        for i in live:
            terms, zero = inputs[i]
            total = repeat(zero, size)
            for powers, coeff in terms:
                # the product from 1.0 over the term's axes in axis order;
                # the first factor is the column itself, as 1.0 * x is x
                m = repeat(1.0, size)
                for k, (axis, e) in enumerate(powers):
                    column = powered.get((axis, e))
                    if column is None:
                        column = powered[axis, e] = list(map(pow, columns[axis], repeat(e)))
                    m = map(mul, m, column) if k else column
                total = list(map(add, total, map(mul, repeat(coeff), m)))
            # max replaces only on a greater value, so a NaN is skipped
            best[i] = max(chain((best[i],), map(abs, total)))
    return best


def cln_experiment(us: Sequence[Poly], K: Region, L: Region,
                   frame: TangentFrame) -> dict:
    """Mass of a wedge power against the cutoff of K, evaluated three ways.

    The cutoff-weighted mass is integrated directly, after moving one
    lowered operator onto the cutoff, and after moving both, against the
    bare first input; the three exact masses must be equal and not all 0
    (a zero mass checks nothing).  Also reports the plain mass over the
    inner region and its ratio to the product of sampled sup norms, which
    one call of :func:`sup_norm_on_grid` gives for all inputs on one draw
    of points.
    """
    frame.require_right_type()
    if not K.contains(L):
        raise ValueError("inner region must sit inside the outer region")
    chi = CutoffJet.bump(frame.vars)
    p = len(us)
    n = frame.n
    if not 1 <= p <= n:
        raise ValueError("need between 1 and n inputs")

    rest = _triangles_after_first(us, frame)
    beta_pow = ExtForm.from_scalar(frame.dim, Poly.const(frame.vars, 1))
    for _ in range(n - p):
        beta_pow = beta_pow.wedge(beta_form(frame))
    rest_beta = rest.wedge(beta_pow)

    T = triangle(us[0], frame).wedge(rest_beta)
    g = top_coefficient(T)

    # the lowered operators moved onto the cutoff: Z_a^0 chi, and the
    # components (a < b) of the degree-2 operator on chi
    z0 = [chi.apply_op(frame.Z_lower[a][0]) for a in range(frame.dim)]
    tri_chi = {(a, b): z0[a].apply_op(frame.Z_lower[b][1]) - z0[b].apply_op(frame.Z_lower[a][1])
               for a, b in combinations(range(frame.dim), 2)}
    d1u = frak_d(1, ExtForm.from_scalar(frame.dim, us[0]), frame, raised=False)
    mid_pairs = _wedge_complement_pairs({(a,): jet for a, jet in enumerate(z0)},
                                        d1u.wedge(rest_beta))
    ibp_pairs = _wedge_complement_pairs(tri_chi, rest_beta)
    mass_direct, middle, mass_ibp = integrate_jets(
        K.lows, K.highs, [[(chi, g)], mid_pairs, [(jet, us[0] * poly) for jet, poly in ibp_pairs]])
    mass_middle = (-middle[0], -middle[1])

    mass_inner = integrate_top(T, L)
    gap = max(_abs(tuple(map(sub, mass_direct, mass_ibp))),
              _abs(tuple(map(sub, mass_direct, mass_middle))))
    report = {
        "identity": "cutoff-mass-two-evaluations",
        "params": {"p": p, "n": n},
        "pass": mass_direct == mass_middle == mass_ibp and any(mass_direct),
        "mass_direct": _c(mass_direct),
        "mass_middle": _c(mass_middle),
        "mass_ibp": _c(mass_ibp),
        "agreement": gap / max(_abs(mass_direct), _abs(mass_middle), _abs(mass_ibp))
        if gap else 0.0,
        "mass_inner": _c(mass_inner),
    }
    # sampled last: the exact values above have been checked for float range
    report["sup_norms"] = sup_norm_on_grid(us, K)
    prod_sup = math.prod(report["sup_norms"])
    report["empirical_C"] = _abs(mass_inner) / prod_sup if prod_sup > 0 else None
    return report


def approximation_masses(q: Poly, frame: TangentFrame, L: Region, steps: int) -> list:
    """Exact real parts of the inner-region masses of u_j = q + (1/j) sum x^2, j = 1..steps.

    tri u_j = tri q + (tri sum x^2) / j and 2-forms commute, so the mass is
    A + 2B/j + C/j^2 with A, B and C the masses of tri q ^ tri q,
    tri q ^ tri sum x^2 and tri sum x^2 ^ tri sum x^2: three wedges and three
    box integrals for any number of steps.
    """
    sq = Poly.zero(frame.vars)
    for i in range(4 * frame.n):
        sq = sq + Poly.monomial(frame.vars,
                                tuple(2 if t == i else 0 for t in range(len(frame.vars))), 1)
    tri_q = triangle(q, frame)
    tri_sq = triangle(sq, frame)
    A, B, C = (integrate_top(F, L)[0]
               for F in (tri_q.wedge(tri_q), tri_q.wedge(tri_sq), tri_sq.wedge(tri_sq)))
    return [A + 2 * B / j + C / (j * j) for j in range(1, steps + 1)]


CONVERGENCE_TOL = Fraction(1, 10 ** 4)


def convergence_experiment(q: Poly, frame: TangentFrame, L: Region,
                           steps: int = 64) -> dict:
    """Masses of the squared operator along a smooth approximation family.

    u_j = q + (1/j) * sum x^2; the inner-region masses of the top wedge
    power form a sequence whose exact successive differences must decay
    monotonically below ``CONVERGENCE_TOL`` within ``steps`` steps,
    demonstrating a well-defined limit measure.  A short run can honestly
    fail the tolerance while still being monotone.
    """
    frame.require_right_type()
    if frame.n != 2:
        raise ValueError("the squared-power experiment is set up for n = 2")
    if steps < 2:
        raise ValueError("the convergence experiment needs at least 2 steps")
    masses = approximation_masses(q, frame, L, steps)
    diffs = [abs(a - b) for a, b in zip(masses, masses[1:])]
    monotone = all(d >= e for d, e in zip(diffs, diffs[1:]))
    return {
        "identity": "approximation-mass-convergence",
        "params": {"steps": steps, "tol": _float(CONVERGENCE_TOL)},
        "pass": monotone and diffs[-1] < CONVERGENCE_TOL,
        "masses": [_float(m) for m in masses[:8]] + (["..."] if steps > 8 else []),
        "final_difference": _float(diffs[-1]),
        "monotone": monotone,
    }
