"""Wedge-power operator and its integral experiments, exact up to the report.

On a right-type group the pair of tangential operators composes to a
closed 2-form for every scalar input; its wedge powers define the fully
nonlinear operator studied here.  Every integral is an exact box integral
from :mod:`cfx.quadrature`, an exact (re, im) pair of Fractions, and every
check decides by exact comparison of such pairs:
the Stokes residual is 0, the cutoff mass comes out equal three ways, the
approximation masses decay monotonically below an exact tolerance.  Values
become floats only where the report is written, each exact value rounded
once by :func:`_float`.  The sup norms are exact values too: each is the
coefficient bound of :func:`sup_bound`, which is at least sup |u| over the
box and equals it on every input ``cfx ma`` draws.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from itertools import combinations
from operator import sub

from .boundary import TangentFrame, frak_d
from .exterior import ExtForm, hat_component, index_mask, kaehler_like_sum, merge_sign
from .poly import Immutable, Poly, _set, support, unpack
from .quadrature import (CutoffJet, _moment_sum, integrate_jets, integrate_poly_box,
                         integrate_poly_faces)
from .rational import clear_denominators, exact_fraction


# -- region ------------------------------------------------------------------------------


class Region(Immutable):
    """Axis-aligned box in group coordinates; immutable."""

    def __init__(self, lows, highs):
        lows = tuple(map(exact_fraction, lows))
        highs = tuple(map(exact_fraction, highs))
        _set(self, "lows", lows)
        _set(self, "highs", highs)
        if len(lows) != len(highs):
            raise ValueError("box bounds have mismatched lengths")
        if any(h <= l for l, h in zip(lows, highs)):
            raise ValueError("region must have positive volume")
        # the report's values grow and shrink with powers of the bounds:
        # a bound outside the float range is refused before any exact work
        for x in lows + highs:
            _float(x)

    @classmethod
    def cube(cls, naxes: int, half_width) -> "Region":
        h = exact_fraction(half_width)
        return cls((-h,) * naxes, (h,) * naxes)

    @property
    def naxes(self) -> int:
        return len(self.lows)

    def contains(self, other: "Region") -> bool:
        return all(sl <= ol and oh <= sh for sl, ol, oh, sh in
                   zip(self.lows, other.lows, other.highs, self.highs))


# -- the degree-2 operator and its powers ------------------------------------------------


def triangle(u: Poly, frame: TangentFrame) -> ExtForm:
    """Closed 2-form from a scalar: :func:`triangle_form` on u.

    Requires a right-type frame: only there does the result anticommute out
    of every further operator, which all wedge identities rely on.
    """
    frame.require_right_type()
    return triangle_form(ExtForm.from_scalar(frame.dim, u), frame)


def triangle_form(f: ExtForm, frame: TangentFrame) -> ExtForm:
    """The lowered pair d_0 d_1 f, which is -d^1 d^0 f on every frame (d_0 = -d^1,
    d_1 = d^0); d^0 d^1 f equals it only on right-type frames.  No right-type gate."""
    return -frak_d(1, frak_d(0, f, frame), frame)


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
    e2 = -frak_d(1, frak_d(0, u1, frame).wedge(rest), frame)
    e3 = frak_d(0, frak_d(1, u1, frame).wedge(rest), frame)
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


# -- Stokes-type boundary formula -------------------------------------------------------


def stokes_check(h: Poly, T: ExtForm, region: Region, frame: TangentFrame,
                 aprime: int = 0) -> dict:
    """Integration-by-parts identity with the face term, by exact box integrals.

    volume(h * dT) + volume(dh ^ T) - faces(h T_a Z_a rho) must be exactly 0;
    the report also carries the rounded residual, absolute and relative.
    On the face x_axis = value with outward side +-1, Z_a^{a'} rho is the
    row's coefficient of d/dx_axis times the side, so each axis's flux is
    one polynomial and its two faces, high minus low, one moment sum
    (:func:`integrate_poly_faces`).
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
        flux = sum((ht * frame.Z_upper[a][aprime].coefficient(frame.vars[axis])
                    for a, ht in enumerate(h_t)), Poly.zero(frame.vars))
        if flux:
            faces = integrate_poly_faces(flux, region.lows, region.highs, axis)
            boundary = tuple(b + f for b, f in zip(boundary, faces))

    residual = tuple(a + b - c for a, b, c in zip(lhs, mid, boundary))
    absolute = _abs(residual)
    return {"identity": "boundary-parts-formula",
            "params": {"aprime": aprime, "dims": region.naxes},
            "pass": not any(residual),
            "lhs": _c(lhs), "interior": _c(mid), "boundary": _c(boundary),
            "absolute_residual": absolute,
            "relative_residual": absolute / max(_abs(lhs), _abs(mid), _abs(boundary), 1.0)}


# -- the report edge -------------------------------------------------------------------


_TOO_LARGE = "an exact value is outside the float range of the report; use a smaller box"


def _float(x: Fraction) -> float:
    """The one rounding of an exact value to a report float.

    A value outside the float range is an input error: one too large (from
    a very wide box), and a nonzero one that rounds to 0.0 (from a very
    narrow box), which the report could not tell from an exact 0.
    """
    try:
        value = float(x)
    except OverflowError:
        raise ValueError(_TOO_LARGE) from None
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


def _wedge_complement_weights(indices, other: ExtForm) -> list:
    """Pairs (idx, polynomial weight), idx from ``indices``, such that the top
    coefficient of (sum f_idx w^idx) ^ other is sum f_idx * weight for any
    coefficients f_idx; an idx whose complement in ``other`` is 0 has none."""
    pairs = []
    for idx in indices:
        rest = tuple(i for i in range(other.dim) if i not in idx)
        comp = other.component(rest)
        if comp:
            sign = merge_sign(index_mask(idx), index_mask(rest))
            pairs.append((idx, comp if sign > 0 else -comp))
    return pairs


def sup_bound(u: Poly, region: Region) -> float:
    """sum (|re| + |im|) prod M_a ** e over the terms of u, rounded once.

    M_a = max(|low_a|, |high_a|).  Each term's modulus is at most its
    (|re| + |im|) prod M_a ** e on the box, so the bound is at least
    sup |u| there.  It equals the sup when some corner with |x_a| = M_a on
    every axis gives every term the same sign: a ``psh_quadratic``, positive
    squares plus linear terms, takes the value of the bound at the corner
    x_a = sign(b_a) * h of a centred cube, b_a its linear coefficient.

    The sum is one int moment sum over den * prod s_a ** E_a, with
    M_a = r_a / s_a and E_a the axis's field of ``poly.support``: M_a ** e
    is the int r_a ** e * s_a ** (E_a - e) of the axis's row.
    """
    den, rows = u.den, []
    for l, h, top in zip(region.lows, region.highs, unpack(support(u.num), len(u.vars))):
        reach = max(abs(l), abs(h))
        r, s = reach.numerator, reach.denominator
        rows.append([r ** e * s ** (top - e) for e in range(top + 1)])
        den *= s ** top
    total, _ = _moment_sum({key: (abs(re) + abs(im), 0) for key, (re, im) in u.num.items()},
                           rows)
    return _float(Fraction(total, den))


def cln_experiment(us: Sequence[Poly], K: Region, L: Region,
                   frame: TangentFrame) -> dict:
    """Mass of a wedge power against the cutoff of K, evaluated three ways.

    The cutoff-weighted mass is integrated directly, after moving one
    operator of the pair onto the cutoff, and after moving both, against the
    bare first input; the three exact masses must be equal and not all 0
    (a zero mass checks nothing).  A component (a, b) of the degree-2
    operator on the cutoff is built only where the rest of the wedge power
    has a nonzero complement to it.  Also reports the plain mass over the
    inner region and its ratio to the product of the inputs' sup norms
    over K, each the exact :func:`sup_bound`, which is the sup itself on
    every input ``cfx ma`` draws.
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
        beta_pow = beta_pow.wedge(kaehler_like_sum(frame.dim, frame.vars))
    rest_beta = rest.wedge(beta_pow)

    T = triangle(us[0], frame).wedge(rest_beta)
    g = top_coefficient(T)

    # the pair -d^1 d^0 moved onto the cutoff: Z_a^1 chi against d^0 u, and
    # the components (a < b) of the degree-2 operator on chi that have a weight
    z1 = [chi.apply_op(frame.Z_upper[a][1]) for a in range(frame.dim)]
    d0u = frak_d(0, ExtForm.from_scalar(frame.dim, us[0]), frame)
    mid_pairs = [(z1[a], weight) for (a,), weight in
                 _wedge_complement_weights([(a,) for a in range(frame.dim)],
                                           d0u.wedge(rest_beta))]
    ibp_pairs = [(z1[b].apply_op(frame.Z_upper[a][0]) - z1[a].apply_op(frame.Z_upper[b][0]),
                  us[0] * weight) for (a, b), weight in
                 _wedge_complement_weights(combinations(range(frame.dim), 2), rest_beta)]
    mass_direct, mass_middle, mass_ibp = integrate_jets(
        K.lows, K.highs, [[(chi, g)], mid_pairs, ibp_pairs])

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
    report["sup_norms"] = [sup_bound(u, K) for u in us]
    prod_sup = math.prod(report["sup_norms"])
    report["empirical_C"] = _abs(mass_inner) / prod_sup if prod_sup > 0 else None
    return report


CONVERGENCE_TOL = Fraction(1, 10 ** 4)


def convergence_experiment(q: Poly, frame: TangentFrame, L: Region,
                           steps: int = 64) -> dict:
    """Masses of the squared operator along a smooth approximation family.

    u_j = q + (1/j) * sum x^2; the inner-region masses of the top wedge
    power form a sequence whose exact successive differences must decay
    monotonically below ``CONVERGENCE_TOL`` within ``steps`` steps,
    demonstrating a well-defined limit measure.  A short run can honestly
    fail the tolerance while still being monotone.

    tri u_j = tri q + (tri sum x^2) / j and 2-forms commute, so the mass is
    A + 2B/j + C/j^2 with A, B and C the masses of tri q ^ tri q,
    tri q ^ tri sum x^2 and tri sum x^2 ^ tri sum x^2: three wedges and
    three box integrals for any number of steps, and the rest is
    :func:`_convergence_report`.
    """
    frame.require_right_type()
    if frame.n != 2:
        raise ValueError("the squared-power experiment is set up for n = 2")
    if steps < 2:
        raise ValueError("the convergence experiment needs at least 2 steps")
    sq = Poly.zero(frame.vars)
    for i in range(4 * frame.n):
        sq = sq + Poly.monomial(frame.vars,
                                tuple(2 if t == i else 0 for t in range(len(frame.vars))), 1)
    tri_q = triangle(q, frame)
    tri_sq = triangle(sq, frame)
    A, B, C = (integrate_top(F, L)[0]
               for F in (tri_q.wedge(tri_q), tri_q.wedge(tri_sq), tri_sq.wedge(tri_sq)))
    return _convergence_report(A, B, C, steps)


def _convergence_report(A: Fraction, B: Fraction, C: Fraction, steps: int) -> dict:
    """The report on the masses m_j = A + 2B/j + C/j^2, j = 1..steps.

    Over D = lcm of the denominators, with b = DB and c = DC, the difference
    m_j - m_(j+1) is N_j / (D j^2 (j+1)^2), N_j = 2b j(j+1) + c(2j+1).  So
    the differences decay monotonically iff |N_j| (j+2)^2 >= |N_(j+1)| j^2
    for j = 1..steps-2, an int test at each step; only the reported masses
    and the last difference are Fractions.
    """
    D, (b, c) = clear_denominators((B, C))
    n = [abs(2 * b * j * (j + 1) + c * (2 * j + 1)) for j in range(1, steps)]
    monotone = all(n_j * (j + 2) ** 2 >= n_next * j * j
                   for j, n_j, n_next in zip(range(1, steps), n, n[1:]))
    last = Fraction(n[-1], D * (steps - 1) ** 2 * steps ** 2)
    return {
        "identity": "approximation-mass-convergence",
        "params": {"steps": steps, "tol": _float(CONVERGENCE_TOL)},
        "pass": monotone and last < CONVERGENCE_TOL,
        "masses": [_float(A + 2 * B / j + C / (j * j)) for j in range(1, min(steps, 8) + 1)]
        + (["..."] if steps > 8 else []),
        "final_difference": _float(last),
        "monotone": monotone,
    }
