"""Wedge-power operator, positivity sampling and integral experiments.

On a right-type group the pair of lowered tangential operators composes to
a closed 2-form for every scalar input; its wedge powers define the fully
nonlinear operator studied here.  Integration over boxes uses the exact
separable machinery from :mod:`cfx.quadrature`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence

from .boundary import TangentFrame, frak_d
from .exterior import ExtForm, kaehler_like_sum, merge_sign, top_form
from .poly import Poly
from .quadrature import SeparableSum, integrate_poly_face
from .rational import ComplexRational
from .randgen import SectionGenerator

log = logging.getLogger(__name__)


# -- region ------------------------------------------------------------------------------


@dataclass(frozen=True)
class Region:
    """Axis-aligned box in group coordinates."""

    lows: tuple
    highs: tuple

    def __post_init__(self):
        lows = tuple(Fraction(x) for x in self.lows)
        highs = tuple(Fraction(x) for x in self.highs)
        object.__setattr__(self, "lows", lows)
        object.__setattr__(self, "highs", highs)
        if len(lows) != len(highs):
            raise ValueError("box bounds have mismatched lengths")
        if any(h <= l for l, h in zip(lows, highs)):
            raise ValueError("region must have positive volume")

    @classmethod
    def cube(cls, naxes: int, half_width) -> "Region":
        h = Fraction(half_width)
        return cls((-h,) * naxes, (h,) * naxes)

    @property
    def naxes(self) -> int:
        return len(self.lows)

    def volume(self) -> Fraction:
        v = Fraction(1)
        for l, h in zip(self.lows, self.highs):
            v *= h - l
        return v

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


def key_identity_check(us: Sequence[Poly], frame: TangentFrame) -> dict:
    """Four independent evaluations of the top wedge power must agree exactly.

    direct product / pulled through the first factor once / with the other
    orientation / applied to the scalar-weighted rest.
    """
    frame.require_right_type()
    if len(us) != frame.n:
        raise ValueError(f"need exactly n={frame.n} inputs for the top power")
    rest = ExtForm.from_scalar(frame.dim, Poly.const(frame.vars, 1))
    for u in us[1:]:
        rest = rest.wedge(triangle(u, frame))
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


def integrate_top(F: ExtForm, region: Region) -> complex:
    """Integral of a top-degree form over a region via the volume functional."""
    return complex(_exact_top_integral(F, region))


def _exact_top_integral(F: ExtForm, region: Region) -> ComplexRational:
    coeff = top_coefficient(F)
    if len(F.vars) != region.naxes:
        raise ValueError("region does not match the coefficient variable table")
    return SeparableSum.product(region.naxes, {}).integrate_box(
        region.lows, region.highs, coeff)


def beta_form(frame: TangentFrame) -> ExtForm:
    return kaehler_like_sum(frame.dim, frame.vars)


def volume_form(frame: TangentFrame) -> ExtForm:
    return top_form(frame.dim, frame.vars)


# -- Stokes-type boundary formula -------------------------------------------------------


def _z_rho_on_face(frame: TangentFrame, row: int, aprime: int, axis: int,
                   sign: int) -> Poly:
    """Z_row^{aprime} applied to the face defining function (unit normal)."""
    out = Poly.zero(frame.vars)
    op = frame.Z_upper[row][aprime]
    name = frame.vars[axis]
    coeff = op.coeffs.get(name)
    if coeff is not None:
        out = out + coeff.scale(sign)
    return out


def stokes_check(h: Poly, T: ExtForm, region: Region, frame: TangentFrame,
                 aprime: int = 0) -> dict:
    """Integration-by-parts identity with the face term, by exact box integrals.

    volume(h * dT) + volume(dh ^ T) - faces(h T_a Z_a rho) must vanish; the
    report carries the relative residual.
    """
    from .exterior import hat_component
    if T.degree != frame.dim - 1:
        raise ValueError("the boundary formula needs a form of degree dim-1")
    lhs_form = frak_d(aprime, T, frame)
    lhs = integrate_top(ExtForm.from_scalar(frame.dim, h).wedge(lhs_form), region)
    dh_T = frak_d(aprime, ExtForm.from_scalar(frame.dim, h), frame).wedge(T)
    mid = integrate_top(dh_T, region)

    boundary = 0j
    for axis in range(region.naxes):
        for side, value in ((1, region.highs[axis]), (-1, region.lows[axis])):
            total = Poly.zero(frame.vars)
            for a in range(frame.dim):
                t_a = hat_component(T, a)
                if t_a.is_zero():
                    continue
                z_rho = _z_rho_on_face(frame, a, aprime, axis, side)
                if z_rho.is_zero():
                    continue
                total = total + h * t_a * z_rho
            if total.is_zero():
                continue
            boundary += integrate_poly_face(total, region.lows, region.highs,
                                            axis, value)

    residual = lhs + mid - boundary
    # relative residual with a unit floor: when every term vanishes the
    # pure ratio would compare roundoff against roundoff
    scale = max(abs(lhs), abs(mid), abs(boundary), 1.0)
    rel = abs(residual) / scale
    return {"identity": "boundary-parts-formula",
            "params": {"aprime": aprime, "dims": region.naxes},
            "pass": rel <= 1e-9,
            "lhs": _c(lhs), "interior": _c(mid), "boundary": _c(boundary),
            "absolute_residual": abs(residual),
            "relative_residual": rel}


def _c(z: complex):
    return [z.real, z.imag]


# -- positivity --------------------------------------------------------------------------


def quaternion_tau_row(q) -> list:
    """2x2 complex block of one quaternion under the standard embedding."""
    a1, a2, a3, a4 = (Fraction(x) for x in q)
    return [
        [ComplexRational(a1, a2), ComplexRational(-a3, -a4)],
        [ComplexRational(a3, -a4), ComplexRational(a1, -a2)],
    ]


def elementary_positive_form(maps: Sequence[Sequence], dim: int, variables) -> ExtForm:
    """Wedge of pulled-back pair forms for quaternion-linear maps to H.

    Each map is a row of n quaternions; its 2 x 2n matrix pulls the two
    basis covectors back to 1-forms whose wedge is an elementary strongly
    positive 2-form.
    """
    out = ExtForm.from_scalar(dim, Poly.const(variables, 1))
    for row in maps:
        blocks = [quaternion_tau_row(q) for q in row]
        lines = []
        for r in (0, 1):
            comps = {}
            for l, blk in enumerate(blocks):
                for c in (0, 1):
                    val = blk[r][c]
                    if not val.is_zero():
                        comps[(2 * l + c,)] = Poly.const(variables, val)
            lines.append(ExtForm(dim, 1, variables, comps))
        out = out.wedge(lines[0]).wedge(lines[1])
    return out


def positivity_check(F: ExtForm, samples: int, seed: int = 11) -> dict:
    """Sampled positivity of a constant-coefficient even-degree form.

    Wedges F with random elementary strongly positive complements and
    inspects the exact top coefficient: any negative (or non-real) value is
    a witness; otherwise the verdict is positive-on-samples only.
    """
    if F.degree % 2:
        raise ValueError("positivity applies to even-degree forms")
    for coeff in F.comps.values():
        if coeff.total_degree() > 0:
            raise ValueError("positivity sampling needs constant coefficients")
    n = F.dim // 2
    p = F.degree // 2
    need = n - p
    gen = SectionGenerator(seed)
    witnesses = []
    checked = 0
    while checked < samples:
        maps = [[gen.quaternion() for _ in range(n)] for _ in range(need)]
        eta = elementary_positive_form(maps, F.dim, F.vars)
        if need and eta.is_zero():
            continue
        checked += 1
        wedge_result = F.wedge(eta)
        value = wedge_result.component(tuple(range(F.dim))).constant_term()
        if not value.is_real() or value.re < 0:
            witnesses.append({"maps": [[list(map(str, q)) for q in row] for row in maps],
                              "value": value.to_json()})
    verdict = "positive-on-samples" if not witnesses else "not-positive"
    return {"verdict": verdict, "samples": checked, "seed": seed,
            "witnesses": witnesses[:3],
            "note": "sampled cone check, not a membership proof"}


# -- factored cutoff ------------------------------------------------------------------------


def bump_for_region(region: Region) -> SeparableSum:
    """prod_axis (1 - ((x-c)/r)^2)^2: vanishes to second order on every face.

    With c - r = l and c + r = h the factor is ((x - l)(h - x))^2 / r^4, and
    (x - l)(h - x) = -x^2 + s x - p for s = l + h, p = l h.
    """
    factors = {}
    for axis, (l, h) in enumerate(zip(region.lows, region.highs)):
        s, p = l + h, l * h
        r4 = ((h - l) / 2) ** 4
        factors[axis] = tuple(c / r4 for c in (p * p, -2 * p * s, s * s + 2 * p, -2 * s, 1))
    return SeparableSum.product(region.naxes, factors)


def _axis_of(frame: TangentFrame) -> dict:
    return {name: i for i, name in enumerate(frame.vars)}


def separable_triangle(chi: SeparableSum, frame: TangentFrame) -> Dict[tuple, SeparableSum]:
    """Components (a < b) of the degree-2 operator on a factored scalar."""
    axis_of = _axis_of(frame)
    z0 = [chi.apply_op(frame.Z_lower[a][0], axis_of) for a in range(frame.dim)]
    out = {}
    for a in range(frame.dim):
        for b in range(a + 1, frame.dim):
            pos = z0[a].apply_op(frame.Z_lower[b][1], axis_of)
            neg = z0[b].apply_op(frame.Z_lower[a][1], axis_of)
            out[(a, b)] = pos - neg
    return out


def separable_first(chi: SeparableSum, frame: TangentFrame, aprime: int) -> Dict[int, SeparableSum]:
    axis_of = _axis_of(frame)
    return {a: chi.apply_op(frame.Z_lower[a][aprime], axis_of) for a in range(frame.dim)}


def _wedge_complement_pairs(parts: dict, other: ExtForm):
    """Pairs (separable coefficient, polynomial weight) whose products sum to
    the top coefficient of (sum parts_idx w^idx) ^ other."""
    dim = other.dim
    pairs = []
    for idx, sep in parts.items():
        idx = idx if isinstance(idx, tuple) else (idx,)
        rest = tuple(i for i in range(dim) if i not in idx)
        comp = other.component(rest)
        if comp.is_zero():
            continue
        merged = merge_sign(idx, rest)
        if merged is None:
            continue
        sign, _ = merged
        pairs.append((sep.scale(sign), comp))
    return pairs


def sup_norm_on_grid(u: Poly, region: Region, samples: int = 4096,
                     seed: int = 2) -> float:
    """Sampled sup of |u| over the region: all corners plus seeded interior points.

    A sampled estimate (documented as such in reports); exact polynomial
    sup over a box is a separate optimization problem.
    """
    import random as _random
    rng = _random.Random(seed)
    naxes = region.naxes
    lows = [float(x) for x in region.lows]
    highs = [float(x) for x in region.highs]
    spans = [(l, h - l) for l, h in zip(lows, highs)]
    best = 0.0
    # float evaluation term by term; each coefficient is converted once and
    # each term keeps only its nonzero (axis, exponent) pairs, in axis order
    terms = [([(axis, e) for axis, e in enumerate(expo) if e], complex(coeff))
             for expo, coeff in u.terms.items()]

    def visit(point):
        nonlocal best
        total = 0j
        for powers, coeff in terms:
            m = 1.0
            for axis, e in powers:
                m *= point[axis] ** e
            total += coeff * m
        val = abs(total)
        if val > best:
            best = val

    if naxes <= 16:
        # a point's value reads only the axes some term uses, so corners that
        # differ elsewhere give the same float: one corner per choice on those
        used = sorted({axis for powers, _ in terms for axis, _ in powers})
        for mask in range(1 << len(used)):
            point = list(lows)
            for bit, axis in enumerate(used):
                if (mask >> bit) & 1:
                    point[axis] = highs[axis]
            visit(point)
    visit([(l + h) / 2 for l, h in zip(lows, highs)])
    draw = rng.random
    for _ in range(samples):
        visit([l + span * draw() for l, span in spans])
    return best


def cln_experiment(us: Sequence[Poly], K: Region, L: Region,
                   frame: TangentFrame, chi: Optional[SeparableSum] = None) -> dict:
    """Mass of a wedge power against a cutoff, evaluated two independent ways.

    The cutoff-weighted mass is integrated directly and, after moving both
    lowered operators onto the cutoff, against the bare first input; the two
    numbers must agree up to float roundoff.  Also reports the plain mass
    over the inner region and its ratio to the product of sampled sup norms.
    """
    frame.require_right_type()
    if not K.contains(L):
        raise ValueError("inner region must sit inside the outer region")
    if chi is None:
        chi = bump_for_region(K)
    p = len(us)
    n = frame.n
    if not 1 <= p <= n:
        raise ValueError("need between 1 and n inputs")

    rest = ExtForm.from_scalar(frame.dim, Poly.const(frame.vars, 1))
    for u in us[1:]:
        rest = rest.wedge(triangle(u, frame))
    beta_pow = ExtForm.from_scalar(frame.dim, Poly.const(frame.vars, 1))
    for _ in range(n - p):
        beta_pow = beta_pow.wedge(beta_form(frame))
    rest_beta = rest.wedge(beta_pow)

    T = triangle(us[0], frame).wedge(rest_beta)
    g = top_coefficient(T)

    mass_direct = complex(chi.integrate_box(K.lows, K.highs, g))

    d1u = frak_d(1, ExtForm.from_scalar(frame.dim, us[0]), frame, raised=False)
    w_mid = d1u.wedge(rest_beta)
    d0chi = separable_first(chi, frame, 0)
    mid_pairs = _wedge_complement_pairs(d0chi, w_mid)
    mass_middle = -sum((complex(sep.integrate_box(K.lows, K.highs, poly))
                        for sep, poly in mid_pairs), 0j)

    tri_chi = separable_triangle(chi, frame)
    ibp_pairs = _wedge_complement_pairs(tri_chi, rest_beta)
    mass_ibp = sum((complex(sep.integrate_box(K.lows, K.highs, us[0] * poly))
                    for sep, poly in ibp_pairs), 0j)

    mass_inner = integrate_top(T, L)
    sups = [sup_norm_on_grid(u, K) for u in us]
    prod_sup = 1.0
    for s in sups:
        prod_sup *= s
    scale = max(abs(mass_direct), abs(mass_ibp), 1e-30)
    agreement = max(abs(mass_direct - mass_ibp), abs(mass_direct - mass_middle)) / scale
    return {
        "identity": "cutoff-mass-two-evaluations",
        "params": {"p": p, "n": n},
        "pass": agreement <= 1e-6,
        "mass_direct": _c(mass_direct),
        "mass_middle": _c(mass_middle),
        "mass_ibp": _c(mass_ibp),
        "agreement": agreement,
        "mass_inner": _c(mass_inner),
        "sup_norms": sups,
        "empirical_C": abs(mass_inner) / prod_sup if prod_sup > 0 else None,
    }


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
    A, B, C = (_exact_top_integral(F, L).re
               for F in (tri_q.wedge(tri_q), tri_q.wedge(tri_sq), tri_sq.wedge(tri_sq)))
    return [A + 2 * B / j + C / (j * j) for j in range(1, steps + 1)]


def convergence_experiment(q: Poly, frame: TangentFrame, L: Region,
                           steps: int = 64, tol: float = 1e-4) -> dict:
    """Masses of the squared operator along a smooth approximation family.

    u_j = q + (1/j) * sum x^2; the inner-region masses of the top wedge
    power form a sequence whose successive differences must decay
    monotonically below ``tol`` within ``steps`` steps, demonstrating a
    well-defined limit measure.  A short run can honestly fail the
    tolerance while still being monotone.
    """
    frame.require_right_type()
    if frame.n != 2:
        raise ValueError("the squared-power experiment is set up for n = 2")
    if steps < 2:
        raise ValueError("the convergence experiment needs at least 2 steps")
    masses = [float(m) for m in approximation_masses(q, frame, L, steps)]
    diffs = [abs(masses[i] - masses[i + 1]) for i in range(len(masses) - 1)]
    monotone = all(diffs[i] >= diffs[i + 1] - 1e-15 for i in range(len(diffs) - 1))
    return {
        "identity": "approximation-mass-convergence",
        "params": {"steps": steps, "tol": tol},
        "pass": monotone and diffs[-1] < tol,
        "masses": masses[:8] + ["..."] if steps > 8 else masses,
        "final_difference": diffs[-1],
        "monotone": monotone,
    }
