"""Batch verification suites over seeded random data.

Each suite returns its record, a Report, fully determined by its
configuration (including the master seed), so repeated runs are
byte-identical.
"""

from __future__ import annotations

from .boundary import (PRIMED_PAIRS, BoundaryField, BoundarySpec, TangentFrame,
                       anticommutation_defect, boundary_D, subcomplex_D)
from .flat import ComplexSpec, flat_D, flat_D_tuple
from .groups import GroupSpec
from .randgen import SectionGenerator
from .reports import Report
from .spinor import tuple_to_slots


def _level_loop(identity: str, params: dict, seed: int, levels: int, passes) -> Report:
    """Check ``passes(gen.spawn(j * 1000 + t), j)`` on every level j and trial t, level-major.

    ``params`` is the report's parameter record: its ``trials`` drive the loop,
    and its ``degree`` is the generator's, so every section ``passes`` draws has it.
    """
    gen = SectionGenerator(seed, degree=params["degree"])
    failures = [{"j": j, "trial": t} for j in range(levels) for t in range(params["trials"])
                if not passes(gen.spawn(j * 1000 + t), j)]
    return Report({"identity": identity, "params": params, "seed": seed, "pass": not failures,
                   "residual": "0" if not failures else "nonzero", "failures": failures})


def flat_composition_suite(n: int, k: int, trials: int, seed: int,
                           degree: int = 3) -> Report:
    """Consecutive operators compose to zero on random sections, exactly."""
    spec = ComplexSpec(n, k)

    def passes(g, j):
        fld = g.slot_field(spec.shape(j), spec.form_dim, spec.vars)
        return flat_D(spec, j + 1, flat_D(spec, j, fld)).is_zero()

    return _level_loop("flat-composition", {"n": n, "k": k, "trials": trials, "degree": degree},
                       seed, spec.top_level - 1, passes)


def flat_tuple_equivalence_suite(n: int, k: int, trials: int, seed: int,
                                 degree: int = 3) -> Report:
    """Slot and tuple realizations agree through the basis isomorphisms."""
    spec = ComplexSpec(n, k)

    def passes(g, j):
        tup = g.tuple_field(spec.shape(j), spec.form_dim, spec.vars)
        via_tuple = flat_D_tuple(spec, j, tup)
        via_slots = flat_D(spec, j, tuple_to_slots(tup, j > spec.k))
        return tuple_to_slots(via_tuple, j + 1 > spec.k) == via_slots

    return _level_loop("flat-tuple-equivalence",
                       {"n": n, "k": k, "trials": trials, "degree": degree}, seed,
                       spec.top_level, passes)


def random_boundary_field(gen: SectionGenerator, spec: BoundarySpec,
                          frame: TangentFrame, j: int) -> BoundaryField:
    """Level-j random slot fields at ``gen``'s degree, lead then companion (none at level 0)."""
    def draw(shape):
        return gen.slot_field(shape, spec.form_dim, frame.vars)

    cshape = spec.companion_shape(j)
    return BoundaryField(spec, j, draw(spec.shape(j)), None if cshape is None else draw(cshape))


def boundary_composition_suite(group: GroupSpec, k: int, trials: int, seed: int,
                               degree: int = 2,
                               frame: TangentFrame | None = None) -> Report:
    """Boundary operator composition law on random pair fields, exactly."""
    frame = frame or TangentFrame(group)
    spec = BoundarySpec(group.n, k)

    def passes(g, j):
        fld = random_boundary_field(g, spec, frame, j)
        return boundary_D(frame, boundary_D(frame, fld)).is_zero()

    return _level_loop("boundary-composition",
                       {"n": group.n, "k": k, "trials": trials, "degree": degree,
                        "right_type": frame.right_type},
                       seed, spec.top_level - 1, passes)


def subcomplex_suite(group: GroupSpec, k: int, trials: int, seed: int,
                     degree: int = 2,
                     frame: TangentFrame | None = None) -> Report:
    """On right-type groups the projected leading operators compose to zero."""
    frame = frame or TangentFrame(group)
    frame.require_right_type()
    spec = BoundarySpec(group.n, k)

    def passes(g, j):
        lead = g.slot_field(spec.shape(j), spec.form_dim, frame.vars)
        return subcomplex_D(frame, spec, j + 1, subcomplex_D(frame, spec, j, lead)).is_zero()

    return _level_loop("subcomplex-composition",
                       {"n": group.n, "k": k, "trials": trials, "degree": degree},
                       seed, spec.top_level - 1, passes)


def anticommute_suite(group: GroupSpec, trials: int, seed: int,
                      frame: TangentFrame | None = None) -> Report:
    """The curvature-coupled anticommutation law on random forms, exactly.

    In general each symmetrized defect equals its curvature term; on
    right-type groups the defects vanish too (``plain_anticommutation``).
    The residual is the last difference that does not vanish.
    """
    frame = frame or TangentFrame(group)
    gen = SectionGenerator(seed, degree=2)
    identity_ok = plain_zero = True
    residual = "0"
    for t in range(trials):
        g = gen.spawn(t)
        f = g.form(frame.dim, g.rng.randint(0, max(0, frame.dim - 2)), frame.vars)
        for ap, bp in PRIMED_PAIRS:
            defect, rhs = anticommutation_defect(frame, f, ap, bp)
            diff = defect - rhs
            if not diff.is_zero():
                identity_ok = False
                residual = str(diff)
            plain_zero = plain_zero and defect.is_zero()
    return Report({"identity": "anticommutation-curvature",
                   "params": {"trials": trials, "degree": gen.degree}, "seed": seed,
                   "pass": identity_ok, "residual": residual,
                   "plain_anticommutation": plain_zero, "right_type": frame.right_type})

