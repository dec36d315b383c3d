"""Metric definitions: end-to-end figures from a run, per-layer from a trace."""

from __future__ import annotations

import math
import statistics

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}

_CALLS = (
    "rational.new", "rational.mul", "rational.add", "rational.div",
    "poly.new", "poly.add", "poly.diff", "poly.mul",
    "exterior.wedge", "exterior.new",
    "spinor.symmetrize",
    "operators.apply",
    "flat.flat_D", "flat.rank_exact",
    "groups.GroupSpec", "groups.mat_mul", "groups.central_pairing_det",
    "boundary.TangentFrame", "boundary.boundary_D", "boundary.frak_d",
    "quadrature.integrate_poly_box", "quadrature.SeparableSum.integrate_box",
    "quadrature.uni_integral",
    "reports.dumps",
)
_SELF = (
    "exterior.wedge", "spinor.symmetrize", "operators.apply",
    "flat.flat_D", "flat.flat_D_tuple", "flat.symbol_at", "flat.rank_exact",
    "groups.GroupSpec", "groups.is_right_type", "groups.central_pairing_det",
    "groups.central_pairing_det_poly",
    "boundary.TangentFrame", "boundary.boundary_D", "boundary.frak_d",
    "boundary.bracket_identity",
    "quadrature.integrate_poly_box", "quadrature.SeparableSum.integrate_box",
    "ma.cln_experiment", "ma.integrate_top", "ma.convergence_experiment",
    "ma.stokes_check", "ma.sup_norm_on_grid",
    "reports.dumps",
)
_TOTAL = ("flat.check_exactness", "groups.classify")
# (metric, traced function, counter, unit)
_COUNTS = (
    ("poly.mul.term_pairs", "poly.mul", "term_pairs", "count"),
    ("poly.mul.out_terms", "poly.mul", "out_terms", "count"),
    ("flat.rank_exact.cells", "flat.rank_exact", "cells", "count"),
    ("groups.condition_H.grid_points", "groups.check_condition_H", "grid_points", "count"),
    ("quadrature.integrate_poly_box.terms", "quadrature.integrate_poly_box", "terms",
     "count"),
    ("quadrature.SeparableSum.integrate_box.terms",
     "quadrature.SeparableSum.integrate_box", "terms", "count"),
    ("ma.sup_norm_on_grid.points", "ma.sup_norm_on_grid", "points", "count"),
    ("reports.dumps.bytes", "reports.dumps", "bytes", "B"),
)
# (metric, traced function, numerator, denominator); "calls" is the call count
_RATIOS = (
    ("poly.mul.merge_ratio", "poly.mul", "out_terms", "term_pairs"),
    ("flat.rank_exact.rank_ratio", "flat.rank_exact", "rank", "full_rank"),
    ("groups.condition_H.exit_ratio", "groups.check_condition_H", "early_exits", "calls"),
    ("quadrature.SeparableSum.distinct_ratio", "quadrature.SeparableSum.integrate_box",
     "distinct", "terms"),
)
MODULES = ("rational", "poly", "exterior", "spinor", "operators", "flat", "groups",
           "boundary", "quadrature", "ma", "verify", "cli")
BENCH = ("bench.untraced_wall_s", "bench.traced_wall_s", "bench.trace_overhead_s")


def per_layer_units() -> dict:
    units = {}
    units.update({f"{name}.calls": "count" for name in _CALLS})
    units.update({f"{name}.self_s": "s" for name in _SELF})
    units.update({f"{name}.total_s": "s" for name in _TOTAL})
    units.update({metric: unit for metric, _, _, unit in _COUNTS})
    units.update({metric: "ratio" for metric, _, _, _ in _RATIOS})
    units.update({f"{module}.self_s": "s" for module in MODULES})
    units.update({name: "s" for name in BENCH})
    return units


def per_layer(stats: dict, untraced_wall: float, traced_wall: float) -> dict:
    """Per-layer values from a tracer snapshot; functions never called read 0."""
    def get(name, key):
        return stats.get(name, {}).get(key, 0)

    values = {}
    for name in _CALLS:
        values[f"{name}.calls"] = get(name, "calls")
    for name in _SELF:
        values[f"{name}.self_s"] = get(name, "self_s")
    for name in _TOTAL:
        values[f"{name}.total_s"] = get(name, "total_s")
    for metric, name, key, _ in _COUNTS:
        values[metric] = get(name, key)
    for metric, name, num, den in _RATIOS:
        d = get(name, den)
        values[metric] = get(name, num) / d if d else 0.0
    for module in MODULES:
        values[f"{module}.self_s"] = sum(s["self_s"] for name, s in stats.items()
                                         if name.startswith(module + "."))
    values["bench.untraced_wall_s"] = untraced_wall
    values["bench.traced_wall_s"] = traced_wall
    values["bench.trace_overhead_s"] = traced_wall - untraced_wall
    return values


def tail_percentile(count: int) -> int:
    """Highest whole percentile with at least ten of ``count`` samples beyond it."""
    if count <= 10:
        return 50
    return math.floor(100 * (1 - 10 / count))


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the regularized incomplete beta function (Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 300):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def _beta_cdf(a: float, b: float, x: float) -> float:
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return math.exp(log_front) * _beta_cf(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_cf(b, a, 1.0 - x) / b


def quantile(values: list, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    It weights every order statistic by a Beta((n+1)q, (n+1)(1-q)) mass, so
    the estimate does not jump when the target rank falls in a gap between
    item kinds of very different cost, as a single order statistic does.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cdf = [_beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], ordered))


def end_to_end(setup_runs: list, latencies: list, peak_rss_mb: float,
               attempted: int, failed: int) -> dict:
    tail = tail_percentile(len(latencies)) / 100
    return {
        "setup_s": statistics.median(setup_runs),
        "wall_s": sum(latencies),
        "item_p50_ms": 1000 * quantile(latencies, 0.5),
        "item_tail_ms": 1000 * quantile(latencies, tail),
        "peak_rss_mb": peak_rss_mb,
        "pass_ratio": (attempted - failed) / attempted,
    }
