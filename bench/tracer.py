"""Per-layer tracing of cfx from outside the package.

``Tracer.install`` wraps the public functions of every ``cfx`` module, plus
the methods named in ``METHODS``, and ``uninstall`` puts the originals back.
Modules import names from each other (``from .flat import check_exactness``
in ``cli``, ``verify``, ``ma`` and ``boundary``), so a wrapper is written to
every module global and class attribute that holds the original function
object, not only to the defining module.  Nothing is wrapped unless
``install`` is called.

Each wrapper records calls, inclusive time and self time (its span minus
the spans of wrapped functions it called).  ``fractions.Fraction`` is not
wrapped, so its time is charged to the ``rational`` method that called it.
"""

from __future__ import annotations

import inspect
import sys
import time
from dataclasses import dataclass, field

# Module-level functions are found by discovery; methods are listed here as
# (module, class, attribute, metric name).
METHODS = (
    ("rational", "ComplexRational", "__init__", "rational.new"),
    ("rational", "ComplexRational", "__mul__", "rational.mul"),
    ("rational", "ComplexRational", "__add__", "rational.add"),
    ("rational", "ComplexRational", "__truediv__", "rational.div"),
    ("poly", "Poly", "__init__", "poly.new"),
    ("poly", "Poly", "__add__", "poly.add"),
    ("poly", "Poly", "__mul__", "poly.mul"),
    ("poly", "Poly", "diff", "poly.diff"),
    ("exterior", "ExtForm", "__init__", "exterior.new"),
    ("exterior", "ExtForm", "wedge", "exterior.wedge"),
    ("operators", "FirstOrderOp", "apply", "operators.apply"),
    ("operators", "SecondOrderOp", "apply", "operators.apply"),
    ("groups", "GroupSpec", "__post_init__", "groups.GroupSpec"),
    ("boundary", "TangentFrame", "__init__", "boundary.TangentFrame"),
    ("quadrature", "SeparableSum", "integrate_box",
     "quadrature.SeparableSum.integrate_box"),
)

# Work counters, keyed by metric name: fn(stat, args, kwargs, result).


def _poly_mul(stat, args, kwargs, result):
    left, right = args[0], args[1]
    if hasattr(right, "terms"):
        stat.add("term_pairs", len(left.terms) * len(right.terms))
        stat.add("out_terms", len(result.terms))


def _rank_exact(stat, args, kwargs, result):
    matrix = args[0]
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    stat.add("cells", rows * cols)
    stat.add("rank", result)
    stat.add("full_rank", min(rows, cols))


def _condition_h(stat, args, kwargs, result):
    stat.add("grid_points", result.get("grid_points", 0))
    stat.add("early_exits", 0 if result["verdict"] == "sampled-true" else 1)


def _poly_terms(stat, args, kwargs, result):
    stat.add("terms", len(args[0].terms))


def _separable_terms(stat, args, kwargs, result):
    terms = args[0].terms
    stat.add("terms", len(terms))
    stat.add("distinct", len({tuple(sorted(factors.items())) for _, factors in terms}))


def _sup_norm_points(stat, args, kwargs, result):
    region = args[1]
    samples = args[2] if len(args) > 2 else kwargs.get("samples", 4096)
    corners = 1 << region.naxes if region.naxes <= 16 else 0
    stat.add("points", corners + 1 + samples)


def _dumps_bytes(stat, args, kwargs, result):
    stat.add("bytes", len(result))


COUNTERS = {
    "poly.mul": _poly_mul,
    "flat.rank_exact": _rank_exact,
    "groups.check_condition_H": _condition_h,
    "quadrature.integrate_poly_box": _poly_terms,
    "quadrature.SeparableSum.integrate_box": _separable_terms,
    "ma.sup_norm_on_grid": _sup_norm_points,
    "reports.dumps": _dumps_bytes,
}


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    counts: dict = field(default_factory=dict)

    def add(self, name: str, value) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


def _cfx_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if (name == "cfx" or name.startswith("cfx.")) and mod is not None}


def discover() -> dict:
    """Map each traced function object to its metric name."""
    modules = _cfx_modules()
    targets = {}
    for modname, mod in modules.items():
        if modname == "cfx":
            continue
        short = modname.split(".", 1)[1]
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == modname):
                targets[obj] = f"{short}.{name}"
    for short, cls_name, attr, metric in METHODS:
        mod = modules.get(f"cfx.{short}")
        cls = getattr(mod, cls_name, None)
        fn = vars(cls).get(attr) if cls is not None else None
        if inspect.isfunction(fn):
            targets[fn] = metric
    return targets


def binding_sites(originals) -> list:
    """Every (namespace owner, attribute) that holds one of ``originals``."""
    wanted = {id(fn) for fn in originals}
    sites = []
    for mod in _cfx_modules().values():
        for name, obj in list(vars(mod).items()):
            if id(obj) in wanted:
                sites.append((mod, name, obj))
            elif inspect.isclass(obj) and obj.__module__.startswith("cfx"):
                for attr, value in list(vars(obj).items()):
                    if id(value) in wanted:
                        sites.append((obj, attr, value))
    # a class re-exported by several modules is visited once per module
    unique = {(id(owner), name): (owner, name, obj) for owner, name, obj in sites}
    return list(unique.values())


class Tracer:
    """Wrap, record and restore.  One instance per traced run."""

    def __init__(self):
        self.stats: dict = {}
        self._stack: list = []
        self._installed: list = []

    def _wrap(self, fn, metric: str):
        stat = self.stats.setdefault(metric, Stat())
        counter = COUNTERS.get(metric)
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                child = stack.pop()
                stat.calls += 1
                stat.self_s += span - child
                stat.total_s += span
                if stack:
                    stack[-1] += span
            if counter is not None:
                counter(stat, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        targets = discover()
        wrappers = {id(fn): self._wrap(fn, metric) for fn, metric in targets.items()}
        for owner, name, original in binding_sites(targets):
            setattr(owner, name, wrappers[id(original)])
            self._installed.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()

    def snapshot(self) -> dict:
        return {metric: {"calls": s.calls, "self_s": s.self_s, "total_s": s.total_s,
                         **s.counts}
                for metric, s in sorted(self.stats.items())}
