"""Host speed probe: a fixed pure-Python kernel, independent of cfx.

The CPU speed of a shared host drifts by tens of percent within minutes
(turbo and co-tenant load), and cfx's timings drift with it.  The probe runs
the same kind of work cfx does (Fraction arithmetic, tuple keys, dict
updates, small function calls) and is timed next to every measured
interval; ``normalize`` scales the interval by ``REFERENCE_PROBE_S / probe``,
which reports it in reference seconds: the time it would have taken at the
host speed the benchmark was defined on.
"""

from __future__ import annotations

import time
from fractions import Fraction

# The unit of reported times: about the median probe time on the host that
# defined the benchmark (Python 3.11, Xeon at 2.1 GHz).
REFERENCE_PROBE_S = 0.0015
REPEATS = 3


def _kernel() -> Fraction:
    acc = Fraction(0)
    table = {}
    for i in range(1, 120):
        a = Fraction(i % 7 - 3, i % 5 + 1)
        b = Fraction(i % 11 + 1, i % 3 + 2)
        term = a * b + a - b
        key = (i % 5, i % 3)
        table[key] = table.get(key, 0) + term
        acc += term
    return acc + sum(table.values())


def probe() -> float:
    """Seconds the kernel takes now: the fastest of a few repeats."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


def normalize(seconds: float, probe_s: float) -> float:
    return seconds * REFERENCE_PROBE_S / probe_s
