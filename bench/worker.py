"""Run one item list through ``cfx.cli.main`` in this process.

Started as a fresh process by ``run.py`` for every measured pass:

    python3 bench/worker.py ITEMS_JSON OUT_JSON [--trace]

Items run one after another, each waiting for the previous one (a closed
loop with one client).  Each item's stdout and stderr are captured in
memory; its exit code, latency and output go to OUT_JSON, and ``run.py``
checks them.  The host speed probe (``speed.py``) runs before the first
item and after every item, outside the timed interval; each record carries
the mean of the probes on either side of it.  With ``--trace`` the tracer
is installed before the first item and its per-function statistics are
written too; without it the tracer module is not even imported.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_items(items: list, workdir: Path) -> tuple:
    """Run every item once; return (records, loop wall seconds)."""
    from cfx.cli import main
    from speed import probe

    for item in items:
        for name, text in item["files"].items():
            (workdir / name).write_text(text, encoding="utf-8")
    records = []
    loop_start = time.perf_counter()
    before = probe()
    for item in items:
        argv = [arg.replace("{dir}", str(workdir)) for arg in item["argv"]]
        out, err = io.StringIO(), io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
            error = f"SystemExit({exc.code!r})"
        except Exception:
            code = None
            error = traceback.format_exc(limit=4)
        latency = time.perf_counter() - start
        after = probe()
        records.append({"id": item["id"], "latency_s": latency,
                        "probe_s": (before + after) / 2, "exit": code,
                        "error": error, "stdout": out.getvalue(),
                        "stderr": err.getvalue()[-2000:]})
        before = after
    return records, time.perf_counter() - loop_start


def main(argv: list) -> int:
    items_path, out_path = Path(argv[0]), Path(argv[1])
    traced = "--trace" in argv[2:]
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    items = json.loads(items_path.read_text(encoding="utf-8"))
    import cfx.cli  # noqa: F401  (import cost is set-up, measured by run.py)

    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        records, wall = run_items(items, items_path.parent)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"records": records, "wall_s": wall, "peak_rss_mb": peak_kib / 1024.0,
              "trace": tracer.snapshot() if tracer is not None else None}
    out_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
