"""Benchmark for the cfx command line.

    python3 bench/run.py --workload flat --seed 1 --seconds 8 --trace 0
    python3 bench/run.py --workload all            # every workload, one table each

One closed-loop client in one process and thread drives ``cfx.cli.main``
in-process, one item after another, in a fresh worker process per run.
Every item's output is checked by ``oracle.py``.  The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a separate traced run with ``--trace 1``.  Item times are
reported in reference seconds (see ``speed.py``); the raw seconds, per-item
digests, latencies and problems go to ``.bench_results/``.  The exit code is 1 when
any item fails the oracle, 2 when the cfx sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import oracle  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

PIN_SEED = 1
SETUP_REPEATS = 7
# A run that has not finished by then is killed, so that it ends within 180 s.
RUN_DEADLINE_S = 170
SETUP_CODE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import cfx.cli\n"
    "cfx.cli.build_parser()\n"
    "print(repr(time.perf_counter() - start))\n"
)


def _env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("CFX_MAX_DEGREE", None)
    return env


def measure_setup() -> list:
    """Seconds to import cfx.cli and build its parser, each in a fresh interpreter.

    The first interpreter also writes the bytecode cache and is not counted.
    These are raw seconds: import time is mostly unmarshalling and allocation,
    which the speed probe does not track.
    """
    runs = []
    for _ in range(SETUP_REPEATS + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=_env(),
                             capture_output=True, text=True, check=True, timeout=60)
        runs.append(float(out.stdout))
    return runs[1:]


def execute(workload: str, seed: int, items: list, traced: bool,
            timeout: float = RUN_DEADLINE_S) -> dict:
    """Run ``items`` once in a fresh worker process; return its results."""
    workdir = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        items_path, out_path = workdir / "items.json", workdir / "out.json"
        items_path.write_text(json.dumps(items), encoding="utf-8")
        cmd = [sys.executable, str(HERE / "worker.py"), str(items_path), str(out_path)]
        if traced:
            cmd.append("--trace")
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True,
                              timeout=max(1.0, timeout))
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}:\n"
                               f"{proc.stderr[-3000:]}")
        return json.loads(out_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()


def load_pins(workload: str, seed: int) -> dict:
    path = HERE / "pins" / f"{workload}.json"
    if seed != PIN_SEED or not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))["items"]


def check_records(items: list, records: list, pins: dict) -> list:
    """Oracle verdict, digest and latency of every item of one pass."""
    results = []
    for item, rec in zip(items, records):
        problems, dig = oracle.check(item, rec, pins.get(item["id"]))
        results.append({"id": item["id"], "argv": item["argv"], "exit": rec["exit"],
                        "latency_s": rec["latency_s"],
                        "ref_latency_s": speed.normalize(rec["latency_s"], rec["probe_s"]),
                        "digest": dig, "problems": problems})
    return results


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    rounds = workloads.rounds_for(workload, seconds)
    if trace:
        # the traced run covers the first third of the rounds: a traced
        # boundary-ma round takes 1.4 times as long as an untraced one
        rounds = max(1, rounds // 3)
    items = workloads.generate(workload, seed, rounds)
    setup = [] if trace else measure_setup()
    plain = execute(workload, seed, items, False, deadline - time.monotonic())
    traced = (execute(workload, seed, items, True, deadline - time.monotonic())
              if trace else None)

    pins = load_pins(workload, seed)
    results = check_records(items, plain["records"], pins)
    if traced is not None:
        # tracing must not change a single report
        traced_results = check_records(items, traced["records"], pins)
        for res, tres in zip(results, traced_results):
            res["problems"] += [f"traced: {p}" for p in tres["problems"]]
            if tres["digest"] != res["digest"]:
                res["problems"].append("traced report differs from the untraced one")
    attempted = len(items)
    failed = sum(bool(res["problems"]) for res in results)
    latencies = [res["ref_latency_s"] for res in results]
    out = {"workload": workload, "seed": seed, "seconds": seconds,
           "rounds": rounds,
           "pinned": sum(res["id"] in pins for res in results),
           "attempted": attempted, "failed": failed,
           "tail_percentile": metrics.tail_percentile(len(latencies)),
           "raw": {"setup_runs_s": setup, "loop_wall_s": plain["wall_s"],
                   "item_seconds": sum(res["latency_s"] for res in results)},
           "items": results}
    if traced is None:
        out["end_to_end"] = metrics.end_to_end(setup, latencies, plain["peak_rss_mb"],
                                               attempted, failed)
    else:
        traced_wall = sum(res["ref_latency_s"] for res in traced_results)
        out["per_layer"] = metrics.per_layer(traced["trace"], sum(latencies), traced_wall)
        out["trace_stats"] = traced["trace"]
    return out


def reported(res: dict) -> tuple:
    """(values, units) of the metrics a run reports: end-to-end or per-layer."""
    if "end_to_end" in res:
        return res["end_to_end"], metrics.END_TO_END_UNITS
    return res["per_layer"], metrics.per_layer_units()


def report_lines(res: dict) -> list:
    lines = [f"== {res['workload']}  seed={res['seed']} rounds={res['rounds']} "
             f"items={res['attempted']} failed={res['failed']} pinned={res['pinned']} "
             f"tail=p{res['tail_percentile']}"]
    values, units = reported(res)
    for name, value in values.items():
        lines.append(f"  {name:<44} {value:>14.6g} {units[name]}")
    for item in res["items"]:
        for problem in item["problems"]:
            lines.append(f"  FAIL {item['id']}: {problem}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=PIN_SEED)
    parser.add_argument("--seconds", type=float, default=8)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cfx" / "cli.py").is_file():
        print(f"error: no cfx sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results_dir = ROOT / ".bench_results"
    results_dir.mkdir(exist_ok=True)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        path = results_dir / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(res, indent=1), encoding="utf-8")
        for line in report_lines(res):
            print(line)
        print(f"  results: {path.relative_to(ROOT)}")
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
        values, units = reported(res)
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, value in values.items():
            summary["metrics"][prefix + metric] = {"value": value, "unit": units[metric]}
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
