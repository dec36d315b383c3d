"""Record the reference reports the oracle compares against.

    python3 bench/pin.py

Runs every workload for seed 1 with enough rounds for any ``--seconds`` up
to 60, checks each item semantically, and writes ``pins/<workload>.json``:
per item the exit code, the digest of the report's non-float skeleton and
its floats.  Run it only at a commit whose reports are known to be right;
a change that keeps every report byte-identical leaves the pins valid.
"""

from __future__ import annotations

import json
import sys

import run
import workloads

PIN_SECONDS = 60


def main() -> int:
    status = 0
    for workload in workloads.WORKLOADS:
        rounds = workloads.rounds_for(workload, PIN_SECONDS)
        items = workloads.generate(workload, run.PIN_SEED, rounds)
        plain = run.execute(workload, run.PIN_SEED, items, traced=False)
        results = run.check_records(items, plain["records"], {})
        bad = [res for res in results if res["problems"]]
        for res in bad:
            print(f"{workload} {res['id']}: {res['problems']}", file=sys.stderr)
        if bad:
            status = 1
            continue
        pins = {res["id"]: {"exit": res["exit"], **res["digest"]} for res in results}
        path = run.HERE / "pins" / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps({"seed": run.PIN_SEED, "items": pins}, indent=0,
                                   sort_keys=True) + "\n", encoding="utf-8")
        print(f"{workload}: pinned {len(pins)} items in {path.relative_to(run.ROOT)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
