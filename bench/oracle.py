"""Output oracle for benchmark items.

Every item gets two kinds of check:

* Semantic checks that hold for any seed: the report parses, its verdict
  fields say what the mathematics requires (exact identities hold, the
  classification routes agree, the right-type verdict matches the block
  conditions computed here), its parameters echo the command, and the exit
  code is the one the report implies.
* For the pinned seed, a comparison with the report recorded at the commit
  that defined the benchmark (``pins/<workload>.json``): same exit code,
  byte-identical non-float skeleton, and floats equal to relative 1e-9 with
  a unit floor, the tolerance of the acceptance gate's quadrature check.

A digest of each item's report is written to the results of every run, so
two commits can be compared item by item on any seed.
"""

from __future__ import annotations

import hashlib
import json
import math

FLOAT_RTOL = 1e-9
CONVERGENCE_TOL = 1e-4
CLN_TOL = 1e-6


def split_floats(value, floats: list):
    """Replace every float in a parsed report by a marker; collect the floats."""
    if isinstance(value, float):
        floats.append(value)
        return "<float>"
    if isinstance(value, list):
        return [split_floats(v, floats) for v in value]
    if isinstance(value, dict):
        return {k: split_floats(v, floats) for k, v in value.items()}
    return value


def digest(report) -> dict:
    floats: list = []
    skeleton = json.dumps(split_floats(report, floats), sort_keys=True,
                          separators=(",", ":"))
    return {"skeleton": hashlib.sha256(skeleton.encode()).hexdigest()[:24],
            "floats": floats}


def floats_match(a: list, b: list) -> bool:
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if math.isfinite(x) and math.isfinite(y):
            if abs(x - y) > FLOAT_RTOL * max(1.0, abs(x), abs(y)):
                return False
        elif not (x == y or (math.isnan(x) and math.isnan(y))):
            return False
    return True


def compare_pin(pin: dict, exit_code, dig: dict) -> list:
    problems = []
    if pin["exit"] != exit_code:
        problems.append(f"exit {exit_code} != pinned {pin['exit']}")
    if pin["skeleton"] != dig["skeleton"]:
        problems.append("report skeleton differs from the pinned report")
    elif not floats_match(pin["floats"], dig["floats"]):
        problems.append("report floats differ from the pinned report beyond 1e-9")
    return problems


# -- semantic checks, one per item kind ----------------------------------------------


def _check_flat(expect, report):
    problems = []
    names = [r.get("identity") for r in report]
    if names != ["flat-composition", "flat-tuple-equivalence"]:
        problems.append(f"unexpected suites {names}")
    for r in report:
        params = r.get("params", {})
        if (params.get("n"), params.get("k"), params.get("degree")) != (
                expect["n"], expect["k"], expect["degree"]):
            problems.append(f"{r.get('identity')}: params {params} do not echo the command")
        if r.get("pass") is not True or r.get("failures"):
            problems.append(f"{r.get('identity')}: composition identity failed")
    return problems, 0


def _level_dims(n: int, k: int) -> list:
    dims = []
    for j in range(2 * n + 2):
        sigma = k - j if j <= k else j - k - 1
        tau = j if j <= k else j + 1
        dims.append((sigma + 1) * math.comb(2 * (n + 1), tau))
    return dims


def _check_symbol(expect, report):
    n, k = expect["n"], expect["k"]
    problems = []
    if (report.get("n"), report.get("k")) != (n, k):
        problems.append("n, k do not echo the command")
    if report.get("dims") != _level_dims(n, k):
        problems.append(f"level dimensions {report.get('dims')} != {_level_dims(n, k)}")
    levels = report.get("levels", [])
    if len(levels) != 2 * n + 2 or not all(lv.get("exact") for lv in levels):
        problems.append("symbol sequence is not exact at every level")
    if report.get("all_exact") is not True or report.get("vectors_checked") != 1:
        problems.append("all_exact / vectors_checked wrong")
    return problems, 0


def _check_classify(expect, report):
    problems = []
    if report.get("n") != expect["n"]:
        problems.append("n does not echo the group file")
    if report.get("routes_agree") is not True:
        problems.append("the two right-type routes disagree")
    if report.get("right_type") is not expect["right_type"]:
        problems.append(f"right_type {report.get('right_type')} != block conditions "
                        f"{expect['right_type']}")
    if bool(report.get("block_certificates")) == expect["right_type"]:
        problems.append("block certificates contradict the right-type verdict")
    ch = report.get("condition_H", {})
    if ch.get("verdict") not in ("sampled-true", "false"):
        problems.append(f"condition_H verdict {ch.get('verdict')!r}")
    if ch.get("verdict") == "sampled-true":
        if ch.get("grid_points") != 386:
            problems.append("condition_H did not sample the whole resolution-4 grid")
        if expect["mode"] == "exact" and ch.get("det_degree") != 4 * expect["n"]:
            problems.append("det of a 4n x 4n linear pencil must have degree 4n")
    return problems, 0


def _check_boundary(expect, report):
    problems = []
    names = {r.get("identity") for r in report}
    wanted = {"boundary-composition", "anticommutation-curvature", "bracket-curvature"}
    if expect["right_type"]:
        wanted.add("second-order-diagonal")
    if names != wanted:
        problems.append(f"suites {sorted(names)} != {sorted(wanted)}")
    for r in report:
        if r.get("pass") is not True or r.get("residual") != "0":
            problems.append(f"{r.get('identity')}: exact identity failed")
    return problems, 0


def _check_ma(expect, report):
    problems = []
    n, power = expect["n"], expect["power"]
    if (report.get("n"), report.get("power")) != (n, power):
        problems.append("n, power do not echo the command")
    cln = report.get("cln", {})
    if cln.get("pass") is not True or not cln.get("agreement", 1.0) <= CLN_TOL:
        problems.append("cutoff mass: the two evaluations disagree")
    if report.get("stokes", {}).get("pass") is not True:
        problems.append("boundary formula residual too large")
    if (power == n) != ("key_identity" in report):
        problems.append("key identity present iff power == n")
    elif power == n and report["key_identity"].get("pass") is not True:
        problems.append("key pull-out identity failed")
    exit_code = 0
    if n == 2:
        conv = report.get("convergence")
        if conv is None:
            problems.append("convergence experiment missing at n = 2")
        else:
            # 64 steps may honestly miss the tolerance; the masses must still
            # decrease monotonically and the verdict must match its data.
            if conv.get("monotone") is not True:
                problems.append("approximation masses are not monotone")
            met = conv.get("final_difference", 1.0) < CONVERGENCE_TOL
            if conv.get("pass") is not (met and conv.get("monotone") is True):
                problems.append("convergence verdict contradicts its data")
            exit_code = 0 if conv.get("pass") else 1
    return problems, exit_code


_CHECKS = {"flat": _check_flat, "symbol": _check_symbol, "classify": _check_classify,
           "boundary": _check_boundary, "ma": _check_ma}


def check(item: dict, record: dict, pin: dict | None) -> tuple:
    """Return (problems, digest) for one executed item."""
    if record["error"] is not None:
        return [f"raised: {record['error'].strip().splitlines()[-1]}"], None
    try:
        report = json.loads(record["stdout"])
    except json.JSONDecodeError:
        return [f"output is not JSON (exit {record['exit']}): "
                f"{record['stderr'].strip()[-200:]}"], None
    dig = digest(report)
    problems, expected_exit = _CHECKS[item["expect"]["kind"]](item["expect"], report)
    if record["exit"] != expected_exit:
        problems.append(f"exit {record['exit']}, expected {expected_exit}")
    if pin is not None:
        problems += compare_pin(pin, record["exit"], dig)
    return problems, dig
