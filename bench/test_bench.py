"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py

They check the benchmark, not cfx: generator determinism, that an
untraced run installs no wrapper, that the tracer reaches every binding
site, the oracle's tolerance rules, the bypass predictions in
``predictions.json`` on one round of every workload, and that
``BENCHMARK.json`` names exactly the metrics the code produces.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, binding_sites, discover  # noqa: E402
from worker import run_items  # noqa: E402

import cfx.cli  # noqa: E402,F401  (loads every cfx module the CLI uses)


def _argv_int(argv, flag):
    return int(argv[argv.index(flag) + 1]) if flag in argv else None


# -- generator ------------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    rounds = workloads.rounds_for(workload, 12)
    first = json.dumps(workloads.generate(workload, 7, rounds), sort_keys=True)
    again = json.dumps(workloads.generate(workload, 7, rounds), sort_keys=True)
    other = json.dumps(workloads.generate(workload, 8, rounds), sort_keys=True)
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_longer_run_extends_shorter_one(workload):
    short = workloads.generate(workload, 3, workloads.rounds_for(workload, 1))
    long = workloads.generate(workload, 3, workloads.rounds_for(workload, 120))
    assert len(long) > len(short)
    assert long[:len(short)] == short


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_stay_in_the_supported_domain(workload):
    for item in workloads.generate(workload, 11, workloads.rounds_for(workload, 20)):
        n, k = _argv_int(item["argv"], "--n"), _argv_int(item["argv"], "--k")
        for text in item["files"].values():
            n = json.loads(text)["n"]
        assert n is None or 1 <= n <= 3
        assert k is None or 0 <= k <= 2 * n
        assert 2 <= (_argv_int(item["argv"], "--degree") or 2) <= 4


def test_random_groups_are_symmetric_and_right_type_where_claimed():
    import random
    rng = random.Random(5)
    for n in (1, 2, 3):
        s = workloads.right_type_matrix(rng, n)
        assert s == [list(row) for row in zip(*s)]
        assert workloads.is_right_type(s)
        assert sum(x != 0 for row in s for x in row) > 0.8 * len(s) ** 2
        sym = workloads.symmetric_matrix(rng, n)
        assert sym == [list(row) for row in zip(*sym)]
        assert not workloads.is_right_type(sym)


# -- tracer ---------------------------------------------------------------------------


def _sites():
    return {(id(owner), name): obj for owner, name, obj in binding_sites(discover())}


def test_untraced_run_installs_no_wrapper(tmp_path):
    before = _sites()
    items = workloads.round_items("flat", 1, 0)[:2]
    records, _ = run_items(items, tmp_path)
    assert all(rec["exit"] == 0 for rec in records)
    after = _sites()
    assert after.keys() == before.keys()
    assert all(after[key] is obj for key, obj in before.items())
    assert not any(hasattr(obj, "__wrapped__") for obj in after.values())


def test_tracer_patches_every_binding_site_and_restores_them():
    import cfx.cli as cli
    import cfx.flat as flat
    import cfx.rational as rational
    original = flat.check_exactness
    radd = vars(rational.ComplexRational)["__radd__"]
    tracer = Tracer()
    tracer.install()
    try:
        assert flat.check_exactness.__wrapped__ is original
        assert cli.check_exactness is flat.check_exactness
        assert vars(rational.ComplexRational)["__radd__"].__wrapped__ is radd
        rational.cq(1) + rational.cq(2)
    finally:
        tracer.uninstall()
    assert flat.check_exactness is original and cli.check_exactness is original
    assert vars(rational.ComplexRational)["__radd__"] is radd
    assert tracer.snapshot()["rational.add"]["calls"] >= 1


def test_self_time_excludes_nested_wrapped_spans():
    from cfx.poly import Poly, x_vars
    p = Poly.var(x_vars(3), "x1") + Poly.var(x_vars(3), "x2")
    tracer = Tracer()
    tracer.install()
    try:
        for _ in range(20):
            p * p
    finally:
        tracer.uninstall()
    stats = tracer.snapshot()
    mul = stats["poly.mul"]
    assert mul["calls"] == 20
    assert mul["term_pairs"] == 20 * 4 and mul["out_terms"] == 20 * 3
    assert 0 < mul["self_s"] < mul["total_s"]


# -- oracle ---------------------------------------------------------------------------


def test_oracle_float_tolerance_and_skeleton():
    report = {"mass": 0.5, "tiny": 1e-17, "pass": True, "ranks": [1, 2]}
    pin = {"exit": 0, **oracle.digest(report)}
    near = {"mass": 0.5 * (1 + 5e-10), "tiny": -3e-17, "pass": True, "ranks": [1, 2]}
    far = {"mass": 0.5 * (1 + 5e-9), "tiny": 0.0, "pass": True, "ranks": [1, 2]}
    changed = {"mass": 0.5, "tiny": 1e-17, "pass": True, "ranks": [1, 3]}
    assert oracle.compare_pin(pin, 0, oracle.digest(near)) == []
    assert oracle.compare_pin(pin, 0, oracle.digest(far))
    assert oracle.compare_pin(pin, 0, oracle.digest(changed))
    assert oracle.compare_pin(pin, 1, oracle.digest(report))


def test_oracle_rejects_wrong_output(tmp_path):
    item = workloads.round_items("symbol-classify", 1, 0)[0]
    records, _ = run_items([item], tmp_path)
    good = records[0]
    assert oracle.check(item, good, None)[0] == []
    report = json.loads(good["stdout"])
    report["dims"][0] += 1
    assert oracle.check(item, dict(good, stdout=json.dumps(report)), None)[0]
    assert oracle.check(item, dict(good, exit=1), None)[0]
    assert oracle.check(item, dict(good, error="Traceback\nKeyError: 1"), None)[0]


# -- bypass predictions -----------------------------------------------------------------


def _traced_round(workload, tmp_path):
    items = workloads.round_items(workload, 1, 0)
    tracer = Tracer()
    tracer.install()
    try:
        records, _ = run_items(items, tmp_path)
    finally:
        tracer.uninstall()
    assert all(rec["error"] is None for rec in records)
    return tracer.snapshot()


@pytest.fixture(scope="module")
def traced_rounds(tmp_path_factory):
    return {w: _traced_round(w, tmp_path_factory.mktemp(w)) for w in workloads.WORKLOADS}


def _calls(stats, pattern):
    if pattern.endswith(".*"):
        prefix = pattern[:-1]
        return sum(s["calls"] for name, s in stats.items() if name.startswith(prefix))
    return stats.get(pattern, {}).get("calls", 0)


PREDICTIONS = json.loads((HERE / "predictions.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("function,workload", [
    (f, w) for f, ws in PREDICTIONS["calls_nonzero"].items() for w in ws])
def test_layer_is_exercised_where_predicted(traced_rounds, function, workload):
    assert _calls(traced_rounds[workload], function) > 0


@pytest.mark.parametrize("function,workload", [
    (f, w) for f, ws in PREDICTIONS["calls_zero"].items() for w in ws])
def test_layer_is_bypassed_where_predicted(traced_rounds, function, workload):
    assert _calls(traced_rounds[workload], function) == 0


def test_every_traced_function_in_predictions_exists(traced_rounds):
    known = set(discover().values())
    for pattern in [*PREDICTIONS["calls_nonzero"], *PREDICTIONS["calls_zero"]]:
        if pattern.endswith(".*"):
            assert any(name.startswith(pattern[:-1]) for name in known), pattern
        else:
            assert pattern in known, pattern


# -- BENCHMARK.json -----------------------------------------------------------------------


def test_benchmark_json_names_the_metrics_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.per_layer_units()
    layer_names = {m["name"] for m in spec["per_layer"]}
    for group in PREDICTIONS["layers"]:
        assert set(group["metrics"]) <= layer_names, group["metrics"]


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "flat",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
