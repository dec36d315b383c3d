import contextlib
import csv
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfx.cli import main
from test_groups import group_to_json
from test_poly import total_degree


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_right(capsys):
    code, out, _ = run(capsys, "classify", "--group", "rightQH", "--n", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["right_type"] is True
    assert payload["stratified"] is True
    assert payload["condition_H"]["verdict"] == "sampled-true"


def test_classify_left(capsys):
    code, out, _ = run(capsys, "classify", "--group", "leftQH", "--n", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["right_type"] is False
    assert payload["block_certificates"]


def test_classify_abelian(capsys):
    code, out, _ = run(capsys, "classify", "--group", "abelian", "--n", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["right_type"] is True and payload["stratified"] is False


def test_classify_from_file(tmp_path, capsys):
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"n": 1, "S": [["1", "0", "0", "0"],
                                              ["0", "1", "0", "0"],
                                              ["0", "0", "1", "0"],
                                              ["0", "0", "0", "1"]]}))
    code, out, _ = run(capsys, "classify", "--file", str(path))
    assert code == 0
    assert json.loads(out)["right_type"] is False


def test_classify_malformed_json_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "classify", "--file", str(path))
    assert code == 2
    assert "input error" in err


def test_verify_flat_passes(capsys):
    code, out, _ = run(capsys, "verify", "flat", "--n", "1", "--k", "1",
                       "--trials", "3", "--seed", "5")
    assert code == 0
    payload = json.loads(out)
    assert all(item["pass"] for item in payload)


def test_verify_boundary_composition_right(capsys):
    code, out, _ = run(capsys, "verify", "boundary", "--group", "rightQH",
                       "--n", "2", "--k", "2", "--check", "composition",
                       "--trials", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["identity"] == "boundary-composition"
    assert payload[0]["pass"] is True


def test_verify_boundary_anticommute_left(capsys):
    code, out, _ = run(capsys, "verify", "boundary", "--group", "leftQH",
                       "--n", "1", "--check", "anticommute", "--trials", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["pass"] is True
    # the plain defect is nonzero off right-type; the identity still holds
    assert payload[0]["plain_anticommutation"] is False


@pytest.mark.parametrize("flag", [("--group", "abelian"), ("--file", "/nonexistent.json"),
                                  ("--check", "hodge")])
def test_verify_flat_rejects_the_boundary_flags(capsys, flag):
    # each command takes only the flags it reads: flat runs on no group
    with pytest.raises(SystemExit) as exc:
        main(["verify", "flat", "--n", "1", "--k", "1", "--trials", "1", *flag])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"unrecognized arguments: {' '.join(flag)}" in captured.err


def test_verify_rejects_large_n(capsys):
    code, _, err = run(capsys, "verify", "flat", "--n", "5")
    assert code == 2 and "limit" in err


def test_classify_rejects_n_zero(capsys):
    code, out, err = run(capsys, "classify", "--group", "rightQH", "--n", "0")
    assert code == 2 and out == ""
    assert err.startswith("input error:") and "n >= 1" in err


def test_ma_rejects_n_zero(capsys):
    code, _, err = run(capsys, "ma", "--group", "rightQH", "--n", "0")
    assert code == 2 and err.startswith("input error:") and "n >= 1" in err


def test_verify_boundary_rejects_n_zero(capsys):
    code, _, err = run(capsys, "verify", "boundary", "--group", "leftQH", "--n", "0")
    assert code == 2 and err.startswith("input error:") and "n >= 1" in err


@pytest.mark.parametrize("argv", [
    ("verify", "flat", "--n", "1", "--trials", "-1"),
    ("verify", "flat", "--n", "1", "--trials", "0"),
    ("verify", "boundary", "--group", "leftQH", "--n", "1", "--check", "anticommute",
     "--trials", "0"),
])
def test_verify_rejects_fewer_than_one_trial(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("input error:") and "--trials" in err


def test_symbol_rejects_negative_trials(capsys):
    code, out, err = run(capsys, "symbol", "--n", "1", "--k", "1",
                         "--v", "1,0,0,0,0,0,0,0", "--trials", "-1")
    assert code == 2 and out == ""
    assert err.startswith("input error:") and "--trials" in err


def _forbid_work(monkeypatch):
    """Make every suite, the bracket and diagonal checks, the symbol check
    and the frame raise if they run."""
    import cfx.cli as cli

    def forbidden(*args, **kwargs):
        raise AssertionError("cfx did work on an input it must reject")

    for name in ("flat_composition_suite", "flat_tuple_equivalence_suite",
                 "boundary_composition_suite", "anticommute_suite", "subcomplex_suite"):
        monkeypatch.setattr(cli.suites, name, forbidden)
    for name in ("bracket_identity", "hodge_diag", "check_exactness"):
        monkeypatch.setattr(cli, name, forbidden)
    monkeypatch.setattr(cli, "TangentFrame", forbidden)
    return cli


@pytest.mark.parametrize("command", [("verify", "flat"), ("verify", "boundary"),
                                     ("symbol", "--v", "1,0,0,0,0,0,0,0")])
@pytest.mark.parametrize("k", ["13", "30", "1000000"])
def test_k_above_the_limit_exits_2_before_any_work(monkeypatch, capsys, command, k):
    # the tuple suite builds 2^k components: a large k would exhaust memory
    import time

    cli = _forbid_work(monkeypatch)
    assert int(k) > cli.MAX_K
    start = time.perf_counter()
    code, out, err = run(capsys, *command, "--n", "1", "--k", k, "--trials", "1")
    assert time.perf_counter() - start < 1
    _assert_input_error(code, out, err)
    assert "limit" in err and f"k={k}" in err


def test_k_at_the_limit_is_accepted_and_n1_k4_still_fails_the_top_level(capsys):
    from cfx.cli import MAX_K

    code, out, _ = run(capsys, "symbol", "--n", "1", "--k", str(MAX_K),
                       "--v", "1,0,0,0,0,0,0,0")
    assert code == 1 and json.loads(out)["k"] == MAX_K
    code, out, _ = run(capsys, "symbol", "--n", "1", "--k", "4", "--v", "1,0,0,0,0,0,0,0")
    assert code == 1 and not json.loads(out)["all_exact"]


@pytest.mark.parametrize("command", ["classify", "ma"])
@pytest.mark.parametrize("n", ["4", "100000"])
def test_n_above_the_limit_exits_2_before_the_group_is_built(monkeypatch, capsys, command, n):
    # the group's matrices are dense 4n x 4n: a large n would exhaust memory
    import time

    cli = _forbid_work(monkeypatch)
    assert int(n) > cli.MAX_N

    def forbidden(*args, **kwargs):
        raise AssertionError("cfx built a group above the n limit")

    monkeypatch.setattr(cli.GroupSpec, "named", forbidden)
    monkeypatch.setattr(cli, "classify", forbidden)
    start = time.perf_counter()
    code, out, err = run(capsys, command, "--group", "rightQH", "--n", n)
    assert time.perf_counter() - start < 1
    _assert_input_error(code, out, err)
    assert f"n={n} exceeds the configured limit" in err


@pytest.mark.parametrize("command", [("classify",), ("ma",), ("verify", "boundary")])
@pytest.mark.parametrize("n,record", [
    (4, "S"), (4, "phi"),
    # a 35 kB potential in 4000 variables: its matrix would take 1.6e7 second derivatives
    (1000, "phi")])
def test_file_group_above_the_limit_exits_2_before_any_group_matrix(monkeypatch, capsys,
                                                                    tmp_path, command, n,
                                                                    record):
    import time

    from cfx import groups
    from cfx.groups import GroupSpec

    if record == "S":
        data = group_to_json(GroupSpec.right_qh(n))
    else:
        data = {"phi": {"vars": [f"x{i + 1}" for i in range(4 * n)],
                        "terms": [{"c": "1", "e": [2] + [0] * (4 * n - 1)}]}}
    path = tmp_path / "group.json"
    path.write_text(json.dumps(data))
    cli = _forbid_work(monkeypatch)

    def forbidden(*args, **kwargs):
        raise AssertionError("cfx built a group above the n limit")

    monkeypatch.setattr(groups.GroupSpec, "__post_init__", forbidden)
    monkeypatch.setattr(groups, "group_from_phi", forbidden)
    monkeypatch.setattr(cli, "classify", forbidden)
    start = time.perf_counter()
    code, out, err = run(capsys, *command, "--file", str(path))
    assert time.perf_counter() - start < 1
    _assert_input_error(code, out, err)
    assert f"n={n} exceeds the configured limit" in err


@pytest.mark.parametrize("steps", ["10001", "100000000"])
def test_convergence_above_the_cap_exits_2_before_the_frame(monkeypatch, capsys, steps):
    # every step keeps an exact mass: 10^8 steps would exhaust memory
    import time

    cli = _forbid_work(monkeypatch)
    assert int(steps) > cli.MAX_CONVERGENCE
    start = time.perf_counter()
    code, out, err = run(capsys, "ma", "--group", "rightQH", "--n", "2",
                         "--convergence", steps)
    assert time.perf_counter() - start < 1
    _assert_input_error(code, out, err)
    assert "--convergence" in err and "limit" in err


@pytest.mark.parametrize("steps", ["1", "-3"])
def test_ma_rejects_convergence_below_two(capsys, steps):
    code, out, err = run(capsys, "ma", "--group", "rightQH", "--n", "2",
                         "--convergence", steps)
    assert code == 2 and out == ""
    assert err.startswith("input error:") and "--convergence" in err


def test_ma_rejects_zero_denominator_halfwidth(capsys):
    code, out, err = run(capsys, "ma", "--group", "rightQH", "--n", "1",
                         "--halfwidth", "1/0")
    assert code == 2 and out == ""
    assert err.startswith("input error:") and "--halfwidth" in err


def test_verify_right_type_only_check_on_left_group(capsys):
    for check in ("subcomplex", "hodge"):
        code, out, err = run(capsys, "verify", "boundary", "--group", "leftQH",
                             "--n", "1", "--check", check)
        assert (code, out) == (3, "")
        assert err == ("precondition violation: operation requires a right-type group "
                       "(vanishing curvature)\n")


def test_verify_hodge_at_k0_names_the_level(capsys):
    # k = 0 is well formed but outside the identity's domain: a precondition
    code, out, err = run(capsys, "verify", "boundary", "--group", "rightQH",
                         "--n", "1", "--k", "0", "--check", "hodge")
    assert (code, out) == (3, "")
    assert err == "precondition violation: the diagonal identity needs k >= 1\n"


def test_verify_all_skips_hodge_at_k0(capsys):
    code, out, _ = run(capsys, "verify", "boundary", "--group", "rightQH",
                       "--n", "1", "--k", "0", "--trials", "1", "--check", "all")
    assert code == 0
    assert [r["identity"] for r in json.loads(out)] == [
        "boundary-composition", "anticommutation-curvature", "bracket-curvature"]


RECORD_TYPES = {"identity": (str,), "params": (dict,), "seed": (int, type(None)),
                "pass": (bool,), "residual": (str,)}


@pytest.mark.parametrize("argv", [
    ("flat", "--n", "1", "--k", "1", "--degree", "2"),
    *[("boundary", "--group", "rightQH", "--n", "1", "--k", "1", "--check", check)
      for check in ("all", "composition", "anticommute", "bracket", "hodge", "subcomplex")],
    ("boundary", "--group", "leftQH", "--n", "1", "--k", "1", "--check", "all"),
])
def test_every_verify_record_has_the_common_keys(capsys, argv):
    # the suites, bracket_identity and hodge_diag each build their own record
    code, out, _ = run(capsys, "verify", *argv, "--trials", "1")
    assert code == 0
    records = json.loads(out)
    assert records
    for record in records:
        for key, types in RECORD_TYPES.items():
            assert type(record[key]) in types, (record["identity"], key, record[key])


def test_symbol_reference_table(capsys):
    code, out, _ = run(capsys, "symbol", "--n", "1", "--k", "1",
                       "--v", "1,0,0,0,0,0,0,0")
    assert code == 0
    payload = json.loads(out)
    assert payload["dims"] == [2, 4, 4, 2]
    assert payload["all_exact"] is True


def test_symbol_zero_vector_exits_2(capsys):
    code, _, err = run(capsys, "symbol", "--n", "1", "--k", "1",
                       "--v", "0,0,0,0,0,0,0,0")
    assert code == 2 and "nonzero" in err


def test_symbol_csv_format(capsys):
    code, out, _ = run(capsys, "symbol", "--n", "1", "--k", "0",
                       "--v", "1,1,0,0,0,0,0,0", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("detail,dim")
    assert len(lines) == 5  # header + one row per level


@pytest.mark.parametrize("argv", [
    ("--n", "1", "--k", "1", "--trials", "4", "--seed", "3"),
    ("--n", "1", "--k", "1", "--v", "1,2,0,0,0,0,0,1/2", "--trials", "3"),
    ("--n", "1", "--k", "0", "--v", "0,0,0,1,0,0,0,0"),
    ("--n", "1", "--k", "4", "--trials", "2"),
])
def test_symbol_streams_the_covectors_it_would_have_listed(capsys, argv):
    # reference: every covector listed first (--v, then spawn(t) for each
    # trial), every report kept, the first one printed
    from fractions import Fraction

    from cfx.flat import ComplexSpec, check_exactness
    from cfx.randgen import SectionGenerator

    options = dict(zip(argv[::2], argv[1::2]))
    n, k, seed = int(options["--n"]), int(options["--k"]), int(options.get("--seed", 1))
    vectors = [[Fraction(p) for p in options["--v"].split(",")]] if "--v" in options else []
    gen = SectionGenerator(seed)
    vectors += [gen.spawn(t).rational_vector(4 * (n + 1))
                for t in range(int(options.get("--trials", 0)))]
    results = [check_exactness(ComplexSpec(n, k), v) for v in vectors]
    want = {"n": n, "k": k, "seed": seed, "dims": results[0]["dims"],
            "levels": results[0]["levels"], "all_exact": all(r["exact"] for r in results),
            "vectors_checked": len(vectors)}
    code, out, _ = run(capsys, "symbol", *argv)
    assert json.loads(out) == json.loads(json.dumps(want, default=str))
    assert code == (0 if want["all_exact"] else 1)


def test_symbol_keeps_no_report_per_trial(capsys):
    # 450 covectors kept with their reports (about 2.5 KB each) peaked at
    # 1.24-1.35 MB under tracemalloc, 2000 above 5 MB
    import tracemalloc

    run(capsys, "symbol", "--n", "1", "--k", "1", "--trials", "1")
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "symbol", "--n", "1", "--k", "1", "--trials", "450")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and json.loads(out)["vectors_checked"] == 450
    assert peak < 1_000_000, peak


def test_classify_csv_parses_to_header_width(capsys):
    code, out, _ = run(capsys, "classify", "--group", "leftQH", "--n", "1",
                       "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 2
    assert len(rows[1]) == len(rows[0])
    assert json.loads(rows[1][rows[0].index("n")]) == 1


@pytest.mark.parametrize("argv", [
    ("classify", "--group", "leftQH", "--n", "1"),
    ("classify", "--group", "abelian", "--n", "1", "--condition-h", "exact"),
    ("verify", "boundary", "--group", "leftQH", "--n", "1", "--trials", "2"),
    ("verify", "boundary", "--group", "rightQH", "--n", "2", "--k", "1", "--trials", "1",
     "--degree", "1"),
    ("symbol", "--n", "1", "--k", "1", "--v", "1,0,0,0,0,0,0,0"),
])
def test_csv_cells_read_back_as_the_json_report(capsys, argv):
    code, out, _ = run(capsys, *argv)
    payload = json.loads(out)
    code_csv, csv_out, _ = run(capsys, *argv, "--format", "csv")
    assert code_csv == code
    rows = payload if isinstance(payload, list) else payload.get("levels") or [payload]
    header, *cells = list(csv.reader(io.StringIO(csv_out)))
    assert header == sorted({k for row in rows for k in row})
    assert len(cells) == len(rows)
    checked = 0
    for row, line in zip(rows, cells):
        assert len(line) == len(header)
        for key, cell in zip(header, line):
            if key not in row:
                assert cell == ""
                continue
            value = row[key]
            if isinstance(value, str):
                assert cell == value
            else:
                assert json.loads(cell) == value
                checked += 1
    assert checked


def test_ma_requires_right_type(capsys):
    code, out, err = run(capsys, "ma", "--group", "leftQH", "--n", "2")
    assert (code, out) == (3, "")
    assert err == "precondition violation: the wedge-power operator needs a right-type group\n"


def test_ma_runs_power_one(capsys):
    code, out, _ = run(capsys, "ma", "--group", "rightQH", "--n", "1",
                       "--power", "1", "--seed", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["cln"]["pass"] and payload["stokes"]["pass"]


def test_determinism_byte_identical(capsys):
    args = ("verify", "flat", "--n", "1", "--k", "0", "--trials", "2", "--seed", "9")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "classify", "--group", "rightQH", "--n", "1",
                       "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["right_type"] is True


def test_verification_failure_exits_1(capsys, monkeypatch):
    # force a failed report through the flat path to pin the exit contract
    import cfx.cli as cli_mod

    def fake_suite(*args, **kwargs):
        return {"identity": "flat-composition", "params": {}, "seed": 0, "pass": False,
                "residual": "nonzero"}

    monkeypatch.setattr(cli_mod.suites, "flat_composition_suite", fake_suite)
    monkeypatch.setattr(cli_mod.suites, "flat_tuple_equivalence_suite", fake_suite)
    code, out, _ = run(capsys, "verify", "flat", "--n", "1", "--k", "0")
    assert code == 1
    assert not json.loads(out)[0]["pass"]


# -- unreadable, malformed and unwritable files end as input errors ----------------------


def _assert_input_error(code, out, err):
    assert code == 2 and out == ""
    assert err.startswith("input error:") and "Traceback" not in err


def test_ma_missing_u_file_exits_2(tmp_path, capsys):
    _assert_input_error(*run(capsys, "ma", "--group", "rightQH", "--n", "1",
                             "--u", str(tmp_path / "missing" / "u.json")))


@pytest.mark.parametrize("content", ['[{"x": 1}]', '{"a": 1}', "5",
                                     '[{"vars": ["x1"], "terms": [7]}]'])
def test_ma_malformed_u_file_exits_2(tmp_path, capsys, content):
    path = tmp_path / "u.json"
    path.write_text(content)
    _assert_input_error(*run(capsys, "ma", "--group", "rightQH", "--n", "1",
                             "--u", str(path)))


@pytest.mark.parametrize("command", [("classify",), ("verify", "boundary")])
@pytest.mark.parametrize("content", ["[1]", '{"n": 1, "S": 5}', '{"n": 1}',
                                     '{"phi": [1]}',
                                     '{"phi": {"vars": [1, 2, 3, 4], "terms": []}}'])
def test_malformed_group_file_exits_2(tmp_path, capsys, command, content):
    path = tmp_path / "group.json"
    path.write_text(content)
    _assert_input_error(*run(capsys, *command, "--file", str(path)))


@pytest.mark.parametrize("content", [
    '{"n": 1.5, "S": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}',
    '{"n": true, "S": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}',
    '{"n": "1", "S": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}',
    '{"n": 1, "S": [[0.1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}',
    '{"n": 1, "S": [[true, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}',
    '{"n": 1, "S": [["1/0", 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}',
    '{"phi": {"vars": ["x1", "x2", "x3", "x4"], "terms": [{"c": ["1/0", 0], "e": [2, 0, 0, 0]}]}}',
])
def test_group_file_needs_an_integer_n_and_exact_entries(tmp_path, capsys, content):
    path = tmp_path / "group.json"
    path.write_text(content)
    _assert_input_error(*run(capsys, "classify", "--file", str(path)))


# S as the identity, with each row a string or a dict: iterating a row would
# read its characters or its keys and classify the file as a group
STRING_ROWS = {"n": 1, "S": ["1000", "0100", "0010", "0001"]}
DICT_ROWS = {"n": 1, "S": [{"1": 0, "0": 0, "0/1": 0, "0/2": 0},
                           {"0": 0, "1": 0, "0/1": 0, "0/2": 0},
                           {"0": 0, "0/1": 0, "1": 0, "0/2": 0},
                           {"0": 0, "0/1": 0, "0/2": 0, "1": 0}]}


@pytest.mark.parametrize("command", [("classify",), ("verify", "boundary")])
@pytest.mark.parametrize("data", [STRING_ROWS, DICT_ROWS, {"n": 1, "S": {"1000": 0}}],
                         ids=["string-rows", "dict-rows", "dict-S"])
def test_group_file_rows_must_be_json_lists(tmp_path, capsys, command, data):
    path = tmp_path / "group.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, *command, "--file", str(path))
    _assert_input_error(code, out, err)
    assert "malformed group JSON" in err


def test_group_json_keeps_string_and_integer_entries():
    from fractions import Fraction
    from cfx.groups import GroupSpec
    g = GroupSpec.from_json({"n": 1, "S": [["1/10", 0, 0, 0], [0, 1, 0, 0],
                                           [0, 0, 1, 0], [0, 0, 0, "-3"]]})
    assert g.n == 1 and [g.S[i][i] for i in range(4)] == [Fraction(1, 10), 1, 1, -3]


def _write_group(tmp_path, group):
    path = tmp_path / "group.json"
    path.write_text(json.dumps(group_to_json(group)))
    return str(path)


def test_verify_boundary_limits_the_n_of_a_file_group(tmp_path, capsys):
    from cfx.groups import GroupSpec
    path = _write_group(tmp_path, GroupSpec.right_qh(4))
    code, out, err = run(capsys, "verify", "boundary", "--file", path, "--check", "bracket")
    _assert_input_error(code, out, err)
    assert "n=4 exceeds the configured limit" in err


def test_verify_boundary_ignores_n_when_a_file_gives_the_group(tmp_path, capsys):
    from cfx.groups import GroupSpec
    path = _write_group(tmp_path, GroupSpec.right_qh(1))
    code, out, _ = run(capsys, "verify", "boundary", "--n", "5", "--file", path,
                       "--check", "bracket")
    assert code == 0
    assert out == run(capsys, "verify", "boundary", "--group", "rightQH", "--n", "1",
                      "--check", "bracket")[1]


@pytest.mark.parametrize("target", ["missing/x.json", "right-type/x.json", "."])
def test_unwritable_out_path_exits_2(tmp_path, capsys, target):
    code, out, err = run(capsys, "classify", "--group", "rightQH", "--n", "1",
                         "--out", str(tmp_path / target))
    _assert_input_error(code, out, err)
    assert "--out" in err


@pytest.mark.parametrize("degree", ["7", "0", "-1"])
def test_verify_rejects_degree_out_of_range(capsys, degree):
    code, out, err = run(capsys, "verify", "flat", "--n", "1", "--k", "0",
                         "--degree", degree)
    _assert_input_error(code, out, err)
    assert "--degree" in err


def test_generator_uses_the_given_degree():
    from cfx.poly import x_vars
    from cfx.randgen import SectionGenerator
    gen = SectionGenerator(1, degree=9)
    assert gen.degree == 9
    assert max(total_degree(gen.spawn(t).poly(x_vars(2))) for t in range(20)) > 6


@pytest.mark.parametrize("exponent", ["1.5", '"1"', "true"])
def test_ma_rejects_non_integer_u_exponent(tmp_path, capsys, exponent):
    names = '["x1", "x2", "x3", "x4", "t1", "t2", "t3"]'
    path = tmp_path / "u.json"
    path.write_text(f'[{{"vars": {names}, "terms": [{{"c": ["1", "0"], '
                    f'"e": [2, 0, 0, {exponent}, 0, 0, 0]}}]}}]')
    code, out, err = run(capsys, "ma", "--group", "rightQH", "--n", "1", "--u", str(path))
    _assert_input_error(code, out, err)
    assert "exponent" in err


def test_ma_power_above_the_u_file_count_exits_2(tmp_path, capsys):
    # one polynomial cannot feed the second wedge factor of --power 2
    names = '["x1", "x2", "x3", "x4", "x5", "x6", "x7", "x8", "t1", "t2", "t3"]'
    path = tmp_path / "u.json"
    path.write_text(f'[{{"vars": {names}, "terms": [{{"c": ["1", "0"], '
                    f'"e": [2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]}}]}}]')
    code, out, err = run(capsys, "ma", "--group", "rightQH", "--n", "2", "--power", "2",
                         "--u", str(path))
    _assert_input_error(code, out, err)
    assert "--power 2" in err and "has 1" in err


def test_ma_power_above_n_exits_2_before_drawing_inputs(capsys, monkeypatch):
    # a power outside 1..n is refused before the frame is built or any
    # quadratic is drawn, so a huge power costs nothing
    import time

    from cfx.randgen import SectionGenerator

    def forbidden(*args, **kwargs):
        raise AssertionError("inputs drawn for a power that cannot run")

    monkeypatch.setattr(SectionGenerator, "psh_quadratic", forbidden)
    start = time.perf_counter()
    code, out, err = run(capsys, "ma", "--group", "rightQH", "--n", "1",
                         "--power", "80000")
    assert time.perf_counter() - start < 1
    _assert_input_error(code, out, err)
    assert "need between 1 and n inputs" in err


def test_ma_u_runs_the_key_identity_on_its_first_n_inputs(tmp_path, capsys):
    # at n = 2 the identity takes two inputs: a --u file of three runs it on
    # the first two at every power, as a file of exactly two does
    from cfx.boundary import TangentFrame
    from cfx.groups import GroupSpec
    from cfx.ma import key_identity_check
    from cfx.poly import Poly

    names = [f"x{i}" for i in range(1, 9)] + ["t1", "t2", "t3"]
    records = [{"vars": names, "terms": [{"c": c, "e": [0] * a + [2] + [0] * (10 - a)}]}
               for c, a in (("1", 0), ("1/2", 1), ("3", 4))]
    frame = TangentFrame(GroupSpec.right_qh(2))
    want = key_identity_check([Poly.from_json(r) for r in records[:2]], frame)
    assert want["pass"]
    for count in (2, 3):
        path = tmp_path / f"u{count}.json"
        path.write_text(json.dumps(records[:count]))
        for power in ("1", "2"):
            _, out, _ = run(capsys, "ma", "--group", "rightQH", "--n", "2",
                            "--power", power, "--u", str(path))
            assert json.loads(out)["key_identity"] == want, (count, power)
    # drawn inputs number the power: the identity runs iff power == n
    for power, runs in (("1", False), ("2", True)):
        _, out, _ = run(capsys, "ma", "--group", "rightQH", "--n", "2", "--power", power)
        assert ("key_identity" in json.loads(out)) is runs


@pytest.mark.parametrize("n", ["1", "3"])
def test_ma_rejects_convergence_away_from_n_2(capsys, n):
    code, out, err = run(capsys, "ma", "--group", "rightQH", "--n", n,
                         "--convergence", "64")
    _assert_input_error(code, out, err)
    assert "--convergence" in err


@pytest.mark.parametrize("halfwidth", ["1e30", "1e100", "1e5000"])
def test_ma_box_past_the_float_range_exits_2(capsys, halfwidth):
    # the exact integrals are fine; only their report floats would overflow
    code, out, err = run(capsys, "ma", "--group", "rightQH", "--n", "1",
                         "--halfwidth", halfwidth)
    _assert_input_error(code, out, err)
    assert "float range" in err


def test_ma_box_past_the_float_range_is_rejected_before_any_work(monkeypatch, capsys):
    # a bound that cannot round to a float fails before the frame is built
    # and before anything is integrated
    import cfx.cli as cli

    def forbidden(*args, **kwargs):
        raise AssertionError("cfx ma did work on a box it must reject")

    monkeypatch.setattr(cli, "TangentFrame", forbidden)
    monkeypatch.setattr(cli, "cln_experiment", forbidden)
    code, out, err = run(capsys, "ma", "--group", "rightQH", "--n", "1",
                         "--halfwidth", "1e5000")
    _assert_input_error(code, out, err)
    assert "float range" in err


def test_ma_box_below_the_float_range_is_rejected_before_any_work(monkeypatch, capsys):
    # every mass of a 1e-5000 box rounds to 0.0: the report could not show
    # the values the verdict rests on, so the bound is an input error
    import cfx.cli as cli

    def forbidden(*args, **kwargs):
        raise AssertionError("cfx ma did work on a box it must reject")

    monkeypatch.setattr(cli, "TangentFrame", forbidden)
    monkeypatch.setattr(cli, "cln_experiment", forbidden)
    code, out, err = run(capsys, "ma", "--group", "rightQH", "--n", "1",
                         "--halfwidth", "1e-5000")
    _assert_input_error(code, out, err)
    assert "float range" in err


def _huge_exponent_argv(site, tmp_path):
    huge = "1e10000000"
    if site == "halfwidth":
        return ["ma", "--group", "rightQH", "--n", "1", "--halfwidth", huge]
    if site == "u":
        names = '["x1", "x2", "x3", "x4", "t1", "t2", "t3"]'
        path = tmp_path / "u.json"
        path.write_text(f'[{{"vars": {names}, "terms": [{{"c": ["{huge}", "0"], '
                        f'"e": [2, 0, 0, 0, 0, 0, 0]}}]}}]')
        return ["ma", "--group", "rightQH", "--n", "1", "--u", str(path)]
    if site == "S":
        path = tmp_path / "g.json"
        rows = [[huge if i == j == 0 else "0" for j in range(4)] for i in range(4)]
        path.write_text(json.dumps({"n": 1, "S": rows}))
        return ["ma", "--file", str(path)]
    return ["symbol", "--n", "1", "--v", ",".join([huge] + ["0"] * 7)]


@pytest.mark.parametrize("site", ["halfwidth", "u", "S", "v"])
def test_huge_decimal_exponent_exits_2_at_once(monkeypatch, tmp_path, capsys, site):
    # Fraction("1e10000000") would build 10**10**7 for about 12 s: every site
    # that reads an outside number refuses the exponent before that
    import time
    import cfx.cli as cli

    def forbidden(*args, **kwargs):
        raise AssertionError("cfx ma did work on an input it must reject")

    monkeypatch.setattr(cli, "TangentFrame", forbidden)
    argv = _huge_exponent_argv(site, tmp_path)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    _assert_input_error(code, out, err)
    assert "exponent" in err


@pytest.mark.parametrize("v", [
    "1e1000,3e1000,-7e1000,1,2,5e1000,1/3,9e1000,2e1000,-1e1000,4,1e1000",
    "64,0,0,0,0,0,0,0,0,0,0,0",
    # each entry is small, but q v = (1155, 770, 462, 330, 210, 0, ...)
    "1/2,1/3,1/5,1/7,1/11,0,0,0,0,0,0,0",
])
def test_symbol_refuses_a_large_covector_before_any_work(monkeypatch, capsys, v):
    # the ranks grow with the entries of q v: a covector above the limit
    # exits 2 before a symbol matrix is built
    import cfx.flat as flat

    def forbidden(*args, **kwargs):
        raise AssertionError("cfx symbol did work on a covector it must reject")

    monkeypatch.setattr(flat, "symbol_at", forbidden)
    code, out, err = run(capsys, "symbol", "--n", "2", "--k", "0", f"--v={v}")
    _assert_input_error(code, out, err)
    assert "above the configured limit 6" in err


def test_symbol_accepts_a_covector_at_the_size_limit(capsys):
    # q = 63 and q v = (63, -62, 1, 21, 0, ...): every entry fits in 6 bits
    code, out, err = run(capsys, "symbol", "--n", "1", "--k", "1",
                         "--v=1,-62/63,1/63,1/3,0,0,0,0")
    assert code == 0 and err == ""
    assert json.loads(out)["all_exact"]


def test_ma_zero_input_has_zero_mass_and_fails(tmp_path, capsys):
    # three equal masses that are all 0 check nothing: the cutoff mass fails
    names = '["x1", "x2", "x3", "x4", "t1", "t2", "t3"]'
    path = tmp_path / "u.json"
    path.write_text(f'[{{"vars": {names}, "terms": []}}]')
    code, out, err = run(capsys, "ma", "--group", "rightQH", "--n", "1", "--u", str(path))
    assert code == 1 and err == ""
    payload = json.loads(out)
    assert payload["cln"]["mass_direct"] == [0.0, 0.0] and not payload["cln"]["pass"]
    assert payload["stokes"]["pass"] and payload["key_identity"]["pass"]


# -- each subcommand takes only the flags it reads ------------------------------------------


@pytest.mark.parametrize("argv", [
    ("classify", "--k", "7"), ("classify", "--seed", "3"), ("classify", "--trials", "-5"),
    ("classify", "--degree", "99"), ("symbol", "--group", "leftQH"),
    ("symbol", "--file", "group.json"), ("symbol", "--degree", "3"), ("ma", "--k", "2"),
    ("ma", "--trials", "3"), ("ma", "--degree", "3"), ("ma", "--resolution", "4"),
])
def test_unread_flag_is_rejected_by_argparse(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--n", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# -- a typed precondition error picks exit 3, not the wording of a message ------------------


def test_require_right_type_raises_precondition_error():
    from cfx.boundary import PreconditionError, TangentFrame
    from cfx.groups import GroupSpec
    with pytest.raises(PreconditionError, match="right-type"):
        TangentFrame(GroupSpec.left_qh(1)).require_right_type()


def test_exit_code_follows_the_error_type(capsys, monkeypatch):
    import cfx.cli as cli_mod
    from cfx.boundary import PreconditionError

    def raise_(exc):
        def cmd(args):
            raise exc
        return cmd

    monkeypatch.setattr(cli_mod, "cmd_classify", raise_(ValueError("not a right-type input")))
    assert run(capsys, "classify") == (2, "", "input error: not a right-type input\n")
    monkeypatch.setattr(cli_mod, "cmd_classify", raise_(PreconditionError("outside the domain")))
    assert run(capsys, "classify") == (3, "", "precondition violation: outside the domain\n")


# -- one parser per process: the shared parser behaves as a fresh one ------------------------


def _outcome(argv):
    """(exit code, stdout, stderr) of one ``main`` call, argparse exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


PARSER_ARGVS = [
    ["classify", "--group", "leftQH", "--n", "1", "--condition-h", "exact"],
    ["verify", "flat", "--n", "1", "--k", "0", "--trials", "1", "--degree", "2"],
    ["verify", "boundary", "--n", "1", "--trials", "1", "--check", "bracket",
     "--format", "csv"],
    ["verify", "boundary", "--group", "leftQH", "--n", "1", "--check", "hodge"],
    # non-default --n and --k, then the same command on the defaults n = 2, k = 1
    ["symbol", "--n", "1", "--k", "2", "--seed", "3", "--v", "1,0,0,0,0,0,0,0"],
    ["symbol", "--v", "1,0,0,0,0,0,0,0,0,0,0,0"],
    ["ma", "--group", "rightQH", "--n", "1"],
    ["ma", "--group", "rightQH", "--n", "1", "--power", "3"],
    ["verify", "flat", "--n", "x"],
    ["verify"],
    ["classify", "--bogus"],
    ["--help"],
    ["verify", "boundary", "--help"],
    ["classify"],
]


def test_the_shared_parser_gives_what_a_fresh_parser_gives(monkeypatch):
    import cfx.cli as cli

    shared = [_outcome(argv) for argv in PARSER_ARGVS]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [_outcome(argv) for argv in PARSER_ARGVS]
    for argv, one, other in zip(PARSER_ARGVS, shared, fresh):
        assert one == other, argv
    assert {code for code, _, _ in shared} == {0, 2, 3}


def test_a_second_call_builds_no_parser(monkeypatch):
    import argparse

    import cfx.cli as cli

    argv = ["symbol", "--n", "1", "--v", "1,0,0,0,0,0,0,0"]
    assert _outcome(argv)[0] == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert _outcome(argv)[0] == 0
    assert built == []
    cli.build_parser.__wrapped__()  # the counter sees a build
    assert len(built) == 11


@pytest.mark.parametrize("name,argv", [
    ("cmd_verify", ["verify", "flat"]), ("cmd_verify", ["verify", "boundary"]),
    ("cmd_symbol", ["symbol"]), ("cmd_ma", ["ma"])])
def test_a_handler_replaced_after_the_first_call_is_the_one_that_runs(monkeypatch, name,
                                                                     argv):
    import cfx.cli as cli

    assert _outcome(["classify", "--n", "1"])[0] == 0
    seen = []

    def handler(args):
        seen.append(args.command)
        return 3

    monkeypatch.setattr(cli, name, handler)
    assert _outcome(argv) == (3, "", "")
    assert seen == [argv[0]]


def test_a_potential_file_is_parsed_once(monkeypatch, tmp_path, capsys):
    from cfx.poly import Poly

    x4 = [f"x{i}" for i in range(1, 5)]
    path = tmp_path / "phi.json"
    path.write_text(json.dumps({"phi": {"vars": [*x4, "t1"], "terms": [
        {"c": "-3", "e": [2, 0, 0, 0, 0]}, {"c": "1/2", "e": [1, 0, 1, 0, 0]}]}}))
    parsed = []
    from_json = Poly.from_json

    def counted(data):
        parsed.append(data)
        return from_json(data)

    monkeypatch.setattr(Poly, "from_json", counted)
    code, out, _ = run(capsys, "classify", "--file", str(path))
    assert code == 0 and json.loads(out)["n"] == 1
    assert len(parsed) == 1


# -- exact coefficients are strings or integers, never JSON floats or booleans --------------


@pytest.mark.parametrize("coeff", ["[0.1, 0]", "[true, 0]", '["1", 2.5]', '["1", false]'])
def test_ma_rejects_float_and_bool_u_coefficient(tmp_path, capsys, coeff):
    names = '["x1", "x2", "x3", "x4", "t1", "t2", "t3"]'
    path = tmp_path / "u.json"
    path.write_text(f'[{{"vars": {names}, "terms": [{{"c": {coeff}, '
                    f'"e": [2, 0, 0, 0, 0, 0, 0]}}]}}]')
    code, out, err = run(capsys, "ma", "--group", "rightQH", "--n", "1", "--u", str(path))
    _assert_input_error(code, out, err)
    assert "strings or integers" in err


def test_complex_rational_from_json_keeps_strings_and_ints():
    # the package's reader against the reference reader it replaced
    from fractions import Fraction
    from cfx.rational import gaussian_from_json
    from test_rational import ComplexRational
    assert ComplexRational.from_json("1/3") == ComplexRational(Fraction(1, 3))
    assert ComplexRational.from_json(["-2/5", 7]) == ComplexRational(Fraction(-2, 5), 7)
    assert gaussian_from_json("1/3") == (Fraction(1, 3), 0)
    assert gaussian_from_json(["-2/5", 7]) == (Fraction(-2, 5), 7)
    for bad in (0.5, [0.1, 0], [True, 0], [0, False], "1/0", ["0", "2/0"]):
        with pytest.raises(ValueError):
            ComplexRational.from_json(bad)
        with pytest.raises(ValueError):
            gaussian_from_json(bad)


# -- a closed stdout ends quietly -------------------------------------------------------------


def test_closed_stdout_ends_without_traceback():
    import os
    import subprocess
    import sys
    from pathlib import Path
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the report is written
    try:
        proc = subprocess.run([sys.executable, "-m", "cfx.cli", "symbol", "--n", "1", "--k", "1",
                               "--v", "1,0,0,0,0,0,0,0"],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert b"Traceback" not in proc.stderr and proc.stderr == b""
    assert proc.returncode == 0


# -- fuzz: small argv, well-formed or not, always ends in exit 0-3 -----------------------------


def _number(lo, hi):
    return st.integers(lo, hi).map(str)


FUZZ_FLAGS = {
    "classify": {"--n": _number(-1, 2),
                 "--group": st.sampled_from(["rightQH", "leftQH", "abelian", "x"]),
                 "--condition-h": st.sampled_from(["exact", "sampled", "x"]),
                 "--file": st.sampled_from(["missing/group.json", "string-rows.json"]),
                 "--format": st.sampled_from(["json", "csv"])},
    "verify": {"--n": _number(-1, 2), "--trials": _number(-1, 2), "--k": _number(-1, 3),
               "--seed": _number(0, 3), "--degree": _number(0, 7),
               "--group": st.sampled_from(["rightQH", "leftQH", "abelian"]),
               "--check": st.sampled_from(["all", "composition", "anticommute", "bracket",
                                           "hodge", "subcomplex", "x"]),
               "--format": st.sampled_from(["json", "csv"])},
    "symbol": {"--n": _number(-1, 2), "--trials": _number(-1, 2), "--k": _number(-1, 3),
               "--seed": _number(0, 3),
               "--v": st.sampled_from(["1,0,0,0,0,0,0,0", "0,0,0,0,0,0,0,0", "1,2", "a,b",
                                       "1/0,0,0,0,0,0,0,0"]),
               "--format": st.sampled_from(["json", "csv"])},
    "ma": {"--n": _number(-1, 2), "--seed": _number(0, 3), "--power": _number(-1, 3),
           "--convergence": _number(-1, 3),
           "--halfwidth": st.sampled_from(["1/2", "1", "0", "-1", "1/0", "x"]),
           "--group": st.sampled_from(["rightQH", "leftQH", "abelian"]),
           "--u": st.just("missing/u.json")},
}


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    flags = FUZZ_FLAGS[command]
    # --n always, and --trials for verify: their defaults (n = 2, 10 trials) are slow
    names = ["--n"] + (["--trials"] if command == "verify" else [])
    names += draw(st.lists(st.sampled_from(sorted(set(flags) - set(names))), unique=True,
                           max_size=4))
    values = [draw(flags[name]) for name in names]
    if draw(st.booleans()):  # one malformed value
        values[draw(st.integers(0, len(values) - 1))] = draw(st.sampled_from(["x", "", "1.5"]))
    argv = [command] + ([draw(st.sampled_from(["flat", "boundary", "x"]))]
                        if command == "verify" else [])
    for name, value in zip(names, values):
        argv += [name, value]
    return argv


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """Directory of the one group file the fuzz reads: string-rows.json."""
    directory = tmp_path_factory.mktemp("fuzz")
    (directory / "string-rows.json").write_text(json.dumps(STRING_ROWS))
    return directory


@given(argv=cli_argv())
@settings(max_examples=50, deadline=None)
def test_fuzz_cli_ends_in_a_documented_exit_code(fuzz_files, argv):
    argv = [str(fuzz_files / a) if a == "string-rows.json" else a for a in argv]
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 1, 2, 3), (argv, err.getvalue())


@pytest.mark.parametrize("exponent", [1001, 30000, 10 ** 7])
def test_ma_u_exponent_above_the_limit_exits_2_before_any_table(
        monkeypatch, capsys, tmp_path, exponent):
    # the cutoff rows and moment tables grow with the exponent: x1^30000
    # took 35 s, and 10^7 does not fit the packed field at all
    import time

    cli = _forbid_work(monkeypatch)
    assert exponent > cli.MAX_U_EXPONENT
    path = tmp_path / "u.json"
    path.write_text(json.dumps([{"vars": ["x1", "x2", "x3", "x4", "t1", "t2", "t3"],
                                 "terms": [{"c": "1", "e": [exponent, 0, 0, 0, 0, 0, 0]}]}]))
    start = time.perf_counter()
    code, out, err = run(capsys, "ma", "--group", "rightQH", "--n", "1", "--u", str(path))
    assert time.perf_counter() - start < 1
    _assert_input_error(code, out, err)
    assert "exponent" in err


def test_ma_u_exponent_at_the_limit_is_read():
    from cfx.cli import MAX_U_EXPONENT, _parse_inputs
    from cfx.poly import Poly

    record = {"vars": ["x1", "t1"], "terms": [{"c": "1", "e": [0, MAX_U_EXPONENT]},
                                              {"c": "2", "e": [1, 0]}]}
    [u] = _parse_inputs([record])
    assert u == Poly.monomial(("x1", "t1"), (0, MAX_U_EXPONENT)) + Poly.var(("x1", "t1"), "x1", 2)
