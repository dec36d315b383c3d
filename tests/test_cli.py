import json

import pytest

from cfx.cli import main


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
    code, _, err = run(capsys, "verify", "boundary", "--group", "leftQH",
                       "--n", "1", "--check", "subcomplex")
    assert code == 2 and "right-type" in err


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


def test_ma_requires_right_type(capsys):
    code, _, err = run(capsys, "ma", "--group", "leftQH", "--n", "2")
    assert code == 3
    assert "precondition" in err


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
    from cfx.reports import Report

    def fake_suite(*args, **kwargs):
        return Report("flat-composition", {}, 0, False, "nonzero")

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
                                     '{"phi": [1]}'])
def test_malformed_group_file_exits_2(tmp_path, capsys, command, content):
    path = tmp_path / "group.json"
    path.write_text(content)
    _assert_input_error(*run(capsys, *command, "--file", str(path)))


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
    assert max(gen.spawn(t).poly(x_vars(2)).total_degree() for t in range(20)) > 6


@pytest.mark.parametrize("exponent", ["1.5", '"1"', "true"])
def test_ma_rejects_non_integer_u_exponent(tmp_path, capsys, exponent):
    names = '["x1", "x2", "x3", "x4", "t1", "t2", "t3"]'
    path = tmp_path / "u.json"
    path.write_text(f'[{{"vars": {names}, "terms": [{{"c": ["1", "0"], '
                    f'"e": [2, 0, 0, {exponent}, 0, 0, 0]}}]}}]')
    code, out, err = run(capsys, "ma", "--group", "rightQH", "--n", "1", "--u", str(path))
    _assert_input_error(code, out, err)
    assert "exponent" in err


@pytest.mark.parametrize("n", ["1", "3"])
def test_ma_rejects_convergence_away_from_n_2(capsys, n):
    code, out, err = run(capsys, "ma", "--group", "rightQH", "--n", n,
                         "--convergence", "64")
    _assert_input_error(code, out, err)
    assert "--convergence" in err
