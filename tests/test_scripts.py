import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def _env():
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))


@pytest.mark.parametrize("script,argv,reason", [
    # max_n 64 would run the n = 4 sequence and up for minutes
    ("symbol_table.py", ["64", "7", "--csv"], "unrecognized arguments: --csv"),
    ("symbol_table.py", ["64", "7"], "max_n must be in 1..3"),
    ("symbol_table.py", ["0"], "max_n must be in 1..3"),
    ("symbol_table.py", ["two"], "invalid int value: 'two'"),
    ("symbol_table.py", ["2", "1", "3"], "unrecognized arguments: 3"),
    ("classify_random.py", ["200", "1", "--csv"], "unrecognized arguments: --csv"),
    ("classify_random.py", ["200", "1", "3"], "unrecognized arguments: 3"),
    ("ma_convergence.py", ["64", "7", "--tsv"], "unrecognized arguments: --tsv"),
    ("ma_convergence.py", ["64", "7", "8", "--csv"], "unrecognized arguments: 8"),
    ("ma_convergence.py", ["1"], "steps must be in 2..10000"),
    ("ma_convergence.py", ["0"], "steps must be in 2..10000"),
    ("ma_convergence.py", ["10001"], "steps must be in 2..10000"),
    ("classify_random.py", ["0"], "count must be at least 1"),
    ("classify_random.py", ["-5"], "count must be at least 1"),
])
def test_script_rejects_bad_arguments_before_any_work(script, argv, reason):
    proc = subprocess.run([sys.executable, str(REPO / "scripts" / script), *argv],
                          capture_output=True, text=True, env=_env(), timeout=30)
    assert proc.returncode == 2 and proc.stdout == ""
    usage, error = proc.stderr.splitlines()
    assert usage.startswith(f"usage: {script} ")
    assert error.startswith(f"{script}: error: ") and reason in error


def test_acceptance_runner_finds_its_suite_from_any_directory(tmp_path):
    proc = subprocess.run([sys.executable, str(REPO / "scripts" / "run_acceptance.py"),
                           "-k", "criterion_03", "-q", "-p", "no:cacheprovider"],
                          capture_output=True, text=True, env=_env(), cwd=tmp_path,
                          timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "ACCEPTANCE 03" in proc.stdout and "1 passed" in proc.stdout
