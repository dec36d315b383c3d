"""Byte-identity guard: seeded CLI runs whose stdout must not change.

Each command's exit code and the sha256 of its stdout are pinned.  A change
that is meant to alter one of these reports updates its digest here and
says why in CHANGES.md.
"""

import hashlib
import importlib.util
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from cfx.cli import main
from cfx.groups import GroupSpec
from cfx.randgen import SectionGenerator
from test_groups import group_to_json

GOLDEN = [
    ("verify flat --n 1 --k 2 --degree 4 --trials 2 --seed 3",
     "aa1b2a7b083f579ece4c462dc30e473c29f9d8a380355283a2dad77e091e428d"),
    ("verify flat --n 2 --k 3 --degree 3 --trials 1 --seed 4",
     "c57280391909acb59b176d6b6edde724fe7f319bcf5bab65058b3a3af8ca6aaa"),
    ("verify boundary --group leftQH --n 2 --k 2 --check all --trials 1 --seed 5",
     "683f061811ccf8304a49f345b4850d791ce01fb81089e7ba9202a4030f42c1cb"),
    ("verify boundary --group rightQH --n 2 --k 1 --check all --trials 1 --seed 6",
     "c1d412f84634314f4519dd772adefe0fae24702013967cef92f50d6403cd56eb"),
    ("ma --group rightQH --n 1 --power 1 --seed 1",
     "22045fc481307be0ca7e869fdf2ab5183c5e02fe6df9a075fb7c2e38e6e74506"),
    ("symbol --n 2 --k 2 --trials 1 --seed 2",
     "a0f7e84e54d27e9a0713b4cae3837716b27e0437f000679e1a1b9940e7fdba6e"),
    ("classify --group leftQH --n 2 --condition-h exact",
     "4e26287851c6e7271daadf330e0b3cf81b5a632b76693b40899fa6d18f27d469"),
    ("classify --group rightQH --n 3 --condition-h exact",
     "f3f39cc42f18db0369ae3f37bcc495fb4f1b13c3bb2b444e3d6b6a8ae8f12543"),
    ("ma --group rightQH --n 2 --power 2 --seed 3 --convergence 64",
     "41ae7e5f6f1d43977b93247b4bd8356de969d53518ab426910fef92f62258540"),
    # levels above the middle: the ascending branch of the tuple operator
    ("verify flat --n 2 --k 1 --degree 4 --trials 2 --seed 9",
     "f5605de1dc48248bca1c3a48a597fb666398bbb4b2da51d17d66344a6e0d167b"),
    # the diagonal identity alone, above the middle weight: k = 3 has two 2L slots
    ("verify boundary --group rightQH --n 1 --k 3 --check hodge --trials 2 --seed 8",
     "9da836c2fba3dc2a8dfa7f2427dd4e0c38385a75717422cc837545ff6735ffca"),
    # a box whose r^4 = (2/3)^4 is not dyadic: the cutoff masses and the
    # nonzero Stokes face terms are exact non-dyadic rationals
    ("ma --group rightQH --n 2 --power 1 --halfwidth 2/3 --seed 2",
     "288716572e602eacf5087857e4ab9b2e9fc9feb76a911c2fbc54aef62fabe9d0"),
]


@pytest.mark.parametrize("command, digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_report_bytes_are_pinned(command, digest, capsys):
    code = main(command.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_dense_right_type_ma_report_is_pinned(tmp_path, capsys):
    """The n = 2 `ma` paths (cutoff mass, Stokes, 64-step convergence) on a
    dense right-type group, whose Stokes terms and cutoff masses are exact
    non-dyadic rationals: the pin holds each one rounded once, and the
    residuals and the agreement at exactly 0.0."""
    group = GroupSpec(2, SectionGenerator(1).right_type_matrix(2))
    path = tmp_path / "group.json"
    path.write_text(json.dumps(group_to_json(group)))
    code = main(["ma", "--file", str(path), "--power", "2", "--convergence", "64"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "b08c1a16f7aa8f1afc9a09859002a3c3a27e9cee3b78fea42687ba90971ef132"


def test_dense_right_type_ma_report_on_a_non_dyadic_box_is_pinned(tmp_path, capsys):
    """The n = 1 `ma` paths on a dense right-type group over the box of
    half-width 3/4, whose r^4 is not dyadic: the cutoff masses and the
    nonzero Stokes face terms carry its denominators."""
    group = GroupSpec(1, SectionGenerator(2).right_type_matrix(1))
    path = tmp_path / "group.json"
    path.write_text(json.dumps(group_to_json(group)))
    code = main(["ma", "--file", str(path), "--power", "1", "--halfwidth", "3/4",
                 "--seed", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "80c063342ee40873c0c77b00f4391776ceefa663585b028b9df823ae79c1babf"


def test_dense_not_right_type_boundary_report_is_pinned(tmp_path, capsys):
    """Every boundary check on a dense n = 2 group that is not right-type:
    the E0 couplings of the boundary operator, anticommutation with nonzero
    curvature and brackets with nonzero curvature entries."""
    S = SectionGenerator(5).symmetric_matrix(8)
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"n": 2, "S": [[str(x) for x in row] for row in S]}))
    code = main(["verify", "boundary", "--file", str(path), "--check", "all", "--k", "1",
                 "--trials", "1", "--seed", "4"])
    out = capsys.readouterr().out
    assert code == 0 and '"right_type": false' in out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "aa4f1e3c4f1016cc0968ef210e14e1118bd2eb9b98959220a057a757f923122f"


def test_dense_right_type_boundary_report_is_pinned(tmp_path, capsys):
    """Every boundary check on a dense n = 2 right-type group: the paired
    rows of the bracket suite and the diagonal identity on a frame whose
    fields have dense coefficients."""
    group = GroupSpec(2, SectionGenerator(2).right_type_matrix(2))
    path = tmp_path / "group.json"
    path.write_text(json.dumps(group_to_json(group)))
    code = main(["verify", "boundary", "--file", str(path), "--check", "all", "--k", "2",
                 "--trials", "1", "--seed", "8"])
    out = capsys.readouterr().out
    assert code == 0 and '"paired_rows_cancel": true' in out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "ca8e8abdb2032ad11ea79778282e496ccfd5e46d44f63e303896194d40760f0f"


def _dense_rational_group() -> dict:
    """A dense n = 2 symmetric S with denominators among 1, 2, 3, 6 and 7."""
    rng = random.Random(15)
    size = 8
    m = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            m[i][j] = m[j][i] = Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 6, 7]))
    return {"n": 2, "S": [[str(x) for x in row] for row in m]}


CLASSIFY_FILES = [
    # dense symmetric n = 3: 28 Pfaffians fix the condition-H form, and the
    # whole direction grid is clean
    ("dense-symmetric-n3",
     {"n": 3, "S": [[str(x) for x in row] for row in SectionGenerator(3).symmetric_matrix(12)]},
     ["--condition-h", "exact"],
     "8e3dcb1ee71e3895cc550a059d9d4279e2bd65d0f14bee1dad1a3b7a371fb280"),
    # not right-type: every block certificate holds non-dyadic residual strings,
    # and condition H runs the whole direction grid
    ("dense-rational-n2", _dense_rational_group(), [],
     "09c6120c338a0d55a7d7798566e226cefcc908e8a4dc261eb9204baf35ffb4b1"),
    # diag(-1, -1, 1, 1): condition H fails with a grid witness
    ("diag-witness-n1",
     {"n": 1, "S": [[str(-int(i == j < 2) + int(i == j >= 2)) for j in range(4)]
                    for i in range(4)]}, [],
     "49001b9fce3b9ff88e5e562f9e1666f58027e8d501510c799f377dc83f302786"),
]


@pytest.mark.parametrize("name, data, args, digest", CLASSIFY_FILES,
                         ids=[name for name, _, _, _ in CLASSIFY_FILES])
def test_classify_file_report_is_pinned(name, data, args, digest, tmp_path, capsys):
    path = tmp_path / "group.json"
    path.write_text(json.dumps(data))
    code = main(["classify", "--file", str(path), *args])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_classify_random_table_is_pinned(capsys):
    """The stdout of ``scripts/classify_random.py 200 1``, run in-process:
    200 random n = 1 and n = 2 groups, 22 of them with a grid zero."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "classify_random.py"
    spec = importlib.util.spec_from_file_location("classify_random", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(200, 1) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "fa65d8bc2d22108813a0146b4d5b1badcf9e9ca6410628bd7685fdc2f66e62d6"
