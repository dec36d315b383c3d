"""Seeded CLI item lists for the cfx benchmark.

An item is one ``cfx`` command: an argv list plus the group JSON files it
reads.  File arguments are written as ``{dir}/<name>``; the runner puts the
files in a scratch directory and substitutes its path.  Everything is drawn
from ``random.Random`` seeded with the workload name and the benchmark seed,
never from the program under test, so the inputs stay the same when the
program changes.

A workload is a number of *rounds*.  A round holds every item kind of the
workload once, with fresh random inputs, so a run that spans several rounds
averages over many inputs.  Round r draws from its own generator, so a run
of more rounds extends a shorter one and item ids stay stable.  The number
of rounds is a function of ``--seconds`` only (see ``rounds_for``): the same
seed and seconds give the same work on every commit.
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("flat", "symbol-classify", "boundary-ma")

# Seconds one round took at the commit that defined the benchmark (Python
# 3.11, one core).  They turn --seconds into a fixed number of rounds.
ROUND_SECONDS = {"flat": 0.6, "symbol-classify": 8.5, "boundary-ma": 17.5}
# Fewest rounds of a run.  Item costs come in clusters, and a run needs a few
# rounds of random inputs before its quantiles and its total stop depending
# on which inputs the seed drew: 42 items for symbol-classify, 34 (two dense
# random groups of each size, about 40 s) for boundary-ma.
MIN_ROUNDS = {"flat": 4, "symbol-classify": 3, "boundary-ma": 2}

FLAT_DEGREES = (2, 3, 4)


def rounds_for(workload: str, seconds: float) -> int:
    return max(MIN_ROUNDS[workload], round(seconds / ROUND_SECONDS[workload]))


def _seed_for(rng: random.Random) -> int:
    return rng.randrange(1, 1_000_000)


def _nonzero(rng: random.Random, bound: int = 3) -> int:
    value = 0
    while value == 0:
        value = rng.randint(-bound, bound)
    return value


def symmetric_matrix(rng: random.Random, n: int) -> list:
    """Dense random symmetric 4n x 4n integer matrix (no zero entries)."""
    size = 4 * n
    s = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            s[i][j] = s[j][i] = _nonzero(rng)
    return s


def right_type_matrix(rng: random.Random, n: int) -> list:
    """Dense random symmetric matrix whose 4x4 blocks meet the right-type conditions.

    For every block s = S[4l:4l+4, 4m:4m+4] the conditions are
    tr s = 0, s01 - s10 + s23 - s32 = 0, s02 - s20 - s13 + s31 = 0 and
    s03 - s30 + s12 - s21 = 0.  The free entries are drawn, the entries
    s33, s32, s31, s30 are solved for, and the mirror block keeps S
    symmetric.
    """
    s = symmetric_matrix(rng, n)
    for l in range(n):
        for m in range(l, n):
            i, j = 4 * l, 4 * m
            s[i + 3][j + 3] = -(s[i][j] + s[i + 1][j + 1] + s[i + 2][j + 2])
            if l != m:
                s[i + 3][j + 2] = s[i][j + 1] - s[i + 1][j] + s[i + 2][j + 3]
                s[i + 3][j + 1] = s[i + 2][j] - s[i][j + 2] + s[i + 1][j + 3]
                s[i + 3][j] = s[i][j + 3] + s[i + 1][j + 2] - s[i + 2][j + 1]
            for a in range(4):
                for b in range(4):
                    s[j + b][i + a] = s[i + a][j + b]
    return s


def is_right_type(s: list) -> bool:
    """The four linear block conditions, checked independently of cfx."""
    n = len(s) // 4
    for l in range(n):
        for m in range(n):
            b = [row[4 * m:4 * m + 4] for row in s[4 * l:4 * l + 4]]
            conditions = (
                b[0][0] + b[1][1] + b[2][2] + b[3][3],
                b[0][1] - b[1][0] + b[2][3] - b[3][2],
                b[0][2] - b[2][0] - b[1][3] + b[3][1],
                b[0][3] - b[3][0] + b[1][2] - b[2][1],
            )
            if any(conditions):
                return False
    return True


def group_file(s: list) -> str:
    return json.dumps({"n": len(s) // 4, "S": [[str(x) for x in row] for row in s]},
                      sort_keys=True)


def _item(item_id: str, argv: list, files: dict | None = None, **expect) -> dict:
    return {"id": item_id, "argv": argv, "files": files or {}, "expect": expect}


def flat_round(rng: random.Random, base: random.Random, r: int) -> list:
    # Each (n, k) cycles through the degrees from a seeded offset, so every
    # three rounds hold each degree once and the cost of a run barely
    # depends on the seed.
    items = []
    for n in (1, 2):
        for k in range(2 * n + 1):
            d = FLAT_DEGREES[(r + base.randrange(len(FLAT_DEGREES))) % len(FLAT_DEGREES)]
            items.append(_item(
                f"r{r}/flat-n{n}-k{k}-d{d}",
                ["verify", "flat", "--n", str(n), "--k", str(k), "--degree", str(d),
                 "--trials", "1", "--seed", str(_seed_for(rng))],
                kind="flat", n=n, k=k, degree=d))
    return items


def symbol_classify_round(rng: random.Random, base: random.Random, r: int) -> list:
    items = []
    for n in (1, 2):
        for k in range(2 * n + 1):
            items.append(_item(
                f"r{r}/symbol-n{n}-k{k}",
                ["symbol", "--n", str(n), "--k", str(k), "--trials", "1",
                 "--seed", str(_seed_for(rng))],
                kind="symbol", n=n, k=k))
    groups = [("sym", n, symmetric_matrix(rng, n)) for n in (1, 2, 3)]
    groups += [("rt", n, right_type_matrix(rng, n)) for n in (1, 2)]
    # One n = 1 group per round, symmetric and right-type in turns, is also
    # classified with the exact determinant.  With this share the median
    # item falls inside the cluster of 0.3 s symbol items, not in the gap
    # between them and the 0.6 s exact items.
    exact_tag = "sym" if r % 2 == 0 else "rt"
    for tag, n, s in groups:
        name = f"r{r}-{tag}{n}.json"
        files = {name: group_file(s)}
        modes = ("sampled", "exact") if (n, tag) == (1, exact_tag) else ("sampled",)
        for mode in modes:
            argv = ["classify", "--file", "{dir}/" + name]
            if mode == "exact":
                argv += ["--condition-h", "exact"]
            items.append(_item(f"r{r}/classify-{tag}{n}-{mode}", argv, files,
                               kind="classify", n=n, mode=mode,
                               right_type=is_right_type(s)))
    return items


def boundary_ma_round(rng: random.Random, base: random.Random, r: int) -> list:
    items = []
    for n in (1, 2):
        name = f"r{r}-rt{n}.json"
        files = {name: group_file(right_type_matrix(rng, n))}
        sources = [("rightQH", ["--group", "rightQH", "--n", str(n)], {}, True),
                   ("leftQH", ["--group", "leftQH", "--n", str(n)], {}, False),
                   (f"rt{n}", ["--file", "{dir}/" + name], files, True)]
        for tag, group_args, group_files, right in sources:
            for k in (1, 2):
                items.append(_item(
                    f"r{r}/boundary-{tag}-n{n}-k{k}",
                    ["verify", "boundary", *group_args, "--k", str(k),
                     "--check", "all", "--trials", "1", "--seed", str(_seed_for(rng))],
                    group_files, kind="boundary", n=n, k=k, right_type=right))
        for tag, group_args, group_files, right in sources:
            if not right:
                continue
            powers = range(1, n + 1)
            if group_files and n == 2:
                # One n = 2 wedge-power item on a dense group takes about 8 s,
                # so the random group takes the two powers in turns: any two
                # consecutive rounds still run every power on it.
                powers = (1 + r % 2,)
            for power in powers:
                argv = ["ma", *group_args, "--power", str(power),
                        "--seed", str(_seed_for(rng))]
                if n == 2:
                    argv += ["--convergence", "64"]
                items.append(_item(f"r{r}/ma-{tag}-n{n}-p{power}", argv, group_files,
                                   kind="ma", n=n, power=power))
    return items


_ROUNDS = {"flat": flat_round, "symbol-classify": symbol_classify_round,
           "boundary-ma": boundary_ma_round}


def round_items(workload: str, seed: int, r: int) -> list:
    """Items of round ``r`` of ``workload`` for ``seed``."""
    if workload not in _ROUNDS:
        raise KeyError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    base = random.Random(f"cfx-bench:{workload}:{seed}")
    rng = random.Random(f"cfx-bench:{workload}:{seed}:{r}")
    return _ROUNDS[workload](rng, base, r)


def generate(workload: str, seed: int, rounds: int) -> list:
    """The seeded items of the first ``rounds`` rounds of ``workload``."""
    return [item for r in range(rounds) for item in round_items(workload, seed, r)]
