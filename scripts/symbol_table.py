#!/usr/bin/env python3
"""Dimension/rank tables of the frozen-coefficient sequence for small (n, k).

Usage: symbol_table.py [max_n] [seed]

max_n is at most the n limit of ``cfx symbol``; anything else on the command
line exits 2 with a usage line, before any sequence is built.
"""

import argparse
import sys

from cfx.cli import MAX_SYMBOL_N
from cfx.flat import ComplexSpec, check_exactness
from cfx.randgen import SectionGenerator


def main(max_n: int = 2, seed: int = 1) -> int:
    gen = SectionGenerator(seed)
    all_ok = True
    for n in range(1, max_n + 1):
        for k in range(0, 2 * n + 1):
            spec = ComplexSpec(n, k)
            v = gen.spawn(10 * n + k).rational_vector(4 * (n + 1))
            result = check_exactness(spec, v)
            dims = "-".join(map(str, result["dims"]))
            ranks = "-".join(map(str, result["ranks"]))
            status = "exact" if result["exact"] else "RANK DEFECT"
            all_ok = all_ok and result["exact"]
            print(f"n={n} k={k:<2d} dims {dims:<24} ranks {ranks:<20} {status}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("max_n", type=int, nargs="?", default=2)
    parser.add_argument("seed", type=int, nargs="?", default=1)
    args = parser.parse_args()
    if not 1 <= args.max_n <= MAX_SYMBOL_N:
        parser.error(f"max_n must be in 1..{MAX_SYMBOL_N}")
    sys.exit(main(args.max_n, args.seed))
