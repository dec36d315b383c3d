#!/usr/bin/env python3
"""Classify a batch of random groups and tabulate how common each class is.

Usage: classify_random.py [count] [seed]

count must be at least 1.  Anything else on the command line exits 2 with a usage line.
"""

import argparse
import sys
from collections import Counter

from cfx.groups import GroupSpec, classify
from cfx.randgen import SectionGenerator


def main(count: int = 100, seed: int = 1) -> int:
    gen = SectionGenerator(seed)
    tally = Counter()
    for t in range(count):
        g = gen.spawn(t)
        n = g.rng.choice([1, 2])
        group = GroupSpec(n, tuple(tuple(r) for r in g.symmetric_matrix(4 * n)))
        result = classify(group)
        key = (result["right_type"], result["stratified"],
               result["condition_H"]["verdict"])
        tally[key] += 1
        if not result["routes_agree"]:
            print(f"ROUTE DISAGREEMENT at trial {t}", file=sys.stderr)
            return 1
    print(f"{count} random groups (seed {seed})")
    print(f"{'right-type':>12} {'stratified':>12} {'central pairing':>16} {'count':>7}")
    for (rt, st, ch), c in sorted(tally.items(), key=lambda kv: -kv[1]):
        print(f"{str(rt):>12} {str(st):>12} {ch:>16} {c:>7}")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("count", type=int, nargs="?", default=100)
    parser.add_argument("seed", type=int, nargs="?", default=1)
    args = parser.parse_args()
    if args.count < 1:
        parser.error("count must be at least 1")
    sys.exit(main(args.count, args.seed))
