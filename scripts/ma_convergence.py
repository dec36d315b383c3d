#!/usr/bin/env python3
"""Mass-convergence experiment for the wedge-power operator.

Approximates a convex quadratic from above by u_j = q + (1/j)|x|^2 and
tabulates the inner-region masses of the squared operator; the decaying
successive differences demonstrate a well-defined limit mass.

Usage: ma_convergence.py [steps] [seed] [--csv]

steps must be in 2..10000, the cap of ``cfx ma --convergence``.  Anything
else on the command line exits 2 with a usage line.
"""

import argparse
import sys
from fractions import Fraction

from cfx.boundary import TangentFrame
from cfx.cli import MAX_CONVERGENCE
from cfx.groups import GroupSpec
from cfx.ma import Region, convergence_experiment
from cfx.randgen import SectionGenerator


def main(steps: int = 64, seed: int = 7, csv: bool = False) -> int:
    frame = TangentFrame(GroupSpec.right_qh(2))
    gen = SectionGenerator(seed)
    q = gen.psh_quadratic(frame.vars, 8)
    inner = Region.cube(11, Fraction(1, 4))
    frame_report = convergence_experiment(q, frame, inner, steps=steps)
    masses = frame_report["masses"]
    if csv:
        print("j,mass")
        for j, m in enumerate(m for m in masses if not isinstance(m, str)):
            print(f"{j + 1},{m!r}")
    else:
        print(f"quadratic seed {seed}, {steps} steps")
        shown = [m for m in masses if not isinstance(m, str)]
        for j, m in enumerate(shown):
            print(f"  j={j + 1:<3d} mass={m:.10f}")
        print(f"final successive difference: {frame_report['final_difference']:.3e}")
        print(f"monotone decay: {frame_report['monotone']}")
    return 0 if frame_report["pass"] else 1


if __name__ == "__main__":
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("steps", type=int, nargs="?", default=64)
    parser.add_argument("seed", type=int, nargs="?", default=7)
    parser.add_argument("--csv", action="store_true")
    # --csv may stand anywhere, before, between or after the numbers
    args = parser.parse_intermixed_args()
    # before any frame is built: fewer than 2 steps have no difference to
    # decay, and the cap is the one cfx ma --convergence keeps
    if not 2 <= args.steps <= MAX_CONVERGENCE:
        parser.error(f"steps must be in 2..{MAX_CONVERGENCE}")
    sys.exit(main(args.steps, args.seed, args.csv))
