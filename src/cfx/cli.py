"""Command-line front end: classify groups, run verification suites, tables.

Exit codes: 0 pass, 1 verification failure, 2 input error, 3 precondition
violation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from functools import cache
from itertools import chain

from .boundary import BoundarySpec, PreconditionError, TangentFrame, bracket_identity, hodge_diag
from .exterior import from_hat_components
from .flat import ComplexSpec, check_exactness
from .groups import GROUP_NAMES, GroupSpec, classify, group_from_phi
from .ma import (Region, cln_experiment, convergence_experiment,
                 key_identity_check, stokes_check)
from .poly import Poly, unpack
from .randgen import SectionGenerator
from .rational import clear_denominators, parse_fraction
from .reports import dumps
from . import verify as suites

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3

# n of `classify`, `verify` and `ma`.  At n = 5, whole process (2-core
# x86_64 host, Python 3.11, best of 5): `classify`, `ma` and `verify
# boundary` take 0.07-0.46 s on rightQH and on dense groups, `verify flat
# --k 12 --degree 6` 0.47-0.50 s, each under 25 MB.
MAX_N = 5
# `symbol` keeps 3: one n = 4 covector takes 5.0 s at k = 12 (n = 3: 0.4 s).
MAX_SYMBOL_N = 3
MAX_DEGREE = 6
# Measured on a 2-core x86_64 host, Python 3.11, whole process.  The
# tuple-equivalence suite of `verify flat` builds fields with 2^k
# components, so its cost grows about 4x per +2 in k: at n = 1, degree 6,
# k = 12 takes 0.4 s and 27 MB, k = 16 takes 6.7 s and 167 MB.
MAX_K = 12
# `ma --convergence N` keeps N - 1 int numerators of the mass differences
# and tests N - 2 int inequalities on them (2-core x86_64 host, Python
# 3.11): `ma --n 2 --power 2` takes 0.09-0.13 s and 16 MB whole process at
# 10^4 steps, as at 64; in process the test alone takes 5 ms at 10^4
# steps, 0.05 s at 10^5 and 0.5 s at 10^6.
MAX_CONVERGENCE = 10_000
# The symbol ranks are proved from lower bounds modulo a prime, whose cost
# does not grow with the entries of the integer covector q v (q the lcm of
# v's denominators); only the exact products and the fallback elimination of
# a rank the bounds leave open do.  At n = 3 and k = 12, the slowest k, a
# covector with 6-bit entries takes 0.4 s whole process and one with 64-bit
# entries 0.7 s in process, with no rank open; with every rank open the
# 6-bit one takes 5.4 s in process (2-core x86_64 host, Python 3.11), and
# the elimination took 26 s on 16-bit entries.  The limit bounds that
# fallback.
MAX_COVECTOR_BITS = 6
# The cutoff rows, jets and moment tables of `ma` grow with the highest
# exponent E of a --u input: one term x1^E on rightQH at n = 1 takes 0.2 s
# at E = 1000, 0.4 s at E = 2000, 1.4 s at E = 5000 and 35 s at E = 30000
# (2-core x86_64 host, Python 3.11, whole process); two inputs at n = 2,
# --power 2, take 0.24 s at E = 1000.  On the default box (--halfwidth 1/2)
# such an input already exits 2 from E = 700 on, its values below the float
# range of the report; a wider box reports larger E.
MAX_U_EXPONENT = 1000


def _read_json(path: str, parse):
    """``parse`` of the JSON in the file at ``path``; an unreadable file, or
    one nested past the decoder's recursion limit, is a ValueError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(json.load(fh))
    except (OSError, KeyError) as exc:
        raise ValueError(str(exc)) from None
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None


def _check_n(n: int, limit: int = MAX_N) -> None:
    if n > limit:
        raise ValueError(f"n={n} exceeds the configured limit {limit}")


def _parse_group(data) -> GroupSpec:
    """The group of a group file, its n checked before any group matrix is
    built: a {"phi"} potential, parsed once, has 4n x-variables, from which
    ``group_from_phi`` reads the 4n x 4n matrix S; an {"n", "S"} record
    states n and goes to ``GroupSpec.from_json``."""
    if isinstance(data, dict) and "phi" in data:
        phi = Poly.from_json(data["phi"])
        _check_n(sum(v.startswith("x") for v in phi.vars) // 4)
        return group_from_phi(phi)
    if isinstance(data, dict) and type(data.get("n")) is int:
        _check_n(data["n"])
    return GroupSpec.from_json(data)


def _load_group(args) -> GroupSpec:
    """The group a command runs on, its n checked before any group matrix is built."""
    if args.file:
        return _read_json(args.file, _parse_group)
    _check_n(args.n)
    return GroupSpec.named(args.group, args.n)


def _parse_inputs(data) -> list:
    """The ``--u`` polynomials: a JSON list of polynomial records, each
    exponent at most ``MAX_U_EXPONENT``."""
    if not isinstance(data, list):
        raise ValueError("--u needs a JSON list of polynomials")
    us = [Poly.from_json(item) for item in data]
    top = max((e for u in us for key in u.num for e in unpack(key, len(u.vars))), default=0)
    if top > MAX_U_EXPONENT:
        raise ValueError(f"a --u exponent of {top} exceeds the configured limit {MAX_U_EXPONENT}")
    return us


def _emit(args, payload) -> None:
    if args.format == "csv":
        text = _to_csv(payload)
    else:
        text = dumps(payload)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write --out file: {exc.strerror}") from None
    else:
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # the reader is gone: drop the rest quietly, the exit code still holds
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)


def _csv_cell(value) -> str:
    """Strings and numbers as they print; dicts, lists, booleans and None as JSON."""
    if isinstance(value, (dict, list, tuple, bool)) or value is None:
        return json.dumps(value, sort_keys=True, default=str)
    return str(value)


def _to_csv(payload) -> str:
    rows = payload if isinstance(payload, list) else payload.get("levels") or [payload]
    keys = sorted({k for row in rows for k in row}) if rows else []
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(keys)
    writer.writerows([_csv_cell(row.get(k, "")) for k in keys] for row in rows)
    return out.getvalue().rstrip("\n")


def _verdict(records) -> int:
    """The exit code of ``verify`` and ``ma``: a pass when every record passes."""
    return EXIT_PASS if all(r["pass"] for r in records) else EXIT_FAIL


def cmd_classify(args) -> int:
    result = classify(_load_group(args), condition_h_mode=args.condition_h)
    _emit(args, result)
    if not result["routes_agree"]:
        print("internal inconsistency: classification routes disagree", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_PASS


def _check_sizes(n: int, args, min_trials: int, n_limit: int = MAX_N) -> None:
    _check_n(n, n_limit)
    if args.k > MAX_K:
        raise ValueError(f"k={args.k} exceeds the configured limit {MAX_K}")
    if args.trials < min_trials:
        raise ValueError(f"--trials must be at least {min_trials}")


def cmd_verify(args) -> int:
    # the limit holds for the group that runs: a --file group brings its own n
    group = _load_group(args) if args.target == "boundary" and args.file else None
    _check_sizes(group.n if group else args.n, args, min_trials=1)
    if not 1 <= args.degree <= MAX_DEGREE:
        raise ValueError(f"--degree must be in 1..{MAX_DEGREE}")
    records = []
    if args.target == "flat":
        records.append(suites.flat_composition_suite(args.n, args.k, args.trials,
                                                     args.seed, args.degree))
        records.append(suites.flat_tuple_equivalence_suite(args.n, args.k,
                                                           max(1, args.trials // 4),
                                                           args.seed + 1, args.degree))
    else:
        group = group or _load_group(args)
        frame = TangentFrame(group)
        wanted = args.check
        if wanted in ("composition", "all"):
            records.append(suites.boundary_composition_suite(
                group, args.k, args.trials, args.seed, min(args.degree, 2), frame))
        if wanted in ("anticommute", "all"):
            records.append(suites.anticommute_suite(group, args.trials, args.seed,
                                                    frame))
        if wanted in ("bracket", "all"):
            records.append(bracket_identity(frame))
        # "all" skips the suites whose domain excludes this input; an explicit
        # check reports why it cannot run
        if wanted == "hodge" or (wanted == "all" and frame.right_type and args.k >= 1):
            records.append(hodge_diag(BoundarySpec(group.n, args.k), frame,
                                      trials=args.trials, seed=args.seed))
        if wanted == "subcomplex":
            records.append(suites.subcomplex_suite(group, args.k, args.trials,
                                                   args.seed, min(args.degree, 2), frame))
    _emit(args, records)
    return _verdict(records)


def cmd_symbol(args) -> int:
    _check_sizes(args.n, args, min_trials=0, n_limit=MAX_SYMBOL_N)
    spec = ComplexSpec(args.n, args.k)
    given = []
    if args.v:
        try:
            vec = [parse_fraction(part) for part in args.v.split(",")]
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad covector: {exc}") from None
        if len(vec) != 4 * (args.n + 1):
            raise ValueError(f"covector needs {4 * (args.n + 1)} entries")
        bits = max(abs(x).bit_length() for x in clear_denominators(vec)[1])
        if bits > MAX_COVECTOR_BITS:
            raise ValueError(f"covector times the lcm of its denominators has an entry of "
                             f"{bits} bits, above the configured limit {MAX_COVECTOR_BITS}")
        if not any(vec):
            raise ValueError("covector must be nonzero")
        given.append(vec)
    elif args.trials == 0:
        raise ValueError("provide --v or --trials > 0")
    # each covector is checked as it is drawn: only the first report is kept
    gen = SectionGenerator(args.seed)
    drawn = (gen.spawn(t).rational_vector(4 * (args.n + 1)) for t in range(args.trials))
    first, all_exact, count = None, True, 0
    for vec in chain(given, drawn):
        result = check_exactness(spec, vec)
        first = first or result
        all_exact = all_exact and result["exact"]
        count += 1
    payload = {
        "n": args.n, "k": args.k, "seed": args.seed,
        "dims": first["dims"],
        "levels": first["levels"],
        "all_exact": all_exact,
        "vectors_checked": count,
    }
    _emit(args, payload)
    return EXIT_PASS if payload["all_exact"] else EXIT_FAIL


def cmd_ma(args) -> int:
    if args.convergence < 0 or args.convergence == 1:
        raise ValueError("--convergence must be 0 (off) or at least 2")
    if args.convergence > MAX_CONVERGENCE:
        raise ValueError(f"--convergence {args.convergence} exceeds the configured "
                         f"limit {MAX_CONVERGENCE}")
    try:
        half = parse_fraction(args.halfwidth)
    except ZeroDivisionError as exc:
        raise ValueError(f"bad --halfwidth: {exc}") from None
    group = _load_group(args)
    # before any input is read or drawn: a huge power would draw that many
    if not 1 <= args.power <= group.n:
        raise ValueError("need between 1 and n inputs")
    us = _read_json(args.u, _parse_inputs) if args.u else None
    if us is not None and len(us) < args.power:
        raise ValueError(f"--power {args.power} needs {args.power} polynomials; "
                         f"the --u file has {len(us)}")
    if us is not None:
        # the polynomials the command reads: the identity's first n, else the first --power
        for i, u in enumerate(us[:group.n] if len(us) >= group.n else us[:args.power], 1):
            if u.vars != group.vars:
                raise ValueError(f"--u polynomial {i} has the variables ({', '.join(u.vars)}); "
                                 f"the group needs ({', '.join(group.vars)})")
    if args.convergence and group.n != 2:
        raise ValueError(f"--convergence runs only at n = 2, not n = {group.n}")
    naxes = 4 * group.n + 3
    K = Region.cube(naxes, half)
    L = Region.cube(naxes, half / 2)
    frame = TangentFrame(group)
    if not frame.right_type:
        raise PreconditionError("the wedge-power operator needs a right-type group")
    gen = SectionGenerator(args.seed)
    if us is None:
        us = [gen.spawn(i).psh_quadratic(frame.vars, 4 * group.n)
              for i in range(args.power)]
    payload = {"seed": args.seed, "n": group.n, "power": args.power}
    # the identity takes n inputs: the first n of a longer --u list
    if len(us) >= group.n:
        payload["key_identity"] = key_identity_check(us[:group.n], frame)
    payload["cln"] = cln_experiment(us[:args.power], K, L, frame)
    hgen = gen.spawn(1001)
    h = hgen.poly(frame.vars, degree=3)
    T = from_hat_components(frame.dim, frame.vars,
                            [hgen.spawn(i).poly(frame.vars, degree=3)
                             for i in range(frame.dim)])
    payload["stokes"] = stokes_check(h, T, K, frame)
    if args.convergence:
        q = gen.spawn(7).psh_quadratic(frame.vars, 8)
        payload["convergence"] = convergence_experiment(q, frame, L, steps=args.convergence)
    _emit(args, payload)
    return _verdict(v for v in payload.values() if isinstance(v, dict))


@cache
def build_parser() -> argparse.ArgumentParser:
    """The ``cfx`` argument parser, built once per process and shared by
    every ``main`` call: no argument has a mutable default or an ``append``
    action, and ``parse_args`` returns a fresh namespace each time.  It holds
    no handler; ``main`` looks that up by command name."""
    parser = argparse.ArgumentParser(
        prog="cfx",
        description="exact verification engine for quaternionic differential complexes")
    sub = parser.add_subparsers(dest="command", required=True)

    # flag groups shared through parent parsers: each command takes only what it reads
    base = argparse.ArgumentParser(add_help=False)
    base.add_argument("--n", type=int, default=2)
    base.add_argument("--out")
    base.add_argument("--format", choices=["json", "csv"], default="json")
    group = argparse.ArgumentParser(add_help=False)
    group.add_argument("--group", choices=GROUP_NAMES, default="rightQH")
    group.add_argument("--file", help="group JSON file")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=1)

    p = sub.add_parser("classify", parents=[base, group], help="classify a group")
    p.add_argument("--condition-h", choices=["exact", "sampled"], default="sampled")

    # one parser per verify target, so flat takes no group and no --check
    targets = sub.add_parser("verify", help="run verification suites").add_subparsers(
        dest="target", required=True)
    suite = argparse.ArgumentParser(add_help=False)
    suite.add_argument("--k", type=int, default=1)
    suite.add_argument("--trials", type=int, default=10)
    suite.add_argument("--degree", type=int, default=3,
                       help="degree of the random sections; verify boundary caps it at 2 "
                            "for composition and subcomplex and runs anticommute at 2 and "
                            "hodge at 3 whatever it is")
    targets.add_parser("flat", parents=[base, seeded, suite], help="the flat complex")
    p = targets.add_parser("boundary", parents=[base, group, seeded, suite],
                           help="the boundary complex of a group")
    p.add_argument("--check", default="all",
                   choices=["all", "composition", "anticommute", "bracket",
                            "hodge", "subcomplex"])

    p = sub.add_parser("symbol", parents=[base, seeded],
                       help="frozen-coefficient rank/exactness table")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--trials", type=int, default=0)
    p.add_argument("--v", help="comma-separated rational covector")

    p = sub.add_parser("ma", parents=[base, group, seeded],
                       help="wedge-power operator experiments")
    p.add_argument("--power", type=int, default=1)
    p.add_argument("--halfwidth", default="1/2")
    p.add_argument("--u", help="JSON file with a list of polynomial inputs")
    p.add_argument("--convergence", type=int, default=0,
                   help="steps for the approximation-mass experiment")
    return parser


def main(argv=None) -> int:
    """Run one ``cfx`` command and return its exit code (0-3).  The handler
    is looked up by command name at each call, not stored in the shared
    parser, so a handler replaced after the first call is the one that runs."""
    args = build_parser().parse_args(argv)
    handlers = {"classify": cmd_classify, "verify": cmd_verify,
                "symbol": cmd_symbol, "ma": cmd_ma}
    try:
        return handlers[args.command](args)
    except PreconditionError as exc:
        print(f"precondition violation: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
