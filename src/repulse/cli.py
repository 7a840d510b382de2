"""Command-line front end.

Subcommands cover the integer scans and audits, the greedy set builder,
sieve bound checks, the two lemma verifiers, catalog verification, constant
evaluation, and single-integer profiles.  Exit codes: 0 success, 1 a
violation was found (and printed), 2 usage error, 3 I/O failure.

Output is deterministic: worker count never changes bytes written to
stdout, and anything timing-dependent goes to stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import random
import sys
from fractions import Fraction
from typing import IO, Iterable, Iterator, Optional

from . import __version__, arith, bounds, catalog, largesieve, repulsive, search

FORMATS = ("jsonl", "csv", "human")


# ----- output plumbing -----


def _open_output(path: Optional[str]) -> tuple[IO[str], bool]:
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8"), True


def _human_value(v: object) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"  # human output rounds to 6 significant digits
    if isinstance(v, (list, tuple, dict)):
        return json.dumps(v, separators=(",", ":"))
    return str(v)


def _csv_value(v: object) -> object:
    if isinstance(v, (list, tuple, dict)):
        return json.dumps(v, separators=(",", ":"))
    return v


def emit_rows(rows: Iterable[dict], fmt: str, out: IO[str]) -> None:
    """Stream dict rows in the requested format; rows must share their keys.

    Each row is written as soon as it arrives, never batched: a sparse scan
    shows each hit on a terminal when it is found, not when the scan ends.
    """
    if fmt == "jsonl":
        for row in rows:
            out.write(json.dumps(row) + "\n")
    elif fmt == "csv":
        writer = None
        for row in rows:
            if writer is None:
                writer = csv.DictWriter(out, fieldnames=list(row), lineterminator="\n")
                writer.writeheader()
            writer.writerow({k: _csv_value(v) for k, v in row.items()})
    else:
        for row in rows:
            out.write(" ".join(f"{k}={_human_value(v)}" for k, v in row.items()) + "\n")


# ----- argument helpers -----


def _float_arg(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _int_arg(text: str) -> int:
    # accepts plain integers and scientific shorthand like 1e7
    try:
        return int(text)
    except ValueError:
        value = _float_arg(text)
        if value != int(value):
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        return int(value)


def _positive_int_arg(text: str) -> int:
    value = _int_arg(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _sign_arg(text: str) -> int:
    if text in ("+1", "1"):
        return 1
    if text == "-1":
        return -1
    raise argparse.ArgumentTypeError(f"sign must be +1 or -1, got {text!r}")


def _default_jobs() -> int:
    return os.cpu_count() or 1


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=FORMATS, default="jsonl")
    sub.add_argument("--output", default=None, metavar="PATH",
                     help="write to PATH instead of stdout")


# ----- subcommand handlers (each returns the exit code) -----


def cmd_scan(args: argparse.Namespace, out: IO[str]) -> int:
    sols = search.scan(args.lo, args.hi, args.variant, args.sign,
                       min_m=args.min_m, jobs=args.jobs)
    emit_rows((s.to_json() for s in sols), args.format, out)
    return 0


def cmd_audit(args: argparse.Namespace, out: IO[str]) -> int:
    run = search.lehmer_audit if args.conjecture == "lehmer" else search.subbarao_audit
    rep = run(args.hi, jobs=args.jobs)
    row = rep.to_json()
    wall = row.pop("wall_time")  # timing goes to stderr to keep stdout deterministic
    print(f"wall_time: {wall:.3f}s", file=sys.stderr)
    emit_rows([row], args.format, out)
    return 0 if rep.ok else 1


def cmd_greedy(args: argparse.Namespace, out: IO[str]) -> int:
    u = repulsive.greedy_construct(args.x, args.a, args.start)
    st = repulsive.stats(u, args.x)
    emit_rows([{
        "a": u.a,
        "start": args.start,
        "x": args.x,
        "size": len(u.primes),
        "p_u": st.p_u,
        "s_u": st.s_u,
        "theta_u": st.theta_u,
        "primes": list(u.primes),
    }], args.format, out)
    return 0


def _load_prime_set(path: str) -> repulsive.PrimeSet:
    with open(path, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    if not isinstance(raw, dict) or not {"a", "primes", "cutoff"} <= raw.keys():
        raise ValueError(f"set file {path} needs keys a, primes, cutoff")
    a, members, cutoff = raw["a"], raw["primes"], raw["cutoff"]
    # type() is exact, so a bool (an int subclass) is refused as a number
    if type(a) is not int:
        raise ValueError(f"set file {path}: a must be an integer, got {a!r}")
    if type(members) is not list or any(type(p) is not int for p in members):
        raise ValueError(f"set file {path}: primes must be a list of integers")
    if type(cutoff) not in (int, float):
        raise ValueError(f"set file {path}: cutoff must be a number, got {cutoff!r}")
    return repulsive.PrimeSet(a=a, primes=tuple(members), cutoff=cutoff)


def cmd_sieve(args: argparse.Namespace, out: IO[str]) -> int:
    u = _load_prime_set(args.set)
    system = largesieve.from_prime_set(u, start=0, x_len=args.x)
    # The bound first: it refuses an unsupported --w before the costly count.
    bound = largesieve.survivor_bound(args.x, args.w, system)
    survivors = largesieve.survivor_count(system, args.w)
    emit_rows([{
        "x": args.x,
        "w": args.w,
        "Z": survivors,
        "bound": bound,
        "slack": bound - survivors,
    }], args.format, out)
    return 0 if survivors <= bound else 1


def random_lemma21_trial(rng: random.Random) -> tuple[dict, list[int], int]:
    """One random nonnegative multiplicative table, sieve set, and cutoff."""
    pool = (2, 3, 5, 7, 11, 13)
    table: dict[tuple[int, int], Fraction] = {}
    for p in pool:
        for e in range(1, rng.randint(1, 3) + 1):
            if p**e > 400:
                break
            num = rng.randint(0, 6)
            if num:
                table[(p, e)] = Fraction(num, rng.randint(1, 6))
    u = sorted(rng.sample(pool, rng.randint(1, 3)))
    x = rng.randint(30, 400)
    return table, u, x


def cmd_lemma21(args: argparse.Namespace, out: IO[str]) -> int:
    rng = random.Random(args.seed)
    failed = False

    def rows() -> Iterator[dict]:
        nonlocal failed
        for trial in range(args.trials):
            table, u, x = random_lemma21_trial(rng)
            chk = largesieve.lemma21_check(table, u, x)
            failed = failed or not chk.holds
            yield {"trial": trial, "lhs": float(chk.lhs), "rhs": float(chk.rhs),
                   "holds": chk.holds}

    emit_rows(rows(), args.format, out)
    return 1 if failed else 0


def cmd_lemma22(args: argparse.Namespace, out: IO[str]) -> int:
    if args.lo < 2:
        raise ValueError(f"--from must be >= 2, got {args.lo}")
    if args.hi > largesieve.MAX_TAU_TABLE:
        raise ValueError(f"--to must be <= {largesieve.MAX_TAU_TABLE}, got {args.hi}")
    violated = False

    def rows() -> Iterator[dict]:
        nonlocal violated
        for y in range(args.lo, args.hi + 1, args.step):
            margin = largesieve.lemma22_margin(y)
            violated = violated or (margin <= 0 and y >= 60)
            yield {"y": y, "margin": margin}

    emit_rows(rows(), args.format, out)
    return 1 if violated else 0


def cmd_verify_constants(args: argparse.Namespace, out: IO[str]) -> int:
    cat = catalog.load_catalog(args.catalog)
    names = args.entry or None
    completed = catalog.verify_all(cat, grid=args.grid, tolerance=args.tolerance,
                                   names=names)
    rows = [c.to_json() for c in completed]
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(rows, handle, indent=2)
            handle.write("\n")
    emit_rows(rows, args.format, out)
    return 1 if any(c.verdict == "exceed" for c in completed) else 0


_EVAL_ONE_ARG = {**bounds._CORRECTION_FNS, "delta1": bounds.delta1}


def cmd_eval(args: argparse.Namespace, out: IO[str]) -> int:
    if args.fn in _EVAL_ONE_ARG:
        if args.t is None:
            raise ValueError(f"--fn {args.fn} requires --t")
        value = _EVAL_ONE_ARG[args.fn](args.t)
    elif args.fn == "thm21":
        if args.x is None or args.p_u is None:
            raise ValueError("--fn thm21 requires --x and --p-u")
        value = bounds.thm21_pi_bound(args.x, args.p_u)
    else:  # pu-upper
        if args.x is None or args.theta_u is None:
            raise ValueError("--fn pu-upper requires --x and --theta-u")
        value = bounds.pu_upper_eq32(args.x, args.theta_u)
    out.write(f"{value:.15g}\n")  # 15 significant digits
    return 0


def cmd_profile(args: argparse.Namespace, out: IO[str]) -> int:
    pr = arith.profile(arith.factor(args.n))
    emit_rows([arith.profile_to_json(pr)], args.format, out)
    return 0


# ----- parser -----


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repulse",
        description="Scans, audits, and bound checks for totient-style equations.")
    catalog_version = catalog.load_catalog().version
    parser.add_argument("--version", action="version",
                        version=f"repulse {__version__} (catalog {catalog_version})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scan", help="stream exact-multiplier solutions over a range")
    p.add_argument("--variant", choices=search.VARIANTS, required=True)
    p.add_argument("--sign", type=_sign_arg, required=True)
    p.add_argument("--from", dest="lo", type=_int_arg, default=2)
    p.add_argument("--to", dest="hi", type=_int_arg, required=True)
    p.add_argument("--min-m", dest="min_m", type=_int_arg, default=None,
                   help="multiplier floor; defaults to 2 (totients) or 1 (psi/usigma)")
    p.add_argument("--jobs", type=_positive_int_arg, default=_default_jobs())
    _add_common(p)
    p.set_defaults(handler=cmd_scan)

    p = sub.add_parser("audit", help="divisor audits over [2, hi]")
    p.add_argument("--conjecture", choices=("lehmer", "subbarao"), required=True)
    p.add_argument("--to", dest="hi", type=_int_arg, required=True)
    p.add_argument("--jobs", type=_positive_int_arg, default=_default_jobs())
    _add_common(p)
    p.set_defaults(handler=cmd_audit)

    p = sub.add_parser("greedy", help="greedy self-repulsive set up to a cutoff")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--start", type=_int_arg, required=True)
    p.add_argument("--x", type=_float_arg, required=True)
    _add_common(p)
    p.set_defaults(handler=cmd_greedy)

    p = sub.add_parser("sieve", help="survivor count vs. large-sieve bound")
    p.add_argument("--x", type=_float_arg, required=True, help="window length")
    p.add_argument("--w", type=_float_arg, required=True, help="sieve level")
    p.add_argument("--set", required=True, metavar="FILE",
                   help="JSON file with keys a, primes, cutoff")
    _add_common(p)
    p.set_defaults(handler=cmd_sieve)

    p = sub.add_parser("lemma21", help="randomized restricted-sum inequality trials")
    p.add_argument("--trials", type=_positive_int_arg, default=20)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(handler=cmd_lemma21)

    p = sub.add_parser("lemma22", help="divisor-average margin over a range of y")
    p.add_argument("--from", dest="lo", type=_int_arg, default=60)
    p.add_argument("--to", dest="hi", type=_int_arg, default=10**6)
    p.add_argument("--step", type=_positive_int_arg, default=1)
    _add_common(p)
    p.set_defaults(handler=cmd_lemma22)

    p = sub.add_parser("verify-constants", help="recompute the constant catalog")
    p.add_argument("--entry", action="append", metavar="NAME",
                   help="verify only these entries (repeatable)")
    p.add_argument("--tolerance", type=_float_arg, default=None)
    p.add_argument("--grid", type=_int_arg, default=None)
    p.add_argument("--catalog", default=None, metavar="FILE",
                   help="load this catalog JSON instead of the packaged one")
    p.add_argument("--report", default=None, metavar="FILE",
                   help="also write the full report array to FILE")
    _add_common(p)
    p.set_defaults(handler=cmd_verify_constants)

    p = sub.add_parser("eval", help="evaluate one bound function")
    p.add_argument("--fn", choices=sorted(_EVAL_ONE_ARG) + ["thm21", "pu-upper"],
                   required=True)
    p.add_argument("--t", type=_float_arg, default=None)
    p.add_argument("--x", type=_float_arg, default=None)
    p.add_argument("--p-u", dest="p_u", type=_float_arg, default=None)
    p.add_argument("--theta-u", dest="theta_u", type=_float_arg, default=None)
    p.add_argument("--output", default=None, metavar="PATH")
    p.set_defaults(handler=cmd_eval, format="human")

    p = sub.add_parser("profile", help="multiplicative profile of one integer")
    p.add_argument("--n", type=_int_arg, required=True)
    _add_common(p)
    p.set_defaults(handler=cmd_profile)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        out, owns = _open_output(getattr(args, "output", None))
    except OSError as exc:
        print(f"repulse: cannot open output: {exc}", file=sys.stderr)
        return 3
    try:
        return args.handler(args, out)
    except BrokenPipeError:
        return 0
    except (OSError, json.JSONDecodeError) as exc:
        print(f"repulse: I/O error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError) as exc:
        reason = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"repulse: {reason}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # an input beyond float range, e.g. eval --t 1e200
        print(f"repulse: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        if owns:
            out.close()
        else:
            out.flush()


if __name__ == "__main__":
    sys.exit(main())
