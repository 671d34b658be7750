"""Command-line front end: analyze a branch, instantiate families, sweep.

All output is UTF-8 JSON on stdout (or --json FILE).  Exit codes: 0 on
success, 1 on an internal or verification failure, 2 on usage or parse
errors.  Sweeps are replayable: the seeded PRNG (Mersenne Twister via
``random.Random``) and the per-trial seed derivation are recorded in the
report, and the worker count never changes the result.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

from .dsl import BranchSpec, format_branch, parse_branch
from .equising import stratum_sweep
from .errors import BranchPolarError, DSLError
from .families import FAMILY_NAMES, FamilyError, family
from .report import analyze, encode_sweep

USAGE_EXIT = 2
INTERNAL_EXIT = 1


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _load_spec(arg: str) -> BranchSpec:
    p = Path(arg)
    if p.exists() and p.is_file():
        return parse_branch(p.read_text(encoding="utf-8").strip())
    return parse_branch(arg)


def _cmd_analyze(args) -> int:
    try:
        spec = _load_spec(args.spec)
    except DSLError as exc:
        _emit({"error": {"stage": "parse", "message": str(exc)}}, args.json)
        return USAGE_EXIT
    report = analyze(
        spec,
        directions=args.directions,
        seed=args.seed,
        timing=args.timing,
    )
    _emit(report.payload, args.json)
    return INTERNAL_EXIT if "error" in report.payload else 0


def _parse_params(items: list[str]) -> dict:
    out = {}
    for item in items:
        for piece in item.split(","):
            if not piece:
                continue
            if "=" not in piece:
                raise FamilyError(f"parameter {piece!r} is not name=value")
            k, v = piece.split("=", 1)
            try:
                out[k.strip()] = Fraction(v.strip())
            except (ValueError, ZeroDivisionError) as exc:
                raise FamilyError(f"bad rational {v!r}: {exc}") from exc
    return out


def _cmd_family(args) -> int:
    try:
        fam = family(args.name)
        given = _parse_params(args.params or [])
        rng = random.Random(args.seed)
        specs = []
        for _ in range(args.count):
            params = dict(fam.sample_params(rng))
            params.update(given)
            b = fam.branch(params)
            specs.append(
                {
                    "family": fam.name,
                    "parameters": {k: str(v) for k, v in sorted(params.items())},
                    "spec": format_branch(b),
                }
            )
    except (FamilyError, ValueError) as exc:
        _emit({"error": {"stage": "family", "message": str(exc)}}, args.json)
        return USAGE_EXIT
    _emit({"family": args.name, "instances": specs}, args.json)
    return 0


def _cmd_sweep(args) -> int:
    if args.trials < 1:
        _emit({"error": {"stage": "sweep", "message": "trials must be >= 1"}}, args.json)
        return USAGE_EXIT
    try:
        fam = family(args.name)
    except FamilyError as exc:
        _emit({"error": {"stage": "sweep", "message": str(exc)}}, args.json)
        return USAGE_EXIT
    try:
        with ProcessPoolExecutor(args.workers) if args.workers > 1 else nullcontext() as pool:
            report = stratum_sweep(
                fam,
                args.trials,
                seed=args.seed,
                samples=args.samples,
                include_walls=not args.no_walls,
                mapper=pool.map if pool else map,
            )
    except AssertionError as exc:  # an internal cross-check failed
        _emit({"error": {"stage": "verify", "message": str(exc)}}, args.json)
        return INTERNAL_EXIT
    except (BranchPolarError, ValueError, ArithmeticError) as exc:
        _emit({"error": {"stage": "sweep", "message": str(exc)}}, args.json)
        return INTERNAL_EXIT
    if report.teissier_failures:
        message = f"{report.teissier_failures} of {report.trials} trials fail the Teissier identity"
        _emit({"error": {"stage": "verify", "message": message}}, args.json)
        return INTERNAL_EXIT
    payload = {
        "family": fam.name,
        "seed": args.seed,
        "samples": args.samples,
        "rng": "python-random-mersenne-twister; trial seed = seed*1000003 + index",
        "walls_injected": not args.no_walls and bool(fam.walls),
        "report": encode_sweep(report),
    }
    _emit(payload, args.json)
    return 0


def _directions(text: str) -> int:
    """Polar directions per analysis: genericity is certified by agreement
    across samples, so one sample certifies nothing."""
    n = int(text)
    if n < 2:
        raise argparse.ArgumentTypeError("genericity certification needs at least 2 directions")
    return n


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="branchpolar",
        description="Exact invariants of plane branches and their general polars",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    a = sub.add_parser("analyze", help="full pipeline for one branch spec or file")
    a.add_argument("spec", help="branch DSL text or a path to a file containing it")
    a.add_argument("--directions", type=_directions, default=3,
                   help="polar directions sampled (>= 2)")
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--json", default=None, help="write the report to a file")
    a.add_argument("--timing", action="store_true", help="include wall-clock timing")
    a.set_defaults(fn=_cmd_analyze)

    f = sub.add_parser("family", help="instantiate a classified family")
    f.add_argument("name", help="family name, e.g. gamma-5-12/10 (see --list)")
    f.add_argument("--params", action="append", help="name=value[,name=value...]")
    f.add_argument("--count", type=int, default=1)
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--json", default=None)
    f.set_defaults(fn=_cmd_family)

    s = sub.add_parser("sweep", help="sample a family and group polar types")
    s.add_argument("name")
    s.add_argument("--trials", type=int, required=True)
    s.add_argument("--seed", type=int, default=1)
    s.add_argument("--samples", type=_directions, default=2, help="directions per trial (>= 2)")
    s.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    s.add_argument("--no-walls", action="store_true", help="skip wall injection")
    s.add_argument("--json", default=None)
    s.set_defaults(fn=_cmd_sweep)

    li = sub.add_parser("families", help="list known family names")
    li.add_argument("--json", default=None)
    li.set_defaults(fn=lambda args: (_emit({"families": list(FAMILY_NAMES)}, args.json), 0)[1])
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return USAGE_EXIT if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (DSLError, FamilyError) as exc:
        _emit({"error": {"message": str(exc)}}, getattr(args, "json", None))
        return USAGE_EXIT
    except BranchPolarError as exc:
        _emit({"error": {"message": str(exc)}}, getattr(args, "json", None))
        return INTERNAL_EXIT


if __name__ == "__main__":
    sys.exit(main())
