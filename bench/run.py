"""Benchmark for branchpolar: one workload per run, in this one process.

    python3 bench/run.py --workload strata_sweep --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/``.  Set-up (import the package, build the inputs, run one untimed
warm-up item) is repeated ``SETUPS`` times, re-importing the package each
time.  Then whole passes over the workload's items run for ``--seconds``:
at least one, and another only while a pass of median length would still
end in time.  Every output is checked against the paper's tables and closed
forms (see checks.py).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced pass, requires their outputs to be identical, and
reports the per-layer metrics of tracing.py per traced pass.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the same object is saved under
``.bench_out/``.  The exit code is 1 when any item failed or outputs
differ between passes, 2 when the package cannot be imported.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

import checks  # noqa: E402  (bench/ is on sys.path as the script's directory)
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUPS = 5
MODULES = (
    "branch", "dsl", "eqtype", "equising", "families", "implicit", "newton",
    "poly", "puiseux", "report", "semigroup", "series", "tower",
)
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "item_p50_ms": "ms", "peak_rss_mb": "MB"}


class ProgramMissing(Exception):
    pass


def import_program() -> dict:
    """Import the package from this checkout's ``src/`` afresh, dropping
    any copy imported before; returns its modules by short name."""
    for name in [n for n in sys.modules if n == "branchpolar" or n.startswith("branchpolar.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        pkg = importlib.import_module("branchpolar")
    except ImportError as exc:
        raise ProgramMissing(f"cannot import branchpolar from {SRC}: {exc}") from exc
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise ProgramMissing(f"branchpolar imported from {pkg.__file__}, not from {SRC}")
    return {m: importlib.import_module(f"branchpolar.{m}") for m in MODULES}


def set_up(workload: str, seed: int, expected: dict):
    """Re-import the package, build the workload's inputs and run its
    warm-up item, ``SETUPS`` times; returns the last workload, its
    modules and the median set-up time."""
    times = []
    for _ in range(SETUPS):
        t0 = perf_counter()
        modules = import_program()
        wl = WORKLOADS[workload](SimpleNamespace(**modules), seed, expected)
        wl.warm_up()
        times.append(perf_counter() - t0)
    return wl, modules, statistics.median(times)


def collect(passes) -> tuple[int, int, bool, list[str]]:
    """Items attempted and failed over all passes, whether every pass gave
    the same outputs, and failure reports."""
    attempted = failed = 0
    reports = []
    first = [item.output for item in passes[0].items]
    identical = all([item.output for item in p.items] == first for p in passes)
    if not identical:
        reports.append("outputs differ between passes")
    for p in passes:
        for item in p.items:
            attempted += 1
            if item.problems:
                failed += 1
                reports.append(f"{item.name}: {'; '.join(item.problems)}")
    return attempted, failed, identical, reports


def run(args, expected: dict) -> tuple[dict, list[str]]:
    wl, modules, setup_s = set_up(args.workload, args.seed, expected)
    untraced, traced = [], []
    tracer = tracing.Tracer()
    rounds = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        untraced.append(wl.run_pass())
        if args.trace:
            tracer.install(modules)
            try:
                traced.append(wl.run_pass())
            finally:
                tracer.remove()
        rounds.append(perf_counter() - t0)
        # start another round only if a typical round would end in time
        if perf_counter() - start + statistics.median(rounds) > args.seconds:
            break
    attempted, failed, identical, reports = collect(untraced + traced)
    if args.trace:
        overhead = statistics.median(p.wall_s for p in traced) - statistics.median(
            p.wall_s for p in untraced
        )
        values = tracer.metrics(len(traced), overhead)
        units = tracing.metric_units()
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(p.wall_s for p in untraced),
            "item_p50_ms": statistics.median(i.latency_s for p in untraced for i in p.items) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    result = {
        "correct": failed == 0 and identical,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    return result, reports


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result, reports = run(args, checks.load_expected())
    except ProgramMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for line in reports[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} attempted = {result['attempted']}, failed = {result['failed']}")
    line = json.dumps(result)
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(line + "\n")
    print(line)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
