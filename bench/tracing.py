"""Per-layer tracing, installed on the program from outside and removed again.

Each traced function is replaced by a wrapper at every module-level binding
site in the package (``milnor_number``, for one, is imported by name into
``equising``, ``report`` and ``puiseux``), so calls through any of them are
seen.  A wrapper counts calls and accumulates self time: its own duration
minus the durations of traced calls made inside it.  A few hot methods get
count-only wrappers, which keep no time.
"""

from __future__ import annotations

import sys
from math import factorial
from time import perf_counter

# metric prefix -> (module, attribute path) of the traced function
TIMED = {
    "implicit.milnor_number": ("implicit", "milnor_number"),
    "poly.resultant_y": ("poly", "resultant_y"),
    "poly.prs_resultant": ("poly", "prs_resultant"),
    "implicit.implicitize": ("implicit", "implicitize"),
    "implicit.polar": ("implicit", "polar"),
    "puiseux.puiseux_expand": ("puiseux", "puiseux_expand"),
    "series.evaluate_bivariate": ("series", "evaluate_bivariate"),
    "tower.over_components": ("tower", "over_components"),
    "equising.pair_intersection_values": ("equising", "pair_intersection_values"),
    "equising.intersection_multiplicity": ("equising", "intersection_multiplicity"),
    "eqtype.of": ("eqtype", "EquisingularityType.of"),
    "newton.newton_polygon": ("newton", "newton_polygon"),
    "newton.is_newton_nondegenerate": ("newton", "is_newton_nondegenerate"),
    "newton.nondegenerate_type": ("newton", "nondegenerate_type"),
    "equising.equisingularity_type": ("equising", "equisingularity_type"),
    "equising.generic_polar_type": ("equising", "generic_polar_type"),
    "branch.differential_values": ("branch", "differential_values"),
    "branch.semigroup_of_branch": ("branch", "semigroup_of_branch"),
    "semigroup.semigroup_from_generators": ("semigroup", "semigroup_from_generators"),
    "dsl.parse_branch": ("dsl", "parse_branch"),
    "report.analyze": ("report", "analyze"),
    "report.to_json": ("report", "AnalysisReport.to_json"),
}

# metric name -> (module, attribute paths) of count-only wrappers;
# __rmul__ is the same function as __mul__, so both names are wrapped
COUNTED = {
    "tower.adjoin.calls": ("tower", ("Tower.adjoin",)),
    "tower.splits": ("tower", ("TowerSplit.__init__",)),
    "tower.element_mul.calls": ("tower", ("TowerElement.__mul__", "TowerElement.__rmul__")),
}

PACKAGE = "branchpolar"


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in TIMED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in COUNTED:
        units[name] = "count"
    units["eqtype.of.orderings"] = "count"
    units["equising.fastpath_ratio"] = "ratio"
    units["equising.direction_yield"] = "ratio"
    units["trace.overhead_s"] = "s"
    return units


def _orderings(args) -> int:
    """Orderings ``EquisingularityType.of`` tries: the product of the
    factorials of the tie-group sizes of its branch list."""
    sizes: dict = {}
    for b in args[0]:
        key = b.sort_key()
        sizes[key] = sizes.get(key, 0) + 1
    total = 1
    for s in sizes.values():
        total *= factorial(s)
    return total


class Tracer:
    """Counters for one or more traced passes; ``install`` and ``remove``
    bracket each pass."""

    def __init__(self):
        self.calls = {name: 0 for name in TIMED}
        self.self_s = {name: 0.0 for name in TIMED}
        self.counts = {name: [0] for name in COUNTED}
        self.orderings = 0
        self.directions_kept = 0
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _observe(self, name: str, args, result) -> None:
        """Counts taken from a traced call's arguments or result."""
        if name == "eqtype.of":
            self.orderings += _orderings(args)
        elif name == "equising.generic_polar_type":
            self.directions_kept += len(result.directions)

    def _timed(self, name: str, fn):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        clock = perf_counter
        observe = name in ("eqtype.of", "equising.generic_polar_type")

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[name] += dt - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += dt
            if observe:
                self._observe(name, args, result)
            return result

        return wrapper

    @staticmethod
    def _counted(cell: list, fn):
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ---------------------------------------------------------

    def _bind(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _replace(self, modules: dict, modname: str, path: str, make) -> None:
        module = modules[modname]
        if "." in path:  # a class attribute
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, staticmethod):
                self._bind(cls, attr, staticmethod(make(raw.__func__)))
            else:
                self._bind(cls, attr, make(raw))
            return
        orig = getattr(module, path)
        new = make(orig)
        for mod in list(sys.modules.values()):
            name = getattr(mod, "__name__", "")
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._bind(mod, attr, new)

    def install(self, modules: dict) -> None:
        """Wrap every traced function; ``modules`` maps short module names
        (``"poly"``) to the imported package modules."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        for name, (modname, path) in TIMED.items():
            self._replace(modules, modname, path, lambda fn, n=name: self._timed(n, fn))
        for name, (modname, paths) in COUNTED.items():
            cell = self.counts[name]
            done = {}
            for path in paths:
                # one wrapper per distinct function, so aliases count once per call
                self._replace(
                    modules, modname, path,
                    lambda fn, c=cell: done.setdefault(id(fn), self._counted(c, fn)),
                )

    def remove(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- results ----------------------------------------------------------------

    def metrics(self, passes: int, overhead_s: float) -> dict[str, float]:
        """Per-layer figures per traced pass."""
        out: dict[str, float] = {}
        for name in TIMED:
            out[f"{name}.calls"] = self.calls[name] / passes
            out[f"{name}.self_s"] = self.self_s[name] / passes
        for name in COUNTED:
            out[name] = self.counts[name][0] / passes
        out["eqtype.of.orderings"] = self.orderings / passes
        est = self.calls["equising.equisingularity_type"]
        out["equising.fastpath_ratio"] = (
            self.calls["newton.nondegenerate_type"] / est if est else 0.0
        )
        polars = self.calls["implicit.polar"]
        out["equising.direction_yield"] = self.directions_kept / polars if polars else 0.0
        out["trace.overhead_s"] = overhead_s
        return out
