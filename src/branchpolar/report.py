"""Analysis reports with byte-stable JSON encoding.

Rationals are serialized as exact "p/q" strings (plain "p" for integers);
tower elements as their defining polynomial chain plus coordinate vectors.
Key order is fixed by construction, so a report is byte-for-byte
reproducible for a fixed (input, seed, options) triple.  Timing is excluded
unless explicitly requested, precisely to keep that guarantee.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from .branch import PuiseuxBranch, differential_values, semigroup_of_branch, zariski_invariant
from .dsl import BranchSpec, format_branch
from .eqtype import EquisingularityType
from .equising import SweepReport, sample_polars
from .errors import BranchPolarError
from .implicit import implicitize, milnor_number, polar
from .newton import NewtonPolygon, is_newton_nondegenerate, newton_polygon
from .tower import TowerElement


def encode_value(v):
    """JSON-encode a rational or tower element."""
    if isinstance(v, (int,)):
        return str(v)
    if isinstance(v, Fraction):
        return str(v)  # Fraction.__str__ is p/q or p
    if isinstance(v, TowerElement):
        return {
            "tower": [
                {"name": lv.name, "minpoly": _encode_rep_list(lv.minpoly, k)}
                for k, lv in enumerate(v.tower.levels)
            ],
            "coords": _encode_rep(v.rep, v.tower.height),
        }
    raise TypeError(f"cannot encode {type(v).__name__}")


def _encode_rep(rep, stage):
    if stage == 0:
        return str(rep)
    return [_encode_rep(c, stage - 1) for c in rep]


def _encode_rep_list(reps, stage):
    return [_encode_rep(c, stage) for c in reps]


def encode_semigroup(sg) -> dict:
    return {
        "generators": list(sg.generators),
        "conductor": sg.conductor,
        "gaps": list(sg.gaps),
    }


def encode_type(t: EquisingularityType) -> dict:
    return {
        "branches": [list(b.generators) for b in t.branches],
        "intersections": [
            [t.intersections[i][j] if i != j else None for j in range(len(t.branches))]
            for i in range(len(t.branches))
        ],
        "milnor": t.milnor_number(),
    }


def encode_polygon(np: NewtonPolygon) -> dict:
    return {
        "vertices": [list(v) for v in np.vertices],
        "sides": [
            {
                "start": list(s.start),
                "end": list(s.end),
                "inclination": str(s.inclination),
                "side_polynomial": [encode_value(c) for c in s.side_polynomial],
            }
            for s in np.sides
        ],
        "x_mult": np.x_mult,
        "y_mult": np.y_mult,
    }


def encode_branch(b: PuiseuxBranch) -> dict:
    return {
        "n": b.n,
        "y_terms": [[e, encode_value(c)] for e, c in b.y_terms],
        "truncation": b.trunc,
        "conjugacy": b.conjugacy,
    }


@dataclass(frozen=True)
class AnalysisReport:
    """Full pipeline output for one branch; see :func:`analyze`."""

    payload: dict

    def to_json(self) -> str:
        return json.dumps(self.payload, indent=2) + "\n"


def analyze(
    spec: BranchSpec,
    directions: int = 3,
    seed: int = 0,
    timing: bool = False,
) -> AnalysisReport:
    """Run the full pipeline on a branch: semigroup, differential values,
    Zariski invariant, implicit equation, Milnor number, generic polar type
    with its genericity certificate.  A failure at any stage, a failed
    internal cross-check included, ends the report with an ``error`` entry
    naming the stage and the exception kind."""
    t0 = time.monotonic()
    b = spec.branch
    payload: dict = {
        "input": {
            "source": spec.source,
            "canonical": None,
            "parameters": {k: str(v) for k, v in sorted(spec.parameters.items())},
            "branch": encode_branch(b),
        },
        "seed": seed,
        "options": {"directions": directions},
    }
    stage = "input"
    try:
        payload["input"]["canonical"] = format_branch(b)  # rational branches only
        stage = "semigroup"
        sg = semigroup_of_branch(b)
        payload["semigroup"] = encode_semigroup(sg)
        stage = "differential_values"
        dv = differential_values(b)
        payload["differential_values"] = sorted(dv.extra)
        payload["zariski_invariant"] = zariski_invariant(dv)
        stage = "implicitize"
        f = implicitize(b)
        stage = "milnor"
        mu = payload["milnor"] = milnor_number(f)
        stage = "polar"
        rep = sample_polars(b, f, mu, samples=directions, rng=random.Random(seed))
        np0 = newton_polygon(polar(f, *rep.directions[0]))
        payload["polar"] = {
            "directions": [[str(a), str(bb)] for a, bb in rep.directions],
            "newton_polygon": encode_polygon(np0),
            "newton_nondegenerate": np0.x_mult == 0 and is_newton_nondegenerate(np0),
            "type": encode_type(rep.polar_type),
            "genericity": {
                "certified": rep.certified,
                "teissier_identity": rep.teissier_ok,
                "dissent": [
                    {"direction": [str(a), str(bb)], "type": encode_type(t)}
                    for (a, bb), t in rep.dissent
                ],
            },
        }
    except (
        BranchPolarError,
        ValueError,
        ArithmeticError,
        AssertionError,  # an internal cross-check failed
        RecursionError,
        MemoryError,
    ) as exc:
        payload["error"] = {"stage": stage, "kind": type(exc).__name__, "message": str(exc)}
    payload["timing_seconds"] = round(time.monotonic() - t0, 3) if timing else None
    return AnalysisReport(payload)


def encode_sweep(report: SweepReport) -> dict:
    return {
        "trials": report.trials,
        "uncertified": report.uncertified,
        "teissier_failures": report.teissier_failures,
        "groups": [
            {
                "type": encode_type(g.polar_type),
                "count": g.count,
                "polar_milnor": list(g.polar_milnor),
                "examples": [
                    {k: str(v) for k, v in sorted(ex.items())} for ex in g.examples
                ],
            }
            for g in report.groups
        ],
        "errors": list(report.errors),
    }
