"""Output checks: the paper's tables, kept as data in expected.json, plus
closed forms the method must satisfy.

Every check returns a list of problems; an empty list means the output
matches.  Nothing here is a saved copy of the program's output.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def signature(branches, intersections) -> tuple:
    """Order-free form of an equisingularity type: the sorted branch
    semigroups (generator tuples) and the sorted (semigroup, semigroup, I)
    triples over unordered pairs of branches.

    It does not depend on the program's canonical branch order.  It
    determines the type for up to three branches and for any number of
    branches sharing one semigroup and one contact, which covers every
    expected type used here.
    """
    gens = [tuple(g) for g in branches]
    pairs = []
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            a, b = sorted((gens[i], gens[j]))
            pairs.append((a, b, intersections[i][j]))
    return tuple(sorted(gens)), tuple(sorted(pairs))


def expected_signature(spec: dict) -> tuple:
    """Signature of a type written in expected.json as
    ``{"branches": [[gens], ...], "pairs": [[[gens], [gens], I], ...]}``."""
    pairs = [tuple(sorted((tuple(a), tuple(b)))) + (i,) for a, b, i in spec["pairs"]]
    return tuple(sorted(tuple(g) for g in spec["branches"])), tuple(sorted(pairs))


def type_signature(t) -> tuple:
    """Signature of the program's ``EquisingularityType``."""
    return signature([b.generators for b in t.branches], t.intersections)


def two_generator_semigroup(n: int, m: int) -> tuple[int, list[int]]:
    """Conductor and gaps of <n, m> with gcd(n, m) = 1: c = (n-1)(m-1), and
    the gaps are the integers below c that are not a*n + b*m."""
    c = (n - 1) * (m - 1)
    members = {a * n + b * m for a in range(c // n + 1) for b in range(c // m + 1)}
    return c, [g for g in range(c) if g not in members]


def polar_report_problems(rep, want: tuple, mu: int) -> list[str]:
    """A ``PolarReport`` against its expected polar type and the branch's
    Milnor number, which equals the conductor of its semigroup."""
    problems = []
    got = type_signature(rep.polar_type)
    if got != want:
        problems.append(f"polar type {got}, expected {want}")
    if not rep.certified:
        problems.append("polar type not certified by direction agreement")
    if not rep.teissier_ok:
        problems.append("Teissier identity I(f, polar) = mu + n - 1 failed")
    if rep.milnor != mu:
        problems.append(f"milnor {rep.milnor}, expected the conductor {mu}")
    return problems


def wall_signature(walls: list, params: dict) -> tuple | None:
    """The expected type of the first row-18 wall whose equations
    ``params`` satisfy, or None off the walls.  ``walls`` holds
    (equations, signature) pairs, the more special wall first."""
    for where, sig in walls:
        if all(params.get(k) == v for k, v in where.items()):
            return sig
    return None


def parse_walls(spec: list) -> list:
    return [
        ({k: Fraction(v) for k, v in w["where"].items()}, expected_signature(w["type"]))
        for w in spec
    ]


def equal_contact_problems(payload: dict, n: int, k: int) -> list[str]:
    """The ``analyze`` JSON of x = t^n, y = t^(k(n-1)+1) against closed forms.

    The branch has semigroup <n, m>; Lambda adds nothing to it, so the
    extra differential values are empty; mu equals the conductor.  Its
    general polar is y^(n-1) = c x^(k(n-1)): n - 1 smooth branches meeting
    pairwise with I = k, of Milnor number (n-2)(k(n-1)-1).
    """
    if "error" in payload:
        return [f"analyze failed: {payload['error']}"]
    m = k * (n - 1) + 1
    c, gaps = two_generator_semigroup(n, m)
    if 2 * len(gaps) != c:
        raise ValueError(f"<{n},{m}> is not symmetric: n and m are not coprime")
    problems = []
    sg = payload["semigroup"]
    if sg["generators"] != [n, m]:
        problems.append(f"semigroup {sg['generators']}, expected {[n, m]}")
    if sg["conductor"] != c:
        problems.append(f"conductor {sg['conductor']}, expected {c}")
    if sg["gaps"] != gaps:
        problems.append(f"{len(sg['gaps'])} gaps, expected the {c // 2} gaps of <{n},{m}>")
    if payload["differential_values"] != []:
        problems.append(f"Lambda minus Gamma is {payload['differential_values']}, expected empty")
    if payload["milnor"] != c:
        problems.append(f"milnor {payload['milnor']}, expected the conductor {c}")
    polar = payload["polar"]
    t = polar["type"]
    want = signature([[1]] * (n - 1), [[k] * (n - 1)] * (n - 1))
    got = signature(t["branches"], t["intersections"])
    if got != want:
        problems.append(f"polar type {got}, expected {n - 1} smooth branches with I = {k}")
    mu_polar = (n - 2) * (k * (n - 1) - 1)
    if t["milnor"] != mu_polar:
        problems.append(f"polar milnor {t['milnor']}, expected {mu_polar}")
    gen = polar["genericity"]
    if gen["certified"] is not True or gen["dissent"]:
        problems.append("polar type not certified by direction agreement")
    if gen["teissier_identity"] is not True:
        problems.append("Teissier identity failed")
    return problems
