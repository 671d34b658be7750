"""Whole-stack checks: types of constructed multi-branch germs must match
the data they were built from, and composite/axis germs stay consistent."""

import random
from collections import Counter
from fractions import Fraction as F

import pytest

from branchpolar.branch import PuiseuxBranch, semigroup_of_branch
from branchpolar.eqtype import EquisingularityType
from branchpolar.equising import equisingularity_type
from branchpolar.errors import BranchPolarError
from branchpolar.implicit import implicitize, milnor_number
from branchpolar.poly import BivariatePolynomial as BP

from oracles import branch_intersection


def test_axis_and_composite_germs():
    two_smooth = equisingularity_type(BP({(1, 1): F(1)}))  # xy
    assert all(b.is_smooth for b in two_smooth.branches)
    assert two_smooth.intersections[0][1] == 1

    t = equisingularity_type(BP({(0, 2): F(1), (2, 1): F(-1)}))  # y(y - x^2)
    assert all(b.is_smooth for b in t.branches) and t.intersections[0][1] == 2

    for axis in (BP({(0, 1): F(1)}), BP({(1, 0): F(1)})):
        assert equisingularity_type(axis) == EquisingularityType(
            (semigroup_of_branch(PuiseuxBranch.from_terms(1, {2: F(1)})),), ((0,),)
        ) or equisingularity_type(axis).branches[0].is_smooth

    cusp_line = BP({(0, 2): F(1), (3, 0): F(-1)}) * BP({(0, 1): F(1), (1, 0): F(-1)})
    t2 = equisingularity_type(cusp_line)
    assert sorted(b.generators for b in t2.branches) == [(1,), (2, 3)]
    assert t2.intersections[0][1] == 2
    assert t2.milnor_number() == milnor_number(cusp_line) == 5


def _random_branch(rng) -> PuiseuxBranch:
    kind = rng.randint(0, 3)
    if kind == 0:  # smooth with random tangent direction
        terms = {1: F(rng.randint(-4, 4))} if rng.randint(0, 1) else {}
        terms[2] = F(rng.randint(-4, 4))
        terms = {e: c for e, c in terms.items() if c}
        terms.setdefault(rng.randint(1, 3), F(1))
        return PuiseuxBranch.from_terms(1, terms)
    if kind == 1:  # cusp-like <2, odd>
        m = rng.choice([3, 5])
        terms = {m: F(rng.randint(1, 4))}
        if rng.randint(0, 1):
            terms[m + 1] = F(rng.randint(-3, 3) or 1)
        return PuiseuxBranch.from_terms(2, terms)
    if kind == 2:  # <3, m> with gcd 1
        m = rng.choice([4, 5, 7])
        return PuiseuxBranch.from_terms(3, {m: F(rng.randint(1, 3))})
    return PuiseuxBranch.from_terms(2, {5: F(rng.randint(1, 3)), 6: F(rng.randint(-2, 2) or 1)})


def test_type_of_products_matches_construction(rng):
    done = 0
    attempts = 0
    while done < 10 and attempts < 60:
        attempts += 1
        branches = [_random_branch(rng) for _ in range(rng.randint(2, 3))]
        try:
            inter = {}
            for i in range(len(branches)):
                for j in range(i + 1, len(branches)):
                    inter[(i, j)] = branch_intersection(branches[i], branches[j])
        except (BranchPolarError, ValueError):
            continue  # coincident sample; resample
        f = BP.constant(F(1))
        for b in branches:
            f = f * implicitize(b)
        try:
            got = equisingularity_type(f)
        except BranchPolarError:
            continue
        n = len(branches)
        matrix = [[0] * n for _ in range(n)]
        for (i, j), v in inter.items():
            matrix[i][j] = matrix[j][i] = v
        expected = EquisingularityType.of(
            [semigroup_of_branch(b) for b in branches], matrix
        )
        assert got == expected, (branches, got, expected)
        done += 1
    assert done >= 10


def test_analyze_timing_flag():
    from branchpolar.dsl import parse_branch
    from branchpolar.report import analyze

    spec = parse_branch("x=t^2; y=t^3")
    with_timing = analyze(spec, directions=2, timing=True)
    without = analyze(spec, directions=2)
    assert isinstance(with_timing.payload["timing_seconds"], float)
    assert without.payload["timing_seconds"] is None


@pytest.mark.parametrize("k", [2, 3])
def test_analyze_is_one_pass(monkeypatch, k):
    # f and mu(f) once for the branch, mu once more per sampled polar
    import branchpolar.equising as equising
    import branchpolar.report as report
    from branchpolar.dsl import parse_branch

    calls = Counter()

    def count(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module in (report, equising):
        for name in ("implicitize", "milnor_number", "polar"):
            count(module, name)
    spec = parse_branch("x=t^5; y=t^12+t^21")
    payload = report.analyze(spec, directions=k, seed=9).payload
    assert "error" not in payload
    assert calls["polar"] == k + 1  # no direction resampled; one for the polygon
    assert calls["implicitize"] == 1
    assert calls["milnor_number"] == k + 1
    rep = equising.generic_polar_type(spec.branch, k, random.Random(9))
    assert payload["polar"]["directions"] == [[str(a), str(b)] for a, b in rep.directions]
    assert payload["polar"]["type"] == report.encode_type(rep.polar_type)


def test_tower_element_json_encoding():
    import json

    from branchpolar.report import encode_value
    from branchpolar.tower import Tower

    t = Tower().adjoin("w", (F(-6), F(0), F(1)))
    v = t.generator(1) * F(4, 9) + 1
    enc = encode_value(v)
    assert enc["tower"][0]["name"] == "w"
    assert enc["tower"][0]["minpoly"] == ["-6", "0", "1"]
    assert enc["coords"] == ["1", "4/9"]
    json.dumps(enc)  # must be plain JSON data
    assert encode_value(F(-5, 16)) == "-5/16" and encode_value(F(3)) == "3"
