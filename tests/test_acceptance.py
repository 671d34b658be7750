"""Acceptance criteria, one test per criterion.

Every check is exact (integer or rational equality); there are no numeric
tolerances anywhere.  Each test prints a single PASS line on success so the
suite doubles as a checklist (run with ``pytest -s tests/test_acceptance.py``).
"""

import random
import time
from fractions import Fraction as F

from branchpolar.branch import (
    PuiseuxBranch,
    differential_values,
    normal_form_equivalent,
    semigroup_of_branch,
)
from branchpolar.dsl import format_branch, parse_branch
from branchpolar.equising import (
    equisingularity_type,
    generic_polar_type,
    intersection_multiplicity,
    stratum_sweep,
)
from branchpolar.families import SQRT6, gamma_5_12
from branchpolar.implicit import implicitize, milnor_number, polar
from branchpolar.newton import is_newton_nondegenerate, newton_polygon, nondegenerate_type
from branchpolar.poly import BivariatePolynomial as BP
from branchpolar.puiseux import puiseux_expand

RNG_SEED = 20260810

TABLE_21_EXTRA = {
    1: set(), 2: {43}, 3: {38, 43}, 4: {33, 38, 43}, 5: {31, 38, 43},
    6: {31, 43}, 7: {28, 33, 38, 43}, 8: {26, 31, 38, 43},
    9: {23, 28, 33, 38, 43}, 10: {21, 26, 31, 33, 38, 43},
    11: {19, 26, 31, 33, 38, 43}, 12: {19, 26, 31, 38, 43},
    13: {19, 28, 31, 33, 38, 43}, 14: {19, 31, 33, 38, 43},
    15: {19, 31, 38, 43}, 16: {19, 31, 43},
    17: {18, 23, 28, 33, 38, 43},
    # row 18 as printed has a stray comma; this is the set our own Lambda
    # computation certifies and which the surrounding rows corroborate
    18: {18, 23, 28, 31, 33, 38, 43},
}


def _passline(n, msg):
    print(f"\nACCEPTANCE {n}: PASS - {msg}")


def test_criterion_1_table_21_lambda_columns():
    rng = random.Random(RNG_SEED)
    t0 = time.time()
    worst = 0.0
    for row in range(1, 19):
        fam = gamma_5_12(row)
        for _ in range(3):
            params = fam.sample_params(rng)
            t1 = time.time()
            d = differential_values(fam.branch(params))
            worst = max(worst, time.time() - t1)
            assert set(d.extra) == TABLE_21_EXTRA[row], (row, params, sorted(d.extra))
            assert worst < 5.0
    _passline(1, f"18 rows x 3 samples, worst row {worst:.2f}s (< 5s), total {time.time()-t0:.1f}s")


def _polar_types_of(branch, k=3, seed=1):
    rep = generic_polar_type(branch, samples=k, rng=random.Random(seed))
    assert rep.certified, "direction sampling did not certify a single type"
    return rep.polar_type


def _is_two_25_I(t, i):
    return (
        [b.generators for b in t.branches] == [(2, 5), (2, 5)]
        and t.intersections[0][1] == i
    )


def test_criterion_2_polar_types_gamma_5_12():
    rng = random.Random(RNG_SEED + 2)
    t0 = time.time()
    for row in range(1, 10):
        fam = gamma_5_12(row)
        t = _polar_types_of(fam.branch(fam.sample_params(rng)))
        assert [b.generators for b in t.branches] == [(4, 11)], row
    fam10 = gamma_5_12(10)
    t10 = _polar_types_of(fam10.branch(fam10.sample_params(rng)))
    assert sorted(b.generators for b in t10.branches) == [(1,), (3, 8)]
    assert t10.intersections[0][1] == 8
    for row in range(11, 18):
        fam = gamma_5_12(row)
        t = _polar_types_of(fam.branch(fam.sample_params(rng)))
        assert _is_two_25_I(t, 10), row
    fam18 = gamma_5_12(18)
    params = fam18.sample_params(rng)
    assert _is_two_25_I(_polar_types_of(fam18.branch(params)), 10)
    t_wall1 = _polar_types_of(fam18.branch({"c": F(-5, 4), "d": F(3, 7), "e": F(2)}))
    assert [b.generators for b in t_wall1.branches] == [(4, 10, 21)]
    t_wall2 = _polar_types_of(fam18.branch({"c": F(-5, 4), "d": F(-5, 16), "e": F(2)}))
    assert _is_two_25_I(t_wall2, 11)
    t_wall3 = _polar_types_of(fam18.branch({"c": F(1), "d": F(3, 5), "e": F(2)}))
    gens = sorted(b.generators for b in t_wall3.branches)
    assert gens == [(1,), (1,), (2, 5)]
    rows = {
        frozenset(t_wall3.branches[i].generators for i in (a, b)): t_wall3.intersections[a][b]
        for a in range(3) for b in range(3) if a != b
    }
    smooth_idx = [i for i, b in enumerate(t_wall3.branches) if b.is_smooth]
    big_idx = [i for i, b in enumerate(t_wall3.branches) if not b.is_smooth][0]
    assert t_wall3.intersections[smooth_idx[0]][smooth_idx[1]] == 3
    assert all(t_wall3.intersections[i][big_idx] == 5 for i in smooth_idx)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _passline(2, f"rows 1-18 + three row-18 walls at 3 directions each in {elapsed:.1f}s (< 60s)")


def test_criterion_3_multiplicity_3_table():
    rng = random.Random(RNG_SEED + 3)
    checked = 0
    for beta in (7, 8, 10, 11, 13, 14):
        eps = beta % 3
        q = (beta - eps) // 3
        for k in range(q - 1):
            b = PuiseuxBranch.from_terms(3, {beta: F(1), beta + eps + 3 * k: F(1)})
            t = _polar_types_of(b, k=2, seed=rng.randint(0, 10**6))
            e = 2 * q + k + eps
            if e % 2:
                assert [s.generators for s in t.branches] == [(2, e)], (beta, k)
            else:
                assert len(t.branches) == 2 and all(s.is_smooth for s in t.branches)
                assert t.intersections[0][1] == e // 2, (beta, k)
            checked += 1
    _passline(3, f"{checked} (beta, k) pairs match the parity table")


def test_criterion_4_multiplicity_4_genus_1_table():
    m = 29
    wall = F(4, 9) * SQRT6

    def nf2(mm, j, avals):
        q4 = mm // 4
        terms = {mm: F(1), 3 * mm - 4 * j: F(1)}
        for i, v in avals.items():
            terms[2 * mm - 4 * (j - q4 - i)] = v
        return PuiseuxBranch.from_terms(4, terms)

    def smooth3(t, i_all):
        return (
            len(t.branches) == 3
            and all(s.is_smooth for s in t.branches)
            and all(
                t.intersections[a][b] == i_all
                for a in range(3) for b in range(3) if a != b
            )
        )

    def smooth3_split(t, i_two, i_one):
        if len(t.branches) != 3 or not all(s.is_smooth for s in t.branches):
            return False
        vals = sorted(
            [t.intersections[0][1], t.intersections[0][2], t.intersections[1][2]]
        )
        return vals == sorted([i_two, i_two, i_one])

    def pair(t, gens, i):
        return (
            sorted(s.generators for s in t.branches) == sorted([(1,), gens])
            and t.intersections[0][1] == i
        )

    cases = [
        # (label, branch, check)
        ("I.i gcd3", nf2(13, 2, {}), lambda t: smooth3(t, 4)),
        ("I.i gcd1", nf2(11, 3, {}), lambda t: [s.generators for s in t.branches] == [(3, 10)]),
        ("I.ii odd", nf2(13, 6, {}), lambda t: pair(t, (2, 7), 7)),
        ("I.ii even", nf2(17, 7, {}), lambda t: smooth3(t, 5)),
        ("I.iii", nf2(13, 5, {}), lambda t: smooth3(t, 4)),
        ("II.i gcd1", nf2(m, 11, {1: F(2)}), lambda t: [s.generators for s in t.branches] == [(3, 26)]),
        ("II.i gcd3", nf2(m, 10, {1: F(2)}), lambda t: smooth3(t, 9)),
        ("II.ii odd", nf2(m, 14, {1: F(2)}), lambda t: pair(t, (2, 15), 15)),
        ("II.ii even", nf2(m, 13, {2: F(2)}), lambda t: smooth3(t, 8)),
        ("II.iii generic", nf2(m, 13, {1: F(2)}), lambda t: smooth3(t, 8)),
        ("II.iii a: tail 0", nf2(m, 13, {1: wall}), lambda t: pair(t, (2, 19), 16)),
        ("II.iii b.1.1", nf2(m, 13, {1: wall, 2: F(3)}), lambda t: pair(t, (2, 17), 16)),
        ("II.iii b.1.2", nf2(m, 13, {1: wall, 3: F(3)}), lambda t: smooth3_split(t, 8, 9)),
        ("II.iii b.2", nf2(m, 13, {1: wall, 4: F(1) - F(4, 81) * SQRT6}), lambda t: pair(t, (2, 19), 16)),
        ("II.iii b.3.1", nf2(m, 13, {1: wall, 4: F(3)}), lambda t: pair(t, (2, 19), 16)),
        # b.3.2 with s = 1 (m = 19, j = 9, k = 1): I(g1,g2) = (m-j)/2 + s = 6
        ("II.iii b.3.2", nf2(19, 9, {1: wall, 2: F(-4, 81) * SQRT6}), lambda t: smooth3_split(t, 5, 6)),
    ]
    assert len(cases) >= 12
    for label, b, check in cases:
        t = _polar_types_of(b, k=2, seed=7)
        assert check(t), (label, t)
    _passline(4, f"{len(cases)} instances covering every Table 3.2 row, sqrt6 walls in a quadratic tower")


def test_criterion_5_genus_2():
    rng = random.Random(RNG_SEED + 5)
    for v1, v2 in ((6, 13), (6, 17), (10, 21)):
        k1, k2 = v1 // 2, (2 * v2 - v1) // 4
        terms = {v1: F(1), v2 - v1: F(1)}
        s = 1
        while v2 - 4 * s > v2 - v1:
            terms[v2 - 4 * s] = F(rng.randint(1, 40), rng.randint(1, 40))
            s += 1
        b = PuiseuxBranch.from_terms(4, terms)
        f = implicitize(b)
        rep = generic_polar_type(b, samples=3, rng=random.Random(31))
        t = rep.polar_type
        assert sorted(br.generators for br in t.branches) == [(1,), (2, k1)]
        assert t.intersections[0][1] == k1
        # the smooth branch's y-order follows the three-way comparison of
        # v1 - 1 against k2, read off the polar's Newton polygon: its side
        # has height 1 and width equal to the y-order
        a0, b0 = rep.directions[0]
        np0 = newton_polygon(polar(f, a0, b0))
        last = np0.sides[-1]
        expected_order = k2 - k1 if v1 - 1 > k2 else v1 - k1 - 1
        assert last.height == 1 and last.width == expected_order, (v1, v2)
    _passline(5, "three (v1,v2) pairs decompose as <2,k1> + smooth with I = k1 and matching y-orders")


def test_criterion_6_intro_counterexample():
    f1 = BP({(0, 3): F(1), (11, 0): F(-1)})
    f2 = BP({(0, 3): F(1), (11, 0): F(-1), (8, 1): F(1)})
    ts = []
    for f in (f1, f2):
        reps = set()
        for a, b in ((F(1), F(1)), (F(2), F(3)), (F(-1), F(4))):
            reps.add(equisingularity_type(polar(f, a, b)))
        assert len(reps) == 1
        ts.append(reps.pop())
    assert all(b.is_smooth for t in ts for b in t.branches)
    assert ts[0].intersections[0][1] == 5 and ts[1].intersections[0][1] == 4
    assert ts[0] != ts[1]
    _passline(6, "y^3-x^11 vs y^3-x^11+x^8y: two smooth I=5 vs I=4, canonical types differ")


def test_criterion_7_example_2():
    b = PuiseuxBranch.from_terms(5, {12: F(1), 21: F(1)})
    rep = generic_polar_type(b, samples=5, rng=random.Random(77))
    assert rep.certified
    assert [s.generators for s in rep.polar_type.branches] == [(4, 11)]

    def nf(a, bb):
        return PuiseuxBranch.from_terms(
            4, {11: F(1), 14: F(1), 17: F(-1, 2), 21: F(15, 2) * F(12 * a, 5 * bb) ** 3}
        )

    pairs = [
        ((1, 1), (2, 2), True),
        ((1, 1), (2, 1), False),
        ((3, 7), (3, 7), True),
        ((2, 3), (4, 6), True),
        ((1, 2), (1, 3), False),
        ((-1, 1), (1, 1), False),  # a^3/b^3 differs in sign
    ]
    for (a1, b1), (a2, b2), expect in pairs:
        got = normal_form_equivalent(nf(a1, b1), nf(a2, b2), 14)
        want = F(a1, b1) ** 3 == F(a2, b2) ** 3
        assert got is expect and want is expect, ((a1, b1), (a2, b2))
    _passline(7, "polar of (t^5,t^12+t^21) is <4,11> at 5 directions; a^3/b^3 criterion on 6 pairs")


def test_criterion_8_property_suite():
    rng = random.Random(RNG_SEED + 8)
    fixtures = [
        PuiseuxBranch.from_terms(2, {3: F(1)}),
        PuiseuxBranch.from_terms(3, {7: F(1), 8: F(1)}),
        PuiseuxBranch.from_terms(4, {6: F(1), 7: F(1), 9: F(3)}),
        PuiseuxBranch.from_terms(5, {12: F(1), 21: F(1)}),
        PuiseuxBranch.from_terms(5, {12: F(1), 16: F(1), 18: F(5), 23: F(-7, 3)}),
    ]
    for b in fixtures:
        f = implicitize(b)
        mu = milnor_number(f)
        assert mu == semigroup_of_branch(b).conductor
        a, bb = F(rng.randint(1, 50), rng.randint(1, 50)), F(rng.randint(1, 50), rng.randint(1, 50))
        p = polar(f, a, bb)
        assert intersection_multiplicity(b, p) == mu + b.n - 1

    # polygon path vs Puiseux path on non-degenerate polars
    from oracles import _assemble_type

    nd_fixtures = [
        BP({(0, 4): F(5), (11, 0): F(-12)}),
        BP({(0, 4): F(5), (8, 1): F(-10), (11, 0): F(-12)}),
        BP({(0, 4): F(1), (5, 2): F(-3), (10, 0): F(1)}),
        BP({(0, 2): F(3), (10, 0): F(-11)}),
    ]
    for f in nd_fixtures:
        assert is_newton_nondegenerate(newton_polygon(f))
        t1 = nondegenerate_type(newton_polygon(f))
        t2 = _assemble_type(puiseux_expand(f), 0)
        assert t1 == t2

    for _ in range(1000):
        n = rng.randint(2, 6)
        terms = {}
        e = n + rng.randint(0, 4)
        for _ in range(rng.randint(1, 6)):
            terms[e] = F(rng.randint(-30, 30) or 1, rng.randint(1, 30))
            e += rng.randint(1, 5)
        b = PuiseuxBranch.from_terms(n, terms)
        assert parse_branch(format_branch(b)).branch == b
    _passline(8, "Teissier + mu=conductor on all fixtures; path agreement; 1000 DSL round-trips")


def test_criterion_9_theorem_sweeps():
    t0 = time.time()
    for row in range(1, 18):
        rep = stratum_sweep(gamma_5_12(row), 20, seed=row)
        assert len(rep.groups) == 1, (row, [g.polar_type for g in rep.groups])
        assert rep.groups[0].count == 20 and not rep.errors
    rep18 = stratum_sweep(gamma_5_12(18), 20, seed=18)
    assert len(rep18.groups) >= 3
    assert rep18.groups[0].count > sum(g.count for g in rep18.groups[1:])
    elapsed = time.time() - t0
    assert elapsed < 600.0
    _passline(9, f"strata 1-17: one type each over 20 trials; stratum 18 walls give {len(rep18.groups)} types, generic in strict majority; {elapsed:.0f}s (< 600s)")
