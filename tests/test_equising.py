"""Intersection multiplicities, canonical types, the generic-polar pipeline
and sweep machinery."""

import random
from fractions import Fraction as F

import pytest

from branchpolar.branch import PuiseuxBranch
from branchpolar.eqtype import EquisingularityType
from branchpolar.equising import (
    equisingularity_type,
    generic_polar_type,
    intersection_multiplicity,
    pair_intersection_values,
    random_direction,
    stratum_sweep,
)
from branchpolar.errors import PrecisionError
from branchpolar.families import gamma_5_12
from branchpolar.implicit import implicitize, milnor_number, polar
from branchpolar.poly import BivariatePolynomial as BP
from branchpolar.puiseux import puiseux_expand
from branchpolar.semigroup import semigroup_from_generators
from branchpolar.tower import Tower
from oracles import branch_intersection, self_pair_values_carved


def test_intersection_with_curve():
    b = PuiseuxBranch.from_terms(2, {3: F(1)})
    assert intersection_multiplicity(b, BP({(0, 1): F(1)})) == 3
    assert intersection_multiplicity(b, BP({(1, 0): F(1)})) == 2


def test_intersection_undetermined_at_truncation():
    from branchpolar.errors import PrecisionError

    b = PuiseuxBranch.from_terms(2, {3: F(1)}, trunc=6)
    with pytest.raises(PrecisionError):
        # y^2 - x^3 vanishes on the branch to every stored order
        intersection_multiplicity(b, BP({(0, 2): F(1), (3, 0): F(-1)}))


def test_teissier_identity_row8():
    b = PuiseuxBranch.from_terms(5, {12: F(1), 21: F(1)})
    f = implicitize(b)
    p = polar(f, F(1), F(1))
    assert intersection_multiplicity(b, p) == 44 + 5 - 1


def test_branch_intersection_examples():
    assert branch_intersection(
        PuiseuxBranch.from_terms(1, {2: F(1)}), PuiseuxBranch.from_terms(1, {2: F(-1)})
    ) == 2
    assert branch_intersection(
        PuiseuxBranch.from_terms(2, {5: F(1), 6: F(1)}),
        PuiseuxBranch.from_terms(2, {5: F(1), 6: F(-1)}),
    ) == 11
    # cross-ramification: (t^2, t^3) vs (t, t^2): Res_y(y^2-x^3, y-x^2) has
    # x-order 3
    assert branch_intersection(
        PuiseuxBranch.from_terms(2, {3: F(1)}), PuiseuxBranch.from_terms(1, {2: F(1)})
    ) == 3


def test_branch_intersection_vs_implicit_composition():
    b1 = PuiseuxBranch.from_terms(2, {3: F(1), 5: F(2)})
    b2 = PuiseuxBranch.from_terms(3, {4: F(1)})
    via_pairs = branch_intersection(b1, b2)
    via_composition = intersection_multiplicity(b1, implicitize(b2))
    assert via_pairs == via_composition


def test_pair_count_when_the_zeta_level_splits():
    # over Q(s), s^2 = -3, the cube roots of unity are already in the base,
    # so zeta's level splits into two components; the one pair is counted
    # once, not once per component
    tower = Tower().adjoin("s", (F(3), F(0), F(1)))
    w = (tower.generator(1) - 1) * F(1, 2)  # a primitive cube root of unity
    b1 = PuiseuxBranch.from_terms(3, {4: F(1), 5: F(1)})
    b2 = PuiseuxBranch.from_terms(3, {4: w, 7: tower.from_rational(1)})
    assert pair_intersection_values(b1, b2, 1) == {13: 1}
    assert intersection_multiplicity(b1, implicitize(b2)) == 13


def test_pairs_that_agree_to_their_truncation_are_a_shortfall():
    b = PuiseuxBranch(1, ((2, F(1)),), 4)
    with pytest.raises(PrecisionError):
        pair_intersection_values(b, PuiseuxBranch(1, ((2, F(1)),), 4))
    b1 = PuiseuxBranch(1, ((2, F(1)), (5, F(1))), 6)
    b2 = PuiseuxBranch(1, ((2, F(1)), (5, F(2))), 6)
    assert pair_intersection_values(b1, b2) == {5: 1}


def test_identical_exact_branches_are_an_internal_error():
    e = PuiseuxBranch.from_terms(2, {3: F(1)})
    with pytest.raises(AssertionError, match="identical"):
        branch_intersection(e, e)


def test_canonicalization_idempotent_and_order_free():
    s25 = semigroup_from_generators([2, 5])
    sm = semigroup_from_generators([1])
    t1 = EquisingularityType.of([s25, sm], [[0, 7], [7, 0]])
    t2 = EquisingularityType.of([sm, s25], [[0, 7], [7, 0]])
    assert t1 == t2
    assert EquisingularityType.of(list(t1.branches), [list(r) for r in t1.intersections]) == t1


def test_type_scaling_invariance():
    f = BP({(0, 4): F(5), (8, 1): F(-10), (11, 0): F(-12)})
    assert equisingularity_type(f) == equisingularity_type(f * BP.constant(F(7, 3)))


def test_type_of_tangent_to_x_axis_branch():
    # x^2 - y^3 has its branch tangent to x = 0; the shear path handles it
    t = equisingularity_type(BP({(2, 0): F(1), (0, 3): F(-1)}))
    assert len(t.branches) == 1 and t.branches[0].generators == (2, 3)


def test_intro_counterexample_types_differ():
    f1 = BP({(0, 3): F(1), (11, 0): F(-1)})
    f2 = BP({(0, 3): F(1), (11, 0): F(-1), (8, 1): F(1)})
    t1 = equisingularity_type(polar(f1, F(1), F(1)))
    t2 = equisingularity_type(polar(f2, F(1), F(1)))
    assert all(b.is_smooth for b in t1.branches) and all(b.is_smooth for b in t2.branches)
    assert t1.intersections[0][1] == 5 and t2.intersections[0][1] == 4
    assert t1 != t2


def test_generic_polar_type_monomial():
    rep = generic_polar_type(PuiseuxBranch.from_terms(5, {12: F(1)}), samples=3)
    assert rep.certified and rep.teissier_ok
    assert rep.polar_type.branches[0].generators == (4, 11)


def test_generic_polar_type_smooth_branch_is_empty():
    # f = y - x^2 - x^3: every polar a f_x + b f_y with b != 0 misses the origin
    rep = generic_polar_type(PuiseuxBranch.from_terms(1, {2: F(1), 3: F(1)}), samples=2)
    assert rep.polar_type == EquisingularityType.of([], [])
    assert len(rep.polar_type.branches) == 0 and rep.polar_type.milnor_number() == 0
    assert rep.milnor == 0 and rep.certified and rep.teissier_ok


def test_generic_polar_requires_two_samples():
    with pytest.raises(ValueError):
        generic_polar_type(PuiseuxBranch.from_terms(5, {12: F(1)}), samples=1)


def test_mult3_even_and_odd_polar_types():
    # beta = 7 (odd 2q+k+eps = 5): one branch <2,5>
    rep = generic_polar_type(PuiseuxBranch.from_terms(3, {7: F(1), 8: F(1)}), samples=2)
    assert [b.generators for b in rep.polar_type.branches] == [(2, 5)]
    # monomial beta = 7: two smooth branches with I = 3
    rep2 = generic_polar_type(PuiseuxBranch.from_terms(3, {7: F(1)}), samples=2)
    assert all(b.is_smooth for b in rep2.polar_type.branches)
    assert rep2.polar_type.intersections[0][1] == 3


def test_mult4_monomial_polar():
    # y^4 - x^m: d = gcd(3, m-1)
    rep = generic_polar_type(PuiseuxBranch.from_terms(4, {11: F(1)}), samples=2)
    assert [b.generators for b in rep.polar_type.branches] == [(3, 10)]
    rep3 = generic_polar_type(PuiseuxBranch.from_terms(4, {13: F(1)}), samples=2)
    assert len(rep3.polar_type.branches) == 3
    assert all(
        rep3.polar_type.intersections[i][j] == 4
        for i in range(3)
        for j in range(3)
        if i != j
    )


def test_sweep_stratum_8_single_type():
    rep = stratum_sweep(gamma_5_12(8), 6, seed=11)
    assert len(rep.groups) == 1 and rep.groups[0].count == 6
    assert rep.groups[0].polar_type.branches[0].generators == (4, 11)
    assert not rep.errors and rep.teissier_failures == 0


def test_sweep_surfaces_failed_verifications(monkeypatch):
    import branchpolar.equising as equising

    # a Teissier failure is counted, not dropped
    monkeypatch.setattr(equising, "intersection_multiplicity", lambda b, g: 0)
    rep = stratum_sweep(gamma_5_12(11), 2, seed=3)
    assert rep.teissier_failures == 2 and not rep.errors
    # a Milnor number off the conductor raises instead of becoming an error string
    monkeypatch.setattr(equising, "milnor_number", lambda f: milnor_number(f) + 1)
    with pytest.raises(AssertionError, match="conductor"):
        stratum_sweep(gamma_5_12(11), 1, seed=3)


def test_sweep_stratum_18_walls_show_types():
    rep = stratum_sweep(gamma_5_12(18), 8, seed=11)
    assert len(rep.groups) >= 3
    assert rep.groups[0].count > sum(g.count for g in rep.groups[1:])


def test_sweep_stratum_18_draws_keep_the_generic_majority():
    # this seed drew c = 1, d = 5, a point of the c = 1 wall, which left the
    # generic type without its strict majority among seven trials
    rep = stratum_sweep(gamma_5_12(18), 7, seed=912018)
    assert not rep.errors
    # the four draws share the generic type; each of the three walls has its own
    assert [g.count for g in rep.groups] == [4, 1, 1, 1]


def test_sweep_deterministic_and_mapper_independent():
    r1 = stratum_sweep(gamma_5_12(10), 4, seed=5)
    r2 = stratum_sweep(gamma_5_12(10), 4, seed=5)
    assert r1 == r2
    from multiprocessing.dummy import Pool

    with Pool(3) as pool:
        r3 = stratum_sweep(gamma_5_12(10), 4, seed=5, mapper=pool.map)
    assert r3 == r1


class _MonomialFamily:
    """Stub family: the walls are the trials, and trial params {"n": n, "i": i}
    give the branch x = t^n, y = t^(n+1), whose general polar is one branch
    with semigroup <n-1, n> (smooth for n = 2)."""

    def __init__(self, ns):
        self.walls = [{"n": n, "i": i} for i, n in enumerate(ns)]

    def branch(self, params):
        return PuiseuxBranch.from_terms(params["n"], {params["n"] + 1: F(1)})


def test_sweep_groups_by_count_then_first_seen():
    for first, second in [(3, 2), (2, 3)]:
        ns = [4] + [first, second] * 4
        rep = stratum_sweep(_MonomialFamily(ns), len(ns))
        assert [g.count for g in rep.groups] == [4, 4, 1]
        # equal counts keep the order in which the types were first seen
        assert [g.examples[0]["n"] for g in rep.groups] == [first, second, 4]
        # at most three examples, the earliest trials
        assert [[p["i"] for p in g.examples] for g in rep.groups][:2] == [[1, 3, 5], [2, 4, 6]]
        milnor = {2: 0, 3: 2, 4: 6}  # mu of the polar types: smooth, <2,3>, <3,4>
        assert [g.polar_milnor for g in rep.groups] == [
            (milnor[g.examples[0]["n"]],) for g in rep.groups
        ]


def test_sweep_rejects_zero_trials():
    with pytest.raises(ValueError):
        stratum_sweep(gamma_5_12(8), 0)


def test_genus2_fixture_type():
    b = PuiseuxBranch.from_terms(4, {6: F(1), 7: F(1), 9: F(5, 7)})
    rep = generic_polar_type(b, samples=2)
    t = rep.polar_type
    gens = sorted(br.generators for br in t.branches)
    assert gens == [(1,), (2, 3)]
    assert t.intersections[0][1] == 3  # k1 = v1/2


def _conjugate_families(p):
    """(branch, max_contact) for every branch of p's expansion that stands
    for two or more conjugates; max_contact is for the carved-tower oracle."""
    max_contact = milnor_number(p) + p.degree_y() + 1
    return [(b, max_contact) for b in puiseux_expand(p) if b.conjugacy >= 2]


def _self_pairs_match_oracle(p) -> list[tuple[int, int, int]]:
    """Compare the self-pairs of every conjugate family of p's expansion
    with the carved-tower oracle; returns (n, tower height, tuples per
    geometric branch) of the families checked."""
    checked = []
    for b, max_contact in _conjugate_families(p):
        vals = pair_intersection_values(b, None)
        assert vals == self_pair_values_carved(b, 0, max_contact)
        assert sum(vals.values()) == b.conjugacy * (b.conjugacy - 1)
        t = b.tower()
        checked.append((b.n, t.height, t.dim // b.conjugacy))
    return checked


def _y4_x13_polar():
    return polar(implicitize(PuiseuxBranch.from_terms(4, {13: F(1)})), F(2), F(5))


def test_pair_values_for_three_conjugates():
    # polar of y^4 - x^13 at a generic direction: 4b y^3 = 13a x^12 gives
    # three smooth conjugate branches in one cubic tower family; all six
    # ordered pairs meet with multiplicity (m-1)/3 = 4
    families = _conjugate_families(_y4_x13_polar())
    assert len(families) == 1 and families[0][0].conjugacy == 3
    b, max_contact = families[0]
    vals = pair_intersection_values(b, None)
    assert vals == {4: 6} == self_pair_values_carved(b, 0, max_contact)


def test_self_pairs_of_a_truncated_family_split_off_the_diagonal():
    # the diagonal is split off exactly, so no pair of equal tuples is
    # ever compared at the truncation
    b, _ = _conjugate_families(_y4_x13_polar())[0]
    truncated = PuiseuxBranch(b.n, b.y_terms, 10, 3)
    assert pair_intersection_values(truncated, None) == {4: 6}


def test_self_pairs_match_carved_oracle_on_row18_walls():
    fam = gamma_5_12(18)
    rng = random.Random(1818)
    heights = set()
    for wall in fam.walls:
        f = implicitize(fam.branch(dict(wall)))
        heights.update(h for _n, h, _r in _self_pairs_match_oracle(polar(f, *random_direction(rng))))
    assert heights == {1, 2}  # one-level families (c = 1), two-level ones (c = -5/4)


def test_self_pairs_match_carved_oracle_on_random_polars():
    rng = random.Random(20261019)
    branches = [PuiseuxBranch.from_terms(7, {11: F(1)})]  # zeta adjoined, 3 tuples each
    for _ in range(20):
        n = rng.randint(3, 5)
        exps = [e for e in range(n + 1, 3 * n + 3) if e % n]
        terms = {e: F(rng.randint(-5, 5) or 1, rng.randint(1, 3)) for e in rng.sample(exps, 2)}
        branches.append(PuiseuxBranch.from_terms(n, terms))
    checked = []
    for br in branches:
        checked += _self_pairs_match_oracle(polar(implicitize(br), *random_direction(rng)))
    assert len(checked) >= 5
    assert (3, 1, 3) in checked  # ramification 3: the zeta level and t -> zeta t pairs


def test_mult4_deep_wall_contact_verified_by_two_milnor_routes():
    # The deepest sqrt6 wall of the second normal form at (m, j, k, s) =
    # (29, 13, 1, 3): the classification table's printed contact (m-j)/2 + s
    # = 11 is inconsistent with the polar's Milnor number; two independent
    # resultant routes give mu = 50, which forces I(g1, g2) = 10.  The s = 1
    # instance of the same wall does match the printed formula (see the
    # acceptance suite).
    from branchpolar.families import SQRT6
    from oracles import shift_y, sylvester_resultant_y

    terms = {29: F(1), 35: F(1), 38: F(4, 9) * SQRT6, 50: F(-4, 81) * SQRT6}
    b = PuiseuxBranch.from_terms(4, terms)
    f = implicitize(b)
    p = polar(f, F(2), F(3))
    mu_prs = milnor_number(p)
    sheared = shift_y(p, F(1, 3))
    mu_sylvester = sylvester_resultant_y(
        sheared.derivative_x(), sheared.derivative_y()
    ).x_order()
    assert mu_prs == mu_sylvester == 50
    t = equisingularity_type(p)
    assert all(br.is_smooth for br in t.branches) and len(t.branches) == 3
    vals = sorted([t.intersections[0][1], t.intersections[0][2], t.intersections[1][2]])
    assert vals == [8, 8, 10]  # not [8, 8, 11]
    assert t.milnor_number() == 50
