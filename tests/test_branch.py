"""Branch invariants against brute-force oracles and the classification
tables of the <5,12> equisingularity class."""

from fractions import Fraction as F

import pytest

from branchpolar.branch import (
    PuiseuxBranch,
    differential_values,
    normal_form_equivalent,
    semigroup_of_branch,
    zariski_invariant,
)
from branchpolar.errors import NormalFormMismatchError, PrecisionError
from branchpolar.semigroup import semigroup_from_generators
from branchpolar.series import TruncatedSeries
from branchpolar.tower import Tower

from oracles import _representable


def brute_force_value_semigroup(b: PuiseuxBranch, bound: int) -> set[int]:
    """Orders of pullbacks of all monomials x^i y^j, closed under
    elimination (an independent oracle for the semigroup below ``bound``)."""
    xs = TruncatedSeries.monomial(b.n).truncate(bound)
    ys = b.y_series(bound)
    candidates = []
    j = 0
    while True:
        yj = ys ** j if j else TruncatedSeries.constant(F(1), bound)
        if j and (yj.is_zero_mod_trunc or min(yj.terms) >= bound):
            break
        i = 0
        while True:
            s = yj * xs ** i if i else yj
            if s.is_zero_mod_trunc or min(s.terms) >= bound:
                break
            candidates.append(s)
            i += 1
        j += 1
    echelon = {}
    values = set()
    for s in candidates:
        while not s.is_zero_mod_trunc:
            o = min(s.terms)
            if o in echelon:
                s = s - echelon[o].scale(s.terms[o] / echelon[o].terms[o])
            else:
                echelon[o] = s
                values.add(o)
                break
    return values


def test_semigroup_5_12():
    sg = semigroup_of_branch(PuiseuxBranch.from_terms(5, {12: F(1), 21: F(1)}))
    assert sg.generators == (5, 12)
    assert sg.conductor == 44  # two-generator formula (5-1)(12-1)


def test_semigroup_2_3():
    sg = semigroup_of_branch(PuiseuxBranch.from_terms(2, {3: F(1)}))
    assert sg.generators == (2, 3) and sg.conductor == 2


def test_semigroup_4_6_13_against_bruteforce():
    b = PuiseuxBranch.from_terms(4, {6: F(1), 7: F(1)})
    sg = semigroup_of_branch(b)
    assert sg.generators == (4, 6, 13)
    vals = brute_force_value_semigroup(b, 20)
    expect = {v for v in range(20) if v in sg}
    assert vals == expect


def test_conductor_matches_gap_enumeration():
    for gens in [(5, 12), (3, 11), (4, 11), (2, 5), (4, 10, 21), (4, 6, 13)]:
        sg = semigroup_from_generators(gens)
        # conductor = last gap + 1
        assert sg.conductor == (max(sg.gaps) + 1 if sg.gaps else 0)
        assert sg.conductor - 1 in sg.gaps or sg.conductor == 0
        # minimality: no generator is a sum of the others
        for g in sg.generators:
            assert not _representable(g, [h for h in sg.generators if h != g])
        assert sg.generators == semigroup_from_generators(sg.generators).generators


def test_semigroup_truncation_error():
    b = PuiseuxBranch.from_terms(4, {6: F(1)}, trunc=10)
    with pytest.raises(PrecisionError):
        semigroup_of_branch(b)
    with pytest.raises(ValueError):  # exact but non-primitive
        semigroup_of_branch(PuiseuxBranch.from_terms(4, {6: F(1)}))


TABLE_2_1 = {
    1: ({12: F(1)}, set()),
    2: ({12: F(1), 38: F(1)}, {43}),
    3: ({12: F(1), 33: F(1)}, {38, 43}),
    4: ({12: F(1), 28: F(1)}, {33, 38, 43}),
    5: ({12: F(1), 26: F(1), 28: F(1)}, {31, 38, 43}),
}


@pytest.mark.parametrize("row", sorted(TABLE_2_1))
def test_differential_values_table_rows(row):
    terms, expect = TABLE_2_1[row]
    d = differential_values(PuiseuxBranch.from_terms(5, terms))
    assert set(d.extra) == expect


def test_gamma_minus_zero_contained_in_values():
    # recompute the achieved value set independently: pullback orders of
    # monomial differentials closed under elimination must cover every
    # nonzero semigroup element below the conductor
    b = PuiseuxBranch.from_terms(5, {12: F(1), 26: F(1), 28: F(3)})
    d = differential_values(b)
    c, n, m = d.gamma.conductor, b.n, b.y_order()
    w = c + n
    xs = TruncatedSeries.monomial(n).truncate(w)
    ys = b.y_series(w)
    dx = TruncatedSeries.monomial(n - 1, F(n)).truncate(w)
    dy = ys.derivative().truncate(w)
    cands = []
    for j in range(w // m + 1):
        for i in range((w - j * m) // n + 1):
            base = (xs ** i) * (ys ** j)
            cands.append(base * dx)
            cands.append(base * dy)
    echelon, achieved = {}, set()
    for s in cands:
        while not s.is_zero_mod_trunc:
            o = min(s.terms)
            if o in echelon:
                s = s - echelon[o].scale(s.terms[o] / echelon[o].terms[o])
            else:
                echelon[o] = s
                achieved.add(o + 1)
                break
    semigroup_below_c = {v for v in range(1, c) if v in d.gamma}
    assert semigroup_below_c <= achieved
    assert set(d.extra) == {v for v in achieved if v < c and v not in d.gamma}


def test_max_extra_bounded_by_conductor():
    for terms in ({12: F(1), 38: F(1)}, {12: F(1), 26: F(1), 28: F(2)}):
        d = differential_values(PuiseuxBranch.from_terms(5, terms))
        if d.extra:
            assert max(d.extra) <= d.gamma.conductor - 1


def test_differential_values_multiplicity_9():
    # four terms at n = 9, c = 152: the candidates are cut at t^(c + n)
    b = PuiseuxBranch.from_terms(
        9, {20: F(-37, 11), 22: F(5, 13), 25: F(-71, 3), 29: F(13, 17)}
    )
    d = differential_values(b)
    assert d.gamma.generators == (9, 20) and d.gamma.conductor == 152
    assert sorted(d.extra) == [
        31, 42, 51, 52, 61, 62, 70, 71, 73, 79, 82, 84, 88, 91, 93,
        95, 97, 102, 104, 106, 111, 113, 115, 122, 124, 131, 133, 142, 151,
    ]
    assert zariski_invariant(d) == 22


def test_differential_values_reparametrization_invariant():
    # t -> zeta t for zeta^5 = 1 rescales c_i by zeta^i; over Q only
    # zeta = 1, so emulate with the rational rescale zeta = 1 and a
    # consistency check under scaling the coefficients by (-1)^i for n = 2
    b1 = PuiseuxBranch.from_terms(2, {3: F(1), 5: F(2)})
    b2 = PuiseuxBranch.from_terms(2, {3: F(-1), 5: F(-2)})  # t -> -t
    d1, d2 = differential_values(b1), differential_values(b2)
    assert d1.extra == d2.extra and d1.gamma == d2.gamma


def test_zariski_invariant_rows():
    assert zariski_invariant(
        differential_values(PuiseuxBranch.from_terms(5, {12: F(1), 38: F(1)}))
    ) == 38  # row 2: extra = {43}, lambda = 43 - 5, the exponent of t^38
    d3 = differential_values(PuiseuxBranch.from_terms(5, {12: F(1), 33: F(1)}))
    assert zariski_invariant(d3) == 33
    d1 = differential_values(PuiseuxBranch.from_terms(5, {12: F(1)}))
    assert zariski_invariant(d1) is None


def _example2_form(a, b, scale=F(15, 2)):
    return PuiseuxBranch.from_terms(
        4, {11: F(1), 14: F(1), 17: F(-1, 2), 21: scale * F(12 * a, 5 * b) ** 3}
    )


def test_normal_form_equivalent_directions():
    assert normal_form_equivalent(_example2_form(1, 1), _example2_form(2, 2), 14)
    assert not normal_form_equivalent(_example2_form(1, 1), _example2_form(2, 1), 14)
    assert normal_form_equivalent(_example2_form(3, 7), _example2_form(3, 7), 14)


def test_normal_form_equivalent_tower_coefficients():
    # the paper's coefficient carries a cube root of 2; the criterion is
    # insensitive to that common unit, checked here in the actual tower
    t = Tower().adjoin("cbrt2", (F(-2), F(0), F(0), F(1)))
    c = t.generator(1) * F(15, 2)
    assert normal_form_equivalent(
        _example2_form(1, 1, scale=c), _example2_form(2, 2, scale=c), 14
    )
    assert not normal_form_equivalent(
        _example2_form(1, 1, scale=c), _example2_form(2, 1, scale=c), 14
    )


def test_normal_form_mismatch_signalled():
    b1 = PuiseuxBranch.from_terms(4, {11: F(1), 14: F(1)})
    b2 = PuiseuxBranch.from_terms(4, {11: F(1), 15: F(1)})
    with pytest.raises(NormalFormMismatchError):
        normal_form_equivalent(b1, b2, 14)


def test_semigroup_stable_under_tail_truncation():
    base = {12: F(1), 21: F(1)}
    sg0 = semigroup_of_branch(PuiseuxBranch.from_terms(5, base))
    with_tail = dict(base)
    with_tail[50] = F(7)  # beyond the conductor 44
    assert semigroup_of_branch(PuiseuxBranch.from_terms(5, with_tail)) == sg0
