"""Newton-Puiseux expansion: branch recovery, ramification bookkeeping,
conjugacy counting, and agreement with the polygon path."""

import random
from fractions import Fraction as F

import pytest

from branchpolar.branch import PuiseuxBranch, semigroup_of_branch
from branchpolar.equising import equisingularity_type
from branchpolar.errors import NotReducedError, PrecisionError
from branchpolar.families import gamma_5_12
from branchpolar.implicit import implicitize, polar
from branchpolar.newton import newton_polygon, nondegenerate_type
from branchpolar.poly import BivariatePolynomial as BP
from branchpolar.puiseux import _regular_solve, puiseux_expand
from branchpolar.series import evaluate_bivariate
from branchpolar.tower import Tower

from oracles import branch_intersection, regular_solve_full

SQRT6 = Tower().adjoin("s", (F(-6), F(0), F(1)))


def test_cusp_single_branch():
    bs = puiseux_expand(BP({(0, 2): F(1), (3, 0): F(-1)}))
    assert len(bs) == 1
    b = bs[0]
    assert b.n == 2 and b.conjugacy == 1
    assert semigroup_of_branch(b).generators == (2, 3)


def test_smooth_exact_branch():
    bs = puiseux_expand(BP({(0, 1): F(1), (2, 0): F(-1)}))
    assert len(bs) == 1 and bs[0].trunc is None
    assert bs[0].y_terms == ((2, F(1)),)


def test_y_axis_branch_emitted():
    bs = puiseux_expand(BP({(0, 1): F(1)}) * BP({(0, 1): F(1), (3, 0): F(-1)}))
    smooth = [b for b in bs if not b.y_terms]
    assert len(smooth) == 1 and smooth[0].trunc is None


def test_conjugacy_counting_quartic():
    # 5y^4 - 15x^5y^2 + 5x^10: two <2,5> branches kept as one tower family
    bs = puiseux_expand(BP({(0, 4): F(5), (5, 2): F(-15), (10, 0): F(5)}))
    assert sum(b.conjugacy for b in bs) == 2
    for b in bs:
        assert b.n == 2 and semigroup_of_branch(b).generators == (2, 5)


def test_ramification_sum_equals_y_degree():
    for f in (
        BP({(0, 2): F(1), (3, 0): F(-1)}),
        BP({(0, 4): F(5), (5, 2): F(-15), (10, 0): F(5)}),
        BP({(0, 4): F(5), (8, 1): F(-10), (11, 0): F(-12)}),
        BP({(0, 3): F(1), (5, 1): F(-3), (7, 0): F(-1), (8, 0): F(-1)}),
    ):
        bs = puiseux_expand(f)
        assert sum(b.n * b.conjugacy for b in bs) == f.degree_y()


def test_branches_annihilate_the_germ():
    f = implicitize(PuiseuxBranch.from_terms(3, {7: F(1), 8: F(1)}))
    p = polar(f, F(2), F(3))
    for b in puiseux_expand(p):
        val = evaluate_bivariate(p, b.n, b.y_series())
        assert val.is_exact_zero or min(val.terms, default=val.trunc) >= b.trunc - 1


def test_monotone_stability_under_larger_target():
    f = polar(implicitize(PuiseuxBranch.from_terms(5, {12: F(1), 13: F(1), 14: F(-5, 4), 16: F(2)})), F(1), F(2))
    small = puiseux_expand(f, target_order=40)
    large = puiseux_expand(f, target_order=80)
    assert len(small) == len(large)
    for bs, bl in zip(
        sorted(small, key=lambda b: (b.n, b.y_order() or 0)),
        sorted(large, key=lambda b: (b.n, b.y_order() or 0)),
    ):
        # exponent/coefficient prefixes agree
        ts, tl = dict(bs.y_terms), dict(bl.y_terms)
        for e, c in ts.items():
            if bs.trunc is None or e < min(bs.trunc, bl.trunc or bs.trunc):
                assert e in tl


def test_not_reduced_rejected():
    lin = BP({(0, 1): F(1), (1, 0): F(1)})
    with pytest.raises(NotReducedError):
        puiseux_expand(lin * lin)
    with pytest.raises(ValueError):
        puiseux_expand(BP({(1, 1): F(1), (2, 0): F(1)}))  # x divides


def test_oracle_agreement_polygon_vs_expansion():
    # on Newton non-degenerate germs both paths give one canonical type
    fixtures = [
        BP({(0, 4): F(5), (11, 0): F(-12)}),
        BP({(0, 4): F(5), (8, 1): F(-10), (11, 0): F(-12)}),
        BP({(0, 4): F(1), (5, 2): F(-3), (10, 0): F(1)}),
        BP({(0, 2): F(3), (10, 0): F(-11)}),
    ]
    from oracles import _assemble_type

    for f in fixtures:
        t_polygon = nondegenerate_type(newton_polygon(f))
        branches = puiseux_expand(f)
        t_puiseux = _assemble_type(branches, 0)
        assert t_polygon == t_puiseux


def test_stratum18_wall_genus2_branch():
    b = PuiseuxBranch.from_terms(5, {12: F(1), 13: F(1), 14: F(-5, 4), 16: F(2), 21: F(7)})
    p = polar(implicitize(b), F(3), F(5))
    bs = puiseux_expand(p)
    assert len(bs) == 1
    assert semigroup_of_branch(bs[0]).generators == (4, 10, 21)
    assert bs[0].conjugacy == 1


def test_stratum18_wall_two_branches_I11():
    b = PuiseuxBranch.from_terms(5, {12: F(1), 13: F(1), 14: F(-5, 4), 16: F(-5, 16), 21: F(7)})
    p = polar(implicitize(b), F(3), F(5))
    t = equisingularity_type(p)
    assert [s.generators for s in t.branches] == [(2, 5), (2, 5)]
    assert t.intersections[0][1] == 11


def _coefficient(rng, tower):
    c = F(rng.randint(-9, 9), rng.randint(1, 9))
    if tower is None:
        return c
    return c + tower.generator(1) * F(rng.randint(-9, 9), rng.randint(1, 9))


def _nonzero(rng, tower):
    while True:
        c = _coefficient(rng, tower)
        if c != 0:
            return c


def _regular_germ(rng, tower):
    """f(0, 0) = 0 with f_y(0, 0) a unit; about one germ in three is
    (y - p(x)) u(x, y), whose solution is the polynomial p."""
    if rng.random() < 1 / 3:
        p = {(i, 0): -_coefficient(rng, tower) for i in range(1, rng.randint(2, 12))}
        p[(0, 1)] = F(1)
        u = {(i, j): _coefficient(rng, tower) for i in range(3) for j in range(2)}
        u[(0, 0)] = _nonzero(rng, tower)
        return BP(p) * BP(u)
    terms = {(rng.randint(0, 6), rng.randint(0, 3)): _coefficient(rng, tower) for _ in range(6)}
    terms.pop((0, 0), None)
    terms[(0, 1)] = _nonzero(rng, tower)
    return BP(terms)


@pytest.mark.parametrize("tower", [None, SQRT6], ids=["Q", "sqrt6"])
def test_regular_solve_matches_full_precision_oracle(tower):
    rng = random.Random(5150 if tower is None else 6150)
    for _ in range(40 if tower is None else 20):
        f = _regular_germ(rng, tower)
        budget = rng.randint(4, 14)
        assert _regular_solve(f, budget, None) == regular_solve_full(f, budget)


@pytest.mark.parametrize("tower", [None, SQRT6], ids=["Q", "sqrt6"])
@pytest.mark.parametrize(
    "degree,t_w", [("w-1", False), ("w", True), ("w+1", True), ("w+1", False)]
)
def test_regular_solve_polynomial_solution_boundaries(tower, degree, t_w):
    # f = (y - p(x))(1 + x - 2y): the solution is p, and the solve returns
    # its terms below t^w = t^(budget+1), exact only when deg p < w
    budget = 7
    w = budget + 1
    d = {"w-1": w - 1, "w": w, "w+1": w + 1}[degree]
    rng = random.Random(d)
    p = {i: _nonzero(rng, tower) for i in range(1, d + 1)}
    if d >= w and not t_w:
        del p[w]  # refuting exactness then needs the exact evaluation of f
    f = BP({(0, 1): F(1), **{(i, 0): -c for i, c in p.items()}}) * BP(
        {(0, 0): F(1), (1, 0): F(1), (0, 1): F(-2)}
    )
    terms, validity = _regular_solve(f, budget, None)
    assert terms == {i: c for i, c in p.items() if i < w}
    assert validity == (None if d < w else w)
    assert (terms, validity) == regular_solve_full(f, budget)


def test_explicit_target_exact_polynomial_branch():
    # y = x + x^2/2 + ... + x^9/9 at target 9: the branch is valid to t^10
    # and its degree is 9, so the solve certifies it exact
    p = {i: F(1, i) for i in range(1, 10)}
    f = BP({(0, 1): F(1), **{(i, 0): -c for i, c in p.items()}})
    (b,) = puiseux_expand(f, target_order=9)
    assert b.trunc is None
    assert dict(b.y_terms) == p


@pytest.mark.parametrize(
    "degree,target,valid", [(6, None, 6), (10, 9, 10)], ids=["default-target", "target-9"]
)
def test_recentered_truncation_is_never_claimed_exact(degree, target, valid):
    # y = x + x^2/2 + ... + x^degree/degree: recentering drops the top term
    # above the child budget, so the solution of the truncated germ is a
    # polynomial that is not the branch; it must come back truncated
    p = {i: F(1, i) for i in range(1, degree + 1)}
    f = BP({(0, 1): F(1), **{(i, 0): -c for i, c in p.items()}})
    (b,) = puiseux_expand(f, target_order=target)
    assert b.trunc == valid
    assert dict(b.y_terms) == {i: c for i, c in p.items() if i < valid}


def test_truncated_solution_with_zero_top_term_is_not_exact():
    # a regular germ known only modulo x^(budget+1) whose solution has no
    # t^w term: the exact evaluation would certify the truncated germ only
    f = BP({(0, 1): F(1), (1, 0): F(-1)})
    assert _regular_solve(f, 7, None) == ({1: F(1)}, None)
    assert _regular_solve(f, 7, 8) == ({1: F(1)}, 8)


def test_regular_solve_claims_no_more_than_the_known_precision():
    f = BP({(0, 1): F(1), (1, 0): F(-1), (3, 0): F(2)})
    assert _regular_solve(f, 7, 3) == ({1: F(1)}, 3)
    with pytest.raises(PrecisionError):
        _regular_solve(f, 7, 1)


def test_truncated_square_factor_is_a_precision_shortfall():
    # (y - x)^2 - x^13 recenters at the double root y = x to y1^2 - x^11; at
    # target 8 the x^11 term is dropped and y1^2 divides the truncated germ.
    # The germ is reduced, so the budget doubles instead of NotReducedError
    x, y = BP({(1, 0): F(1)}), BP({(0, 1): F(1)})
    f = (y - x) * (y - x) - BP({(13, 0): F(1)})
    (b,) = puiseux_expand(f, target_order=8)
    assert (b.n, b.y_exponents(), b.trunc) == (2, [2, 13], None)


def test_recentered_y_axis_root_is_never_claimed_exact():
    # (y - x)^2 - x^3 (y - x) - x^14 recenters at the double root y = x to
    # y1^2 - x^2 y1 - x^12; at target 8 the x^12 term is dropped, leaving
    # y1 (y1 - x^2).  The root y1 = 0 of the truncated germ stands for the
    # true root y1 = -x^10 + ..., so it holds only to t^(7 + 1 - 2) there
    x, y = BP({(1, 0): F(1)}), BP({(0, 1): F(1)})
    d = y - x
    f = d * d - BP({(3, 0): F(1)}) * d - BP({(14, 0): F(1)})
    axis, other = puiseux_expand(f, target_order=8)
    assert (dict(axis.y_terms), axis.trunc) == ({1: F(1)}, 7)
    assert (dict(other.y_terms), other.trunc) == ({1: F(1), 3: F(1)}, 9)


def test_small_targets_respect_the_precision_lost_in_recentering():
    # a row-18 wall polar whose germ, truncated at depth 0, is recentered
    # again at depth 1: its terms from x^K up land at x1^(e*K - lvl) and
    # above, so a branch may claim no validity beyond that known precision
    b = gamma_5_12(18).branch({"c": F(-5, 4), "d": F(-5, 16), "e": F(1)})
    p = polar(implicitize(b), F(-5, 12), F(6))
    (full,) = puiseux_expand(p)
    for target in range(1, 13):
        (br,) = puiseux_expand(p, target_order=target)
        assert br.trunc <= full.trunc
        assert br.y_terms == tuple((e, c) for e, c in full.y_terms if e < br.trunc)


def test_expanding_a_germ_twice_gives_identical_towers():
    # level names come from level positions, not from a process-wide
    # counter, so a repeated expansion names its levels the same way
    p = polar(implicitize(PuiseuxBranch.from_terms(6, {9: F(1), 10: F(1)})), F(2), F(5))
    first = [repr(b.tower()) for b in puiseux_expand(p)]
    second = [repr(b.tower()) for b in puiseux_expand(p)]
    assert first == second
    assert "Tower(r1^2,r2^2)" in first


def test_split_is_caught_where_its_level_was_adjoined():
    # the side polynomial (z^2 - 4)^2 adjoins a root r of z^2 - 4, which
    # splits one node down; rerunning the whole expansion in each component
    # stacked a new level per rerun until RecursionError
    x, y = BP({(1, 0): F(1)}), BP({(0, 1): F(1)})
    bs = puiseux_expand(((y - x * 2) ** 2 - x**3) * ((y + x * 2) ** 2 - x**5))
    assert sorted(semigroup_of_branch(b).generators for b in bs) == [(2, 3), (2, 5)]
    assert [b.conjugacy for b in bs] == [1, 1]
    # each branch's tower keeps r in a linear level, which pair towers copy
    assert [b.tower().degrees for b in bs] == [(1, 2), (1, 2)]
    assert branch_intersection(bs[0], bs[1]) == 4


def _rational_terms(b):
    """y-terms of a branch whose tower levels are all linear, as rationals."""
    return {e: c.rep[0] if hasattr(c, "rep") else c for e, c in b.y_terms}


def test_zero_divisor_coefficients_split_where_their_level_was_adjoined():
    x, y = BP({(1, 0): F(1)}), BP({(0, 1): F(1)})
    # one root r of z^2 - 1 solves to y = r x + (r - 1)/2 x^2, a zero divisor
    bs = puiseux_expand((y - x) * (y + x + x**2))
    assert sorted(sorted(_rational_terms(b).items()) for b in bs) == [
        [(1, -1), (2, -1)],
        [(1, 1)],
    ]
    # one root r of z^2 - 4, one node down: the last vertex of the polygon
    # has a zero-divisor coefficient on a side of height 1
    bs = puiseux_expand(
        (y - x * 2 - x**2) * (y - x * 2 - x**3) * (y + x * 2 - x**2) * (y + x * 2 - x**4)
    )
    assert sorted(sorted(_rational_terms(b).items()) for b in bs) == [
        [(1, -2), (2, 1)],
        [(1, -2), (4, 1)],
        [(1, 2), (2, 1)],
        [(1, 2), (3, 1)],
    ]
    assert all(b.conjugacy == 1 for b in bs)
    # as above, with that side's root the only zero divisor: the solution
    # past it is x1 in both components
    bs = puiseux_expand(
        (y - x * 2 - x**2) * (y - x * 2 - x**3 - x**4) * (y + x * 2 - x**2) * (y + x * 2 - x**4)
    )
    assert sorted(sorted(_rational_terms(b).items()) for b in bs) == [
        [(1, -2), (2, 1)],
        [(1, -2), (4, 1)],
        [(1, 2), (2, 1)],
        [(1, 2), (3, 1), (4, 1)],
    ]
