"""Implicitization (power sums vs the t-resultant oracle), polars, Milnor
numbers (one locality-checked resultant vs the two-shear oracle)."""

import random
from fractions import Fraction as F
from math import gcd

import pytest

from branchpolar.branch import PuiseuxBranch, semigroup_of_branch
from branchpolar.equising import equisingularity_type, random_direction
from branchpolar.errors import NonIsolatedSingularityError
from branchpolar.families import SQRT6
from branchpolar.implicit import implicitize, milnor_number, polar, shears
from branchpolar.poly import BivariatePolynomial as BP
from branchpolar.series import evaluate_bivariate

from oracles import implicitize_resultant, milnor_number_two_shears


def test_cusp():
    f = implicitize(PuiseuxBranch.from_terms(2, {3: F(1)}))
    assert f == BP({(0, 2): F(1), (3, 0): F(-1)})


def test_mult3_paper_equation():
    f = implicitize(PuiseuxBranch.from_terms(3, {7: F(1), 8: F(1)}))
    assert f == BP({(0, 3): F(1), (5, 1): F(-3), (7, 0): F(-1), (8, 0): F(-1)})


def test_monomial_weierstrass():
    f = implicitize(PuiseuxBranch.from_terms(5, {12: F(1)}))
    assert f == BP({(0, 5): F(1), (12, 0): F(-1)})


@pytest.mark.parametrize(
    "n,terms",
    [
        (2, {3: F(1)}),
        (3, {7: F(1), 8: F(1)}),
        (4, {6: F(1), 7: F(1)}),
        (4, {11: F(1), 14: F(1), 17: F(-1, 2)}),
        (5, {12: F(1), 21: F(1), 23: F(2, 3)}),
    ],
)
def test_symmetric_function_oracle(n, terms):
    # the power-sum route of implicitize against the t-resultant
    b = PuiseuxBranch.from_terms(n, terms)
    assert implicitize(b) == implicitize_resultant(b)


def _random_branch(rng, sqrt6=False):
    """x = t^n, y = sum of 1-4 terms between t^n and t^(3n) with n <= 6,
    in normal form (no exponent divisible by n) and primitive (the exponents
    and n have gcd 1); with ``sqrt6`` some coefficients lie in Q(sqrt6) and
    at least one does."""
    n = rng.randint(2, 6)
    while True:
        exps = [e for e in range(n + 1, 3 * n) if e % n]
        exps = sorted(rng.sample(exps, min(len(exps), rng.randint(1, 4))))
        if gcd(n, *exps) == 1:
            break
    terms = {}
    for i, e in enumerate(exps):
        c = F(rng.randint(-9, 9) or 1, rng.randint(1, 5))
        if sqrt6 and (i == 0 or rng.randint(0, 1)):
            c = c + F(rng.randint(-3, 3) or 1, rng.randint(1, 3)) * SQRT6
        terms[e] = c
    return PuiseuxBranch.from_terms(n, terms)


def _table_3_2_sqrt6_rows():
    """The sqrt6-wall rows of Table 3.2, in the second normal form."""
    def nf2(m, j, avals):
        terms = {m: F(1), 3 * m - 4 * j: F(1)}
        for i, v in avals.items():
            terms[2 * m - 4 * (j - m // 4 - i)] = v
        return PuiseuxBranch.from_terms(4, terms)

    wall = F(4, 9) * SQRT6
    return [
        nf2(29, 13, {1: wall}),
        nf2(29, 13, {1: wall, 2: F(3)}),
        nf2(29, 13, {1: wall, 3: F(3)}),
        nf2(29, 13, {1: wall, 4: F(1) - F(4, 81) * SQRT6}),
        nf2(29, 13, {1: wall, 4: F(3)}),
        nf2(19, 9, {1: wall, 2: F(-4, 81) * SQRT6}),
    ]


def _oracle_cases():
    rng = random.Random(20261018)
    rational = [_random_branch(rng) for _ in range(30)]
    towered = [_random_branch(rng, sqrt6=True) for _ in range(10)]
    return rng, rational + towered + _table_3_2_sqrt6_rows()


def test_power_sums_match_resultant_oracle():
    _rng, branches = _oracle_cases()
    for b in branches:
        assert implicitize(b) == implicitize_resultant(b), b


def test_milnor_matches_two_shear_oracle():
    # on branches and their polars every critical point on x = 0 other than
    # the origin is absent, so the two-shear sum is mu as well
    rng, branches = _oracle_cases()
    for b in branches:
        f = implicitize(b)
        mu = milnor_number(f)
        assert mu == milnor_number_two_shears(f) == semigroup_of_branch(b).conductor, b
        for _ in range(2):
            p = polar(f, *random_direction(rng))
            assert milnor_number(p) == milnor_number_two_shears(p), (b, p)


@pytest.mark.parametrize(
    "n,terms", [(3, {4: F(1), 6: F(2)}), (4, {6: F(1), 7: F(1), 8: F(-1, 3)})]
)
def test_milnor_matches_two_shear_oracle_after_x_shear(n, terms):
    # an exponent divisible by n puts x-terms into the y^(n-1) coefficients
    # of the polars: their y-leading coefficient is a unit, not a constant
    b = PuiseuxBranch.from_terms(n, terms)
    f = implicitize(b)
    rng = random.Random(n)
    for _ in range(3):
        p = polar(f, *random_direction(rng))
        assert p.coefficient_of_y(p.degree_y()).support() != [(0, 0)]
        assert milnor_number(p) == milnor_number_two_shears(p)


def test_unit_leading_coefficient_needs_no_shear(monkeypatch):
    # 6 | 24, so the polars of this branch have a non-constant y-leading
    # coefficient; it is a unit, and the unsheared resultant gives mu
    b = PuiseuxBranch.from_terms(6, {23: F(-4), 24: F(-5)})
    p = polar(implicitize(b), F(2), F(3))
    assert p.coefficient_of_y(p.degree_y()).support() != [(0, 0)]

    def no_shear(self, sigma):
        raise AssertionError("milnor_number sheared a germ with a unit leading coefficient")

    monkeypatch.setattr(BP, "shift_x", no_shear)
    assert milnor_number(p) == 84


def test_vanishing_and_weierstrass_shape():
    b = PuiseuxBranch.from_terms(5, {12: F(1), 14: F(1), 16: F(13, 12), 18: F(133, 108)})
    f = implicitize(b)
    assert f.degree_y() == 5
    assert f.coefficient_of_y(5).support() == [(0, 0)]
    # normal forms avoid exponents divisible by n, so the trace term is zero
    assert f.coefficient_of_y(4).is_zero
    for j in range(1, 6):
        cj = f.coefficient_of_y(5 - j)
        if not cj.is_zero:
            assert cj.x_power_divisor() > j
    assert evaluate_bivariate(f, b.n, b.y_series(None)).is_exact_zero


def test_polar_row1_and_derivative():
    f = implicitize(PuiseuxBranch.from_terms(5, {12: F(1)}))
    p = polar(f, F(1), F(1))
    assert p.support() == [(0, 4), (11, 0)]
    assert p.terms[(0, 4)] == F(5) and p.terms[(11, 0)] == F(-12)
    f2 = BP({(0, 3): F(1), (11, 0): F(-1)})
    assert polar(f2, F(1), F(1)) == BP({(0, 2): F(3), (10, 0): F(-11)})
    assert polar(f2, F(0), F(1)) == f2.derivative_y()
    with pytest.raises(ValueError):
        polar(f2, F(0), F(0))


def test_milnor_examples():
    assert milnor_number(BP({(0, 2): F(1), (3, 0): F(-1)})) == 2
    assert milnor_number(BP({(0, 3): F(1), (11, 0): F(-1)})) == 20
    f = implicitize(PuiseuxBranch.from_terms(5, {12: F(1), 21: F(1)}))
    assert milnor_number(f) == 44


def test_milnor_equals_conductor_for_branches():
    for n, terms in [
        (2, {3: F(1)}),
        (3, {7: F(1), 8: F(1)}),
        (4, {6: F(1), 7: F(1), 9: F(2)}),
        (5, {12: F(1), 16: F(1), 18: F(3), 23: F(-2)}),
    ]:
        b = PuiseuxBranch.from_terms(n, terms)
        assert milnor_number(implicitize(b)) == semigroup_of_branch(b).conductor


def test_milnor_rejects_nonreduced():
    f = BP({(0, 1): F(1), (1, 0): F(-1)})  # y - x
    with pytest.raises(NonIsolatedSingularityError):
        milnor_number(f * f)


def test_milnor_smooth_is_zero():
    assert milnor_number(BP({(0, 1): F(1), (2, 0): F(-1)})) == 0


def _cusp_at(y0):
    """(y - y0)^2 - x^3, a cusp at (0, y0)."""
    return BP({(0, 2): F(1), (0, 1): F(-2 * y0), (0, 0): F(y0 * y0), (3, 0): F(-1)})


def test_milnor_counts_the_origin_alone():
    # a second cusp at (0, 1), and a critical point at (0, 1/2), lie on
    # x = 0: shears y -> y + rho x fix that line, so the two-shear sum
    # counts them too; the locality check shears them off it
    f = _cusp_at(0) * _cusp_at(1)
    assert milnor_number_two_shears(f) == 6
    assert milnor_number(f) == 2
    t = equisingularity_type(f)
    assert [s.generators for s in t.branches] == [(2, 3)] and t.milnor_number() == 2


def test_shears_are_one_fixed_stream():
    # f first, then seven distinct shears, the same ones on every call
    f = _cusp_at(0)
    gs = list(shears(f))
    assert gs[0] is f and gs == list(shears(f))
    assert len({tuple(sorted(g.terms.items())) for g in gs}) == 8


def test_milnor_rejects_locality_failing_for_every_shear():
    # the double line y = 1 is critical and meets every line through the
    # origin, so no shear x -> x + sigma y leaves the origin alone on x = 0
    line = BP({(0, 1): F(1), (0, 0): F(-1)})
    with pytest.raises(NonIsolatedSingularityError, match="shear"):
        milnor_number(_cusp_at(0) * line * line)
