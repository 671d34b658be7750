"""Implicitization (resultant route vs symmetric-function oracle), polars,
Milnor numbers."""

from fractions import Fraction as F

import pytest

from branchpolar.branch import PuiseuxBranch, semigroup_of_branch
from branchpolar.errors import NonIsolatedSingularityError
from branchpolar.implicit import implicitize, milnor_number, polar
from branchpolar.poly import BivariatePolynomial as BP
from branchpolar.series import evaluate_bivariate

from oracles import implicitize_symmetric


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
    b = PuiseuxBranch.from_terms(n, terms)
    assert implicitize(b) == implicitize_symmetric(b)


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
    assert evaluate_bivariate(f, b.x_series(), b.y_series(None)).is_exact_zero


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
