"""From parametrization to implicit equation, polar curves, Milnor numbers.

Implicitization eliminates the parameter by a t-resultant,

    f(x, y) = Res_t(t^n - x, y - y(t)),

which is exact because normal-form parametrizations are polynomial; the
result is the monic degree-n Weierstrass polynomial vanishing on the branch.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .branch import PuiseuxBranch
from .errors import NonIsolatedSingularityError
from .poly import BivariatePolynomial, prs_resultant, resultant_y
from .series import evaluate_bivariate
from .tower import Value, invert_value, value_is_zero


def implicitize(b: PuiseuxBranch) -> BivariatePolynomial:
    """Monic Weierstrass polynomial of degree n in y vanishing on the branch.

    Requires an exact (polynomial) parametrization.  The postconditions are
    checked: f(t^n, y(t)) = 0 identically and ord_x of the y^(n-j)
    coefficient exceeds j.
    """
    if b.trunc is not None:
        raise ValueError("implicitization needs an exact polynomial parametrization")
    n = b.n
    # A = t^n - x, B = y - y(t) as polynomials in t over QQ[x,y] (or tower)
    A = [BivariatePolynomial.zero()] * (n + 1)
    A[0] = BivariatePolynomial.monomial(1, 0, Fraction(-1))
    A[n] = BivariatePolynomial.constant(Fraction(1))
    deg_t = max((e for e, _ in b.y_terms), default=0)
    B = [BivariatePolynomial.zero()] * (deg_t + 1)
    B[0] = BivariatePolynomial.monomial(0, 1)
    for e, c in b.y_terms:
        B[e] = B[e] + BivariatePolynomial.constant(-c)
    f = prs_resultant(A, B)
    # normalize to be monic in y (the resultant is so up to a unit constant)
    lead = f.coefficient_of_y(n)
    if lead.support() != [(0, 0)]:
        raise AssertionError("implicitization did not produce a Weierstrass polynomial")
    lc = lead.terms[(0, 0)]
    if not (isinstance(lc, Fraction) and lc == 1):
        f = f * BivariatePolynomial.constant(invert_value(lc))
    _check_weierstrass(f, b)
    return f


def _check_weierstrass(f: BivariatePolynomial, b: PuiseuxBranch) -> None:
    n = b.n
    if f.degree_y() != n:
        raise AssertionError("wrong y-degree after implicitization")
    m = b.y_order()
    if m is not None and m > n:
        # normal-form situation: the y^(n-j) coefficient has x-order > j
        for j in range(1, n + 1):
            cj = f.coefficient_of_y(n - j)
            if not cj.is_zero and cj.x_power_divisor() <= j:
                raise AssertionError("Weierstrass order condition ord_x a_j > j violated")
    res = evaluate_bivariate(f, b.x_series(), b.y_series(None))
    if not res.is_exact_zero:
        raise AssertionError("implicit equation does not vanish on the branch")


def polar(f: BivariatePolynomial, a: Value, b: Value) -> BivariatePolynomial:
    """The polar of f in the direction (a : b): a f_x + b f_y."""
    if isinstance(a, int):
        a = Fraction(a)
    if isinstance(b, int):
        b = Fraction(b)
    if value_is_zero(a) and value_is_zero(b):
        raise ValueError("polar direction (0,0) rejected")
    return f.derivative_x() * BivariatePolynomial.constant(a) + f.derivative_y() * BivariatePolynomial.constant(b)


def milnor_number(f: BivariatePolynomial, rng: random.Random | None = None) -> int:
    """mu = ord_x Res_y(f_x, f_y) after random shears, certified by
    agreement of two independent shear samples.

    The shear y -> y + rho x keeps the intersection multiplicity and makes
    the configuration generic; when the y-leading coefficient of f is not
    constant an additional x -> x + sigma y substitution first makes f
    y-general so that the resultant order counts only the origin.
    """
    if rng is None:
        rng = random.Random(20260810)
    g0 = f
    lead = g0.coefficient_of_y(g0.degree_y())
    tries = 0
    while lead.support() != [(0, 0)]:
        sigma = Fraction(rng.randint(1, 100), rng.randint(1, 100))
        g0 = f.shift_x(sigma)
        lead = g0.coefficient_of_y(g0.degree_y())
        tries += 1
        if tries > 5:
            raise NonIsolatedSingularityError("cannot make f y-general by shearing")

    orders = []
    for _ in range(2):
        rho = Fraction(rng.randint(1, 100), rng.randint(1, 100))
        if rng.randint(0, 1):
            rho = -rho
        g = g0.shift_y(rho)
        gx, gy = g.derivative_x(), g.derivative_y()
        if gx.is_zero or gy.is_zero:
            return 0
        if gy.degree_y() <= 0 and gx.degree_y() <= 0:
            return 0
        res = resultant_y(gx, gy)
        if res.is_zero:
            orders.append(None)
        else:
            orders.append(res.x_order())
    if orders[0] is None and orders[1] is None:
        raise NonIsolatedSingularityError(
            "Res_y(f_x, f_y) vanishes identically for two shears"
        )
    if orders[0] != orders[1]:
        raise NonIsolatedSingularityError(
            f"shear orders disagree: {orders} (degenerate sampling)"
        )
    return orders[0]
