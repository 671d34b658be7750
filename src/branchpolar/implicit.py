"""From parametrization to implicit equation, polar curves, Milnor numbers.

Implicitization eliminates the parameter by a t-resultant,

    f(x, y) = Res_t(t^n - x, y - y(t)),

which is exact because normal-form parametrizations are polynomial; the
result is the monic degree-n Weierstrass polynomial vanishing on the branch.
The symmetric-function route through power sums (no roots of unity are
needed: power sums of y(eps^l t) keep only exponents divisible by n) is kept
alongside as an independent oracle.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .branch import PuiseuxBranch
from .errors import NonIsolatedSingularityError
from .poly import BivariatePolynomial, prs_resultant, resultant_y
from .series import TruncatedSeries, evaluate_bivariate
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


def implicitize_symmetric(b: PuiseuxBranch) -> BivariatePolynomial:
    """Implicitization through elementary symmetric functions of the
    conjugates y(eps^l t) via power sums and Newton's identities.

    Independent of the resultant route; used as a test oracle.
    """
    if b.trunc is not None:
        raise ValueError("implicitization needs an exact polynomial parametrization")
    n = b.n
    ys = b.y_series(None)
    one = TruncatedSeries.constant(Fraction(1))
    ypows = [one]
    for _ in range(n):
        ypows.append(ypows[-1] * ys)
    # p_k(t) = sum_l y(eps^l t)^k keeps exactly the exponents divisible by n
    ps = []
    for k in range(1, n + 1):
        pk = {e: n * c for e, c in ypows[k].terms.items() if e % n == 0}
        ps.append(pk)
    es = [{0: Fraction(1)} if False else {}]  # e_0 handled implicitly below
    es[0] = {0: Fraction(1)}
    for k in range(1, n + 1):
        acc: dict[int, Value] = {}
        sign = 1
        for i in range(1, k + 1):
            term = _dict_mul(es[k - i], ps[i - 1])
            for e, c in term.items():
                v = acc.get(e, Fraction(0)) + sign * c
                if value_is_zero(v):
                    acc.pop(e, None)
                else:
                    acc[e] = v
            sign = -sign
        es.append({e: c / k for e, c in acc.items()})
    terms: dict = {}
    terms[(0, n)] = Fraction(1)
    for r in range(1, n + 1):
        for e, c in es[r].items():
            v = c if r % 2 == 0 else -c
            terms[(e // n, n - r)] = v
    return BivariatePolynomial(terms)


def _dict_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            v = out.get(e, Fraction(0)) + c1 * c2
            if value_is_zero(v):
                out.pop(e, None)
            else:
                out[e] = v
    return out


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
