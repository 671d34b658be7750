"""From parametrization to implicit equation, polar curves, Milnor numbers.

The implicit equation of x = t^n, y = y(t) is the characteristic polynomial

    f(x, y) = det(y - M) = prod_l (y - y(eps^l t)),    eps^n = 1,

of multiplication M by y(t) on Q[x][t]/(t^n - x).  Its coefficients come
from the power sums of the conjugates by Newton's identities, with no roots
of unity: sum_l y(eps^l t)^k keeps exactly the exponents of y(t)^k divisible
by n.  This is exact because normal-form parametrizations are polynomial;
the result is the monic degree-n Weierstrass polynomial vanishing on the
branch, and that vanishing is checked.

The Milnor number mu = I_0(f_x, f_y) is read off one resultant: when the
y-leading coefficient of f is a unit (nonzero at x = 0), ord_x Res_y(f_x, f_y)
is the sum of the intersection numbers I_p(f_x, f_y) over the points p of
the line x = 0 (Casas-Alvero, *Singularities of Plane Curves*, 2000,
ch. 1-2).
"""

from __future__ import annotations

import random
from fractions import Fraction

from .branch import PuiseuxBranch
from .errors import NonIsolatedSingularityError
from .poly import BivariatePolynomial, resultant_y
from .series import TruncatedSeries, evaluate_bivariate
from .tower import Value, value_is_zero
from .unipoly import ugcd


def implicitize(b: PuiseuxBranch) -> BivariatePolynomial:
    """Monic Weierstrass polynomial of degree n in y vanishing on the branch.

    Requires an exact (polynomial) parametrization.  The postconditions are
    checked: f(t^n, y(t)) = 0 identically and ord_x of the y^(n-j)
    coefficient exceeds j.
    """
    if b.trunc is not None:
        raise ValueError("implicitization needs an exact polynomial parametrization")
    n = b.n
    y = b.y_series(None)
    yk = TruncatedSeries.constant(Fraction(1))
    # power sums p_k = n * sum_{n | e} [t^e] y(t)^k x^(e/n) of the conjugates
    p = []
    for _ in range(n):
        yk = yk * y
        p.append(
            BivariatePolynomial({(e // n, 0): n * c for e, c in yk.terms.items() if e % n == 0})
        )
    # Newton's identities: k e_k = sum_{i=1}^k (-1)^(i-1) e_(k-i) p_i
    es = [BivariatePolynomial.one()]
    for k in range(1, n + 1):
        s = BivariatePolynomial.zero()
        for i in range(1, k + 1):
            term = es[k - i] * p[i - 1]
            s = s + term if i % 2 else s - term
        es.append(s.scale(Fraction(1, k)))
    # f = prod_l (y - y_l) = sum_r (-1)^r e_r y^(n-r)
    f = BivariatePolynomial(
        {(i, n - r): -c if r % 2 else c for r, e in enumerate(es) for (i, _), c in e.terms.items()}
    )
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
    res = evaluate_bivariate(f, b.n, b.y_series(None))
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


def _origin_alone_on_y_axis(gx: BivariatePolynomial, gy: BivariatePolynomial) -> bool:
    """True iff y = 0 is the only common root of gx(0, y) and gy(0, y), that
    is, their gcd is a power of y (gcd(0, p) = p)."""
    on_axis = ([g.terms.get((0, j), Fraction(0)) for j in range(g.degree_y() + 1)] for g in (gx, gy))
    h = ugcd(*on_axis)
    return bool(h) and all(value_is_zero(c) for c in h[:-1])


def shears(f: BivariatePolynomial):
    """f, then f(x + sigma*y, y) for 7 values of sigma of height <= 100 and
    either sign, drawn from one fixed seeded stream, so every caller tries
    the same shears in the same order."""
    yield f
    rng = random.Random(0)
    for _ in range(7):
        sigma = Fraction(rng.randint(1, 100), rng.randint(1, 100))
        yield f.shift_x(-sigma if rng.randint(0, 1) else sigma)


def milnor_number(f: BivariatePolynomial) -> int:
    """mu = ord_x Res_y(g_x, g_y) for the first germ g of :func:`shears`
    that qualifies: f itself, or a shear f(x + sigma y, y).

    With lc_y(g) a unit, ord_x Res_y(g_x, g_y) is the sum of ord_x g_x(x, beta)
    over the roots beta of g_y.  Those roots stay bounded, since lc_y(g_y)
    does not vanish at x = 0, so the sum is that of the local intersection
    numbers I_p(g_x, g_y) over the points p on the line x = 0.
    The locality condition -- y = 0 is the only common root of g_x(0, y)
    and g_y(0, y), decided exactly by a gcd -- leaves p = 0 alone in that
    sum, and I_0(g_x, g_y) = mu.  Both conditions are met by f or by all
    but finitely many shears; a germ that fails them for every shear tried
    (f_x and f_y share a component meeting every line through the origin)
    raises NonIsolatedSingularityError, as does a resultant that vanishes
    identically.

    Shears y -> y + rho x are not needed: they fix the line x = 0 and
    therefore give the same sum of intersection numbers for every rho, so
    agreement between two of them certified nothing the locality check
    does not.
    """
    for g in shears(f):
        if (0, 0) in g.coefficient_of_y(g.degree_y()).terms:
            if g.degree_y() <= 1:
                return 0  # g = c(x) y + b(x) with c(0) != 0: no critical point
            gx, gy = g.derivative_x(), g.derivative_y()
            if _origin_alone_on_y_axis(gx, gy):
                break
    else:
        raise NonIsolatedSingularityError(
            "no shear x -> x + sigma y makes f y-general with the origin its "
            "only critical point on x = 0"
        )
    if gx.is_zero:  # g = g(y) with g'(0) = 0: the line y = 0 is critical
        raise NonIsolatedSingularityError("f_x vanishes identically")
    res = resultant_y(gx, gy)
    if res.is_zero:
        raise NonIsolatedSingularityError("Res_y(f_x, f_y) vanishes identically")
    return res.x_order()
