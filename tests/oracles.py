"""Independent reference implementations that tests compare the library
against."""

from fractions import Fraction

from branchpolar.branch import PuiseuxBranch
from branchpolar.poly import BivariatePolynomial
from branchpolar.series import TruncatedSeries, evaluate_bivariate
from branchpolar.tower import Tower, classify_value, value_is_zero


def sylvester_resultant_y(f: BivariatePolynomial, g: BivariatePolynomial) -> BivariatePolynomial:
    """Resultant with respect to y via fraction-free Bareiss elimination of
    the Sylvester matrix; an independent route kept as an oracle for the
    subresultant PRS."""
    F, G = f.y_coefficients(), g.y_coefficients()
    n, m = len(F) - 1, len(G) - 1
    if n < 0 or m < 0:
        return BivariatePolynomial.zero()
    size = n + m
    zero = BivariatePolynomial.zero()
    M = [[zero] * size for _ in range(size)]
    for r in range(m):
        for k in range(n + 1):
            M[r][r + k] = F[n - k]
    for r in range(n):
        for k in range(m + 1):
            M[m + r][r + k] = G[m - k]
    # Bareiss: exact-division fraction-free Gaussian elimination
    sign = 1
    prev = BivariatePolynomial.one()
    for k in range(size - 1):
        if M[k][k].is_zero:
            for r in range(k + 1, size):
                if not M[r][k].is_zero:
                    M[k], M[r] = M[r], M[k]
                    sign = -sign
                    break
            else:
                return BivariatePolynomial.zero()
        for r in range(k + 1, size):
            for c in range(k + 1, size):
                num = M[r][c] * M[k][k] - M[r][k] * M[k][c]
                M[r][c] = num.exact_div(prev)
            M[r][k] = zero
        prev = M[k][k]
    det = M[size - 1][size - 1]
    return det if sign == 1 else -det


def implicitize_symmetric(b: PuiseuxBranch) -> BivariatePolynomial:
    """Implicitization through elementary symmetric functions of the
    conjugates y(eps^l t) via power sums and Newton's identities; an
    independent route kept as an oracle for the t-resultant.  No roots of
    unity are needed: power sums of the conjugates keep exactly the
    exponents of y(t)^k divisible by n."""
    if b.trunc is not None:
        raise ValueError("implicitization needs an exact polynomial parametrization")
    n = b.n
    ys = b.y_series(None)
    ypows = [TruncatedSeries.constant(Fraction(1))]
    for _ in range(n):
        ypows.append(ypows[-1] * ys)
    # p_k(t) = sum_l y(eps^l t)^k keeps exactly the exponents divisible by n
    ps = []
    for k in range(1, n + 1):
        ps.append({e: n * c for e, c in ypows[k].terms.items() if e % n == 0})
    es = [{0: Fraction(1)}]
    for k in range(1, n + 1):
        acc: dict = {}
        sign = 1
        for i in range(1, k + 1):
            for e, c in _dict_mul(es[k - i], ps[i - 1]).items():
                v = acc.get(e, Fraction(0)) + sign * c
                if value_is_zero(v):
                    acc.pop(e, None)
                else:
                    acc[e] = v
            sign = -sign
        es.append({e: c / k for e, c in acc.items()})
    terms: dict = {(0, n): Fraction(1)}
    for r in range(1, n + 1):
        for e, c in es[r].items():
            terms[(e // n, n - r)] = c if r % 2 == 0 else -c
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


def regular_solve_full(f: BivariatePolynomial, budget: int) -> tuple[dict, int | None]:
    """Newton solve of f(x, y(x)) = 0, y(0) = 0, at a simple root, doing the
    full work at every step: f_y inverted to the full doubled precision,
    the iteration stopped at w = budget + 1, and the exactness of the result
    always decided by evaluating f at it with no truncation.  A reference
    for ``puiseux._regular_solve``, which must return the same terms and
    validity order."""
    w = budget + 1
    fy = f.derivative_y()
    kind, _ = classify_value(fy.terms.get((0, 0), Fraction(0)))
    if kind != "unit":
        raise AssertionError("regular solve called at a non-simple root")
    xs = TruncatedSeries.monomial(1)
    y = TruncatedSeries.zero(1)
    prec = 1
    while prec < w:
        prec = min(2 * prec, w)
        ycur = y.declare_trunc(prec)
        num = evaluate_bivariate(f, xs, ycur).truncate(prec)
        if num.is_zero_mod_trunc:
            y = ycur
            continue
        den = evaluate_bivariate(fy, xs, ycur).truncate(prec)
        y = (ycur - num * den.inverse(prec)).truncate(prec).declare_trunc(prec)
    exact = evaluate_bivariate(f, xs, y.declare_trunc(None)).is_exact_zero
    return dict(y.terms), None if exact else w


# -- nested-Fraction tower arithmetic ------------------------------------------
#
# A stage-0 representation is a Fraction; a stage-k one is a tuple of
# stage-(k-1) representations, the coefficients in the k-th generator reduced
# modulo its minimal polynomial, trailing zeros stripped (so () is zero).
# Recursive Fraction arithmetic on these is the reference that the flat
# integer ``TowerElement`` results are compared with.


def nested_zero(stage: int):
    return Fraction(0) if stage == 0 else ()


def nested_one(stage: int):
    one = Fraction(1)
    for _ in range(stage):
        one = (one,)
    return one


def _is_zero(rep, stage: int) -> bool:
    return rep == 0 if stage == 0 else rep == ()


def _strip(coeffs: list, stage: int) -> tuple:
    n = len(coeffs)
    while n and _is_zero(coeffs[n - 1], stage):
        n -= 1
    return tuple(coeffs[:n])


def nested_add(tw: Tower, stage: int, a, b):
    if stage == 0:
        return a + b
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = nested_add(tw, stage - 1, out[i], c)
    return _strip(out, stage - 1)


def nested_neg(tw: Tower, stage: int, a):
    if stage == 0:
        return -a
    return tuple(nested_neg(tw, stage - 1, c) for c in a)


def nested_sub(tw: Tower, stage: int, a, b):
    return nested_add(tw, stage, a, nested_neg(tw, stage, b))


def nested_reduce(tw: Tower, stage: int, coeffs: list):
    """Reduce a dense coefficient list modulo the stage's monic minimal
    polynomial."""
    mp = tw.levels[stage - 1].minpoly
    d = len(mp) - 1
    coeffs = list(coeffs)
    for i in range(len(coeffs) - 1, d - 1, -1):
        lead = coeffs[i]
        if _is_zero(lead, stage - 1):
            continue
        for k in range(d):
            coeffs[i - d + k] = nested_sub(
                tw, stage - 1, coeffs[i - d + k], nested_mul(tw, stage - 1, lead, mp[k])
            )
        coeffs[i] = nested_zero(stage - 1)
    return _strip(coeffs[:d] if len(coeffs) > d else coeffs, stage - 1)


def nested_mul(tw: Tower, stage: int, a, b):
    if stage == 0:
        return a * b
    if a == () or b == ():
        return ()
    prod = [nested_zero(stage - 1)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if _is_zero(ca, stage - 1):
            continue
        for j, cb in enumerate(b):
            if _is_zero(cb, stage - 1):
                continue
            prod[i + j] = nested_add(tw, stage - 1, prod[i + j], nested_mul(tw, stage - 1, ca, cb))
    return nested_reduce(tw, stage, prod)


def nested_pow(tw: Tower, stage: int, a, n: int):
    out = nested_one(stage)
    base = a
    while n:
        if n & 1:
            out = nested_mul(tw, stage, out, base)
        base = nested_mul(tw, stage, base, base)
        n >>= 1
    return out
