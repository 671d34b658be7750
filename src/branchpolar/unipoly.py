"""Univariate polynomials over exact scalar values.

Polynomials here are plain dense coefficient lists (index = degree, trailing
ring-zeros stripped) whose entries are rationals or tower elements.  This is
the layer used for side polynomials, minimal polynomials, gcd and squarefree
computations during Newton-Puiseux root taking.  Everything is exact;
inversions go through :func:`~branchpolar.tower.unit_inverse`, so any of
these functions may raise :class:`~branchpolar.tower.TowerSplit`.
"""

from __future__ import annotations

from fractions import Fraction

from .tower import Tower, Value, over_components, tower_of, unit_inverse

UPoly = list  # list[Value], dense, trailing zeros stripped


def ustrip(p: UPoly) -> UPoly:
    n = len(p)
    while n and not p[n - 1]:
        n -= 1
    return list(p[:n])


def udeg(p: UPoly) -> int:
    """Degree, with the zero polynomial mapped to -1."""
    return len(p) - 1


def uneg(p: UPoly) -> UPoly:
    return [-c for c in p]


def uadd(p: UPoly, q: UPoly) -> UPoly:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] = out[i] + c
    return ustrip(out)


def usub(p: UPoly, q: UPoly) -> UPoly:
    return uadd(p, uneg(q))


def uderiv(p: UPoly) -> UPoly:
    return ustrip([i * c for i, c in enumerate(p)][1:])


def umonic(p: UPoly) -> tuple[UPoly, Value]:
    """Normalize to a monic polynomial; returns (monic, leading coefficient).

    The leading coefficient must be a unit (zero divisors split the tower).
    """
    p = ustrip(p)
    if not p:
        raise ZeroDivisionError("monic normalization of the zero polynomial")
    lc = p[-1]
    inv = unit_inverse(lc)
    if inv == 1:
        return list(p), lc
    return [c * inv for c in p[:-1]] + [_one_like(inv)], lc


def _one_like(v: Value) -> Value:
    if isinstance(v, Fraction):
        return Fraction(1)
    return v.tower.one()


def udivmod(p: UPoly, d: UPoly) -> tuple[UPoly, UPoly]:
    """Division with remainder; the divisor's leading coefficient must be a
    unit."""
    d = ustrip(d)
    if not d:
        raise ZeroDivisionError("division by zero polynomial")
    inv = unit_inverse(d[-1])
    num = list(p)
    dd = len(d) - 1
    q = [Fraction(0)] * max(0, len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if not c:
            continue
        c = c * inv
        q[i - dd] = c
        for k in range(dd + 1):
            num[i - dd + k] = num[i - dd + k] - c * d[k]
    return ustrip(q), ustrip(num)


def uexact_div(p: UPoly, d: UPoly) -> UPoly:
    q, r = udivmod(p, d)
    if r:
        raise ArithmeticError("division is not exact")
    return q


def ugcd(p: UPoly, q: UPoly) -> UPoly:
    """Monic gcd by the Euclidean algorithm (coefficients form a product of
    fields, so every nonzero remainder can be made monic, splitting the
    tower when its leading coefficient is a zero divisor)."""
    a, b = ustrip(p), ustrip(q)
    while b:
        a, _ = umonic(a) if a else (a, None)
        b, _ = umonic(b)
        _, r = udivmod(a, b)
        a, b = b, r
    if not a:
        return []
    m, _ = umonic(a)
    return m


def uyun(p: UPoly) -> list[tuple[UPoly, int]]:
    """Yun's squarefree factorization: ``[(g_i, i)]`` with each ``g_i`` monic
    squarefree of multiplicity ``i``, pairwise coprime, and
    ``p ~ prod g_i^i`` up to a unit.  Characteristic zero only."""
    p, _ = umonic(p)
    if udeg(p) == 0:
        return []
    dp = uderiv(p)
    g = ugcd(p, dp)
    if udeg(g) == 0:
        return [(p, 1)]
    w = uexact_div(p, g)
    y = uexact_div(dp, g)
    out = []
    i = 1
    while udeg(w) > 0:
        z = usub(y, uderiv(w))
        gi = ugcd(w, z) if z else list(w)
        gi, _ = umonic(gi)
        if udeg(gi) > 0:
            out.append((gi, i))
        w = uexact_div(w, gi)
        y = uexact_div(z, gi) if z else uderiv(w)  # z == 0 only when w == g_i
        i += 1
    return out


def is_squarefree(p: UPoly) -> bool:
    """True iff gcd(p, p') is a unit in every D5 component of the tower of
    p's coefficients.

    A component where the gcd is nonconstant witnesses a multiple root, and
    per the dynamic-evaluation contract the aggregate answer is then False.
    """
    p = ustrip(p)
    if not p:
        raise ValueError("squarefree test of the zero polynomial")
    results = over_components(
        tower_of(p) or Tower(), p, lambda _tw, poly: udeg(ugcd(poly, uderiv(poly))) == 0
    )
    return all(r for _tw, r in results)


def ucyclotomic(n: int) -> UPoly:
    """The n-th cyclotomic polynomial over the rationals."""
    if n < 1:
        raise ValueError("cyclotomic index must be positive")
    p = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]  # z^n - 1
    for d in range(1, n):
        if n % d == 0:
            p = uexact_div(p, ucyclotomic(d))
    return p

