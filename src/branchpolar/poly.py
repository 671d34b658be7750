"""Exact bivariate polynomials and subresultant resultants.

A :class:`BivariatePolynomial` is a sparse support-indexed polynomial in
``x, y`` whose coefficients are rationals or tower elements; no stored
coefficient is ring-zero, and like every value in the package it is falsy
exactly when it is zero.  A univariate polynomial in the main variable
``y`` is a dense :mod:`~branchpolar.unipoly` list of coefficients in x, and
the resultant is computed by Ducos's subresultant algorithm (L. Ducos,
"Optimizations of the subresultant algorithm", J. Pure Appl. Algebra 145,
2000): Brown's PRS with Lazard's powers across degree gaps and one
pseudo-remainder in all, so every intermediate coefficient stays at
subresultant size.  The PRS needs an integral domain with exact division:
of its coefficient ring it asks only ``bool`` (the zero test), ``*``,
``+``, ``-``, ``exact_div`` and ``zero()``, and ``**`` only for an argument
of degree zero and the first scale.  It runs over one of two such rings:

* :class:`ZX`, dense integer polynomials in x.  ``resultant_y`` picks it
  when every coefficient of both inputs is a ``Fraction``: each input is
  scaled to a primitive integer polynomial, the PRS divides exactly in
  Z[x] without any ``Fraction`` arithmetic, and the scales are divided back
  out of the resultant.  Its products and divisions skip zero
  coefficients: the y-coefficients of the PRS inputs and remainders carry
  x-power factors, so most coefficient pairs have a zero factor.
* :class:`BivariatePolynomial` itself, for tower-valued inputs to
  ``resultant_y``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm
from typing import Mapping

from .tower import Value, invert_value, unit_inverse
from .unipoly import udeg, uneg, ustrip


class BivariatePolynomial:
    """Polynomial in x, y with exact coefficients, indexed by support.

    ``terms`` maps ``(i, j)`` (x- and y-exponents) to a nonzero coefficient.
    Instances are immutable; arithmetic returns new objects.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, int], Value] | None = None):
        clean = {}
        if terms:
            for (i, j), c in terms.items():
                if i < 0 or j < 0:
                    raise ValueError("negative exponent in support")
                if c:
                    clean[(i, j)] = c
        self.terms = clean

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero() -> "BivariatePolynomial":
        return BivariatePolynomial()

    @staticmethod
    def constant(c) -> "BivariatePolynomial":
        return BivariatePolynomial({(0, 0): c if not isinstance(c, int) else Fraction(c)})

    @staticmethod
    def monomial(i: int, j: int, c=Fraction(1)) -> "BivariatePolynomial":
        if isinstance(c, int):
            c = Fraction(c)
        return BivariatePolynomial({(i, j): c})

    @staticmethod
    def one() -> "BivariatePolynomial":
        return BivariatePolynomial.constant(Fraction(1))

    # -- structure -------------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def support(self) -> list[tuple[int, int]]:
        return sorted(self.terms)

    def degree_y(self) -> int:
        return max((j for _, j in self.terms), default=-1)

    def coefficient_of_y(self, j: int) -> "BivariatePolynomial":
        return BivariatePolynomial(
            {(i, 0): c for (i, jj), c in self.terms.items() if jj == j}
        )

    def y_coefficients(self) -> list["BivariatePolynomial"]:
        """Dense list of x-polynomials: ``self = sum coeffs[j] * y^j``."""
        d = self.degree_y()
        out = [dict() for _ in range(d + 1)]
        for (i, j), c in self.terms.items():
            out[j][(i, 0)] = c
        return [BivariatePolynomial(t) for t in out]

    def x_power_divisor(self) -> int:
        """Largest p with x^p dividing self (0 for the zero polynomial)."""
        return min((i for i, _ in self.terms), default=0)

    def y_power_divisor(self) -> int:
        return min((j for _, j in self.terms), default=0)

    def x_order(self) -> int:
        """Order in x of an x-only polynomial; leading term must be a unit in
        every component, so zero-divisor coefficients split the tower."""
        if not self:
            raise ValueError("x_order of the zero polynomial")
        for i in sorted(i for i, _ in self.terms):
            if unit_inverse(self.terms[(i, 0)]) is not None:
                return i
        raise ValueError("no invertible coefficient found")

    # -- ring operations --------------------------------------------------------

    def __add__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        terms = dict(self.terms)
        for k, c in other.terms.items():
            if k in terms:
                s = terms[k] + c
                if not s:
                    del terms[k]
                else:
                    terms[k] = s
            else:
                terms[k] = c
        out = BivariatePolynomial.__new__(BivariatePolynomial)
        out.terms = terms
        return out

    def __neg__(self) -> "BivariatePolynomial":
        out = BivariatePolynomial.__new__(BivariatePolynomial)
        out.terms = {k: -c for k, c in self.terms.items()}
        return out

    def __sub__(self, other: "BivariatePolynomial") -> "BivariatePolynomial":
        return self + (-other)

    def __mul__(self, other) -> "BivariatePolynomial":
        if not isinstance(other, BivariatePolynomial):
            return self.scale(other)
        terms: dict = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                k = (i1 + i2, j1 + j2)
                p = c1 * c2
                if k in terms:
                    p = terms[k] + p
                if not p:
                    terms.pop(k, None)
                else:
                    terms[k] = p
        out = BivariatePolynomial.__new__(BivariatePolynomial)
        out.terms = terms
        return out

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "BivariatePolynomial":
        if isinstance(c, int):
            c = Fraction(c)
        if not c:
            return BivariatePolynomial()
        out = BivariatePolynomial.__new__(BivariatePolynomial)
        out.terms = {k: v * c for k, v in self.terms.items()}
        return out

    def __pow__(self, n: int) -> "BivariatePolynomial":
        out = self.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, BivariatePolynomial):
            return NotImplemented
        return not (self - other)

    __hash__ = None

    # -- calculus and substitutions -----------------------------------------------

    def derivative_x(self) -> "BivariatePolynomial":
        return BivariatePolynomial(
            {(i - 1, j): i * c for (i, j), c in self.terms.items() if i}
        )

    def derivative_y(self) -> "BivariatePolynomial":
        return BivariatePolynomial(
            {(i, j - 1): j * c for (i, j), c in self.terms.items() if j}
        )

    def shift_x(self, sigma: Value) -> "BivariatePolynomial":
        """Substitute x -> x + sigma*y."""
        terms: dict = {}
        for (i, j), c in self.terms.items():
            for k in range(i + 1):
                key = (k, j + i - k)
                add = c * (comb(i, k) * sigma ** (i - k))
                if key in terms:
                    add = terms[key] + add
                if not add:
                    terms.pop(key, None)
                else:
                    terms[key] = add
        return BivariatePolynomial(terms)

    def strip_x_power(self) -> tuple[int, "BivariatePolynomial"]:
        p = self.x_power_divisor()
        if p == 0:
            return 0, self
        return p, BivariatePolynomial({(i - p, j): c for (i, j), c in self.terms.items()})

    def strip_y_power(self) -> tuple[int, "BivariatePolynomial"]:
        q = self.y_power_divisor()
        if q == 0:
            return 0, self
        return q, BivariatePolynomial({(i, j - q): c for (i, j), c in self.terms.items()})

    # -- exact division -------------------------------------------------------------

    def exact_div(self, d: "BivariatePolynomial") -> "BivariatePolynomial":
        """Exact quotient self/d; raises ArithmeticError when not divisible.

        Uses lex leading-term elimination, which terminates with zero
        remainder precisely for exact divisions over a coefficient field (or
        a D5 product of fields, splitting on zero-divisor leading values).
        """
        if not d:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self:
            return BivariatePolynomial()
        dlt = max(d.terms)
        dinv = invert_value(d.terms[dlt])
        rem = dict(self.terms)
        out: dict = {}
        while rem:
            lt = max(rem)
            mi, mj = lt[0] - dlt[0], lt[1] - dlt[1]
            if mi < 0 or mj < 0:
                raise ArithmeticError("division is not exact")
            c = rem[lt] * dinv
            out[(mi, mj)] = c
            for (i, j), dc in d.terms.items():
                key = (i + mi, j + mj)
                v = rem.get(key, Fraction(0)) - c * dc
                if not v:
                    rem.pop(key, None)
                else:
                    rem[key] = v
        return BivariatePolynomial(out)

    def __repr__(self):
        if not self:
            return "BivariatePolynomial(0)"
        bits = []
        for (i, j) in sorted(self.terms, key=lambda k: (k[1], k[0])):
            c = self.terms[(i, j)]
            mono = "".join(
                s
                for s in (
                    f"x^{i}" if i > 1 else ("x" if i == 1 else ""),
                    f"y^{j}" if j > 1 else ("y" if j == 1 else ""),
                )
                if s
            )
            bits.append(f"({c}){mono}" if mono else f"({c})")
        return "BivariatePolynomial(" + " + ".join(bits) + ")"


class ZX(list):
    """Dense polynomial in x over the integers: ``self[i]`` is the
    coefficient of x^i, with no trailing zeros, so ``[]`` is zero.

    The coefficient ring of the PRS on rational inputs; it has exactly the
    operations the PRS uses.
    """

    __slots__ = ()
    # list concatenation and repetition are not ring operations
    __iadd__ = __rmul__ = __imul__ = None

    @staticmethod
    def zero() -> "ZX":
        return ZX()

    @staticmethod
    def one() -> "ZX":
        return ZX((1,))

    def __neg__(self) -> "ZX":
        return ZX([-a for a in self])

    def __add__(self, other: "ZX") -> "ZX":
        if len(self) < len(other):
            self, other = other, self
        out = ZX(self)
        for i, b in enumerate(other):
            out[i] += b
        while out and not out[-1]:
            out.pop()
        return out

    def __sub__(self, other: "ZX") -> "ZX":
        if len(self) >= len(other):
            out = ZX(self)
            for i, b in enumerate(other):
                out[i] -= b
        else:
            out = -other
            for i, a in enumerate(self):
                out[i] += a
        while out and not out[-1]:
            out.pop()
        return out

    def __mul__(self, other: "ZX") -> "ZX":
        # Z is a domain: the product of the leading coefficients is nonzero
        if not self or not other:
            return ZX()
        out = ZX([0] * (len(self) + len(other) - 1))
        nonzero = [(k, b) for k, b in enumerate(other) if b]
        for i, a in enumerate(self):
            if a:
                for k, b in nonzero:
                    out[i + k] += a * b
        return out

    __pow__ = BivariatePolynomial.__pow__  # square-and-multiply from one()

    def exact_div(self, d: "ZX") -> "ZX":
        """Exact quotient self/d in Z[x]; raises ArithmeticError when d does
        not divide self over the integers."""
        if not d:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self:
            return ZX()
        dd, lead = len(d) - 1, d[-1]
        if len(self) <= dd:
            raise ArithmeticError("division is not exact")
        rem = list(self)
        q = ZX([0] * (len(self) - dd))
        nonzero = [(i, b) for i, b in enumerate(d[:dd]) if b]
        for k in range(len(q) - 1, -1, -1):
            c, r = divmod(rem[k + dd], lead)
            if r:
                raise ArithmeticError("division is not exact")
            if c:
                q[k] = c
                for i, b in nonzero:
                    rem[k + i] -= c * b
        if any(rem[:dd]):
            raise ArithmeticError("division is not exact")
        return q


def _zx_y_coefficients(f: BivariatePolynomial) -> tuple[list[ZX], Fraction]:
    """The y-coefficients of a rational f scaled into primitive integer
    polynomials, and the scale s with ``ZX coefficients = s * f``."""
    cs = f.terms.values()
    scale = Fraction(lcm(*(c.denominator for c in cs)), gcd(*(c.numerator for c in cs)))
    rows = [[] for _ in range(f.degree_y() + 1)]
    for (i, j), c in f.terms.items():
        row = rows[j]
        row.extend([0] * (i + 1 - len(row)))
        row[i] = int(c * scale)
    return [ZX(row) for row in rows], scale


# -- polynomial remainder sequences over a coefficient ring ----------------------


def _prem(f: list, g: list) -> list:
    """Pseudo-remainder: lc(g)^(deg f - deg g + 1) * f mod g."""
    df, dg = udeg(f), udeg(g)
    if dg < 0:
        raise ZeroDivisionError("pseudo-division by zero")
    r = ustrip(f)
    lc_g = g[-1]
    n = df - dg + 1
    while udeg(r) >= dg:
        dr = udeg(r)
        lead = r[-1]
        # r <- lc(g)*r - lead*T^(dr-dg)*g; the leading terms cancel exactly
        r = [ri * lc_g for ri in r[:-1]]
        for k in range(dg):
            r[dr - dg + k] = r[dr - dg + k] - g[k] * lead
        r = ustrip(r)
        n -= 1
    if n > 0 and r:
        scale = lc_g ** n
        r = ustrip([ri * scale for ri in r])
    return r


def lazard(x, y, n: int):
    """x^n / y^(n-1) for n >= 1, by Lazard's square-and-multiply from the
    top bit of n with one exact division by y after each product, so no
    intermediate is larger than a power of the quotient's size."""
    a = 1 << (n.bit_length() - 1)
    c, n = x, n - a
    while a > 1:
        a >>= 1
        c = (c * c).exact_div(y)
        if n >= a:
            c = (c * x).exact_div(y)
            n -= a
    return c


def _next_subresultant(P: list, Q: list, Z: list, s) -> list:
    """Ducos's reduction: the subresultant of degree below e that follows
    Z, for consecutive subresultants P of degree d and Q of degree e < d,
    s the principal subresultant coefficient of degree d, and Z = Q (lc Q /
    s)^(d-e-1) the one of degree e.  It replaces prem(P, Q) and its division
    by a power of s with d - e reductions modulo Q, each division exact."""
    d, e = len(P) - 1, len(Q) - 1
    lq, q_low, zero = Q[-1], Q[:-1], Q[-1].zero()
    H = [-c for c in Z[:-1]]
    A = [P[e] * c for c in H]
    for j in range(e + 1, d):
        h, H = H[-1], [zero] + H[:-1]  # y*H, its y^e coefficient split off
        if h:
            H = [c - (h * q).exact_div(lq) if q else c for c, q in zip(H, q_low)]
        if P[j]:
            A = [a + P[j] * c for a, c in zip(A, H)]
    lz, lp = Z[-1], P[-1]
    A = [(a + lz * p).exact_div(lp) for a, p in zip(A, P)]
    h, H = H[-1], [zero] + H[:-1]
    B = ustrip([lq * (c + a) - h * q for c, a, q in zip(H, A, q_low)])
    if (d - e) % 2 == 0:
        B = uneg(B)
    return [b.exact_div(s) for b in B]


def prs_resultant(f: list, g: list):
    """Resultant of two main-variable polynomials, an element of their
    coefficient ring, with the Sylvester sign convention.

    Ducos's subresultant algorithm keeps the last two subresultants P and
    Q and the principal subresultant coefficient s of degree deg P.  One
    pseudo-remainder starts the chain and every later step is
    :func:`_next_subresultant`; a degree gap deg P - deg Q > 1 first scales
    Q by Lazard's powers.  The chain stops at degree zero, whose scaled
    subresultant is the resultant, and a chain ending at a positive degree
    means a common factor and a zero resultant.  The algorithm runs with
    the larger degree first, which costs a factor (-1)^(deg f * deg g) when
    the arguments are swapped.
    """
    f, g = ustrip(f), ustrip(g)
    if not f or not g:
        raise ValueError("resultant of the zero polynomial")
    n, m = udeg(f), udeg(g)
    if n == 0 and m == 0:
        raise ValueError("resultant of two constants is not defined here")
    if n == 0:
        return f[0] ** m
    if m == 0:
        return g[0] ** n
    negate = n < m and (n * m) % 2
    if n < m:
        f, g, n, m = g, f, m, n
    s = g[-1] ** (n - m)
    P, Q = g, _prem(f, uneg(g))
    while len(Q) > 1:
        Z = Q
        if len(P) - len(Q) > 1:
            c = lazard(Q[-1], s, len(P) - len(Q) - 1)
            Z = [(c * q).exact_div(s) for q in Q]
        P, Q, s = Z, _next_subresultant(P, Q, Z, s), Z[-1]
    res = lazard(Q[0], s, len(P) - 1) if Q else g[-1].zero()
    return -res if negate else res


def resultant_y(f: BivariatePolynomial, g: BivariatePolynomial) -> BivariatePolynomial:
    """Resultant of f and g with respect to y (an x-only polynomial).

    Computed by subresultant PRS, over :class:`ZX` when every coefficient
    of both inputs is a ``Fraction``.  Inputs of y-degree zero in both arguments
    are rejected; if exactly one has positive y-degree the resultant
    degenerates to a power of the other.
    """
    dyf, dyg = f.degree_y(), g.degree_y()
    if dyf <= 0 and dyg <= 0:
        raise ValueError("resultant_y needs positive y-degree in an argument")
    if not f or not g:
        raise ValueError("resultant_y of the zero polynomial")
    if all(isinstance(c, Fraction) for p in (f, g) for c in p.terms.values()):
        # Res(sF, tG) = s^deg_y(G) * t^deg_y(F) * Res(F, G)
        F, s = _zx_y_coefficients(f)
        G, t = _zx_y_coefficients(g)
        scale = s**dyg * t**dyf
        res = BivariatePolynomial(
            {(i, 0): Fraction(r) / scale for i, r in enumerate(prs_resultant(F, G)) if r}
        )
    else:
        res = prs_resultant(f.y_coefficients(), g.y_coefficients())
    if res.degree_y() > 0:
        raise AssertionError("resultant_y did not eliminate y")
    return res

