"""Exact bivariate polynomials and subresultant resultants.

A :class:`BivariatePolynomial` is a sparse support-indexed polynomial in
``x, y`` whose coefficients are rationals or tower elements; no stored
coefficient is ring-zero.  A univariate polynomial in the main variable
``y`` is a dense list of coefficients in x, and the resultant is computed by
the subresultant PRS of Brown, which keeps intermediate coefficients at
subresultant size instead of letting pseudo-remainders blow up.  The PRS
needs an integral domain with exact division, and runs over one of two
coefficient rings:

* :class:`ZX`, dense integer polynomials in x.  ``resultant_y`` picks it
  when every coefficient of both inputs is a ``Fraction``: each input is
  scaled to a primitive integer polynomial, the PRS divides exactly in
  Z[x] without any ``Fraction`` arithmetic, and the scales are divided back
  out of the resultant.
* :class:`BivariatePolynomial` itself, for tower-valued inputs to
  ``resultant_y``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping

from .tower import Value, invert_value, unit_inverse


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

    @property
    def is_zero(self) -> bool:
        return not self.terms

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
        if self.is_zero:
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
        return (self - other).is_zero

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
        from math import comb

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
        if d.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero:
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
        if self.is_zero:
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
    __add__ = __iadd__ = __rmul__ = __imul__ = None

    @staticmethod
    def zero() -> "ZX":
        return ZX()

    @staticmethod
    def one() -> "ZX":
        return ZX((1,))

    @property
    def is_zero(self) -> bool:
        return not self

    def __neg__(self) -> "ZX":
        return ZX([-a for a in self])

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
        for i, a in enumerate(self):
            if a:
                for k, b in enumerate(other, i):
                    out[k] += a * b
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
        for k in range(len(q) - 1, -1, -1):
            c, r = divmod(rem[k + dd], lead)
            if r:
                raise ArithmeticError("division is not exact")
            if c:
                q[k] = c
                for i in range(dd):
                    rem[k + i] -= c * d[i]
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

MainPoly = list  # dense list of ring elements (BivariatePolynomial or ZX) in a main variable


def _mstrip(f: MainPoly) -> MainPoly:
    n = len(f)
    while n and f[n - 1].is_zero:
        n -= 1
    return list(f[:n])


def _mdeg(f: MainPoly) -> int:
    return len(f) - 1


def _mscale(f: MainPoly, c: BivariatePolynomial) -> MainPoly:
    return _mstrip([fi * c for fi in f])


def _mquo_ground(f: MainPoly, c: BivariatePolynomial) -> MainPoly:
    return [fi.exact_div(c) if not fi.is_zero else fi for fi in f]


def _prem(f: MainPoly, g: MainPoly) -> MainPoly:
    """Pseudo-remainder: lc(g)^(deg f - deg g + 1) * f mod g."""
    df, dg = _mdeg(f), _mdeg(g)
    if dg < 0:
        raise ZeroDivisionError("pseudo-division by zero")
    r = _mstrip(f)
    lc_g = g[-1]
    n = df - dg + 1
    while _mdeg(r) >= dg:
        dr = _mdeg(r)
        lead = r[-1]
        # r <- lc(g)*r - lead*T^(dr-dg)*g; the leading terms cancel exactly
        r = [ri * lc_g for ri in r[:-1]]
        for k in range(dg):
            r[dr - dg + k] = r[dr - dg + k] - g[k] * lead
        r = _mstrip(r)
        n -= 1
    if n > 0 and r:
        r = _mscale(r, lc_g ** n)
    return r


def prs_resultant(f: MainPoly, g: MainPoly):
    """Resultant of two main-variable polynomials, an element of their
    coefficient ring, with the Sylvester sign convention.

    Brown's subresultant PRS keeps only the last two remainders and the last
    scalar subresultant, which is the resultant when the last remainder has
    main-degree zero; a remainder sequence ending at a positive degree means
    a common factor and a zero resultant.  The PRS runs with the larger
    degree first, which costs a factor (-1)^(deg f * deg g) when the
    arguments are swapped.
    """
    f, g = _mstrip(f), _mstrip(g)
    if not f or not g:
        raise ValueError("resultant of the zero polynomial")
    n, m = _mdeg(f), _mdeg(g)
    if n == 0 and m == 0:
        raise ValueError("resultant of two constants is not defined here")
    if n == 0:
        return f[0] ** m
    if m == 0:
        return g[0] ** n
    negate = n < m and (n * m) % 2
    if n < m:
        f, g, n, m = g, f, m, n
    d = n - m
    h = _prem(f, g)
    if d % 2 == 0:
        h = [-hi for hi in h]
    lc = g[-1]
    c = -(lc ** d)  # minus the last scalar subresultant
    while h:
        k = _mdeg(h)
        f, g, m, d = g, h, k, m - k
        b = -(lc * (c ** d))
        h = _mquo_ground(_prem(f, g), b)
        lc = g[-1]
        if d > 1:
            c = ((-lc) ** d).exact_div(c ** (d - 1))
        else:
            c = -lc
    if _mdeg(g) > 0:
        return g[-1].zero()
    return c if negate else -c


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
    if f.is_zero or g.is_zero:
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

