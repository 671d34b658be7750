"""Truncated power series in one parameter with exact coefficients.

A series carries its own validity order: ``trunc = N`` means the stored
terms are correct modulo t^N, and ``trunc = None`` means the series is exact
(a polynomial).  Asking for the order of a series that is zero modulo its
truncation raises :class:`~branchpolar.errors.PrecisionError` instead of
guessing, so callers can retry with a larger working order; this is what
keeps intersection numbers from silently coming out wrong.

Ring operations propagate validity orders conservatively.  Algorithms that
know more than the operator-level bound (e.g. Newton iterations, whose
output is valid to the requested precision regardless of intermediate
bounds) assert the sharper order with :meth:`TruncatedSeries.declare_trunc`.

Branches have x = t^n, so :func:`evaluate_bivariate` takes n and shifts
exponents, x^i -> t^(n*i), instead of multiplying series of x.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .errors import PrecisionError
from .tower import Value, invert_value, project_value, unit_inverse

INF = None  # truncation sentinel: exact series


def _min_trunc(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class TruncatedSeries:
    """Sparse exact series sum(c_e t^e) + O(t^trunc)."""

    __slots__ = ("terms", "trunc")

    def __init__(self, terms: Mapping[int, Value] | None = None, trunc: int | None = INF):
        clean = {}
        if terms:
            for e, c in terms.items():
                if e < 0:
                    raise ValueError("negative exponent in series")
                if trunc is not None and e >= trunc:
                    continue
                if c:
                    clean[e] = c
        self.terms = clean
        self.trunc = trunc

    # -- constructors -----------------------------------------------------------

    @staticmethod
    def zero(trunc: int | None = INF) -> "TruncatedSeries":
        return TruncatedSeries({}, trunc)

    @staticmethod
    def monomial(e: int, c=Fraction(1), trunc: int | None = INF) -> "TruncatedSeries":
        if isinstance(c, int):
            c = Fraction(c)
        return TruncatedSeries({e: c}, trunc)

    @staticmethod
    def constant(c, trunc: int | None = INF) -> "TruncatedSeries":
        return TruncatedSeries.monomial(0, c, trunc)

    # -- basic structure -----------------------------------------------------------

    @property
    def is_zero_mod_trunc(self) -> bool:
        return not self.terms

    @property
    def is_exact_zero(self) -> bool:
        return not self.terms and self.trunc is None

    def min_exponent(self) -> int | None:
        """Smallest stored exponent (None when no terms are stored)."""
        return min(self.terms) if self.terms else None

    def order(self) -> int | None:
        """t-adic order: smallest exponent with an invertible coefficient.

        Returns None for an exactly-zero series.  Raises PrecisionError when
        the series is zero modulo a finite truncation, and TowerSplit when a
        leading coefficient is a zero divisor (the order then differs between
        tower components).
        """
        for e in sorted(self.terms):
            if unit_inverse(self.terms[e]) is not None:
                return e
        if self.trunc is None:
            return None
        raise PrecisionError(
            f"series is zero modulo t^{self.trunc}; order undetermined"
        )

    def truncate(self, trunc: int | None) -> "TruncatedSeries":
        t = _min_trunc(self.trunc, trunc)
        return TruncatedSeries(self.terms, t)

    def declare_trunc(self, trunc: int | None) -> "TruncatedSeries":
        """Assert a validity order the caller has certified independently of
        the operator-level bookkeeping (used after Newton iterations)."""
        return TruncatedSeries(self.terms, trunc)

    def project(self, tower) -> "TruncatedSeries":
        return TruncatedSeries(
            {e: project_value(c, tower) for e, c in self.terms.items()}, self.trunc
        )

    def map_values(self, fn) -> "TruncatedSeries":
        return TruncatedSeries({e: fn(c) for e, c in self.terms.items()}, self.trunc)

    def stretch(self, k: int) -> "TruncatedSeries":
        """Substitute t -> t^k (k >= 1)."""
        if k < 1:
            raise ValueError("stretch factor must be >= 1")
        trunc = self.trunc
        if trunc is not None:
            trunc = k * (trunc - 1) + 1
        return TruncatedSeries({k * e: c for e, c in self.terms.items()}, trunc)

    # -- arithmetic ------------------------------------------------------------------

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, Fraction(0)) + c
            if not s:
                terms.pop(e, None)
            else:
                terms[e] = s
        return TruncatedSeries(terms, _min_trunc(self.trunc, other.trunc))

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries({e: -c for e, c in self.terms.items()}, self.trunc)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def scale(self, c: Value) -> "TruncatedSeries":
        if not c:
            return TruncatedSeries.zero(self.trunc)
        return TruncatedSeries({e: v * c for e, v in self.terms.items()}, self.trunc)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        if self.is_exact_zero or other.is_exact_zero:
            return TruncatedSeries.zero()
        ta, tb = self.trunc, other.trunc
        # error terms: O(t^ta)*other enters at ta + ord(other) and vice versa
        cands = []
        if ta is not None:
            ob = other.min_exponent()
            cands.append(ta + (ob if ob is not None else (tb or 0)))
        if tb is not None:
            oa = self.min_exponent()
            cands.append(tb + (oa if oa is not None else (ta or 0)))
        trunc = min(cands) if cands else None
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                if trunc is not None and e >= trunc:
                    continue
                p = c1 * c2
                if e in terms:
                    p = terms[e] + p
                if not p:
                    terms.pop(e, None)
                else:
                    terms[e] = p
        return TruncatedSeries(terms, trunc)

    def __pow__(self, n: int) -> "TruncatedSeries":
        if n < 0:
            raise ValueError("negative series power")
        out = TruncatedSeries.constant(Fraction(1))
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def derivative(self) -> "TruncatedSeries":
        return TruncatedSeries(
            {e - 1: e * c for e, c in self.terms.items() if e},
            None if self.trunc is None else max(self.trunc - 1, 0),
        )

    def inverse(self, trunc: int) -> "TruncatedSeries":
        """Reciprocal modulo t^trunc (capped by self's own validity);
        requires an invertible constant term."""
        if self.trunc is not None:
            trunc = min(trunc, self.trunc)
        if trunc < 1:
            raise ValueError("inverse needs a positive target order")
        c0 = self.terms.get(0, Fraction(0))
        g = TruncatedSeries({0: invert_value(c0)})  # ZeroDivisionError on non-units is intended
        one = TruncatedSeries.constant(Fraction(1))
        prec = 1
        while prec < trunc:
            # a Newton step takes a*g = 1 + O(t^(prec/2)) to 1 + O(t^prec), a
            # doubling the series bookkeeping cannot see: g is declared first
            prec = min(2 * prec, trunc)
            g = g.declare_trunc(prec)
            g = g - (self.truncate(prec) * g - one) * g
        return g.declare_trunc(trunc)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.trunc == other.trunc and (self - other).is_zero_mod_trunc

    __hash__ = None

    def __repr__(self):
        bits = [f"({self.terms[e]})t^{e}" for e in sorted(self.terms)]
        tail = "" if self.trunc is None else f" + O(t^{self.trunc})"
        return "Series(" + (" + ".join(bits) or "0") + tail + ")"


def evaluate_bivariate(f, n: int, ys: TruncatedSeries) -> TruncatedSeries:
    """Evaluate a BivariatePolynomial at x = t^n, y = ys: Horner in y, each
    y-coefficient a(x) becoming the exact series a(t^n) by the exponent
    shift x^i -> t^(n*i).  Truncation is tracked by the series operations
    themselves."""
    out = TruncatedSeries.zero()
    for cj in reversed(f.y_coefficients()):
        out = out * ys + TruncatedSeries({n * i: c for (i, _j), c in cj.terms.items()})
    return out
