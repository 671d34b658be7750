"""Invariants of a single plane branch given by a Newton-Puiseux
parametrization x = t^n, y = sum c_i t^i.

The semigroup of values is read off the characteristic exponents through the
classical recursion; the set of differential values is computed by pulling
back y^j dx and y^j dy, cut at t^(c - 1) for the conductor c, into a
valuation echelon that is closed under multiplication by x.  The value of a
differential A dx + B dy on the branch is

    nu(omega) = ord_t( A(x(t),y(t)) x'(t) + B(x(t),y(t)) y'(t) ) + 1,

the convention that makes nu(dx) = n and nu(dy) the y-order, so that every
semigroup generator is a differential value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import NormalFormMismatchError, PrecisionError
from .semigroup import NumericalSemigroup, semigroup_from_generators
from .series import TruncatedSeries
from .tower import Tower, Value, over_components, tower_of, unit_inverse
from .unipoly import udeg, ugcd, ustrip


@dataclass(frozen=True)
class PuiseuxBranch:
    """x = t^n, y = sum of y_terms, valid modulo t^trunc (None = exact).

    ``conjugacy`` counts how many geometric branches this parametrization
    stands for when its coefficients generate a nontrivial extension tower
    (conjugate branches are never separated by factorization; they share one
    tower-valued parametrization).
    """

    n: int
    y_terms: tuple[tuple[int, Value], ...]
    trunc: int | None = None
    conjugacy: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("multiplicity must be >= 1")
        seen = set()
        for e, c in self.y_terms:
            if e < 1:
                raise ValueError("y-exponents must be >= 1 (branch through origin)")
            if self.trunc is not None and e >= self.trunc:
                raise ValueError("stored exponent at or beyond truncation")
            if e in seen:
                raise ValueError(f"duplicate exponent {e}")
            seen.add(e)
        object.__setattr__(
            self, "y_terms", tuple(sorted(self.y_terms, key=lambda t: t[0]))
        )

    @staticmethod
    def from_terms(n: int, terms, trunc: int | None = None, conjugacy: int = 1) -> "PuiseuxBranch":
        items = terms.items() if hasattr(terms, "items") else terms
        clean = tuple(
            (int(e), c if not isinstance(c, int) else Fraction(c))
            for e, c in items
            if c
        )
        return PuiseuxBranch(n, clean, trunc, conjugacy)

    # -- views ------------------------------------------------------------------

    def y_exponents(self) -> list[int]:
        return [e for e, _ in self.y_terms]

    def y_order(self) -> int | None:
        return self.y_terms[0][0] if self.y_terms else None

    def tower(self) -> Tower | None:
        return tower_of(c for _, c in self.y_terms)

    def y_series(self, trunc: int | None = None) -> TruncatedSeries:
        t = self.trunc if trunc is None else (
            trunc if self.trunc is None else min(trunc, self.trunc)
        )
        return TruncatedSeries(dict(self.y_terms), t)

    def __repr__(self):
        ts = " + ".join(f"({c})t^{e}" for e, c in self.y_terms) or "0"
        tail = "" if self.trunc is None else f" + O(t^{self.trunc})"
        return f"Branch(x=t^{self.n}, y={ts}{tail})"


@dataclass(frozen=True)
class DifferentialValues:
    """The value set of Kahler differentials on a branch, split as the
    semigroup part plus the finite extra set below the conductor."""

    gamma: NumericalSemigroup
    extra: frozenset[int]

    @property
    def lam(self) -> int | None:
        """The Zariski invariant: min(extra) - v0, or None when the extra set
        is empty."""
        return min(self.extra) - self.gamma.multiplicity if self.extra else None


def characteristic_exponents(b: PuiseuxBranch) -> list[int]:
    """[beta_0 = n, beta_1, ...]: the exponents where the gcd chain drops.

    Raises PrecisionError when the chain has not reached 1 within the stored
    terms of a truncated branch, and ValueError for an exact parametrization
    that is not primitive.
    """
    betas = [b.n]
    e = b.n
    for exp, coeff in b.y_terms:
        if e == 1:
            break
        if exp % e != 0:
            # a coefficient must be a unit for the exponent to count in
            # every tower component
            if unit_inverse(coeff) is None:
                continue
            betas.append(exp)
            e = gcd(e, exp)
    if e != 1:
        if b.trunc is None:
            raise ValueError(
                f"parametrization is not primitive: gcd of exponents stays {e}"
            )
        raise PrecisionError(
            f"truncation t^{b.trunc} too small: characteristic exponents unresolved"
        )
    return betas


def semigroup_of_branch(b: PuiseuxBranch) -> NumericalSemigroup:
    """The semigroup of values of a branch, from its characteristic
    exponents."""
    return characteristic_semigroup(characteristic_exponents(b))


def characteristic_semigroup(betas) -> NumericalSemigroup:
    """Minimal generators from characteristic exponents [beta_0 = n,
    beta_1, ...] by the classical recursion
    v_{k+1} = (e_{k-1}/e_k) v_k + beta_{k+1} - beta_k."""
    if len(betas) == 1:  # smooth: n == 1
        return semigroup_from_generators([1])
    vs = [betas[0], betas[1]]
    es = [betas[0], gcd(betas[0], betas[1])]
    for k in range(1, len(betas) - 1):
        nk = es[k - 1] // es[k]
        vs.append(nk * vs[k] + betas[k + 1] - betas[k])
        es.append(gcd(es[k], betas[k + 1]))
    sg = semigroup_from_generators(vs)
    # classical conductor formula against max(Apery set) - m + 1
    c = 1 - betas[0]
    for k in range(1, len(vs)):
        c += (es[k - 1] // es[k] - 1) * vs[k]
    if c != sg.conductor:
        raise AssertionError(
            f"conductor mismatch: recursion gives {c}, Apery set gives {sg.conductor}"
        )
    return sg


def differential_values(b: PuiseuxBranch) -> DifferentialValues:
    """The extra set of Lambda from an echelon closed under x.

    Pullbacks are cut at t^W, W = c - 1 for the conductor c.  A queue starts
    with y^j dx and y^j dy while y^j != 0 mod t^W.  A series that reduces to
    a new pivot order o joins the echelon, and x times it (a shift by t^n)
    is queued.  The extra set is {o + 1 : o a pivot, o + 1 not in Gamma}:
    - the pivot orders of a space do not depend on the order in which its
      vectors are reduced;
    - the span holds every y^j dx and y^j dy and is closed under x, so it
      is the whole pullback space mod t^W;
    - orders >= c - 1 only give values >= c, all of which lie in Gamma.
    dy needs y mod t^c, so a truncated branch needs t^c.
    """
    gamma = semigroup_of_branch(b)
    c = gamma.conductor
    if c == 0:  # a smooth branch: the extra set lies in [0, c) = {}
        return DifferentialValues(gamma, frozenset())
    if b.trunc is not None and b.trunc < c:
        raise PrecisionError(
            f"truncation t^{b.trunc} too small for differential values (need t^{c})"
        )
    n, W = b.n, c - 1
    ys = b.y_series(c)
    dx = TruncatedSeries.monomial(n - 1, Fraction(n), W)
    dy = ys.derivative()
    queue = []
    yj = TruncatedSeries.constant(Fraction(1), W)
    while not yj.is_zero_mod_trunc:
        # prepended, so j = 0 is reduced first and the early pivots are sparse
        queue[:0] = [(yj * dx).truncate(W), (yj * dy).truncate(W)]
        yj = (yj * ys).truncate(W)
    echelon: dict[int, TruncatedSeries] = {}
    while queue:
        s = queue.pop()
        while not s.is_zero_mod_trunc:
            o = min(s.terms)
            if o not in echelon:
                p = echelon[o] = s.scale(unit_inverse(s.terms[o]))
                queue.append(TruncatedSeries({e + n: v for e, v in p.terms.items()}, W))
                break
            s = s - echelon[o].scale(s.terms[o])
    return DifferentialValues(gamma, frozenset(o + 1 for o in echelon if o + 1 not in gamma))


def zariski_invariant(d: DifferentialValues) -> int | None:
    """lambda = min(extra) - v0, or None when the extra set is empty."""
    return d.lam


def normal_form_equivalent(b1: PuiseuxBranch, b2: PuiseuxBranch, lam: int) -> bool:
    """Analytic equivalence of two normal forms with the same discrete data.

    True iff some root of unity zeta with zeta^(lambda - v1) = 1 satisfies
    c_i = zeta^(i - v1) c'_i for every exponent i.  The test intersects the
    constraint polynomials with z^e - 1 by gcds over the coefficient tower,
    so no explicit cyclotomic extension is ever constructed; a nonconstant
    final gcd certifies a common root zeta in the complex numbers.
    """
    if b1.n != b2.n:
        raise NormalFormMismatchError(f"multiplicities differ: {b1.n} vs {b2.n}")
    if b1.y_exponents() != b2.y_exponents():
        raise NormalFormMismatchError("exponent supports differ")
    v1 = b1.y_order()
    e = lam - v1
    if e < 1:
        raise ValueError("lambda must exceed the y-order of the normal form")

    tower = tower_of(c for _, c in b1.y_terms + b2.y_terms) or Tower()

    def compute(_tw, pair):
        t1, t2 = pair
        g = [Fraction(-1)] + [Fraction(0)] * (e - 1) + [Fraction(1)]  # z^e - 1
        for (i, c1), (_i2, c2) in zip(t1, t2):
            k = (i - v1) % e
            cond = [Fraction(0)] * (k + 1)
            cond[k] = c2
            cond[0] = cond[0] - c1
            g = ugcd(g, ustrip(cond))
            if udeg(g) == 0:
                return False
        return udeg(g) >= 1

    pairs = over_components(tower, (b1.y_terms, b2.y_terms), compute)
    results = [r for _tw, r in pairs]
    if all(results):
        return True
    if not any(results):
        return False
    raise NormalFormMismatchError(
        "equivalence differs between conjugate components of the coefficient tower"
    )
