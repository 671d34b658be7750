"""Invariants of a single plane branch given by a Newton-Puiseux
parametrization x = t^n, y = sum c_i t^i.

The semigroup of values is read off the characteristic exponents through the
classical recursion; the set of differential values is computed by pulling
back monomial differentials, cut at t^(c + n) for the conductor c, and running
a valuation-echelon elimination.  The value of a differential A dx + B dy on
the branch is

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
    """Values of monomial differentials closed under elimination.

    Pullbacks of x^i y^j dx and x^i y^j dy with value below W = conductor + n
    are reduced against a valuation-echelon basis (pivot = lowest order,
    ties broken by generation order); every pivot order + 1 is an achieved
    value.  Since all integers >= conductor already lie in the semigroup,
    the extra set is contained in [0, conductor) and the computation is
    complete at this truncation, so every pullback is cut at t^W: y^j dx and
    y^j dy are built once per j, and x^i = t^(i*n) is an exponent shift.
    """
    gamma = semigroup_of_branch(b)
    c = gamma.conductor
    n = b.n
    W = c + n
    if b.trunc is not None and b.trunc < W:
        raise PrecisionError(
            f"truncation t^{b.trunc} too small for differential values (need t^{W})"
        )
    ys = b.y_series(W)
    dx = TruncatedSeries.monomial(n - 1, Fraction(n), W)
    dy = ys.derivative()
    m = b.y_order()
    if m is None:
        raise ValueError("monomial branch in x only: y vanishes identically")

    def shifted(s: TruncatedSeries, k: int) -> TruncatedSeries:  # t^k * s mod t^W
        return TruncatedSeries({e + k: v for e, v in s.terms.items()}, min(s.trunc + k, W))

    candidates = []
    yj = TruncatedSeries.constant(Fraction(1), W)
    for j in range(W // m + 1):
        ydx, ydy = (yj * dx).truncate(W), (yj * dy).truncate(W)
        for i in range((W - j * m) // n + 1):
            candidates.append((i * n + j * m + n, 0, i, j, shifted(ydx, i * n)))
            candidates.append((i * n + j * m + m, 1, i, j, shifted(ydy, i * n)))
        yj = (yj * ys).truncate(W)
    candidates.sort(key=lambda r: r[:4])

    echelon: dict[int, TruncatedSeries] = {}
    values = set()
    for _, _, _, _, s in candidates:
        while True:
            if s.is_zero_mod_trunc:
                break
            o = min(s.terms)
            if o in echelon:
                s = s - echelon[o].scale(s.terms[o])
            else:
                echelon[o] = s.scale(unit_inverse(s.terms[o]))
                values.add(o + 1)
                break
    extra = frozenset(v for v in values if v < c and v not in gamma)
    return DifferentialValues(gamma, extra)


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
