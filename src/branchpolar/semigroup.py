"""Numerical semigroups: minimal generators, conductor, gap set."""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd


@dataclass(frozen=True, order=True)
class NumericalSemigroup:
    """A numerical semigroup by minimal generators, with conductor and gaps.

    Invariants: gcd of the generators is 1, every integer >= conductor is a
    member, conductor - 1 is a gap (unless the semigroup is all of N, where
    the conductor is 0), and no generator is representable by the others.
    """

    generators: tuple[int, ...]
    conductor: int
    gaps: frozenset[int]

    @property
    def multiplicity(self) -> int:
        return self.generators[0]

    @property
    def is_smooth(self) -> bool:
        return self.generators == (1,)

    def __contains__(self, n: int) -> bool:
        if n < 0:
            return False
        return n >= self.conductor or n not in self.gaps

    def sort_key(self):
        return (self.multiplicity, self.generators)

    def __repr__(self):
        gens = ",".join(str(g) for g in self.generators)
        return f"<{gens}>"


def semigroup_from_generators(gens) -> NumericalSemigroup:
    """Build the semigroup generated by ``gens`` (gcd must be 1), minimizing
    the generator list and enumerating gaps by a coin-problem sieve."""
    gens = sorted(set(int(g) for g in gens))
    if not gens or gens[0] < 1:
        raise ValueError("generators must be positive integers")
    g = 0
    for v in gens:
        g = gcd(g, v)
    if g != 1:
        raise ValueError(f"generators {gens} do not have gcd 1")
    if gens[0] == 1:
        return NumericalSemigroup((1,), 0, frozenset())
    m = gens[0]
    bound = max(gens) * m + 1
    member = bytearray(bound)
    member[0] = 1
    for v in gens:
        for i in range(v, bound):
            if member[i - v]:
                member[i] = 1
    run, conductor = 0, None
    for i in range(bound):
        run = run + 1 if member[i] else 0
        if run == m:  # m consecutive members close the semigroup upward
            conductor = i - m + 1
            break
    if conductor is None:
        raise AssertionError("sieve bound too small")
    gaps = frozenset(i for i in range(conductor) if not member[i])
    minimal = []
    for v in gens:
        others = [w for w in gens if w != v]
        if not others or not _representable(v, others):
            minimal.append(v)
    return NumericalSemigroup(tuple(minimal), conductor, gaps)


def _representable(v: int, gens: list[int]) -> bool:
    reach = bytearray(v + 1)
    reach[0] = 1
    for g in gens:
        for i in range(g, v + 1):
            if reach[i - g]:
                reach[i] = 1
    return bool(reach[v])
