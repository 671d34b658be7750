"""Numerical semigroups held by their Apéry sets.

Ap[r], r = 0..m-1, is the least member congruent to r mod the multiplicity m.
Then n is a member iff n >= Ap[n mod m], and the conductor is max(Ap) - m + 1
(Rosales & García-Sánchez, *Numerical Semigroups*, 2009, ch. 1).  Ap is a
shortest-path search over the m residues: no work is sized by a generator.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import gcd


@dataclass(frozen=True, order=True)
class NumericalSemigroup:
    """Minimal generators (gcd 1) and the Apéry set with respect to the
    multiplicity, the least generator."""

    generators: tuple[int, ...]
    apery: tuple[int, ...]

    @property
    def multiplicity(self) -> int:
        return self.generators[0]

    @property
    def conductor(self) -> int:
        """Least c with every integer >= c a member (0 for all of N)."""
        return max(self.apery) - self.multiplicity + 1

    @property
    def gaps(self) -> tuple[int, ...]:
        """The non-members in increasing order, enumerated on each call."""
        m = self.multiplicity
        return tuple(g for g in range(self.conductor) if g < self.apery[g % m])

    @property
    def is_smooth(self) -> bool:
        return self.generators == (1,)

    def __contains__(self, n: int) -> bool:
        return n >= self.apery[n % self.multiplicity]  # Ap >= 0 rejects n < 0

    def sort_key(self):
        return (self.multiplicity, self.generators)

    def __repr__(self):
        gens = ",".join(str(g) for g in self.generators)
        return f"<{gens}>"


def semigroup_from_generators(gens) -> NumericalSemigroup:
    """Build the semigroup generated by ``gens`` (gcd must be 1): its Apéry
    set by a shortest-path search over the residues mod the least generator,
    then the minimal generators read off that set."""
    gens = sorted(set(int(g) for g in gens))
    if not gens or gens[0] < 1:
        raise ValueError("generators must be positive integers")
    if gcd(*gens) != 1:
        raise ValueError(f"generators {gens} do not have gcd 1")
    m = gens[0]
    apery = _apery_set(m, gens[1:])
    # v is minimal iff it is an Apéry element and v - w is a gap for every
    # nonzero Apéry element w < v
    minimal = [m] + [
        v
        for v in gens[1:]
        if apery[v % m] == v and all(v - w < apery[(v - w) % m] for w in apery if 0 < w < v)
    ]
    return NumericalSemigroup(tuple(minimal), apery)


def _apery_set(m: int, steps: list[int]) -> tuple[int, ...]:
    """Least element of <m, steps> in each residue class mod m: Dijkstra
    from residue 0, an edge r -> r + s mod m of length s per step s.  The
    caller has checked gcd = 1, so every residue is reached."""
    dist: list[int | None] = [None] * m
    heap = [(0, 0)]
    while heap:
        d, r = heapq.heappop(heap)
        if dist[r] is not None:
            continue
        dist[r] = d
        for s in steps:
            if dist[(r + s) % m] is None:
                heapq.heappush(heap, (d + s, (r + s) % m))
    return tuple(dist)
