"""Equisingularity types: branch semigroups plus pairwise intersections,
held in a canonical form so that equality of types is equality of data.

Canonical ordering: branches sorted by (multiplicity, generator tuple); ties
among identical semigroups are broken by choosing, among all permutations
within each tie group, the lexicographically smallest intersection matrix.
The choice is deterministic but factorial in the tie group's size: the polar
of x = t^10, y = t^19 has 9! orderings (ROADMAP.md, contact-tree types).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .semigroup import NumericalSemigroup


@dataclass(frozen=True)
class EquisingularityType:
    """Canonical equisingularity data of a reduced germ."""

    branches: tuple[NumericalSemigroup, ...]
    intersections: tuple[tuple[int, ...], ...]  # symmetric, 0 on the diagonal

    @staticmethod
    def of(branches, matrix) -> "EquisingularityType":
        """Canonicalize a branch list and a symmetric intersection matrix."""
        n = len(branches)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                if matrix[i][j] != matrix[j][i]:
                    raise ValueError("intersection matrix must be symmetric")
                if matrix[i][j] < 1:
                    raise ValueError("intersection multiplicities are positive")
        order = sorted(range(n), key=lambda i: branches[i].sort_key())
        groups: list[list[int]] = []
        for i in order:
            if groups and branches[groups[-1][0]].sort_key() == branches[i].sort_key():
                groups[-1].append(i)
            else:
                groups.append([i])
        best = None
        for perm in _group_permutations(groups):
            mat = tuple(
                tuple(0 if a == b else matrix[perm[a]][perm[b]] for b in range(n))
                for a in range(n)
            )
            if best is None or mat < best:
                best = mat
                best_perm = perm
        bs = tuple(branches[i] for i in best_perm)
        return EquisingularityType(bs, best)

    def milnor_number(self) -> int:
        """mu of the reduced germ from branch conductors and intersections:
        mu = sum mu_i + 2 sum_{i<j} I_ij - (r - 1), and 0 for the empty germ."""
        r = len(self.branches)
        if r == 0:
            return 0
        mu = sum(b.conductor for b in self.branches)
        for i in range(r):
            for j in range(i + 1, r):
                mu += 2 * self.intersections[i][j]
        return mu - (r - 1)

    def describe(self) -> str:
        bits = []
        for i, b in enumerate(self.branches):
            inter = [
                f"I(b{i + 1},b{j + 1})={self.intersections[i][j]}"
                for j in range(i + 1, len(self.branches))
            ]
            bits.append(f"b{i + 1}~{b!r}")
            bits.extend(inter)
        return "; ".join(bits)

    def __repr__(self):
        return f"EquisingularityType({self.describe()})"


def _group_permutations(groups: list[list[int]]):
    """All orderings that permute indices only within tie groups, yielded
    lazily, the last group varying fastest."""
    if not groups:
        yield ()
        return
    for head in _group_permutations(groups[:-1]):
        for p in permutations(groups[-1]):
            yield head + p
