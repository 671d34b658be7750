"""Newton polygons of curve germs, side polynomials, non-degeneracy, and the
intersection rule at one node of the Newton-polygon tree.

For a germ with x and y stripped off, the compact Newton boundary runs from
the point (0, h) on the j-axis to (w, 0) on the i-axis.  A side L with
endpoints (i_k, j_k), (i_{k+1}, j_{k+1}) has height n_L = j_k - j_{k+1},
width m_L = i_{k+1} - i_k, inclination d_L = m_L / n_L, and side polynomial

    p_L(z) = z^(-j_{k+1}) f_L(1, z),

of degree n_L with nonzero constant term.  The germ is Newton non-degenerate
when every p_L is squarefree; its equisingularity type is then pure polygon
combinatorics: side i contributes gcd(n_i, m_i) branches with Newton pair
(n_i/r_i, m_i/r_i), and branches on sides i, i' meet with multiplicity
inf(d_i, d_i') (n_i/r_i)(n_i'/r_i') (:func:`join_clusters`, which the
Newton-Puiseux tree applies at every node).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .branch import characteristic_semigroup
from .eqtype import EquisingularityType
from .poly import BivariatePolynomial
from .tower import Value
from .unipoly import is_squarefree, ustrip


@dataclass(frozen=True)
class Side:
    """One compact side of a Newton polygon with its lattice data."""

    start: tuple[int, int]
    end: tuple[int, int]
    side_polynomial: tuple  # UPoly coefficients, constant term first

    @property
    def height(self) -> int:
        return self.start[1] - self.end[1]

    @property
    def width(self) -> int:
        return self.end[0] - self.start[0]

    @property
    def inclination(self) -> Fraction:
        return Fraction(self.width, self.height)

    def newton_pair(self) -> tuple[int, int]:
        """(e, q) with q/e the inclination in lowest terms."""
        r = gcd(self.height, self.width)
        return self.height // r, self.width // r

    def __repr__(self):
        return f"Side[{self.start};{self.end}]"


@dataclass(frozen=True)
class NewtonPolygon:
    """Compact Newton boundary of a germ, plus stripped axis multiplicities.

    ``x_mult``/``y_mult`` record axis factors x^p, y^q removed before the
    hull computation so that the vertices satisfy the boundary invariants
    (first vertex on the j-axis, last on the i-axis).
    """

    vertices: tuple[tuple[int, int], ...]
    sides: tuple[Side, ...]
    x_mult: int = 0
    y_mult: int = 0

    def __repr__(self):
        return f"NewtonPolygon(vertices={list(self.vertices)})"


def newton_polygon(f: BivariatePolynomial) -> NewtonPolygon:
    """Lower-left convex hull of the support, restricted to compact sides.

    Axis factors are stripped first and recorded on the result; each side
    carries its side polynomial p_L(z) = z^(-j_end) f_L(1, z).
    """
    if f.is_zero:
        raise ValueError("Newton polygon of the zero polynomial")
    p, f1 = f.strip_x_power()
    q, f1 = f1.strip_y_power()
    support = f1.support()
    if support == [(0, 0)]:
        return NewtonPolygon((), (), p, q)
    # staircase reduction: minimal j for each i, then the monotone hull
    min_j: dict[int, int] = {}
    for (i, j) in support:
        if i not in min_j or j < min_j[i]:
            min_j[i] = j
    j_min = min(min_j.values())
    w = min(i for i, j in min_j.items() if j == j_min)
    pts = sorted((i, j) for i, j in min_j.items() if i <= w)
    hull: list[tuple[int, int]] = []
    for pt in pts:
        # pop non-vertices: collinear middles and points above the chain
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], pt) <= 0:
            hull.pop()
        hull.append(pt)
    sides = []
    for a, b in zip(hull, hull[1:]):
        on_side = [
            (i, j)
            for (i, j) in f1.support()
            if a[0] <= i <= b[0] and _cross(a, b, (i, j)) == 0
        ]
        coeffs: list[Value] = [Fraction(0)] * (a[1] - b[1] + 1)
        for (i, j) in on_side:
            coeffs[j - b[1]] = f1.terms[(i, j)]
        sides.append(Side(a, b, tuple(ustrip(coeffs))))
    return NewtonPolygon(tuple(hull), tuple(sides), p, q)


def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def is_newton_nondegenerate(np: NewtonPolygon) -> bool:
    """True iff every side polynomial of the polygon is squarefree.

    Reads the compact sides only: the axis factors recorded in
    ``np.x_mult``/``np.y_mult`` are the caller's to judge."""
    return all(is_squarefree(list(s.side_polynomial)) for s in np.sides)


def join_clusters(clusters) -> tuple[list[tuple[int, ...]], list[list[int]]]:
    """Branches and intersection matrix of a germ from its clusters at one
    node of the Newton-polygon tree.

    A cluster ``(s, branches, inner)`` holds the branches whose Puiseux
    roots start with one root of one side polynomial: ``s`` is that side's
    inclination (None for the root y = 0, which counts as s = infinity),
    ``branches`` their characteristic exponents (n, beta_1, ...) and
    ``inner`` their intersection matrix one node down (zero for a single
    branch).  Branches A and B meet with multiplicity
    min(s_A, s_B) n_A n_B, plus inner[A][B] when they share a cluster.
    """
    branches = []
    where = []  # (cluster index, inclination, index inside the cluster)
    for k, (s, bs, _inner) in enumerate(clusters):
        for i, b in enumerate(bs):
            branches.append(b)
            where.append((k, s, i))
    r = len(branches)
    mat = [[0] * r for _ in range(r)]
    for a in range(r):
        ka, sa, ia = where[a]
        for b in range(a + 1, r):
            kb, sb, ib = where[b]
            s = sb if sa is None else sa if sb is None else min(sa, sb)
            val = s * branches[a][0] * branches[b][0]
            if ka == kb:
                val += clusters[ka][2][ia][ib]
            if val.denominator != 1:
                raise ValueError("non-integral intersection from polygon data")
            mat[a][b] = mat[b][a] = int(val)
    return branches, mat


def nondegenerate_type(np: NewtonPolygon) -> EquisingularityType:
    """Equisingularity type of a Newton non-degenerate germ from its polygon.

    Side i of height n_i and width m_i carries r_i = gcd(n_i, m_i) branches
    with semigroup <n_i/r_i, m_i/r_i> (smooth when the reduced height is 1),
    each a cluster of its own for :func:`join_clusters`, as is a stripped
    y-factor.  A stripped x-factor re-enters as a smooth branch meeting each
    branch x = t^n, y = y(t) with multiplicity n.
    """
    if np.x_mult > 1 or np.y_mult > 1:
        raise ValueError("axis factor with multiplicity: germ not reduced")
    clusters = [(None, [(1,)], [[0]])] * np.y_mult
    for s in np.sides:
        if s.height <= 0 or s.width <= 0:
            raise ValueError(f"inconsistent side data {s!r}")
        e, q = s.newton_pair()
        branch = (e, q) if e > 1 else (1,)
        clusters.extend([(s.inclination, [branch], [[0]])] * (s.height // e))
    branches, mat = join_clusters(clusters)
    if np.x_mult:
        mat = [[0] + [b[0] for b in branches]] + [
            [b[0]] + row for b, row in zip(branches, mat)
        ]
        branches = [(1,)] + branches
    if not branches:
        raise ValueError("empty polygon: no branches")
    return EquisingularityType.of([characteristic_semigroup(b) for b in branches], mat)
