"""Types read off the Newton-polygon tree: germs that force tower splits,
germs the expansion path types only slowly, and seeded agreement with the
expansion oracle on polars and on products of branches."""

import random
from fractions import Fraction as F
from math import gcd

import pytest

from branchpolar import equising
from branchpolar.branch import PuiseuxBranch
from branchpolar.equising import equisingularity_type, random_direction
from branchpolar.errors import PrecisionError
from branchpolar.families import SQRT6, family, gamma_5_12
from branchpolar.implicit import implicitize, milnor_number, polar
from branchpolar.poly import BivariatePolynomial as BP
from branchpolar.puiseux import _tree_node, puiseux_tree
from branchpolar.tower import Tower

from oracles import expansion_type

X = BP({(1, 0): F(1)})
Y = BP({(0, 1): F(1)})


def _product(branches):
    f = implicitize(branches[0])
    for b in branches[1:]:
        f = f * implicitize(b)
    return f


def _signature(t):
    return [s.generators for s in t.branches], t.intersections


# -- germs that split the tower --------------------------------------------------


def _split_germs():
    """Germs whose side polynomial has a repeated factor that is reducible
    over the base field, so adjoining one root of it splits the tower."""
    return [
        # (z^2 - 4)^2 at the first node
        ((Y - X * 2) ** 2 - X**3) * ((Y + X * 2) ** 2 - X**5),
        ((Y - X) ** 2 - X**3) * ((Y + X) ** 2 - X**3),
        # inclination 2: (z^2 - 1)^2
        ((Y - X**2) ** 2 - X**5) * ((Y + X**2) ** 2 - X**7),
        # z^2 - 6 factors over the base Q(sqrt6)
        ((Y - X * SQRT6) ** 2 - X**3) * ((Y + X * SQRT6) ** 2 - X**5),
        # ramified: P(w) = (w - 1)^2 (w - 4)^2 in w = z^2, all four of
        # multiplicity 2
        _product(
            [
                PuiseuxBranch.from_terms(2, {3: F(1), 4: F(1)}),
                PuiseuxBranch.from_terms(2, {3: F(1), 5: F(1)}),
                PuiseuxBranch.from_terms(2, {3: F(2), 4: F(1)}),
                PuiseuxBranch.from_terms(2, {3: F(2), 5: F(1)}),
            ]
        ),
    ]


def test_split_germ_type():
    # the expansion path recursed until RecursionError on this germ
    f = _split_germs()[0]
    t = equisingularity_type(f)
    assert _signature(t) == ([(2, 3), (2, 5)], ((0, 4), (4, 0)))
    assert t.milnor_number() == milnor_number(f) == 13


def test_tree_classifies_vertex_coefficients():
    # after the first node the coefficient of x^1 y^0 is -(8 + 4 r), r^2 = 4:
    # a zero divisor at a polygon vertex, which must split the tower before
    # the polygon is read
    branches, mat = puiseux_tree(_split_germs()[0], 30)
    assert sorted(branches) == [(2, 3), (2, 5)]
    assert mat == [[0, 4], [4, 0]]


@pytest.mark.parametrize("k", range(4))
def test_split_germs_match_the_expansion_oracle(k):
    f = _split_germs()[k]
    t = equisingularity_type(f)
    assert t == expansion_type(f, t.milnor_number())


def test_ramified_split_germ_type():
    # the expansion path adjoins z with P(z^2), where a split may leave the
    # branches over w = 1 and w = 4 in one D5 family; pair assembly then
    # raises AmbiguousPairingError.  Branches sharing w meet at 3/2*4 + 1.
    t = equisingularity_type(_split_germs()[4])
    assert [s.generators for s in t.branches] == [(2, 3)] * 4
    assert sorted(t.intersections[0][1:]) == [6, 6, 7]
    assert sorted(t.intersections[1][2:] + t.intersections[2][3:]) == [6, 6, 7]
    assert t.milnor_number() == 81


def test_three_cusps_of_equal_contact():
    # the expansion path took over 8 minutes on this germ
    f = _product(
        [
            PuiseuxBranch.from_terms(2, {3: F(1), 7: F(-4), 9: F(-1, 2)}),
            PuiseuxBranch.from_terms(2, {3: F(1), 8: F(-2, 3), 9: F(1)}),
            PuiseuxBranch.from_terms(2, {3: F(1), 7: F(1)}),
        ]
    )
    t = equisingularity_type(f)
    assert _signature(t) == ([(2, 3)] * 3, ((0, 10, 10), (10, 0, 10), (10, 10, 0)))
    assert t.milnor_number() == 64


def test_polygon_beyond_the_known_precision_is_a_shortfall():
    # y^2 - x^5 known only modulo x^5: its polygon's last vertex is unknown
    f = BP({(0, 2): F(1), (5, 0): F(-1)})
    with pytest.raises(PrecisionError):
        _tree_node(f, Tower(), 10, 5)
    assert _tree_node(f, Tower(), 10, 6) == ([(2, 5)], [[0]])


def test_undetermined_y_axis_root_is_a_shortfall():
    # y (y - x) known modulo x^2: the root y = 0 is only O(x), as steep as
    # the side of y - x, so its contact with that branch is unknown
    f = Y * (Y - X)
    with pytest.raises(PrecisionError):
        _tree_node(f, Tower(), 10, 2)
    assert _tree_node(f, Tower(), 10, 3) == ([(1,), (1,)], [[0, 1], [1, 0]])


def test_ramification_sum_is_checked(monkeypatch):
    # a tree that lost a branch of the cusp fails the ramification sum
    # before the Milnor number is compared
    monkeypatch.setattr(equising, "puiseux_tree", lambda f, budget: ([(1,)], [[0]]))
    with pytest.raises(AssertionError, match="ramification sum"):
        equisingularity_type(Y**2 - X**3)


# -- seeded agreement with the expansion oracle ------------------------------------


def _table_3_2_rows():
    """Every row of the multiplicity-4 genus-1 table, second normal form."""

    def nf2(m, j, avals):
        terms = {m: F(1), 3 * m - 4 * j: F(1)}
        for i, v in avals.items():
            terms[2 * m - 4 * (j - m // 4 - i)] = v
        return PuiseuxBranch.from_terms(4, terms)

    wall = F(4, 9) * SQRT6
    rows = [(13, 2, {}), (11, 3, {}), (13, 6, {}), (17, 7, {}), (13, 5, {})]
    rows += [(29, j, {1: F(2)}) for j in (10, 11, 13, 14)] + [(29, 13, {2: F(2)})]
    rows += [
        (29, 13, {1: wall}),
        (29, 13, {1: wall, 2: F(3)}),
        (29, 13, {1: wall, 3: F(3)}),
        (29, 13, {1: wall, 4: F(1) - F(4, 81) * SQRT6}),
        (29, 13, {1: wall, 4: F(3)}),
        (19, 9, {1: wall, 2: F(-4, 81) * SQRT6}),
    ]
    return [nf2(*row) for row in rows]


def _random_branch(rng):
    """x = t^n, y = 1-3 terms between t^n and t^(2n+3), n <= 6, primitive."""
    n = rng.randint(2, 6)
    while True:
        exps = [e for e in range(n + 1, 2 * n + 3) if e % n]
        exps = sorted(rng.sample(exps, min(len(exps), rng.randint(1, 3))))
        if gcd(n, *exps) == 1:
            break
    return PuiseuxBranch.from_terms(n, {e: F(rng.randint(-9, 9) or 1, rng.randint(1, 5)) for e in exps})


def _polar_inputs():
    rng = random.Random(20261019)
    cases = [(b, 1) for b in _table_3_2_rows()]
    row18 = gamma_5_12(18)
    cases += [(row18.branch(dict(w)), 2) for w in row18.walls]
    for row in range(1, 19):
        fam = gamma_5_12(row)
        cases.append((fam.branch(fam.sample_params(rng)), 2))
    for name in ("mult3", "mult3-monomial", "mult4-g1/1", "mult4-g1/2", "mult4-g1/3", "mult4-g2"):
        fam = family(name)
        cases += [(fam.branch(fam.sample_params(rng)), 2) for _ in range(18)]
    cases += [(_random_branch(rng), 1) for _ in range(40)]
    polars = []
    for b, directions in cases:
        f = implicitize(b)
        polars += [polar(f, *random_direction(rng)) for _ in range(directions)]
    return polars


def test_tree_matches_expansion_oracle_on_polars():
    polars = _polar_inputs()
    assert len(polars) >= 300
    for p in polars:
        t = equisingularity_type(p)
        assert t == expansion_type(p, t.milnor_number()), p


def _coefficient(rng, sqrt6):
    c = F(rng.randint(-5, 5) or 1, rng.randint(1, 3))
    if sqrt6 and rng.randint(0, 1):
        c += F(rng.randint(-2, 2) or 1, rng.randint(1, 2)) * SQRT6
    return c


def _sharing_branches(rng, count, sqrt6):
    """``count`` distinct branches through one leading term: each keeps the
    shared term (at multiplicity n0 or 2 n0) and adds a tail term of its own
    at a higher exponent than the last one's."""
    n0 = rng.choice([1, 2, 2, 3])
    e0 = rng.randint(n0, n0 + 2)
    c0 = _coefficient(rng, False)
    branches = []
    tail = 0
    while len(branches) < count:
        k = rng.choice([1, 1, 2]) if n0 <= 2 else 1
        n = n0 * k
        tail = max(tail, e0 * k) + rng.randint(1, 3)
        if gcd(n, e0 * k, tail) == 1:
            branches.append(PuiseuxBranch.from_terms(n, {e0 * k: c0, tail: _coefficient(rng, sqrt6)}))
    return branches


def test_tree_matches_expansion_oracle_on_products():
    rng = random.Random(20261020)
    germs = []
    for i in range(44):
        sqrt6 = i % 4 == 3
        germs.append(_product(_sharing_branches(rng, 2 if sqrt6 else rng.randint(2, 3), sqrt6)))
    for f in germs:
        t = equisingularity_type(f)
        assert len(t.branches) >= 2
        assert t == expansion_type(f, t.milnor_number()), f
