"""Newton polygons, non-degeneracy, and the polygon-combinatorial type."""

from fractions import Fraction as F

from branchpolar.newton import is_newton_nondegenerate, join_clusters, newton_polygon, nondegenerate_type
from branchpolar.poly import BivariatePolynomial as BP


def test_single_side_row1():
    np = newton_polygon(BP({(0, 4): F(5), (11, 0): F(-12)}))
    assert np.vertices == ((0, 4), (11, 0))
    (s,) = np.sides
    assert (s.height, s.width, s.inclination) == (4, 11, F(11, 4))
    assert list(s.side_polynomial) == [F(-12), F(0), F(0), F(0), F(5)]


def test_two_sides_stratum_10():
    np = newton_polygon(
        BP({(0, 4): F(5), (5, 3): F(-30), (6, 2): F(-15), (8, 1): F(-10), (11, 0): F(-12)})
    )
    assert np.vertices == ((0, 4), (8, 1), (11, 0))
    assert [(s.start, s.end) for s in np.sides] == [((0, 4), (8, 1)), ((8, 1), (11, 0))]


def test_axis_only_polynomial():
    np = newton_polygon(BP({(0, 1): F(1)}))  # the germ y = 0
    assert np.sides == () and np.y_mult == 1 and np.x_mult == 0


def test_interior_point_on_side_enters_side_polynomial():
    # support (0,2), (1,1), (2,0) is one side with all three points on it
    np = newton_polygon(BP({(0, 2): F(1), (1, 1): F(-2), (2, 0): F(1), (3, 0): F(1)}))
    (s,) = np.sides
    assert list(s.side_polynomial) == [F(1), F(-2), F(1)]


def test_nondegeneracy_examples():
    assert not is_newton_nondegenerate(
        newton_polygon(BP({(0, 2): F(1), (1, 1): F(-2), (2, 0): F(1), (3, 0): F(1)}))
    )  # (z-1)^2
    for c, expect in ((F(0), True), (F(-5, 4), False)):
        pl = BP({(0, 4): F(1), (5, 2): F(-3), (10, 0): -(c - 1)})
        assert is_newton_nondegenerate(newton_polygon(pl)) is expect


def test_nondegenerate_scaling_invariance(rng):
    f = BP({(0, 4): F(5), (5, 2): F(-15), (10, 0): F(5), (6, 1): F(2)})
    for _ in range(5):
        u = F(rng.randint(1, 9))
        v = F(rng.randint(1, 9))
        g = BP({(i, j): c * u**i * v**j for (i, j), c in f.terms.items()})
        assert is_newton_nondegenerate(newton_polygon(g)) == is_newton_nondegenerate(
            newton_polygon(f)
        )


def test_type_single_side_4_11():
    t = nondegenerate_type(newton_polygon(BP({(0, 4): F(5), (11, 0): F(-12)})))
    assert len(t.branches) == 1 and t.branches[0].generators == (4, 11)


def test_type_stratum_10():
    t = nondegenerate_type(
        newton_polygon(BP({(0, 4): F(5), (8, 1): F(-10), (11, 0): F(-12)}))
    )
    gens = sorted(b.generators for b in t.branches)
    assert gens == [(1,), (3, 8)]
    assert t.intersections[0][1] == 8


def test_type_two_2_5_branches():
    t = nondegenerate_type(newton_polygon(BP({(0, 4): F(1), (5, 2): F(-3), (10, 0): F(1)})))
    assert [b.generators for b in t.branches] == [(2, 5), (2, 5)]
    assert t.intersections[0][1] == 10


def test_polygon_of_product_merges_sides(rng):
    for _ in range(10):
        f = BP({(0, rng.randint(1, 2)): F(rng.randint(1, 5)), (rng.randint(1, 4), 0): F(rng.randint(1, 5))})
        g = BP({(0, rng.randint(1, 2)): F(rng.randint(1, 5)), (rng.randint(1, 4), 0): F(rng.randint(1, 5))})
        npf, npg, npfg = newton_polygon(f), newton_polygon(g), newton_polygon(f * g)
        # Minkowski sum: total height/width add, slopes merge
        assert npfg.vertices[0][1] == npf.vertices[0][1] + npg.vertices[0][1]
        assert npfg.vertices[-1][0] == npf.vertices[-1][0] + npg.vertices[-1][0]
        slopes = sorted(
            [s.inclination for s in npf.sides] + [s.inclination for s in npg.sides]
        )
        merged = []
        for d in slopes:
            if merged and merged[-1] == d:
                continue
            merged.append(d)
        assert [s.inclination for s in npfg.sides] == merged


def test_total_milnor_consistency_on_nondegenerate_fixture():
    from branchpolar.implicit import milnor_number

    f = BP({(0, 4): F(5), (8, 1): F(-10), (11, 0): F(-12)})
    t = nondegenerate_type(newton_polygon(f))
    assert t.milnor_number() == milnor_number(f)


def test_join_clusters_node_rule():
    # the y-axis (s = infinity), a two-branch cluster on the side of
    # inclination 3/2 whose branches meet once more one node down, and a
    # lone branch on the side of inclination 5/2
    branches, mat = join_clusters(
        [
            (None, [(1,)], [[0]]),
            (F(3, 2), [(2, 3), (4, 6, 7)], [[0, 1], [1, 0]]),
            (F(5, 2), [(2, 5)], [[0]]),
        ]
    )
    assert branches == [(1,), (2, 3), (4, 6, 7), (2, 5)]
    assert mat == [[0, 3, 6, 5], [3, 0, 13, 6], [6, 13, 0, 12], [5, 6, 12, 0]]
