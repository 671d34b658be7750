"""Tower arithmetic, D5 splitting, and the squarefree/adjoin operations."""

from fractions import Fraction as F
from math import gcd

import pytest

from branchpolar.tower import Tower, TowerElement, TowerSplit, over_components, unit_inverse
from branchpolar.unipoly import (
    is_squarefree,
    ucyclotomic,
    udeg,
    uexact_div,
    ugcd,
    umul,
    uyun,
)

from oracles import nested_add, nested_mul, nested_one, nested_pow, nested_sub

SQRT2 = Tower().adjoin("a", (F(-2), F(0), F(1)))


def test_basic_arithmetic_sqrt2():
    a = SQRT2.generator(1)
    assert (a * a) == 2
    assert (1 + a) * (1 - a) == -1
    inv = (1 + a).inverse()
    assert (1 + a) * inv == 1


def test_associativity_and_inverse_random(rng):
    a = SQRT2.generator(1)
    vals = [SQRT2.from_rational(F(rng.randint(-5, 5), rng.randint(1, 4))) + a * rng.randint(-3, 3)
            for _ in range(6)]
    for x in vals:
        for y in vals:
            for z in vals:
                assert (x + y) + z == x + (y + z)
                assert (x * y) * z == x * (y * z)
    for x in vals:
        if x.is_zero:
            continue
        inv = unit_inverse(x)
        assert x * inv == 1


def test_two_level_tower():
    t2 = SQRT2.adjoin("b", ((-SQRT2.generator(1)).rep, SQRT2.zero().rep, SQRT2.one().rep))
    b = t2.generator(2)
    assert b ** 4 == 2
    assert b * b == t2.lift(SQRT2.generator(1))
    assert b * b.inverse() == 1


def test_split_components_multiply_to_original():
    t = Tower().adjoin("e", (F(0), F(-1), F(1)))  # z^2 - z = z(z-1)
    e = t.generator(1)
    with pytest.raises(TowerSplit) as exc:
        e.inverse()
    comps = exc.value.components
    g = list(comps[0].levels[0].minpoly)
    h = list(comps[1].levels[0].minpoly)
    assert umul(g, h) == [F(0), F(-1), F(1)]
    projections = sorted(str(c.project_value(e).rep) for c in comps)
    assert projections == ["()", "(Fraction(1, 1),)"]


def test_split_at_lower_level_projects_upper():
    te = Tower().adjoin("e", (F(0), F(-1), F(1)))
    tec = te.adjoin("c", (te.from_rational(-2).rep, te.zero().rep, te.one().rep))
    x = tec.lift(te.generator(1)) * tec.generator(2)
    with pytest.raises(TowerSplit) as exc:
        x.inverse()
    for comp in exc.value.components:
        assert comp.height == 2
        assert comp.project_value(tec.generator(2)) ** 2 == 2


def test_over_components_covers_tree():
    t = Tower().adjoin("e", (F(0), F(0), F(-1), F(1)))  # z^3 - z^2 = z^2(z-1): not squarefree!
    # use a squarefree split-rich polynomial instead: z(z-1)(z+1) = z^3 - z
    t = Tower().adjoin("e", (F(0), F(-1), F(0), F(1)))
    e = t.generator(1)

    def compute(tw, elem):
        return unit_inverse(tw.project_value(elem)) is None

    results = over_components(t, e, lambda tw, v: v, compute)
    zeros = sorted(z for _tw, z in results)
    assert zeros == [False, True] or zeros == [False, False, True]
    total = sum(tw.dim for tw, _ in results)
    assert total == 3


def test_unit_inverse_reports_zero_and_splits():
    assert unit_inverse(F(0)) is None
    assert unit_inverse(F(-3, 4)) == F(-4, 3)
    a = SQRT2.generator(1)
    assert unit_inverse(1 + a) == a - 1
    assert unit_inverse(SQRT2.zero()) is None
    t = Tower().adjoin("e", (F(0), F(-1), F(0), F(1)))  # z^3 - z = z(z-1)(z+1)
    with pytest.raises(TowerSplit):
        unit_inverse(t.generator(1))


def test_is_squarefree_examples():
    # z^4 - 3 z^2 + 1 (stratum-18 side polynomial at c = 0)
    assert is_squarefree([F(1), F(0), F(-3), F(0), F(1)])
    # c = -5/4: z^4 - 3 z^2 + 9/4 = (z^2 - 3/2)^2
    assert not is_squarefree([F(9, 4), F(0), F(-3), F(0), F(1)])
    assert not is_squarefree([F(0), F(0), F(1)])  # z^2
    with pytest.raises(ValueError):
        is_squarefree([])


def test_is_squarefree_over_split_tower():
    # over Q[e]/(e^2-e), the polynomial z^2 - e has a multiple root in the
    # e = 0 component; the aggregated answer is False
    t = Tower().adjoin("e", (F(0), F(-1), F(1)))
    e = t.generator(1)
    assert not is_squarefree([-e, t.zero(), t.one()])
    # z^2 - (e + 1) is squarefree in both components
    assert is_squarefree([-(e + 1), t.zero(), t.one()])


def test_yun_squarefree_factorization(rng):
    # (z-1)^2 (z+2) over Q
    p = umul(umul([F(-1), F(1)], [F(-1), F(1)]), [F(2), F(1)])
    fac = uyun(p)
    assert sorted((udeg(g), m) for g, m in fac) == [(1, 1), (1, 2)]
    rebuilt = [F(1)]
    for g, m in fac:
        for _ in range(m):
            rebuilt = umul(rebuilt, g)
    assert rebuilt == p


def test_cyclotomic():
    assert ucyclotomic(1) == [F(-1), F(1)]
    assert ucyclotomic(2) == [F(1), F(1)]
    assert ucyclotomic(4) == [F(1), F(0), F(1)]
    # product of cyclotomics over divisors of 6 gives z^6 - 1
    prod = [F(1)]
    for d in (1, 2, 3, 6):
        prod = umul(prod, ucyclotomic(d))
    assert prod == [F(-1)] + [F(0)] * 5 + [F(1)]


def test_gcd_and_exact_div():
    a = umul([F(1), F(1)], [F(-2), F(1)])
    b = umul([F(1), F(1)], [F(5), F(1)])
    g = ugcd(a, b)
    assert g == [F(1), F(1)]
    assert uexact_div(a, g) == [F(-2), F(1)]


# -- flat arithmetic against the nested-Fraction oracle ----------------------------


def _sqrt6():
    return Tower().adjoin("s", (F(-6), F(0), F(1)))


def _wall_tower():
    # r1^2 = 6, r2^2 = (67/336) r1: a non-integral upper level, as on the
    # strata walls
    t1 = _sqrt6()
    r1 = t1.generator(1)
    return t1.adjoin("r2", ((r1 * F(-67, 336)).rep, t1.zero().rep, t1.one().rep))


def _degree8_tower():
    # r3^2 = r2 r3 + r1 + 1/5 over the wall tower
    t2 = _wall_tower()
    r1, r2 = t2.generator(1), t2.generator(2)
    return t2.adjoin("r3", ((-(r1 + F(1, 5))).rep, (-r2).rep, t2.one().rep))


def _split_components():
    # Q[e]/(e^2 - e) under c^2 = e + 2, split by inverting e
    te = Tower().adjoin("e", (F(0), F(-1), F(1)))
    e = te.generator(1)
    tec = te.adjoin("c", ((-(e + 2)).rep, te.zero().rep, te.one().rep))
    with pytest.raises(TowerSplit) as exc:
        tec.lift(e).inverse()
    return exc.value.components


def _random_element(rng, tw):
    if rng.random() < 0.1:
        return tw.zero()
    num = [rng.randint(-30, 30) if rng.random() < 0.8 else 0 for _ in range(tw.dim)]
    return TowerElement(tw, num, rng.randint(1, 40))


TOWERS = {
    "sqrt6": lambda: [_sqrt6()],
    "wall-height-2": lambda: [_wall_tower()],
    "height-3-degree-8": lambda: [_degree8_tower()],
    "split-components": _split_components,
}


@pytest.mark.parametrize("name", sorted(TOWERS))
def test_flat_arithmetic_matches_nested_oracle(rng, name):
    for tw in TOWERS[name]():
        h = tw.height
        elems = [_random_element(rng, tw) for _ in range(8)]
        for x in elems:
            for y in elems:
                assert (x + y).rep == nested_add(tw, h, x.rep, y.rep)
                assert (x - y).rep == nested_sub(tw, h, x.rep, y.rep)
                assert (x * y).rep == nested_mul(tw, h, x.rep, y.rep)
            for n in range(5):
                assert (x ** n).rep == nested_pow(tw, h, x.rep, n)
            q = F(rng.randint(-9, 9), rng.randint(1, 9))
            assert (x * q).rep == nested_mul(tw, h, x.rep, tw.from_rational(q).rep)
            if not x.is_zero:
                assert nested_mul(tw, h, x.rep, x.inverse().rep) == nested_one(h)


@pytest.mark.parametrize("name", sorted(TOWERS))
def test_flat_elements_are_canonical(rng, name):
    for tw in TOWERS[name]():
        elems = [_random_element(rng, tw) for _ in range(8)]
        elems += [x * y for x in elems[:4] for y in elems[4:]]
        for x in elems:
            assert x.den > 0 and gcd(x.den, *x.num) == 1
            assert len(x.num) == tw.dim
            assert x.is_zero == (x.rep == ()) == (x.num == (0,) * tw.dim and x.den == 1)
            back = tw.from_rep(x.rep)
            assert (back.num, back.den) == (x.num, x.den)
        assert (tw.zero().num, tw.zero().den) == ((0,) * tw.dim, 1)


def test_lift_from_prefix_pads_with_zeros():
    t3 = _degree8_tower()
    t1 = t3.prefix(1)
    x = TowerElement(t1, (3, -4), 7)
    lifted = t3.lift(x)
    assert (lifted.num, lifted.den) == ((3, -4) + (0,) * 6, 7)
    assert lifted == x and lifted * t3.generator(3) == t3.generator(3) * x
