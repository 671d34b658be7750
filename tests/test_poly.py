"""Bivariate polynomials: resultants by Ducos's subresultant algorithm
against Brown's PRS and the Sylvester-determinant oracle, multiplicativity,
and ring operations."""

from fractions import Fraction as F
from itertools import chain

import pytest

from branchpolar import poly
from branchpolar.dsl import parse_branch
from branchpolar.families import SQRT6
from branchpolar.implicit import implicitize, milnor_number, polar
from branchpolar.poly import (
    ZX,
    BivariatePolynomial as BP,
    resultant_y,
)
from branchpolar.unipoly import udeg
from oracles import PRIMES, brown_prs_resultant, shift_y, sylvester_resultant_y


def rand_poly(rng, terms=6, deg=4, height=10, dens=(1,), ydeg=None):
    t = {}
    for _ in range(rng.randint(2, terms)):
        j = rng.randint(0, deg) if ydeg is None else ydeg
        t[(rng.randint(0, deg), j)] = F(rng.randint(-height, height), rng.choice(dens))
    return BP(t)


def sqrt6_poly(rng):
    return BP({
        (rng.randint(0, 2), rng.randint(0, 2)): F(rng.randint(-5, 5)) + F(rng.randint(1, 5)) * SQRT6
        for _ in range(rng.randint(2, 4))
    })


def sparse_poly(rng, ydeg):
    """Shaped like the sweep's resultant inputs: a monomial leading
    coefficient, and y^j-coefficients x^v * (sparse polynomial) whose v grows
    as j falls, so the rows carry long runs of zeros."""
    t = {(rng.randint(0, 6), ydeg): F(rng.randint(1, 9), rng.choice((1, 7)))}
    for j in range(ydeg):
        v = rng.randint(2, 5) * (ydeg - j)
        for i in rng.sample((0, 4, 9, 15), 2):
            t[(v + i, j)] = F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((1, 3)))
    return BP(t)


def oracle_pairs(rng):
    """(kind, f, g) inputs for the PRS-against-Sylvester comparison."""
    for _ in range(200):
        yield "integer", rand_poly(rng), rand_poly(rng)
    for _ in range(30):
        yield (
            "coprime denominators",
            rand_poly(rng, terms=5, deg=3, height=10**6, dens=PRIMES),
            rand_poly(rng, terms=5, deg=3, height=10**6, dens=PRIMES),
        )
    for _ in range(20):
        c = rand_poly(rng, terms=3, deg=2, dens=(1, 3, 7), ydeg=1) + BP({(0, 2): F(1)})
        yield (
            "common factor",
            rand_poly(rng, terms=3, deg=2, dens=(1, 2, 5)) * c,
            rand_poly(rng, terms=3, deg=2, dens=(1, 11)) * c,
        )
    for _ in range(20):
        yield (
            "y-degree 0",
            rand_poly(rng, terms=5, deg=3, dens=(1, 4, 9)),
            rand_poly(rng, terms=3, deg=3, dens=(1, 4, 9), ydeg=0),
        )
    for _ in range(20):
        f, g = sparse_poly(rng, rng.randint(2, 4)), sparse_poly(rng, rng.randint(1, 3))
        yield "sparse x-powers", f, g
    for _ in range(6):
        yield "sqrt6", sqrt6_poly(rng), sqrt6_poly(rng)


def gap_pairs(rng):
    """(kind, f, g) inputs whose subresultant chains skip degrees."""
    y = BP.monomial(0, 1)
    for _ in range(20):
        a, b, c = (rand_poly(rng, terms=3, deg=3, ydeg=0) for _ in range(3))
        yield "degree gaps", y**6 + a * y + b, y**2 + c
    for _ in range(20):
        # f = q g + r with deg_y r <= deg_y g - 3: the chain drops from
        # deg_y g to deg_y r at once; g has zeroed middle y-coefficients
        k = rng.randint(3, 6)
        g = y**k + rand_poly(rng, terms=3, deg=3, ydeg=1) + rand_poly(rng, terms=3, deg=3, ydeg=0)
        q = rand_poly(rng, terms=4, deg=3, dens=(1, 5))
        r = sum((rand_poly(rng, terms=2, deg=3, ydeg=j) for j in range(k - 2)), BP())
        yield "degree gaps", q * g + r, g
    for _ in range(6):
        g = y**4 + sqrt6_poly(rng)
        r = y * BP.monomial(rng.randint(0, 2), 0, SQRT6) + BP.monomial(rng.randint(0, 2), 0, F(3))
        yield "sqrt6 degree gaps", (y**2 + sqrt6_poly(rng)) * g + r, g


def ring_rows(f, g):
    """The y-coefficient rows ``resultant_y`` hands to the PRS: ZX rows up
    to a scale for rational inputs, tower-valued polynomials otherwise."""
    if all(isinstance(c, F) for p in (f, g) for c in p.terms.values()):
        return poly._zx_y_coefficients(f)[0], poly._zx_y_coefficients(g)[0]
    return f.y_coefficients(), g.y_coefficients()


def test_ducos_equals_brown_and_sylvester(rng):
    checked = {}
    for kind, a, b in chain(oracle_pairs(rng), gap_pairs(rng)):
        if not a or not b or (a.degree_y() <= 0 and b.degree_y() <= 0):
            continue
        # both orders: an odd product of y-degrees flips the sign
        for f, g in (a, b), (b, a):
            rows = ring_rows(f, g)
            assert poly.prs_resultant(*rows) == brown_prs_resultant(*rows), kind
            assert resultant_y(f, g) == sylvester_resultant_y(f, g), kind
        checked[kind] = checked.get(kind, 0) + 1
    assert min(checked.values()) >= 5 and len(checked) == 8


def test_lazard_is_a_quotient_of_powers():
    y = ZX([2, -1, 0, 3])
    ys = BP({(0, 0): SQRT6, (1, 0): F(1)})
    for x, d in (y * ZX([1, 4, 0, -2]), y), (ys * BP({(1, 0): F(2) + SQRT6, (0, 0): F(-1)}), ys):
        for n in range(1, 10):
            assert poly.lazard(x, d, n) == (x**n).exact_div(d ** (n - 1))
    with pytest.raises(ArithmeticError):
        poly.lazard(ZX([1, 1]), ZX([0, 2]), 3)


def test_zx_addition_is_ring_addition():
    assert ZX([1, 2]) + ZX([0, 0, 3]) == [1, 2, 3]
    assert not ZX([1]) + ZX([-1])
    with pytest.raises(TypeError):
        3 * ZX([1])


def test_ducos_needs_one_prem_and_fewer_products(monkeypatch):
    # operation counts, not times: mu of a branch and of one of its polars
    f = implicitize(parse_branch("x=t^16; y=t^17+t^23").branch)
    prs, prem, mul = poly.prs_resultant, poly._prem, ZX.__mul__
    calls, prems, products = [], [0], [0]

    def prs_spy(a, b):
        before = prems[0]
        res = prs(a, b)
        calls.append((a, b, prems[0] - before))
        return res

    def prem_spy(a, b):
        prems[0] += 1
        return prem(a, b)

    def mul_spy(a, b):
        products[0] += 1
        return mul(a, b)

    monkeypatch.setattr(poly, "prs_resultant", prs_spy)
    monkeypatch.setattr(poly, "_prem", prem_spy)
    monkeypatch.setattr(ZX, "__mul__", mul_spy)
    assert milnor_number(f) == 240 and milnor_number(polar(f, F(3, 7), F(-5, 11))) == 210
    ducos = products[0]
    assert len(calls) == 2
    for a, b, count in calls:
        assert count == (min(udeg(a), udeg(b)) >= 1)
    products[0] = 0
    for a, b, _ in calls:
        brown_prs_resultant(a, b)
    assert ducos < products[0]


def test_resultant_trivial_examples():
    f = BP({(0, 2): F(1), (3, 0): F(-1)})  # y^2 - x^3
    r = resultant_y(f, BP({(0, 1): F(1)}))
    assert r.support() == [(3, 0)] and r.x_order() == 3
    r2 = resultant_y(BP({(0, 1): F(1), (1, 0): F(-1)}), BP({(0, 1): F(1), (1, 0): F(1)}))
    assert r2.x_order() == 1


def test_resultant_for_cusp_milnor():
    f = BP({(0, 3): F(1), (11, 0): F(-1)})  # y^3 - x^11
    r = resultant_y(f.derivative_x(), f.derivative_y())
    assert r.x_order() == 20  # conductor of <3,11> = (3-1)(11-1)


def test_prs_equals_sylvester_on_randoms(rng):
    checked = {}
    for kind, a, b in oracle_pairs(rng):
        if not a or not b:
            continue
        if a.degree_y() <= 0 and b.degree_y() <= 0:
            continue
        res = resultant_y(a, b)
        assert res == sylvester_resultant_y(a, b), kind
        if kind == "common factor":
            assert not res
        assert resultant_y(b, a) == res * BP.constant(F((-1) ** (a.degree_y() * b.degree_y())))
        checked[kind] = checked.get(kind, 0) + 1
    assert checked["integer"] > 150
    assert min(checked.values()) >= 5 and len(checked) == 6


def test_resultant_ring_follows_coefficients(monkeypatch, rng):
    rings = []
    prs = poly.prs_resultant

    def spy(f, g):
        rings.append({type(c) for c in f + g})
        return prs(f, g)

    monkeypatch.setattr(poly, "prs_resultant", spy)
    resultant_y(rand_poly(rng, dens=PRIMES), rand_poly(rng))
    resultant_y(sqrt6_poly(rng), rand_poly(rng))
    assert rings == [{ZX}, {BP}]


def test_zx_exact_division():
    a, b = ZX([3, -2, 0, 5]), ZX([-7, 1, 4])
    assert (a * b).exact_div(b) == a and (a * b).exact_div(a) == b
    # a remainder, a quotient outside Z[x], a divisor of higher degree
    for num, den in ((a * b - ZX([1])), b), (ZX([0, 1]), ZX([0, 2])), (b, a):
        with pytest.raises(ArithmeticError):
            num.exact_div(den)
    # divisors whose zero coefficients the update skips: interior zeros, and
    # a monomial, where only the final remainder check sees a low term
    for d in ZX([2, 0, 0, 0, -3, 0, 1]), ZX([0, 0, 0, 5]):
        assert (a * d).exact_div(d) == a
        with pytest.raises(ArithmeticError):
            (a * d - ZX([0, 1])).exact_div(d)


def test_resultant_multiplicative(rng):
    done = 0
    while done < 25:
        a, b, c = (rand_poly(rng, terms=5, deg=3, height=8) for _ in range(3))
        if min(a.degree_y(), b.degree_y(), c.degree_y()) <= 0:
            continue
        assert resultant_y(a, b * c) == resultant_y(a, b) * resultant_y(a, c)
        done += 1


def test_rejects_y_degree_zero_in_both():
    with pytest.raises(ValueError):
        resultant_y(BP({(2, 0): F(1)}), BP({(5, 0): F(3)}))


def test_prs_resultant_rejects_zero_input():
    # zero rows of either coefficient ring, in either position
    line = [ZX([0, 1]), ZX([1])]
    for f, g in (([], line), (line, [ZX()]), ([BP()], [BP.one(), BP.one()])):
        with pytest.raises(ValueError):
            poly.prs_resultant(f, g)
        with pytest.raises(ValueError):
            poly.prs_resultant(g, f)


def test_resultant_detects_common_factor():
    # Res_y vanishes exactly when f and g share a factor of positive
    # y-degree, over Q and over a tower alike
    p = BP({(0, 1): F(1), (1, 0): F(-1)})  # y - x
    f = p * BP({(0, 1): F(1), (2, 0): F(1)})
    g = p * BP({(0, 1): F(1), (3, 0): F(-2)})
    assert not resultant_y(f, g)
    assert resultant_y(f, BP({(0, 1): F(1), (5, 0): F(1)}))
    q = BP({(0, 1): F(1), (1, 0): SQRT6})  # y + sqrt6 x
    assert not resultant_y(q * f, q * BP({(0, 2): F(1), (3, 0): F(1)}))
    assert resultant_y(q * f, BP({(0, 1): F(1), (5, 0): SQRT6}))


def test_exact_div_and_shift():
    a = BP({(0, 1): F(2), (1, 0): F(3)})
    b = BP({(2, 2): F(1), (0, 1): F(-5)})
    prod = a * b
    assert prod.exact_div(a) == b and prod.exact_div(b) == a
    with pytest.raises(ArithmeticError):
        (prod + BP({(0, 0): F(1)})).exact_div(a)
    f = BP({(0, 2): F(1), (3, 0): F(-1)})
    g = shift_y(f, F(1, 2))  # y -> y + x/2
    assert g.terms[(2, 0)] == F(1, 4)
    h = f.shift_x(F(2))  # x -> x + 2y
    assert h.terms[(0, 3)] == F(-8)


def test_strip_axis_powers():
    f = BP({(2, 1): F(1), (3, 2): F(4)})
    p, g = f.strip_x_power()
    assert p == 2
    q, h = g.strip_y_power()
    assert q == 1
    assert h.support() == [(0, 0), (1, 1)]
