"""Bivariate polynomials: resultants by subresultant PRS against the
Sylvester-determinant oracle, multiplicativity, and ring operations."""

from fractions import Fraction as F

import pytest

from branchpolar import poly
from branchpolar.families import SQRT6
from branchpolar.poly import (
    ZX,
    BivariatePolynomial as BP,
    resultant_y,
)
from oracles import shift_y, sylvester_resultant_y

PRIMES = (10007, 10009, 10037, 99991, 1000003, 1000033)


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
    for _ in range(6):
        yield "sqrt6", sqrt6_poly(rng), sqrt6_poly(rng)


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
        if a.is_zero or b.is_zero:
            continue
        if a.degree_y() <= 0 and b.degree_y() <= 0:
            continue
        res = resultant_y(a, b)
        assert res == sylvester_resultant_y(a, b), kind
        if kind == "common factor":
            assert res.is_zero
        assert resultant_y(b, a) == res * BP.constant(F((-1) ** (a.degree_y() * b.degree_y())))
        checked[kind] = checked.get(kind, 0) + 1
    assert checked["integer"] > 150
    assert min(checked.values()) >= 5 and len(checked) == 5


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
    assert resultant_y(f, g).is_zero
    assert not resultant_y(f, BP({(0, 1): F(1), (5, 0): F(1)})).is_zero
    q = BP({(0, 1): F(1), (1, 0): SQRT6})  # y + sqrt6 x
    assert resultant_y(q * f, q * BP({(0, 2): F(1), (3, 0): F(1)})).is_zero
    assert not resultant_y(q * f, BP({(0, 1): F(1), (5, 0): SQRT6})).is_zero


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
