"""Truncated series: validity-order bookkeeping and the refusal to guess."""

import tracemalloc
from fractions import Fraction as F

import pytest

from branchpolar.errors import PrecisionError
from branchpolar.poly import BivariatePolynomial as BP
from branchpolar.series import TruncatedSeries as TS, evaluate_bivariate
from oracles import PRIMES, series_product


def test_order_of_products_adds(rng):
    for _ in range(50):
        o1, o2 = rng.randint(0, 6), rng.randint(0, 6)
        t1, t2 = rng.randint(o1 + 1, 20), rng.randint(o2 + 1, 20)
        s1 = TS({o1: F(rng.randint(1, 5)), o1 + 1: F(rng.randint(-3, 3))}, t1)
        s2 = TS({o2: F(rng.randint(1, 5))}, t2)
        prod = s1 * s2
        if prod.trunc is not None and o1 + o2 < prod.trunc:
            assert prod.order() == o1 + o2


def test_zero_mod_truncation_refuses_order():
    s = TS({}, 7)
    with pytest.raises(PrecisionError):
        s.order()
    assert TS({}, None).order() is None  # exact zero has no order


def test_truncation_of_sum_and_product():
    a = TS({1: F(1)}, 10)
    b = TS({2: F(1)}, None)
    assert (a + b).trunc == 10
    assert (a * b).trunc == 12  # error enters at ord(b) + trunc(a)


def test_inverse_is_reciprocal():
    s = TS({0: F(2), 1: F(1), 3: F(-4)})
    inv = s.inverse(12)
    assert (s * inv).truncate(12) == TS({0: F(1)}, 12)


def test_derivative_lowers_truncation():
    s = TS({3: F(5)}, 9)
    d = s.derivative()
    assert d.trunc == 8 and d.terms == {2: F(15)}


def test_evaluate_bivariate_exact_vanishing():
    f = BP({(0, 2): F(1), (3, 0): F(-1)})
    out = evaluate_bivariate(f, 2, TS({3: F(1)}))
    assert out.is_exact_zero


def test_evaluate_bivariate_large_x_power():
    # one exponent shift per x-power: no power cache, no recursion on 5000
    f = BP({(0, 1): F(1), (5000, 0): F(-1)})
    assert evaluate_bivariate(f, 1, TS({5000: F(1)})).is_exact_zero


def test_stretch_scales_exponents_and_trunc():
    s = TS({2: F(1), 3: F(2)}, 5)
    st = s.stretch(3)
    assert st.terms == {6: F(1), 9: F(2)}
    assert st.trunc == 3 * 4 + 1


def _rand_series(rng, trunc):
    dens = rng.choice(((1,), (1, 2, 3, 4), PRIMES))
    terms = {
        rng.randint(0, 12): F(rng.randint(-10**6, 10**6), rng.choice(dens))
        for _ in range(rng.randint(1, 6))
    }
    return TS(terms, trunc)


def _product_as_pair_loop(a, b):
    p = a * b
    assert (p.terms, p.trunc) == series_product(a, b)
    assert all(type(c) is F for c in p.terms.values())
    return p


def test_rational_product_matches_pair_loop(rng):
    # the common-denominator product against the generic pair loop: exact and
    # truncated operands on either side
    for ta, tb in ((None, None), (None, 9), (7, None), (5, 11), (14, 3)):
        for _ in range(20):
            _product_as_pair_loop(_rand_series(rng, ta), _rand_series(rng, tb))
    # interior exponents that cancel: (1 + t + t^2)(1 - t) = 1 - t^3
    c = F(1, 10007)
    p = _product_as_pair_loop(TS({0: c, 1: c, 2: c}), TS({0: F(3), 1: F(-3)}))
    assert p.terms == {0: F(3, 10007), 3: F(-3, 10007)}
    # the lowest term of a product of stored terms survives, so a product
    # has no terms only when an operand is zero modulo its truncation
    p = _product_as_pair_loop(TS({}, 4), TS({2: F(5, 99991)}))
    assert p.terms == {} and p.trunc == 6
    p = _product_as_pair_loop(TS({1: F(2, 3)}, 6), TS({}, 4))
    assert p.terms == {} and p.trunc == 5


def test_product_is_not_sized_by_exponents():
    a = TS({0: F(1, 3), 10**6: F(2, 7)})
    b = TS({0: F(5), 10**6: F(-1, 1000003)}, 3 * 10**6)
    tracemalloc.start()
    try:
        p = a * b
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert p.terms == series_product(a, b)[0] and len(p.terms) == 3
    assert p.trunc == 3 * 10**6 and peak < 10**5
