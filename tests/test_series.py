"""Truncated series: validity-order bookkeeping and the refusal to guess."""

from fractions import Fraction as F

import pytest

from branchpolar.errors import PrecisionError
from branchpolar.poly import BivariatePolynomial as BP
from branchpolar.series import TruncatedSeries as TS, evaluate_bivariate


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
