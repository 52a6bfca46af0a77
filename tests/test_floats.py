"""The exactly rounded multiply-add against an exact rational oracle."""

import math
import random
from fractions import Fraction

import pytest

from spinsphere.floats import fma


def oracle(a, b, c):
    """a * b + c rounded once, for finite operands: exact rationals, then
    one correct rounding (int / int true division rounds to nearest,
    subnormals included)."""
    exact = Fraction(a) * Fraction(b) + Fraction(c)
    if abs(exact) >= 2**1024 - 2**970:  # rounds past the largest float
        return math.inf if exact > 0 else -math.inf
    if exact == 0:
        # An exact zero is -0 only when both addends are -0.
        product_negative = math.copysign(1.0, a) * math.copysign(1.0, b) < 0
        return -0.0 if product_negative and math.copysign(1.0, c) < 0 else 0.0
    return float(exact)


def same(x, y):
    return math.copysign(1.0, x) == math.copysign(1.0, y) and x == y


def test_random_operands_match_the_oracle():
    rng = random.Random(2024)
    for _ in range(20_000):
        a = rng.uniform(-4.0, 4.0) * 2.0 ** rng.randint(-40, 40)
        b = rng.uniform(-4.0, 4.0) * 2.0 ** rng.randint(-40, 40)
        # Mostly a c that nearly cancels a * b, where one rounding matters most.
        c = -(a * b) * (1.0 + rng.uniform(-1e-6, 1e-6)) if rng.random() < 0.7 else (
            rng.uniform(-4.0, 4.0) * 2.0 ** rng.randint(-90, 90))
        assert same(fma(a, b, c), oracle(a, b, c)), (a, b, c)


def test_operands_over_the_whole_exponent_range_match_the_oracle():
    # Crosses the bounds of Dekker's range on both sides.
    rng = random.Random(7)
    for _ in range(20_000):
        ea = rng.randint(-1000, 1023)
        eb = min(max(rng.randint(-1100, 1030) - ea, -1074), 1023)
        a = math.ldexp(rng.uniform(-1.0, 1.0), ea)
        b = math.ldexp(rng.uniform(-1.0, 1.0), eb)
        c = math.ldexp(rng.uniform(-1.0, 1.0), rng.randint(-1074, 1024))
        if rng.random() < 0.5 and math.isfinite(a * b):
            c = -(a * b)
        assert same(fma(a, b, c), oracle(a, b, c)), (a, b, c)


def test_fma_differs_from_two_roundings():
    # (1 + 2^-30)^2 - 1 keeps its 2^-60 term only when rounded once.
    x = 1.0 + 2.0**-30
    assert fma(x, x, -1.0) == 2.0**-29 + 2.0**-60
    assert x * x - 1.0 == 2.0**-29


@pytest.mark.parametrize("a, b", [(0.0, 1.5), (-0.0, 1.5), (0.0, -1.5), (-0.0, -1.5),
                                  (1.5, 0.0), (2.0**1000, -0.0), (0.0, 0.0)])
@pytest.mark.parametrize("c", [0.0, -0.0, 0.75, -2.0**-1074])
def test_zero_factor_and_signed_zeros(a, b, c):
    assert same(fma(a, b, c), oracle(a, b, c))


def test_exact_cancellation_is_positive_zero():
    a, b = 0.1, 3.0
    assert same(fma(a, b, -(a * b)), oracle(a, b, -(a * b)))
    assert fma(a, b, -(a * b)) != 0.0  # the product's rounding error remains
    assert same(fma(0.5, 4.0, -2.0), 0.0)


@pytest.mark.parametrize("a, b, c", [
    (2.0**-540, 3.0 * 2.0**-530, 0.0),  # the product is subnormal
    (2.0**-540, -(1.0 + 2.0**-52) * 2.0**-530, 2.0**-1070),
    (1.0 + 2.0**-52, 2.0**-1000, -(2.0**-1000)),  # the result is subnormal
    (2.0**-600, 2.0**-600, 1.0),  # the product underflows to 0
    (2.0**-600, -(2.0**-600), -0.0),
])
def test_tiny_products(a, b, c):
    assert same(fma(a, b, c), oracle(a, b, c))


@pytest.mark.parametrize("a, b, c", [
    (2.0**990 * (1.0 + 2.0**-52), 1.0 + 2.0**-51, -(2.0**990)),
    (2.0**991, 1.0 + 2.0**-52, 1.0),
    (2.0**1000, 2.0**-20 * (1.0 + 2.0**-52), -(2.0**980)),  # a factor too large to split
    (1.0 + 2.0**-52, 2.0**1023, 2.0**1023),  # overflows to infinity
    (2.0**989 * (1.0 + 2.0**-52), 1.0 + 2.0**-52, 1.7976931348623157e308),  # so does the sum
    (-(2.0**600), 2.0**600, 1.0),
    (2.0**512, 2.0**512, -1.7976931348623157e308),  # the product overflows, the sum not
    # a's high half rounds up to 2**512, so a_hi * a_hi would overflow.
    ((2.0 - 2.0**-52) * 2.0**511, (2.0 - 2.0**-52) * 2.0**511, -1.7976931348623157e308),
])
def test_operands_near_the_top_of_the_range(a, b, c):
    assert same(fma(a, b, c), oracle(a, b, c))


def test_non_finite_operands_propagate():
    assert fma(math.inf, 2.0, 1.0) == math.inf
    assert math.isnan(fma(math.inf, 0.0, 1.0))
    assert math.isnan(fma(math.nan, 1.0, 1.0))
    assert fma(3.0, 2.0, -math.inf) == -math.inf
    assert math.isnan(fma(1.5, 2.5, math.nan))
