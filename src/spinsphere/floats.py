"""Exactly rounded fused multiply-add on Python floats.

The integrators step plain Python floats, but their pinned outputs carry
the roundings of the numpy and BLAS calls they replaced, and those round
dot products and complex products with fused multiply-adds.  Python 3.10
to 3.12 have no `math.fma`, so `fma` computes it: Veltkamp/Dekker
splitting gives the product's rounding error exactly, and `math.fsum`
rounds the exact three-term sum once.

When a factor is 0, inf or nan, `fma` returns a * b + c itself, so a
caller may write that expression without the call.  The RK4 step
(`evolution.integrate_numeric`) does so for the terms whose generator
entry has real part +-0 or nan: the diagonal ones, and the off-diagonal
ones when B_y = 0.
"""

from __future__ import annotations

import math
from fractions import Fraction

_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant
# Dekker's product error is exact for |a*b| in [2**-960, 2**990] and for
# factors whose split cannot overflow; everything else goes through Fraction.
_TINY = 2.0**-960
_HUGE = 2.0**990
_BIG = 2.0**995


def fma(a: float, b: float, c: float) -> float:
    """a * b + c rounded once to nearest, as C's fma."""
    p = a * b
    if _TINY < abs(p) < _HUGE and -_BIG < a < _BIG and -_BIG < b < _BIG:
        t = _SPLIT * a
        a_hi = t - (t - a)
        a_lo = a - a_hi
        t = _SPLIT * b
        b_hi = t - (t - b)
        b_lo = b - b_hi
        err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
        if not err:
            return p + c
        try:
            return math.fsum((p, err, c))
        except OverflowError:  # the sum overflows; round it exactly below
            pass
    elif a == 0.0 or b == 0.0:
        return p + c
    return _fma_rational(a, b, c)


def _fma_rational(a: float, b: float, c: float) -> float:
    """fma through exact rationals, for operands outside Dekker's range."""
    if not (math.isfinite(a) and math.isfinite(b)):
        return a * b + c
    if not math.isfinite(c):
        return c
    exact = Fraction(a) * Fraction(b) + Fraction(c)
    try:
        return float(exact)
    except OverflowError:
        return math.inf if exact > 0 else -math.inf
