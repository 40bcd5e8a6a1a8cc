"""Exact scalar layer: big integers, rationals, and rational enclosures.

Big integers are Python ints, rationals are `fractions.Fraction` (always
reduced, positive denominator).  On top of those this module provides a
rigorous rational enclosure of the comparison constant 13/720 - pi^2/15015,
the expected volume of a fully random simplex in a unit-volume tetrahedron
(Klee's problem), exact decimals, and rationals as integers over one lcm.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

#: expected volume of the simplex of four uniform points in a unit-volume
#: tetrahedron equals 13/720 - pi^2/15015; the rational part is exact, the
#: pi^2 part is enclosed by `pi_squared_enclosure`.
TARGET_RATIONAL_PART = Fraction(13, 720)
TARGET_PI2_DIVISOR = 15015


def _integer_numerators(xs: Sequence[Fraction | int]) -> tuple[list[int], int]:
    """(nums, den) with x_i = nums[i] / den for every x_i of xs, den the lcm
    of their denominators: a rational polynomial or sum on integers."""
    den = lcm(*(x.denominator for x in xs))
    return [x.numerator * (den // x.denominator) for x in xs], den


@dataclass(frozen=True)
class RationalInterval:
    """Closed interval [lo, hi] with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty interval: {self.lo} > {self.hi}")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo


def _atan_inv_interval(x: int, eps: Fraction) -> RationalInterval:
    """Enclosure of arctan(1/x) for integer x >= 2, to absolute width <= eps.

    The Leibniz series arctan(1/x) = sum_j (-1)^j / ((2j+1) x^(2j+1)) is
    alternating with strictly decreasing terms, so consecutive partial sums
    bracket the limit.
    """
    s = Fraction(0)
    prev = None
    j = 0
    while True:
        term = Fraction((-1) ** j, (2 * j + 1) * x ** (2 * j + 1))
        prev = s
        s += term
        j += 1
        if abs(s - prev) <= eps and j >= 2:
            break
    lo, hi = (s, prev) if s < prev else (prev, s)
    return RationalInterval(lo, hi)


def pi_squared_enclosure() -> RationalInterval:
    """Rational interval of width <= 10^-12 provably containing pi^2.

    Uses Machin's identity pi/4 = 4 arctan(1/5) - arctan(1/239) with
    alternating-series tail bounds; every step is exact rational arithmetic.
    """
    eps = Fraction(1, 10**16)
    a5 = _atan_inv_interval(5, eps)
    a239 = _atan_inv_interval(239, eps)
    pi_lo = 4 * (4 * a5.lo - a239.hi)
    pi_hi = 4 * (4 * a5.hi - a239.lo)
    assert 3 < pi_lo < pi_hi < 4
    out = RationalInterval(pi_lo * pi_lo, pi_hi * pi_hi)
    assert out.width <= Fraction(1, 10**12)
    return out


@functools.cache
def target_enclosure() -> RationalInterval:
    """Rational enclosure of 13/720 - pi^2/15015, computed once per process
    (every certificate's target, margin and verdict reads it).

    Orientation flip: the lower endpoint uses the upper pi^2 bound, so a
    strict comparison `bound < target_enclosure().lo` is rigorous.
    """
    pi2 = pi_squared_enclosure()
    return RationalInterval(
        TARGET_RATIONAL_PART - pi2.hi / TARGET_PI2_DIVISOR,
        TARGET_RATIONAL_PART - pi2.lo / TARGET_PI2_DIVISOR,
    )


def fraction_to_decimal(x: Fraction, digits: int = 20) -> str:
    """Exact decimal expansion of x truncated to `digits` fractional digits."""
    sign = "-" if x < 0 else ""
    x = abs(x)
    whole, rem = divmod(x.numerator, x.denominator)
    frac = rem * 10**digits // x.denominator
    return f"{sign}{whole}.{frac:0{digits}d}"
