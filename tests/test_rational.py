import math
from fractions import Fraction
from math import gcd

import pytest

from tetravol.rational import (
    RationalInterval,
    fraction_to_decimal,
    pi_squared_enclosure,
    target_enclosure,
)

from oracles import REFERENCE_BOUND, basel_pi_squared


def test_pi_squared_enclosure():
    enc = pi_squared_enclosure()
    assert Fraction("9.8696") < enc.lo < enc.hi < Fraction("9.8697")
    assert enc.hi - enc.lo <= Fraction(1, 10**12)
    # independent high-precision value of pi^2
    assert abs((enc.lo + enc.hi) / 2 - Fraction("9.869604401089358")) < Fraction(1, 10**12)


def test_pi_squared_reduced_form():
    enc = pi_squared_enclosure()
    for v in (enc.lo, enc.hi):
        assert gcd(v.numerator, v.denominator) == 1
        assert v.denominator > 0


def test_target_enclosure_value_and_width():
    t = target_enclosure()
    assert Fraction("0.01739") < t.lo < t.hi < Fraction("0.01740")
    assert t.width <= Fraction(1, 10**12) / 15015
    # 0.01739... decimal prefix
    assert fraction_to_decimal(t.lo, 5).startswith("0.01739")


def test_target_enclosure_orientation():
    # plugging the coarse pi^2 brackets must bracket target.lo from the
    # correct sides: lo uses the *upper* pi^2 bound
    t = target_enclosure()
    coarse_hi = Fraction(13, 720) - Fraction("9.8696") / 15015
    coarse_lo = Fraction(13, 720) - Fraction("9.8697") / 15015
    assert not (t.lo < coarse_lo)
    assert t.lo > coarse_lo
    assert t.lo < coarse_hi


def test_interval_invariant():
    with pytest.raises(ValueError):
        RationalInterval(Fraction(1), Fraction(0))


def test_fraction_to_decimal():
    assert fraction_to_decimal(Fraction(1, 8), 5) == "0.12500"
    assert fraction_to_decimal(Fraction(-1, 3), 6) == "-0.333333"
    assert fraction_to_decimal(Fraction(2009, 12000), 7) == "0.1674166"


def test_pi_digits_against_math_pi():
    enc = pi_squared_enclosure()
    assert abs(float((enc.lo + enc.hi) / 2) - math.pi**2) < 1e-12


def test_the_target_agrees_with_the_basel_enclosure():
    """pi^2 by another series, in the oracle's own arithmetic: Machin's
    enclosure lies inside Basel's at n = 300, the two enclosures of
    13/720 - pi^2/15015 overlap, Basel's (4.4e-9 wide) is no tighter, and
    the reference certificate's bound (1.91e-5 below) lies under its lo."""
    basel_lo, basel_hi = basel_pi_squared(300)
    pi2 = pi_squared_enclosure()
    assert basel_lo <= pi2.lo <= pi2.hi <= basel_hi
    basel = RationalInterval(Fraction(13, 720) - basel_hi / 15015,
                             Fraction(13, 720) - basel_lo / 15015)
    target = target_enclosure()
    assert max(basel.lo, target.lo) <= min(basel.hi, target.hi)
    assert basel.width >= target.width
    assert REFERENCE_BOUND < basel.lo
