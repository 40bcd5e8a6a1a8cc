import math
from fractions import Fraction
from math import gcd

import pytest

from tetravol.rational import (
    RationalInterval,
    factorial,
    fraction_to_decimal,
    pi_squared_enclosure,
    target_enclosure,
)


def test_factorial_base_cases():
    assert factorial(0) == 1
    assert factorial(1) == 1
    assert factorial(6) == 720


def test_factorial_recurrence_up_to_200():
    # iterative-product oracle
    acc = 1
    for n in range(1, 201):
        acc *= n
        assert factorial(n) == acc
        assert factorial(n) == n * factorial(n - 1)
    assert len(str(factorial(81))) == 121


def test_factorial_rejects_negative():
    with pytest.raises(ValueError):
        factorial(-1)


def test_pi_squared_enclosure():
    enc = pi_squared_enclosure()
    assert Fraction("9.8696") < enc.lo < enc.hi < Fraction("9.8697")
    assert enc.hi - enc.lo <= Fraction(1, 10**12)
    # independent high-precision value of pi^2
    assert abs(enc.midpoint - Fraction("9.869604401089358")) < Fraction(1, 10**12)


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
    iv = RationalInterval(Fraction(1, 3), Fraction(1, 2))
    assert Fraction(2, 5) in iv
    assert Fraction(3, 5) not in iv


def test_fraction_to_decimal():
    assert fraction_to_decimal(Fraction(1, 8), 5) == "0.12500"
    assert fraction_to_decimal(Fraction(-1, 3), 6) == "-0.333333"
    assert fraction_to_decimal(Fraction(2009, 12000), 7) == "0.1674166"


def test_pi_digits_against_math_pi():
    enc = pi_squared_enclosure()
    assert abs(float(enc.midpoint) - math.pi**2) < 1e-12
