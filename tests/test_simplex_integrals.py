import itertools
from fractions import Fraction
from math import comb, factorial

import pytest

from oracles import monomial_integral, triple_integral


def iterated_integral_oracle(l: int, m: int, n: int) -> Fraction:
    """int_{T_o} x^l y^m z^n by iterated exact antiderivatives.

    Inner z-integral gives (1-x-y)^(n+1)/(n+1); expanding binomially in y and
    then in x reduces everything to rational sums 1/(k+1), with no factorial
    closed form anywhere.
    """
    # int_0^{1-x} y^m (1-x-y)^(n+1) dy  =  (1-x)^(m+n+2) * S1
    s1 = Fraction(0)
    for j in range(n + 2):
        s1 += Fraction((-1) ** j * comb(n + 1, j), m + j + 1)
    # int_0^1 x^l (1-x)^(m+n+2) dx  =  S2
    s2 = Fraction(0)
    for i in range(m + n + 3):
        s2 += Fraction((-1) ** i * comb(m + n + 2, i), l + i + 1)
    return s1 * s2 / (n + 1)


def test_volume_of_standard_tetrahedron():
    assert monomial_integral(0, 0, 0) == Fraction(1, 6)


def test_closed_form_examples():
    assert monomial_integral(1, 1, 1) == Fraction(1, 720)
    assert monomial_integral(2, 0, 0) == Fraction(1, 60)


def test_against_iterated_oracle_up_to_degree_6():
    for l in range(7):
        for m in range(7):
            for n in range(7):
                assert monomial_integral(l, m, n) == iterated_integral_oracle(l, m, n), (l, m, n)


def test_symmetry_in_exponents():
    for exps in [(0, 1, 4), (2, 3, 1), (5, 0, 2)]:
        vals = {monomial_integral(*p) for p in itertools.permutations(exps)}
        assert len(vals) == 1


def test_denominator_divides_factorial():
    for l, m, n in [(1, 2, 3), (4, 4, 4), (0, 0, 7)]:
        v = monomial_integral(l, m, n)
        assert factorial(l + m + n + 3) % v.denominator == 0


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        monomial_integral(-1, 0, 0)


def test_triple_integral_factorizes():
    assert triple_integral((0,) * 9) == Fraction(1, 216)
    assert triple_integral((1, 0, 0, 0, 0, 0, 0, 0, 0)) == Fraction(1, 864)
    assert triple_integral((1, 1, 1) * 3) == Fraction(1, 720) ** 3


def test_triple_integral_needs_nine_exponents():
    with pytest.raises(ValueError):
        triple_integral((1, 2, 3))
