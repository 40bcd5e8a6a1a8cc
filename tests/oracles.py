"""Pieces of the literal composition sum behind the explicit even-moment
formula, kept beside the tests as an oracle for `even_moment_direct`.

The direct enumerator walks the compositions of 2k into 18 parts
incrementally; the tests rebuild the same sum term by term from these
pieces: every composition, its abbreviations (sign parity, power of 3,
exponent vector) and the closed-form monomial integrals over the standard
tetrahedron T_o = {x, y, z >= 0, x + y + z <= 1}, which has volume 1/6:

    int_{T_o} x^l y^m z^n dV = l! m! n! / (l + m + n + 3)!
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import factorial
from typing import Iterator, NamedTuple, Sequence

from tetravol.moments import _TERM_CUBIC, _TERM_EXPS, _TERM_NEGATIVE

Exponent3 = tuple[int, int, int]


# ---------------------------------------------------------------------------
# composition enumeration and the printed abbreviation map
# ---------------------------------------------------------------------------

class Abbreviations(NamedTuple):
    """Derived quantities of one composition (k_1..k_18) of 2k."""

    k_prime: int                 # parity source of the sign
    k_double_prime: int          # count of cubic-term picks (power of 3)
    exponents: tuple[int, ...]   # (l1, m1, n1, l2, m2, n2, l3, m3, n3)


def abbreviations(composition: Sequence[int]) -> Abbreviations:
    """Apply the fixed linear map from a composition to its abbreviations."""
    if len(composition) != 18:
        raise ValueError(f"composition must have 18 parts, got {len(composition)}")
    kp = 0
    kpp = 0
    exps = [0] * 9
    for c, neg, cub, inc in zip(composition, _TERM_NEGATIVE, _TERM_CUBIC, _TERM_EXPS):
        if neg:
            kp += c
        if cub:
            kpp += c
        if c:
            for i in range(9):
                exps[i] += inc[i] * c
    return Abbreviations(kp, kpp, tuple(exps))


def enumerate_compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All compositions of `total` into `parts` nonnegative parts.

    Lexicographic order: (0, ..., 0, total) first.
    """
    if parts <= 0:
        raise ValueError("parts must be positive")
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in enumerate_compositions(total - first, parts - 1):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# monomial integrals over the standard tetrahedron
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _integral_sorted(key: Exponent3) -> Fraction:
    l, m, n = key
    return Fraction(factorial(l) * factorial(m) * factorial(n),
                    factorial(l + m + n + 3))


def monomial_integral(l: int, m: int, n: int) -> Fraction:
    """int_{T_o} x^l y^m z^n dV, exact.

    Symmetric in (l, m, n); cached on the sorted exponent triple because the
    oracle requests few distinct values an enormous number of times.
    """
    if l < 0 or m < 0 or n < 0:
        raise ValueError(f"negative exponent in ({l}, {m}, {n})")
    return _integral_sorted(tuple(sorted((l, m, n))))


def triple_integral(exponents: Sequence[int]) -> Fraction:
    """Integral over T_o^3 of a 9-variable monomial.

    `exponents` is (l1, m1, n1, l2, m2, n2, l3, m3, n3); the integral
    factorizes into one monomial integral per point.
    """
    if len(exponents) != 9:
        raise ValueError(f"need 9 exponents, got {len(exponents)}")
    out = Fraction(1)
    for i in (0, 3, 6):
        out *= monomial_integral(exponents[i], exponents[i + 1], exponents[i + 2])
    return out
