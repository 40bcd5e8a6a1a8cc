"""The paper's explicit even-moment formula, kept beside the tests as an
oracle for the library's two moment routes.

The paper expands the determinant polynomial D in the uncentred coordinates
x, y, z, where 3D has 18 signed terms (`TERMS_3D`), and sums closed-form
integrals over every composition of 2k into 18 parts.  `even_moment_18`
walks those compositions incrementally; the tests also rebuild the same sum
term by term from the pieces below: every composition, its abbreviations
(sign parity, power of 3, exponent vector) and the closed-form monomial
integrals over the standard tetrahedron
T_o = {x, y, z >= 0, x + y + z <= 1}, which has volume 1/6:

    int_{T_o} x^l y^m z^n dV = l! m! n! / (l + m + n + 3)!

The module also keeps the `Fraction` forms of the certificate's exact
layers as references for the library's integer ones: the Newton-basis
expansion of the Hermite majorant (`hermite_coefficients_newton`), the
bound E P(V) as a term-by-term sum (`expected_value_fraction`) and the
dominance proof by long division of P(x) - x by prod_j (x - x_j)^2
(`verify_dominance_long_division`), whose quotient's roots it counts on its
own classical Sturm sequence over the rationals
(`sturm_root_count_fraction`), not on the library's integer chain, and the
helpers that evaluate P and P' on their coefficients in x
(`x_coefficients`, `poly_derivative`).

For the fast moment route it keeps the triple sum over each z-degree split
(`even_moment_triple`, with `split_sum_triple`) and its centred-integral
table summed over p and q (`centred_integrals_pq`), which cost about k^5
and k^4 per order, and each split's kernel expanded from scratch
(`product_kernel`): the references for the library's double sum over a
stepped kernel and its O(k^3) table.

For the Gauss-node search it keeps the bisection of each root over the
rationals (`roots_bisection`), with a `Fraction` midpoint at every step
and its own signs of the Sturm sequence: the reference for the library's
bisection on integer cells.

For the bound machinery as a whole it keeps laws of t = x^2 on [0, 1/9]
whose moments E t^k and mean E sqrt(t) are exact rationals (`Law`): three
continuous ones (`CONTINUOUS_LAWS`) and seeded laws of n rational atoms in
(0, 1/3) (`atom_law`), on which the n-point Gauss rule is exact.

For the Monte Carlo cross-check it keeps the whole-block sample kernel
(`block_sums_slice`), the reference for the library's chunked one, and the
vertices of the unit-volume body (`UNIT_TETRA_VERTICES`) and the volume of
a tetrahedron (`tetra_volume`) for the statistical checks of the samples.

The paper's published seven nodes (`REFERENCE_NODES`) are read from the
`nodes:` line of the golden reference certificate, which defines them.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from math import comb, factorial, gcd, lcm
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

Exponent3 = tuple[int, int, int]

#: the published seven-node set whose certificate reproduces the bound
#: 0.0173791..., as the golden reference certificate states it
REFERENCE_NODES = next(
    tuple(Fraction(token) for token in line.split()[1:])
    for line in (Path(__file__).resolve().parents[1] / "perfbench" / "golden"
                 / "reference-certificate.txt").read_text().splitlines()
    if line.startswith("nodes: "))

#: variable order of the exponent 9-tuple (l1, m1, n1, l2, m2, n2, l3, m3, n3)
VAR_NAMES = ("x1", "y1", "z1", "x2", "y2", "z2", "x3", "y3", "z3")
_VAR_INDEX = {v: i for i, v in enumerate(VAR_NAMES)}

#: the 18 signed terms of 3*D, in the determinant-expansion order
TERMS_3D: tuple[tuple[int, tuple[str, ...]], ...] = (
    (+1, ("x1", "z2")),
    (-1, ("x1", "z3")),
    (-1, ("x2", "z1")),
    (+1, ("x2", "z3")),
    (+1, ("x3", "z1")),
    (-1, ("x3", "z2")),
    (-1, ("y1", "z2")),
    (+1, ("y1", "z3")),
    (+1, ("y2", "z1")),
    (-1, ("y2", "z3")),
    (-1, ("y3", "z1")),
    (+1, ("y3", "z2")),
    (+3, ("x1", "y2", "z3")),
    (-3, ("x1", "y3", "z2")),
    (-3, ("x2", "y1", "z3")),
    (+3, ("x2", "y3", "z1")),
    (+3, ("x3", "y1", "z2")),
    (-3, ("x3", "y2", "z1")),
)


def _term_exponents(vars_: tuple[str, ...]) -> tuple[int, ...]:
    e = [0] * 9
    for v in vars_:
        e[_VAR_INDEX[v]] += 1
    return tuple(e)


_TERM_EXPS = tuple(_term_exponents(vs) for _, vs in TERMS_3D)
_TERM_NEGATIVE = tuple(c < 0 for c, _ in TERMS_3D)
_TERM_CUBIC = tuple(abs(c) == 3 for c, _ in TERMS_3D)


def composition_count(k: int) -> int:
    """Number of compositions of 2k into 18 parts: C(2k+17, 17)."""
    return comb(2 * k + 17, 17)


def even_moment_18(k: int) -> Fraction:
    """E V^(2k) by direct summation over all compositions of 2k into 18 parts.

    The recursion walks the composition tree once, carrying the multinomial
    coefficient, the sign/power-of-3 counters and the exponent vector
    incrementally; each leaf costs a handful of integer multiplies.  The
    denominators (l+m+n+3)! all divide (2k+3)!, so the whole sum accumulates
    over the common denominator ((2k+3)!)^3 in pure integer arithmetic.  The
    count C(2k+17, 17) explodes: k = 5 walks 8.4M compositions (~40 s) and
    k = 6 51.9M.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n2k = 2 * k
    fact = [factorial(i) for i in range(n2k + 4)]
    big = fact[n2k + 3]
    ratio = [big // fact[s + 3] for s in range(n2k + 1)]
    exps = [0] * 9
    total = 0

    def leaf(c: int, mult: int, kp: int, kpp: int, acc: int) -> None:
        nonlocal total
        mult *= comb(acc + c, c)
        if _TERM_NEGATIVE[17] and c % 2:
            kp += 1
        if _TERM_CUBIC[17]:
            kpp += c
        inc = _TERM_EXPS[17]
        for i in range(9):
            exps[i] += inc[i] * c
        l1, m1, n1, l2, m2, n2, l3, m3, n3 = exps
        term = (mult * 3 ** kpp
                * fact[l1] * fact[m1] * fact[n1] * ratio[l1 + m1 + n1]
                * fact[l2] * fact[m2] * fact[n2] * ratio[l2 + m2 + n2]
                * fact[l3] * fact[m3] * fact[n3] * ratio[l3 + m3 + n3])
        total += -term if kp % 2 else term
        for i in range(9):
            exps[i] -= inc[i] * c

    def walk(slot: int, rem: int, mult: int, kp: int, kpp: int, acc: int) -> None:
        if slot == 17:
            leaf(rem, mult, kp, kpp, acc)
            return
        neg = _TERM_NEGATIVE[slot]
        cub = _TERM_CUBIC[slot]
        inc = _TERM_EXPS[slot]
        for c in range(rem + 1):
            if c:
                for i in range(9):
                    exps[i] += inc[i]
            walk(slot + 1, rem - c,
                 mult * comb(acc + c, c),
                 kp + (c if neg else 0),
                 kpp + (c if cub else 0),
                 acc + c)
        for i in range(9):
            exps[i] -= inc[i] * rem

    walk(0, n2k, 1, 0, 0, 0)
    # E = 8/3^(2k-3) * total/((2k+3)!)^3 = 216 * total / (3^2k * ((2k+3)!)^3)
    return Fraction(216 * total, 3 ** n2k * big ** 3)


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


# ---------------------------------------------------------------------------
# fast moment route reference: the triple sum per z-degree split
# ---------------------------------------------------------------------------

def centred_integrals_pq(k: int) -> list[list[int]]:
    """J[a][b] = 3^(a+b) (2k+3)! int_{T_o} u^a v^b z^n with n = 2k - a - b.

    u^a = sum_p C(a, p) x^p (-1/3)^(a-p), and likewise v^b, so 3^(a+b) J is
    a signed sum of 3^(p+q) C(a, p) C(b, q) times the monomial integral
    p! q! n! / (p + q + n + 3)!, which (2k+3)! makes an integer.
    """
    n2k = 2 * k
    fact = [factorial(i) for i in range(n2k + 4)]
    big = fact[n2k + 3]
    table = []
    for a in range(n2k + 1):
        xs = [(-1) ** (a - p) * comb(a, p) * 3 ** p * fact[p] for p in range(a + 1)]
        row = []
        for b in range(n2k + 1 - a):
            n = n2k - a - b
            ys = [(-1) ** (b - q) * comb(b, q) * 3 ** q * fact[q] for q in range(b + 1)]
            tail = [big // fact[s + n + 3] for s in range(a + b + 1)]
            row.append(fact[n] * sum(xp * sum(yq * tail[p + q] for q, yq in enumerate(ys))
                                     for p, xp in enumerate(xs)))
        table.append(row)
    return table


def product_kernel(n1: int, n2: int, n3: int) -> list[list[int]]:
    """H[a][s] = [x^a y^s] (1 - x)^n1 (1 - y)^n2 (x - y)^n3, expanded from
    scratch: the reference for the library's kernels built by steps."""
    kernel = [[0] * (n2 + n3 + 1) for _ in range(n1 + n3 + 1)]
    ys = [(-1) ** j * comb(n2, j) for j in range(n2 + 1)]
    for l in range(n3 + 1):
        for i in range(n1 + 1):
            c, row = (-1) ** (i + l) * comb(n3, l) * comb(n1, i), kernel[i + n3 - l]
            for j, y in enumerate(ys):
                row[j + l] += c * y
    return kernel


def split_sum_triple(table: list[list[int]], n1: int, n2: int, n3: int) -> int:
    """Scaled integral of (z1 A1)^n1 (-z2 A2)^n2 (z3 A3)^n3 over T_o^3.

    Expanding A1^n1 over i (u2 v3 picked i times), A2^n2 over j (u1 v3) and
    A3^n3 over l (u1 v2) leaves point 1 with u^(j+l) v^(n2+n3-j-l) z^n1,
    point 2 with u^(i+n3-l) v^(n1-i+l) z^n2 and point 3 with
    u^(n1+n2-i-j) v^(i+j) z^n3, at sign (-1)^(i+j+l+n2).  The result is the
    integral times 3^(4k) ((2k+3)!)^3, the product of the three J scales.
    """
    s1 = [(-1) ** i * comb(n1, i) for i in range(n1 + 1)]
    s2 = [(-1) ** j * comb(n2, j) for j in range(n2 + 1)]
    s3 = [(-1) ** l * comb(n3, l) for l in range(n3 + 1)]
    total = 0
    for i, bi in enumerate(s1):
        for j, bj in enumerate(s2):
            inner = sum(bl * table[j + l][n2 + n3 - j - l] * table[i + n3 - l][n1 - i + l]
                        for l, bl in enumerate(s3))
            total += bi * bj * table[n1 + n2 - i - j][i + j] * inner
    return -total if n2 % 2 else total


def even_moment_triple(k: int) -> Fraction:
    """E V^(2k) by Laplace expansion along z and the binomial theorem.

    Permuting the three points permutes the signed cofactors of the z column
    up to a common sign, which cancels at even total degree, so only the
    z-degree splits n1 >= n2 >= n3 are evaluated, each weighted by its
    multinomial coefficient and its orbit size.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n2k = 2 * k
    table = centred_integrals_pq(k)
    fact = [factorial(i) for i in range(n2k + 4)]
    total = 0
    for n1 in range(n2k, -1, -1):
        for n2 in range(min(n1, n2k - n1), -1, -1):
            n3 = n2k - n1 - n2
            if n3 > n2:
                break
            orbit = 1 if n1 == n3 else 3 if n1 == n2 or n2 == n3 else 6
            weight = orbit * (fact[n2k] // (fact[n1] * fact[n2] * fact[n3]))
            total += weight * split_sum_triple(table, n1, n2, n3)
    return Fraction(216 * total, 3 ** (4 * k) * fact[n2k + 3] ** 3)


# ---------------------------------------------------------------------------
# certificate references: every step in Fraction
# ---------------------------------------------------------------------------

def hermite_coefficients_newton(xs: Sequence[Fraction]) -> list[Fraction]:
    """The even Hermite majorant's coefficients a_0..a_(2m+1) on nodes xs.

    Divided differences of sqrt on the doubled nodes t_j = x_j^2 (slope
    1/(2 x_j) at a repeated node), then the Newton form summed term by term:
    coefficient += newton[j] * prod_{i<j} (t - t_i), with the basis product
    kept as a Fraction list.
    """
    ts, column = [], []
    for x in xs:
        ts.extend((x * x, x * x))
        column.extend((x, x))
    n = len(ts)
    newton = [column[0]]
    for order in range(1, n):
        nxt = []
        for i in range(n - order):
            if ts[i + order] == ts[i]:
                nxt.append(1 / (2 * xs[i // 2]))
            else:
                nxt.append((column[i + 1] - column[i]) / (ts[i + order] - ts[i]))
        column = nxt
        newton.append(column[0])

    coeffs = [Fraction(0)] * n
    basis = [Fraction(1)]
    for j in range(n):
        for i, b in enumerate(basis):
            coeffs[i] += newton[j] * b
        if j < n - 1:
            nb = [Fraction(0)] * (len(basis) + 1)
            for i, b in enumerate(basis):
                nb[i] -= b * ts[j]
                nb[i + 1] += b
            basis = nb
    return coeffs



def expected_value_fraction(poly, moments) -> Fraction:
    """E P(V) = a_0 + sum_{i>=1} a_i * E V^(2i), one `Fraction` multiply-add
    per term; the table must hold every order the polynomial needs."""
    total = poly.coeffs[0]
    for i in range(1, len(poly.coeffs)):
        total += poly.coeffs[i] * moments[i]
    return total

def _trim(p: list[Fraction]) -> list[Fraction]:
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def poly_mul(p: Sequence[Fraction], q: Sequence[Fraction]) -> list[Fraction]:
    """Product of two polynomials, coefficients ascending."""
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _trim(out)


def poly_divmod(p: Sequence[Fraction], d: Sequence[Fraction]
                ) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of the long division of p by d, coefficients
    ascending, both trimmed; the quotient is [0] when deg p < deg d."""
    rem = list(p)
    dn = len(d) - 1
    if len(rem) - 1 < dn:
        return [Fraction(0)], _trim(rem)
    quot = [Fraction(0)] * (len(rem) - dn)
    for i in range(len(rem) - 1, dn - 1, -1):
        c = rem[i] / d[-1]
        quot[i - dn] = c
        for j in range(dn + 1):
            rem[i - dn + j] -= c * d[j]
    return _trim(quot), _trim(rem)


def poly_eval(p: Sequence[Fraction], x: Fraction) -> Fraction:
    s = Fraction(0)
    for c in reversed(p):
        s = s * x + c
    return s


def poly_derivative(p: Sequence[Fraction]) -> list[Fraction]:
    return [i * c for i, c in enumerate(p)][1:]


def x_coefficients(poly) -> list[Fraction]:
    """The coefficients of the even polynomial `poly` (an `EvenPoly`) ascending in x."""
    out = [Fraction(0)] * (poly.degree + 1)
    out[::2] = poly.coeffs
    return out


def _sign(p: Sequence[Fraction | int], x: Fraction) -> int:
    """The sign of p(x), coefficients ascending, by `poly_eval`."""
    value = poly_eval(p, x)
    return (value > 0) - (value < 0)


def _variations(seq: Sequence[Sequence[Fraction | int]], x: Fraction) -> int:
    """Sign changes along the polynomials `seq` (coefficients ascending) at
    x, zeros skipped."""
    signs = [s for s in (_sign(q, x) for q in seq) if s]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def _primitive(p: Sequence[Fraction]) -> list[Fraction]:
    """p times the positive rational that makes its coefficients coprime
    integers, as Fractions: the same sign at every point, in short numbers."""
    den = lcm(*(c.denominator for c in p))
    nums = [c.numerator * (den // c.denominator) for c in p]
    g = gcd(*nums)
    return [Fraction(n // g) for n in nums]


def sturm_root_count_fraction(p: Sequence[Fraction], a: Fraction, b: Fraction) -> int:
    """Distinct roots of p (coefficients ascending, p(a) and p(b) nonzero)
    in (a, b), counted on the classical Sturm sequence p, p', and the
    negated remainders of `poly_divmod`, all over the rationals.  Each
    element is cleared to its primitive integer form, which keeps every
    sign and the long division's rationals short."""
    seq = [_primitive(p), _primitive(poly_derivative(p))]
    while any(seq[-1]) and any(rem := poly_divmod(seq[-2], seq[-1])[1]):
        seq.append([-c for c in _primitive(rem)])
    return _variations(seq, a) - _variations(seq, b)


def verify_dominance_long_division(poly, nodes):
    """The dominance proof of P on nodes with Fraction long division.

    P(x) - x is divided by prod_j (x - x_j)^2; a nonzero remainder gives
    (quotient, False, -1, 0, 0), a zero boundary value a root count of -1,
    and otherwise `sturm_root_count_fraction`, which shares no code with
    the library's Sturm chain, counts the quotient's roots in (0, 1/3).
    Returns a `tetravol.certificate.DominanceProof`.
    """
    from tetravol.certificate import DominanceProof

    diff = [Fraction(0)] * max(poly.degree + 1, 2)
    for i, a in enumerate(poly.coeffs):
        diff[2 * i] = a
    diff[1] -= 1
    divisor = [Fraction(1)]
    for x in nodes:
        divisor = poly_mul(divisor, [x * x, -2 * x, Fraction(1)])
    quotient, remainder = poly_divmod(_trim(diff), divisor)
    if any(remainder):
        return DominanceProof(tuple(quotient), False, -1, 0, 0)
    end = Fraction(1, 3)  # V never exceeds 1/3
    sign0, sign1 = _sign(quotient, Fraction(0)), _sign(quotient, end)
    if sign0 == 0 or sign1 == 0:
        return DominanceProof(tuple(quotient), True, -1, sign0, sign1)
    count = sturm_root_count_fraction(quotient, Fraction(0), end)
    return DominanceProof(tuple(quotient), True, count, sign0, sign1)


def roots_bisection(chain: Sequence[Sequence[int]], lo: Fraction, hi: Fraction,
                    count: int) -> list[Fraction]:
    """The `count` simple roots of chain[0] in (lo, hi), each to a relative
    width of 2^-60, by sign variations on a Sturm sequence until they are
    apart and sign bisection after.  Each element of `chain` (integers,
    highest degree first) is evaluated by `poly_eval` over the rationals.
    chain[0] must not vanish at lo or hi.  The intervals left to split are
    a list, the leftmost last, so no depth of bisection can exhaust the
    interpreter's stack."""
    ascending = [q[::-1] for q in chain]
    roots, todo = [], [(lo, hi, count)]
    while todo:
        lo, hi, count = todo.pop()
        if count == 0:
            continue
        if count == 1 and (hi - lo) * 2**60 <= lo:
            roots.append((lo + hi) / 2)
            continue
        mid = (lo + hi) / 2
        while not (at_mid := _sign(ascending[0], mid)):  # step off an exact root
            mid = (lo + mid) / 2
        if count == 1:
            left = int(_sign(ascending[0], lo) != at_mid)
        else:
            left = _variations(ascending, lo) - _variations(ascending, mid)
        todo += [(mid, hi, count - left), (lo, mid, left)]
    return roots


class Law(NamedTuple):
    """A law of x on [0, 1/3], standing for V, with t = x^2: `moment(k)` is
    E x^(2k) = E t^k and `mean` is E x = E sqrt(t), both exact; `atoms` holds
    the support of a discrete law, in increasing order."""
    moment: Callable[[int], Fraction]
    mean: Fraction
    atoms: tuple[Fraction, ...] = ()


#: three laws of t on [0, 1/9] whose E sqrt(t) is known.  x uniform on
#: [0, 1/3]: E x^m = 3^-m / (m + 1).  t uniform on [0, 1/9]: E t^k = 9^-k /
#: (k + 1), so E sqrt(t) = 2/9.  x of density proportional to x^(-1/2) on
#: [0, 1/3]: E x^m = 3^-m / (2m + 1).
CONTINUOUS_LAWS = {
    "x-uniform": Law(lambda k: Fraction(1, 9**k * (2 * k + 1)), Fraction(1, 6)),
    "t-uniform": Law(lambda k: Fraction(1, 9**k * (k + 1)), Fraction(2, 9)),
    "x-density-inverse-sqrt": Law(lambda k: Fraction(1, 9**k * (4 * k + 1)), Fraction(1, 9)),
}


def atom_law(n: int, seed: int) -> Law:
    """A seeded law of n distinct atoms j/90 in (0, 1/3), with positive
    rational weights that sum to 1."""
    rng = random.Random(seed)
    atoms = tuple(sorted(Fraction(j, 90) for j in rng.sample(range(1, 30), n)))
    raw = [rng.randint(1, 9) for _ in atoms]
    weights = [Fraction(w, sum(raw)) for w in raw]
    return Law(lambda k: sum(w * x ** (2 * k) for x, w in zip(atoms, weights)),
               sum(w * x for x, w in zip(atoms, weights)), atoms)


#: the unit-volume body 6^(1/3) T_o whose points `tetravol.montecarlo` samples
UNIT_TETRA_VERTICES = 6.0 ** (1.0 / 3.0) * np.array(
    [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def tetra_volume(p1, p2, p3, p4) -> np.ndarray | float:
    """|det(p1-p4, p2-p4, p3-p4)| / 6, the determinant expanded along its
    first row; broadcasts over leading axes."""
    u = np.asarray(p1, dtype=float) - p4
    v = np.asarray(p2, dtype=float) - p4
    w = np.asarray(p3, dtype=float) - p4
    det = (u[..., 0] * (v[..., 1] * w[..., 2] - v[..., 2] * w[..., 1])
           - u[..., 1] * (v[..., 0] * w[..., 2] - v[..., 2] * w[..., 0])
           + u[..., 2] * (v[..., 0] * w[..., 1] - v[..., 1] * w[..., 0]))
    return np.abs(det) / 6.0


def block_sums_slice(seed: int, block_index: int, count: int, mode: str, power: int
                     ) -> tuple[float, float]:
    """The sums of V^power and V^(2 power) over one sample block, computed on
    the whole block at once: one draw of all its exponentials, the row sums
    and points formed in place on strided views of that draw, and the
    determinant expanded along its first row on the points' coordinates.
    `tetravol.montecarlo._block_sums` must give the same bits."""
    from tetravol import montecarlo as mc

    n_random = 4 if mode == mc.MODE_ALL_RANDOM else 3
    e = mc._block_generator(seed, block_index).standard_exponential((count, n_random, 4))
    total = e[..., :1]
    total += e[..., 1:2]
    total += e[..., 2:3]
    total += e[..., 3:4]
    pts = e[..., 1:]
    pts /= total
    pts *= mc._SCALE
    p4 = pts[:, 3] if mode == mc.MODE_ALL_RANDOM else mc.FACET_CENTROID
    u, v, w = (pts[:, i] - p4 for i in range(3))
    det = (u[..., 0] * (v[..., 1] * w[..., 2] - v[..., 2] * w[..., 1])
           - u[..., 1] * (v[..., 0] * w[..., 2] - v[..., 2] * w[..., 0])
           + u[..., 2] * (v[..., 0] * w[..., 1] - v[..., 1] * w[..., 0]))
    vp = (np.abs(det) / 6.0) ** power
    return float(np.sum(vp)), float(np.sum(vp * vp))
