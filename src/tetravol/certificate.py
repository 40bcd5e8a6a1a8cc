"""Assembly and rigorous verification of the counterexample certificate.

The chain being certified, entirely in exact arithmetic:

    E V <= E P(V) = B < 13/720 - pi^2/15015

where V is the volume of the simplex of three uniform points and a facet
centroid in a unit-volume tetrahedron, P is the even Hermite majorant built
on a node set, B is its exact expected value, and the right-hand side is the
expected volume with all four points random.  Since V never exceeds 1/3, the
majorant property is only needed on [0, 1/3].

Dominance of P over |x| is not taken on faith from the interpolation
construction: P(x) - x is divided exactly, on Python integers, by the
squared node polynomial, and the quotient R is proven positive on [0, 1/3] by
boundary signs and one ladder of Sturm root counts: on rounded-down copies
of R that lie exactly below it, then on R itself (the rounded-polynomial
certificate of Chevillard, Harrison, Joldes & Lauter, Theor. Comput. Sci.
412, 2011; see `verify_dominance`).  A corrupted node file or a buggy interpolation breaks
the division or the root count, never the verdict's soundness.

Only B depends on the moments: the nodes fix P and its proof, and the target
is a constant, so a `Certificate` derives its target, margin and verdict, and
`parse_report` rebuilds P and the proof and accepts only the exact text that
`render_report` writes.  B is the one field a report is trusted for.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import zip_longest
from math import gcd
from typing import Sequence

from . import __version__
from .majorant import (EvenPoly, NodeSet, _require_orders, expected_value,
                       hermite_onesided)
from .moments import MomentTable
from .rational import (RationalInterval, _integer_numerators, fraction_to_decimal,
                       target_enclosure)

#: bits kept of the largest coefficient of the rounded quotient in
#: `verify_dominance`, one rung after another until one proves it.  On the
#: 291 node sets of the warm-certify-sweep plans for seeds 901-903 and the
#: three `search` sets, and on the 200 seeded sets of the test suite, 32 bits
#: proves every quotient positive, at about half the cost of 64 bits.  The
#: d = 25 and d = 33 Gauss sets (denominators <= 1000) fail the 32-bit
#: endpoint check at once and prove at 64 bits; 24 bits fell back on 2 warm
#: sets and on all four Gauss sets.  After these rungs comes one that keeps
#: every bit: only a quotient that no rounded rung proves is counted exactly.
_ROUNDED_BITS = (32, 64)

VERDICT_TRUE = "COUNTEREXAMPLE CERTIFIED"
VERDICT_FALSE = "NOT CERTIFIED"

_NOTE = (
    "A strict bound below 13/720 - pi^2/15015 exhibits a boundary point z "
    "(a facet centroid) with E|conv(X1,X2,X3,z)| < E|conv(X1,X2,X3,X4)| for "
    "uniform points in a tetrahedron; by Rademacher's equivalence between "
    "inclusion-monotonicity of the expected hull volume and the boundary-point "
    "inequality, the expected volume of the sample range is therefore not "
    "monotone under inclusion in dimension three. The equivalence itself is "
    "cited, not machine-checked."
)


class ReportFormatError(ValueError):
    """Text that is not a report `render_report` writes; names the line or field."""


# ---------------------------------------------------------------------------
# Sturm chains over the integers (coefficients descending in x)
# ---------------------------------------------------------------------------

def _primitive(p: Sequence[int]) -> list[int]:
    """p divided by the gcd of its coefficients, without leading zeros."""
    p = list(p)
    while len(p) > 1 and p[0] == 0:
        del p[0]
    g = gcd(*p)
    return p if g <= 1 else [c // g for c in p]


def sturm_chain(p: Sequence[Fraction | int]) -> list[list[int]]:
    """The Sturm chain of p over the integers, each element highest degree first.

    p (coefficients ascending in x, `Fraction` or `int`) is scaled once to
    its primitive integer form.  Then come its primitive derivative and,
    while the last element has positive degree and leaves a nonzero
    remainder, the negated pseudo-remainder of the previous two, whose
    multiplier |lc|^(delta + 1) is positive, divided by its integer content
    (a primitive remainder sequence: Collins, J. ACM 14, 1967).  Every
    element is a positive multiple of the classical chain's, so every sign,
    and every count, is the classical one; no rational is ever normalised.
    Raises ValueError for the zero polynomial.
    """
    chain = [_primitive(_integer_numerators(p)[0][::-1])]
    if chain[0] == [0]:
        raise ValueError("zero polynomial")
    if len(chain[0]) > 1:
        top = len(chain[0]) - 1
        chain.append(_primitive([(top - i) * c for i, c in enumerate(chain[0][:-1])]))
    while len(chain[-1]) > 1:
        # the remainder by -b is the remainder by b: divide by the one whose
        # leading coefficient |lc| is positive
        b = chain[-1] if chain[-1][0] > 0 else [-c for c in chain[-1]]
        lead = b[0]
        r = chain[-2]
        for _ in range(len(r) - len(b) + 1):
            f = r[0]
            r = [lead * x - f * y for x, y in zip(r[1:], b[1:])] + \
                [lead * x for x in r[len(b):]]
        if not any(r):
            break
        chain.append(_primitive([-c for c in r]))
    return chain


def _horner(p: Sequence[int], n: int, d: int) -> int:
    """d^deg p(n/d) for the integer p (highest degree first): the
    homogenised Horner sum sum_i c_i n^i d^(deg - i), c_i ascending."""
    s = 0
    power = 1
    for c in p:
        s = s * n + c * power
        power *= d
    return s


def sign_variations(chain: Sequence[Sequence[int]], x: Fraction | int, den: int = 1) -> int:
    """Sign changes along `chain` at x / den, x a `Fraction` or an `int`,
    zeros skipped; each value is `_horner`'s, which has the sign of
    q(x / den).  Raises ValueError when x / den is a root of the chain's
    first polynomial."""
    values = [_horner(q, x.numerator, x.denominator * den) for q in chain]
    if not values[0]:
        raise ValueError("Sturm endpoints must not be roots")
    signs = [v > 0 for v in values if v]
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def sturm_root_count(p: Sequence[Fraction | int], a: Fraction | int,
                     b: Fraction | int) -> int:
    """Number of distinct real roots of p in the open interval (a, b).

    Counts sign variations at a and b on the integer Sturm chain of p,
    built once by `sturm_chain`; requires p(a) != 0 and p(b) != 0 (the count
    is then exact, multiple roots counted once).
    """
    chain = sturm_chain(p)
    return sign_variations(chain, a) - sign_variations(chain, b)


# ---------------------------------------------------------------------------
# dominance proof
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DominanceProof:
    """Machine check that P(x) - x = prod_j (x - x_j)^2 * R(x) >= 0 on [0, 1/3].

    `quotient` is R, ascending in x, even when the remainder is not zero;
    valid iff it is, R has no root in (0, 1/3), and R > 0 at both ends.
    """

    quotient: tuple[Fraction, ...]
    remainder_is_zero: bool
    interior_root_count: int
    sign_at_zero: int
    sign_at_end: int

    @property
    def valid(self) -> bool:
        return (self.remainder_is_zero and self.interior_root_count == 0
                and self.sign_at_zero > 0 and self.sign_at_end > 0)


def _deflate(nums: Sequence[int], divisor: Sequence[int]) -> tuple[list[int], int, bool]:
    """Divide nums by divisor, integer polynomials highest degree first.

    Returns (quot, g, exact) with g * nums = divisor * quot + r, integer
    quot, positive integer g, deg r < deg divisor and exact = (r == 0).
    Long division from the top; a leading term that divisor[0] > 0 does not
    divide raises g by the least factor that makes it divisible and
    rescales the quotient and remainder so far.  When a primitive divisor
    divides nums over the rationals, g stays 1 (Gauss's lemma).
    """
    lead, tail = divisor[0], divisor[1:]
    rem, quot, g = list(nums), [], 1
    for i in range(len(rem) - len(tail)):
        t = rem[i]
        if t % lead:
            f = lead // gcd(t, lead)
            quot = [v * f for v in quot]
            rem[i:] = [v * f for v in rem[i:]]
            g *= f
            t *= f
        quot.append(c := t // lead)
        rem[i + 1:i + len(divisor)] = [v - c * d for v, d in zip(rem[i + 1:], tail)]
    return quot, g, not any(rem[len(quot):])


def _interior_root_count(nums: Sequence[int]) -> int:
    """Number of roots in (0, 1/3) of nums, nonzero at 0 and 1/3.

    nums = c_m .. c_0 (highest degree first) is written in u = 3x as
    T_i = c_i 3^(m - i), so T(u) = 3^m N(u/3), and the roots of N in
    (0, 1/3) are those of T in (0, 1).  For each `bits` of _ROUNDED_BITS in
    turn, each T_i is shifted right by e = max(0, bits(max |T_i|) - bits)
    bits.  `>>` floors, so 2^e Rhat_i <= T_i, and as u^i >= 0 on [0, 1],
    2^e Rhat(u) <= T(u) there: Rhat(0) > 0, Rhat(1) > 0 and no Sturm root of
    Rhat in (0, 1) make Rhat, hence T, hence N on [0, 1/3], positive.  A
    rung that counts roots says nothing about N.  The last rung keeps every
    bit, so its copy is T and its count is exact.
    """
    t = [c * 3 ** i for i, c in enumerate(nums)]
    top = max(abs(c) for c in t).bit_length()
    for bits in (*_ROUNDED_BITS, top):
        shift = max(0, top - bits)
        rounded = [c >> shift for c in t]
        if not shift or rounded[-1] > 0 and sum(rounded) > 0:
            count = sturm_root_count(rounded[::-1], 0, 1)
            if not (shift and count):
                return count


def verify_dominance(poly: EvenPoly, nodes: NodeSet) -> DominanceProof:
    """Divide P(x) - x by the squared node polynomial and certify positivity.

    A nonzero remainder means the polynomial was not built from these nodes;
    a root of the quotient inside (0, 1/3) or a nonpositive boundary value
    means dominance fails.  P(x) - x, over the lcm den of P's denominators,
    is divided once by D(x) = prod_j (q_j x - p_j)^2 (x_j = p_j/q_j), which
    is primitive and alone holds the nodes' multiplicities.  D[0] / (den g)
    scales quot to the long division's quotient by prod_j (x - x_j)^2, so
    the quotient's signs and Sturm count are those of the integers quot.

    With both boundary signs nonzero, `_interior_root_count` walks one
    ladder of Sturm counts on quot in u = 3x: copies rounded down to 32,
    then 64 bits (_ROUNDED_BITS), then quot itself.  Floor shifts only lower
    coefficients and u^i >= 0 on [0, 1], so when a rounded copy is positive
    at both ends and has no root in (0, 1), the quotient has none in
    (0, 1/3), and the root count is exactly 0; otherwise the last rung
    counts the roots exactly.  Either way the proof is the one exact Sturm
    alone would give.
    """
    a, den = _integer_numerators(poly.coeffs)
    diff = [0] * max(poly.degree + 1, 2)  # den (P(x) - x), ascending in x
    diff[::2] = a
    diff[1] -= den
    divisor = [1]
    for x in [x for x in nodes for _ in (0, 1)]:  # a double root at each node
        divisor = [x.denominator * u - x.numerator * v
                   for u, v in zip(divisor + [0], [0] + divisor)]
    quot, g, exact = _deflate(diff[::-1], divisor)
    scale = Fraction(divisor[0], den * g)
    quotient = tuple(c * scale for c in reversed(quot)) or (Fraction(0),)
    if not exact:
        return DominanceProof(quotient, False, -1, 0, 0)

    end = _horner(quot, 1, 3)  # 3^deg quot(1/3), of the quotient's sign at 1/3
    sign0, sign1 = (quot[-1] > 0) - (quot[-1] < 0), (end > 0) - (end < 0)
    count = _interior_root_count(quot) if sign0 and sign1 else -1
    return DominanceProof(quotient, True, count, sign0, sign1)


# ---------------------------------------------------------------------------
# certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    """The majorant P on `nodes`, its bound B = E P(V) and its dominance
    proof; the target, margin and verdict are derived, never stored."""

    nodes: tuple[Fraction, ...]
    p_cert: EvenPoly
    bound: Fraction
    dominance: DominanceProof
    metadata: dict = field(default_factory=dict)

    @property
    def target(self) -> RationalInterval:
        """The enclosure of 13/720 - pi^2/15015, the same for every node set."""
        return target_enclosure()

    @property
    def margin(self) -> Fraction:
        """target.lo - bound; positive exactly when the comparison certifies."""
        return self.target.lo - self.bound

    @property
    def verdict(self) -> bool:
        """True exactly when P dominates |x| on [0, 1/3] and B < target.lo."""
        return self.dominance.valid and self.bound < self.target.lo


def check_metadata(meta: dict) -> None:
    """Refuse a metadata key or value that holds a line break (any
    `str.splitlines` boundary), which would split its `meta` line."""
    for key, value in meta.items():
        if (line := f"{key}: {value}").splitlines() != [line]:
            raise ValueError(f"metadata {key!r}: {value!r} holds a line break")


def certify(nodes: NodeSet, moments: MomentTable,
            metadata: dict | None = None) -> Certificate:
    """Build the majorant on `nodes` and verify the full chain exactly.

    A metadata line break, which would split its `meta` line, and missing
    moment orders raise before the majorant is built (every report reads
    back, and no verdict is rendered from incomplete data); a failed
    dominance proof or a non-strict comparison yields a verdict-false
    certificate with full diagnostics.
    """
    meta = {"tool": f"tetravol {__version__}",
            "moments": moments.provenance_summary()}
    meta.update(metadata or {})
    check_metadata(meta)
    _require_orders(moments, nodes=len(nodes))
    p_cert = hermite_onesided(nodes)
    return Certificate(tuple(nodes), p_cert, expected_value(p_cert, moments),
                       verify_dominance(p_cert, nodes), meta)


# ---------------------------------------------------------------------------
# report rendering and parsing
# ---------------------------------------------------------------------------

_REPORT_HEADER = "tetravol-certificate v1"

#: every exact number of a report; no other form (like `1e-3000000`) is read
_REPORT_NUMBER = re.compile(r"(-?[0-9]+)/([0-9]+)")


def _frac_str(x: Fraction) -> str:
    try:
        return f"{x.numerator}/{x.denominator}"
    except ValueError:  # past sys.get_int_max_str_digits(), which Decimal ignores
        from decimal import Decimal
        return f"{Decimal(x.numerator)}/{Decimal(x.denominator)}"


def _read_fraction(token: str, line: int) -> Fraction:
    match = _REPORT_NUMBER.fullmatch(token)
    if match and match[2].strip("0"):  # a nonzero denominator
        try:
            return Fraction(int(match[1]), int(match[2]))
        except ValueError:  # past sys.get_int_max_str_digits()
            from decimal import Decimal
            return Fraction(int(Decimal(match[1])), int(Decimal(match[2])))
    raise ReportFormatError(f"line {line}: {_shown(token)} is not an exact fraction p/q")


def _read_field(lines: list[str], key: str) -> tuple[int, list[Fraction]]:
    """(line number, fractions) of the first line `key: p/q p/q ...`."""
    for n, line in enumerate(lines, start=1):
        if line.startswith(key + ": "):
            return n, [_read_fraction(tok, n) for tok in line[len(key) + 2:].split(" ")]
    raise ReportFormatError(f"missing field {key!r}")


def _shown(line: str | None) -> str:
    return "the end of the text" if line is None else repr(line[:60] + "..." * (len(line) > 60))


def render_report(cert: Certificate) -> str:
    """The certificate report: the one definition of its format.

    Line-oriented, every field an exact fraction p/q of any size; the
    decimal expansions are informational.  `parse_report` accepts exactly
    the texts this function writes.
    """
    lines = [_REPORT_HEADER]
    for key in sorted(cert.metadata):
        lines.append(f"meta {key}: {cert.metadata[key]}")
    lines.append("nodes: " + " ".join(_frac_str(x) for x in cert.nodes))
    for i, c in enumerate(cert.p_cert.coeffs):
        lines.append(f"coefficient {i}: {_frac_str(c)}")
    lines.append(f"bound: {_frac_str(cert.bound)}")
    lines.append(f"bound-decimal: {fraction_to_decimal(cert.bound, 20)}")
    lines.append(f"target-lo: {_frac_str(cert.target.lo)}")
    lines.append(f"target-hi: {_frac_str(cert.target.hi)}")
    lines.append(f"margin: {_frac_str(cert.margin)}")
    if not cert.verdict and cert.margin < 0:
        lines.append(f"deficit: {_frac_str(-cert.margin)}")
    d = cert.dominance
    lines.append("dominance-quotient: " + " ".join(_frac_str(c) for c in d.quotient))
    lines.append(f"dominance-remainder-zero: {'yes' if d.remainder_is_zero else 'no'}")
    lines.append(f"dominance-root-count: {d.interior_root_count}")
    lines.append(f"dominance-sign-at-0: {d.sign_at_zero:+d}")
    lines.append(f"dominance-sign-at-end: {d.sign_at_end:+d}")
    lines.append(f"dominance-valid: {'yes' if d.valid else 'no'}")
    lines.append(f"verdict: {VERDICT_TRUE if cert.verdict else VERDICT_FALSE}")
    lines.append(f"note: {_NOTE}")
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> Certificate:
    """The certificate that `render_report` writes as `text`, re-checked.

    Reads only the `meta` lines, the nodes and the bound, and rebuilds the
    majorant (`hermite_onesided`) and its proof (`verify_dominance`).  Any
    text that `render_report` does not give back exactly, its header line
    included, raises ReportFormatError naming the first differing line.  The
    bound, which needs the moments, is the one field taken on trust.
    """
    lines = text.split("\n")
    metadata = dict(line[5:].split(": ", 1) for line in lines
                    if line.startswith("meta ") and ": " in line[5:])
    n, xs = _read_field(lines, "nodes")
    try:
        nodes = NodeSet(tuple(xs))
    except ValueError as exc:  # not positive and increasing
        raise ReportFormatError(f"line {n}: {exc}") from None
    bound = _read_field(lines, "bound")[1][0]
    p_cert = hermite_onesided(nodes)
    cert = Certificate(nodes.nodes, p_cert, bound, verify_dominance(p_cert, nodes), metadata)
    rebuilt = render_report(cert).split("\n")
    for n, (got, want) in enumerate(zip_longest(lines, rebuilt), start=1):
        if got != want:
            raise ReportFormatError(f"line {n}: {_shown(got)}, where the report rebuilt "
                                    f"from its nodes and bound has {_shown(want)}")
    return cert
