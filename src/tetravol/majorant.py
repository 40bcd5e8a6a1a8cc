"""One-sided even polynomial majorants of |x| by Hermite interpolation.

Given nodes 0 < x_0 < ... < x_m, there is a unique even polynomial
P(x) = sum_{i=0}^{2m+1} a_i x^(2i) with P(x_j) = x_j and P'(x_j) = 1 at every
node, and it satisfies P(x) >= |x| for all real x: substituting t = x^2 turns
the conditions into standard Hermite interpolation of f(t) = sqrt(t) at
t_j = x_j^2, whose error term has one sign because every derivative
f^(n+1) < 0.  All interpolation data are rational, so the coefficients come
out exact: divided differences on reduced integer (numerator, denominator)
pairs, then the Newton form expanded on integer numerators over one common
denominator.

E P(V) is then an upper bound for E V whenever P majorizes |x| on the range
of V, and it is a rational affine combination of the even moments.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path
from typing import Iterable, Sequence

from .moments import MomentTable
from .rational import _integer_numerators

#: the longest node line, newline aside; none is parsed further, so none is a huge rational
NODE_LINE_MAX = 1000


class MomentOrderError(ValueError):
    """The moment table lacks an order required by the polynomial."""


def _node_line(x: Fraction) -> str:
    """The line of node `x` in a node file, and the one definition of the format."""
    return f"{x.numerator}/{x.denominator}\n"


@dataclass(frozen=True)
class NodeSet:
    """Strictly increasing positive rational nodes; the first that is not is named."""

    nodes: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("empty node set")
        prev = Fraction(0)
        for i, x in enumerate(self.nodes, start=1):
            if x <= prev:
                after = f" after {prev.numerator}/{prev.denominator}" if i > 1 else ""
                raise ValueError(f"nodes must be positive and strictly increasing: "
                                 f"node {i} is {x.numerator}/{x.denominator}{after}")
            prev = x

    @classmethod
    def from_rationals(cls, xs: Iterable[Fraction | float | str | int]) -> "NodeSet":
        return cls(tuple(Fraction(x) for x in xs))

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    def write(self, path: str | Path) -> None:
        Path(path).write_text("".join(map(_node_line, self.nodes)), newline="\n")

    @classmethod
    def read(cls, path: str | Path) -> "NodeSet":
        """The nodes in `path` if each line is `_node_line` of the node it reads
        as, so the file is what `write` writes; else the first line that is not
        is refused as `path:line`.  A byte that is not UTF-8 reads as U+FFFD.
        An empty file or nodes out of order are refused naming `path`."""
        nodes = []
        text = Path(path).read_bytes().decode("utf-8", "replace")
        for n, line in enumerate(text.splitlines(keepends=True), start=1):
            try:
                p, q = map(int, line[:NODE_LINE_MAX].split("/"))
                x = Fraction(p, q)
            except (ValueError, ZeroDivisionError):
                x = None
            if x is None or line != _node_line(x):
                raise ValueError(f"{path}:{n}: {repr(line)[:60]} is not a node line: p/q in "
                                 f"lowest terms, at most {NODE_LINE_MAX} characters, newline")
            nodes.append(x)
        try:
            return cls(tuple(nodes))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class EvenPoly:
    """P(x) = sum a_i x^(2i) with exact rational coefficients a_0..a_n."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.coeffs:
            raise ValueError("empty coefficient list")
        if len(self.coeffs) > 1 and self.coeffs[-1] == 0:
            raise ValueError("trailing coefficient must be nonzero")

    @property
    def degree(self) -> int:
        """Degree in x (twice the degree in t = x^2)."""
        return 2 * (len(self.coeffs) - 1)


def hermite_coefficients(xs: Sequence[Fraction]) -> list[Fraction]:
    """Exact coefficients a_0..a_(2m+1) of the even Hermite majorant on nodes xs.

    Divided differences on the doubled node sequence t_0, t_0, ..., t_m, t_m
    (t_j = x_j^2 = p_j^2/q_j^2), each entry a reduced pair (num, den) of
    integers with den > 0 and one gcd per entry.  A repeated-node entry takes
    the derivative value 1/(2 x_j) = q_j/(2 p_j); any other is
    (n1/d1 - n0/d0) / (a/b - c/d) = (n1 d0 - n0 d1) b d / (d0 d1 (a d - c b))
    for the entries n0/d0, n1/d1 below it and t = a/b, c/d at its ends.  The
    Newton form is then expanded to monomial coefficients in t, which are
    exactly the even coefficients a_i, by Horner's rule
    c <- c * (t - t_j) + newton[j] on integer numerators over one running
    denominator: for t_j = a/b that step multiplies by (b t - a), so only the
    n coefficients at the end are reduced to lowest terms.
    """
    ps = [x.numerator for x in xs]
    qs = [x.denominator for x in xs]
    t_num = [p * p for p in ps]  # t_j in lowest terms, as gcd(p, q) = 1
    t_den = [q * q for q in qs]
    # the column of the current order, entry i over the doubled nodes i .. i + order
    col_num = [p for p in ps for _ in (0, 1)]
    col_den = [q for q in qs for _ in (0, 1)]
    n = len(col_num)

    newton = [(col_num[0], col_den[0])]
    for order in range(1, n):
        # in place, ascending: entry i reads the old entries i and i + 1
        for i in range(n - order):
            lo, hi = i // 2, (i + order) // 2  # the nodes of t at the ends
            if lo == hi:
                num, den = qs[lo], 2 * ps[lo]
            else:
                a, b, c, d = t_num[hi], t_den[hi], t_num[lo], t_den[lo]
                d0, d1 = col_den[i], col_den[i + 1]
                num = (col_num[i + 1] * d0 - col_num[i] * d1) * b * d
                den = d0 * d1 * (a * d - c * b)
            g = gcd(num, den)
            col_num[i], col_den[i] = num // g, den // g
        newton.append((col_num[0], col_den[0]))

    # c = nums / den, coefficients ascending in t
    num, den = newton[-1]
    nums = [num]
    for j in range(n - 2, -1, -1):
        a, b = t_num[j // 2], t_den[j // 2]
        c_num, c_den = newton[j]
        new_den = lcm(den * b, c_den)
        s = new_den // (den * b)
        nums = [(b * lo - a * hi) * s for lo, hi in zip([0, *nums], [*nums, 0])]
        nums[0] += c_num * (new_den // c_den)
        den = new_den
    return [Fraction(v, den) for v in nums]


def hermite_onesided(nodes: NodeSet) -> EvenPoly:
    """The unique even majorant interpolating x and slope 1 at every node."""
    return EvenPoly(tuple(hermite_coefficients(nodes.nodes)))


def _require_orders(moments: MomentTable, degree: int | None = None,
                    *, nodes: int | None = None) -> None:
    """Raise MomentOrderError naming the orders that `moments` lacks and an
    even polynomial of degree `degree` in x needs, E V^(2i) for
    i <= degree/2, or the majorant on n `nodes`: orders 1..2n - 1, those its
    n-point Gauss rule in t = x^2 is exact for.  A table holds the orders
    1..K, so the missing ones are K + 1..top, written a..b when there are
    three or more: one comparison, whatever the degree."""
    top = degree // 2 if nodes is None else 2 * nodes - 1
    have = len(moments.values)
    if top > have:
        missing = (", ".join(map(str, range(have + 1, top + 1))) if top - have <= 2
                   else f"{have + 1}..{top}")
        raise MomentOrderError(
            f"moment table lacks orders [{missing}] needed for "
            + (f"degree {degree}" if nodes is None else f"{nodes} node" + "s" * (nodes > 1)))


def expected_value(poly: EvenPoly, moments: MomentTable) -> Fraction:
    """E P(V) = a_0 + sum_{i>=1} a_i * E V^(2i), exact.

    The zeroth moment is 1 and is injected here rather than stored in the
    table.  The sum runs on integers over one common denominator, the lcm
    of the coefficients' denominators times that of the moments', and is
    reduced once at the end.  Raises MomentOrderError when the table is too
    short.
    """
    _require_orders(moments, poly.degree)
    a, coeff_den = _integer_numerators(poly.coeffs)
    v, moment_den = _integer_numerators([moments[i] for i in range(1, len(a))])
    total = a[0] * moment_den + sum(x * y for x, y in zip(a[1:], v))
    return Fraction(total, coeff_den * moment_den)
