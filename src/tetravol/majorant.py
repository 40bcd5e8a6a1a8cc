"""One-sided even polynomial majorants of |x| by Hermite interpolation.

Given nodes 0 < x_0 < ... < x_m, there is a unique even polynomial
P(x) = sum_{i=0}^{2m+1} a_i x^(2i) with P(x_j) = x_j and P'(x_j) = 1 at every
node, and it satisfies P(x) >= |x| for all real x: substituting t = x^2 turns
the conditions into standard Hermite interpolation of f(t) = sqrt(t) at
t_j = x_j^2, whose error term has one sign because every derivative
f^(n+1) < 0.  All interpolation data are rational, so the coefficients come
out exact: divided differences in `Fraction`, then the Newton form expanded
on integer numerators over one common denominator.

E P(V) is then an upper bound for E V whenever P majorizes |x| on the range
of V, and it is a rational affine combination of the even moments.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from pathlib import Path
from typing import Iterable, Sequence

from .moments import MomentTable

#: the forms a node file line may take: an integer or p/q, at most
#: NODE_LINE_MAX characters, so no line can stand for a huge rational (as
#: `1e-3000000` would through `Fraction(str)`)
_NODE_LINE = re.compile(r"[+-]?[0-9]+|[0-9]+/[0-9]+")
NODE_LINE_MAX = 1000


class MomentOrderError(KeyError):
    """The moment table lacks an order required by the polynomial."""

    def __str__(self) -> str:  # the message, not KeyError's repr of it
        return str(self.args[0]) if self.args else ""


def _ordering_error(nodes: Sequence[Fraction]) -> tuple[int, str] | None:
    """The index of the first node that is not positive or not above the one
    before it, with the message that names it; None when there is none."""
    prev = Fraction(0)
    for i, x in enumerate(nodes):
        if x <= prev:
            after = f" after {prev.numerator}/{prev.denominator}" if i else ""
            return i, (f"nodes must be positive and strictly increasing: "
                       f"node {i + 1} is {x.numerator}/{x.denominator}{after}")
        prev = x
    return None


@dataclass(frozen=True)
class NodeSet:
    """Strictly increasing positive rational interpolation nodes."""

    nodes: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("empty node set")
        bad = _ordering_error(self.nodes)
        if bad:
            raise ValueError(bad[1])

    @classmethod
    def from_rationals(cls, xs: Iterable[Fraction | str | int]) -> "NodeSet":
        return cls(tuple(Fraction(x) for x in xs))

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    def write(self, path: str | Path) -> None:
        lines = [f"{x.numerator}/{x.denominator}" for x in self.nodes]
        Path(path).write_text("\n".join(lines) + "\n", newline="\n")

    @classmethod
    def read(cls, path: str | Path) -> "NodeSet":
        nodes, lines = [], []
        for ln, line in enumerate(Path(path).read_text().split("\n"), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                if len(line) > NODE_LINE_MAX or not _NODE_LINE.fullmatch(line):
                    raise ValueError
                nodes.append(Fraction(line))
                lines.append(ln)
            except (ValueError, ZeroDivisionError):
                shown = line if len(line) <= 40 else line[:40] + "..."
                raise ValueError(f"{path}:{ln}: {shown!r} is not a rational node p/q "
                                 f"of at most {NODE_LINE_MAX} characters") from None
        if not nodes:
            raise ValueError(f"{path}: empty node set")
        bad = _ordering_error(nodes)
        if bad:
            raise ValueError(f"{path}:{lines[bad[0]]}: {bad[1]}")
        return cls(tuple(nodes))


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

    def eval(self, x: Fraction) -> Fraction:
        """Exact Horner evaluation in t = x^2."""
        t = Fraction(x) * Fraction(x)
        s = Fraction(0)
        for c in reversed(self.coeffs):
            s = s * t + c
        return s

    def eval_derivative(self, x: Fraction) -> Fraction:
        """P'(x) = 2x * Q'(x^2) where Q(t) = sum a_i t^i."""
        x = Fraction(x)
        t = x * x
        s = Fraction(0)
        for i in range(len(self.coeffs) - 1, 0, -1):
            s = s * t + i * self.coeffs[i]
        return 2 * x * s


def hermite_coefficients(xs: Sequence[Fraction]) -> list[Fraction]:
    """Exact coefficients a_0..a_(2m+1) of the even Hermite majorant on nodes xs.

    Divided differences on the doubled node sequence t_0, t_0, ..., t_m, t_m
    (t_j = x_j^2); the repeated-node entries take the derivative value
    1/(2 x_j).  The Newton form is then expanded to monomial coefficients in
    t, which are exactly the even coefficients a_i, by Horner's rule
    c <- c * (t - t_j) + newton[j] on integer numerators over one running
    denominator: for t_j = a/b that step multiplies by (b t - a), so only the
    n coefficients at the end are reduced to lowest terms.
    """
    ts = []
    column = []
    for x in xs:
        t = x * x
        ts.extend((t, t))
        column.extend((x, x))
    n = len(ts)

    newton = [column[0]]
    for order in range(1, n):
        nxt = []
        for i in range(n - order):
            if ts[i + order] == ts[i]:
                assert order == 1, "nodes are distinct, only adjacent doubling occurs"
                nxt.append(1 / (2 * xs[i // 2]))
            else:
                nxt.append((column[i + 1] - column[i]) / (ts[i + order] - ts[i]))
        column = nxt
        newton.append(column[0])

    # c = nums / den, coefficients ascending in t
    nums, den = [newton[-1].numerator], newton[-1].denominator
    for j in range(n - 2, -1, -1):
        a, b = ts[j].numerator, ts[j].denominator
        c = newton[j]
        new_den = lcm(den * b, c.denominator)
        s = new_den // (den * b)
        nums = [(b * lo - a * hi) * s for lo, hi in zip([0, *nums], [*nums, 0])]
        nums[0] += c.numerator * (new_den // c.denominator)
        den = new_den
    return [Fraction(v, den) for v in nums]


def hermite_onesided(nodes: NodeSet) -> EvenPoly:
    """The unique even majorant interpolating x and slope 1 at every node."""
    return EvenPoly(tuple(hermite_coefficients(nodes.nodes)))


def _require_orders(moments: MomentTable, degree: int) -> None:
    """Raise MomentOrderError naming every order 1..degree/2 that an even
    polynomial of degree `degree` needs and `moments` lacks."""
    missing = [i for i in range(1, degree // 2 + 1) if i not in moments]
    if missing:
        raise MomentOrderError(
            f"moment table lacks orders {missing} needed for degree {degree}")


def expected_value(poly: EvenPoly, moments: MomentTable) -> Fraction:
    """E P(V) = a_0 + sum_{i>=1} a_i * E V^(2i), exact.

    The zeroth moment is 1 and is injected here rather than stored in the
    table.  Raises MomentOrderError when the table is too short.
    """
    _require_orders(moments, poly.degree)
    total = poly.coeffs[0]
    for i in range(1, len(poly.coeffs)):
        total += poly.coeffs[i] * moments[i]
    return total
