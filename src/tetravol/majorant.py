"""One-sided even polynomial majorants of |x| by Hermite interpolation.

Given nodes 0 < x_0 < ... < x_m, there is a unique even polynomial
P(x) = sum_{i=0}^{2m+1} a_i x^(2i) with P(x_j) = x_j and P'(x_j) = 1 at every
node, and it satisfies P(x) >= |x| for all real x: substituting t = x^2 turns
the conditions into standard Hermite interpolation of f(t) = sqrt(t) at
t_j = x_j^2, whose error term has one sign because every derivative
f^(n+1) < 0.  All interpolation data are rational, so the coefficients come
out exact.

E P(V) is then an upper bound for E V whenever P majorizes |x| on the range
of V, and it is a rational affine combination of the even moments.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

from .moments import MomentTable


class MomentOrderError(KeyError):
    """The moment table lacks an order required by the polynomial."""


@dataclass(frozen=True)
class NodeSet:
    """Strictly increasing positive rational interpolation nodes."""

    nodes: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("empty node set")
        prev = Fraction(0)
        for x in self.nodes:
            if x <= prev:
                raise ValueError(f"nodes must be positive and strictly increasing, got {self.nodes}")
            prev = x

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
        nodes = []
        for line in Path(path).read_text().split("\n"):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            nodes.append(Fraction(line))
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


def hermite_coefficients(xs: Sequence[Fraction] | Sequence[float]) -> list:
    """Coefficients a_0..a_(2m+1) of the even Hermite majorant on nodes xs.

    Divided differences on the doubled node sequence t_0, t_0, ..., t_m, t_m
    (t_j = x_j^2); the repeated-node entries take the derivative value
    1/(2 x_j).  The Newton form is then expanded to monomial coefficients in
    t, which are exactly the even coefficients a_i.  The arithmetic follows
    the type of the nodes: exact for `Fraction`, double precision for `float`.
    """
    zero = xs[0] * 0
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

    coeffs = [zero] * n
    basis = [zero + 1]
    for j in range(n):
        for i, b in enumerate(basis):
            coeffs[i] += newton[j] * b
        if j < n - 1:
            nb = [zero] * (len(basis) + 1)
            for i, b in enumerate(basis):
                nb[i] -= b * ts[j]
                nb[i + 1] += b
            basis = nb
    return coeffs


def hermite_onesided(nodes: NodeSet) -> EvenPoly:
    """The unique even majorant interpolating x and slope 1 at every node."""
    return EvenPoly(tuple(hermite_coefficients(nodes.nodes)))


def expected_value(poly: EvenPoly, moments: MomentTable) -> Fraction:
    """E P(V) = a_0 + sum_{i>=1} a_i * E V^(2i), exact.

    The zeroth moment is 1 and is injected here rather than stored in the
    table.  Raises MomentOrderError when the table is too short.
    """
    missing = [i for i in range(1, len(poly.coeffs)) if i not in moments]
    if missing:
        raise MomentOrderError(
            f"moment table lacks orders {missing} needed for degree {poly.degree}")
    total = poly.coeffs[0]
    for i in range(1, len(poly.coeffs)):
        total += poly.coeffs[i] * moments[i]
    return total
