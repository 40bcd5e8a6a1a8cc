"""Exact even moments of the pinned random simplex volume.

Let X1, X2, X3 be uniform in a tetrahedron T of volume one and c the centroid
of one facet.  The volume of conv(X1, X2, X3, c) is |det[X1 - c, X2 - c,
X3 - c]|/6; by affine invariance everything reduces to integrals over the
standard tetrahedron T_o = {x, y, z >= 0, x + y + z <= 1} (volume 1/6) with
c = (1/3, 1/3, 0).  In the centred coordinates u = x - 1/3, v = y - 1/3 the
determinant polynomial is the 3x3 determinant of the rows (u_i, v_i, z_i),

    D = u1 v2 z3 - u1 v3 z2 - u2 v1 z3 + u2 v3 z1 + u3 v1 z2 - u3 v2 z1,

six signed terms (the paper expands the same D in x, y, z, where it has 18),
and the even moments are

    E V^(2k) = 6^3 * int_{T_o^3} D^(2k).

Every term of D holds one coordinate of each point, so each point has total
degree exactly 2k in D^(2k), and an order needs only the centred one-point
integrals J(a, b, n) = int_{T_o} u^a v^b z^n with a + b + n = 2k.  The
binomial theorem turns each into a finite sum of the closed forms
p! q! n! / (p + q + n + 3)!.

Two evaluation routes are implemented.  Each builds its own table of J and
they share no helper, so a bug in one cannot hide in the other:

* `even_moment_direct` - the multinomial-theorem enumerator: a sum over all
  C(2k+5, 5) compositions of 2k into the six terms of D, each leaf a
  product of three J.  Capped at k = DIRECT_CAP.

* `even_moment_fast` - Laplace expansion along the z column,
  D = z1*A1 - z2*A2 + z3*A3, with A1 = u2 v3 - u3 v2, A2 = u1 v3 - u3 v1 and
  A3 = u1 v2 - u2 v1.  For each z-degree split the binomial expansion of the
  three 2x2 minors is a double sum of products of three J, weighted by a
  kernel of small integers: (1 - x)^2k for the split (2k, 0, 0), and for
  every other split one exact, checked step from a neighbour's (Nyquist,
  Rice & Riordan, Quart. Appl. Math. 12, 1954; Graham, Knuth & Patashnik,
  Concrete Mathematics, 5.1).  An order costs about k^4.

Both routes stay in integers until the final division.  Their common values
for k <= VERIFY_ORDER_MAX are pinned in PINNED_MOMENTS, and the test suite
re-derives every pin by both routes.  `moment_table` computes every order
with the fast route and requires it to equal the pin for k <=
VERIFY_ORDER_MAX before it returns; it reads and writes no file.
`_cache_text` is the one definition of the moment file format:
`MomentTable.write` writes it, atomically, and `MomentTable.read` accepts a
file only if it is that text for the values read from it.  A table holds
the orders 1..K: the verdict needs a prefix of the moments, and a gap is
refused where a table is built or read, naming the first missing order.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from fractions import Fraction
from itertools import accumulate, groupby, zip_longest
from math import comb, factorial
from operator import add, mul, sub
from pathlib import Path

__all__ = [
    "even_moment_direct",
    "even_moment_fast",
    "MomentTable",
    "moment_table",
    "MomentCacheError",
    "MomentIntegrityError",
]


class MomentCacheError(ValueError):
    """Moment cache file is malformed."""


class MomentIntegrityError(ValueError):
    """A moment disagrees with its pinned direct-enumerator value, or a table
    skips an order or breaks the bounds that the moments of V obey."""


# ---------------------------------------------------------------------------
# direct enumerator
# ---------------------------------------------------------------------------

#: highest order the direct enumerator accepts: one call takes about 1.2 s at
#: k = 24 and its cost grows about as k^6 (BENCH_moment_stage.json)
DIRECT_CAP = 24


def even_moment_direct(k: int) -> Fraction:
    """E V^(2k) by direct summation over all compositions of 2k into the six
    terms of D.

    The composition (c0, ..., c5) picks u1 v2 z3, u1 v3 z2, u2 v1 z3,
    u2 v3 z1, u3 v1 z2 and u3 v2 z1 that many times each; its sign is
    (-1)^(c1 + c2 + c5) and its integral over T_o^3 is one J per point.  The
    table holds K(a, b) = 3^(2k) (2k+3)! J(a, b, 2k - a - b), an integer as
    every denominator divides 3^(a+b) (2k+3)!, so the whole sum accumulates
    over the common denominator 3^(6k) ((2k+3)!)^3.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n2k = 2 * k
    if k > DIRECT_CAP:
        raise ValueError(
            f"k={k} exceeds the direct-path cap {DIRECT_CAP}: "
            f"{comb(n2k + 5, 5)} compositions of {n2k} into 6 parts")
    fact = [factorial(i) for i in range(n2k + 4)]
    big = fact[n2k + 3]
    table = []
    for a in range(n2k + 1):
        row = []
        for b in range(n2k + 1 - a):
            n = n2k - a - b
            s = 0
            for p in range(a + 1):
                for q in range(b + 1):
                    t = (comb(a, p) * comb(b, q) * 3 ** (n2k - a - b + p + q)
                         * fact[p] * fact[q] * fact[n] * (big // fact[p + q + n + 3]))
                    s += -t if (a + b - p - q) % 2 else t
            row.append(s)
        table.append(row)

    # point 1 is u^(c0+c1) v^(c2+c4), point 2 u^(c2+c3) v^(c0+c5), point 3
    # u^(c4+c5) v^(c1+c3); the multinomial coefficient is built one binomial
    # per part
    total = 0
    for c0 in range(n2k + 1):
        r0 = n2k - c0
        m0 = comb(n2k, c0)
        for c1 in range(r0 + 1):
            r1 = r0 - c1
            m1 = m0 * comb(r0, c1)
            point1 = table[c0 + c1]
            for c2 in range(r1 + 1):
                r2 = r1 - c2
                m2 = m1 * comb(r1, c2)
                for c3 in range(r2 + 1):
                    r3 = r2 - c3                      # = c4 + c5
                    m3 = m2 * comb(r2, c3) * table[r3][c1 + c3]
                    point2 = table[c2 + c3]
                    for c4 in range(r3 + 1):
                        c5 = r3 - c4
                        t = m3 * comb(r3, c4) * point1[c2 + c4] * point2[c0 + c5]
                        total += -t if (c1 + c2 + c5) % 2 else t
    return Fraction(216 * total, 3 ** (3 * n2k) * big ** 3)


# ---------------------------------------------------------------------------
# Laplace-expansion fast path
# ---------------------------------------------------------------------------

def _centred_integrals(k: int) -> list[list[int]]:
    """J[a][b] = 3^(a+b) (2k+3)! int_{T_o} u^a v^b z^n with n = 2k - a - b.

    Expanding u = x - 1/3 and v = y - 1/3 and grouping by the number N of
    factors -1/3 gives J = n! sum_N (-1)^N 3^(a+b-N) (2k+3)!/(2k-N+3)!
    a! b! R / N!, with R = sum_{i = max(0, N-b)}^{min(a, N)} C(N, i) a
    partial Pascal row sum; the sum runs over the denominator m! (m = a + b).
    """
    n2k = 2 * k
    fact = [factorial(i) for i in range(n2k + 4)]
    # prefix[N][t] = C(N, 0) + ... + C(N, t - 1); R = hi[a][N] - lo[b][N]
    prefix = [list(accumulate((comb(N, i) for i in range(N + 1)), initial=0))
              for N in range(n2k + 1)]
    hi = [[prefix[N][min(a, N) + 1] for N in range(n2k + 1)] for a in range(n2k + 1)]
    lo = [[prefix[N][max(0, N - b)] for N in range(n2k + 1)] for b in range(n2k + 1)]
    table: list[list[int]] = [[] for _ in range(n2k + 1)]
    for m in range(n2k + 1):
        w = [(-1) ** N * 3 ** (m - N) * (fact[n2k + 3] // fact[n2k - N + 3])
             * (fact[m] // fact[N]) for N in range(m + 1)]
        for a in range(m + 1):
            r = sum(map(mul, w, map(sub, hi[a], lo[m - a])))  # times m!/(a! b!)
            table[a].append(fact[n2k - m] * (r // comb(m, a)))
    return table


def _next_kernel(kernel: list[list[int]], e: int) -> list[list[int]]:
    """H[a][s] = [x^a y^s] (1 - x)^n1 (1 - y)^n2 (x - y)^n3 of the split
    (n1 - 1, n2 + 1, n3) at e = 0, or (n1 - 1, n2, n3 + 1) at e = 1, from
    that of (n1, n2, n3): divide by (1 - x), Q(a) = H(a) + Q(a - 1), whose
    top row must come out zero and is dropped, and multiply by x^e - y."""
    *quotient, top = accumulate(kernel, lambda q, row: list(map(add, q, row)))
    if any(top):
        raise MomentIntegrityError("split kernel is not divisible by (1 - x)")
    pad = [[0] * len(top)] * e
    return [list(map(sub, xs + [0], [0] + ys)) for xs, ys in zip(pad + quotient, quotient + pad)]


def _split_sum(table: list[list[int]], kernel: list[list[int]],
               n1: int, n2: int, n3: int) -> int:
    """Scaled integral of (z1 A1)^n1 (-z2 A2)^n2 (z3 A3)^n3 over T_o^3.

    Expanding A1^n1 over i (u2 v3 picked i times), A2^n2 over j (u1 v3) and
    A3^n3 over l (u1 v2) gives points 1, 2 and 3 the u-degrees s = j + l,
    a = i + n3 - l and 2k - a - s, and the signed weights of one (a, s) add
    up to (-1)^n2 H[a][s].  Swapping u and v keeps H and every J and maps
    row a to n1 + n3 - a, so the rows below the middle count twice.  The
    result is the integral times 3^(4k) ((2k+3)!)^3.
    """
    n2k = n1 + n2 + n3
    t1 = [table[s][n2k - n1 - s] for s in range(n2 + n3 + 1)]
    # point 3's J by a + s; H is zero where a + s < n3 or a + s > 2k
    t3 = [table[n2k - m][m - n3] if m >= n3 else 0 for m in range(n2k + 1)]
    half, odd = divmod(len(kernel), 2)
    total = 0
    for a in range(half + odd):
        inner = sum(map(mul, map(mul, kernel[a], t1), t3[a:]))
        total += (1 if a == half else 2) * table[a][n2k - n2 - a] * inner
    return -total if n2 % 2 else total


def even_moment_fast(k: int) -> Fraction:
    """E V^(2k) by Laplace expansion along z and the binomial theorem.

    Permuting the three points permutes the signed cofactors of the z column
    up to a common sign, which cancels at even total degree, so only the
    z-degree splits n1 >= n2 >= n3 are evaluated, each weighted by its
    multinomial coefficient and its orbit size.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n2k = 2 * k
    table = _centred_integrals(k)
    fact = [factorial(i) for i in range(n2k + 4)]
    total = 0
    # the kernel of (2k, 0, 0); every column with a successor has a second
    # split, one step with e = 1 from the successor's first
    head = [[(-1) ** a * comb(n2k, a)] for a in range(n2k + 1)]
    for n3 in range(n2k // 3 + 1):
        kernel = head
        for n2 in range(n3, (n2k - n3) // 2 + 1):
            n1 = n2k - n2 - n3
            if n2 > n3:
                kernel = _next_kernel(kernel, 0)
            if n2 == n3 + 1:
                head = _next_kernel(kernel, 1)
            orbit = 1 if n1 == n3 else 3 if n1 == n2 or n2 == n3 else 6
            weight = orbit * (fact[n2k] // (fact[n1] * fact[n2] * fact[n3]))
            total += weight * _split_sum(table, kernel, n1, n2, n3)
    return Fraction(216 * total, 3 ** (4 * k) * fact[n2k + 3] ** 3)


# ---------------------------------------------------------------------------
# moment table and cache file
# ---------------------------------------------------------------------------

CACHE_HEADER = "tetra-moments v1"

#: E V^(2k) for k = 1, 2, ... as exact (numerator, denominator) pairs: the
#: values on which `even_moment_direct` and `even_moment_fast` agree
PINNED_MOMENTS = (
    (1, 2000),
    (43, 27783000),
    (347, 28805414400),
    (2389, 14263395300000),
    (310483, 90249636885408000),
    (50848573, 547947041430789000000),
    (5146145063, 1687759191488971560960000),
    (340509904249, 2930261137025785408958112000),
    (88166149205341, 17736698294114901093046454400000),
    (2158961951095073, 9255628525466944515415587210144000),
    (15679873288237006351, 1327696417761787200263274906768000000000),
    (3272636850189165853, 5136366769905094886896774186602456000000),
    (10039994952996017627, 276732447829114797436111393912214941440000),
)

#: orders whose fast value must equal its pin before a table is trusted: the
#: 13 that `tetravol all` uses at its default degree; higher orders, which a
#: higher `--degree` needs, come from the fast route alone
VERIFY_ORDER_MAX = len(PINNED_MOMENTS)


class MomentTable:
    """Map k -> E V^(2k) with a provenance tag per entry.

    The orders are exactly 1..K with K >= 0, as every producer writes them
    (E V^0 = 1 is implied, never stored); the first order out of sequence is
    refused before any other check on it, so the check of order k never
    costs more than the k entries before it.  Entries must be strictly
    positive, decreasing, and bounded by (1/3)^(2k) (the pinned simplex
    volume never exceeds 1/3).
    """

    def __init__(self, values: dict[int, Fraction],
                 provenance: dict[int, str] | None = None) -> None:
        self.values = dict(values)
        self.provenance = dict(provenance or {})
        self._validate()

    def _validate(self) -> None:
        prev = None
        for expected, k in enumerate(sorted(self.values), start=1):
            if k != expected:
                raise MomentIntegrityError(f"moment orders must run 1..K: the table "
                                           f"has order {k} where order {expected} belongs")
            v = self.values[k]
            if v <= 0:
                raise MomentIntegrityError(f"moment k={k} is not positive: {v}")
            if v.numerator * 9 ** k > v.denominator:
                raise MomentIntegrityError(f"moment k={k} exceeds (1/3)^(2k): {v}")
            if prev is not None and v >= prev:
                raise MomentIntegrityError(f"moments not decreasing at k={k}")
            prev = v

    def __getitem__(self, k: int) -> Fraction:
        return self.values[k]

    def orders(self) -> list[int]:
        return sorted(self.values)

    def provenance_summary(self) -> str:
        """One order range per run of equal tags, e.g. 'direct:1-13 fast:14-20'."""
        parts = []
        for tag, run in groupby(self.orders(), lambda k: self.provenance.get(k, "unknown")):
            first, *rest = run
            parts.append(f"{tag}:{first}-{rest[-1]}" if rest else f"{tag}:{first}")
        return " ".join(parts)

    def write(self, path: str | Path) -> None:
        """Write `_cache_text` of the table to a temporary file beside `path`
        and rename it over `path`, atomically: a failed or interrupted write
        leaves whatever was at `path` whole and no temporary file behind."""
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        try:
            tmp.write_text(_cache_text(self.values), newline="\n")
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    @classmethod
    def read(cls, path: str | Path) -> "MomentTable":
        """The table in `path` if the file is exactly `_cache_text` of the
        values on its lines that read as three integers k, num, den (E V^(2k)
        = num/den), header included; else the first line that differs is
        refused as `path:line`, a missing or wrong header as `path:1`.  A
        byte that is not UTF-8 reads as U+FFFD.  A file whose orders do not
        run 1..K is refused naming `path` and the first missing order."""
        lines = Path(path).read_bytes().decode("utf-8", "replace").splitlines(keepends=True)
        values: dict[int, Fraction] = {}
        for line in lines:
            try:
                k, num, den = map(int, line.split("\t"))
                values[k] = Fraction(num, den)
            except (ValueError, ZeroDivisionError):
                continue
        written = _cache_text(values).splitlines(keepends=True)
        for n, (got, want) in enumerate(zip_longest(lines, written), start=1):
            if got != want:
                got, want = ("the end of the file" if s is None else repr(s)[:60]
                             for s in (got, want))
                raise MomentCacheError(f"{path}:{n}: {got}, where the file "
                                       f"written from the orders read has {want}")
        try:
            return cls(values, {k: "file" for k in values})
        except MomentIntegrityError as exc:
            raise MomentIntegrityError(f"{path}: {exc}") from exc


def _cache_text(values: dict[int, Fraction]) -> str:
    """The moment file of `values`, and the one definition of its format."""
    return CACHE_HEADER + "\n" + "".join(
        f"{k}\t{values[k].numerator}\t{values[k].denominator}\n" for k in sorted(values))


def moment_table(k_max: int,
                 report: Callable[[int, Fraction, str], object] | None = None
                 ) -> MomentTable:
    """Moments 1..k_max by the fast route, checked against the pins.

    Each order up to VERIFY_ORDER_MAX is compared bit-exactly with its pin,
    the direct enumerator's value, as soon as it is computed; any mismatch is
    a hard integrity failure.  Checked orders are tagged "direct", the others
    "fast".  Each order, once checked, is passed to `report` as (k, value,
    tag) before the next is computed.  No file is read or written.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    values, provenance = {}, {}
    for k in range(1, k_max + 1):
        values[k] = even_moment_fast(k)
        if k <= VERIFY_ORDER_MAX:
            direct = Fraction(*PINNED_MOMENTS[k - 1])
            if values[k] != direct:
                raise MomentIntegrityError(
                    f"moment k={k}: fast value {values[k]} != direct value {direct}")
        provenance[k] = "direct" if k <= VERIFY_ORDER_MAX else "fast"
        if report is not None:
            report(k, values[k], provenance[k])
    return MomentTable(values, provenance)
