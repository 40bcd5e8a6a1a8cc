"""Exact even moments of the pinned random simplex volume.

Let X1, X2, X3 be uniform in a tetrahedron T of volume one and c the centroid
of one facet.  The volume of conv(X1, X2, X3, c) is |det M|/6 for the usual
bordered 4x4 matrix M; by affine invariance everything reduces to integrals
over the standard tetrahedron T_o with c = (1/3, 1/3, 0).  Writing the
determinant polynomial as D, the even moments are

    E V^(2k) = 6^3 * int_{T_o^3} D^(2k),        D = (1/3) * (18 signed terms).

Two independent evaluation routes are implemented:

* `even_moment_direct` - the multinomial-theorem enumerator: a sum of
  closed-form integrals over all compositions of 2k into 18 parts.  Exact and
  simple, but the composition count C(2k+17, 17) explodes; capped at
  k = DIRECT_CAP = 5.

* `even_moment_fast` - a collapsed evaluation that never materializes the
  9-variable expansion.  Each of the 18 terms contains exactly one z
  coordinate, so 3D = z1*F1 + z2*F2 + z3*F3 where each F_i involves only the
  x/y coordinates of the other two points.  Read in their own variable
  layouts, F2 = -F1 and F3 = F1, so one table of powers of F = F1 serves all
  three, and every order in the process.  For each z-degree split
  (n1, n2, n3) the integral of the product factorizes per point into
  factorial weights, giving small exact-integer matrix sandwiches instead of
  a gigantic monomial dictionary; each matrix product packs its rows into
  single big integers.  All arithmetic stays in integers until the final
  division.

The two routes must agree bit-exactly wherever both run; `moment_table`
enforces that cross-check before trusting any cached values.  It runs the
direct route for k <= 4 in one forked child while the parent runs the fast
route, and compares the child's values exactly once both are done.
"""

from __future__ import annotations

import itertools
import os
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

__all__ = [
    "TERMS_3D",
    "VAR_NAMES",
    "composition_count",
    "even_moment_direct",
    "even_moment_fast",
    "MomentTable",
    "moment_table",
    "MomentCacheError",
    "MomentIntegrityError",
]

#: variable order of the exponent 9-tuple (l1, m1, n1, l2, m2, n2, l3, m3, n3)
VAR_NAMES = ("x1", "y1", "z1", "x2", "y2", "z2", "x3", "y3", "z3")
_VAR_INDEX = {v: i for i, v in enumerate(VAR_NAMES)}

#: the 18 signed terms of 3*D, in the determinant-expansion order.  This is
#: the single source of truth: the direct enumerator and the collapsed fast
#: path are both derived from it.
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


class MomentCacheError(RuntimeError):
    """Moment cache file is malformed."""


class MomentIntegrityError(RuntimeError):
    """A cached or recomputed moment disagrees with the direct enumerator."""


# ---------------------------------------------------------------------------
# direct enumerator
# ---------------------------------------------------------------------------

def composition_count(k: int) -> int:
    """Number of compositions of 2k into 18 parts: C(2k+17, 17)."""
    return comb(2 * k + 17, 17)


#: highest order the direct enumerator accepts: k = 6 already walks 51.9M
#: compositions
DIRECT_CAP = 5


def even_moment_direct(k: int) -> Fraction:
    """E V^(2k) by direct summation over all compositions of 2k into 18 parts.

    The recursion walks the composition tree once, carrying the multinomial
    coefficient, the sign/power-of-3 counters and the exponent vector
    incrementally; each leaf costs a handful of integer multiplies.  The
    denominators (l+m+n+3)! all divide (2k+3)!, so the whole sum accumulates
    over the common denominator ((2k+3)!)^3 in pure integer arithmetic.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > DIRECT_CAP:
        raise ValueError(
            f"k={k} exceeds the direct-path cap {DIRECT_CAP}: "
            f"{composition_count(k)} compositions of {2*k} into 18 parts")
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
# collapsed fast path
# ---------------------------------------------------------------------------

def _z_split() -> tuple[dict, dict]:
    """Group the 18 terms by their z variable.

    3D = z1*F1 + z2*F2 + z3*F3.  F1 involves only (x2, y2, x3, y3), F2 only
    (x1, y1, x3, y3), F3 only (x1, y1, x2, y2).  Keyed by the 4-tuple of
    exponents in that variable order, F2 = -F1 and F3 = F1; the fast path
    relies on this, so any other split raises MomentIntegrityError.  Returns
    F = F1 and the three layouts.
    """
    layouts = {
        1: ("x2", "y2", "x3", "y3"),
        2: ("x1", "y1", "x3", "y3"),
        3: ("x1", "y1", "x2", "y2"),
    }
    groups: dict[int, dict[tuple[int, int, int, int], int]] = {1: {}, 2: {}, 3: {}}
    for coeff, vars_ in TERMS_3D:
        zi = next(int(v[1]) for v in vars_ if v.startswith("z"))
        key = [0, 0, 0, 0]
        for v in vars_:
            if not v.startswith("z"):
                key[layouts[zi].index(v)] += 1
        kt = tuple(key)
        groups[zi][kt] = groups[zi].get(kt, 0) + coeff
    f = groups[1]
    if groups[2] != {kt: -c for kt, c in f.items()} or groups[3] != f:
        raise MomentIntegrityError("TERMS_3D does not split as z1*F - z2*F + z3*F")
    return f, layouts


def _poly4_mul(p: dict, q: dict) -> dict:
    out: dict[tuple[int, int, int, int], int] = {}
    get = out.get
    for (a0, a1, a2, a3), ca in p.items():
        for (b0, b1, b2, b3), cb in q.items():
            key = (a0 + b0, a1 + b1, a2 + b2, a3 + b3)
            out[key] = get(key, 0) + ca * cb
    return {key: c for key, c in out.items() if c}


def _as_matrix(poly4: dict) -> tuple[list, list, list[list[int]]]:
    """Split the 4-tuple keys into (front pair) x (back pair) matrix form."""
    rows = sorted({(a, b) for (a, b, _, _) in poly4})
    cols = sorted({(c, d) for (_, _, c, d) in poly4})
    ri = {r: i for i, r in enumerate(rows)}
    ci = {c: i for i, c in enumerate(cols)}
    m = [[0] * len(cols) for _ in rows]
    for (a, b, c, d), coeff in poly4.items():
        m[ri[(a, b)]][ci[(c, d)]] = coeff
    return rows, cols, m


#: matrix forms of F^0, F^1, ...: the powers of F do not depend on the order
#: k, so every order reads them from this one table, which `_power_matrices`
#: grows on demand
_F_POWERS: list[tuple] = []


def _power_matrices(nmax: int) -> list[tuple]:
    """Matrix forms of F^0..F^nmax, extending the shared table if it is short."""
    if len(_F_POWERS) <= nmax:
        f, _ = _z_split()
        if not _F_POWERS:
            _F_POWERS.append(_as_matrix({(0, 0, 0, 0): 1}))
        # keep only the matrix forms, not every power twice; the top one is
        # read back into a polynomial to extend the table
        rows, cols, m = _F_POWERS[-1]
        p = {r + c: v for r, mrow in zip(rows, m) for c, v in zip(cols, mrow) if v}
        while len(_F_POWERS) <= nmax:
            p = _poly4_mul(p, f)
            _F_POWERS.append(_as_matrix(p))
    return _F_POWERS[:nmax + 1]


def _weight_kernel(row_pairs: list, col_pairs: list, nz: int,
                   fact: list[int], big: int) -> list[list[int]]:
    """K[u][v] = l! m! nz! (2k+3)!/(l+m+nz+3)! with (l, m) = pair_u + pair_v.

    This is the one-point monomial integral over T_o, scaled by (2k+3)! so it
    stays an integer (each l + m + nz is at most 2k).
    """
    fz = fact[nz]
    return [[fact[r0 + c0] * fact[r1 + c1] * fz * (big // fact[r0 + c0 + r1 + c1 + nz + 3])
             for (c0, c1) in col_pairs]
            for (r0, r1) in row_pairs]


def _matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """Exact integer product a @ b by Kronecker substitution.

    Each row of b is packed into one integer with a w-byte slot per column,
    so a row of the product is one sum of big-integer multiples.  Every
    entry of the product is bounded by max|a| * max|b| * len(b) < 2^(8w-1);
    a bias of 2^(8w-1) in every slot makes all slots non-negative and below
    2^(8w), so the slots unpack exactly from the bytes of the row.  The
    entries of b are below 2^(8w-1) too, so b packs with the same bias.
    """
    ncols = len(b[0])
    amax = max(max(max(row), -min(row)) for row in a)
    bmax = max(max(max(row), -min(row)) for row in b)
    if not amax or not bmax:  # w would not hold the other operand's entries
        return [[0] * ncols for _ in a]
    w = ((amax * bmax * len(b)).bit_length() + 8) // 8
    size = w * ncols
    half = 1 << (8 * w - 1)
    bias = int.from_bytes(half.to_bytes(w, "little") * ncols, "little")
    packed = [int.from_bytes(b"".join([(v + half).to_bytes(w, "little") for v in row]),
                             "little") - bias
              for row in b]
    out = []
    for arow in a:
        acc = bias
        for av, pv in zip(arow, packed):
            if av:
                acc += av * pv
        raw = acc.to_bytes(size, "little")
        out.append([int.from_bytes(raw[s:s + w], "little") - half
                    for s in range(0, size, w)])
    return out


def _transpose(m: list[list[int]]) -> list[list[int]]:
    return [list(row) for row in zip(*m)]


def _triple_contribution(mats: list[tuple], split: tuple[int, int, int],
                         fact: list[int], big: int) -> int:
    """Scaled integral of z1^n1 z2^n2 z3^n3 F1^n1 F2^n2 F3^n3 over T_o^3.

    mats[n] is the matrix form of F^n; F2^n2 = (-1)^n2 F^n2 supplies the sign.
    The per-point weight kernels absorb the full monomial integrals, so the
    result is the exact integral times ((2k+3)!)^3.
    """
    n1, n2, n3 = split
    p2_rows, p3u_cols, m1 = mats[n1]
    p1_rows, p3v_cols, m2 = mats[n2]
    p1v_rows, p2v_cols, m3 = mats[n3]
    w3 = _weight_kernel(p3u_cols, p3v_cols, n3, fact, big)
    g3 = _matmul(_matmul(m1, w3), _transpose(m2))          # point2 x point1
    w1 = _weight_kernel(p1_rows, p1v_rows, n1, fact, big)
    w2 = _weight_kernel(p2_rows, p2v_cols, n2, fact, big)
    h = _matmul(_matmul(_transpose(w2), g3), w1)           # point2v x point1v
    j = 0
    for i, row in enumerate(m3):
        for jj, v in enumerate(row):
            if v:
                j += v * h[jj][i]
    return -j if n2 % 2 else j


def even_moment_fast(k: int) -> Fraction:
    """E V^(2k) by the collapsed point-at-a-time evaluation.

    Swapping two random points permutes (F1, F2, F3) up to signs that cancel
    at even total degree, so only ordered z-degree splits n1 >= n2 >= n3 are
    evaluated, weighted by their orbit size.  Results are exact integers until
    the final division.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n2k = 2 * k
    mats = _power_matrices(n2k)
    fact = [factorial(i) for i in range(n2k + 4)]
    big = fact[n2k + 3]

    total = 0
    for n1 in range(n2k, -1, -1):
        for n2 in range(min(n1, n2k - n1), -1, -1):
            n3 = n2k - n1 - n2
            if n3 > n2:
                continue
            orbit = len({p for p in itertools.permutations((n1, n2, n3))})
            weight = orbit * (fact[n2k] // (fact[n1] * fact[n2] * fact[n3]))
            total += weight * _triple_contribution(mats, (n1, n2, n3), fact, big)
    return Fraction(216 * total, 3 ** n2k * big ** 3)


# ---------------------------------------------------------------------------
# moment table and cache file
# ---------------------------------------------------------------------------

CACHE_HEADER = "tetra-moments v1"

#: orders re-verified against the direct enumerator before a table is trusted
VERIFY_ORDER_MAX = 4


class MomentTable:
    """Map k -> E V^(2k) with a provenance tag per entry.

    Orders must be at least 1 (E V^0 = 1 is implied, never stored).  Entries
    must be strictly positive, decreasing, and bounded by (1/3)^(2k) (the
    pinned simplex volume never exceeds 1/3).
    """

    def __init__(self, values: dict[int, Fraction],
                 provenance: dict[int, str] | None = None) -> None:
        self.values = dict(values)
        self.provenance = dict(provenance or {})
        self._validate()

    def _validate(self) -> None:
        prev = None
        for k in sorted(self.values):
            v = self.values[k]
            if k < 1:
                raise MomentIntegrityError(f"moment order {k} is below 1")
            if v <= 0:
                raise MomentIntegrityError(f"moment k={k} is not positive: {v}")
            # v > (1/3)^(2k) = 9^-k.  As 9^k >= 2^(3k), a denominator of at
            # most bitlen(num) - 1 + 3k bits settles it without 9^k; past
            # that, 9^k has at most about as many bits as den, so the exact
            # test costs no more than the size of the input
            num, den = v.numerator, v.denominator
            if den.bit_length() <= num.bit_length() - 1 + 3 * k or num * 9 ** k > den:
                raise MomentIntegrityError(f"moment k={k} exceeds (1/3)^(2k): {v}")
            if prev is not None and v >= prev:
                raise MomentIntegrityError(f"moments not decreasing at k={k}")
            prev = v

    def __getitem__(self, k: int) -> Fraction:
        return self.values[k]

    def __contains__(self, k: int) -> bool:
        return k in self.values

    @property
    def order_max(self) -> int:
        return max(self.values) if self.values else 0

    def orders(self) -> list[int]:
        return sorted(self.values)

    def provenance_summary(self) -> str:
        """Compact per-source order ranges, e.g. 'direct:1-4 fast:5-13'."""
        by_tag: dict[str, list[int]] = {}
        for k in sorted(self.values):
            by_tag.setdefault(self.provenance.get(k, "unknown"), []).append(k)
        parts = []
        for tag in sorted(by_tag):
            ks = by_tag[tag]
            runs = []
            start = prev = ks[0]
            for k in ks[1:]:
                if k == prev + 1:
                    prev = k
                    continue
                runs.append((start, prev))
                start = prev = k
            runs.append((start, prev))
            spans = ",".join(f"{a}-{b}" if a != b else f"{a}" for a, b in runs)
            parts.append(f"{tag}:{spans}")
        return " ".join(parts)

    def write(self, path: str | Path) -> None:
        lines = [CACHE_HEADER]
        for k in sorted(self.values):
            v = self.values[k]
            lines.append(f"{k}\t{v.numerator}\t{v.denominator}")
        Path(path).write_text("\n".join(lines) + "\n", newline="\n")

    @classmethod
    def read(cls, path: str | Path) -> "MomentTable":
        text = Path(path).read_text()
        lines = text.split("\n")
        if not lines or lines[0] != CACHE_HEADER:
            raise MomentCacheError(f"{path}: missing header {CACHE_HEADER!r}")
        values: dict[int, Fraction] = {}
        for ln, line in enumerate(lines[1:], start=2):
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise MomentCacheError(f"{path}:{ln}: expected k<TAB>num<TAB>den")
            try:
                k, num, den = (int(f) for f in fields)
            except ValueError as exc:
                raise MomentCacheError(f"{path}:{ln}: non-integer field") from exc
            if k in values:
                raise MomentCacheError(f"{path}:{ln}: duplicate order {k}")
            if den <= 0:
                raise MomentCacheError(f"{path}:{ln}: denominator must be positive")
            frac = Fraction(num, den)
            if frac.numerator != num or frac.denominator != den:
                raise MomentCacheError(f"{path}:{ln}: fraction {num}/{den} not reduced")
            values[k] = frac
        return cls(values, {k: "file" for k in values})


def _replace_cache(table: MomentTable, path: Path) -> None:
    """Write the table beside `path` and rename it over `path`, atomically: a
    failed or interrupted write leaves the old cache whole and no temp file."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        table.write(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _start_direct_oracle(k_top: int) -> tuple[int, int]:
    """Fork a child that computes even_moment_direct(k) for k = 1..k_top.

    The child writes one str(Fraction) line per order to a pipe and leaves
    through os._exit, so it never returns into the caller, runs no atexit
    handler and flushes none of the stdio buffers it inherited; its exit
    status is 0 only after every order was written.  It runs only
    pure-integer Python code, which needs none of the threads that a native
    library such as numpy's BLAS may have started in the parent (fork copies
    only the calling thread).  Returns the child's pid and the read end of
    the pipe.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write_fd)
        return pid, read_fd
    status = 1
    try:
        os.close(read_fd)
        with os.fdopen(write_fd, "w") as reply:
            for k in range(1, k_top + 1):
                reply.write(f"{even_moment_direct(k)}\n")
        status = 0
    finally:
        os._exit(status)


def _direct_values(k_top: int, reply: str, status: int) -> dict[int, Fraction]:
    """Parse the oracle child's reply, naming the first order it did not give."""
    lines = reply.splitlines()
    code = os.waitstatus_to_exitcode(status)
    if code:
        raise MomentIntegrityError(
            f"moment k={min(len(lines) + 1, k_top)}: the direct enumerator's "
            f"process exited with status {code}")
    direct = {}
    for k in range(1, k_top + 1):
        if k > len(lines):
            raise MomentIntegrityError(
                f"moment k={k}: the direct enumerator's reply ended early")
        try:
            direct[k] = Fraction(lines[k - 1])
        except ValueError:
            raise MomentIntegrityError(
                f"moment k={k}: the direct enumerator replied "
                f"{lines[k - 1]!r}") from None
    return direct


def moment_table(k_max: int, cache_path: str | Path | None = None) -> MomentTable:
    """Moments 1..k_max, from cache where available, fast path otherwise.

    Orders up to min(4, k_max) are recomputed with the direct enumerator and
    compared bit-exactly before the table is trusted; any mismatch is a hard
    integrity failure, whether the suspect value came from a file or from the
    fast engine.  The direct enumerator runs in one forked child beside the
    fast engine, so the two overlap on a machine with two or more cores; the
    comparison waits for both.  A child that fails, or whose reply is short
    or unreadable, is an integrity failure too; if the fast loop raises, the
    child is killed and reaped before the exception propagates.  When a
    cache path is given, the table is written to it after each newly
    computed moment, by an atomic rename, so an interrupted run resumes
    where it left off.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    values: dict[int, Fraction] = {}
    provenance: dict[int, str] = {}
    if cache_path is not None and Path(cache_path).exists():
        cached = MomentTable.read(cache_path)
        for k, v in cached.values.items():
            if k <= k_max:
                values[k] = v
                provenance[k] = "file"

    k_top = min(VERIFY_ORDER_MAX, k_max)
    pid, read_fd = _start_direct_oracle(k_top)
    try:
        with os.fdopen(read_fd) as reply:
            for k in range(1, k_max + 1):
                if k not in values:
                    values[k] = even_moment_fast(k)
                    provenance[k] = "fast"
                    if cache_path is not None:
                        _replace_cache(MomentTable(values, provenance), Path(cache_path))
            text = reply.read()
        _, status = os.waitpid(pid, 0)
    except BaseException:
        # no oracle may outlive a failed run, nor be left unreaped
        import signal  # only this path needs it, so importing tetravol does not load it
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise

    for k, direct in _direct_values(k_top, text, status).items():
        if values[k] != direct:
            raise MomentIntegrityError(
                f"moment k={k}: {provenance[k]} value {values[k]} != "
                f"direct value {direct}")
        provenance[k] = "direct"

    return MomentTable(values, provenance)
