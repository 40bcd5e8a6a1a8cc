"""Interpolation nodes for the Hermite majorant, and a grid-LP oracle.

The best even-polynomial upper bound of degree 2n - 1 in t = x^2 solves

    min sum_i a_i mu_{2i}   s.t.   P(x) >= x on [0, 1/3],

and is the Hermite majorant at the n-point Gauss nodes of the law of t (the
Markov-Krein extremal property; Krein & Nudelman 1977).  `gauss_nodes`
computes them for `tetravol search` by an exact three-term recurrence.

The grid LP below, which `search` does not use, is an independent float
oracle for tests and the benchmark tracer: on a finite grid the problem is
an LP whose optimum is a lower bound on the constrained one, solved in dual
form by a dense two-phase simplex with Bland's rule and rebuilt exactly by
`_solve_exact`.  `extract_nodes` estimates each active cluster by its
midpoint.  The certificate trusts nothing in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .certificate import _horner, _primitive, sign_variations
from .majorant import _require_orders
from .moments import MomentIntegrityError, MomentTable
from .rational import _integer_numerators

#: constraints with relative residual below this are reported active
ACTIVE_TOLERANCE = 1e-9

_PIVOT_TOL = 1e-11


class LpError(RuntimeError):
    """Simplex solver failed (should be impossible for well-posed inputs)."""


@dataclass(frozen=True)
class LpProblem:
    """Finite one-sided approximation LP.

    degree: highest i of the even powers x^(2i); the polynomial has degree+1
    coefficients.  grid: sorted constraint points inside [0, 1/3] whose
    maximum must be 1/3.  moments: float values of E V^(2i) for i = 1..degree.
    """

    degree: int
    grid: tuple[float, ...]
    moments: tuple[float, ...]

    def __post_init__(self) -> None:
        g = self.grid
        if any(b <= a for a, b in zip(g, g[1:])):
            raise ValueError("grid must be strictly increasing")
        if g[0] < 0 or abs(g[-1] - 1 / 3) > 1e-15:
            raise ValueError("grid must lie in [0, 1/3] with maximum 1/3")
        if len(self.moments) != self.degree:
            raise ValueError(f"need {self.degree} moments, got {len(self.moments)}")
        if len(g) < self.degree + 1:
            raise ValueError("grid must have at least degree+1 points")

    @classmethod
    def equispaced(cls, degree: int, intervals: int, moments: MomentTable) -> "LpProblem":
        if intervals < 1:
            raise ValueError(f"grid needs at least 1 interval, got {intervals}")
        grid = tuple(i / (3 * intervals) for i in range(intervals + 1))
        mu = tuple(float(moments[i]) for i in range(1, degree + 1))
        return cls(degree, grid, mu)


@dataclass
class LpSolution:
    objective: float
    active_indices: list[int]
    coefficients_exact: tuple[Fraction, ...] = field(repr=False)  # u = 3x scale
    grid: tuple[float, ...] = field(repr=False)


def _solve_exact(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Gaussian elimination over the rationals (partial pivoting on magnitude);
    a singular matrix raises ValueError."""
    n = len(rhs)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(aug[r][col]))
        if aug[pivot][col] == 0:
            raise ValueError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


def _pivot(tableau, basis: list[int], row: int, col: int) -> None:
    tableau[row, :] /= tableau[row, col]
    for r in range(tableau.shape[0]):
        if r != row and tableau[r, col] != 0.0:
            tableau[r, :] -= tableau[r, col] * tableau[row, :]
    basis[row] = col


def _simplex_min(tableau, basis: list[int], ncols: int) -> None:
    """Run Bland's-rule simplex on a tableau in canonical form (min problem).

    Columns 0..ncols-1 are eligible to enter; the last column is the RHS and
    the last row holds reduced costs.  Bland's rule (lowest eligible index
    enters, lowest basic index breaks leaving ties) precludes cycling.
    """
    m = tableau.shape[0] - 1
    while True:
        enter = -1
        for j in range(ncols):
            if tableau[m, j] < -_PIVOT_TOL:
                enter = j
                break
        if enter < 0:
            return
        best_ratio = None
        leave = -1
        for r in range(m):
            a = tableau[r, enter]
            if a > _PIVOT_TOL:
                ratio = tableau[r, -1] / a
                if (best_ratio is None or ratio < best_ratio - 1e-12
                        or (abs(ratio - best_ratio) <= 1e-12 and basis[r] < basis[leave])):
                    best_ratio = ratio
                    leave = r
        if leave < 0:
            raise LpError("unbounded pivot column; cannot happen with a bounded dual")
        _pivot(tableau, basis, leave, enter)


def solve_onesided_lp(problem: LpProblem) -> LpSolution:
    """Solve the grid-relaxed one-sided LP; returns the primal optimum.

    Internally rescales to u = 3x so every tableau entry starts in [0, 1],
    then solves the dual (max sum_l x_l y_l subject to the moment-matching
    equalities) whose simplex multipliers are minus the primal coefficients.
    """
    import numpy as np  # only the LP oracle needs it; `search` never loads it

    n = problem.degree
    m = n + 1
    u = np.asarray(problem.grid, dtype=float) * 3.0
    g = np.asarray(problem.grid, dtype=float)
    nu = np.array([1.0] + [problem.moments[i - 1] * 9.0**i for i in range(1, m)])
    cols = len(u)
    A = np.vstack([u ** (2 * i) for i in range(m)])

    # phase 1: minimize the sum of artificials (feasible start: nu >= 0)
    tableau = np.zeros((m + 1, cols + m + 1))
    tableau[:m, :cols] = A
    tableau[:m, cols:cols + m] = np.eye(m)
    tableau[:m, -1] = nu
    basis = list(range(cols, cols + m))
    tableau[m, :] = -tableau[:m, :].sum(axis=0)
    tableau[m, cols:cols + m] = 0.0
    _simplex_min(tableau, basis, cols + m)
    if tableau[m, -1] < -1e-8:
        raise LpError("phase 1 ended infeasible; the moment vector is inconsistent")

    # drive any degenerate artificial out of the basis before phase 2
    for r, b in enumerate(basis):
        if b >= cols:
            enter = next((j for j in range(cols) if abs(tableau[r, j]) > _PIVOT_TOL), None)
            if enter is None:
                raise LpError("redundant moment row; the power moments are dependent")
            _pivot(tableau, basis, r, enter)

    # phase 2: minimize -g^T y over the real columns only
    tableau[m, :] = 0.0
    tableau[m, :cols] = -g
    for r, b in enumerate(basis):
        if tableau[m, b] != 0.0:
            tableau[m, :] -= tableau[m, b] * tableau[r, :]
    _simplex_min(tableau, basis, cols)

    # The vertex is reconstructed exactly: basis columns, grid points and the
    # float moments are all rationals, so the multipliers (= minus the primal
    # coefficients, u-scale) come out of exact elimination.  A float solve
    # leaves ~1e-8 noise on a degree-26 polynomial, which would drown the
    # active-set tolerance; exact residuals are 0 at basic columns.
    basic = sorted(basis)
    u_exact = [Fraction(x) * 3 for x in problem.grid]
    bt = [[u_exact[col] ** (2 * i) for i in range(m)] for col in basic]
    rhs = [-Fraction(g[col]) for col in basic]
    pi = _solve_exact(bt, rhs)
    b_exact = [-p for p in pi]

    nu_exact = [Fraction(1)] + [Fraction(problem.moments[i - 1]) * 9**i
                                for i in range(1, m)]
    objective = sum(b * w for b, w in zip(b_exact, nu_exact))

    active = []
    worst = Fraction(0)
    for idx, u_l in enumerate(u_exact):
        t = u_l * u_l
        s = Fraction(0)
        for b in reversed(b_exact):
            s = s * t + b
        r = s - u_l / 3
        worst = min(worst, r)
        if r <= ACTIVE_TOLERANCE * max(Fraction(g[-1]), u_l / 3):
            active.append(idx)
    if worst < -Fraction(ACTIVE_TOLERANCE):
        raise LpError(f"vertex violates a grid constraint by {float(worst)}")
    if not active:
        raise LpError("optimal solution touches no constraint; impossible at an optimum")
    return LpSolution(
        objective=float(objective),
        active_indices=active,
        coefficients_exact=tuple(b_exact),
        grid=problem.grid,
    )


def _cluster_contiguous(indices: Sequence[int]) -> list[list[int]]:
    clusters: list[list[int]] = []
    current = [indices[0]]
    for i in indices[1:]:
        if i == current[-1] + 1:
            current.append(i)
        else:
            clusters.append(current)
            current = [i]
    clusters.append(current)
    return clusters


def extract_nodes(solution: LpSolution) -> list[float]:
    """One node estimate per active cluster, excluding x = 0.

    Contiguous active grid indices are clustered around each touch point of
    the continuous problem.  A cluster is estimated by the midpoint of its
    first and last grid points, or by the grid's right end, 1/3, when it
    holds the last index; a lone cluster at index 0 is skipped.
    """
    g = solution.grid
    active = sorted(solution.active_indices)
    if not active:
        raise LpError("no active clusters")
    last = len(g) - 1
    return [float(g[last]) if cluster[-1] == last
            else float(0.5 * (g[cluster[0]] + g[cluster[-1]]))
            for cluster in _cluster_contiguous(active) if cluster != [0]]


def gauss_nodes(n: int, moments: MomentTable) -> list[float]:
    """Square roots of the n-point Gauss nodes of the law of t = V^2, as floats.

    The nodes are the roots of the monic orthogonal polynomial p_n(t).  The
    Chebyshev algorithm (Gautschi 2004, sec. 2.1.7) builds its recurrence
    p_(k+1) = (t - alpha_k) p_k - beta_k p_(k-1) over the rationals from
    m_0 = 1 and m_i = E t^i up to order 2n - 1.  When every beta_k > 0, the
    primitive integer forms of p_n, ..., p_0 are a Sturm sequence for p_n
    (Szego 1939, sec. 3.3): its counts at 0 and 1/9 check that all n roots
    lie in (0, 1/9) and start their exact bisection; only the square root is
    a float.  A table without every order 1..2n - 1 raises MomentOrderError
    from `majorant._require_orders`, at once for any n; a beta_k <= 0
    (Hankel matrix not positive definite) or a root outside (0, 1/9), which
    V's moments cannot have, raises MomentIntegrityError.
    """
    _require_orders(moments, nodes=n)
    order = 2 * n - 1
    # sigma[l] = E p_k(t) t^l; one recurrence step advances both it and p_k
    sigma = [Fraction(1)] + [moments[i] for i in range(1, order + 1)]
    prev, norm = [0] * order, Fraction(1)  # sigma of p_(k-1), and its norm
    old, p, chain = [0], [Fraction(1)], [[1]]  # p_(k-1), p_k ascending in t
    for k in range(n):
        if sigma[k] <= 0:
            raise MomentIntegrityError(
                f"moments to order {order} give beta_{k} <= 0: their Hankel "
                f"matrix is not positive definite, so they are not the moments of V")
        alpha, beta = sigma[k + 1] / sigma[k] - prev[k] / norm, sigma[k] / norm
        old, p = p, [a - alpha * b - beta * c for a, b, c in zip([0] + p, p + [0], old + [0, 0])]
        prev, norm, sigma = sigma, sigma[k], [
            a - alpha * b - beta * c for a, b, c in zip(sigma[1:], sigma, prev)]
        chain.insert(0, _primitive(_integer_numerators(p)[0][::-1]))
    try:
        low, high = sign_variations(chain, 0, 9), sign_variations(chain, 1, 9)
    except ValueError:  # a root at 0 or 1/9, so not n roots inside
        low = high = 0
    if low - high != n:
        raise MomentIntegrityError(
            f"moments to order {order} have no {n}-point Gauss rule with nodes "
            f"t = V^2 in (0, 1/9), so they are not the moments of V")
    return [math.sqrt(t) for t in _roots(chain, low, high)]


#: a root is settled in a cell (a, b)/(9 * 2^e) with (b - a) * 2^_NODE_BITS <= a
_NODE_BITS = 60


def _roots(chain: list[list[int]], low: int, high: int) -> list[Fraction]:
    """The low - high simple roots of chain[0] in (0, 1/9), each to a relative
    width of 2^-60; `low` and `high` count the sign variations of the Sturm
    sequence `chain` at 0 and 1/9, where chain[0] must not vanish.

    One bisection on integer cells (a, b)/(9 * 2^e) carries the counts at
    both ends of each cell and the sign of chain[0] at its left end, so a
    cell holding two or more roots counts only its midpoint, and a cell
    holding one root splits on the sign of chain[0] until (b - a) 2^60 <= a.
    A midpoint where chain[0] vanishes moves to (a + mid)/2.  Each root is
    the midpoint of its last cell, the one that bisection over the rationals
    reaches.
    Cells wait on a stack, left first, so no root is too deep to reach.
    """
    p, roots = chain[0], []
    cells = [(0, 1, 0, low, high, p[-1] > 0)]
    while cells:
        a, b, e, va, vb, positive = cells.pop()
        if va == vb:
            continue
        if va - vb == 1 and (b - a) << _NODE_BITS <= a:
            roots.append(Fraction(a + b, 9 << (e + 1)))
            continue
        mid, a, b, e = a + b, 2 * a, 2 * b, e + 1
        while not (value := _horner(p, mid, 9 << e)):  # step off an exact root
            mid, a, b, e = a + mid, 2 * a, 2 * b, e + 1
        if va - vb > 1:
            vm = sign_variations(chain, mid, 9 << e)
        else:  # the root is left of mid when the sign of chain[0] changes
            vm = va - ((value > 0) != positive)
        cells += [(mid, b, e, vm, vb, value > 0), (a, mid, e, va, vm, positive)]
    return roots


def polish_nodes(nodes: Sequence[float], moments: MomentTable) -> list[float]:
    """The exact minimiser of E P(V) over Hermite majorants with len(nodes)
    nodes: the Gauss nodes.  Only the count of the estimates is used."""
    return gauss_nodes(len(nodes), moments)


def rationalize(x: float, max_denominator: int = 100) -> Fraction:
    """Best rational approximation of x with denominator <= max_denominator.

    Continued-fraction convergents/semiconvergents via
    Fraction.limit_denominator, which raises ValueError for a bound below 1;
    exact inputs p/q with q <= max_denominator round-trip.
    """
    return Fraction(x).limit_denominator(max_denominator)
