"""Heuristic discovery of good interpolation nodes via linear programming.

The best even-polynomial upper bound of fixed degree solves

    min sum_i a_i mu_{2i}   s.t.   P(x) >= x on [0, 1/3],

and relaxing the constraint to a finite grid x_0 < ... < x_L gives a finite
LP whose optimum is a lower bound on the constrained optimum.  The LP is
solved in its dual form (n+1 equality rows, one nonnegative weight per grid
point) with a dense two-phase tableau simplex using Bland's rule; the problem
is tiny, so no external solver is needed.  Everything here is floating-point
scaffolding: the discovered nodes are rationalized and handed to the exact
certificate pipeline, which never trusts this module.

The grid optimum's touch points sit up to one grid step away from the
tangencies of the continuous optimum, so `extract_nodes` refines each active
cluster to the tangency of the LP polynomial, and `polish_nodes` then drives
the node vector to a local minimum of the continuous objective (the expected
value of the Hermite majorant as a function of its nodes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .majorant import hermite_coefficients
from .moments import MomentTable

#: constraints with relative residual below this are reported active
ACTIVE_TOLERANCE = 1e-9

_PIVOT_TOL = 1e-11

#: coordinate-descent sweeps in `polish_nodes`; it stops early once converged
POLISH_SWEEPS = 200


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
    grid: np.ndarray = field(repr=False)

    # Degree-26 coefficients reach ~1e22 in x-scale, so float evaluation there
    # loses eight digits to cancellation; the rescaled u = 3x coefficients stay
    # ~1e10 and Horner in u is accurate to ~1e-14.
    def polynomial_gap(self, x: float) -> float:
        """P(x) - x for the solution polynomial."""
        u = 3.0 * x
        t = u * u
        s = 0.0
        for c in self.coefficients_exact[::-1]:
            s = s * t + float(c)
        return s - x

    def polynomial_slope_gap(self, x: float) -> float:
        """P'(x) - 1."""
        u = 3.0 * x
        t = u * u
        s = 0.0
        n = len(self.coefficients_exact) - 1
        for i in range(n, 0, -1):
            s = s * t + i * float(self.coefficients_exact[i])
        return 3.0 * 2.0 * u * s - 1.0


def _solve_exact(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Gaussian elimination over the rationals (partial pivoting on magnitude)."""
    n = len(rhs)
    aug = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(aug[r][col]))
        if aug[pivot][col] == 0:
            raise LpError("singular basis matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


def _pivot(tableau: np.ndarray, basis: list[int], row: int, col: int) -> None:
    tableau[row, :] /= tableau[row, col]
    for r in range(tableau.shape[0]):
        if r != row and tableau[r, col] != 0.0:
            tableau[r, :] -= tableau[r, col] * tableau[row, :]
    basis[row] = col


def _simplex_min(tableau: np.ndarray, basis: list[int], ncols: int) -> None:
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
        grid=np.asarray(problem.grid, dtype=float),
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

    Contiguous active grid indices are clustered; each cluster representative
    is the tangency of the solution polynomial (the minimum of P(x) - x over
    the cluster's neighborhood), which is where the touch point of the
    continuous problem sits.  A cluster pinned at the right endpoint with no
    interior minimum keeps the endpoint itself.
    """
    g = solution.grid
    active = sorted(solution.active_indices)
    clusters = _cluster_contiguous(active)
    if not clusters:
        raise LpError("no active clusters")
    h = g[1] - g[0]
    nodes = []
    for cluster in clusters:
        if cluster == [0]:
            continue
        lo = max(g[cluster[0]] - 2 * h, 0.0)
        hi = min(g[cluster[-1]] + 2 * h, g[-1])
        node = _gap_minimum(solution, lo, hi)
        nodes.append(node)
    return nodes


def _gap_minimum(solution: LpSolution, lo: float, hi: float) -> float:
    """Location of the minimum of P(x) - x on [lo, hi].

    P' - 1 crosses zero at an interior tangency; otherwise the minimum sits at
    an endpoint.
    """
    flo = solution.polynomial_slope_gap(lo)
    fhi = solution.polynomial_slope_gap(hi)
    if flo * fhi > 0:
        return lo if solution.polynomial_gap(lo) <= solution.polynomial_gap(hi) else hi
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if solution.polynomial_slope_gap(mid) * flo <= 0:
            hi = mid
        else:
            lo = mid
            flo = solution.polynomial_slope_gap(lo)
    return 0.5 * (lo + hi)


def _hermite_objective(nodes: Sequence[float], mu: np.ndarray) -> float:
    """E P(V) for the float Hermite majorant built on `nodes`."""
    coeffs = hermite_coefficients(nodes)
    return float(np.dot(np.array(coeffs), mu[:len(coeffs)]))


def polish_nodes(nodes: Sequence[float], moments: MomentTable) -> list[float]:
    """Locally minimize the continuous objective over the node positions.

    For m+1 nodes the Hermite majorant has 2m+2 coefficients, so its expected
    value needs moments up to order 2m+1.  Coordinate descent with halving
    steps and a parabolic refinement; the objective is smooth and the LP
    estimates start within a grid step of the optimum, so this converges to
    ~1e-10 in a few dozen sweeps.
    """
    order_needed = 2 * len(nodes) - 1
    if moments.order_max < order_needed:
        raise ValueError(f"need moments to order {order_needed}, have {moments.order_max}")
    mu = np.array([1.0] + [float(moments[i]) for i in range(1, order_needed + 1)])

    def objective(xs: np.ndarray) -> float:
        if not all(a < b for a, b in zip(xs, xs[1:])) or xs[0] <= 0:
            return np.inf
        return _hermite_objective(xs.tolist(), mu)

    x = np.asarray(nodes, dtype=float).copy()
    step = np.full(len(x), 1e-3)
    f0 = objective(x)
    for _ in range(POLISH_SWEEPS):
        moved = 0.0
        for j in range(len(x)):
            s = step[j]
            improved = True
            while improved:
                improved = False
                xp = x.copy(); xp[j] += s
                xm = x.copy(); xm[j] -= s
                fp, fm = objective(xp), objective(xm)
                if fp < f0 or fm < f0:
                    if fp < fm:
                        x, f0 = xp, fp
                    else:
                        x, f0 = xm, fm
                    moved += s
                    improved = True
                else:
                    denom = fp - 2 * f0 + fm
                    if np.isfinite(denom) and denom > 0:
                        delta = 0.5 * s * (fm - fp) / denom
                        xq = x.copy(); xq[j] += delta
                        fq = objective(xq)
                        if fq < f0:
                            x, f0 = xq, fq
                            moved += abs(delta)
            step[j] = max(s * 0.5, 1e-13)
        if moved < 1e-12 and step.max() <= 1e-12:
            break
    return [float(v) for v in x]


def rationalize(x: float, max_denominator: int = 100) -> Fraction:
    """Best rational approximation of x with denominator <= max_denominator.

    Continued-fraction convergents/semiconvergents via
    Fraction.limit_denominator; exact inputs p/q with q <= max_denominator
    round-trip.
    """
    if max_denominator < 1:
        raise ValueError("max_denominator must be >= 1")
    return Fraction(x).limit_denominator(max_denominator)
