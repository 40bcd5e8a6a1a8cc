import random
from fractions import Fraction

import numpy as np
import pytest

from tetravol.node_search import (
    LpError,
    LpProblem,
    LpSolution,
    extract_nodes,
    polish_nodes,
    rationalize,
    solve_onesided_lp,
)


@pytest.fixture(scope="module")
def sol13(table13):
    return solve_onesided_lp(LpProblem.equispaced(13, 1000, table13))


@pytest.fixture(scope="module")
def sol12(table13):
    return solve_onesided_lp(LpProblem.equispaced(12, 100, table13))


def test_problem_validation(table13):
    with pytest.raises(ValueError):
        LpProblem(1, (0.0, 0.2), (float(table13[1]),))  # max != 1/3
    with pytest.raises(ValueError):
        LpProblem(3, (0.0, 1 / 3), tuple(float(table13[i]) for i in (1, 2, 3)))


def test_degree_zero_constant_majorant(table13):
    sol = solve_onesided_lp(LpProblem.equispaced(0, 50, table13))
    assert abs(sol.objective - 1 / 3) < 1e-12
    assert abs(sol.coefficients_exact[0] - 1 / 3) < 1e-12
    nodes = extract_nodes(sol)
    assert len(nodes) == 1
    assert abs(nodes[0] - 1 / 3) < 1e-9


def test_solution_feasible_on_grid(sol13):
    # The coefficients are so large (~1e10 even in the rescaled basis) that
    # float evaluation cannot resolve the 1e-9 feasibility tolerance at the
    # touch points, so check the returned vertex exactly: every grid residual
    # must be nonnegative, and the active ones exactly zero.
    worst = Fraction(0)
    for idx, x in enumerate(sol13.grid):
        u = Fraction(float(x)) * 3
        t = u * u
        s = Fraction(0)
        for c in sol13.coefficients_exact[::-1]:
            s = s * t + c
        r = s - Fraction(float(x))
        worst = min(worst, r)
        if idx in sol13.active_indices:
            assert r == 0
    assert worst >= 0


def test_monotone_grid_refinement(table13):
    objs = [solve_onesided_lp(LpProblem.equispaced(12, L, table13)).objective
            for L in (100, 200, 400)]
    assert objs[0] <= objs[1] + 1e-12
    assert objs[1] <= objs[2] + 1e-12


def test_degree_12_objective_exceeds_threshold(sol12):
    assert sol12.objective > 0.01746


def test_degree_13_objective_and_cluster_count(sol13):
    assert 0.01736 < sol13.objective < 0.01739
    nodes = extract_nodes(sol13)
    assert len(nodes) == 7


def test_degree_13_nodes_near_reference(sol13):
    reference = [1 / 83, 1 / 22, 1 / 11, 2 / 15, 2 / 11, 5 / 22, 4 / 15]
    nodes = extract_nodes(sol13)
    for found, ref in zip(nodes, reference):
        assert abs(found - ref) < 5e-3


def test_polish_reduces_objective_gap(sol13, table13):
    # the polished continuous objective must sit in the sandwich
    # [LP lower bound, LP lower bound + O(h^2)]
    nodes = polish_nodes(extract_nodes(sol13), table13)
    from tetravol.majorant import NodeSet, expected_value, hermite_onesided
    rational_nodes = NodeSet(tuple(Fraction(x).limit_denominator(10**12) for x in nodes))
    value = float(expected_value(hermite_onesided(rational_nodes), table13))
    assert sol13.objective <= value < sol13.objective + 1e-6


def test_endpoint_only_active_set():
    # constant-free synthetic solution: P built on the single node 1/3 touches
    # only at the endpoint of the grid
    grid = np.linspace(0.0, 1 / 3, 101)
    sol = LpSolution(
        objective=0.0,
        active_indices=[100],
        coefficients_exact=(Fraction(1, 6), Fraction(1, 6)),
        grid=grid,
    )
    nodes = extract_nodes(sol)
    assert len(nodes) == 1
    assert abs(nodes[0] - 1 / 3) < 1e-12


def test_rationalize_examples():
    assert rationalize(1 / 3, 100) == Fraction(1, 3)
    assert rationalize(0.01204819, 100) == Fraction(1, 83)
    assert rationalize(0.2666667, 100) == Fraction(4, 15)


def test_rationalize_round_trip_on_exact_inputs():
    rng = random.Random(17)
    for _ in range(200):
        q = rng.randrange(1, 101)
        p = rng.randrange(0, q + 1)
        f = Fraction(p, q)
        assert rationalize(p / q, 100) == f


def test_rationalize_rejects_bad_bound():
    with pytest.raises(ValueError):
        rationalize(0.5, 0)


def test_degree_12_exceeds_certified_13_bound(sol12, table13):
    from tetravol.certificate import REFERENCE_NODES, certify
    from tetravol.majorant import NodeSet
    cert = certify(NodeSet(REFERENCE_NODES), table13)
    assert sol12.objective - float(cert.bound) >= 5e-5
