import contextlib
import io
import math
import os
import random
import re
import sys
import time
from fractions import Fraction

import pytest

from tetravol import certificate, node_search
from tetravol.certificate import (_primitive, certify, sign_variations, sturm_chain,
                                  sturm_root_count)
from tetravol.cli import EXIT_OK, main
from tetravol.majorant import MomentOrderError, NodeSet
from tetravol.moments import MomentTable, even_moment_fast
from tetravol.node_search import (
    LpError,
    LpProblem,
    LpSolution,
    extract_nodes,
    gauss_nodes,
    polish_nodes,
    rationalize,
    solve_onesided_lp,
)

from oracles import REFERENCE_NODES, poly_mul, roots_bisection


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


def test_monotone_grid_refinement(sol12, table13):
    objs = [sol12.objective, *(solve_onesided_lp(LpProblem.equispaced(12, L, table13)).objective
                               for L in (200, 400))]
    assert objs[0] <= objs[1] + 1e-12
    assert objs[1] <= objs[2] + 1e-12


def test_degree_12_objective_exceeds_threshold(sol12):
    assert sol12.objective > 0.01746


def test_degree_13_objective_and_cluster_count(sol13):
    assert 0.01736 < sol13.objective < 0.01739
    nodes = extract_nodes(sol13)
    assert len(nodes) == 7


def test_degree_13_nodes_near_reference(sol13, table13):
    reference = [1 / 83, 1 / 22, 1 / 11, 2 / 15, 2 / 11, 5 / 22, 4 / 15]
    nodes = extract_nodes(sol13)
    for found, ref in zip(nodes, reference):
        assert abs(found - ref) < 5e-3
    # each cluster midpoint lies within one grid step of its Gauss node
    gauss = gauss_nodes(7, table13)
    assert len(nodes) == len(gauss)
    for found, exact in zip(nodes, gauss):
        assert abs(found - exact) < 1 / 3000


def test_polish_reduces_objective_gap(sol13, table13):
    # polish is exact: it returns the Gauss nodes, the minimiser of the
    # continuous objective, which must sit in the sandwich
    # [LP lower bound, LP lower bound + O(h^2)]
    nodes = polish_nodes(extract_nodes(sol13), table13)
    from tetravol.majorant import NodeSet, expected_value, hermite_onesided
    rational_nodes = NodeSet(tuple(Fraction(x).limit_denominator(10**12) for x in nodes))
    value = float(expected_value(hermite_onesided(rational_nodes), table13))
    assert sol13.objective <= value < sol13.objective + 1e-6


def test_endpoint_only_active_set():
    # constant-free synthetic solution: P built on the single node 1/3 touches
    # only at the endpoint of the grid
    grid = tuple(i / 300 for i in range(101))  # LpProblem.equispaced's 100 intervals
    sol = LpSolution(
        objective=0.0,
        active_indices=[100],
        coefficients_exact=(Fraction(1, 6), Fraction(1, 6)),
        grid=grid,
    )
    nodes = extract_nodes(sol)
    assert len(nodes) == 1
    assert abs(nodes[0] - 1 / 3) < 1e-12
    sol.active_indices = []
    with pytest.raises(LpError, match="no active clusters"):
        extract_nodes(sol)


def test_each_cluster_is_estimated_by_its_midpoint():
    # a lone cluster at index 0 is skipped, one at the last index is 1/3
    grid = tuple(i / 300 for i in range(101))  # LpProblem.equispaced's 100 intervals
    sol = LpSolution(objective=0.0, active_indices=[0, 3, 4, 5, 7, 99, 100],
                     coefficients_exact=(Fraction(1, 6), Fraction(1, 6)), grid=grid)
    nodes = extract_nodes(sol)
    assert nodes == [(grid[3] + grid[5]) / 2, grid[7], 1 / 3]
    assert all(type(x) is float for x in nodes)
    sol.active_indices = [0, 1]
    assert extract_nodes(sol) == [grid[1] / 2]


def test_gauss_nodes_refuses_a_huge_n_at_once(table13):
    # the check walks the 13 orders of the table, not the billion it lacks
    start = time.perf_counter()
    with pytest.raises(MomentOrderError) as info:
        gauss_nodes(5 * 10**8, table13)
    assert time.perf_counter() - start < 1
    assert str(info.value) == ("moment table lacks orders [14..999999999] needed for "
                               "500000000 nodes")


#: gauss_nodes(7, table13) as `float.hex`, bit for bit; the degree-13
#: `search` node sets are their rationalizations
GAUSS7_HEX = ("0x1.88d38a340cc24p-7", "0x1.772d93936a423p-5", "0x1.661a1bfd7611cp-4",
              "0x1.11a2166a26c77p-3", "0x1.729a54767f3bdp-3", "0x1.cfd450282e02ap-3",
              "0x1.13798180e2eedp-2")


def test_gauss_nodes_need_neither_the_lp_solver_nor_a_sturm_chain(table13, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("gauss_nodes called the LP's solver or built a Sturm chain")

    # every `tetravol` module that binds either function, under any name,
    # binds the refusal instead
    targets = (certificate.sturm_chain, node_search._solve_exact)
    for name, module in list(sys.modules.items()):
        if name == "tetravol" or name.startswith("tetravol."):
            for attr, value in list(vars(module).items()):
                if any(value is target for target in targets):
                    monkeypatch.setattr(module, attr, refuse)
    assert tuple(x.hex() for x in gauss_nodes(7, table13)) == GAUSS7_HEX


def _chain_and_nodes(n, table, monkeypatch):
    """The Sturm sequence p_n, ..., p_0 that gauss_nodes(n, table) hands to
    `_roots`, and the float nodes it returns."""
    seen, real = [], node_search._roots
    monkeypatch.setattr(node_search, "_roots",
                        lambda chain, *args: seen.append(chain) or real(chain, *args))
    nodes = gauss_nodes(n, table)
    monkeypatch.setattr(node_search, "_roots", real)
    return seen[0], nodes


def _ends(chain):
    """The sign variations of `chain` at 0 and 1/9, which `_roots` takes."""
    return sign_variations(chain, 0, 9), sign_variations(chain, 1, 9)


def _check_against_bisection(n, table, monkeypatch):
    chain, nodes = _chain_and_nodes(n, table, monkeypatch)
    reference = roots_bisection(chain, Fraction(0), Fraction(1, 9), n)
    assert node_search._roots(chain, *_ends(chain)) == reference
    assert [x.hex() for x in nodes] == [math.sqrt(t).hex() for t in reference]


@pytest.mark.parametrize("n", range(1, 8))
def test_gauss_nodes_are_the_bits_of_rational_bisection(n, table13, monkeypatch):
    _check_against_bisection(n, table13, monkeypatch)


@pytest.mark.skipif(not os.environ.get("TETRAVOL_SLOW"),
                    reason="computes orders 14..39; set TETRAVOL_SLOW=1 to run")
def test_gauss_nodes_are_the_bits_of_rational_bisection_to_20_nodes_slow(
        table13, monkeypatch):
    values = dict(table13.values)
    values.update((k, even_moment_fast(k)) for k in range(14, 40))
    table39 = MomentTable(values)
    for n in range(8, 21):
        _check_against_bisection(n, table39, monkeypatch)


@pytest.mark.parametrize("p, roots", [
    ([15, -576, 5199, -576, 5184], [3 / 72, 5 / 72]),
    ([-1, 2**100], [2.0**-100]),
], ids=["two-roots-at-level-3", "one-root-at-2^-100"])
def test_roots_step_off_a_root_on_the_grid(p, roots):
    # (72t - 3)(72t - 5)(t^2 + 1): roots 3/(9 * 2^3) and 5/(9 * 2^3), both
    # midpoints of bisection, which meets each one and steps off it.
    # 2^100 t - 1: the root 2^-100 = 9/(9 * 2^100) lies in the first cell
    # (0, 1)/(9 * 2^e) for e <= 96, where the stop rule cannot hold, and is
    # the midpoint of the cell (4, 5)/(9 * 2^99) that bisection reaches
    # three levels later
    chain = sturm_chain(p)
    found = node_search._roots(chain, *_ends(chain))
    assert found == roots_bisection(chain, Fraction(0), Fraction(1, 9), len(roots))
    assert [float(t) for t in found] == roots


def test_roots_deeper_than_the_recursion_limit():
    # 2^1050 t - 1: its root 2^-1050, a subnormal float, settles about 1100
    # halvings below 1/9, more levels than the interpreter nests calls
    chain = sturm_chain([-1, 2**1050])
    roots = node_search._roots(chain, *_ends(chain))
    assert roots == roots_bisection(chain, Fraction(0), Fraction(1, 9), 1)
    assert [float(t) for t in roots] == [2.0**-1050]


@pytest.mark.parametrize("offsets", [(0, 2**-70), (0, 2**-70, 2**-69)],
                         ids=["two-roots", "three-roots"])
def test_roots_apart_by_less_than_the_stop_width(offsets):
    # roots 1/20 + offset: isolation runs past the level where each one
    # alone would stop, and each cell it leaves is already narrow enough.
    # Three roots leave a cell below the stop width that still holds two,
    # which splits on the counts carried from its ends
    ts = [Fraction(1, 20) + Fraction(d) for d in offsets]
    p = [Fraction(1)]
    for t in ts:
        p = poly_mul(p, [-t, Fraction(1)])
    chain = sturm_chain(p)
    roots = node_search._roots(chain, *_ends(chain))
    assert roots == roots_bisection(chain, Fraction(0), Fraction(1, 9), len(ts))
    assert all(root < t for root, t in zip(roots, ts[1:]))
    assert all(t < root for t, root in zip(ts, roots[1:]))
    for t, root in zip(ts, roots):
        assert abs(root - t) * 2**60 <= t


@pytest.mark.parametrize("n", range(1, 8))
def test_gauss_nodes_count_sign_variations_once_per_point(n, table13, monkeypatch):
    points, real = [], node_search.sign_variations

    def counted(chain, x, den=1):
        points.append(Fraction(x) / den)
        return real(chain, x, den)

    monkeypatch.setattr(node_search, "sign_variations", counted)
    gauss_nodes(n, table13)
    assert points[:2] == [0, Fraction(1, 9)]
    assert len(set(points)) == len(points), sorted(points)


@pytest.mark.parametrize("n", range(1, 8))
def test_recurrence_is_the_hankel_solution_and_a_sturm_sequence(n, table13, monkeypatch):
    # the sequence gauss_nodes hands to `_roots`: p_n, ..., p_0, each with
    # integer coefficients highest degree first
    sequence = _chain_and_nodes(n, table13, monkeypatch)[0]
    assert [len(p) - 1 for p in sequence] == list(range(n, -1, -1))
    m = [Fraction(1)] + [table13[i] for i in range(1, 2 * n)]
    hankel = node_search._solve_exact([m[i:i + n] for i in range(n)],
                                      [-m[i + n] for i in range(n)]) + [Fraction(1)]
    den = math.lcm(*(c.denominator for c in hankel))
    assert sequence[0] == _primitive([int(c * den) for c in reversed(hankel)])
    # every interval with ends on this grid; E V^2 = alpha_0, where p_1
    # changes sign, lies in those from 0 and in no other
    ends = [Fraction(j, 1000) for j in (0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89)] + [Fraction(1, 9)]
    assert ends[0] < table13[1] < ends[1]
    for i, a in enumerate(ends):
        for b in ends[i + 1:]:
            assert sign_variations(sequence, a) - sign_variations(sequence, b) == \
                sturm_root_count(hankel, a, b), (a, b)


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
    from tetravol.certificate import certify
    from tetravol.majorant import NodeSet
    cert = certify(NodeSet(REFERENCE_NODES), table13)
    assert sol12.objective - float(cert.bound) >= 5e-5


def _search(table, degree, tmp_path):
    """Run `tetravol search`; return its printed optimum and the certified B."""
    moments, out = tmp_path / f"m{degree}.tsv", tmp_path / f"n{degree}.txt"
    table.write(moments)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = main(["search", "--degree", str(degree), "--moments", str(moments),
                   "--out", str(out)])
    assert rc == EXIT_OK
    printed = re.search(rf"^Gauss optimum for degree {degree}: (\S+)$",
                        stdout.getvalue(), re.M)
    return float(printed.group(1)), certify(NodeSet.read(out), table).bound


#: half a unit in the last of the 8 printed decimals
PRINTED_HALF_ULP = 5e-9


@pytest.mark.parametrize("degree", [9, 11, 13])
def test_search_optimum_between_lp_and_certified_bound(degree, sol13, table13,
                                                       tmp_path):
    # the grid LP relaxes the continuous problem whose optimum the Gauss
    # nodes attain at odd degree; the rationalized nodes can only do worse
    sol = sol13 if degree == 13 else \
        solve_onesided_lp(LpProblem.equispaced(degree, 1000, table13))
    optimum, bound = _search(table13, degree, tmp_path)
    assert sol.objective <= optimum + PRINTED_HALF_ULP
    assert optimum - PRINTED_HALF_ULP <= float(bound)


@pytest.mark.skipif(not os.environ.get("TETRAVOL_SLOW"),
                    reason="computes orders 14..17; set TETRAVOL_SLOW=1 to run")
def test_search_optimum_below_certified_bound_degree_17_slow(table13, tmp_path):
    # the float LP is no longer optimal at this degree, and printed a "lower
    # bound" above the certified bound
    values = dict(table13.values)
    values.update((k, even_moment_fast(k)) for k in range(14, 18))
    table17 = MomentTable(values)
    optimum, bound = _search(table17, 17, tmp_path)
    assert optimum - PRINTED_HALF_ULP <= float(bound)
    assert bound < _search(table13, 13, tmp_path)[1]
