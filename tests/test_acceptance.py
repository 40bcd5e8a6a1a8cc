"""Acceptance suite: one test per release criterion, at stated tolerances.

Each test prints a single `[criterion N] PASS` line on success; failures
carry the same tag in the assertion message.  Run with `pytest -s
tests/test_acceptance.py` to see the lines as they pass.
"""

import math
import random
import resource
import time
from fractions import Fraction

import pytest

from tetravol.certificate import certify, verify_dominance
from tetravol.majorant import NodeSet, expected_value, hermite_onesided
from tetravol.moments import (
    MomentTable,
    even_moment_direct,
    even_moment_fast,
)
from tetravol.montecarlo import MODE_ALL_RANDOM, MODE_CENTROID, estimate
from tetravol.node_search import extract_nodes, polish_nodes, rationalize
from tetravol.rational import fraction_to_decimal, target_enclosure

from oracles import REFERENCE_NODES, poly_derivative, poly_eval, x_coefficients

GOLDEN_MOMENTS = {
    1: Fraction(1, 2000),
    2: Fraction(43, 27783000),
    3: Fraction(347, 28805414400),
    4: Fraction(2389, 14263395300000),
    5: Fraction(310483, 90249636885408000),
}


@pytest.fixture(scope="module")
def direct_timed():
    t0 = time.monotonic()
    values = {k: even_moment_direct(k) for k in range(1, 5)}
    t_low = time.monotonic() - t0
    t0 = time.monotonic()
    values[5] = even_moment_direct(5)
    t_five = time.monotonic() - t0
    return values, t_low, t_five


@pytest.fixture(scope="module")
def mc_runs():
    t0 = time.monotonic()
    runs = {
        "four1": estimate(MODE_ALL_RANDOM, 1, 10**7, seed=2024),
        "cent2": estimate(MODE_CENTROID, 2, 10**7, seed=2025),
        "cent1": estimate(MODE_CENTROID, 1, 10**7, seed=2026),
    }
    return runs, time.monotonic() - t0


def test_criterion_1_golden_moments(direct_timed):
    values, t_low, t_five = direct_timed
    for k, expected in GOLDEN_MOMENTS.items():
        assert values[k] == expected, \
            f"[criterion 1] FAIL: direct k={k} gave {values[k]}, want {expected}"
    assert t_low < 60, f"[criterion 1] FAIL: k<=4 took {t_low:.1f}s (budget 60s)"
    assert t_five < 900, f"[criterion 1] FAIL: k=5 took {t_five:.1f}s (budget 900s)"
    print(f"\n[criterion 1] PASS: direct moments k=1..5 bit-exact "
          f"(k<=4 in {t_low:.1f}s, k=5 in {t_five:.1f}s)")


def test_criterion_2_dual_path_equivalence(direct_timed):
    values, _, _ = direct_timed
    for k in range(1, 5):
        fast = even_moment_fast(k)
        assert fast == values[k], \
            f"[criterion 2] FAIL: fast({k}) = {fast} != direct {values[k]}"
    print("\n[criterion 2] PASS: fast == direct exactly for k = 1..4")


def test_criterion_3_scalability(table13_timed):
    table, build_seconds = table13_timed
    assert table.orders() == list(range(1, 14)), \
        "[criterion 3] FAIL: table is missing orders"
    assert build_seconds < 4 * 3600, \
        f"[criterion 3] FAIL: build took {build_seconds:.0f}s (budget 4h)"
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert peak_kb < 32 * 1024 * 1024, \
        f"[criterion 3] FAIL: peak rss {peak_kb} kB exceeds 32 GB"
    print(f"\n[criterion 3] PASS: all 13 orders in {build_seconds:.0f}s, "
          f"peak rss {peak_kb / 1024:.0f} MB")


def test_criterion_4_certificate_reproduction(table13):
    cert = certify(NodeSet(REFERENCE_NODES), table13)
    decimal = fraction_to_decimal(cert.bound, 12)
    assert decimal.startswith("0.0173791"), \
        f"[criterion 4] FAIL: bound decimal {decimal} lacks prefix 0.0173791"
    assert cert.dominance.valid, "[criterion 4] FAIL: dominance proof failed"
    assert cert.verdict is True, "[criterion 4] FAIL: verdict false"
    assert cert.margin > Fraction(1, 10**5), \
        f"[criterion 4] FAIL: margin {float(cert.margin)} <= 1e-5"
    print(f"\n[criterion 4] PASS: bound {decimal}..., margin "
          f"{float(cert.margin):.2e}, verdict TRUE")


def test_criterion_5_negative_control(sol12, table13):
    assert sol12.objective > 0.01746 - 1e-4, \
        f"[criterion 5] FAIL: n=12 LP objective {sol12.objective:.6f}"

    estimates = extract_nodes(sol12)
    grid_max = float(sol12.grid[-1])
    tangent = [x for x in estimates if x < grid_max * (1 - 1e-9)]
    nodes = NodeSet(tuple(rationalize(x, 100) for x in tangent))
    truncated = MomentTable({k: table13[k] for k in range(1, 13)})
    cert12 = certify(nodes, truncated)
    assert cert12.bound > Fraction(174, 10000), \
        f"[criterion 5] FAIL: degree-12 construction bound {float(cert12.bound)}"
    assert cert12.verdict is False, "[criterion 5] FAIL: verdict should be false"

    # adding the thirteenth order can only improve on the best 12-order bound
    cert13 = certify(NodeSet(REFERENCE_NODES), table13)
    assert cert13.bound <= cert12.bound, \
        "[criterion 5] FAIL: 13-order bound worse than 12-order bound"
    print(f"\n[criterion 5] PASS: n=12 LP objective {sol12.objective:.5f} > 0.01746, "
          f"12-order bound {float(cert12.bound):.5f} > 0.01740, verdict FALSE")


def test_criterion_6_node_rediscovery(sol13, table13):
    """The LP pipeline, never told the published nodes, rediscovers their
    configuration and certifies a bound at least as good.

    Checked: the grid LP has seven active clusters; each polished node lies
    nearer its own published node (paired in order) than any other; the
    nodes rationalized with denominator <= 100 certify, with a bound no worse
    than the published set's; and the LP optimum, a lower bound on every
    feasible majorant, lies below both certified bounds.

    Polish is exact: it returns the seven Gauss nodes of the law of V^2,
    computed from the moments over the rationals, which minimise E P(V)
    over all seven-node Hermite majorants.  The LP clusters only fix how
    many nodes there are.

    Equality with the published nodes is not promised.  `rationalize` gives
    the best rational approximation with denominator <= 100, while the
    published set is a coarser hand rounding (its denominators 11, 15 and 22
    repeat) that no such rule produces: the Gauss nodes
    (0.011988, 0.045798, 0.087427, 0.133610, 0.180958, 0.226479, 0.269018)
    become {1/83, 4/87, 7/80, 2/15, 17/94, 12/53, 25/93}.  The test
    checks the pairing and the bound, not those fractions.
    """
    estimates = extract_nodes(sol13)
    assert len(estimates) == 7, \
        f"[criterion 6] FAIL: expected 7 clusters, found {len(estimates)}"
    polished = polish_nodes(estimates, table13)
    published = [float(x) for x in REFERENCE_NODES]
    for i, x in enumerate(polished):
        nearest = min(range(len(published)), key=lambda j: abs(x - published[j]))
        assert nearest == i, (
            f"[criterion 6] FAIL: polished node {i} at {x:.6f} is nearest "
            f"published node {REFERENCE_NODES[nearest]}, not its own "
            f"{REFERENCE_NODES[i]}")

    recovered = tuple(rationalize(x, 100) for x in polished)
    cert = certify(NodeSet(recovered), table13)
    published_cert = certify(NodeSet(REFERENCE_NODES), table13)
    assert cert.dominance.valid and cert.verdict is True, (
        f"[criterion 6] FAIL: recovered nodes {[str(r) for r in recovered]} "
        "do not certify")
    assert cert.bound <= published_cert.bound, (
        f"[criterion 6] FAIL: recovered bound {float(cert.bound)} is weaker "
        f"than the published set's {float(published_cert.bound)}")
    assert sol13.objective <= float(cert.bound) + 1e-12, (
        f"[criterion 6] FAIL: LP optimum {sol13.objective} exceeds the "
        f"certified bound {float(cert.bound)}")
    print(f"\n[criterion 6] PASS: seven nodes paired with the published set, "
          f"recovered {[str(r) for r in recovered]} certify "
          f"B = {float(cert.bound):.7f} <= published "
          f"{float(published_cert.bound):.7f}, LP optimum {sol13.objective:.7f}")


def test_criterion_7_interpolation_properties():
    rng = random.Random(20240817)
    grid_points = 10**4
    checked = 0
    for _ in range(100):
        count = rng.randrange(1, 6)  # m <= 4
        pool = set()
        while len(pool) < count:
            q = rng.randrange(4, 80)
            p = rng.randrange(1, q)
            x = Fraction(p, q)
            if x <= Fraction(1, 3):
                pool.add(x)
        nodes = NodeSet(tuple(sorted(pool)))
        poly = hermite_onesided(nodes)
        p = x_coefficients(poly)
        for x in nodes:
            assert poly_eval(p, x) == x, "[criterion 7] FAIL: P(x_j) != x_j"
            assert poly_eval(poly_derivative(p), x) == 1, "[criterion 7] FAIL: P'(x_j) != 1"
        proof = verify_dominance(poly, nodes)
        assert proof.remainder_is_zero, "[criterion 7] FAIL: deflation remainder"
        _assert_dominance_on_grid(poly, grid_points)
        checked += 1
    print(f"\n[criterion 7] PASS: {checked} random node sets, exact conditions, "
          f"dominance on a {grid_points}-point exact grid, zero deflation remainder")


def _assert_dominance_on_grid(poly, points: int) -> None:
    """P(j/(3*points)) >= j/(3*points) for j = 0..points, in pure integers.

    Clearing denominators turns each exact comparison into a sign check of an
    integer Horner evaluation, which keeps 10^4-point grids fast.
    """
    from math import lcm
    n = len(poly.coeffs) - 1
    L = 3 * points
    den = 1
    for c in poly.coeffs:
        den = lcm(den, c.denominator)
    scaled = [int(c * den) * L ** (2 * (n - i)) for i, c in enumerate(poly.coeffs)]
    x_factor = den * L ** (2 * n - 1)
    for j in range(points + 1):
        t = j * j
        v = 0
        for a in reversed(scaled):
            v = v * t + a
        assert v >= x_factor * j, \
            f"[criterion 7] FAIL: P(x) < x at x = {j}/{L}"


def test_criterion_8_monte_carlo_consistency(mc_runs, table13):
    """The sampler agrees with the exact values.

    Checked, each at 3 s.e.: the all-random mean against the known
    13/720 - pi^2/15015; the pinned-centroid mean of V^2 against
    E V^2 = 1/2000; and the pinned-centroid mean of V inside the enclosure
    [L, B] that the exact moments guarantee.  Also the pinned-centroid mean
    lies below the all-random mean, and the three runs fit in 300 s.

    E V itself is not known exactly, so the mean of V is not compared with a
    single value.  B = E P(V) is the certified upper bound of the reference
    majorant, about 1.6e-3 (some 300 s.e.) above E V, since P(V) - V > 0
    away from the tangencies.  L = (E V^2)^(3/2) / (E V^4)^(1/2) is a lower
    bound by Lyapunov's inequality, E V^2 <= (E V)^(2/3) (E V^4)^(1/3).
    """
    runs, elapsed = mc_runs
    failures = []
    enclosure = target_enclosure()
    target = float((enclosure.lo + enclosure.hi) / 2)
    four1 = runs["four1"]
    if not abs(four1.mean - target) < 3 * four1.stderr:
        failures.append(f"all-random mean {four1.mean} vs {target}")

    cent2 = runs["cent2"]
    if not abs(cent2.mean - float(table13[1])) < 3 * cent2.stderr:
        failures.append(f"centroid power-2 mean {cent2.mean} vs 1/2000")

    cent1 = runs["cent1"]
    lower = math.sqrt(table13[1] ** 3 / table13[2])
    upper = float(certify(NodeSet(REFERENCE_NODES), table13).bound)
    slack = 3 * cent1.stderr
    if not lower - slack < cent1.mean < upper + slack:
        failures.append(
            f"centroid mean {cent1.mean} +- {cent1.stderr:.1e} leaves the "
            f"exact enclosure [{lower:.6f}, {upper:.6f}] by more than 3 s.e.")
    if not cent1.mean < four1.mean:
        failures.append("pinned-centroid mean not below all-random mean")
    if not elapsed < 300:
        failures.append(f"took {elapsed:.0f}s (budget 300s)")
    assert not failures, "[criterion 8] FAIL: " + "; ".join(failures)
    print(f"\n[criterion 8] PASS: 3 x 1e7 samples in {elapsed:.0f}s; "
          f"z-scores {four1.z_score(target):+.2f}, "
          f"{cent2.z_score(float(table13[1])):+.2f}; centroid mean "
          f"{cent1.mean:.6f} in [L, B] = [{lower:.6f}, {upper:.6f}], "
          f"{cent1.z_score(lower):+.0f} s.e. from L, "
          f"{cent1.z_score(upper):+.0f} s.e. from B")


def test_criterion_9_determinism(table13, mc_runs):
    for k in (1, 3, 5):
        assert even_moment_fast(k) == table13[k], \
            f"[criterion 9] FAIL: fast({k}) differs from the table"

    cert_a = certify(NodeSet(REFERENCE_NODES), table13)
    cert_b = certify(NodeSet(REFERENCE_NODES), table13)
    assert cert_a == cert_b, "[criterion 9] FAIL: certificate not reproducible"

    runs, _ = mc_runs
    repeat = estimate(MODE_ALL_RANDOM, 1, 10**7, seed=2024)
    assert repeat == runs["four1"], \
        "[criterion 9] FAIL: MC estimate changed with seed fixed"
    print("\n[criterion 9] PASS: bit-identical reruns")
