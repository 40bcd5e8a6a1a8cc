import dataclasses
import importlib.util
import os
import random
import sys
import time
from fractions import Fraction
from pathlib import Path
from math import prod

import pytest

import tetravol
from tetravol import certificate
from tetravol.certificate import (
    VERDICT_FALSE,
    VERDICT_TRUE,
    Certificate,
    ReportFormatError,
    certify,
    parse_report,
    render_report,
    sturm_chain,
    sturm_root_count,
    verify_dominance,
)
from tetravol.cli import EXIT_NOT_CERTIFIED, EXIT_OK, main
from tetravol.majorant import EvenPoly, MomentOrderError, NodeSet, hermite_onesided
from tetravol.moments import MomentIntegrityError, MomentTable, even_moment_fast
from tetravol.node_search import gauss_nodes, rationalize
from tetravol.rational import target_enclosure

from oracles import (
    CONTINUOUS_LAWS,
    REFERENCE_NODES,
    atom_law,
    poly_divmod,
    poly_eval,
    poly_mul,
    verdict,
    verify_dominance_long_division,
)

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "golden"
#: the reference certificate the benchmark gate compares with (read only)
GOLDEN_REFERENCE_REPORT = GOLDEN_DIR / "reference-certificate.txt"
#: the k <= 13 moment file that report was certified from (read only)
GOLDEN_MOMENTS = GOLDEN_DIR / "moments13.tsv"

#: the Gauss nodes of degrees 25 and 33 in t = x^2, rationalized with
#: denominators at most 1000
GAUSS_25 = ("4/445 15/473 29/503 17/199 112/981 51/356 123/716 152/763 34/151 179/718 "
            "213/785 241/828 269/872")
GAUSS_33 = ("5/644 25/938 47/986 10/143 43/463 74/637 136/975 158/973 115/623 202/981 "
            "173/765 215/877 190/723 135/484 179/610 200/653 234/737")


def test_sturm_known_roots():
    # (x - 1/4)(x - 1/5) = x^2 - 9/20 x + 1/20
    p = [Fraction(1, 20), Fraction(-9, 20), Fraction(1)]
    assert sturm_root_count(p, Fraction(0), Fraction(1, 3)) == 2
    assert sturm_root_count(p, Fraction(0), Fraction(22, 100)) == 1
    # x^2 + 1 has no real roots
    assert sturm_root_count([Fraction(1), Fraction(0), Fraction(1)],
                            Fraction(0), Fraction(1, 3)) == 0
    # double root counted once
    q = [Fraction(1, 16), Fraction(-1, 2), Fraction(1)]  # (x - 1/4)^2
    assert sturm_root_count(q, Fraction(0), Fraction(1, 3)) == 1


def test_sturm_rejects_root_at_endpoint():
    p = [Fraction(0), Fraction(1)]  # x
    with pytest.raises(ValueError):
        sturm_root_count(p, Fraction(0), Fraction(1, 3))


def _mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _from_factors(*factors):
    """Ascending Fraction coefficients of a product of integer polynomials."""
    p = [1]
    for f in factors:
        p = _mul(p, f)
    return [Fraction(c) for c in p]


def _random_interval(rng):
    """Two distinct random rationals in [0, 1/3], in order."""
    while True:
        a, b = sorted(Fraction(rng.randint(0, q), 3 * q)
                      for q in (rng.randint(1, 50), rng.randint(1, 50)))
        if a < b:
            return a, b


def _check_counts(p, roots, rng, intervals=6):
    for _ in range(intervals):
        a, b = _random_interval(rng)
        if a in roots or b in roots:
            with pytest.raises(ValueError):
                sturm_root_count(p, a, b)
        else:
            assert sturm_root_count(p, a, b) == sum(a < r < b for r in roots), (p, a, b)


def test_sturm_counts_constructed_roots():
    # products of (q x - p)^m, m = 1..3, irreducible quadratics and a
    # negative rational constant: the distinct real roots are known exactly
    rng = random.Random(1612)
    for _ in range(150):
        factors, roots = [[-rng.randint(1, 9)]], set()
        for _ in range(rng.randint(1, 4)):
            q = rng.randint(1, 40)
            p = rng.randint(-q // 2, q)
            factors += [[-p, q]] * rng.randint(1, 3)
            roots.add(Fraction(p, q))
        for _ in range(rng.randint(0, 2)):
            a, b = rng.randint(1, 9), rng.randint(-9, 9)
            factors.append([b * b // (4 * a) + rng.randint(1, 9), b, a])  # b^2 < 4ac
        scale = Fraction(1, rng.randint(1, 12))
        _check_counts([c * scale for c in _from_factors(*factors)], roots, rng)


def test_sturm_chains_whose_degree_drops_by_more_than_one():
    # x^4 + 1: the remainder of x^4 + 1 by x^3 is a constant
    p = _from_factors([1, 0, 0, 0, 1])
    assert [len(q) - 1 for q in sturm_chain(p)] == [4, 3, 0]
    _check_counts(p, set(), random.Random(4))
    # x^5 - x: the remainder of x^5 - x by 5 x^4 - 1 has degree 1
    p = _from_factors([0, -1, 0, 0, 0, 1])
    assert [len(q) - 1 for q in sturm_chain(p)] == [5, 4, 1, 0]
    for a, b, count in ((-2, 2, 3), (Fraction(-1, 2), Fraction(1, 3), 1),
                        (Fraction(1, 7), 5, 1), (Fraction(1, 3), Fraction(7, 9), 0)):
        assert sturm_root_count(p, Fraction(a), Fraction(b)) == count


def test_sturm_negative_leading_coefficient_at_odd_power():
    # (y + 3)(y + 1)(y^2 + 3) at y = 12x - 4: roots 1/12 and 1/4.  Its third
    # chain element has a negative leading coefficient two degrees below the
    # second, so the next pseudo-remainder's multiplier |lc|^3 must not be lc^3
    p = _from_factors([-1, 12], [-1, 4], [19, -96, 144])
    chain = sturm_chain(p)
    assert [len(q) - 1 for q in chain] == [4, 3, 1, 0]
    assert chain[2][0] < 0
    assert sturm_root_count(p, Fraction(0), Fraction(1, 3)) == 2
    assert sturm_root_count(p, Fraction(1, 10), Fraction(1, 3)) == 1
    _check_counts(p, {Fraction(1, 12), Fraction(1, 4)}, random.Random(12), 40)


def test_sturm_rejects_a_non_dyadic_endpoint_root():
    p = _from_factors([-2, 7], [1, 0, 1])  # (7x - 2)(x^2 + 1)
    assert sturm_root_count(p, Fraction(0), Fraction(1, 3)) == 1
    for a, b in ((Fraction(0), Fraction(2, 7)), (Fraction(2, 7), Fraction(1, 3))):
        with pytest.raises(ValueError):
            sturm_root_count(p, a, b)


def test_sturm_rejects_the_zero_polynomial():
    with pytest.raises(ValueError, match="zero polynomial"):
        sturm_root_count([Fraction(0), Fraction(0)], Fraction(0), Fraction(1, 3))


def test_dominance_single_node():
    nodes = NodeSet((Fraction(1, 3),))
    proof = verify_dominance(hermite_onesided(nodes), nodes)
    assert proof.quotient == (Fraction(3, 2),)
    assert proof.remainder_is_zero
    assert proof.interior_root_count == 0
    assert proof.sign_at_zero > 0 and proof.sign_at_end > 0
    assert proof.valid


def test_dominance_reference_nodes():
    nodes = NodeSet(REFERENCE_NODES)
    proof = verify_dominance(hermite_onesided(nodes), nodes)
    assert proof.valid
    assert proof.interior_root_count == 0
    assert len(proof.quotient) == 26 - 14 + 1


def test_dominance_rejects_tampered_polynomial():
    nodes = NodeSet(REFERENCE_NODES)
    p = hermite_onesided(nodes)
    untampered = verify_dominance(p, nodes).quotient
    # a_0 changes only the remainder; a_13 changes the quotient as well
    for i, same_quotient in ((0, True), (13, False)):
        coeffs = list(p.coeffs)
        coeffs[i] -= Fraction(1, 10**6)
        tampered = EvenPoly(tuple(coeffs))
        proof = verify_dominance(tampered, nodes)
        assert not proof.valid
        assert not proof.remainder_is_zero
        # the report prints this quotient too: it is the long division's
        assert proof.quotient == verify_dominance_long_division(tampered, nodes).quotient
        assert (proof.quotient == untampered) is same_quotient


def test_dominance_equals_the_long_division(seeded_node_sets):
    rng = random.Random(15)
    for nodes in seeded_node_sets:
        poly = hermite_onesided(nodes)
        proof = verify_dominance(poly, nodes)
        assert proof.valid, nodes
        assert proof == verify_dominance_long_division(poly, nodes), nodes
        # one coefficient nudged: a nonzero remainder, and the same quotient
        coeffs = list(poly.coeffs)
        coeffs[rng.randrange(len(coeffs))] += Fraction(rng.choice((-1, 1)),
                                                      10 ** rng.randint(1, 12))
        nudged = EvenPoly(tuple(coeffs))
        proof = verify_dominance(nudged, nodes)
        assert not proof.remainder_is_zero, nodes
        assert proof == verify_dominance_long_division(nudged, nodes), nodes


def test_dominance_of_other_polynomials_through_the_nodes_equals_the_long_division(
        seeded_node_sets):
    # P + prod_j (t - t_j)^2 E(t), t = x^2, for a polynomial E: P(x) - x keeps
    # its double roots at the nodes, and the quotient R_P becomes
    # R_P + D(-x) E(x^2), where D(x) = prod_j (x - x_j)^2.  So the remainder
    # stays zero while E sets the signs at 0 and 1/3 and the roots between.
    rng = random.Random(37)
    outcomes = set()
    for i, nodes in enumerate(s for s in seeded_node_sets if len(s) <= 5):
        poly = hermite_onesided(nodes)
        r = verify_dominance(poly, nodes).quotient
        d0 = prod(x * x for x in nodes)
        c = Fraction(1, 6)
        # D(-c) c^2 (c^2 - 1/9): the change at c per unit of gamma in t (t - 1/9)
        dc = prod((c + x) ** 2 for x in nodes) * c * c * (c * c - Fraction(1, 9))
        gamma = -2 * poly_eval(r, c) / dc
        e = ([-r[0] / d0],  # R(0) = 0
             [-2 * r[0] / d0, Fraction(rng.randint(-9, 9))],  # R(0) < 0
             [0, -gamma / 9, gamma],  # R(1/6) < 0 < R(0), R(1/3)
             [Fraction(rng.randint(-9, 9), rng.randint(1, 9))])[i % 4]
        square = [Fraction(1)]
        for x in nodes:
            square = _mul(square, [x ** 4, -2 * x * x, Fraction(1)])
        coeffs = [a + b for a, b in zip(list(poly.coeffs) + [0] * len(square), _mul(square, e))]
        while coeffs[-1] == 0:
            coeffs.pop()
        other = EvenPoly(tuple(coeffs))
        proof = verify_dominance(other, nodes)
        assert proof.remainder_is_zero, nodes
        assert proof == verify_dominance_long_division(other, nodes), nodes
        outcomes.add((proof.sign_at_zero, proof.sign_at_end, proof.interior_root_count > 0))
    assert {s0 for s0, _, _ in outcomes} == {-1, 0, 1}
    assert {(1, 1, True), (1, 1, False), (-1, -1, False)} <= outcomes


def test_dominance_of_any_even_polynomial_equals_the_long_division(seeded_node_sets):
    # polynomials not built from the nodes, of degree below, at and above
    # 4 * len(nodes): the quotient and every other field still match
    rng = random.Random(26)
    seen = set()
    for nodes in seeded_node_sets:
        for size in (1, 2 * len(nodes), 2 * len(nodes) + 1, rng.randint(1, 2 * len(nodes) + 3)):
            coeffs = [Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(size)]
            coeffs[-1] = coeffs[-1] or Fraction(1)
            poly = EvenPoly(tuple(coeffs))
            proof = verify_dominance(poly, nodes)
            assert proof == verify_dominance_long_division(poly, nodes), (poly, nodes)
            seen.add(proof.quotient == (Fraction(0),))
    assert seen == {True, False}


def _ascending(nums):
    return [Fraction(c) for c in reversed(nums)]


def test_deflate_by_a_divisor_that_does_not_divide_scales_to_the_long_division():
    # 6x^2 - 5x + 1 = (2x - 1)(3x - 1) leads with 6, which does not divide the
    # leading 1 of x^4 - 2x^3 + 3x^2 + 4x + 5, so g must rise above 1
    nums, divisor = [1, -2, 3, 4, 5], [6, -5, 1]
    quot, g, exact = certificate._deflate(nums, divisor)
    quotient, remainder = poly_divmod(_ascending(nums), _ascending(divisor))
    assert g > 1 and not exact and any(remainder)
    assert [Fraction(c, g) for c in reversed(quot)] == quotient


def test_deflate_equals_the_long_division_on_seeded_integer_polynomials():
    rng = random.Random(38)
    outcomes = set()
    for _ in range(300):
        divisor = [rng.randint(1, 12)] + [rng.randint(-9, 9) for _ in range(rng.randint(0, 4))]
        nums = [rng.choice((-1, 1)) * rng.randint(1, 99)] + [
            rng.randint(-99, 99) for _ in range(rng.randint(0, 7))]
        if rng.random() < 0.3:  # a multiple of divisor by an integer polynomial
            nums = _mul(divisor, nums)
        quot, g, exact = certificate._deflate(nums, divisor)
        quotient, remainder = poly_divmod(_ascending(nums), _ascending(divisor))
        assert ([Fraction(c, g) for c in reversed(quot)] or [Fraction(0)]) == quotient
        assert exact == (not any(remainder)), (nums, divisor)
        outcomes.add((exact, g > 1))
    assert outcomes >= {(True, False), (False, False), (False, True)}


def test_dominance_of_a_polynomial_shorter_than_the_divisor():
    # P(x) - x has degree 2, prod_j (x - x_j)^2 degree 4: nothing to divide
    nodes = NodeSet((Fraction(1, 5), Fraction(1, 4)))
    poly = EvenPoly((Fraction(1, 2), Fraction(3, 7)))
    proof = verify_dominance(poly, nodes)
    assert proof.quotient == (Fraction(0),) and not proof.remainder_is_zero
    assert proof == verify_dominance_long_division(poly, nodes)


def test_one_exact_division_proves_every_warm_plan_set(monkeypatch):
    # one division per proof, by a primitive divisor that divides: g stays 1
    calls, real = [], certificate._deflate
    monkeypatch.setattr(certificate, "_deflate",
                        lambda nums, divisor: calls.append(real(nums, divisor)) or calls[-1])
    sets = _warm_plan_sets(901)
    for nodes in sets:
        proof = verify_dominance(hermite_onesided(nodes), nodes)
        assert proof.valid, nodes
    assert len(calls) == len(sets) == 97
    assert all(g == 1 and exact for _, g, exact in calls)


def _through_one_node(a, e):
    """The majorant on the one node a plus (t - a^2)^2 E(t), t = x^2, with E
    ascending in t.  Its quotient is R(x) = 1/(2a) + (x + a)^2 E(x^2)."""
    nodes = NodeSet((a,))
    coeffs = list(hermite_onesided(nodes).coeffs)
    extra = poly_mul([a ** 4, -2 * a * a, Fraction(1)], e)
    coeffs += [Fraction(0)] * (len(extra) - len(coeffs))
    return EvenPoly(tuple(c + d for c, d in zip(coeffs, extra))), nodes


#: large scales K of 133-381 bits, none a multiple of 2, so the low bits of
#: R's integer coefficients are not all zero and the rounding drops something
LARGE = (7 ** 60, 3 ** 100, 10 ** 40 + 1, 2 ** 150 + 1, 11 ** 110)


def _sturm_counts(monkeypatch):
    """Record (bits of the widest coefficient, count) for each Sturm count
    that verify_dominance runs, one per rung of its ladder."""
    counts = []

    def counted(p, a, b):
        counts.append((max(abs(c) for c in p).bit_length(), sturm_root_count(p, a, b)))
        return counts[-1][1]

    monkeypatch.setattr(certificate, "sturm_root_count", counted)
    return counts


#: more bits than a rung of _ROUNDED_BITS keeps (a floor shift can carry a
#: negative coefficient one bit past its rung): a count on this many is exact
EXACT_BITS = max(certificate._ROUNDED_BITS) + 2


def test_rounded_proof_falls_back_when_the_minimum_is_below_the_rounding(monkeypatch):
    # R(x) = 1/(2a) + K (x + a)^2 (x^2 - 1/36)^2 >= 1/(2a) > 0, with its
    # minimum 1/(2a) at x = 1/6 (u = 1/2) far below the K-sized rounding
    # error: each rounded quotient dips below 0 and shows two spurious
    # roots, and the exact rung, the last, proves R positive
    counts = _sturm_counts(monkeypatch)
    a = Fraction(1, 5)
    for k in LARGE:
        poly, nodes = _through_one_node(a, [k * Fraction(1, 1296), -k * Fraction(1, 18), k])
        counts.clear()
        proof = verify_dominance(poly, nodes)
        assert [n for _, n in counts] == [2, 2, 0], k
        assert counts[-1][0] >= EXACT_BITS, k
        assert proof.valid, k
        assert proof == verify_dominance_long_division(poly, nodes), k


def test_rounded_proof_never_passes_a_quotient_with_an_interior_root(monkeypatch):
    # R as above with E lowered by c, so that R(1/6) = -delta: two roots near
    # x = 1/6 while R(0), R(1/3) > 0.  Rounding down only lowers the rounded
    # quotient, so no rounded rung counts 0, and the exact rung counts both
    counts = _sturm_counts(monkeypatch)
    a = Fraction(1, 5)
    for k in LARGE:
        for delta in (Fraction(1, 10 ** 6), Fraction(1, 3), Fraction(1)):
            c = (1 / (2 * a) + delta) / (Fraction(1, 6) + a) ** 2
            e = [k * Fraction(1, 1296) - c, -k * Fraction(1, 18), k]
            poly, nodes = _through_one_node(a, e)
            counts.clear()
            proof = verify_dominance(poly, nodes)
            assert counts[-1][0] >= EXACT_BITS and counts[-1][1] == 2, (k, delta)
            assert 0 not in [n for _, n in counts[:-1]], (k, delta)
            assert proof.interior_root_count == 2 and not proof.valid, (k, delta)
            assert proof == verify_dominance_long_division(poly, nodes), (k, delta)


def test_rounded_check_declines_a_rounded_root_at_either_end(monkeypatch):
    # N(x) = -(3A - 1) x + A, A = 2^100: T(u) = 3A - (3A - 1) u is 1 at u = 1,
    # and its floor-shifted copies are 0 there; N(x) = A x + 1 shifts to 0
    # at u = 0.  The ladder skips both rounded rungs, without raising, and
    # counts on the exact rung, T itself (102 and 101 bits); with
    # T(1) = 2^40 the 64-bit copy keeps a positive end and proves N
    counts = _sturm_counts(monkeypatch)
    big = 2 ** 100
    assert certificate._interior_root_count([-(3 * big - 1), big]) == 0
    assert certificate._interior_root_count([big, 1]) == 0
    assert certificate._interior_root_count([-(3 * big - 2 ** 40), big]) == 0
    assert counts == [(102, 0), (101, 0), (64, 0)]


def test_high_degree_gauss_set_proves_without_the_exact_chain(monkeypatch):
    counts = _sturm_counts(monkeypatch)
    for text in (GAUSS_25, GAUSS_33):
        nodes = NodeSet.from_rationals(text.split())
        proof = verify_dominance(hermite_onesided(nodes), nodes)
        assert proof.valid and proof.interior_root_count == 0, text
        assert len(proof.quotient) == 2 * len(nodes) - 1
    assert counts and all(bits <= 64 for bits, _ in counts)


def _warm_plan_sets(seed):
    """The node sets that the benchmark's warm-certify-sweep plan stages for
    `seed`: the reference set and its seeded polished and random sets."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    plan = inputs.make_plan("warm-certify-sweep", seed)
    return [NodeSet.from_rationals(nodes) for nodes in plan["files"].values()]


def test_the_32_bit_rung_alone_proves_the_warm_plan(monkeypatch):
    counts = _sturm_counts(monkeypatch)
    monkeypatch.setattr(certificate, "_ROUNDED_BITS", (32,))
    sets = _warm_plan_sets(901)
    assert NodeSet(REFERENCE_NODES) in sets and len(sets) == 97
    for nodes in sets:
        proof = verify_dominance(hermite_onesided(nodes), nodes)
        assert proof.valid and proof.interior_root_count == 0, nodes
    assert len(counts) == 97 and all(bits <= 32 for bits, _ in counts)


def test_certify_reports_the_verdict_the_oracle_derives(tmp_path, capsys, monkeypatch):
    # end to end, from the node file to the report: the oracle re-derives
    # the bound, root count and verdict from the nodes alone, with moments,
    # majorant, dominance proof and target that share no code with `src/`
    sets = _warm_plan_sets(901)[::10]
    assert sets[0] == NodeSet(REFERENCE_NODES)
    with monkeypatch.context() as blocked:  # any import of the library fails
        for name in [name for name in sys.modules if name.split(".")[0] == "tetravol"]:
            blocked.setitem(sys.modules, name, None)
        derived = [verdict(nodes.nodes) for nodes in sets]
    verdicts = set()
    for i, (nodes, (bound, count, certified)) in enumerate(zip(sets, derived)):
        path, report = tmp_path / f"nodes-{i}.txt", tmp_path / f"report-{i}.txt"
        path.write_text("".join(f"{x.numerator}/{x.denominator}\n" for x in nodes))
        code = main(["certify", "--nodes", str(path), "--moments", str(GOLDEN_MOMENTS),
                     "--report", str(report)])
        fields = dict(line.partition(": ")[::2] for line in report.read_text().splitlines())
        assert (Fraction(fields["bound"]), int(fields["dominance-root-count"]),
                fields["verdict"]) == (bound, count, VERDICT_TRUE if certified
                                       else VERDICT_FALSE), nodes
        assert code == (EXIT_OK if certified else EXIT_NOT_CERTIFIED)
        verdicts.add(certified)
    capsys.readouterr()
    assert verdicts == {True, False}


def test_high_degree_gauss_sets_skip_the_32_bit_rung_at_its_ends(monkeypatch):
    # the 32-bit copy of each quotient is not positive at an end, so the
    # first chain built is the 64-bit one, and it proves the quotient
    bits, real = [], certificate.sturm_chain
    monkeypatch.setattr(certificate, "sturm_chain", lambda p: bits.append(
        max(abs(c) for c in p).bit_length()) or real(p))
    for text in (GAUSS_25, GAUSS_33):
        nodes = NodeSet.from_rationals(text.split())
        bits.clear()
        assert verify_dominance(hermite_onesided(nodes), nodes).valid, text
        assert bits == [64], text


@pytest.mark.skipif(not os.environ.get("TETRAVOL_SLOW"),
                    reason="~1 min of exact Sturm; set TETRAVOL_SLOW=1 to run")
def test_high_degree_rounded_proof_equals_the_exact_one(monkeypatch):
    nodes = NodeSet.from_rationals(GAUSS_33.split())
    poly = hermite_onesided(nodes)
    rounded = verify_dominance(poly, nodes)
    monkeypatch.setattr(certificate, "_ROUNDED_BITS", ())
    assert verify_dominance(poly, nodes) == rounded


def test_certify_single_node_fails_comparison(table13):
    cert = certify(NodeSet((Fraction(1, 3),)), table13)
    assert cert.bound == Fraction(2009, 12000)
    assert cert.verdict is False
    assert cert.dominance.valid  # majorant fine, bound just too weak
    assert cert.margin < 0


def test_certificate_names_the_package_version():
    cert = certify(NodeSet((Fraction(1, 3),)), MomentTable({1: Fraction(1, 2000)}))
    assert cert.metadata["tool"] == f"tetravol {tetravol.__version__}"


def test_certify_requires_all_orders(table13):
    truncated = MomentTable({k: table13[k] for k in range(1, 13)})
    with pytest.raises(MomentOrderError):
        certify(NodeSet(REFERENCE_NODES), truncated)


def test_certify_checks_the_orders_before_building_the_majorant(table13, monkeypatch):
    def fail(nodes):
        raise AssertionError("the majorant was built")

    monkeypatch.setattr(certificate, "hermite_onesided", fail)
    short = MomentTable({k: table13[k] for k in range(1, 13)})
    with pytest.raises(MomentOrderError) as info:
        certify(NodeSet(REFERENCE_NODES), short)
    assert str(info.value) == "moment table lacks orders [13] needed for 7 nodes"


def test_report_contains_verdict_and_round_trips(table13):
    cert = certify(NodeSet(REFERENCE_NODES), table13)
    text = render_report(cert)
    assert f"verdict: {VERDICT_TRUE}" in text
    assert "bound-decimal: 0.0173791" in text
    assert parse_report(text) == cert


def test_failing_report_shows_deficit(table13):
    cert = certify(NodeSet((Fraction(1, 3),)), table13)
    text = render_report(cert)
    assert f"verdict: {VERDICT_FALSE}" in text
    assert "deficit: " in text
    deficit = -(cert.target.lo - cert.bound)
    assert f"deficit: {deficit.numerator}/{deficit.denominator}" in text
    assert parse_report(text) == cert


def test_report_rejects_garbage():
    from tetravol.certificate import ReportFormatError
    with pytest.raises(ReportFormatError):
        parse_report("not a certificate\n")


def test_certificate_stores_only_what_it_cannot_derive(table13):
    assert [f.name for f in dataclasses.fields(Certificate)] == \
        ["nodes", "p_cert", "bound", "dominance", "metadata"]
    for name in ("target", "margin", "verdict"):
        assert isinstance(getattr(Certificate, name), property), name
    cert = certify(NodeSet(REFERENCE_NODES), table13)
    assert cert.target == target_enclosure()
    # the verdict follows the bound and the proof, whatever they are
    assert not dataclasses.replace(cert, bound=cert.target.lo).verdict
    assert not dataclasses.replace(
        cert, dominance=dataclasses.replace(cert.dominance, sign_at_end=-1)).verdict


def test_golden_reference_report_parses_to_the_reference_certificate(table13):
    text = GOLDEN_REFERENCE_REPORT.read_text()
    cert = parse_report(text)
    assert render_report(cert) == text
    reference = certify(NodeSet(REFERENCE_NODES), table13)
    assert dataclasses.replace(cert, metadata={}) == \
        dataclasses.replace(reference, metadata={})
    assert cert.metadata == {"moment-file": "moments.tsv", "moments": "file:1-13",
                             "tool": reference.metadata["tool"]}


def test_report_names_each_run_of_the_file_orders(tmp_path):
    # orders 1..15 from one file are one run of the one source
    path = tmp_path / "m.tsv"
    text = GOLDEN_MOMENTS.read_text()
    for k in (14, 15):
        v = even_moment_fast(k)
        text += f"{k}\t{v.numerator}\t{v.denominator}\n"
    path.write_text(text)
    text = render_report(certify(NodeSet(REFERENCE_NODES), MomentTable.read(path)))
    assert "\nmeta moments: file:1-15\n" in text


def test_rendered_reports_parse_back_to_equal_certificates(seeded_node_sets, table13):
    sets = [nodes for nodes in seeded_node_sets if len(nodes) <= 7]
    assert len(sets) == 175
    for nodes in sets:
        cert = certify(nodes, table13, metadata={"run": "seeded"})
        assert parse_report(render_report(cert)) == cert, nodes


def _golden_report_with(old: str, new: str, count: int = 1) -> str:
    text = GOLDEN_REFERENCE_REPORT.read_text()
    assert text.count(old) == count, old
    return text.replace(old, new)


def _golden_line(prefix: str) -> str:
    text = GOLDEN_REFERENCE_REPORT.read_text()
    return next(line + "\n" for line in text.split("\n") if line.startswith(prefix))


@pytest.mark.parametrize("tamper, message", [
    pytest.param(lambda: "not a certificate\n", "missing field 'nodes'", id="no-fields"),
    pytest.param(lambda: _golden_report_with("tetravol-certificate v1",
                                             "tetravol-certificate v2"),
                 "line 1: 'tetravol-certificate v2', where the report rebuilt",
                 id="header-changed"),
    pytest.param(lambda: _golden_report_with(f"verdict: {VERDICT_TRUE}",
                                             f"verdict: {VERDICT_FALSE}"),
                 "line 31: 'verdict: NOT CERTIFIED', where the report rebuilt",
                 id="verdict-flipped"),
    pytest.param(lambda: _golden_report_with("target-lo: 1", "target-lo: 2"),
                 "line 22: 'target-lo: 2", id="target-lo-raised"),
    pytest.param(lambda: _golden_report_with("dominance-root-count: 0",
                                             "dominance-root-count: 2"),
                 "line 27: 'dominance-root-count: 2', where the report rebuilt from its "
                 "nodes and bound has 'dominance-root-count: 0'", id="root-count-changed"),
    pytest.param(lambda: _golden_report_with(_golden_line("coefficient 5: "), ""),
                 "line 11: 'coefficient 6: ", id="coefficient-5-missing"),
    pytest.param(lambda: _golden_report_with(_golden_line("bound: "),
                                             2 * _golden_line("bound: ")),
                 "line 21: 'bound: ", id="bound-twice"),
    pytest.param(lambda: _golden_report_with("nodes: 1/83 1/22", "nodes: 1/22 1/83"),
                 "line 5: nodes must be positive and strictly increasing: "
                 "node 2 is 1/83 after 1/22", id="nodes-out-of-order"),
    pytest.param(lambda: _golden_report_with("coefficient 5: ", "coefficient x: "),
                 "line 11: 'coefficient x: ", id="coefficient-x"),
    pytest.param(lambda: _golden_report_with("nodes: 1/83", "nodes: 2/166"),
                 "line 5: 'nodes: 2/166 1/22", id="node-not-in-lowest-terms"),
    pytest.param(lambda: _golden_report_with("nodes: 1/83", "nodes: 1/0"),
                 "line 5: '1/0' is not an exact fraction p/q", id="zero-denominator"),
    pytest.param(lambda: _golden_report_with("nodes: 1/83", "nodes: 0.012"),
                 "line 5: '0.012' is not an exact fraction p/q", id="decimal-node"),
    pytest.param(lambda: _golden_report_with("\nbound: ", "\nbound:"),
                 "missing field 'bound'", id="bound-missing"),
    pytest.param(lambda: GOLDEN_REFERENCE_REPORT.read_text().rstrip("\n"),
                 "line 33: the end of the text, where the report rebuilt",
                 id="no-final-newline"),
    pytest.param(lambda: GOLDEN_REFERENCE_REPORT.read_text() + "extra\n",
                 "line 33: 'extra', where the report rebuilt", id="trailing-line"),
])
def test_report_format_error(tamper, message):
    with pytest.raises(ReportFormatError) as info:
        parse_report(tamper())
    assert str(info.value).startswith(message)


def test_report_refuses_an_exponent_node_at_once():
    text = _golden_report_with("nodes: 1/83", "nodes: 1e-3000000")
    t0 = time.perf_counter()
    with pytest.raises(ReportFormatError, match=r"^line 5: '1e-3000000' is not"):
        parse_report(text)
    assert time.perf_counter() - t0 < 0.1


def test_report_numbers_of_any_size_round_trip():
    # past the interpreter's int-to-str digit limit, which stays as it was
    limit = sys.get_int_max_str_digits()
    x = Fraction(-1, 3 * 10 ** (limit + 10) + 1)
    assert certificate._frac_str(x) == "-1/3" + "0" * (limit + 9) + "1"
    assert certificate._read_fraction(certificate._frac_str(x), 1) == x
    assert sys.get_int_max_str_digits() == limit


#: the n-atom law of the exact-law test
ATOMS = 5


@pytest.mark.parametrize("name", [*CONTINUOUS_LAWS, f"{ATOMS}-atoms"])
def test_bound_is_above_the_exact_mean_of_known_laws(name):
    """The whole chain the verdict rests on, `gauss_nodes`, `rationalize`, the
    Hermite majorant, `expected_value` and the dominance ladder, run on laws
    of t on [0, 1/9] whose E sqrt(t) is exact.  Each proof is valid, and the
    gap B - E sqrt(t) is positive and falls with the node count.  On a law of
    n atoms the n-point Gauss rule is exact: its nodes are the atoms, B
    equals E x, and n + 1 nodes find the Hankel matrix singular."""
    law = CONTINUOUS_LAWS.get(name) or atom_law(ATOMS, seed=37)
    counts = range(1, ATOMS + 1) if law.atoms else (1, 3, 7, 13)
    table = MomentTable({k: law.moment(k) for k in range(1, 2 * max(counts) + 2)})
    gaps = []
    for n in counts:
        nodes = NodeSet.from_rationals(rationalize(x, 10**6) for x in gauss_nodes(n, table))
        cert = certify(nodes, table)
        assert cert.dominance.valid, (n, cert.dominance)
        gaps.append(cert.bound - law.mean)
    assert all(a > b for a, b in zip(gaps, gaps[1:])), gaps
    if law.atoms:
        assert nodes.nodes == law.atoms
        assert gaps[-1] == 0
        with pytest.raises(MomentIntegrityError, match="beta_"):
            gauss_nodes(ATOMS + 1, table)
    else:
        assert gaps[-1] > 0
