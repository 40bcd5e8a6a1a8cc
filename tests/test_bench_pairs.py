"""The summary arithmetic of `bench/pairs.py`, on fixed numbers (no run)."""

import importlib
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def pairs(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # pairs.py imports its sibling sides.py
    return importlib.import_module("pairs")


#: relative bounds of the end-to-end metrics, as BENCHMARK.json gives them
BOUNDS = {"setup_s": 0.25, "total_s": 0.25, "peak_rss_mb": 0.1}


def runs_of(total_s, peak_rss_mb, failed=0):
    # a run of total_s t fits about 10 / t passes into its 10 seconds
    return [{"seed": 100 + i, "correct": failed == 0, "passes": round(10 / t),
             "attempted": 30, "failed": failed,
             "setup_s": 0.1, "total_s": t, "peak_rss_mb": m, "cpu_per_op_s": t / 3}
            for i, (t, m) in enumerate(zip(total_s, peak_rss_mb))]


def test_summary_of_fixed_pairs(pairs):
    parent = runs_of([0.50, 0.70, 0.60, 0.80, 0.90], [38.9, 38.8, 39.0, 38.7, 38.9])
    change = runs_of([0.55, 0.60, 0.65, 0.70, 0.75], [38.1, 38.2, 38.1, 38.0, 39.1], failed=1)
    summary = pairs.summarize({"parent": parent, "change": change}, BOUNDS)

    assert summary["parent"]["total_s"] == {"median": 0.7, "quartiles": [0.6, 0.8]}
    assert summary["change"]["peak_rss_mb"] == {"median": 38.1, "quartiles": [38.1, 38.2]}
    assert summary["parent"]["cpu_per_op_s"]["median"] == round(0.7 / 3, 4)
    assert (summary["parent"]["attempted"], summary["parent"]["failed"]) == (150, 0)
    assert (summary["change"]["attempted"], summary["change"]["failed"]) == (150, 5)
    # passes 20, 14, 17, 12, 11 and 18, 17, 15, 14, 13
    assert summary["parent"]["passes_median"] == 14
    assert summary["change"]["passes_median"] == 15
    assert summary["parent"]["all_correct"] and not summary["change"]["all_correct"]
    assert "against_parent" not in summary["parent"]

    total = summary["change"]["against_parent"]["total_s"]
    # lower in pairs 2, 4 and 5; medians 0.65 against 0.70; parent IQR 0.8 - 0.6
    assert total == {"lower_pairs": 3, "pairs": 5, "median_change": -0.05,
                     "median_change_pct": -7.14, "base_iqr": 0.2, "beyond_base_iqr": False,
                     "claim_rule_met": False, "within_bound": True, "resolved": False}
    rss = summary["change"]["against_parent"]["peak_rss_mb"]
    # lower in all but pair 5; medians 38.1 against 38.9; parent IQR 38.9 - 38.8
    assert rss == {"lower_pairs": 4, "pairs": 5, "median_change": -0.8,
                   "median_change_pct": -2.06, "base_iqr": 0.1, "beyond_base_iqr": True,
                   "claim_rule_met": False, "within_bound": True, "resolved": True}
    # cpu_per_op_s has no bound
    cpu = summary["change"]["against_parent"]["cpu_per_op_s"]
    assert cpu["within_bound"] is None and cpu["resolved"] is None


def test_every_later_side_is_compared_with_the_first(pairs):
    base = runs_of([1.0, 1.0], [40.0, 40.0])
    summary = pairs.summarize({"a": base, "b": runs_of([0.5, 2.0], [39.0, 39.0]),
                               "c": runs_of([0.9, 0.9], [41.0, 41.0])}, BOUNDS)
    assert summary["b"]["against_a"]["total_s"]["lower_pairs"] == 1
    assert summary["c"]["against_a"]["total_s"]["lower_pairs"] == 2
    assert summary["c"]["against_a"]["peak_rss_mb"]["median_change"] == 1.0
    assert "against_b" not in summary["c"]


def test_the_warm_up_run_is_recorded_apart_from_the_pairs(pairs, monkeypatch):
    # the stub's call n reads total_s n, except the first, which reads 90
    calls = []

    def run(tree, workload, seed):
        calls.append((tree, seed))
        t = 90.0 if len(calls) == 1 else float(len(calls))
        return runs_of([t], [40.0])[0] | {"seed": seed}

    monkeypatch.setattr(pairs, "run", run)
    warmup, runs = pairs.collect([("parent", "/a"), ("change", "/b")], "w", 3, 50)

    # the warm-up is the first side's, on pair 1's seed, before every pair
    assert calls == [("/a", 50), ("/a", 50), ("/b", 50), ("/b", 51), ("/a", 51),
                     ("/a", 52), ("/b", 52)]
    assert warmup["side"] == "parent" and warmup["total_s"] == 90.0
    assert [r["total_s"] for r in runs["parent"]] == [2, 5, 6]
    assert [r["total_s"] for r in runs["change"]] == [3, 4, 7]
    assert [r["seed"] for r in runs["parent"]] == [50, 51, 52]
    summary = pairs.summarize(runs, BOUNDS)
    assert summary["parent"]["total_s"]["median"] == 5
    assert summary["parent"]["attempted"] == 90


def test_every_end_to_end_metric_has_a_bound_in_the_benchmark(pairs):
    # the CPU figure is this script's own and has none
    bounds = pairs.end_to_end_bounds()
    assert set(bounds) == set(pairs.METRICS) - {"cpu_per_op_s"}
    assert all(0 < bound < 1 for bound in bounds.values())


@pytest.mark.parametrize("lower, claimed", [(9, True), (8, False)])
def test_a_claim_needs_9_of_10_lower_pairs(pairs, lower, claimed):
    # parent 1.00..1.09 (IQR 0.045); the change is 0.1 lower in `lower`
    # pairs and 0.01 higher in the others, its median 0.1 lower either way
    base = [1.0 + i / 100 for i in range(10)]
    other = [b - 0.1 if i < lower else b + 0.01 for i, b in enumerate(base)]
    verdict = pairs.compare(base, other, 0.25)
    assert verdict["lower_pairs"] == lower
    assert verdict["beyond_base_iqr"]
    assert verdict["claim_rule_met"] is claimed


def test_a_claim_needs_a_median_beyond_the_parents_spread(pairs):
    # lower in 10/10 pairs, but by 0.001 against an IQR of 0.045
    base = [1.0 + i / 100 for i in range(10)]
    verdict = pairs.compare(base, [b - 0.001 for b in base], 0.25)
    assert verdict["lower_pairs"] == 10 and not verdict["claim_rule_met"]


@pytest.mark.parametrize("worse, within", [(0.249, True), (0.251, False)])
def test_within_bound_is_the_relative_bound_on_the_median(pairs, worse, within):
    # parent median 1.0; the change's median is 24.9% or 25.1% worse
    base = [0.9, 1.0, 1.1]
    verdict = pairs.compare(base, [b + worse for b in base], 0.25)
    assert verdict["within_bound"] is within
    assert pairs.compare(base, [b + worse for b in base], None)["within_bound"] is None


@pytest.mark.parametrize("base, other, resolved", [
    # parent IQR 0.3 (0.85..1.15) against a bound of 0.25 x 1.0: too wide
    ([0.7, 0.85, 1.0, 1.15, 1.3], [0.69, 0.84, 0.99, 1.14, 1.29], False),
    # as wide, but every run of the change is below every run of the parent
    ([0.7, 0.85, 1.0, 1.15, 1.3], [0.5, 0.55, 0.6, 0.65, 0.69], True),
    # parent IQR 0.1 (0.95..1.05), within the bound
    ([0.9, 0.95, 1.0, 1.05, 1.1], [1.2, 1.3, 1.4, 1.5, 1.6], True),
])
def test_a_spread_wider_than_the_bound_is_unresolved(pairs, base, other, resolved):
    assert pairs.compare(base, other, 0.25)["resolved"] is resolved
    assert pairs.compare(base, other, None)["resolved"] is None


@pytest.mark.parametrize("failed, correct, claimed", [(0, True, True), (1, True, False),
                                                      (0, False, False)])
def test_no_claim_for_a_side_that_fails_more_or_answers_wrong(pairs, failed, correct, claimed):
    # the change is 0.1 lower in 10/10 pairs, against a parent IQR of 0.045
    base = [1.0 + i / 100 for i in range(10)]
    parent = runs_of(base, [38.0] * 10)
    change = runs_of([t - 0.1 for t in base], [38.0] * 10, failed=failed)
    for r in change:
        r["correct"] = correct and not failed
    total = pairs.summarize({"parent": parent, "change": change}, BOUNDS)["change"][
        "against_parent"]["total_s"]
    assert total["lower_pairs"] == 10 and total["beyond_base_iqr"]
    assert total["claim_rule_met"] is claimed


def test_a_run_records_the_passes_of_the_benchmarks_summary_line(pairs, monkeypatch,
                                                                 tmp_path):
    # the last lines `perfbench/run.py` prints, with the metrics cut to two
    stdout = ("warm-certify-sweep seed=7 passes=31 ops=3255 failed=0 "
              "result=/tmp/x/result.json\n"
              "  setup_s                               0.05 s      n=6\n"
              '{"correct": true, "attempted": 3255, "failed": 0, "metrics": '
              '{"setup_s": {"value": 0.05, "unit": "s"}, '
              '"peak_rss_mb": {"value": 38.5, "unit": "MB"}}}\n')
    monkeypatch.setattr(pairs.subprocess, "run", lambda *args, **kwargs: SimpleNamespace(
        returncode=0, stdout=stdout, stderr=""))
    r = pairs.run(str(tmp_path), "warm-certify-sweep", 7)
    assert (r["seed"], r["passes"], r["attempted"], r["failed"]) == (7, 31, 3255, 0)
    assert (r["setup_s"], r["peak_rss_mb"]) == (0.05, 38.5)
