"""The summary arithmetic of `bench/pairs.py`, on fixed numbers (no run)."""

import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def pairs(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # pairs.py imports its sibling sides.py
    return importlib.import_module("pairs")


def runs_of(total_s, peak_rss_mb, failed=0):
    return [{"seed": 100 + i, "correct": failed == 0, "attempted": 30, "failed": failed,
             "setup_s": 0.1, "total_s": t, "peak_rss_mb": m, "cpu_per_op_s": t / 3}
            for i, (t, m) in enumerate(zip(total_s, peak_rss_mb))]


def test_summary_of_fixed_pairs(pairs):
    parent = runs_of([0.50, 0.70, 0.60, 0.80, 0.90], [38.9, 38.8, 39.0, 38.7, 38.9])
    change = runs_of([0.55, 0.60, 0.65, 0.70, 0.75], [38.1, 38.2, 38.1, 38.0, 39.1], failed=1)
    summary = pairs.summarize({"parent": parent, "change": change})

    assert summary["parent"]["total_s"] == {"median": 0.7, "quartiles": [0.6, 0.8]}
    assert summary["change"]["peak_rss_mb"] == {"median": 38.1, "quartiles": [38.1, 38.2]}
    assert summary["parent"]["cpu_per_op_s"]["median"] == round(0.7 / 3, 4)
    assert (summary["parent"]["attempted"], summary["parent"]["failed"]) == (150, 0)
    assert (summary["change"]["attempted"], summary["change"]["failed"]) == (150, 5)
    assert summary["parent"]["all_correct"] and not summary["change"]["all_correct"]
    assert "against_parent" not in summary["parent"]

    total = summary["change"]["against_parent"]["total_s"]
    # lower in pairs 2, 4 and 5; medians 0.65 against 0.70; parent IQR 0.8 - 0.6
    assert total == {"lower_pairs": 3, "pairs": 5, "median_change": -0.05,
                     "median_change_pct": -7.14, "base_iqr": 0.2, "beyond_base_iqr": False}
    rss = summary["change"]["against_parent"]["peak_rss_mb"]
    # lower in all but pair 5; medians 38.1 against 38.9; parent IQR 38.9 - 38.8
    assert rss == {"lower_pairs": 4, "pairs": 5, "median_change": -0.8,
                   "median_change_pct": -2.06, "base_iqr": 0.1, "beyond_base_iqr": True}


def test_every_later_side_is_compared_with_the_first(pairs):
    base = runs_of([1.0, 1.0], [40.0, 40.0])
    summary = pairs.summarize({"a": base, "b": runs_of([0.5, 2.0], [39.0, 39.0]),
                               "c": runs_of([0.9, 0.9], [41.0, 41.0])})
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
    summary = pairs.summarize(runs)
    assert summary["parent"]["total_s"]["median"] == 5
    assert summary["parent"]["attempted"] == 90
