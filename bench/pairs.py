"""End-to-end A/B pairs of the benchmark for two or more checkouts.

    python3 bench/pairs.py --side parent=/path/to/parent --side change=. \
        --workload mc-crosscheck --pairs 10 --seed 37001 --out BENCH_mc_pairs.json

Each TREE is the root of a checkout.  Pair i (i = 0, 1, ...) runs
`python3 perfbench/run.py --workload W --seed S+i --seconds 10 --trace 0`
once in each tree, the sides in the given order in even pairs and reversed
in odd ones, as `bench/sides.py` alternates them.  Before pair 0 the first
side runs seed S once as a warm-up: the first run of a series reads a
higher `peak_rss_mb` than the later ones, and pair 0 runs the first side
first.  The warm-up is recorded apart and enters no summary.  Before each
run every `__pycache__` under its tree is removed and the run gets
PYTHONDONTWRITEBYTECODE=1, so each run compiles its side's source afresh.

A run records the three end-to-end metrics, the operations attempted and
failed, the passes it fitted into its seconds (`passes=N` on the summary
line of `perfbench/run.py`: `peak_rss_mb` on `cold-reproduce` and
`warm-certify-sweep` reads the harness's memory, which grows with each
pass), and its CPU per operation: the user and system time of the run and
of every process it waited for (RUSAGE_CHILDREN, read around the run),
over the operations attempted.  That figure includes the CPU of the
benchmark's own harness and gate, so a change to either moves it on one
side only; it is recorded beside the metrics, not gated.

The JSON holds every run, the warm-up under `warmup`; per side and metric
the median and outer quartiles, and the median passes per run; per later
side and metric, against the first side, the pairs in which it is lower,
the difference of the medians, the first side's interquartile range and
three verdicts: `claim_rule_met`,
lower in at least 9 of 10 pairs and in the median by more than that range,
with no more failed operations than the first side and every run correct,
and `within_bound`, a median worse than the first side's by no more than
the metric's relative bound in BENCHMARK.json, and `resolved`, whether
that bound can tell at all: the first side's interquartile range is at
most the bound times its median, or every run of the later side is below
every run of the first (both null for `cpu_per_op_s`, which has no
bound); each tree's `src/tetravol` sha256 and the machine.  The
bounds are read from the BENCHMARK.json beside `bench/`, never written.
Stdlib only; the side-by-side harness is `bench/sides.py`.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import sides as harness

#: the benchmark's end-to-end metrics, then the CPU figure this script adds
METRICS = ("setup_s", "total_s", "peak_rss_mb", "cpu_per_op_s")
DIGITS = 4
BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
SECONDS = 10
CPU_NOTE = ("cpu_per_op_s is the user + system CPU of the whole benchmark run "
            "(perfbench/run.py and every process it waited for, read as "
            "RUSAGE_CHILDREN around it) over its attempted operations; it includes "
            "the harness's and the gate's CPU, not the program's alone")


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run(tree: str, workload: str, seed: int) -> dict:
    """One `perfbench/run.py` run in `tree`, from a tree without bytecode."""
    for cache in list(Path(tree).rglob("__pycache__")):
        shutil.rmtree(cache)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cpu = children_cpu_s()
    proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    cpu = children_cpu_s() - cpu
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    passes = re.search(r"^\S+ seed=\S+ passes=(\d+) ", proc.stdout, re.MULTILINE)
    return {"seed": seed, "correct": result["correct"], "passes": int(passes[1]),
            "attempted": result["attempted"], "failed": result["failed"],
            **{name: round(m["value"], 6) for name, m in result["metrics"].items()},
            "cpu_s": round(cpu, 4),
            "cpu_per_op_s": round(cpu / max(result["attempted"], 1), 6)}


def end_to_end_bounds() -> dict[str, float]:
    """The relative bound of each end-to-end metric in BENCHMARK.json."""
    return {m["name"]: m["bound"] for m in json.loads(BENCHMARK.read_text())["end_to_end"]}


def compare(base: list[float], other: list[float], bound: float | None) -> dict:
    """`other` against `base`, pair by pair, for a metric where lower is
    better: in how many pairs it is lower, the difference of the medians
    (other - base), and base's interquartile range, which that difference
    must pass to stand out of base's spread.  `claim_rule_met`: lower in at
    least 9/10 of the pairs and in the median by more than that range.
    `within_bound`: the median is worse by no more than `bound` times
    base's, or None without a bound.  `resolved`: the bound is no narrower
    than base's own spread (its interquartile range is at most `bound`
    times its median), or every run of `other` is below every run of base;
    None without a bound."""
    q1, _, q3 = harness.quartiles(base, DIGITS)
    median = statistics.median(base)
    change = statistics.median(other) - median
    lower = sum(o < b for b, o in zip(base, other))
    return {"lower_pairs": lower, "pairs": len(base),
            "median_change": round(change, DIGITS),
            "median_change_pct": round(100 * change / median, 2),
            "base_iqr": round(q3 - q1, DIGITS),
            "beyond_base_iqr": abs(change) > q3 - q1,
            "claim_rule_met": 10 * lower >= 9 * len(base) and -change > q3 - q1,
            "within_bound": None if bound is None else change <= bound * median,
            "resolved": None if bound is None else (q3 - q1 <= bound * median
                                                    or max(other) < min(base))}


def summarize(runs: dict[str, list[dict]], bounds: dict[str, float]) -> dict:
    """Per side and metric, the median and outer quartiles over its runs,
    the median passes per run, and the comparison of every later side with
    the first under the metrics' `bounds`, where no claim holds for a side
    that fails more operations than the first or is not all correct; `runs`
    lists each side's runs in pair order."""
    labels = list(runs)
    first = labels[0]
    out = {}
    for label in labels:
        entry = {name: harness.summary([r[name] for r in runs[label]], DIGITS)
                 for name in METRICS}
        entry["passes_median"] = statistics.median(r["passes"] for r in runs[label])
        entry["attempted"] = sum(r["attempted"] for r in runs[label])
        entry["failed"] = sum(r["failed"] for r in runs[label])
        entry["all_correct"] = all(r["correct"] for r in runs[label])
        if label != first:
            entry[f"against_{first}"] = {
                name: compare([r[name] for r in runs[first]], [r[name] for r in runs[label]],
                              bounds.get(name))
                for name in METRICS}
            # a side that fails more operations, or answers wrong, gains nothing
            if entry["failed"] > out[first]["failed"] or not entry["all_correct"]:
                for verdict in entry[f"against_{first}"].values():
                    verdict["claim_rule_met"] = False
        out[label] = entry
    return out


def collect(sides: list[tuple[str, str]], workload: str, pairs: int,
            seed: int) -> tuple[dict, dict[str, list[dict]]]:
    """The warm-up run of the first side, then each side's runs in pair order."""
    label, tree = sides[0]
    warmup = {"side": label, **run(tree, workload, seed)}
    runs: dict[str, list[dict]] = {label: [] for label, _ in sides}
    for i, label, tree in harness.alternate(sides, pairs):
        runs[label].append(run(tree, workload, seed + i))
        r = runs[label][-1]
        print(f"pair {i + 1} {label}: total_s {r['total_s']:.4f} peak_rss_mb "
              f"{r['peak_rss_mb']:.2f} passes {r['passes']} "
              f"cpu_per_op_s {r['cpu_per_op_s']:.4f}",
              file=sys.stderr)
    return warmup, runs


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--side", action="append", required=True, type=harness.side,
                        help="LABEL=TREE, a checkout's root; give two or more, the "
                             "baseline first")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True,
                        help="pair i runs seed SEED + i on every side")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    if len(args.side) < 2:
        parser.error("give at least two --side")
    warmup, runs = collect(args.side, args.workload, args.pairs, args.seed)
    result = {"benchmark": f"perfbench/run.py --workload {args.workload} --seed "
                           f"{args.seed}+i --seconds {SECONDS} --trace 0, one run per "
                           f"side in each of {args.pairs} alternating pairs after one "
                           "warm-up run of the first side, from trees "
                           "without __pycache__ and with PYTHONDONTWRITEBYTECODE=1",
              "cpu_note": CPU_NOTE,
              "machine": harness.machine(),
              "workload": args.workload, "seeds": [args.seed, args.seed + args.pairs - 1],
              "trees": {label: {"src_sha256": harness.tree_sha256(Path(tree) / "src")}
                        for label, tree in args.side},
              "summary": summarize(runs, end_to_end_bounds()),
              "warmup": warmup,
              "runs": runs}
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
