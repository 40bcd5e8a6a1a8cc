"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload W [--seeds 1-10]

Each run is untraced and measures `run_seconds` from BENCHMARK.json.
For every end-to-end metric: the median, the first and third quartiles
(statistics.quantiles with n=4) and the quartile distance as a share of the
median, which is the figure a metric's bound in BENCHMARK.json must exceed.
Every run's result line is appended to .perfbench-out/spread-<W>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range a-b")
    args = parser.parse_args()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    first, last = (int(x) for x in args.seeds.split("-"))
    log = ROOT / ".perfbench-out" / f"spread-{args.workload}.jsonl"
    log.parent.mkdir(exist_ok=True)
    values: dict[str, list[float]] = {}
    for seed in range(first, last + 1):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        line = proc.stdout.strip().splitlines()[-1]
        with log.open("a") as fh:
            fh.write(line + "\n")
        result = json.loads(line)
        if not result["correct"]:
            print(f"seed {seed}: correct=false\n{proc.stdout}", file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()),
              flush=True)
    for name, v in values.items():
        q1, med, q3 = statistics.quantiles(v, n=4)
        share = (q3 - q1) / med if med else float("nan")
        print(f"{name:32s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
              f"spread {share:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
