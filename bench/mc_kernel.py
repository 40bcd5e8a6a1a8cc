"""Wall time of the three `mc-crosscheck` Monte Carlo estimates, and of one
sample block and of its draw alone, for two or more source trees.

    python3 bench/mc_kernel.py --side parent=/path/to/old/src \
        --side change=src --seed 31 --repeats 10 --out BENCH_mc_kernel.json

Each timed run is a fresh process that imports `tetravol` from one `src`
directory and calls `montecarlo.estimate` once for each command line of the
`mc-crosscheck` plan of `perfbench/inputs.py` at the seed (the same modes,
powers, sample count and per-line seeds), timing each call.  It records the
mean and standard error of each as `float.hex`, the peak RSS of the process
after them, the voluntary context switches and minor page faults the
process took during them (`ru_nvcsw` and `ru_minflt` deltas of
`resource.getrusage`) and the number of workers the side's `estimate` runs
(its usable-CPU count capped at the block count).

After the estimates the same process times, on the calling thread, what a
worker does: `montecarlo._block_sums` on each of the first STEP_BLOCKS
blocks of each command line's stream, all in one `_workspace` per command
line (`block_s`; a side without `_workspace` allocates per block, and its
kernel takes no workspace), and then the Philox draw of those blocks alone,
chunk by chunk into one buffer of the side's `_CHUNK_SIZE` samples
(`draw_s`), each as seconds per block.  Runs
alternate between the sides, starting with a different side on each
repeat.  Stdlib only; the side-by-side harness is `bench/sides.py`.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import sides as harness

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
#: blocks per command line whose kernel and draw are timed
STEP_BLOCKS = 8


def child(src: str, seed: int) -> dict:
    sys.path.insert(0, src)
    sys.path.insert(0, str(PERFBENCH))
    import resource

    import inputs
    import numpy as np
    from tetravol import montecarlo as mc

    lines = [(op["mode"], op["power"], op["samples"], int(op["argv"][op["argv"].index("--seed") + 1]))
             for op in inputs.make_plan("mc-crosscheck", seed)["ops"]]
    estimate_s, results = [], []
    before = resource.getrusage(resource.RUSAGE_SELF)
    for mode, power, n, line_seed in lines:
        t0 = time.perf_counter()
        r = mc.estimate(mode, power, n, line_seed)
        estimate_s.append(time.perf_counter() - t0)
        results.append([r.mean.hex(), r.stderr.hex()])
    after = resource.getrusage(resource.RUSAGE_SELF)
    peak_rss_mb = round(after.ru_maxrss / 1024, 1)

    block_s = draw_s = 0.0
    for mode, power, _, line_seed in lines:
        workspace = (mc._workspace(mode, mc.BLOCK_SIZE),) if hasattr(mc, "_workspace") else ()
        t0 = time.perf_counter()
        for index in range(STEP_BLOCKS):
            mc._block_sums(line_seed, index, mc.BLOCK_SIZE, mode, power, *workspace)
        t1 = time.perf_counter()
        draw = np.empty((mc._CHUNK_SIZE, 4 if mode == mc.MODE_ALL_RANDOM else 3, 4))
        for index in range(STEP_BLOCKS):
            gen = mc._block_generator(line_seed, index)
            for _ in range(0, mc.BLOCK_SIZE, mc._CHUNK_SIZE):
                gen.standard_exponential(out=draw)
        block_s += (t1 - t0) / (STEP_BLOCKS * len(lines))
        draw_s += (time.perf_counter() - t1) / (STEP_BLOCKS * len(lines))

    blocks = -(-lines[0][2] // mc.BLOCK_SIZE)
    return {"estimate_s": estimate_s, "results": results,
            "workers": min(mc._usable_cpus(), blocks),
            "block_s": block_s, "draw_s": draw_s, "peak_rss_mb": peak_rss_mb,
            "nvcsw": after.ru_nvcsw - before.ru_nvcsw,
            "minflt": after.ru_minflt - before.ru_minflt}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--side", action="append", required=True, type=harness.side,
                        help="LABEL=SRC_DIR; give two or more")
    parser.add_argument("--seed", type=int, default=31)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", type=Path, default=Path("BENCH_mc_kernel.json"))
    args = parser.parse_args()
    sides = args.side
    if args.repeats < 2:
        parser.error("--repeats must be >= 2")
    runs: dict[str, list] = {label: [] for label, _ in sides}
    for r, label, src in harness.alternate(sides, args.repeats):
        run = harness.spawn(__file__, "--child", src, str(args.seed))
        runs[label].append(run)
        print(f"repeat {r} {label}: estimates {sum(run['estimate_s']):.3f} s on "
              f"{run['workers']} workers", file=sys.stderr)

    results = {label: sorted({json.dumps(run["results"]) for run in side_runs})
               for label, side_runs in runs.items()}
    result = {"benchmark": "the three mc-crosscheck estimates, one montecarlo.estimate "
                           "call each, then the library's _block_sums per block in one "
                           "workspace and its Philox draw alone on one thread, in one "
                           "fresh process per run",
              "machine": harness.machine(),
              "seed": args.seed, "repeats": args.repeats, "step_blocks": STEP_BLOCKS,
              "results_identical_across_sides": len({json.dumps(v) for v in results.values()}) == 1
                                                and all(len(v) == 1 for v in results.values()),
              "sides": {}}
    for label, src in sides:
        side_runs = runs[label]
        totals = [round(sum(run["estimate_s"]), 4) for run in side_runs]
        result["sides"][label] = {
            "src_sha256": harness.tree_sha256(src),
            "workers": sorted({run["workers"] for run in side_runs}),
            "results_hex": [json.loads(v) for v in results[label]],
            "peak_rss_mb": [run["peak_rss_mb"] for run in side_runs],
            "estimates_nvcsw": [run["nvcsw"] for run in side_runs],
            "estimates_minflt": [run["minflt"] for run in side_runs],
            "estimates_total_s": totals,
            "estimates_total_s_summary": harness.summary(totals),
            "estimate_s": [harness.summary([run["estimate_s"][i] for run in side_runs])
                           for i in range(len(side_runs[0]["estimate_s"]))],
            **{key: harness.summary([run[key] for run in side_runs], digits=7)
               for key in ("block_s", "draw_s")},
        }
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "--child":
        print(json.dumps(child(sys.argv[2], int(sys.argv[3]))))
    else:
        main()
