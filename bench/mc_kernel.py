"""Wall time of the three `mc-crosscheck` Monte Carlo estimates, and of the
steps of one sample block, for two or more source trees.

    python3 bench/mc_kernel.py --side parent=/path/to/old/src \
        --side change=src --seed 31 --repeats 10 --out BENCH_mc_kernel.json

Each timed run is a fresh process that imports `tetravol` from one `src`
directory and calls `montecarlo.estimate` once for each command line of the
`mc-crosscheck` plan of `perfbench/inputs.py` at the seed (the same modes,
powers, sample count and per-line seeds), timing each call.  It records the
mean and standard error of each as `float.hex`, the peak RSS of the process
after them and the number of workers the side's `estimate` runs (its
usable-CPU count capped at the block count; 1 for a side without a pool).

After the estimates the same process times the steps of a sample block on
the calling thread, for both formulations of the block kernel, over
STEP_BLOCKS blocks of each command line's stream:

  draw       the block's unit exponentials
  normalize  to points of the representative body: `matmul` divides by the
             row sums and multiplies by UNIT_TETRA_VERTICES; `slice` sums
             each row into its column 0 and divides and scales the last
             three columns in place
  volume     `tetra_volume` of the points
  reduce     V^power and its two sums

and whether each formulation's two sums equal the side's own `_block_sums`
bit for bit.  Runs alternate between the sides, starting with a different
side on each repeat.  Stdlib only; the side-by-side harness is
`bench/sides.py`.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import sides as harness

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
#: blocks per command line whose steps are timed, per kernel formulation
STEP_BLOCKS = 8
KERNELS = ("matmul", "slice")
STEPS = ("draw", "normalize", "volume", "reduce")


def _normalize_matmul(mc, e):
    return (e / e.sum(axis=2, keepdims=True)) @ mc.UNIT_TETRA_VERTICES


def _normalize_slice(mc, e):
    total = e[..., :1]
    total += e[..., 1:2]
    total += e[..., 2:3]
    total += e[..., 3:4]
    pts = e[..., 1:]
    pts /= total
    pts *= mc._SCALE
    return pts


def _timed_block(mc, np, kernel: str, seed: int, index: int, mode: str, power: int
                 ) -> tuple[dict, tuple[float, float]]:
    """One block's step times, and its two sums."""
    normalize = _normalize_matmul if kernel == "matmul" else _normalize_slice
    n_random = 4 if mode == mc.MODE_ALL_RANDOM else 3
    clock = [time.perf_counter()]

    def lap():
        clock.append(time.perf_counter())

    e = mc._block_generator(seed, index).standard_exponential((mc.BLOCK_SIZE, n_random, 4))
    lap()
    pts = normalize(mc, e)
    lap()
    last = pts[:, 3] if mode == mc.MODE_ALL_RANDOM else mc.FACET_CENTROID
    vol = mc.tetra_volume(pts[:, 0], pts[:, 1], pts[:, 2], last)
    lap()
    vp = vol ** power
    sums = float(np.sum(vp)), float(np.sum(vp * vp))
    lap()
    return {step: clock[i + 1] - clock[i] for i, step in enumerate(STEPS)}, sums


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
    for mode, power, n, line_seed in lines:
        t0 = time.perf_counter()
        r = mc.estimate(mode, power, n, line_seed)
        estimate_s.append(time.perf_counter() - t0)
        results.append([r.mean.hex(), r.stderr.hex()])
    peak_rss_mb = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)

    steps = {kernel: dict.fromkeys(STEPS, 0.0) for kernel in KERNELS}
    bits_match = dict.fromkeys(KERNELS, True)
    for mode, power, _, line_seed in lines:
        for index in range(STEP_BLOCKS):
            expected = mc._block_sums(line_seed, index, mc.BLOCK_SIZE, mode, power)
            for kernel in KERNELS:
                times, sums = _timed_block(mc, np, kernel, line_seed, index, mode, power)
                for step, seconds in times.items():
                    steps[kernel][step] += seconds / (STEP_BLOCKS * len(lines))
                bits_match[kernel] &= sums == expected

    blocks = -(-lines[0][2] // mc.BLOCK_SIZE)
    workers = min(mc._usable_cpus(), blocks) if hasattr(mc, "_usable_cpus") else 1
    return {"estimate_s": estimate_s, "results": results, "workers": workers,
            "block_step_s": steps, "bits_match": bits_match, "peak_rss_mb": peak_rss_mb}


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
                           "call each, and the steps of one sample block under both "
                           "kernel formulations on one thread, in one fresh process "
                           "per run",
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
            "estimates_total_s": totals,
            "estimates_total_s_summary": harness.summary(totals),
            "estimate_s": [harness.summary([run["estimate_s"][i] for run in side_runs])
                           for i in range(len(side_runs[0]["estimate_s"]))],
            "block_step_s": {
                kernel: {step: harness.summary([run["block_step_s"][kernel][step]
                                                for run in side_runs], digits=7)
                         for step in STEPS}
                for kernel in KERNELS},
            "bits_match_block_sums": {kernel: all(run["bits_match"][kernel] for run in side_runs)
                                      for kernel in KERNELS},
        }
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "--child":
        print(json.dumps(child(sys.argv[2], int(sys.argv[3]))))
    else:
        main()
