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
usable-CPU count capped at the block count).

After the estimates the same process times, on the calling thread, the
steps of the library's block kernel (the `chunked` one) over STEP_BLOCKS
blocks of each command line's stream: the block in chunks of the side's
`_CHUNK_SIZE` samples, each drawn into, and worked on in, buffers allocated
once per block, with the side's own `_determinant`.  The steps, summed over
a block's chunks, are

  draw       the unit exponentials
  normalize  to points of the representative body: each row summed, the last
             three columns divided by the sum and scaled
  volume     the absolute determinant over 6 of the points
  reduce     V^power and its two sums, once over the block and in place,
             as the library reduces

and the run checks that the timed kernel's two sums equal the side's own
`_block_sums` bit for bit.  Runs alternate between the sides, starting with
a different side on each repeat.  Stdlib only; the side-by-side harness is
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
#: blocks per command line whose steps are timed
STEP_BLOCKS = 8
STEPS = ("draw", "normalize", "volume", "reduce")


class _Laps:
    """Seconds per step, each lap charged to the step it names."""

    def __init__(self):
        self.seconds = dict.fromkeys(STEPS, 0.0)
        self.last = time.perf_counter()

    def __call__(self, step: str) -> None:
        now = time.perf_counter()
        self.seconds[step] += now - self.last
        self.last = now


def _timed_block(mc, np, seed: int, index: int, mode: str, power: int
                 ) -> tuple[dict, tuple[float, float]]:
    """The steps of `mc._block_sums` for one full block, with a lap after
    each: its step times, and its two sums."""
    lap = _Laps()
    chunk = mc._CHUNK_SIZE
    n_random = 4 if mode == mc.MODE_ALL_RANDOM else 3
    gen = mc._block_generator(seed, index)
    draw = np.empty((chunk, n_random, 4))
    totals = np.empty((n_random, chunk))
    planes = np.empty((n_random, 3, chunk))
    scratch = np.empty((2, chunk))
    vol = np.empty(mc.BLOCK_SIZE)
    for start in range(0, mc.BLOCK_SIZE, chunk):
        m = min(chunk, mc.BLOCK_SIZE - start)
        e = gen.standard_exponential(out=draw[:m]).transpose(1, 2, 0)
        lap("draw")
        total = np.add(e[:, 0], e[:, 1], out=totals[:, :m])
        total += e[:, 2]
        total += e[:, 3]
        pts = np.divide(e[:, 1:], total[:, None], out=planes[:, :, :m])
        pts *= mc._SCALE
        lap("normalize")
        if n_random == 4:
            edges = pts[:3]
            edges -= pts[3]
        else:
            edges = pts
            edges -= mc.FACET_CENTROID[:, None]
        v = mc._determinant(*edges.reshape(9, m), out=vol[start:start + m],
                            a=scratch[0, :m], b=scratch[1, :m])
        np.abs(v, out=v)
        v /= 6.0
        lap("volume")
    vol **= power
    s1 = float(np.sum(vol))
    vol *= vol
    sums = s1, float(np.sum(vol))
    lap("reduce")
    return lap.seconds, sums


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

    steps = dict.fromkeys(STEPS, 0.0)
    bits_match = True
    for mode, power, _, line_seed in lines:
        for index in range(STEP_BLOCKS):
            expected = mc._block_sums(line_seed, index, mc.BLOCK_SIZE, mode, power)
            times, sums = _timed_block(mc, np, line_seed, index, mode, power)
            for step, seconds in times.items():
                steps[step] += seconds / (STEP_BLOCKS * len(lines))
            bits_match &= sums == expected

    blocks = -(-lines[0][2] // mc.BLOCK_SIZE)
    return {"estimate_s": estimate_s, "results": results,
            "workers": min(mc._usable_cpus(), blocks),
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
                           "call each, and the steps of one sample block under the "
                           "library's chunked kernel on one thread, in one fresh "
                           "process per run",
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
            "block_step_s": {"chunked": {
                step: harness.summary([run["block_step_s"][step] for run in side_runs],
                                      digits=7)
                for step in STEPS}},
            "bits_match_block_sums": {"chunked": all(run["bits_match"] for run in side_runs)},
        }
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "--child":
        print(json.dumps(child(sys.argv[2], int(sys.argv[3]))))
    else:
        main()
