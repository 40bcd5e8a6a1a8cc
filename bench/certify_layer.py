"""Per-call timings of the dominance proof and of the Gauss-node search, for
two or more source trees.

    python3 bench/certify_layer.py --side parent=/path/to/old/src \
        --side change=src --seed 901 --repeats 10 --out BENCH_certify_layer.json

Each timed run is a fresh process that imports `tetravol` from one `src`
directory.  It builds the Hermite majorant of every node set that the
`warm-certify-sweep` plan of `perfbench/inputs.py` stages for the seed (the
reference set and the seeded polished and random sets), untimed, and then
times one `verify_dominance(poly, nodes)` per set, in plan order.  After that
it times one `gauss_nodes(n, table)` for each n in 5, 6 and 7 on the golden
k <= 13 cache, as `tetravol search --degree 2n - 1` calls it.  Untimed, it
counts the proofs' interior root counts (-1 where the deflation or a
boundary sign already failed) and hashes the rendered certificate report of
every set, so a side whose proofs or reports differ shows a different
histogram or hash.  Runs alternate between the sides, starting with a
different side on each repeat.  Stdlib only; the side-by-side harness is
`bench/sides.py`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from collections import Counter
from pathlib import Path

import sides as harness

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
GAUSS_SIZES = (5, 6, 7)


def child(src: str, seed: int) -> dict:
    sys.path.insert(0, src)
    sys.path.insert(0, str(PERFBENCH))
    import resource

    import inputs
    from tetravol import certificate, node_search
    from tetravol.majorant import NodeSet, hermite_onesided
    from tetravol.moments import MomentTable

    plan = inputs.make_plan("warm-certify-sweep", seed)
    sets = [NodeSet.from_rationals(nodes) for nodes in plan["files"].values()]
    polys = [hermite_onesided(s) for s in sets]
    seconds, proofs = [], []
    for poly, nodes in zip(polys, sets):
        t0 = time.perf_counter()
        proofs.append(certificate.verify_dominance(poly, nodes))
        seconds.append(time.perf_counter() - t0)

    table = MomentTable.read(inputs.GOLDEN_MOMENTS)
    gauss = {}
    for n in GAUSS_SIZES:
        t0 = time.perf_counter()
        node_search.gauss_nodes(n, table)
        gauss[str(n)] = time.perf_counter() - t0

    digest = hashlib.sha256()
    for nodes in sets:
        digest.update(certificate.render_report(certificate.certify(nodes, table)).encode())
    histogram = Counter(p.interior_root_count for p in proofs)
    return {"dominance_s": seconds,
            "gauss_s": gauss,
            "root_counts": {str(k): histogram[k] for k in sorted(histogram)},
            "reports_sha256": digest.hexdigest(),
            "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--side", action="append", required=True, type=harness.side,
                        help="LABEL=SRC_DIR; give two or more")
    parser.add_argument("--seed", type=int, default=901)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", type=Path, default=Path("BENCH_certify_layer.json"))
    args = parser.parse_args()
    sides = args.side
    if args.repeats < 2:
        parser.error("--repeats must be >= 2")
    runs: dict[str, list] = {label: [] for label, _ in sides}
    for r, label, src in harness.alternate(sides, args.repeats):
        run = harness.spawn(__file__, "--child", src, str(args.seed))
        runs[label].append(run)
        print(f"repeat {r} {label}: verify_dominance x{len(run['dominance_s'])} "
              f"{sum(run['dominance_s']):.3f} s, gauss_nodes(5..7) "
              f"{sum(run['gauss_s'].values()):.3f} s", file=sys.stderr)

    result = {"benchmark": "verify_dominance on every node set of the warm-certify-sweep "
                           "plan, one call each, and gauss_nodes(n) for n = 5, 6, 7 on "
                           "the golden k <= 13 cache, in one fresh process per run",
              "machine": harness.machine(),
              "seed": args.seed, "repeats": args.repeats, "sides": {}}
    for label, src in sides:
        side_runs = runs[label]
        totals = [round(sum(run["dominance_s"]), 4) for run in side_runs]
        result["sides"][label] = {
            "src_sha256": harness.tree_sha256(src),
            "reports_sha256": sorted({run["reports_sha256"] for run in side_runs}),
            "root_counts": sorted({json.dumps(run["root_counts"]) for run in side_runs}),
            "peak_rss_mb": [run["peak_rss_mb"] for run in side_runs],
            "dominance_calls": len(side_runs[0]["dominance_s"]),
            "dominance_total_s": totals,
            "dominance_total_s_summary": harness.summary(totals),
            "dominance_per_call_s": harness.summary(
                [s for run in side_runs for s in run["dominance_s"]]),
            "gauss_nodes_s": {
                n: {"runs": [round(run["gauss_s"][n], 5) for run in side_runs],
                    **harness.summary([run["gauss_s"][n] for run in side_runs])}
                for n in map(str, GAUSS_SIZES)},
        }
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "--child":
        print(json.dumps(child(sys.argv[2], int(sys.argv[3]))))
    else:
        main()
