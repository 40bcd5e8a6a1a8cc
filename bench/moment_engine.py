"""Per-order timings of the fast moment engine, and of the whole moment
stage, for two or more source trees.

    python3 bench/moment_engine.py --side parent=/path/to/old/src \
        --side change=src --k-max 20 --repeats 3 --out BENCH_moment_engine.json

Each timed run is a fresh process that imports `tetravol` from one `src`
directory and calls `even_moment_fast(k)` for k = 1..K in turn, as
`moment_table` does, so whatever one order leaves for the next counts as it
would in a real run; with `--direct-k-max N` it then times
`even_moment_direct(k)` for k = 1..N the same way.  Beside it, a second
fresh process per run times one `tetravol moments --k-max 13 --out FILE`
into an empty directory, through `tetravol.cli.main`: the fast engine, its
check against the pinned values and the file write.  It records the wall
time, the peak RSS of the process and the sha256 of the cache file.  Runs
alternate between the sides, starting with a different side on each
repeat.  Then IMPORT_RUNS more fresh interpreters per side, alternating,
each measure how long `import tetravol.cli` takes as their first import,
which `tetravol` modules it loaded and whether it loaded numpy, `fractions`
and `dataclasses`.  After the timed runs, one counting run per side wraps
the engine's `_centred_integrals` and `_split_sum` to record, per order,
the z-degree splits evaluated, the size of the centred-integral table, the
largest bit lengths of its entries and of the split sums, and the entries
of the kernel `_split_sum` takes, summed over the order's splits and the
most in one split.  Its timings are not used.  The values of orders 1..13,
and of every order run, are hashed as the moment file the side's own
`moments._cache_text` renders, so a side whose moments differ shows a
different hash.
Stdlib only; the side-by-side harness is `bench/sides.py`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

import sides as harness

HASHED_ORDERS = 13
#: per-order counts of the counting run: z-degree splits, centred-integral
#: table entries, the largest bit lengths of an entry and of a split sum, and
#: the split kernels' entries, summed over the splits and the most in one
COUNTERS = ("splits", "table_entries", "table_bits_max", "split_bits_max",
            "kernel_entries", "kernel_entries_max")
#: per-run figures of the moment-stage process
STAGE_FIGURES = ("wall_s", "self_maxrss_mb")
#: fresh processes per side that time `import tetravol.cli`
IMPORT_RUNS = 15


def cache_sha256(moments, values: dict) -> str:
    """sha256 of the moment file of `values`, as the side writes it."""
    return hashlib.sha256(moments._cache_text(values).encode()).hexdigest()


def child(src: str, k_max: int, direct_k_max: int, count: bool) -> dict:
    sys.path.insert(0, src)
    import resource

    from tetravol import moments

    stats: dict[int, dict] = {}
    if count:
        integrals, split_sum = moments._centred_integrals, moments._split_sum

        def order_stats() -> dict:
            return stats.setdefault(k, dict.fromkeys(COUNTERS, 0))

        def counted_integrals(order):
            table = integrals(order)
            s = order_stats()
            s["table_entries"] = sum(map(len, table))
            s["table_bits_max"] = max(abs(v).bit_length() for row in table for v in row)
            return table

        def counted_split(table, kernel, *args):
            value = split_sum(table, kernel, *args)
            s = order_stats()
            s["splits"] += 1
            s["split_bits_max"] = max(s["split_bits_max"], abs(value).bit_length())
            entries = sum(map(len, kernel))
            s["kernel_entries"] += entries
            s["kernel_entries_max"] = max(s["kernel_entries_max"], entries)
            return value

        moments._centred_integrals = counted_integrals
        moments._split_sum = counted_split
    orders = []
    values = {}
    for k in range(1, k_max + 1):
        t0 = time.perf_counter()
        v = moments.even_moment_fast(k)
        seconds = time.perf_counter() - t0
        values[k] = v
        orders.append({"k": k, "s": round(seconds, 4),
                       "value_bits": max(v.numerator.bit_length(),
                                         v.denominator.bit_length()),
                       **stats.get(k, {})})
    direct = []
    for k in range(1, direct_k_max + 1):
        t0 = time.perf_counter()
        v = moments.even_moment_direct(k)
        direct.append({"k": k, "s": round(time.perf_counter() - t0, 4),
                       "equals_fast": k > k_max or v == values[k]})
    return {"orders": orders, "direct": direct,
            "verify_order_max": moments.VERIFY_ORDER_MAX, "direct_cap": moments.DIRECT_CAP,
            "values_sha256": cache_sha256(moments, {k: v for k, v in values.items()
                                                    if k <= HASHED_ORDERS}),
            "values_sha256_all": cache_sha256(moments, values),
            "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}


def stage_child(src: str, cache: str) -> dict:
    sys.path.insert(0, src)
    import resource

    from tetravol import cli

    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):  # stdout carries the JSON result
        rc = cli.main(["moments", "--k-max", str(HASHED_ORDERS), "--out", cache])
    seconds = time.perf_counter() - t0
    if rc:
        raise SystemExit(f"tetravol moments exited {rc}")
    return {"wall_s": round(seconds, 4),
            "self_maxrss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
            "cache_sha256": hashlib.sha256(Path(cache).read_bytes()).hexdigest()}


#: run as `python3 -c IMPORT_CHILD SRC`: a bare interpreter, so that nothing
#: this script imports (argparse, and `fractions` through `statistics`) is
#: loaded before `import tetravol.cli`; json is imported after the figures
IMPORT_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import tetravol.cli
seconds = time.perf_counter() - t0
result = {"import_s": round(seconds, 4), "numpy_loaded": "numpy" in sys.modules,
          "fractions_loaded": "fractions" in sys.modules,
          "dataclasses_loaded": "dataclasses" in sys.modules,
          "tetravol_modules": sorted(m for m in sys.modules
                                     if m == "tetravol" or m.startswith("tetravol."))}
import json
print(json.dumps(result))
"""


def spawn_stage(src: str, workdir: Path) -> dict:
    """One `tetravol moments --k-max 13` run into a fresh file under `workdir`."""
    cache = workdir / "moments.tsv"
    cache.unlink(missing_ok=True)
    return harness.spawn(__file__, "--stage", src, str(cache))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--side", action="append", required=True, type=harness.side,
                        help="LABEL=SRC_DIR; give two or more")
    parser.add_argument("--k-max", type=int, default=16)
    parser.add_argument("--direct-k-max", type=int, default=0,
                        help="also time even_moment_direct(k) for k = 1..N in each run")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", type=Path, default=Path("BENCH_moment_engine.json"))
    args = parser.parse_args()
    sides = args.side
    runs: dict[str, list] = {label: [] for label, _ in sides}
    stages: dict[str, list] = {label: [] for label, _ in sides}
    with tempfile.TemporaryDirectory(dir=args.out.resolve().parent) as workdir:
        for r, label, src in harness.alternate(sides, args.repeats):
            run = harness.spawn(__file__, "--child", src, str(args.k_max),
                                str(args.direct_k_max), "0")
            runs[label].append(run)
            stage = spawn_stage(src, Path(workdir))
            stages[label].append(stage)
            total = sum(o["s"] for o in run["orders"])
            direct = sum(o["s"] for o in run["direct"])
            print(f"repeat {r} {label}: k<={args.k_max} {total:.2f} s, "
                  f"direct k<={args.direct_k_max} {direct:.2f} s, "
                  f"moments --k-max {HASHED_ORDERS} {stage['wall_s']:.2f} s",
                  file=sys.stderr)
    imports: dict[str, list] = {label: [] for label, _ in sides}
    for _, label, src in harness.alternate(sides, IMPORT_RUNS):
        imports[label].append(harness.spawn("-c", IMPORT_CHILD, src))

    result = {"benchmark": "fast moment engine, even_moment_fast(k) for k = 1..K "
                           "in one fresh process per run; moment stage, "
                           f"`tetravol moments --k-max {HASHED_ORDERS}` into an empty "
                           "directory in another fresh process per run; `import tetravol.cli` "
                           f"in {IMPORT_RUNS} more fresh processes per side",
              "machine": harness.machine(),
              "k_max": args.k_max, "direct_k_max": args.direct_k_max,
              "repeats": args.repeats, "sides": {}}
    for label, src in sides:
        counts = harness.spawn(__file__, "--child", src, str(args.k_max), "0", "1")
        per_order = []
        for k in range(1, args.k_max + 1):
            times = [run["orders"][k - 1]["s"] for run in runs[label]]
            entry = dict(counts["orders"][k - 1])
            del entry["s"]
            entry.update(s_median=round(statistics.median(times), 4), s_runs=times)
            per_order.append(entry)
        totals = [round(sum(o["s"] for o in run["orders"][:HASHED_ORDERS]), 3)
                  for run in runs[label]]
        direct = []
        for k in range(1, args.direct_k_max + 1):
            times = [run["direct"][k - 1]["s"] for run in runs[label]]
            direct.append({"k": k, "s_median": round(statistics.median(times), 4),
                           "s_runs": times,
                           "equals_fast": all(run["direct"][k - 1]["equals_fast"]
                                              for run in runs[label])})
        result["sides"][label] = {
            "src_sha256": harness.tree_sha256(src),
            "verify_order_max": counts["verify_order_max"],
            "direct_cap": counts["direct_cap"],
            "values_sha256": sorted({run["values_sha256"] for run in runs[label]}),
            "values_sha256_all": sorted({run["values_sha256_all"] for run in runs[label]}),
            "peak_rss_mb": [run["peak_rss_mb"] for run in runs[label]],
            f"total_k1_{HASHED_ORDERS}_s": totals,
            f"total_k1_{HASHED_ORDERS}_s_median": round(statistics.median(totals), 3),
            "orders": per_order,
            "direct": direct,
            "stage": {
                "cache_sha256": sorted({st["cache_sha256"] for st in stages[label]}),
                **{key: [st[key] for st in stages[label]] for key in STAGE_FIGURES},
                "wall_s_median": round(statistics.median(
                    st["wall_s"] for st in stages[label]), 4),
                "wall_s_quartiles": harness.quartiles(
                    [st["wall_s"] for st in stages[label]], 4),
            },
            "import_cli": {
                "import_s": [run["import_s"] for run in imports[label]],
                "import_s_median": round(statistics.median(
                    run["import_s"] for run in imports[label]), 4),
                **{key: sorted({run[key] for run in imports[label]})
                   for key in ("numpy_loaded", "fractions_loaded", "dataclasses_loaded")},
                "tetravol_modules": sorted({tuple(run["tetravol_modules"])
                                            for run in imports[label]}),
            },
        }
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "--child":
        print(json.dumps(child(sys.argv[2], int(sys.argv[3]), int(sys.argv[4]),
                               sys.argv[5] == "1")))
    elif len(sys.argv) > 1 and sys.argv[1] == "--stage":
        print(json.dumps(stage_child(sys.argv[2], sys.argv[3])))
    else:
        main()
