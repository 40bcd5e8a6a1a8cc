"""Per-order timings of the fast moment engine, and of the whole moment
stage, for two or more source trees.

    python3 bench/moment_engine.py --side parent=/path/to/old/src \
        --side change=src --k-max 16 --repeats 3 --out BENCH_moment_engine.json

Each timed run is a fresh process that imports `tetravol` from one `src`
directory and calls `even_moment_fast(k)` for k = 1..K in turn, as
`moment_table` does, so whatever one order leaves for the next counts as it
would in a real run.  Beside it, a second fresh process per run times one
`moment_table(13, cache)` into an empty cache file: the fast engine, the
direct-enumerator check of k <= 4 and the per-order cache flushes, as
`tetravol moments --k-max 13` runs them.  It records the wall time, the
peak RSS of the process (`RUSAGE_SELF`) and of its largest reaped child
(`RUSAGE_CHILDREN`), their sum as a bound on the memory of the process
tree, and the sha256 of the cache file.  Runs alternate between the sides,
starting with a different side on each repeat.  After the timed runs, one
counting run per side wraps the engine's `_matmul` to record, per order,
the products and the largest operand shapes, entry bit lengths and the byte
width of a packed column slot,
((max|a| * max|b| * len(b)).bit_length() + 8) // 8; its timings are not
used.  The values of orders 1..13 are hashed in the moment
cache format, so a side whose moments differ shows a different hash.
Stdlib only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HASHED_ORDERS = 13
#: per-order counts of the counting run: products, then the largest operand
#: rows, inner dimension, columns, entry bit lengths and packed slot bytes
COUNTERS = ("matmul_calls", "rows_max", "inner_max", "cols_max",
            "a_bits_max", "b_bits_max", "slot_bytes_max")
#: per-run figures of the moment-stage process
STAGE_FIGURES = ("wall_s", "self_maxrss_mb", "children_maxrss_mb", "tree_maxrss_mb")


def child(src: str, k_max: int, count: bool) -> dict:
    sys.path.insert(0, src)
    import resource

    from tetravol import moments

    stats: dict[int, dict] = {}
    if count:
        matmul = moments._matmul

        def counted(a, b):
            amax = max(max(max(row), -min(row)) for row in a)
            bmax = max(max(max(row), -min(row)) for row in b)
            s = stats.setdefault(k, dict.fromkeys(COUNTERS, 0))
            s["matmul_calls"] += 1
            for name, value in zip(COUNTERS[1:], (
                    len(a), len(b), len(b[0]), amax.bit_length(), bmax.bit_length(),
                    ((amax * bmax * len(b)).bit_length() + 8) // 8)):
                s[name] = max(s[name], value)
            return matmul(a, b)

        moments._matmul = counted
    orders = []
    lines = ["tetra-moments v1"]
    for k in range(1, k_max + 1):
        t0 = time.perf_counter()
        v = moments.even_moment_fast(k)
        seconds = time.perf_counter() - t0
        orders.append({"k": k, "s": round(seconds, 4),
                       "value_bits": max(v.numerator.bit_length(),
                                         v.denominator.bit_length()),
                       **stats.get(k, {})})
        if k <= HASHED_ORDERS:
            lines.append(f"{k}\t{v.numerator}\t{v.denominator}")
    text = "\n".join(lines) + "\n"
    return {"orders": orders,
            "values_sha256": hashlib.sha256(text.encode()).hexdigest(),
            "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}


def stage_child(src: str, cache: str) -> dict:
    sys.path.insert(0, src)
    import resource

    from tetravol import moments

    t0 = time.perf_counter()
    moments.moment_table(HASHED_ORDERS, cache)
    seconds = time.perf_counter() - t0
    mb = [resource.getrusage(who).ru_maxrss / 1024
          for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    return {"wall_s": round(seconds, 4),
            "self_maxrss_mb": round(mb[0], 1),
            "children_maxrss_mb": round(mb[1], 1),
            "tree_maxrss_mb": round(sum(mb), 1),
            "cache_sha256": hashlib.sha256(Path(cache).read_bytes()).hexdigest()}


def tree_sha256(src: Path) -> str:
    """sha256 over the package's Python files, names and bytes, in name order."""
    digest = hashlib.sha256()
    for path in sorted((src / "tetravol").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def spawn(*args: str) -> dict:
    cmd = [sys.executable, __file__, *args]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def spawn_stage(src: str, workdir: Path) -> dict:
    """One moment_table(13) run into a fresh cache file under `workdir`."""
    cache = workdir / "moments.tsv"
    cache.unlink(missing_ok=True)
    return spawn("--stage", src, str(cache))


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return values * 3
    return [round(q, 4) for q in statistics.quantiles(values, n=4, method="inclusive")]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--side", action="append", required=True,
                        help="LABEL=SRC_DIR; give two or more")
    parser.add_argument("--k-max", type=int, default=16)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", type=Path, default=Path("BENCH_moment_engine.json"))
    args = parser.parse_args()
    if any("=" not in s for s in args.side):
        parser.error("--side takes LABEL=SRC_DIR")
    sides = [tuple(s.split("=", 1)) for s in args.side]
    runs: dict[str, list] = {label: [] for label, _ in sides}
    stages: dict[str, list] = {label: [] for label, _ in sides}
    with tempfile.TemporaryDirectory(dir=args.out.resolve().parent) as workdir:
        for r in range(args.repeats):
            order = sides if r % 2 == 0 else sides[::-1]
            for label, src in order:
                run = spawn("--child", str(Path(src).resolve()), str(args.k_max), "0")
                runs[label].append(run)
                stage = spawn_stage(str(Path(src).resolve()), Path(workdir))
                stages[label].append(stage)
                total = sum(o["s"] for o in run["orders"])
                print(f"repeat {r} {label}: k<={args.k_max} {total:.2f} s, "
                      f"moment_table({HASHED_ORDERS}) {stage['wall_s']:.2f} s",
                      file=sys.stderr)

    result = {"benchmark": "fast moment engine, even_moment_fast(k) for k = 1..K "
                           "in one fresh process per run; moment stage, "
                           f"moment_table({HASHED_ORDERS}, cache) from an empty cache "
                           "in another fresh process per run",
              "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                          "platform": platform.platform()},
              "k_max": args.k_max, "repeats": args.repeats, "sides": {}}
    for label, src in sides:
        counts = spawn("--child", str(Path(src).resolve()), str(args.k_max), "1")
        per_order = []
        for k in range(1, args.k_max + 1):
            times = [run["orders"][k - 1]["s"] for run in runs[label]]
            entry = dict(counts["orders"][k - 1])
            del entry["s"]
            entry.update(s_median=round(statistics.median(times), 4), s_runs=times)
            per_order.append(entry)
        totals = [round(sum(o["s"] for o in run["orders"][:HASHED_ORDERS]), 3)
                  for run in runs[label]]
        result["sides"][label] = {
            "src_sha256": tree_sha256(Path(src)),
            "values_sha256": sorted({run["values_sha256"] for run in runs[label]}),
            "peak_rss_mb": [run["peak_rss_mb"] for run in runs[label]],
            f"total_k1_{HASHED_ORDERS}_s": totals,
            f"total_k1_{HASHED_ORDERS}_s_median": round(statistics.median(totals), 3),
            "orders": per_order,
            "stage": {
                "cache_sha256": sorted({st["cache_sha256"] for st in stages[label]}),
                **{key: [st[key] for st in stages[label]] for key in STAGE_FIGURES},
                "wall_s_median": round(statistics.median(
                    st["wall_s"] for st in stages[label]), 4),
                "wall_s_quartiles": quartiles([st["wall_s"] for st in stages[label]]),
                "tree_maxrss_mb_max": max(st["tree_maxrss_mb"] for st in stages[label]),
            },
        }
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "--child":
        print(json.dumps(child(sys.argv[2], int(sys.argv[3]), sys.argv[4] == "1")))
    elif len(sys.argv) > 1 and sys.argv[1] == "--stage":
        print(json.dumps(stage_child(sys.argv[2], sys.argv[3])))
    else:
        main()
