"""Per-call timings of the certificate's exact layers and of the Gauss-node
search, for two or more source trees.

    python3 bench/certify_layer.py --side parent=/path/to/old/src \
        --side change=src --seed 901 --repeats 10 --out BENCH_certify_layer.json

Before the timed runs it computes E V^(2k) for k <= 39 once, with
`even_moment_fast` from the first side, into a temporary moment file that
every run reads (46 s with the triple sum, 6 s with the double sum, on a
2-core host).

Each timed run is a fresh process that imports `tetravol` from one `src`
directory.  It takes every node set that the `warm-certify-sweep` plan of
`perfbench/inputs.py` stages for the seed (the reference set and the seeded
polished and random sets), in plan order, and times six layers one call
per set: `hermite_onesided(nodes)`, then `expected_value(poly, table)` and
`verify_dominance(poly, nodes)` on those majorants and the golden k <= 13
cache, then `render_report(certify(nodes, table))`, which builds the
majorant and the proof again, then `parse_report` on each of those reports,
which rebuilds them once more (the run counts the parsed certificates equal
to the ones rendered), and last `cli.main(argv)` for each of the plan's
`certify` commands on those staged files, in plan order, in a staged work
directory.  The `cli` layer is the whole command: reading the node and
moment files, the certificate, writing the report and printing the
summary, so its excess over the `certify` layer is the per-command
overhead, the argparse parser included (the four commands on `search`
output are left out, as no search runs).  After that it times one
`gauss_nodes(n, table)` for each n in 5, 6 and 7, as `tetravol search
--degree 2n - 1` calls it, and for n = 12 and 20 on the k <= 39 file,
hashing the float nodes of all five, and one `verify_dominance` on the
majorant of each high-degree Gauss set (degrees 25 and 33 in t = x^2,
denominators at most 1000).  It counts the proofs' interior root counts
(-1 where the deflation or a boundary sign already failed) and hashes the rendered
reports, so a side whose proofs or reports differ shows a different
histogram or hash; the `cli` reports and stdout are hashed apart.  The
timed passes wrap nothing.  In untimed passes after them it reads, per
proof, the rung that settled it from the widest coefficient of the last
`sturm_chain` the proof built, which every tree calls: the rounded rung
(the bits kept) that holds it, or "exact" for a chain on the quotient's
full width, counted as a fallback.  It also counts the `sign_variations`
calls of each timed `gauss_nodes(n)`.  Runs alternate between the sides,
starting with a different side on each repeat.  Stdlib only; the
side-by-side harness is `bench/sides.py`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import sides as harness

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
GAUSS_SIZES = (5, 6, 7)
#: Gauss node counts timed on the k <= 39 moment file
LARGE_GAUSS_SIZES = (12, 20)
LARGE_K_MAX = 39
#: the timed layers, each one call per node set: hermite_onesided,
#: expected_value, verify_dominance, render_report(certify(...)),
#: parse_report on that report and the `tetravol certify` command through
#: cli.main
LAYERS = ("hermite", "expected_value", "dominance", "certify", "parse", "cli")
#: Gauss nodes of degrees 25 and 33 in t = x^2, rationalized with
#: denominators at most 1000; only their dominance proofs are timed
HIGH_DEGREE = {
    "25": "4/445 15/473 29/503 17/199 112/981 51/356 123/716 152/763 34/151 "
          "179/718 213/785 241/828 269/872",
    "33": "5/644 25/938 47/986 10/143 43/463 74/637 136/975 158/973 115/623 "
          "202/981 173/765 215/877 190/723 135/484 179/610 200/653 234/737",
}


def write_large_moments(src: str, path: str) -> None:
    sys.path.insert(0, src)
    from tetravol.moments import MomentTable, even_moment_fast

    MomentTable({k: even_moment_fast(k) for k in range(1, LARGE_K_MAX + 1)}).write(path)


def proof_rungs(certificate, cases) -> list[str]:
    """What settled the dominance proof of each (majorant, nodes) of
    `cases`, untimed, read from the widest coefficient of the last
    `sturm_chain` the proof built: the least rung of `_ROUNDED_BITS` that
    holds it, "exact" when it is wider than every rung, and "none" when no
    chain ran (a failed deflation or boundary sign).  A quotient narrow
    enough for a rung is that rung's, counted exactly."""
    bits, real = [], certificate.sturm_chain

    def chain(p):
        bits.append(max(abs(c) for c in p).bit_length())
        return real(p)

    certificate.sturm_chain = chain
    out = []
    try:
        for poly, nodes in cases:
            bits.clear()
            certificate.verify_dominance(poly, nodes)
            held = [r for r in certificate._ROUNDED_BITS if bits and r >= bits[-1]]
            out.append(str(min(held)) if held else "exact" if bits else "none")
    finally:
        certificate.sturm_chain = real
    return out


def sign_counts(node_search, cases) -> list[int]:
    """The `sign_variations` calls of `gauss_nodes(n, moments)` for each
    (n, moments) of `cases`, untimed."""
    calls, real = [], node_search.sign_variations
    node_search.sign_variations = lambda *args: calls.append(1) or real(*args)
    out = []
    try:
        for n, moments in cases:
            calls.clear()
            node_search.gauss_nodes(n, moments)
            out.append(len(calls))
    finally:
        node_search.sign_variations = real
    return out


def child(src: str, seed: int, large_moments: str) -> dict:
    sys.path.insert(0, src)
    sys.path.insert(0, str(PERFBENCH))
    import resource

    import inputs
    from tetravol import certificate, cli, node_search
    from tetravol.majorant import NodeSet, expected_value, hermite_onesided
    from tetravol.moments import MomentTable

    plan = inputs.make_plan("warm-certify-sweep", seed)
    sets = [NodeSet.from_rationals(nodes) for nodes in plan["files"].values()]
    table = MomentTable.read(inputs.GOLDEN_MOMENTS)
    seconds = {layer: [] for layer in LAYERS}

    def timed(layer, call, *args):
        t0 = time.perf_counter()
        out = call(*args)
        seconds[layer].append(time.perf_counter() - t0)
        return out

    polys = [timed("hermite", hermite_onesided, nodes) for nodes in sets]
    for poly in polys:
        timed("expected_value", expected_value, poly, table)
    proofs = [timed("dominance", certificate.verify_dominance, poly, nodes)
              for poly, nodes in zip(polys, sets)]

    def certify_and_render(nodes):
        cert = certificate.certify(nodes, table)
        return cert, certificate.render_report(cert)

    built = [timed("certify", certify_and_render, nodes) for nodes in sets]
    digest = hashlib.sha256()
    for _, report in built:
        digest.update(report.encode())
    parsed_equal = sum(timed("parse", certificate.parse_report, report) == cert
                       for cert, report in built)

    cli_digest = hashlib.sha256()
    commands = [op for op in plan["ops"]
                if op["kind"] == "certify" and op["nodes"] in plan["files"]]
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        inputs.stage(plan, Path(workdir))
        os.chdir(workdir)
        for op in commands:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                timed("cli", cli.main, op["argv"])
            cli_digest.update(out.getvalue().encode() + Path(op["report"]).read_bytes())
        os.chdir(here)

    gauss = {}
    gauss_digest = hashlib.sha256()
    large = MomentTable.read(large_moments)
    gauss_cases = [(n, table) for n in GAUSS_SIZES] + [(n, large) for n in LARGE_GAUSS_SIZES]
    for n, moments in gauss_cases:
        t0 = time.perf_counter()
        nodes = node_search.gauss_nodes(n, moments)
        gauss[str(n)] = time.perf_counter() - t0
        gauss_digest.update(" ".join(x.hex() for x in nodes).encode() + b"\n")

    high = {}
    for degree, text in HIGH_DEGREE.items():
        nodes = NodeSet.from_rationals(text.split())
        poly = hermite_onesided(nodes)
        t0 = time.perf_counter()
        valid = certificate.verify_dominance(poly, nodes).valid
        high[degree] = {"s": time.perf_counter() - t0, "valid": valid}

    histogram = Counter(p.interior_root_count for p in proofs)
    rungs = Counter(proof_rungs(certificate, zip(polys, sets)))
    high_sets = [NodeSet.from_rationals(text.split()) for text in HIGH_DEGREE.values()]
    high_rungs = proof_rungs(certificate, [(hermite_onesided(s), s) for s in high_sets])
    for degree, rung in zip(HIGH_DEGREE, high_rungs):
        high[degree]["fallbacks"] = int(rung == "exact")
    return {"seconds": seconds,
            "rungs": dict(sorted(rungs.items())),
            "high_degree_rungs": dict(zip(HIGH_DEGREE, high_rungs)),
            "gauss_s": gauss,
            "gauss_sha256": gauss_digest.hexdigest(),
            "gauss_sign_variations": dict(zip(map(str, GAUSS_SIZES + LARGE_GAUSS_SIZES),
                                              sign_counts(node_search, gauss_cases))),
            "dominance_fallbacks": rungs["exact"],
            "parsed_equal": parsed_equal,
            "high_degree": high,
            "root_counts": {str(k): histogram[k] for k in sorted(histogram)},
            "reports_sha256": digest.hexdigest(),
            "cli_sha256": cli_digest.hexdigest(),
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
    workdir = tempfile.TemporaryDirectory()
    large_moments = os.path.join(workdir.name, f"moments{LARGE_K_MAX}.tsv")
    t0 = time.perf_counter()
    subprocess.run([sys.executable, __file__, "--moments", sides[0][1], large_moments],
                   check=True)
    large_s = time.perf_counter() - t0
    print(f"k <= {LARGE_K_MAX} moments in {large_s:.1f} s", file=sys.stderr)
    for r, label, src in harness.alternate(sides, args.repeats):
        run = harness.spawn(__file__, "--child", src, str(args.seed), large_moments)
        runs[label].append(run)
        layers = ", ".join(f"{layer} {sum(run['seconds'][layer]):.3f} s" for layer in LAYERS)
        high = ", ".join(f"d = {d} {h['s']:.4f} s" for d, h in run["high_degree"].items())
        gauss = ", ".join(f"n = {n} {s:.3f} s" for n, s in run["gauss_s"].items())
        print(f"repeat {r} {label}: {layers}, gauss_nodes {gauss}, {high}", file=sys.stderr)

    result = {"benchmark": "per node set of the warm-certify-sweep plan, one call each of "
                           "hermite_onesided, expected_value, verify_dominance, "
                           "render_report(certify), parse_report on that report "
                           "and cli.main(certify argv), "
                           "and gauss_nodes(n) for n = 5, 6, 7 on the golden k <= 13 cache "
                           f"and n = 12, 20 on a k <= {LARGE_K_MAX} file; "
                           "verify_dominance on the degree-25 and degree-33 Gauss sets "
                           "(denominators <= 1000); in one fresh process per run",
              "machine": harness.machine(),
              "seed": args.seed, "repeats": args.repeats,
              "large_moments": {"k_max": LARGE_K_MAX, "computed_by": sides[0][0],
                                "seconds": round(large_s, 2),
                                "sha256": hashlib.sha256(
                                    Path(large_moments).read_bytes()).hexdigest()},
              "sides": {}}
    workdir.cleanup()
    for label, src in sides:
        side_runs = runs[label]
        side = result["sides"][label] = {
            "src_sha256": harness.tree_sha256(src),
            "reports_sha256": sorted({run["reports_sha256"] for run in side_runs}),
            "cli_sha256": sorted({run["cli_sha256"] for run in side_runs}),
            "root_counts": sorted({json.dumps(run["root_counts"]) for run in side_runs}),
            "peak_rss_mb": [run["peak_rss_mb"] for run in side_runs],
            "calls_per_layer": len(side_runs[0]["seconds"]["dominance"]),
            "dominance_fallbacks": sorted({run["dominance_fallbacks"] for run in side_runs}),
            "parsed_equal": sorted({run["parsed_equal"] for run in side_runs}),
            "gauss_sha256": sorted({run["gauss_sha256"] for run in side_runs}),
            "gauss_sign_variations": sorted({json.dumps(run["gauss_sign_variations"])
                                             for run in side_runs}),
            "rungs": sorted({json.dumps(run["rungs"]) for run in side_runs}),
            "high_degree_rungs": sorted({json.dumps(run["high_degree_rungs"])
                                         for run in side_runs}),
        }
        for layer in LAYERS:
            totals = [round(sum(run["seconds"][layer]), 4) for run in side_runs]
            side[f"{layer}_total_s"] = totals
            side[f"{layer}_total_s_summary"] = harness.summary(totals)
            side[f"{layer}_per_call_s"] = harness.summary(
                [s for run in side_runs for s in run["seconds"][layer]])
        side["gauss_nodes_s"] = {
            n: {"runs": [round(run["gauss_s"][n], 5) for run in side_runs],
                **harness.summary([run["gauss_s"][n] for run in side_runs])}
            for n in map(str, GAUSS_SIZES + LARGE_GAUSS_SIZES)}
        side["high_degree_dominance_s"] = {
            d: {"runs": [round(run["high_degree"][d]["s"], 5) for run in side_runs],
                **harness.summary([run["high_degree"][d]["s"] for run in side_runs]),
                "valid": sorted({run["high_degree"][d]["valid"] for run in side_runs}),
                "fallbacks": sorted({run["high_degree"][d]["fallbacks"] for run in side_runs})}
            for d in HIGH_DEGREE}
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "--child":
        print(json.dumps(child(sys.argv[2], int(sys.argv[3]), sys.argv[4])))
    elif len(sys.argv) > 1 and sys.argv[1] == "--moments":
        write_large_moments(sys.argv[2], sys.argv[3])
    else:
        main()
