"""Workload plans and the seeded input generator.

A plan is a JSON-serialisable dict: the files to stage into an empty work
directory and the list of `tetravol` command lines to run there, each with
what the correctness gate expects of it.  The program under test only ever
sees the staged files and its argv.  Everything here is stdlib and
deterministic in (workload, seed, smoke).
"""

from __future__ import annotations

import json
import math
import random
import shutil
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_DIR = HERE / "golden"
GOLDEN_MOMENTS = GOLDEN_DIR / "moments13.tsv"
GOLDEN_REFERENCE_REPORT = GOLDEN_DIR / "reference-certificate.txt"
GOLDEN_FACTS = GOLDEN_DIR / "golden.json"

WORKLOADS = ("cold-reproduce", "warm-certify-sweep", "mc-crosscheck")

#: the published seven-node set, written by the benchmark as a node file
REFERENCE_NODES = ("1/83", "1/22", "1/11", "2/15", "2/11", "5/22", "4/15")

#: (degree, grid) of the warm sweep's searches; max denominator is 100
WARM_SEARCHES = ((9, 1000), (11, 1000), (13, 1000), (13, 2000))
SMOKE_SEARCHES = ((3, 100), (5, 200))

WARM_POLISHED_SETS = 48
WARM_RANDOM_SETS = 48
SMOKE_POLISHED_SETS = 3
SMOKE_RANDOM_SETS = 3
POLISHED_DENOMINATORS = (45, 10_000)

MC_SAMPLES = 3 << 19
SMOKE_MC_SAMPLES = 1 << 16


def load_golden() -> dict:
    return json.loads(GOLDEN_FACTS.read_text())


def _search_op(degree: int, grid: int, out: str) -> dict:
    return {"kind": "search", "config": f"{degree}-{grid}-100", "out": out,
            "argv": ["search", "--degree", str(degree), "--grid", str(grid),
                     "--max-denominator", "100", "--moments", "moments.tsv",
                     "--out", out]}


def _certify_op(nodes_file: str, role: str, config: str | None = None) -> dict:
    report = nodes_file.rsplit(".", 1)[0] + ".cert"
    return {"kind": "certify", "role": role, "config": config,
            "nodes": nodes_file, "report": report,
            "argv": ["certify", "--nodes", nodes_file, "--moments", "moments.tsv",
                     "--report", report]}


def _fmt(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def polished_node_sets(polished: list[float], rng: random.Random,
                       count: int) -> list[tuple[int, list[str]]]:
    """The polished degree-13 nodes rationalized at log-uniform denominators.

    One denominator per equal slice of the log range, so every seed gets
    the same spread of sizes and only the exact values move.
    """
    lo, hi = (math.log(d) for d in POLISHED_DENOMINATORS)
    out = []
    while len(out) < count:
        u = (len(out) + rng.random()) / count
        d = int(round(math.exp(lo + u * (hi - lo))))
        xs = [Fraction(x).limit_denominator(d) for x in polished]
        if xs[0] > 0 and all(a < b for a, b in zip(xs, xs[1:])):
            out.append((d, [_fmt(x) for x in xs]))
    return out


def random_node_sets(rng: random.Random, count: int) -> list[list[str]]:
    """Random sets of distinct rationals in (0, 1/3], sizes 4-7 in turn."""
    out = []
    for i in range(count):
        m = 4 + i % 4
        xs: set[Fraction] = set()
        while len(xs) < m:
            q = rng.randint(3, 999)
            xs.add(Fraction(rng.randint(1, q // 3), q))
        out.append([_fmt(x) for x in sorted(xs)])
    return out


def _cold_plan(smoke: bool) -> dict:
    k_max = 3 if smoke else 13
    degree, grid = SMOKE_SEARCHES[0] if smoke else (13, 1000)
    ops = [{"kind": "moments", "k_max": k_max,
            "argv": ["moments", "--k-max", str(k_max), "--out", "moments.tsv"]},
           _search_op(degree, grid, "nodes.txt"),
           _certify_op("nodes.txt", "discovered", f"{degree}-{grid}-100")]
    files = {}
    if not smoke:  # the reference set needs every order up to 13
        files["nodes-reference.txt"] = list(REFERENCE_NODES)
        ops.append(_certify_op("nodes-reference.txt", "reference"))
    return {"stage_moments": False, "files": files, "ops": ops}


def _warm_plan(seed: int, smoke: bool, golden: dict) -> dict:
    rng = random.Random(f"warm-certify-sweep/{seed}")
    searches = SMOKE_SEARCHES if smoke else WARM_SEARCHES
    files = {"nodes-reference.txt": list(REFERENCE_NODES)}
    ops = []
    certifies = [_certify_op("nodes-reference.txt", "reference")]
    for degree, grid in searches:
        out = f"nodes-d{degree}-g{grid}.txt"
        ops.append(_search_op(degree, grid, out))
        certifies.append(_certify_op(out, "discovered", f"{degree}-{grid}-100"))
    n_pol = SMOKE_POLISHED_SETS if smoke else WARM_POLISHED_SETS
    n_rand = SMOKE_RANDOM_SETS if smoke else WARM_RANDOM_SETS
    for i, (d, nodes) in enumerate(polished_node_sets(golden["polished13"], rng, n_pol)):
        name = f"nodes-polished-{i:02d}-q{d}.txt"
        files[name] = nodes
        certifies.append(_certify_op(name, "polished"))
    for i, nodes in enumerate(random_node_sets(rng, n_rand)):
        name = f"nodes-random-{i:02d}.txt"
        files[name] = nodes
        certifies.append(_certify_op(name, "random"))
    rng.shuffle(certifies)
    return {"stage_moments": True, "files": files, "ops": ops + certifies}


def _mc_plan(seed: int, smoke: bool, golden: dict) -> dict:
    n = SMOKE_MC_SAMPLES if smoke else MC_SAMPLES
    runs = (("four", 1, golden["target_mid"]), ("centroid", 1, None),
            ("centroid", 2, "0.0005"))
    ops = []
    for i, (mode, power, ref) in enumerate(runs):
        argv = ["mc", "--mode", mode, "--power", str(power), "--samples", str(n),
                "--seed", str(3 * seed + i)]
        if ref is not None:
            argv += ["--ref", ref]
        ops.append({"kind": "mc", "mode": mode, "power": power, "samples": n,
                    "argv": argv})
    return {"stage_moments": False, "files": {}, "ops": ops}


def make_plan(workload: str, seed: int, smoke: bool = False) -> dict:
    if workload == "cold-reproduce":
        plan = _cold_plan(smoke)
    elif workload == "warm-certify-sweep":
        plan = _warm_plan(seed, smoke, load_golden())
    elif workload == "mc-crosscheck":
        plan = _mc_plan(seed, smoke, load_golden())
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    plan.update(workload=workload, seed=seed, smoke=smoke)
    return plan


def stage(plan: dict, workdir: Path) -> None:
    """Write the plan's input files into a fresh, empty work directory."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    if plan["stage_moments"]:
        shutil.copyfile(GOLDEN_MOMENTS, workdir / "moments.tsv")
    for name, nodes in plan["files"].items():
        (workdir / name).write_text("\n".join(nodes) + "\n", newline="\n")
