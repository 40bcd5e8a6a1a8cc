"""Regenerate the golden files under perfbench/golden/ (about a minute).

    python3 perfbench/make_golden.py

Run it from the root of a checkout whose outputs are trusted; the benchmark
gate compares every later run against what it writes.  The moment cache must
still hash to gate.GOLDEN_MOMENTS_SHA256, or the script refuses to write.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys

import gate
import inputs

ROOT = inputs.HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from tetravol import cli, node_search  # noqa: E402
from tetravol.certificate import certify, parse_report  # noqa: E402
from tetravol.majorant import NodeSet  # noqa: E402
from tetravol.moments import MomentTable  # noqa: E402
from tetravol.rational import target_enclosure  # noqa: E402


def _cli(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(list(argv))
    if rc != 0:
        raise RuntimeError(f"tetravol {' '.join(argv)} exited {rc}")


def main() -> int:
    work = ROOT / ".perfbench-out" / "golden-work"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    os.chdir(work)

    _cli("moments", "--k-max", "13", "--out", "moments.tsv")
    data = open("moments.tsv", "rb").read()
    if hashlib.sha256(data).hexdigest() != gate.GOLDEN_MOMENTS_SHA256:
        print("error: moment cache does not match the known k <= 13 hash", file=sys.stderr)
        return 1
    table = MomentTable.read("moments.tsv")

    search = {}
    for degree, grid in inputs.WARM_SEARCHES + inputs.SMOKE_SEARCHES:
        config = f"{degree}-{grid}-100"
        _cli("search", "--degree", str(degree), "--grid", str(grid),
             "--max-denominator", "100", "--moments", "moments.tsv", "--out", "nodes.txt")
        nodes = open("nodes.txt").read().split()
        sol = node_search.solve_onesided_lp(
            node_search.LpProblem.equispaced(degree, grid, table))
        cert = certify(NodeSet.from_rationals(nodes), table)
        search[config] = {"nodes": nodes, "lp_objective": sol.objective,
                          "certified": cert.verdict, "bound": str(cert.bound)}

    # the polished degree-13 nodes, before rationalization, as `search` makes them
    sol = node_search.solve_onesided_lp(node_search.LpProblem.equispaced(13, 1000, table))
    estimates = node_search.extract_nodes(sol)
    interior = [x for x in estimates if x < sol.grid[-1] * (1 - 1e-12)] or estimates
    polished = node_search.polish_nodes(interior, table)

    with open("nodes-reference.txt", "w") as fh:
        fh.write("\n".join(inputs.REFERENCE_NODES) + "\n")
    _cli("certify", "--nodes", "nodes-reference.txt", "--moments", "moments.tsv",
         "--report", "reference.cert")
    report = open("reference.cert").read()
    parse_report(report)

    target = target_enclosure()
    facts = {
        "target_lo": str(target.lo),
        "target_mid": f"{float((target.lo + target.hi) / 2):.17g}",
        "lp13_objective_max": max(v["lp_objective"] for k, v in search.items()
                                  if k.startswith("13-")),
        "discovered_bound": search["13-1000-100"]["bound"],
        "polished13": polished,
        "search": search,
    }
    inputs.GOLDEN_DIR.mkdir(exist_ok=True)
    inputs.GOLDEN_MOMENTS.write_bytes(data)
    inputs.GOLDEN_REFERENCE_REPORT.write_text(report, newline="\n")
    inputs.GOLDEN_FACTS.write_text(json.dumps(facts, indent=1) + "\n")
    os.chdir(ROOT)
    shutil.rmtree(work)
    print(f"wrote {inputs.GOLDEN_DIR}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
