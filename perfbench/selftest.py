"""The benchmark's own tests (about 20 seconds).

    python3 perfbench/selftest.py

1. The gate must fail on a corrupted golden value (one digit of E V^26, both
   in the cache check and through a certificate built from that cache), on a
   wrong search result and on a wrong Monte Carlo reference.
2. Every workload must run end to end at smoke size, timed and traced, with
   `correct: true` and exactly the metric names BENCHMARK.json lists.
3. Without the program's sources the benchmark must exit non-zero without
   printing a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import gate
import inputs

ROOT = inputs.HERE.parent
WORK = ROOT / ".perfbench-out" / "selftest"
sys.path.insert(0, str(ROOT / "src"))

import tetravol as tv  # noqa: E402
from tetravol import cli  # noqa: E402

failures: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {what}")
    if not condition:
        failures.append(what)


def corrupted_moments() -> bytes:
    """The golden cache with the last digit of the k = 13 numerator changed.

    The digit is chosen so the fraction stays reduced: the file still loads,
    and only the exact comparison against golden values can catch it.
    """
    lines = inputs.GOLDEN_MOMENTS.read_text().split("\n")
    k, num, den = lines[13].split("\t")
    for digit in "123456789":
        bad = num[:-1] + digit
        if bad != num and gcd(int(bad), int(den)) == 1:
            lines[13] = "\t".join((k, bad, den))
            return "\n".join(lines).encode()
    raise RuntimeError("no single-digit corruption keeps E V^26 reduced")


def test_gate(golden: dict) -> None:
    good = inputs.GOLDEN_MOMENTS.read_bytes()
    expect(gate.check_moment_cache(good, 13) == [], "golden cache passes")
    bad = corrupted_moments()
    expect(gate.check_moment_cache(bad, 13) != [], "corrupted E V^26 fails the cache check")

    # a certificate computed from the corrupted cache must miss the golden one
    plan = inputs.make_plan("warm-certify-sweep", 0, smoke=True)
    workdir = WORK / "corrupt"
    inputs.stage(plan, workdir)
    (workdir / "moments.tsv").write_bytes(bad)
    op = next(o for o in plan["ops"] if o.get("role") == "reference")
    argv = [a if not a.endswith((".txt", ".cert", ".tsv")) else str(workdir / a)
            for a in op["argv"]]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    errors = gate.check_op(op, {"rc": rc, "stdout": "", "stderr": ""},
                           workdir, golden, tv)
    expect(rc in (0, 2) and errors != [],
           f"certificate from corrupted E V^26 (exit {rc}) fails the gate")

    search = next(o for o in plan["ops"] if o["kind"] == "search")
    want = golden["search"][search["config"]]["nodes"]
    (workdir / search["out"]).write_text("\n".join(want[:-1] + ["1/3"]) + "\n")
    expect(gate.check_search(search, workdir, golden) != [], "wrong search nodes fail")

    mc = {"mode": "centroid", "power": 2, "samples": 1000}
    stdout = "mode=centroid power=2 N=1000 seed=0\nmean = 5.0001e-04\ns.e. = 1.0e-07\n"
    expect(gate.check_mc(mc, stdout, golden) == [], "Monte Carlo mean at its exact value passes")
    wrong = (Fraction(1, 2000) * Fraction(101, 100), True)
    expect(gate.check_mc(mc, stdout, golden, wrong) != [], "wrong Monte Carlo reference fails")


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def test_smoke(spec: dict) -> None:
    names = {0: {m["name"] for m in spec["end_to_end"]},
             1: {m["name"] for m in spec["per_layer"]}}
    for w in spec["workloads"]:
        for trace in (0, 1):
            proc = run_bench(ROOT, "--workload", w["name"], "--seed", "7",
                             "--seconds", "1", "--trace", str(trace), "--smoke")
            what = f"smoke {w['name']} trace={trace}"
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                expect(False, f"{what}: no result line; stderr {proc.stderr[-400:]}")
                continue
            expect(proc.returncode == 0 and result["correct"]
                   and result["failed"] == 0 and result["attempted"] > 0,
                   f"{what}: exit {proc.returncode}, correct {result['correct']}")
            expect(set(result["metrics"]) == names[trace], f"{what}: metric names")


def test_without_sources() -> None:
    bare = WORK / "bare"
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(inputs.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(bare, "--workload", "mc-crosscheck", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"without sources: exit {proc.returncode}, no result printed")


def main() -> int:
    if WORK.exists():
        shutil.rmtree(WORK)
    WORK.mkdir(parents=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    test_gate(inputs.load_golden())
    test_smoke(spec)
    test_without_sources()
    shutil.rmtree(WORK)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
