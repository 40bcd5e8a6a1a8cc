"""tetravol benchmark: time the CLI end to end, per layer when traced.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see BENCHMARK.json for why each
was chosen):

  cold-reproduce       README reproduction from an empty work directory
  warm-certify-sweep   staged k <= 13 cache; 4 searches and ~100 certificates
  mc-crosscheck        the three Monte Carlo cross-checks, seeded from N

A run stages the seeded inputs, then repeats passes until S seconds have
been measured (at least one).  Each pass is one fresh worker process that
calls `tetravol.cli.main` once per command, so per-process caches start
cold.  The program runs at its defaults: TETRAVOL_THREADS is removed from
the worker's environment and no `--threads` is passed.  Every output is
checked against golden values (gate.py) in timed and traced runs alike.

`--trace 0` reports the end-to-end metrics (setup_s, total_s, peak_rss_mb);
`--trace 1` wraps each layer's public calls (tracing.py) and reports the
per-layer metrics.  A human-readable table goes to stdout, the last line of
stdout is one JSON object, and a result file with provenance is written to
.perfbench-out/.  `--smoke` shrinks every workload for the self-test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import gate
import inputs
from tracing import self_times

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT_DIR = ROOT / ".perfbench-out"

#: stage-only worker starts per timed run, before and after the passes;
#: setup_s is their median.  A shared host's speed can shift every ten or so
#: seconds, so samples spread over the run are steadier than back-to-back ones.
SETUP_SAMPLES = (4, 3)

#: a run must exit within 180 s; past this many seconds no pass starts and a
#: running worker is killed, which leaves 10 s for the gate and the result
DEADLINE_S = 170.0


def spawn(mode: str, plan_path: Path, workdir: Path, out: Path | None,
          timeout: float) -> tuple[int, float, object, bool]:
    """Run one worker; returns (exit status, wall seconds, rusage, timed out)."""
    env = dict(os.environ)
    env.pop("TETRAVOL_THREADS", None)
    cmd = [sys.executable, str(WORKER), str(ROOT), str(plan_path), str(workdir), mode]
    if out is not None:
        cmd.append(str(out))
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                            stdout=sys.stderr.fileno())
    killed = threading.Event()

    def kill() -> None:
        killed.set()
        proc.kill()

    killer = threading.Timer(max(timeout, 1.0), kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage, killed.is_set() and proc.returncode < 0


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def git_commit(root: Path) -> str:
    try:
        return subprocess.run(["git", "--git-dir", str(root / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def provenance(numpy_version: str) -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        src.update(path.read_bytes())
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy_version,
            "platform": platform.platform(),
            "git_commit": git_commit(ROOT),
            "src_sha256": src.hexdigest()}


class Tally:
    """Operations attempted and failed, with the first few error messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors[: max(0, 20 - len(self.errors))])


def _errors(what: str, check, *args) -> list[str]:
    try:
        return check(*args)
    except Exception as exc:  # a missing or malformed output file
        return [f"{what}: gate raised {exc!r}"]


def gate_pass(plan: dict, result: dict | None, workdir: Path, golden: dict,
              tv, tally: Tally) -> None:
    """Check every output of one pass."""
    if result is None:
        for _ in plan["ops"]:
            tally.add(["worker process failed; see stderr"])
        return
    for op, outcome in zip(plan["ops"], result["outcomes"]):
        tally.add(_errors(op["argv"][0], gate.check_op, op, outcome, workdir,
                          golden, tv))
    if plan["stage_moments"]:
        tally.add(_errors("staged cache", gate.check_staged_cache, workdir))


def layer_metrics(passes: list[dict], plan: dict) -> tuple[dict, dict]:
    """Per-layer metrics (mean per pass unless stated) and per-order detail."""
    n = len(passes)
    ops = plan["ops"]
    walls: dict[str, list[float]] = {}
    for p in passes:
        for op, outcome in zip(ops, p["result"]["outcomes"]):
            walls.setdefault(op["kind"], []).append(outcome["wall_s"])
    mc_samples = sum(op["samples"] for op in ops if op["kind"] == "mc") * n

    total: Counter = Counter()    # span seconds by name, and by name.k<order>
    count: Counter = Counter()    # spans by name
    sums: Counter = Counter()     # exact counts summed over spans
    peaks: Counter = Counter()    # exact counts maxed over spans
    orders: dict[int, dict] = {}
    cli_self = certificate_self = 0.0
    for p in passes:
        spans = p["result"]["spans"]
        for span, self_s in zip(spans, self_times(spans)):
            name = span["name"]
            dur = span["end"] - span["start"]
            total[name] += dur
            count[name] += 1
            c = span.get("counts", {})
            if name.startswith("cli."):
                cli_self += self_s
            elif name == "certificate.certify":
                certificate_self += self_s
                sums["certified"] += c["verdict"]
            elif name in ("moments.fast", "moments.direct"):
                total[f"{name}.k{c['k']}"] += dur
                o = orders.setdefault(c["k"], {"bits": c["bits"]})
                route = f"{name.split('.')[1]}_s"
                o[route] = o.get(route, 0.0) + dur / n
                sums["direct_terms"] += c.get("terms", 0)
                peaks["moment_bits"] = max(peaks["moment_bits"], c["bits"])
            elif name == "node_search.lp":
                sums["grid_points"] += c["grid_points"]
                sums["active"] += c["active"]
            elif name == "majorant.hermite":
                peaks["coeff_bits"] = max(peaks["coeff_bits"], c["coeff_bits"])
            elif name == "certificate.dominance":
                peaks["quotient_bits"] = max(peaks["quotient_bits"], c["quotient_bits"])
            elif name == "montecarlo.estimate":
                sums["blocks"] += c["blocks"]

    def per_pass(x: float) -> float:
        return x / n

    def t(name: str) -> float:
        return per_pass(total[name])

    certify = walls.get("certify", [])
    cpu = sum(p["cpu_s"] for p in passes)
    wall = sum(p["wall_s"] for p in passes)
    m = {
        "cli.moments_s": (per_pass(sum(walls.get("moments", []))), "s"),
        "cli.search_s": (statistics.median(walls["search"]) if "search" in walls else 0.0, "s"),
        "cli.certify_s": (statistics.median(certify) if certify else 0.0, "s"),
        "cli.certify_p90_s": (percentile(certify, 90) if certify else 0.0, "s"),
        "cli.certify_calls": (per_pass(len(certify)), "count"),
        "cli.mc_samples_per_s": (mc_samples / sum(walls["mc"]) if "mc" in walls else 0.0, "1/s"),
        "cli.self_s": (per_pass(cli_self), "s"),
        "moments.fast_s": (t("moments.fast"), "s"),
        "moments.fast_s.k11": (t("moments.fast.k11"), "s"),
        "moments.fast_s.k12": (t("moments.fast.k12"), "s"),
        "moments.fast_s.k13": (t("moments.fast.k13"), "s"),
        "moments.direct_s": (t("moments.direct"), "s"),
        "moments.direct_s.k4": (t("moments.direct.k4"), "s"),
        "moments.cache_write_s": (t("moments.cache_write"), "s"),
        "moments.cache_read_s": (t("moments.cache_read"), "s"),
        "moments.fast_calls": (per_pass(count["moments.fast"]), "count"),
        "moments.direct_calls": (per_pass(count["moments.direct"]), "count"),
        "moments.direct_terms": (per_pass(sums["direct_terms"]), "count"),
        "moments.bits_max": (peaks["moment_bits"], "bits"),
        "node_search.lp_s": (t("node_search.lp"), "s"),
        "node_search.extract_s": (t("node_search.extract"), "s"),
        "node_search.polish_s": (t("node_search.polish"), "s"),
        "node_search.rationalize_s": (t("node_search.rationalize"), "s"),
        "node_search.grid_points": (per_pass(sums["grid_points"]), "count"),
        "node_search.active_constraints": (per_pass(sums["active"]), "count"),
        "majorant.hermite_s": (t("majorant.hermite"), "s"),
        "majorant.expected_value_s": (t("majorant.expected_value"), "s"),
        "majorant.coeff_bits_max": (peaks["coeff_bits"], "bits"),
        "certificate.dominance_s": (t("certificate.dominance"), "s"),
        "certificate.sturm_s": (t("certificate.sturm"), "s"),
        "certificate.render_s": (t("certificate.render"), "s"),
        "certificate.self_s": (per_pass(certificate_self), "s"),
        "certificate.certified": (per_pass(sums["certified"]), "count"),
        "certificate.attempts": (per_pass(count["certificate.certify"]), "count"),
        "certificate.quotient_bits_max": (peaks["quotient_bits"], "bits"),
        "montecarlo.estimate_s": (t("montecarlo.estimate"), "s"),
        "montecarlo.blocks": (per_pass(sums["blocks"]), "count"),
        "process.cpu_s": (per_pass(cpu), "s"),
        "process.cpu_per_wall": (cpu / wall, "ratio"),
        "trace.total_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "trace.spans": (per_pass(count.total()), "count"),
    }
    samples = {"cli.search_s": len(walls.get("search", [])),
               "cli.certify_s": len(certify), "cli.certify_p90_s": len(certify),
               "cli.mc_samples_per_s": len(walls.get("mc", []))}
    return m, {"samples": samples, "orders": {str(k): orders[k] for k in sorted(orders)}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own self-test")
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "tetravol" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'tetravol'} not found; run from the root "
              f"of a tetravol checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import tetravol as tv

    golden = inputs.load_golden()
    plan = inputs.make_plan(args.workload, args.seed, args.smoke)
    rundir = OUT_DIR / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    if rundir.exists():
        shutil.rmtree(rundir)
    rundir.mkdir(parents=True)
    plan_path = rundir / "plan.json"
    plan_path.write_text(json.dumps(plan))
    workdir = rundir / "work"

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - started)

    setup: list[float] = []

    def sample_setup(n: int) -> bool:
        for _ in range(0 if args.trace else n):
            rc, wall, _, _ = spawn("stage", plan_path, rundir / "setup", None, remaining())
            if rc != 0:
                print(f"error: staging worker exited {rc}", file=sys.stderr)
                return False
            setup.append(wall)
        return True

    if not sample_setup(SETUP_SAMPLES[0]):
        return 1
    tally = Tally()
    passes = []
    measure_start = time.monotonic()
    while True:
        out = rundir / f"pass{len(passes)}.json"
        rc, wall, usage, timed_out = spawn("trace" if args.trace else "run", plan_path,
                                           workdir, out, remaining())
        usage_fields = {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                        "rss_mb": usage.ru_maxrss / 1024}
        if timed_out:
            # a slowdown, not a wrong answer: keep the wall time (a lower bound);
            # the pass's operations never finished, so each counts as failed
            for _ in plan["ops"]:
                tally.add([f"timeout: pass killed at the {DEADLINE_S:.0f} s deadline "
                           f"after {wall:.1f} s"])
            passes.append({**usage_fields, "timed_out": True, "result": None})
            break
        result = json.loads(out.read_text()) if rc == 0 and out.is_file() else None
        gate_pass(plan, result, workdir, golden, tv, tally)
        if result is None:
            break
        passes.append({**usage_fields, "result": result})
        elapsed = time.monotonic() - measure_start
        if elapsed >= args.seconds or 2 * wall > remaining():
            break
    if passes and remaining() > 5 and not sample_setup(SETUP_SAMPLES[1]):
        return 1
    for staged in (workdir, rundir / "setup"):
        shutil.rmtree(staged, ignore_errors=True)

    finished = [p for p in passes if p["result"] is not None]
    if not passes or (args.trace and not finished):
        metrics, detail = {}, {}
    elif args.trace:
        metrics, detail = layer_metrics(finished, plan)
        metrics["gate.error_rate"] = (tally.failed / max(tally.attempted, 1), "ratio")
        metrics["gate.checks"] = (tally.attempted, "count")
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "total_s": (statistics.median(p["wall_s"] for p in passes), "s"),
            "peak_rss_mb": (max(p["rss_mb"] for p in passes), "MB"),
        }
        detail = {"samples": {"setup_s": len(setup), "total_s": len(passes),
                              "peak_rss_mb": len(passes)},
                  "setup_walls_s": setup}
    for p in passes:
        del p["result"]
    correct = tally.failed == 0 and bool(passes)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke,
              "provenance": provenance(numpy.__version__),
              "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
              "errors": tally.errors, "passes": passes,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              **detail}
    (rundir / "result.json").write_text(json.dumps(record, indent=1))

    samples = detail.get("samples", {})
    for line in tally.errors:
        print(f"FAIL {line}")
    print(f"{args.workload} seed={args.seed} passes={len(passes)} "
          f"ops={tally.attempted} failed={tally.failed} result={rundir / 'result.json'}")
    for name, (value, unit) in metrics.items():
        n = samples.get(name, len(passes))
        print(f"  {name:34s} {value:>16.6g} {unit:6s} n={n}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
