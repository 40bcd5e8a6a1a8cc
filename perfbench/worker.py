"""One fresh process per pass: import tetravol, stage inputs, run the plan.

    python3 perfbench/worker.py ROOT PLAN.json WORKDIR {stage|run|trace} [OUT.json]

`stage` only imports the package and stages the inputs (this is what
`setup_s` times).  `run` and `trace` then call `tetravol.cli.main` once per
operation inside WORKDIR, recording wall time, exit code and output of each;
`trace` also records spans around each layer's public calls.  The result is
written to OUT.json once, at exit.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
import traceback
from pathlib import Path


def import_cli(root: Path):
    """Import tetravol from ROOT/src and nowhere else."""
    src = root / "src"
    sys.path.insert(0, str(src))
    import tetravol.cli as cli
    package = Path(sys.modules["tetravol"].__file__).resolve()
    if src.resolve() not in package.parents:
        raise ImportError(f"tetravol imported from {package}, not from {src}")
    return cli


def run_ops(cli, ops: list[dict], tracer) -> list[dict]:
    outcomes = []
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        outcome = {"rc": None, "exception": None}
        span = tracer.open(f"cli.{op['kind']}") if tracer else None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                outcome["rc"] = cli.main(op["argv"])
        except SystemExit as exc:  # argparse rejects the command line
            outcome["rc"] = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # recorded and counted as a failed operation
            outcome["exception"] = traceback.format_exc(limit=3)
        outcome["wall_s"] = time.perf_counter() - t0
        if span:
            tracer.close(span)
        outcome["stdout"] = out.getvalue()
        outcome["stderr"] = err.getvalue()
        outcomes.append(outcome)
    return outcomes


def main(argv: list[str]) -> int:
    root, plan_path, workdir, mode = Path(argv[0]), Path(argv[1]), Path(argv[2]), argv[3]
    cli = import_cli(root)
    import inputs

    plan = json.loads(plan_path.read_text())
    inputs.stage(plan, workdir)
    if mode == "stage":
        return 0

    tracer = None
    if mode == "trace":
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    os.chdir(workdir)
    outcomes = run_ops(cli, plan["ops"], tracer)
    result = {"outcomes": outcomes, "spans": tracer.spans if tracer else []}
    Path(argv[4]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
