"""Command line pipeline: moments -> node search -> certificate -> MC check.

Stages communicate through files so each artifact can be audited and reused:
the moment cache, the node set, and the certificate report all have exact
line-oriented formats.  Exit codes: 0 = success (for `certify`/`all`: verdict
true), 2 = verdict false, 1 = any error, a malformed command line included.

Each command imports the modules it runs when it starts, so importing this
module loads argparse and no tetravol module: `moments` loads the moment
engine alone, `mc` the Monte Carlo module alone (and with it numpy, which no
exact command loads), and `search`, `certify` and `all` the exact stack.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys
from pathlib import Path
from typing import NoReturn

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CERTIFIED = 2

#: montecarlo.MODE_ALL_RANDOM and MODE_CENTROID, spelled out so that building
#: the parser does not import numpy
MC_MODES = ("four", "centroid")


def _check_output(path: Path) -> None:
    """Refuse an output path that cannot be written, naming it as given,
    before any input is read or anything computed."""
    if path.is_dir():
        raise IsADirectoryError(f"{path}: is a directory")
    if path.parent.exists() and not path.parent.is_dir():
        raise NotADirectoryError(f"{path}: {path.parent} is not a directory")
    if not path.parent.is_dir():
        raise FileNotFoundError(f"{path}: directory {path.parent} does not exist")


def cmd_moments(*, k_max: int, out: Path) -> int:
    from . import moments

    _check_output(out)

    def report(k, v, provenance):
        # at once: a long run shows each order as it is checked
        print(f"k={k}: {v.numerator}/{v.denominator} ({provenance})", flush=True)

    moments.moment_table(k_max, report=report).write(out)
    print(f"wrote {out}")
    return EXIT_OK


def _check_search_args(degree: int, max_denominator: int) -> None:
    """Reject what `search` cannot use before any file is read or moment computed."""
    if degree < 0:
        raise ValueError(f"--degree must be >= 0, got {degree}")
    if max_denominator < 1:
        raise ValueError(f"--max-denominator must be >= 1, got {max_denominator}")


def _gauss_count(degree: int) -> int:
    """How many Gauss nodes `--degree d` takes, and the only such rule: n =
    max(1, ceil(d/2)), of degree 2n - 1 in t = x^2 (d - 1 at even d > 0)."""
    return max(1, (degree + 1) // 2)


def cmd_search(*, grid: int, **search_args) -> int:
    if grid < 1:
        raise ValueError(f"--grid must be >= 1, got {grid}")
    return _search(**search_args)


def _search(*, degree: int, max_denominator: int, moments: Path, out: Path) -> int:
    from . import node_search
    from .majorant import NodeSet, expected_value, hermite_onesided
    from .moments import MomentTable
    from .rational import target_enclosure

    _check_search_args(degree, max_denominator)
    _check_output(out)
    table = MomentTable.read(moments)
    n = _gauss_count(degree)
    nodes = node_search.gauss_nodes(n, table)
    try:
        node_set = NodeSet.from_rationals(
            node_search.rationalize(x, max_denominator) for x in nodes)
    except ValueError as exc:  # a node rounded to 0, or onto the one before
        raise ValueError(f"--max-denominator {max_denominator} is too coarse: {exc}") from None
    exact = NodeSet.from_rationals(nodes)  # E P(V) at the unrounded nodes
    optimum = float(expected_value(hermite_onesided(exact), table))
    print(f"Gauss optimum for degree {degree}: {optimum:.8f}")

    target_lo = float(target_enclosure().lo)
    if optimum > target_lo:
        # it bounds every majorant of degree <= 2n - 1; when 2n - 1 < d
        # (even d > 0) it is only the optimum of the degree 2n - 1 nodes
        if 2 * n - 1 < degree:
            source = f" of the degree {2 * n - 1} nodes"
            outcome = "certification with these nodes will fail"
        else:
            source, outcome = "", "certification at this degree will fail"
        print(f"warning: Gauss optimum {optimum:.6f}{source} exceeds the "
              f"target {target_lo:.6f}; {outcome}", file=sys.stderr)

    node_set.write(out)
    print("nodes: " + " ".join(f"{x.numerator}/{x.denominator}" for x in node_set))
    print(f"wrote {out}")
    return EXIT_OK


def _metadata(moments: Path) -> dict[str, str]:
    """The metadata `certify` writes into its report beside its own."""
    return {"moment-file": str(moments)}


def cmd_certify(*, nodes: Path, moments: Path, report: Path) -> int:
    from . import certificate as cert_mod
    from .majorant import NodeSet
    from .moments import MomentTable
    from .rational import fraction_to_decimal

    _check_output(report)
    node_set = NodeSet.read(nodes)
    table = MomentTable.read(moments)
    cert = cert_mod.certify(node_set, table, metadata=_metadata(moments))
    text = cert_mod.render_report(cert)
    Path(report).write_text(text, newline="\n")
    print(f"bound    = {fraction_to_decimal(cert.bound, 20)}")
    print(f"target   < {fraction_to_decimal(cert.target.lo, 20)}")
    print(f"margin   = {fraction_to_decimal(cert.margin, 20)}")
    print(f"verdict  : {cert_mod.VERDICT_TRUE if cert.verdict else cert_mod.VERDICT_FALSE}")
    print(f"wrote {report}")
    return EXIT_OK if cert.verdict else EXIT_NOT_CERTIFIED


def cmd_mc(*, mode: str, power: int, samples: int, seed: int,
           ref: float | None) -> int:
    if ref is not None and not math.isfinite(ref):
        raise ValueError(f"--ref must be a finite number, got {ref}")
    # no Monte Carlo kernel calls BLAS: without this, importing numpy starts
    # OpenBLAS server threads that run beside the sample threads.  OpenBLAS
    # reads the variable as numpy loads, so it is set (unless already set)
    # only for the import, and a caller's environment is left as it was.
    unset = "OPENBLAS_NUM_THREADS" not in os.environ
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from . import montecarlo
    if unset:
        del os.environ["OPENBLAS_NUM_THREADS"]
    result = montecarlo.estimate(mode, power, samples, seed)
    print(f"mode={mode} power={power} N={result.n_samples} seed={result.seed}")
    print(f"mean = {result.mean:.9e}")
    print(f"s.e. = {result.stderr:.3e}")
    if ref is not None:
        print(f"z    = {result.z_score(ref):+.2f} vs reference {ref}")
    return EXIT_OK


def cmd_all(*, degree: int, max_denominator: int, workdir: Path) -> int:
    from .certificate import check_metadata

    # reject what `search` and `certify` would reject before the work
    # directory is made or the moments are computed
    _check_search_args(degree, max_denominator)
    moments = workdir / "moments.tsv"
    check_metadata(_metadata(moments))
    workdir.mkdir(parents=True, exist_ok=True)
    nodes = workdir / "nodes.txt"
    report = workdir / "certificate.txt"
    # refuse the later stages' outputs before any stage runs
    for path in (nodes, report):
        _check_output(path)

    # the orders 1..2n - 1 of the n nodes `search` will write
    cmd_moments(k_max=2 * _gauss_count(degree) - 1, out=moments)
    _search(degree=degree, max_denominator=max_denominator, moments=moments, out=nodes)
    return cmd_certify(nodes=nodes, moments=moments, report=report)


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors exit EXIT_ERROR, not argparse's
    2, which means "verdict false" here.  Like Python 3.13's argparse, it
    reads a word that starts with `-` and a digit, or `-.` and a digit, as a
    value, not an option, so `--ref -1e-3` parses; before 3.13 only plain
    integers and decimals did.  `-inf` and `-nan` are still read as options.
    The subparsers share its class."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tetravol",
        description="Exact even moments of a pinned random simplex volume and "
                    "a certified one-sided polynomial bound on its mean.")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.set_defaults(commands=sub.choices)

    p = sub.add_parser("moments", help="compute the exact moment table")
    p.add_argument("--k-max", type=int, default=13)
    p.add_argument("--out", type=Path, required=True, help="moment cache file")
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("search", help="Gauss nodes of the moments, rationalized")
    p.add_argument("--degree", type=int, default=13,
                   help="highest even-power index d; takes n = max(1, ceil(d/2)) "
                        "Gauss nodes, which need the orders 1..2n-1")
    p.add_argument("--grid", type=int, default=1000,
                   help="accepted and checked (>= 1) for old scripts; no longer "
                        "affects the search")
    p.add_argument("--max-denominator", type=int, default=100)
    p.add_argument("--moments", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True, help="node file")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("certify", help="build and verify the certificate")
    p.add_argument("--nodes", type=Path, required=True)
    p.add_argument("--moments", type=Path, required=True)
    p.add_argument("--report", type=Path, required=True)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("mc", help="Monte Carlo cross-check")
    p.add_argument("--mode", choices=MC_MODES, required=True)
    p.add_argument("--power", type=int, default=1)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ref", type=float, default=None,
                   help="reference value for a z-score")
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("all", help="moments -> search -> certify")
    p.add_argument("--degree", type=int, default=13,
                   help="as for `search`; computes the moment orders it needs")
    p.add_argument("--max-denominator", type=int, default=100)
    p.add_argument("--workdir", type=Path, default=Path("tetravol-run"))
    p.set_defaults(func=cmd_all)

    return parser


#: the parser `main` uses, built on its first call and reused by every later
#: one in the process: argparse setup is the same for every call
_main_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code.  Bad input, an unusable
    moment table included (its three errors are ValueErrors), a failed file
    operation and a run too large for memory print one `error:` line and
    return EXIT_ERROR."""
    args, extra = _main_parser().parse_known_args(argv)
    args = vars(args)
    command = args.pop("commands")[args.pop("command")]
    if extra:  # with the usage line of the command they were given to
        command.error(f"unrecognized arguments: {' '.join(extra)}")
    func = args.pop("func")
    try:
        return func(**args)
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
