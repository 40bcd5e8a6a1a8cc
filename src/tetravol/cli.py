"""Command line pipeline: moments -> node search -> certificate -> MC check.

Stages communicate through files so each artifact can be audited and reused:
the moment cache, the node set, and the certificate report all have exact
line-oriented formats.  Exit codes: 0 = success (for `certify`/`all`: verdict
true), 2 = verdict false, 1 = any error.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from . import certificate as cert_mod
from . import moments as moments_mod
from . import node_search
from . import montecarlo
from .majorant import MomentOrderError, NodeSet, expected_value, hermite_onesided
from .rational import fraction_to_decimal, target_enclosure

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CERTIFIED = 2


def cmd_moments(*, k_max: int, out: Path) -> int:
    table = moments_mod.moment_table(k_max, cache_path=out)
    for k in table.orders():
        v = table[k]
        print(f"k={k}: {v.numerator}/{v.denominator} "
              f"({table.provenance.get(k, '?')})")
    print(f"wrote {out}")
    return EXIT_OK


def _check_search_args(degree: int, grid: int, max_denominator: int) -> None:
    """Reject what `search` cannot use before any file is read or moment computed."""
    if degree < 0:
        raise ValueError(f"--degree must be >= 0, got {degree}")
    if grid < 1:
        raise ValueError(f"--grid must be >= 1, got {grid}")
    if max_denominator < 1:
        raise ValueError(f"--max-denominator must be >= 1, got {max_denominator}")


def cmd_search(*, degree: int, grid: int, max_denominator: int,
               moments: Path, out: Path) -> int:
    _check_search_args(degree, grid, max_denominator)
    table = moments_mod.MomentTable.read(moments)
    if table.order_max < degree:
        print(f"error: moment file has orders up to {table.order_max}, "
              f"degree {degree} needs {degree}", file=sys.stderr)
        return EXIT_ERROR
    # n nodes give degree 2n - 1 in t = x^2; degree 0 is the single node 1/3
    n = (degree + 1) // 2
    if n:
        nodes = node_search.gauss_nodes(n, table)
        exact = NodeSet.from_rationals(Fraction(x) for x in nodes)
        optimum = float(expected_value(hermite_onesided(exact), table))
    else:
        nodes, optimum = [1 / 3], 1 / 3
    print(f"Gauss optimum for degree {degree}: {optimum:.8f}")

    target_lo = float(target_enclosure().lo)
    if optimum > target_lo:
        # at odd degree (and 0) the optimum bounds every degree-d majorant;
        # at even degree it is only that of the degree d - 1 nodes
        if degree % 2 or not degree:
            source, outcome = "", "certification at this degree will fail"
        else:
            source = f" of the degree {degree - 1} nodes"
            outcome = "certification with these nodes will fail"
        print(f"warning: Gauss optimum {optimum:.6f}{source} exceeds the "
              f"target {target_lo:.6f}; {outcome}", file=sys.stderr)

    rationals = [node_search.rationalize(x, max_denominator) for x in nodes]
    node_set = NodeSet.from_rationals(rationals)
    node_set.write(out)
    print("nodes: " + " ".join(f"{x.numerator}/{x.denominator}" for x in node_set))
    print(f"wrote {out}")
    return EXIT_OK


def cmd_certify(*, nodes: Path, moments: Path, report: Path) -> int:
    node_set = NodeSet.read(nodes)
    table = moments_mod.MomentTable.read(moments)
    cert = cert_mod.certify(node_set, table, metadata={"moment-file": str(moments)})
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
    result = montecarlo.estimate(mode, power, samples, seed)
    print(f"mode={mode} power={power} N={result.n_samples} seed={result.seed}")
    print(f"mean = {result.mean:.9e}")
    print(f"s.e. = {result.stderr:.3e}")
    if ref is not None:
        print(f"z    = {result.z_score(ref):+.2f} vs reference {ref}")
    return EXIT_OK


def cmd_all(*, k_max: int, degree: int, grid: int, max_denominator: int,
            workdir: Path) -> int:
    # reject what `search` would reject before the moments are computed
    _check_search_args(degree, grid, max_denominator)
    if degree > k_max:
        raise ValueError(f"--degree {degree} needs --k-max >= {degree}, got {k_max}")
    workdir.mkdir(parents=True, exist_ok=True)
    moments = workdir / "moments.tsv"
    nodes = workdir / "nodes.txt"

    rc = cmd_moments(k_max=k_max, out=moments)
    if rc != EXIT_OK:
        return rc
    rc = cmd_search(degree=degree, grid=grid, max_denominator=max_denominator,
                    moments=moments, out=nodes)
    if rc != EXIT_OK:
        return rc
    return cmd_certify(nodes=nodes, moments=moments, report=workdir / "certificate.txt")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tetravol",
        description="Exact even moments of a pinned random simplex volume and "
                    "a certified one-sided polynomial bound on its mean.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moments", help="compute the exact moment table")
    p.add_argument("--k-max", type=int, default=13)
    p.add_argument("--out", type=Path, required=True, help="moment cache file")
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("search", help="Gauss nodes of the moments, rationalized")
    p.add_argument("--degree", type=int, default=13,
                   help="highest even-power index of the polynomial")
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
    p.add_argument("--mode", choices=[montecarlo.MODE_ALL_RANDOM,
                                      montecarlo.MODE_CENTROID], required=True)
    p.add_argument("--power", type=int, default=1)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ref", type=float, default=None,
                   help="reference value for a z-score")
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("all", help="moments -> search -> certify")
    p.add_argument("--k-max", type=int, default=13)
    p.add_argument("--degree", type=int, default=13)
    p.add_argument("--grid", type=int, default=1000)
    p.add_argument("--max-denominator", type=int, default=100)
    p.add_argument("--workdir", type=Path, default=Path("tetravol-run"))
    p.set_defaults(func=cmd_all)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = vars(build_parser().parse_args(argv))
    del args["command"]
    func = args.pop("func")
    try:
        return func(**args)
    except (OSError, ValueError, KeyError, MomentOrderError,
            moments_mod.MomentCacheError, moments_mod.MomentIntegrityError,
            node_search.LpError, cert_mod.ReportFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
