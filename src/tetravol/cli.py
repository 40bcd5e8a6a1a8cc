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
from .majorant import MomentOrderError, NodeSet
from .rational import fraction_to_decimal, target_enclosure

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CERTIFIED = 2


def cmd_moments(args: argparse.Namespace) -> int:
    table = moments_mod.moment_table(args.k_max, cache_path=args.out)
    for k in table.orders():
        v = table[k]
        print(f"k={k}: {v.numerator}/{v.denominator} "
              f"({table.provenance.get(k, '?')})")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_search(args: argparse.Namespace) -> int:
    table = moments_mod.MomentTable.read(args.moments)
    if table.order_max < args.degree:
        print(f"error: moment file has orders up to {table.order_max}, "
              f"degree {args.degree} needs {args.degree}", file=sys.stderr)
        return EXIT_ERROR
    problem = node_search.LpProblem.equispaced(args.degree, args.grid, table)
    solution = node_search.solve_onesided_lp(problem)
    print(f"LP objective (lower bound for degree {args.degree}): "
          f"{solution.objective:.8f}")

    target_lo = float(target_enclosure().lo)
    if solution.objective > target_lo:
        print(f"warning: lower bound {solution.objective:.6f} exceeds the "
              f"target {target_lo:.6f}; certification at this degree will fail",
              file=sys.stderr)

    estimates = node_search.extract_nodes(solution)
    grid_max = solution.grid[-1]
    # keep interior tangencies; an endpoint-pinned touch is only a node when
    # nothing else touches (the constant-majorant case)
    nodes = [x for x in estimates if x < grid_max * (1 - 1e-12)] or estimates
    if 2 * len(nodes) - 1 == args.degree and table.order_max >= args.degree:
        nodes = node_search.polish_nodes(nodes, table)
    rationals = [node_search.rationalize(x, args.max_denominator) for x in nodes]
    node_set = NodeSet.from_rationals(rationals)
    node_set.write(args.out)
    print("nodes: " + " ".join(f"{x.numerator}/{x.denominator}" for x in node_set))
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_certify(args: argparse.Namespace) -> int:
    nodes = NodeSet.read(args.nodes)
    table = moments_mod.MomentTable.read(args.moments)
    cert = cert_mod.certify(nodes, table,
                            metadata={"moment-file": str(args.moments)})
    report = cert_mod.render_report(cert)
    Path(args.report).write_text(report, newline="\n")
    print(f"bound    = {fraction_to_decimal(cert.bound, 20)}")
    print(f"target   < {fraction_to_decimal(cert.target.lo, 20)}")
    print(f"margin   = {fraction_to_decimal(cert.margin, 20)}")
    print(f"verdict  : {cert_mod.VERDICT_TRUE if cert.verdict else cert_mod.VERDICT_FALSE}")
    print(f"wrote {args.report}")
    return EXIT_OK if cert.verdict else EXIT_NOT_CERTIFIED


def cmd_mc(args: argparse.Namespace) -> int:
    result = montecarlo.estimate(args.mode, args.power, args.samples, args.seed)
    print(f"mode={args.mode} power={args.power} N={result.n_samples} "
          f"seed={result.seed}")
    print(f"mean = {result.mean:.9e}")
    print(f"s.e. = {result.stderr:.3e}")
    if args.ref is not None:
        print(f"z    = {result.z_score(args.ref):+.2f} vs reference {args.ref}")
    return EXIT_OK


def cmd_all(args: argparse.Namespace) -> int:
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    moments_path = workdir / "moments.tsv"
    nodes_path = workdir / "nodes.txt"
    report_path = workdir / "certificate.txt"

    args_m = argparse.Namespace(k_max=args.k_max, out=moments_path)
    rc = cmd_moments(args_m)
    if rc != EXIT_OK:
        return rc
    args_s = argparse.Namespace(degree=args.degree, grid=args.grid,
                                max_denominator=args.max_denominator,
                                moments=moments_path, out=nodes_path)
    rc = cmd_search(args_s)
    if rc != EXIT_OK:
        return rc
    args_c = argparse.Namespace(nodes=nodes_path, moments=moments_path,
                                report=report_path)
    return cmd_certify(args_c)


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

    p = sub.add_parser("search", help="LP node discovery")
    p.add_argument("--degree", type=int, default=13,
                   help="highest even-power index of the polynomial")
    p.add_argument("--grid", type=int, default=1000,
                   help="number of grid intervals on [0, 1/3]")
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError, MomentOrderError,
            moments_mod.MomentCacheError, moments_mod.MomentIntegrityError,
            node_search.LpError, cert_mod.ReportFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
