"""Correctness gate: every output of a pass is checked against golden facts.

Each check returns a list of error strings; an operation with any error, an
unexpected exit code or an exception counts as failed.  The checks use only
exact golden values committed under `golden/` and facts that hold for every
seed (Hermite dominance, the LP lower bound, report round-trips, Monte Carlo
z-scores against exact values).
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from inputs import GOLDEN_MOMENTS, GOLDEN_REFERENCE_REPORT

#: the k <= 13 moment cache, as `tetravol moments --k-max 13` writes it
GOLDEN_MOMENTS_BYTES = 524
GOLDEN_MOMENTS_SHA256 = "2ad5ab20d6185f819638ea6c27397c06f69275bb7fb7573a59544fb5b717e3f5"

#: slack on `bound >= LP objective`; the LP works on float moments
LP_TOLERANCE = 1e-9

#: largest |z| a Monte Carlo mean may show against its exact value
MC_Z_MAX = 5.0

#: `certify` exit codes: verdict true, verdict false
EXIT_CERTIFIED = 0
EXIT_NOT_CERTIFIED = 2


def check_moment_cache(data: bytes, k_max: int) -> list[str]:
    """The cache must be the golden file's first k_max orders, byte for byte."""
    if k_max >= 13:
        digest = hashlib.sha256(data).hexdigest()
        if len(data) != GOLDEN_MOMENTS_BYTES or digest != GOLDEN_MOMENTS_SHA256:
            return [f"moment cache: {len(data)} bytes, sha256 {digest}; want "
                    f"{GOLDEN_MOMENTS_BYTES} bytes, sha256 {GOLDEN_MOMENTS_SHA256}"]
        return []
    want = b"".join(GOLDEN_MOMENTS.read_bytes().splitlines(keepends=True)[:k_max + 1])
    if data != want:
        return [f"moment cache for k <= {k_max} differs from the golden prefix"]
    return []


def check_search(op: dict, workdir: Path, golden: dict) -> list[str]:
    want = golden["search"][op["config"]]["nodes"]
    got = (workdir / op["out"]).read_text().split()
    if got != want:
        return [f"search {op['config']}: nodes {got}, want {want}"]
    return []


def check_certificate(op: dict, rc: int, workdir: Path, golden: dict, tv) -> list[str]:
    text = (workdir / op["report"]).read_text()
    cert = tv.parse_report(text)
    errors = []
    name = op["nodes"]
    if tv.render_report(cert) != text:
        errors.append(f"{name}: report does not round-trip through parse_report")
    nodes = tuple(Fraction(x) for x in (workdir / name).read_text().split())
    if tuple(cert.nodes) != nodes:
        errors.append(f"{name}: report nodes differ from the node file")
    if not cert.dominance.valid:
        errors.append(f"{name}: dominance proof invalid for a Hermite node set")
    if float(cert.bound) < golden["lp13_objective_max"] - LP_TOLERANCE:
        errors.append(f"{name}: bound {float(cert.bound)} is below the degree-13 "
                      f"LP objective {golden['lp13_objective_max']}")
    target_lo = Fraction(golden["target_lo"])
    if cert.target.lo != target_lo:
        errors.append(f"{name}: target-lo {cert.target.lo} != golden {target_lo}")
    expected_verdict = cert.dominance.valid and cert.bound < target_lo
    if cert.verdict != expected_verdict:
        errors.append(f"{name}: verdict {cert.verdict} contradicts its own fields")
    if rc != (EXIT_CERTIFIED if cert.verdict else EXIT_NOT_CERTIFIED):
        errors.append(f"{name}: exit code {rc} for verdict {cert.verdict}")
    if op["role"] == "discovered":
        want = golden["search"][op["config"]]["certified"]
        if cert.verdict != want:
            errors.append(f"{name}: verdict {cert.verdict}, golden {want}")
    if op["role"] == "reference":
        reference = tv.parse_report(GOLDEN_REFERENCE_REPORT.read_text())
        if replace(cert, metadata={}) != replace(reference, metadata={}):
            errors.append(f"{name}: reference certificate differs from golden")
    return errors


_MC_LINE = re.compile(r"^(mean|s\.e\.) = (\S+)$", re.M)
_MC_N = re.compile(r"\bN=(\d+)\b")


def mc_reference(op: dict, golden: dict) -> tuple[Fraction, bool]:
    """(exact value, two-sided?) that the estimate must match.

    E V for four random points and E V^2 = 1/2000 for the pinned simplex are
    known exactly; for the pinned E V only the certified upper bound is.
    """
    key = f"{op['mode']}-{op['power']}"
    if key == "four-1":
        return Fraction(golden["target_lo"]), True
    if key == "centroid-2":
        return Fraction(1, 2000), True
    if key == "centroid-1":
        return Fraction(golden["discovered_bound"]), False
    raise KeyError(f"no Monte Carlo reference for {key}")


def check_mc(op: dict, stdout: str, golden: dict,
             reference: tuple[Fraction, bool] | None = None) -> list[str]:
    fields = dict(_MC_LINE.findall(stdout))
    n = _MC_N.search(stdout)
    if "mean" not in fields or "s.e." not in fields or n is None:
        return [f"mc {op['mode']}/{op['power']}: unparseable output {stdout!r}"]
    if int(n.group(1)) != op["samples"]:
        return [f"mc {op['mode']}/{op['power']}: N={n.group(1)}, want {op['samples']}"]
    mean, se = float(fields["mean"]), float(fields["s.e."])
    exact, two_sided = reference or mc_reference(op, golden)
    if not se > 0:
        return [f"mc {op['mode']}/{op['power']}: standard error {se}"]
    z = (mean - float(exact)) / se
    if z > MC_Z_MAX or (two_sided and z < -MC_Z_MAX):
        return [f"mc {op['mode']}/{op['power']}: mean {mean} is {z:+.1f} s.e. "
                f"from {float(exact)}"]
    return []


def check_op(op: dict, outcome: dict, workdir: Path, golden: dict, tv) -> list[str]:
    """All checks of one operation."""
    if outcome.get("exception"):
        return [f"{op['argv'][0]}: raised {outcome['exception']}"]
    rc = outcome["rc"]
    kind = op["kind"]
    if kind == "certify":
        if rc not in (EXIT_CERTIFIED, EXIT_NOT_CERTIFIED):
            return [f"certify {op['nodes']}: exit code {rc}: {outcome['stderr']}"]
        return check_certificate(op, rc, workdir, golden, tv)
    if rc != 0:
        return [f"{kind}: exit code {rc}: {outcome['stderr']}"]
    if kind == "moments":
        return check_moment_cache((workdir / "moments.tsv").read_bytes(), op["k_max"])
    if kind == "search":
        return check_search(op, workdir, golden)
    if kind == "mc":
        return check_mc(op, outcome["stdout"], golden)
    raise ValueError(f"unknown operation kind {kind!r}")


def check_staged_cache(workdir: Path) -> list[str]:
    """A staged cache must come out of the pass untouched."""
    return check_moment_cache((workdir / "moments.tsv").read_bytes(), 13)
