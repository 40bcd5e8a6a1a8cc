"""Exact even moments of random tetrahedron volumes and a certified
one-sided polynomial bound on the expected volume of the pinned simplex."""

__version__ = "0.1.0"

from .certificate import (
    Certificate,
    DominanceProof,
    REFERENCE_NODES,
    certify,
    parse_report,
    render_report,
    verify_dominance,
)
from .majorant import EvenPoly, NodeSet, expected_value, hermite_onesided
from .moments import (
    MomentTable,
    even_moment_direct,
    even_moment_fast,
    moment_table,
)
from .montecarlo import EstimatorResult, estimate, tetra_volume
from .node_search import LpProblem, LpSolution, extract_nodes, polish_nodes, \
    rationalize, solve_onesided_lp
from .rational import RationalInterval, factorial, pi_squared_enclosure, \
    target_enclosure

__all__ = [
    "Certificate", "DominanceProof", "REFERENCE_NODES", "certify",
    "parse_report", "render_report", "verify_dominance",
    "EvenPoly", "NodeSet", "expected_value", "hermite_onesided",
    "MomentTable", "even_moment_direct", "even_moment_fast",
    "moment_table",
    "EstimatorResult", "estimate", "tetra_volume",
    "LpProblem", "LpSolution", "extract_nodes", "polish_nodes",
    "rationalize", "solve_onesided_lp",
    "RationalInterval", "factorial", "pi_squared_enclosure",
    "target_enclosure",
    "__version__",
]
