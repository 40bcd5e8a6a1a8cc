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
from .node_search import rationalize
from .rational import RationalInterval, pi_squared_enclosure, target_enclosure

__all__ = [
    "Certificate", "DominanceProof", "REFERENCE_NODES", "certify",
    "parse_report", "render_report", "verify_dominance",
    "EvenPoly", "NodeSet", "expected_value", "hermite_onesided",
    "MomentTable", "even_moment_direct", "even_moment_fast",
    "moment_table",
    "EstimatorResult", "estimate", "tetra_volume",
    "rationalize",
    "RationalInterval", "pi_squared_enclosure", "target_enclosure",
    "__version__",
]

#: served on first use by __getattr__, so that only `mc` and its callers load
#: numpy
_MONTECARLO_NAMES = ("EstimatorResult", "estimate", "tetra_volume")


def __getattr__(name: str):
    if name in _MONTECARLO_NAMES:
        from . import montecarlo
        return getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
