"""Exact even moments of random tetrahedron volumes and a certified
one-sided polynomial bound on the expected volume of the pinned simplex.

Importing the package loads none of its modules: each public name is
imported from the module that defines it on first use (PEP 562), so a
command loads only the modules it runs, and only the Monte Carlo names load
numpy."""

import importlib

__version__ = "0.1.0"

#: the module that defines each public name, in `__all__` order
_MODULE_OF = {
    **dict.fromkeys(("Certificate", "DominanceProof", "certify",
                     "parse_report", "render_report", "verify_dominance"), "certificate"),
    **dict.fromkeys(("EvenPoly", "NodeSet", "expected_value", "hermite_onesided"),
                    "majorant"),
    **dict.fromkeys(("MomentTable", "even_moment_direct", "even_moment_fast",
                     "moment_table"), "moments"),
    **dict.fromkeys(("EstimatorResult", "estimate"), "montecarlo"),
    "rationalize": "node_search",
    **dict.fromkeys(("RationalInterval", "pi_squared_enclosure", "target_enclosure"),
                    "rational"),
}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
