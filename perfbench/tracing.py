"""Spans around the public calls of each tetravol layer, from outside.

`Tracer.install` replaces each public module-level name that the pipeline
calls through with a wrapper that records a span (name, start, end, parent)
and, for some layers, exact counts taken from the arguments and the result.
Spans stay in memory; `summarize` derives per-layer totals and self times
once the pass is over.  The program itself is not modified.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from math import comb


def _bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _fast_counts(args, kwargs, result) -> dict:
    return {"k": args[0] if args else kwargs["k"], "bits": _bits(result)}


def _direct_counts(args, kwargs, result) -> dict:
    k = args[0] if args else kwargs["k"]
    return {"k": k, "terms": comb(2 * k + 17, 17), "bits": _bits(result)}


def _lp_counts(args, kwargs, result) -> dict:
    problem = args[0] if args else kwargs["problem"]
    return {"grid_points": len(problem.grid), "active": len(result.active_indices)}


def _hermite_counts(args, kwargs, result) -> dict:
    return {"coeff_bits": max(_bits(c) for c in result.coeffs)}


def _dominance_counts(args, kwargs, result) -> dict:
    return {"quotient_bits": max(_bits(c) for c in result.quotient),
            "valid": bool(result.valid)}


def _certify_counts(args, kwargs, result) -> dict:
    return {"verdict": bool(result.verdict)}


def _mc_counts(args, kwargs, result) -> dict:
    block = sys.modules["tetravol.montecarlo"].BLOCK_SIZE
    return {"samples": result.n_samples, "blocks": -(-result.n_samples // block)}


#: (defining module, attribute path, span name, count extractor)
TARGETS = (
    ("tetravol.moments", "even_moment_fast", "moments.fast", _fast_counts),
    ("tetravol.moments", "even_moment_direct", "moments.direct", _direct_counts),
    ("tetravol.moments", "MomentTable.read", "moments.cache_read", None),
    ("tetravol.moments", "MomentTable.write", "moments.cache_write", None),
    ("tetravol.node_search", "solve_onesided_lp", "node_search.lp", _lp_counts),
    ("tetravol.node_search", "extract_nodes", "node_search.extract", None),
    ("tetravol.node_search", "polish_nodes", "node_search.polish", None),
    ("tetravol.node_search", "rationalize", "node_search.rationalize", None),
    ("tetravol.majorant", "hermite_onesided", "majorant.hermite", _hermite_counts),
    ("tetravol.majorant", "expected_value", "majorant.expected_value", None),
    ("tetravol.certificate", "certify", "certificate.certify", _certify_counts),
    ("tetravol.certificate", "verify_dominance", "certificate.dominance",
     _dominance_counts),
    ("tetravol.certificate", "sturm_root_count", "certificate.sturm", None),
    ("tetravol.certificate", "render_report", "certificate.render", None),
    ("tetravol.montecarlo", "estimate", "montecarlo.estimate", _mc_counts),
)


class Tracer:
    """In-memory span recorder.  One instance per traced process."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def open(self, name: str) -> dict:
        span = {"name": name, "start": self.clock(), "end": None,
                "parent": self._stack[-1] if self._stack else None}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = self.clock()
        self._stack.pop()

    def wrap(self, fn, name: str, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counts is not None:
                span["counts"] = counts(args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        """Wrap every target wherever a tetravol module binds it."""
        for module_name, path, name, counts in TARGETS:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = inspect.getattr_static(cls, attr)
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self.wrap(raw.__func__, name, counts)))
                else:
                    setattr(cls, attr, self.wrap(raw, name, counts))
                continue
            original = getattr(module, path)
            traced = self.wrap(original, name, counts)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "tetravol" or mod_name.startswith("tetravol."):
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, traced)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]
