"""Side-by-side harness shared by the scripts in this directory.

A script compares two or more source trees ("sides"), each given as
`--side LABEL=SRC_DIR`.  Every timed run is a fresh process that runs the
script itself in its child mode and prints one JSON line; runs alternate
between the sides, starting with a different side on each repeat.  Stdlib
only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Iterator


def side(value: str) -> tuple[str, str]:
    """argparse type of `--side LABEL=SRC_DIR`: the label and the absolute
    source directory."""
    label, sep, src = value.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected LABEL=SRC_DIR, got {value!r}")
    return label, str(Path(src).resolve())


def alternate(sides: list[tuple[str, str]], repeats: int) -> Iterator[tuple[int, str, str]]:
    """(repeat, label, src) for every run: each side once per repeat, in the
    given order on even repeats and reversed on odd ones."""
    for r in range(repeats):
        for label, src in (sides if r % 2 == 0 else sides[::-1]):
            yield r, label, src


def spawn(script: str, *args: str) -> dict:
    """Run `script` with `args` in a fresh interpreter; its last stdout line
    is the JSON result."""
    cmd = [sys.executable, script, *args]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def tree_sha256(src: str | Path) -> str:
    """sha256 over the package's Python files, names and bytes, in name order."""
    digest = hashlib.sha256()
    for path in sorted((Path(src) / "tetravol").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine() -> dict:
    """The interpreter and platform, with the CPU count and the CPUs this
    process may run on (its affinity mask where the platform has one)."""
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"nproc": os.cpu_count(), "usable_cpus": usable,
            "python": platform.python_version(), "platform": platform.platform()}


def quartiles(values: list[float], digits: int) -> list[float]:
    """The three inclusive quartiles, rounded; a single value three times."""
    if len(values) < 2:
        return values * 3
    return [round(q, digits) for q in statistics.quantiles(values, n=4, method="inclusive")]


def summary(values: list[float], digits: int = 6) -> dict:
    """Median and outer quartiles, and the p90 once at least ten samples lie
    beyond it."""
    quarts = quartiles(values, digits)
    out = {"median": round(statistics.median(values), digits),
           "quartiles": [quarts[0], quarts[2]]}
    if len(values) >= 100:
        out["p90"] = round(statistics.quantiles(values, n=10, method="inclusive")[8], digits)
    return out
