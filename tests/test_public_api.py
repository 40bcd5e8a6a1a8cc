import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import tetravol


@pytest.mark.parametrize("module", ["tetravol", "tetravol.moments"])
def test_every_exported_name_resolves(module):
    # a removal that leaves its name in __all__ must fail here, not at a
    # user's `from ... import *`
    mod = importlib.import_module(module)
    assert len(set(mod.__all__)) == len(mod.__all__)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_star_import_binds_every_exported_name():
    # the package serves its names on first use (PEP 562): in a fresh
    # interpreter, dir() must list them and `import *` must bind each one
    code = """
import tetravol
assert set(tetravol.__all__) <= set(dir(tetravol)), set(tetravol.__all__) - set(dir(tetravol))
names = {}
exec("from tetravol import *", names)
assert [n for n in tetravol.__all__ if names.get(n) is not getattr(tetravol, n)] == []
"""
    src = Path(tetravol.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_the_trusted_modules_load_no_float_module():
    # the verdict rests on these four modules alone: in a fresh interpreter
    # they load neither numpy nor the node search nor the Monte Carlo check
    code = """
import sys
import tetravol.certificate, tetravol.majorant, tetravol.moments, tetravol.rational
loaded = [m for m in ("numpy", "tetravol.node_search", "tetravol.montecarlo")
          if m in sys.modules]
assert loaded == [], loaded
"""
    src = Path(tetravol.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def _annotated_objects():
    """(qualified name, object) for every class, method and function that a
    tetravol module defines."""
    for info in pkgutil.iter_modules(tetravol.__path__, "tetravol."):
        mod = importlib.import_module(info.name)
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{mod.__name__}.{name}", obj
            elif inspect.isclass(obj):
                yield f"{mod.__name__}.{name}", obj
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)  # class/static methods
                    member = getattr(member, "fget", member)  # properties
                    if inspect.isfunction(member):
                        yield f"{mod.__name__}.{name}.{attr}", member


def test_every_annotation_resolves():
    # the annotations are strings (`from __future__ import annotations`), so a
    # name that the module never imports fails only when they are evaluated
    unresolved = []
    for name, obj in _annotated_objects():
        try:
            typing.get_type_hints(obj)
        except NameError as exc:
            unresolved.append(f"{name}: {exc}")
    assert unresolved == []
