import importlib
import os
import subprocess
import sys
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
