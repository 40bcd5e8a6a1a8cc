import importlib

import pytest


@pytest.mark.parametrize("module", ["tetravol", "tetravol.moments"])
def test_every_exported_name_resolves(module):
    # a removal that leaves its name in __all__ must fail here, not at a
    # user's `from ... import *`
    mod = importlib.import_module(module)
    assert len(set(mod.__all__)) == len(mod.__all__)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
