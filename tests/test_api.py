"""The public surface: every exported name resolves.

Guards deletions: a name dropped from a module but left in an ``__all__``
list fails here instead of at a user's ``from banditmix import *``.
"""

import importlib
import pkgutil

import pytest

import banditmix

MODULES = sorted(
    f"banditmix.{m.name}" for m in pkgutil.iter_modules(banditmix.__path__) if m.name != "__main__"
)


@pytest.mark.parametrize("module", ["banditmix", *MODULES])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert mod.__all__, f"{module} exports nothing"
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)

