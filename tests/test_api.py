"""The public surface: every exported name resolves, and modules share no private name.

Guards deletions: a name dropped from a module but left in an ``__all__``
list fails here instead of at a user's ``from banditmix import *``.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

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


def test_no_module_imports_a_private_name_of_another():
    found = []
    for path in sorted(Path(banditmix.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("banditmix")):
                found += [f"{path.name}: {alias.name}" for alias in node.names if alias.name.startswith("_")]
    assert found == []
