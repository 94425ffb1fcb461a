"""Every public name the package advertises resolves.

A deletion that leaves a dangling ``__all__`` entry or package-level import
would otherwise surface only at a user's ``import *``.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import micromorph

MODULES = sorted(
    m.name for m in pkgutil.iter_modules(micromorph.__path__) if m.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"micromorph.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"micromorph.{name}.__all__ lists undefined names {missing}"


def test_package_imports_resolve():
    tree = ast.parse(Path(micromorph.__file__).read_text())
    imported = [
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert len(imported) > 40
    assert [n for n in imported if not hasattr(micromorph, n)] == []

