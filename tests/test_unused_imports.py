"""No module imports a name that it never uses.

The check covers the package, the tests and the demos.  The package's
``__init__.py`` is left out: its imports are re-exports, which
``test_public_names.py`` checks.  ``from __future__`` imports are compiler
directives, not names, and are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(
    path
    for pattern in ("src/micromorph/*.py", "tests/*.py", "demos/*.py")
    for path in ROOT.glob(pattern)
    if path.name != "__init__.py"
)


def imported_names(tree: ast.AST) -> set[str]:
    """Names that the module's import statements bind, at any depth."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def used_names(tree: ast.AST) -> set[str]:
    """Names the module reads; ``np.ndarray`` reads ``np``."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_every_directory_is_covered():
    assert {p.parent.name for p in FILES} == {"micromorph", "tests", "demos"}
    assert ROOT / "src/micromorph/__init__.py" not in FILES


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert sorted(imported_names(tree) - used_names(tree)) == []


def test_an_unused_import_is_found():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\nfrom a import b, c as d\n"
        "def f(x: np.ndarray) -> None:\n    return b\n"
    )
    assert imported_names(tree) - used_names(tree) == {"os", "d"}
