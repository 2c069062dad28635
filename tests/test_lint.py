"""Source hygiene checks that need no linter."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sidonbasis"


def _unused_imports(tree: ast.Module) -> list[str]:
    """The names bound by the top-level imports of tree that no Name
    node in it reads (an attribute chain a.b reads a)."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text(), str(path))) == []


def test_unused_import_check_flags_and_passes():
    tree = ast.parse("import os, sys.path\nfrom . import a as b\nfrom x import y\nsys.exit(y)\n")
    assert _unused_imports(tree) == ["line 1: os", "line 2: b"]
