"""Source hygiene checks that need no linter."""

import ast
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "sidonbasis"

# Public names of the package that only the tests read, kept on purpose:
# count_irreducibles gives the member count of a level at degrees no
# sieve reaches, which the first-moment table of the coverage finding
# needs (ROADMAP); CoverageReport.trial_seeds records the seed of each
# re-draw, by which acceptance 9 checks that the trials are distinct and
# reproducible.
TEST_ONLY_KEPT = frozenset({"count_irreducibles", "CoverageReport.trial_seeds"})


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


def _unread_privates(tree: ast.Module) -> list[str]:
    """The module-level private functions, classes and constants of tree
    (one leading underscore, dunders exempt) that no Name node in it
    reads."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    defined[target.id] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [
        f"line {line}: {name}"
        for name, line in defined.items()
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text(), str(path))) == []


def test_unused_import_check_flags_and_passes():
    tree = ast.parse("import os, sys.path\nfrom . import a as b\nfrom x import y\nsys.exit(y)\n")
    assert _unused_imports(tree) == ["line 1: os", "line 2: b"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_unread_private_names(path):
    assert _unread_privates(ast.parse(path.read_text(), str(path))) == []


def test_unread_private_check_flags_and_passes():
    tree = ast.parse(
        "_A = 1\n_B: int = 2\n__all__ = []\ndef _f(): return _A\n"
        "def _g(): pass\nclass _C: pass\ndef h(): return _f()\n_B = 3\n"
    )
    assert _unread_privates(tree) == ["line 8: _B", "line 5: _g", "line 6: _C"]


def _scopes(tree: ast.Module):
    """(node, own) for the parts of tree: each module-level statement, with
    own the name it defines; a class comes apart into its decorators and
    bases and each statement of its body, which own the class's name and
    the method's."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for part in (*node.decorator_list, *node.bases, *node.keywords):
                yield part, {node.name}
            for sub in node.body:
                yield sub, {node.name, getattr(sub, "name", None)}
        else:
            yield node, {getattr(node, "name", None)}


def _names_read(tree: ast.Module) -> tuple[set[str], set[str]]:
    """(names, attributes) that tree reads outside the definition they
    name: every Name it loads, with the original name of each from-import
    whose binding it reads, and every attribute it loads, except those
    inside a module-level function, class or method of the same name
    (_scopes)."""
    names, attrs = set(), set()
    for node, own in _scopes(tree):
        for sub in ast.walk(node):
            if not isinstance(getattr(sub, "ctx", None), ast.Load):
                continue
            if isinstance(sub, ast.Name) and sub.id not in own:
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute) and sub.attr not in own:
                attrs.add(sub.attr)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names if (alias.asname or alias.name) in names)
    return names, attrs


def _public_definitions(tree: ast.Module):
    """(line, label, name) of each public definition of tree: its
    module-level functions and classes, and the methods and annotated
    fields of its classes (labelled Class.name)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.lineno, node.name, node.name
        if not isinstance(node, ast.ClassDef):
            continue
        for sub in node.body:
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = sub.name
            elif isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                name = sub.target.id
            else:
                continue
            if not name.startswith("_"):
                yield sub.lineno, f"{node.name}.{name}", name


def _unread_publics(modules: dict[str, ast.Module], readers: list[ast.Module], kept=frozenset()) -> list[str]:
    """The public definitions of modules (name -> tree; see
    _public_definitions) that no tree of readers reads outside a
    definition of that name (_names_read), less those whose name or label
    is in kept. A module-level function or class is read by its Name or
    as an attribute; a method or field of a class only as an attribute,
    so a local variable of the same name does not stand in for it."""
    names, attrs = set(), set()
    for tree in readers:
        tree_names, tree_attrs = _names_read(tree)
        names |= tree_names
        attrs |= tree_attrs
    return [
        f"{module} line {line}: {label}"
        for module, tree in modules.items()
        for line, label, name in _public_definitions(tree)
        if name not in (attrs if "." in label else names | attrs) and not {name, label} & kept
    ]


def test_no_test_only_public_names():
    # every public function and class of the package, and every public
    # method and annotated field of its classes, has a reader in the
    # package, the scripts or the benchmark; code that only the tests call
    # lives in tests/oracles.py
    modules = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    others = [*sorted((REPO / "scripts").glob("*.py")), *sorted((REPO / "perfbench").glob("*.py"))]
    readers = [*modules.values(), *(ast.parse(path.read_text(), str(path)) for path in others)]
    assert _unread_publics(modules, readers, TEST_ONLY_KEPT) == []


def test_test_only_public_check_flags_and_passes():
    lib = ast.parse(
        "def a(): return a()\ndef b(): pass\nclass C: pass\ndef _d(): pass\n"
        "def e(): pass\ndef f(): pass\nclass G:\n    def h(self): return G\n"
        "class H:\n    u: int\n    v: int = 0\n    _w: int\n    t: int\n"
        "    def m(self): return self.m()\n    def n(self):\n        t = self.u\n        return t\nx = b\n"
    )
    user = ast.parse("from lib import e as e2, f\nimport lib\nlib.C\ne2()\nlib.H().n()\n")
    # a method read only by itself (H.m), a field nothing reads (H.v) and
    # a field whose name only a local variable reads (H.t) are flagged; a
    # field read by a method of its class (H.u) is not
    assert _unread_publics({"lib.py": lib}, [lib, user]) == [
        "lib.py line 1: a",
        "lib.py line 6: f",
        "lib.py line 7: G",
        "lib.py line 8: G.h",
        "lib.py line 11: H.v",
        "lib.py line 13: H.t",
        "lib.py line 14: H.m",
    ]
    kept = frozenset({"a", "G", "H.v"})
    assert _unread_publics({"lib.py": lib}, [lib, user], kept) == [
        "lib.py line 6: f",
        "lib.py line 8: G.h",
        "lib.py line 13: H.t",
        "lib.py line 14: H.m",
    ]
