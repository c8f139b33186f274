"""Every name a library module imports is used in that module, and every
private module-level name or method is referenced somewhere in the library.

No linter ships with the project, so this walks each module's syntax tree
with the standard library.  ``__init__.py`` is exempt from the import
check: it imports names to re-export them.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import adelic

SOURCES = sorted(Path(adelic.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(_imported(tree)) - used) == []


def _private_definitions(tree):
    """(name, node) for each module-level name, and each method defined in a
    class body, with one leading underscore."""
    methods = [n for c in tree.body if isinstance(c, ast.ClassDef) for n in c.body]
    for node in tree.body + methods:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            assigned = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t.id for t in assigned if isinstance(t, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _references(node):
    """Names read under a node, bare or as an attribute (``jsonio._load``)."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def _unreferenced(trees):
    """Private module-level names and methods that no module reads outside
    their own definition, as ``module.name``."""
    reads = Counter(name for tree in trees.values() for name in _references(tree))
    return sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for name, node in _private_definitions(tree)
        if reads[name] == Counter(_references(node))[name]
    )


def test_every_private_name_is_referenced():
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in SOURCES}
    assert _unreferenced(trees) == []


def test_a_helper_with_no_caller_is_reported():
    source = (
        "def _used(n):\n    return _used(n - 1) if n else 0\n\n"
        "def _orphan(n):\n    return _orphan(n - 1) if n else 0\n\n"
        "_TABLE = {}\n_KEPT = 1\nVALUE = _used(_KEPT)\n\n"
        "class C:\n    def _called(self):\n        return self._alone\n\n"
        "    def _alone(self):\n        return 0\n\n"
        "    def _side_door(self):\n        return self._side_door\n\n"
        "    def __repr__(self):\n        return ''\n\nC()._called()\n"
    )
    assert _unreferenced({"m": ast.parse(source)}) == ["m._TABLE", "m._orphan", "m._side_door"]
