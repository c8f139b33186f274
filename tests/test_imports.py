"""Every name a library module imports is used in that module, every
private module-level name or method is referenced somewhere in the library,
and every public function, class or method has a caller outside the tests.

No linter ships with the project, so this walks each module's syntax tree
with the standard library.  ``__init__.py`` is exempt from the import
check: it imports names to re-export them.
"""

import ast
import inspect
import re
from collections import Counter
from pathlib import Path

import pytest

import adelic

SOURCES = sorted(Path(adelic.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
ROOT = Path(__file__).resolve().parents[1]


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


def _public_definitions(tree):
    """(qualified name, node) for each public module-level function or class,
    and each public method defined in a class body, as ``name`` or
    ``Class.method``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)) and not method.name.startswith("_"):
                    yield f"{node.name}.{method.name}", method


def _reads(tree, quoted=False):
    """The names a tree reads; with ``quoted``, also each string constant
    that spells an identifier, the way a tracer names the binding it
    patches."""
    yield from _references(tree)
    if quoted:
        for n in ast.walk(tree):
            if isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
                yield n.value


def _uncalled(trees, reads):
    """Public definitions of ``trees`` that ``reads`` (a Counter of names
    read) holds no more often than their own definition reads them, as
    ``module.name`` or ``module.Class.method``."""
    return sorted(
        f"{module}.{qualified}"
        for module, tree in trees.items()
        for qualified, node in _public_definitions(tree)
        if reads[node.name] == Counter(_references(node))[node.name]
    )


def test_every_public_name_has_a_caller():
    """Each public function, class and class-body method of the library is
    read outside its own definition in ``src/``, ``bench/`` or ``demos/``,
    or in ``tests/test_acceptance.py``, where the acceptance criteria state
    the paper's claims; a unit test alone keeps no name public.  A quoted
    name in ``bench/`` counts too, since the tracer patches bindings by
    name.  The check goes by name, not by binding: a name shared with
    another attribute (``contains``, say) counts as read for all of them."""
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    readers = [(p, False) for p in SOURCES + sorted((ROOT / "demos").glob("*.py"))]
    readers += [(ROOT / "tests" / "test_acceptance.py", False)]
    readers += [(p, True) for p in sorted((ROOT / "bench").rglob("*.py"))]
    reads = Counter(n for p, quoted in readers for n in _reads(ast.parse(p.read_text(), filename=str(p)), quoted))
    assert _uncalled(trees, reads) == []


def test_a_public_name_with_no_caller_is_reported():
    source = (
        "def used(n):\n    return used(n - 1) if n else 0\n\n"
        "def orphan(n):\n    return orphan(n - 1) if n else 0\n\n"
        "def patched():\n    return 0\n\n"
        "def _private():\n    return 0\n\n"
        "class Shape:\n    def area(self):\n        return self.sides()\n\n"
        "    def sides(self):\n        return 0\n\n"
        "    def alone(self):\n        return self.alone\n\n"
        "class Unused:\n    pass\n"
    )
    caller = "used(Shape().area()) or 'orphan'\n"
    bench = "PATCHED = (m, 'patched')\n"
    module = ast.parse(source)
    reads = Counter([*_reads(module), *_reads(ast.parse(caller)), *_reads(ast.parse(bench), quoted=True)])
    assert _uncalled({"m": module}, reads) == ["m.Shape.alone", "m.Unused", "m.orphan"]


def test_readme_lists_the_public_names():
    section = (ROOT / "README.md").read_text().split("## Public names\n")[1].split("\n## ")[0]
    listed = section.split("\n* ", 1)[1]  # the bullets, one per module
    exported = {n for n, v in vars(adelic).items() if not n.startswith("_") and not inspect.ismodule(v)}
    assert set(re.findall(r"`(\w+)`", listed)) == exported
