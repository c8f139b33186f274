"""Every name a library module imports is used in that module, every
private module-level name or method is referenced somewhere in the library,
and every public function, class, constant, type alias or method has a
caller outside the tests.

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


def _definitions(body):
    """(name, node) for each function, class or assigned name that a list of
    statements defines."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    yield target.id, node


def _private_definitions(tree):
    """(name, node) for each module-level name, and each method defined in a
    class body, with one leading underscore."""
    methods = [n for c in tree.body if isinstance(c, ast.ClassDef) for n in c.body]
    for name, node in _definitions(tree.body + methods):
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
    """(qualified name, node) for each public module-level function, class,
    constant or type alias, and each public method defined in a class body,
    as ``name`` or ``Class.method``."""
    for name, node in _definitions(tree.body):
        if not name.startswith("_"):
            yield name, node
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)) and not method.name.startswith("_"):
                    yield f"{node.name}.{method.name}", method


PACKAGE = "adelic"
QUOTED = "quoted"  # the binding of a string constant in bench/


def _import_bindings(tree):
    """What each local name a tree imports from the library is bound to:
    ``modules`` maps a name to the dotted module it names (``adelic`` for
    the package), ``names`` to the (module, name) it was imported as.  A
    relative import resolves against the package.  ``from adelic import x``
    enters ``x`` in both, since only its use tells a module from a name."""
    modules, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # "import adelic.padic" binds adelic; "import adelic.padic as p" binds p
                if alias.name.split(".")[0] == PACKAGE:
                    modules[alias.asname or PACKAGE] = alias.name if alias.asname else PACKAGE
        elif isinstance(node, ast.ImportFrom):
            source = ".".join(filter(None, [PACKAGE, node.module])) if node.level else node.module
            if source.split(".")[0] == PACKAGE:
                for alias in node.names:
                    modules[alias.asname or alias.name] = f"{source}.{alias.name}"
                    names[alias.asname or alias.name] = (source, alias.name)
    return modules, names


def _module_of(expr, modules):
    """The dotted library module an expression names, or None."""
    if isinstance(expr, ast.Name):
        return modules.get(expr.id)
    if isinstance(expr, ast.Attribute):
        outer = _module_of(expr.value, modules)
        return outer and f"{outer}.{expr.attr}"
    return None


def _reads(tree, module=None, quoted=False):
    """Each read under a tree as (binding, name).  A bare name imported
    from the library is bound to the module it came from, any other to
    ``module``, the tree's own dotted module, if any; ``X.name`` is bound
    to the module ``X`` names, if any.  With ``quoted``, each string
    constant that spells an identifier is bound to QUOTED, the way a
    tracer names the binding it patches."""
    modules, names = _import_bindings(tree)
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield names.get(n.id, (module, n.id))
        elif isinstance(n, ast.Attribute):
            yield _module_of(n.value, modules), n.attr
        elif quoted and isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            yield QUOTED, n.value


def _read_count(pairs, module, qualified, name):
    """How many of ``pairs``, a Counter of (binding, name), read a public
    definition of ``module``: a module-level function or class counts the
    reads bound to its module, to the package or to QUOTED; a method,
    qualified as ``Class.method``, every read of its name."""
    if "." in qualified:
        return sum(count for (_, read), count in pairs.items() if read == name)
    return sum(pairs[binding, name] for binding in (module, PACKAGE, QUOTED))


def _uncalled(trees, reads):
    """Public definitions of ``trees`` (module stem -> tree) that ``reads``
    holds no more often than their own definition reads them, as
    ``module.name`` or ``module.Class.method``."""
    found = []
    for stem, tree in trees.items():
        module = f"{PACKAGE}.{stem}"
        for qualified, node in _public_definitions(tree):
            name = qualified.rpartition(".")[2]
            own = Counter(_reads(node, module))
            if _read_count(reads, module, qualified, name) == _read_count(own, module, qualified, name):
                found.append(f"{stem}.{qualified}")
    return sorted(found)


def _all_reads():
    """The reads of ``src/``, ``demos/``, ``tests/test_acceptance.py`` and,
    quoted names included, ``bench/``."""
    readers = [(p, f"{PACKAGE}.{p.stem}" if p.stem != "__init__" else PACKAGE, False) for p in SOURCES]
    readers += [(p, None, False) for p in sorted((ROOT / "demos").glob("*.py"))]
    readers += [(ROOT / "tests" / "test_acceptance.py", None, False)]
    readers += [(p, None, True) for p in sorted((ROOT / "bench").rglob("*.py"))]
    return Counter(pair for p, module, quoted in readers
                   for pair in _reads(ast.parse(p.read_text(), filename=str(p)), module, quoted))


def test_every_public_name_has_a_caller():
    """Each public function, class, constant, type alias and class-body
    method of the library is read outside its own definition in ``src/``,
    ``bench/`` or ``demos/``, or in ``tests/test_acceptance.py``, where the
    acceptance criteria state the paper's claims; a unit test alone keeps
    no name public.

    A module-level name goes by binding: a read counts when it is a bare
    name in its own module, a bare name in a file that imports it from
    ``adelic``, ``adelic.<module>`` or ``.<module>``, ``X.name`` with ``X``
    bound to its module or to the package, or a quoted name in ``bench/``,
    since the tracer patches bindings by name.  A method goes by name: a
    method that shares its name with another attribute (``contains``, say)
    counts as read for all of them; ``tests/public_callers.py`` finds those
    that no run calls."""
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    assert _uncalled(trees, _all_reads()) == []


def test_a_public_name_with_no_caller_is_reported():
    source = (
        "def used(n):\n    return used(n - 1) if n else 0\n\n"
        "def orphan(n):\n    return orphan(n - 1) if n else 0\n\n"
        "def patched():\n    return 0\n\n"
        "def _private():\n    return 0\n\n"
        "def component():\n    return 0\n\n"
        "def through_module():\n    return 0\n\n"
        "def through_package():\n    return 0\n\n"
        "def in_module():\n    return 0\n\nVALUE = in_module()\n\n"
        "LIMIT = 3\nORPHAN = LIMIT\nTYPED: int = 2\nAlias = Union[int, str]\n\n"
        "class Shape:\n    def area(self):\n        return self.sides()\n\n"
        "    def sides(self):\n        return 0\n\n"
        "    def alone(self):\n        return self.alone\n\n"
        "    def component(self):\n        return 0\n\n"
        "class Unused:\n    pass\n"
    )
    # a method of the same name is read, an unbound name and an attribute
    # of no library module spell the function's or constant's name: none
    # reads it
    caller = (
        "import adelic\nfrom adelic import m as mod\nfrom adelic.m import used, Shape, Alias\n"
        "used(Shape().area()) or 'orphan' or Shape().component() or component or orphan.component\n"
        "mod.through_module() or adelic.through_package() or mod.VALUE or Alias or Shape().ORPHAN\n"
    )
    bench = "PATCHED = (m, 'patched')\n"
    module = ast.parse(source)
    reads = Counter([*_reads(module, "adelic.m"), *_reads(ast.parse(caller)), *_reads(ast.parse(bench), quoted=True)])
    assert _uncalled({"m": module}, reads) == [
        "m.ORPHAN", "m.Shape.alone", "m.TYPED", "m.Unused", "m.component", "m.orphan"]


def test_readme_lists_the_public_names():
    section = (ROOT / "README.md").read_text().split("## Public names\n")[1].split("\n## ")[0]
    listed = section.split("\n* ", 1)[1]  # the bullets, one per module
    exported = {n for n, v in vars(adelic).items() if not n.startswith("_") and not inspect.ismodule(v)}
    assert set(re.findall(r"`(\w+)`", listed)) == exported
