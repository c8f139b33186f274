"""Every name a library module imports is used in that module.

No linter ships with the project, so this walks each module's syntax tree
with the standard library.  ``__init__.py`` is exempt: it imports names to
re-export them.
"""

import ast
from pathlib import Path

import pytest

import adelic

MODULES = sorted(p for p in Path(adelic.__file__).parent.glob("*.py") if p.name != "__init__.py")


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
