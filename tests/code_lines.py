"""Print the code lines of the library of one or more checkouts.

    python tests/code_lines.py [ROOT ...]

ROOT is a checkout of this repository (default: the one holding this
script).  A code line of ``ROOT/src/adelic/*.py`` is a non-blank line that
is neither a ``#`` comment nor part of a module, class or function
docstring.  Comments and docstrings explain the code without being any of
it, so deleting them shrinks nothing; this count is the size a change to
the library should report.  The script prints one line per root: the count
followed by the root.
"""

import ast
import pathlib
import sys


def _docstring_lines(tree):
    """The line numbers that module, class and function docstrings span."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                yield from range(first.lineno, first.end_lineno + 1)


def code_lines(path: pathlib.Path) -> int:
    text = path.read_text()
    docstrings = set(_docstring_lines(ast.parse(text, filename=str(path))))
    return sum(
        1
        for number, line in enumerate(text.splitlines(), start=1)
        if line.strip() and not line.lstrip().startswith("#") and number not in docstrings
    )


if __name__ == "__main__":
    roots = [pathlib.Path(r).resolve() for r in sys.argv[1:]] or [pathlib.Path(__file__).resolve().parents[1]]
    for root in roots:
        print(sum(code_lines(p) for p in sorted((root / "src" / "adelic").glob("*.py"))), root)
