"""Print each public function or method of the library that no run calls.

    python tests/public_callers.py [ROOT]

ROOT is a checkout of this repository (default: the one holding this
script).  With ROOT's ``src`` and ``bench`` first on the import path, the
script runs, under ``sys.setprofile``: the four demos, every op of seeds
1-3 of each benchmark workload plus ``instances.repros()``, building them
included, ``adele --help`` in process, and ``tests/test_acceptance.py``.
Every benchmark request is well formed, so the help is the one request
that reaches the CLI's argparse parser.  It then prints, one per line
as ``module.name`` or ``module.Class.method``, each public module-level
function and public class-body method of ``ROOT/src/adelic`` whose code
never ran; nothing when every one did.  A test under ``tests/`` other than
the acceptance suite keeps no name public, and ``bench/`` is only read.

This complements ``tests/test_imports.py``, whose guard reads syntax and
so counts a method as called when any attribute of its name is read.  It
is not part of the test suite: a run takes ~13 s (2-core VM, Python 3.11).
"""

import ast
import contextlib
import io
import pathlib
import runpy
import sys
import threading

WORKLOADS = ("library", "deep", "cli", "crosscheck")
SEEDS = range(1, 4)


def public_functions(package: pathlib.Path):
    """(file, first line) -> qualified name for each public module-level
    function and class-body method; the first line is a code object's
    ``co_firstlineno``, the first decorator's when there is one."""
    found = {}
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        scopes = [(tree.body, "")] + [(c.body, c.name + ".") for c in tree.body if isinstance(c, ast.ClassDef)]
        for body, prefix in scopes:
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
                    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                    found[str(path), first] = f"{path.stem}.{prefix}{node.name}"
    return found


def run_everything(root: pathlib.Path) -> None:
    """The demos, the bench ops, the CLI's help and the acceptance suite,
    output discarded."""
    import instances
    import pytest
    from adelic import cli

    with contextlib.redirect_stdout(io.StringIO()):
        for demo in sorted((root / "demos").glob("*.py")):
            runpy.run_path(str(demo), run_name="__main__")
        ops = [op for workload in WORKLOADS for seed in SEEDS for op in instances.build(workload, seed)]
        for op in ops + instances.repros():
            try:
                op.run()
            except Exception:  # a raised error is an answer like any other
                pass
        cli.main(["--help"])
        pytest.main(["-q", "-p", "no:cacheprovider", str(root / "tests" / "test_acceptance.py")])


def uncalled(root: pathlib.Path):
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    functions = public_functions(root / "src" / "adelic")
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        run_everything(root)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    return sorted(name for key, name in functions.items() if key not in called)


if __name__ == "__main__":
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else pathlib.Path(__file__).resolve().parents[1]).resolve()
    for name in uncalled(root):
        print(name)
