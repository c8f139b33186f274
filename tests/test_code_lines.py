"""The code-line count of tests/code_lines.py, by which a change to the
library reports its size."""

import pathlib
import subprocess
import sys

from code_lines import code_lines

SCRIPT = pathlib.Path(__file__).with_name("code_lines.py")

# 6 code lines (import, class, sides, def, the stray string, return) among
# docstrings of every kind, comments and blank lines
MODULE = '''"""A module docstring,
over two lines."""

# a comment
import math  # a trailing comment keeps its line a code line


class Shape:
    """A class docstring."""

    sides = 4

    def area(self):
        """A function docstring,
        over two lines."""
        # an indented comment
        "a string expression that is not the first statement"
        return math.pi
'''


def write_library(root: pathlib.Path) -> pathlib.Path:
    package = root / "src" / "adelic"
    package.mkdir(parents=True)
    (package / "shape.py").write_text(MODULE)
    return package / "shape.py"


def test_counts_only_the_code_lines(tmp_path):
    assert code_lines(write_library(tmp_path)) == 6


def test_the_script_prints_one_line_per_root(tmp_path):
    write_library(tmp_path)
    (tmp_path / "src" / "adelic" / "empty.py").write_text('"""Only a docstring."""\n\n# and a comment\n')
    out = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path)], capture_output=True, text=True, check=True).stdout
    assert out == f"6 {tmp_path.resolve()}\n"
