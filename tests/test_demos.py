"""Golden demo transcripts: each script in ``demos/`` prints exactly the
text stored under ``tests/demo_outputs/`` with the same name.

To accept a deliberate change of output, rerun the demo and overwrite its
file, e.g. ``PYTHONPATH=src python demos/adele_basics.py >
tests/demo_outputs/adele_basics.txt``.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import adelic

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
EXPECTED = Path(__file__).resolve().parent / "demo_outputs"


def test_every_demo_has_a_transcript():
    assert [d.stem for d in DEMOS] == sorted(f.stem for f in EXPECTED.glob("*.txt"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_output(demo):
    # the child imports the same adelic as this process, installed or not
    src = os.path.dirname(os.path.dirname(adelic.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (EXPECTED / f"{demo.stem}.txt").read_text()
