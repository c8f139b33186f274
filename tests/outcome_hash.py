"""Print one hash over the outcomes of every benchmark op of a checkout.

    python tests/outcome_hash.py [ROOT ...]

ROOT is a checkout of this repository (default: the one holding this
script).  For each workload in the order library, deep, cli, crosscheck
and each seed 1-5, every op of ``bench/instances.build(workload, seed)``
runs once, in order, with ROOT's ``src`` and ``bench`` first on the import
path.  Its outcome is ``repr(op.run())``, or ``repr(("raised", name,
message))`` when it raises; each outcome goes to SHA-256 followed by a NUL
byte.  The script prints the number of outcomes and the hex digest, so two
checkouts that give every answer byte for byte alike print the same line.

Given two or more roots, the script runs itself on each in a fresh
interpreter, since one process would reuse the first root's ``adelic``
for all of them.  It prints one line per root, the count and digest
followed by the root, and exits 1 unless every count and digest agree.
"""

import hashlib
import pathlib
import subprocess
import sys

WORKLOADS = ("library", "deep", "cli", "crosscheck")
SEEDS = range(1, 6)


def outcome_hash(root: pathlib.Path):
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import instances

    digest, count = hashlib.sha256(), 0
    for workload in WORKLOADS:
        for seed in SEEDS:
            for op in instances.build(workload, seed):
                try:
                    outcome = repr(op.run())
                except Exception as exc:  # a raised error is an outcome like any other
                    outcome = repr(("raised", type(exc).__name__, str(exc)))
                digest.update(outcome.encode() + b"\0")
                count += 1
    return count, digest.hexdigest()


def compare(roots) -> bool:
    """Print each root's line, computed in its own interpreter; whether all agree."""
    lines = []
    for root in roots:
        child = subprocess.run([sys.executable, __file__, str(root)], capture_output=True, text=True, check=True)
        lines.append(child.stdout.strip())
        print(lines[-1], root, flush=True)
    return len(set(lines)) == 1


if __name__ == "__main__":
    roots = [pathlib.Path(r).resolve() for r in sys.argv[1:]] or [pathlib.Path(__file__).resolve().parents[1]]
    if len(roots) == 1:
        print(*outcome_hash(roots[0]))
    else:
        sys.exit(0 if compare(roots) else 1)
