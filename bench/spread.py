"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload deep --seeds 1-10

Each run measures for ``run_seconds`` from BENCHMARK.json.  For every
end-to-end metric it prints the median over the seeds and the distance
between the first and third quartiles (``statistics.quantiles`` with n=4)
as a share of that median, next to the metric's bound in BENCHMARK.json.
Runs are sequential, one process at a time.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if done.returncode or not result["correct"]:
            print(f"seed {seed}: exit {done.returncode}, correct={result['correct']}", file=sys.stderr)
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={v[-1]:.5g}" for n, v in values.items()), flush=True)
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        print(f"{m['name']:14s} median {med:12.5g} {m['unit']:4s} spread {(q3 - q1) / med:6.3f}  bound {m['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
