"""Benchmark entry point for the adelic library.

    python3 bench/run.py --workload library --seed 1 --seconds 25 --trace 0

Run from the repository root.  Set-up imports ``adelic`` from ``src/``
and builds the workload's ops from the seed; the timed phase cycles
through them in a closed loop with one caller for ``--seconds``; then
every outcome is checked (``checker.py``).  ``setup_s`` is the fastest
import plus the fastest build among set-ups repeated over the run: the
import only in fresh processes, the build also in this one.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics.  With ``--trace 1`` two passes over the ops run
traced, in chunks that each follow the same chunk untraced, a fixed
sample of CLI requests runs as fresh processes, and the JSON carries the
per-layer metrics plus the tracing overhead.  The exit code is 1 when
any output check fails.
"""

import time

_T0 = time.perf_counter()  # set-up time counts from here

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_PROBES = 12  # untraced runs: fresh-process set-ups, spread over the timed phase
SPAWN_REQUESTS = 8  # traced runs: each runs as a fresh process in three rounds
TRACE_CHUNKS = 8  # traced runs: the two traced passes, in alternation with untraced ones
WORKLOADS = ("library", "deep", "cli", "crosscheck")


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed phase (run_seconds in BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help="set up, print the set-up time and exit")
    return p.parse_args(argv)


def _import_library():
    """Import adelic from this checkout's src/, refusing any other copy."""
    if not (SRC / "adelic" / "__init__.py").is_file():
        sys.exit(f"error: {SRC}/adelic not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import adelic

    if pathlib.Path(adelic.__file__).resolve().parent != SRC / "adelic":
        sys.exit(f"error: imported adelic from {adelic.__file__}, not {SRC}")


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _setup_probe(workload: str, seed: int):
    """Import and build times of a set-up in a fresh process."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", "0", "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    import_s, build_s = done.stdout.split()[-2:]
    return float(import_s), float(build_s)


def _build_s(instances, workload: str, seed: int) -> float:
    t0 = time.perf_counter()
    instances.build(workload, seed)
    return time.perf_counter() - t0


def _spawn_ms(argv, env):
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, *argv], capture_output=True, text=True, timeout=60, env=env)
    return (time.perf_counter() - t0) * 1000, done


def _spawns(requests):
    """Fresh ``python -m adelic.cli`` calls, one at a time, each checked,
    and as many bare interpreter starts."""
    import checker

    env = _child_env()
    times, problems = [], []
    for argv, expect in requests:
        ms, done = _spawn_ms(["-m", "adelic.cli", *argv], env)
        times.append(ms)
        why = checker.problem(expect, (), (done.returncode, done.stdout))
        if why:
            problems.append((f"spawn.{argv[0]}", why))
    bare_times = [_spawn_ms(["-c", "pass"], env)[0] for _ in requests]
    return times, bare_times, problems


def _best_of_rounds(rounds):
    """Median over slots of the fastest of a slot's calls.  The rounds are
    seconds apart, so one slow stretch of the machine does not set the
    figure."""
    return statistics.median(min(calls) for calls in zip(*rounds))


def _repros(deadline: float):
    """Run the pinned ROADMAP repros under the deadline; outside all timing."""
    import harness
    import instances

    ops = instances.repros()
    outcome = []
    for op in ops:
        phase = harness.timed_phase([op], 0.0, deadline)
        why = harness.problems([op], phase)[0]
        outcome.append((op.label, why, phase.samples[0].seconds))
    return outcome


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_library()
    import harness
    import instances

    import_s = time.perf_counter() - _T0
    ops = instances.build(args.workload, args.seed)
    build_s = time.perf_counter() - _T0 - import_s
    if args.setup_probe:
        print(f"{import_s:.9f} {build_s:.9f}")
        return 0
    # fresh CLI calls feed the per-layer cli.spawn.* rows, so only traced runs make them
    requests = instances.spawn_requests(args.seed, SPAWN_REQUESTS) if args.trace else []
    spawn_rounds, bare_rounds, spawn_problems = [], [], []

    def spawn_round():
        times, bare, problems = _spawns(requests)
        spawn_rounds.append(times)
        bare_rounds.append(bare)
        spawn_problems.extend(problems)

    imports, builds = [import_s], [build_s]
    deadline = instances.DEADLINE_S[args.workload]

    tracer = None
    if args.trace:
        import tracing

        # The traced ops are two full passes over the ops, so per-layer
        # totals describe a fixed amount of work.  They run in chunks, each
        # right after the same chunk untraced, so that the overhead compares
        # like with like at nearly the same moment.
        tracer = tracing.Tracer()
        bounds = [round(k * 2 * len(ops) / TRACE_CHUNKS) for k in range(TRACE_CHUNKS + 1)]
        cap = args.seconds / (2 * TRACE_CHUNKS)
        plain_phase, traced_phase = harness.Phase([], 0.0), harness.Phase([], 0.0)
        spawn_round()
        for k in range(TRACE_CHUNKS):
            chunk = dict(start=bounds[k], count=bounds[k + 1] - bounds[k])
            plain_phase.extend(harness.timed_phase(ops, cap, deadline, **chunk))
            with tracer:
                traced_phase.extend(harness.timed_phase(ops, cap, deadline, on_op=tracer.begin_op, **chunk))
            if k == TRACE_CHUNKS // 2 - 1:
                spawn_round()
        spawn_round()
        plain, traced = harness.summarize(ops, plain_phase, deadline), harness.summarize(ops, traced_phase, deadline)
        runs = [plain, traced]
    else:
        # Set-up probes run before, between and after segments of the timed
        # phase, so that they sample the whole run.
        phase = harness.Phase([], 0.0)
        for k in range(SETUP_PROBES):
            probe_import_s, probe_build_s = _setup_probe(args.workload, args.seed)
            imports.append(probe_import_s)
            builds += [probe_build_s, _build_s(instances, args.workload, args.seed)]
            if k < SETUP_PROBES - 1:
                phase.extend(harness.timed_phase(ops, args.seconds / (SETUP_PROBES - 1), deadline, start=len(phase.samples)))
        plain = harness.summarize(ops, phase, deadline)
        runs = [plain]

    spawn_count = sum(map(len, spawn_rounds))
    repro = _repros(instances.DEADLINE_S["deep"]) if args.trace or args.workload == "deep" else []

    attempted = sum(r["attempted"] for r in runs) + spawn_count
    failed = sum(r["failed"] for r in runs) + len(spawn_problems)
    problems = [p for r in runs for p in r["problems"]] + spawn_problems
    end_to_end = {
        "setup_s": (min(imports) + min(builds), "s"),
        "ops_per_s": (plain["ops_per_s"], "1/s"),
        "op_p50_ms": (plain["op_p50_ms"], "ms"),
        "op_tail_ms": (plain["op_tail_ms"], "ms"),
    }
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "deadline_s": deadline,
        "instances": len(ops),
        "import_samples": len(imports),
        "build_samples": len(builds),
        "spawn_samples": spawn_count,
    }
    print(f"bench {json.dumps(env)}")
    print(f"  {'setup_s':14s} {end_to_end['setup_s'][0]:12.6f} s    fastest import of {len(imports)} ({min(imports):.6f} s) + fastest build of {len(builds)} ({min(builds):.6f} s)")
    n = f"{plain['instances']} instances, fastest of their {plain['attempted']} calls"
    print(f"  {'ops_per_s':14s} {plain['ops_per_s']:12.3f} 1/s  {n}; wall clock {plain['wall_ops_per_s']:.3f} 1/s over {plain['wall_s']:.3f} s")
    print(f"  {'op_p50_ms':14s} {plain['op_p50_ms']:12.6f} ms   {n}; per call {plain['call_p50_ms']:.6f} ms")
    print(f"  {'op_tail_ms':14s} {plain['op_tail_ms']:12.6f} ms   p{plain['tail_percentile']:g} of {n}")
    print(f"  {'fail_ratio':14s} {plain['failed'] / plain['attempted']:12.6f}      {plain['failed']}/{plain['attempted']} calls failed")
    for label, why, seconds in repro:
        print(f"  repro {label}: {'ok' if why is None else 'FAILED (' + why + ')'} after {seconds * 1000:.1f} ms")
    for label, why in problems[:20]:
        print(f"  FAILED {label}: {why}", file=sys.stderr)

    if args.trace:
        metrics = tracer.layer_metrics()
        spawn_ms, bare_ms = _best_of_rounds(spawn_rounds), _best_of_rounds(bare_rounds)
        metrics.update({
            "cli.spawn.p50_ms": spawn_ms,
            "cli.spawn.bare_p50_ms": bare_ms,
            "cli.spawn.overhead_ms": spawn_ms - bare_ms,
            "repro.failed": sum(why is not None for _, why, _ in repro),
            "trace.ops": traced["attempted"],
            "trace.overhead_ops_per_s": plain["wall_ops_per_s"] - traced["wall_ops_per_s"],
            "trace.overhead_share": 1 - traced["wall_ops_per_s"] / plain["wall_ops_per_s"],
        })
        units = _layer_units()
        reported = {name: {"value": metrics[name], "unit": units[name]} for name in units}
        for name in sorted(reported):
            print(f"  {name:48s} {reported[name]['value']:14.4f} {reported[name]['unit']}")
    else:
        reported = {name: {"value": value, "unit": unit} for name, (value, unit) in end_to_end.items()}

    OUT.mkdir(exist_ok=True)
    if tracer is not None:
        tracer.write(OUT / f"spans-{args.workload}.csv")
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": reported}
    with open(OUT / f"result-{args.workload}{'-trace' if args.trace else ''}.json", "w") as f:
        json.dump({"environment": env, "problems": problems[:100], "repro": repro, **result}, f, indent=1, default=str)
    print(json.dumps(result))
    return 0 if not problems else 1


def _layer_units():
    with open(ROOT / "BENCHMARK.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
