"""Closed-loop timing with a per-op deadline.

One caller on one thread sends the next op only after the previous one
returns.  Each op runs under ``signal.setitimer`` on this process: an op
still running at its deadline is interrupted by ``DeadlineExceeded`` and
counts as failed.  Outcomes are kept and checked after the timed phase.
"""

from __future__ import annotations

import gc
import math
import signal
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import checker

#: Tail percentiles considered, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 50.0)


class DeadlineExceeded(BaseException):
    """Raised inside a running op when its deadline passes.

    A BaseException, so no ``except Exception`` in the library can
    swallow it.
    """


def _alarm(signum, frame):
    raise DeadlineExceeded


@dataclass
class Sample:
    op: int  # index into the op list
    seconds: float
    outcome: object  # return value, raised exception or DeadlineExceeded


@dataclass
class Phase:
    samples: List[Sample]
    wall: float

    def extend(self, part: "Phase") -> None:
        """Append a later part of the same phase."""
        self.samples += part.samples
        self.wall += part.wall


def timed_phase(
    ops: Sequence,
    seconds: float,
    deadline: float,
    on_op: Optional[Callable] = None,
    count: Optional[int] = None,
    start: int = 0,
) -> Phase:
    """Cycle through ops, from the ``start``-th on, until ``seconds`` have
    passed or, given ``count``, until that many ops have run, whichever
    comes first.  At least one op runs.

    As in ``timeit``, the cyclic garbage collector is paused while timing,
    so collections triggered by the growing sample list do not land on
    whichever op happens to run.
    """
    previous = signal.signal(signal.SIGALRM, _alarm)
    samples: List[Sample] = []
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        begin = time.perf_counter()
        end = begin + seconds
        i = start
        while True:
            op = ops[i % len(ops)]
            if on_op is not None:
                on_op(op)
            t0 = time.perf_counter()
            try:
                signal.setitimer(signal.ITIMER_REAL, deadline)
                try:
                    outcome = op.run()
                except Exception as exc:  # the checker decides whether it was expected
                    exc.__traceback__ = None
                    outcome = exc
                finally:
                    t1 = time.perf_counter()
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except DeadlineExceeded as exc:
                t1 = time.perf_counter()
                exc.__traceback__ = None
                outcome = exc
            samples.append(Sample(i % len(ops), t1 - t0, outcome))
            i += 1
            if t1 >= end or (count is not None and i - start >= count):
                return Phase(samples, t1 - begin)
    finally:
        if gc_was_enabled:
            gc.enable()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def problems(ops: Sequence, phase: Phase) -> List[Optional[str]]:
    """Per sample: None if correct, else why it failed.  An outcome equal
    to one already verified for the same op is not checked again."""
    out = []
    verified = {}
    for s in phase.samples:
        if isinstance(s.outcome, DeadlineExceeded):
            out.append("deadline exceeded")
        elif s.op in verified and verified[s.op] == s.outcome:
            out.append(None)
        else:
            op = ops[s.op]
            why = checker.problem(op.expect, op.args, s.outcome)
            if why is None:
                verified[s.op] = s.outcome
            out.append(why)
    return out


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(distinct: int) -> float:
    """The highest ladder percentile with at least ten instances beyond it."""
    for q in TAIL_LADDER:
        if round(distinct * (100 - q) / 100, 6) >= 10:
            return q
    return TAIL_LADDER[-1]


def summarize(ops: Sequence, phase: Phase, deadline: float):
    """End-to-end numbers of one timed phase.

    Every instance runs many times per phase, spread over the whole phase.
    The machine's speed drifts by a fifth or more within seconds, so each
    instance is represented by its fastest call, and the metrics are taken
    over instances: ``op_p50_ms`` and ``op_tail_ms`` are percentiles of the
    per-instance times, and ``ops_per_s`` is the number of correct
    instances over the sum of their times.  A failed op counts at the
    deadline (or its measured time, if longer), and an instance that fails
    once counts as failed, so a failure never improves a number.  The
    wall-clock rate and the per-call median are reported alongside.
    """
    why = problems(ops, phase)
    best: Dict[int, float] = {}
    failed_instances = set()
    for s, w in zip(phase.samples, why):
        seconds = s.seconds
        if w is not None:
            failed_instances.add(s.op)
            seconds = max(seconds, deadline)
        best[s.op] = min(best.get(s.op, math.inf), seconds)
    for i in failed_instances:
        best[i] = max(best[i], deadline)
    times = list(best.values())
    failed = sum(w is not None for w in why)
    attempted = len(phase.samples)
    q = tail_percentile(len(times))
    return {
        "attempted": attempted,
        "failed": failed,
        "instances": len(times),
        "ops_per_s": (len(times) - len(failed_instances)) / sum(times),
        "op_p50_ms": statistics.median(times) * 1000,
        "op_tail_ms": percentile(times, q) * 1000,
        "tail_percentile": q,
        "wall_ops_per_s": (attempted - failed) / phase.wall,
        "call_p50_ms": statistics.median(s.seconds for s in phase.samples) * 1000,
        "wall_s": phase.wall,
        "problems": [(ops[s.op].label, w) for s, w in zip(phase.samples, why) if w is not None],
    }
