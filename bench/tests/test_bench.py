"""Tests of the benchmark itself.

    python3 -m pytest bench/tests -q
"""

import pathlib
import sys
from fractions import Fraction

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from adelic import adele  # noqa: E402
from adelic.adele import FullAdele  # noqa: E402

import checker  # noqa: E402
import harness  # noqa: E402
import instances  # noqa: E402
import tracing  # noqa: E402


def _fingerprint(ops):
    return [(op.label, repr(op.args), repr(op.expect)) for op in ops]


@pytest.mark.parametrize("workload", sorted(instances.BUILDERS))
def test_same_seed_same_instances(workload):
    first = _fingerprint(instances.build(workload, 7))
    assert first == _fingerprint(instances.build(workload, 7))
    assert first != _fingerprint(instances.build(workload, 8))


def _witness_ops():
    for workload in ("library", "deep"):
        for op in instances.build(workload, 3):
            if isinstance(op.expect, checker.Witness):
                yield op


def _perturbed(r, a, nbhd):
    """r moved just outside the neighbourhood: out of the real interval,
    to distance exactly p^(e-1) from a ball centre, or off integrality at
    a prime the adele's rational default governs."""
    if isinstance(a, FullAdele):
        lo, hi = nbhd.real_interval
        return r + 2 * (hi - lo) / abs(a.real_part)
    for p, ball in nbhd.balls.items():
        a_p = checker.component(a, int(p))
        if a_p != 0:
            return r + Fraction(int(p)) ** (ball.radius_exponent - 1 - checker.valuation(a_p, int(p)))
    assert a.default.kind == "rational"
    return r + Fraction(1, 1009**2)


def test_checker_accepts_planted_and_rejects_perturbed_witness():
    checked = 0
    for op in _witness_ops():
        r0 = op.expect.planted
        assert checker.witness_problem(r0, *op.args) is None, op.label
        assert checker.witness_problem(_perturbed(r0, *op.args), *op.args) is not None, op.label
        checked += 1
    assert checked > 300


def test_checker_never_calls_scale_or_contains(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the checker must not call the library's verification")

    monkeypatch.setattr(adele, "scale", forbidden)
    monkeypatch.setattr(adele.Neighbourhood, "contains", forbidden)
    for op in _witness_ops():
        checker.witness_problem(op.expect.planted, *op.args)


def test_construction_output_passes_the_checker():
    ops = instances.build("library", 5)[:200]
    phase = harness.timed_phase(ops, 60.0, 5.0, count=len(ops))
    assert harness.problems(ops, phase) == [None] * len(ops)


def _snapshot():
    state = {}
    for name, module in sys.modules.items():
        if name == "adelic" or name.startswith("adelic."):
            state.update({(name, attr): value for attr, value in vars(module).items()})
    for cls, attr, _ in tracing.SPANNED_METHODS:
        state[(cls.__name__, attr)] = cls.__dict__[attr]
    return state


def test_tracer_restores_every_binding():
    before = _snapshot()
    ops = instances.build("crosscheck", 1)[:5] + instances.build("cli", 1)[:5]
    with tracing.Tracer() as tracer:
        during = _snapshot()
        patched = {key for key in before if during[key] is not before[key]}
        assert {("adelic.quasiorbit", "scale"), ("adelic.oracle", "scale"), ("adelic", "scale")} <= patched
        assert ("FiniteAdele", "__post_init__") in patched
        harness.timed_phase(ops, 60.0, 5.0, on_op=tracer.begin_op, count=len(ops))
    after = _snapshot()
    assert all(after[key] is before[key] for key in before)
    assert tracer.spans and all(span is not None for span in tracer.spans)
    metrics = tracer.layer_metrics()
    assert metrics["oracle.witness_by_search.calls"] > 0 and metrics["cli.main.p50_us"] > 0


def test_tracer_survives_a_deadline_overrun():
    slow = instances.repros()[0]
    ops = [slow] + instances.build("library", 1)[:20]
    with tracing.Tracer() as tracer:
        phase = harness.timed_phase(ops, 60.0, 0.05, on_op=tracer.begin_op, count=len(ops))
        # as if a deadline had cut a wrapper off between opening its span and writing it
        tracer._stack.append(next(tracer._ids))
        after = harness.timed_phase(ops[1:], 60.0, 5.0, on_op=tracer.begin_op, count=1)
    assert isinstance(phase.samples[0].outcome, harness.DeadlineExceeded)
    assert harness.problems(ops, phase)[1:] == [None] * (len(ops) - 1)
    assert harness.problems(ops[1:], after) == [None]
    written = {span[0] for span in tracer.spans}
    last_op = len(tracer.op_cases) - 1
    assert all(parent in written for _, _, _, _, parent, op in tracer.spans if op == last_op and parent is not None)
    assert tracer.layer_metrics()["quasiorbit.approx_witness.total_ms"] > 0


def test_deadline_overrun_counts_as_failure():
    slow = instances.repros()[0]  # verification factors a huge numerator
    phase = harness.timed_phase([slow], 0.0, 0.05)
    summary = harness.summarize([slow], phase, 0.05)
    assert isinstance(phase.samples[0].outcome, harness.DeadlineExceeded)
    assert summary["failed"] == 1 and summary["ops_per_s"] == 0
    assert summary["op_p50_ms"] >= 50


class _Raising:
    label, args, expect, case = "raising", (), checker.Equals(1), ""

    def run(self):
        raise ValueError("unexpected")


def test_fast_failure_counts_at_the_deadline():
    ops = [_Raising()]
    summary = harness.summarize(ops, harness.timed_phase(ops, 0.0, 0.5), 0.5)
    assert summary["failed"] == 1 and summary["op_p50_ms"] >= 500


def test_tail_percentile_needs_ten_instances_beyond():
    assert harness.tail_percentile(1200) == 99.0
    assert harness.tail_percentile(200) == 95.0
    assert harness.tail_percentile(100) == 90.0
