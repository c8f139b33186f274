"""Per-layer tracing, installed from outside the library.

``Tracer.install`` wraps public functions of ``padic``, ``adele``,
``quasiorbit``, ``primtop``, ``jsonio``, ``cli`` and ``oracle``.
``from .adele import scale`` gives every importing module its own
binding, so each function is patched in every ``adelic`` module that
holds it; methods are patched on their class.  ``uninstall`` restores
every binding.  Spans (id, name, start, end, parent span, op) and counts
stay in memory until the run ends; a span's self time is its duration
minus the time its child spans cover.

The harness's per-op deadline raises ``DeadlineExceeded`` wherever the op
happens to be, also inside a wrapper's own bookkeeping.  A span is
therefore written only once its call has ended, the stack is reset at the
start of every op, and a span whose parent was never written counts as a
top-level span.
"""

from __future__ import annotations

import itertools
import statistics
import sys
import time
from collections import defaultdict
from typing import Dict, List

from adelic import adele, cli, jsonio, oracle, padic, primtop, quasiorbit

CLOSURES = ("pc_closure", "tau_closure", "primcq_closure", "prim_full_closure")
CASES = ("finite", "case_I", "case_II", "closed")

SPANNED = [
    (padic, "prime_factors", "padic.prime_factors"),
    (padic, "crt_solve", "padic.crt_solve"),
    (adele, "scale", "adele.scale"),
    (adele, "factor_idele", "adele.factor_idele"),
    (adele, "absolute_value", "adele.absolute_value"),
    (quasiorbit, "approx_witness", "quasiorbit.approx_witness"),
    (quasiorbit, "chi", "quasiorbit.chi"),
    (oracle, "witness_by_search", "oracle.witness_by_search"),
    (cli, "build_parser", "cli.build_parser"),
    (cli, "main", "cli.main"),
] + [(primtop, name, f"primtop.{name}") for name in CLOSURES] + [
    (jsonio, name, "jsonio." + name.split("_")[0])
    for name in sorted(vars(jsonio))
    if name.startswith(("parse_", "dump_")) and callable(getattr(jsonio, name))
]
SPANNED_METHODS = [
    (adele.Neighbourhood, "contains", "adele.Neighbourhood.contains"),
    (adele.FiniteAdele, "__post_init__", "adele.FiniteAdele.validate"),
]
#: Hot and cheap: counted, not timed.  ``is_prime`` runs on every
#: ``Prime`` construction and every ``iter_primes`` probe.
COUNTED = [
    (padic, "is_prime", "padic.is_prime"),
    (padic, "valuation", "padic.valuation"),
    (padic, "integer_in_ball", "padic.integer_in_ball"),
]


def _bindings(original) -> List[tuple]:
    """Every (module, attribute) in the adelic package bound to original."""
    found = []
    for name, module in list(sys.modules.items()):
        if name == "adelic" or name.startswith("adelic."):
            found.extend((module, attr) for attr, value in vars(module).items() if value is original)
    return found


class Tracer:
    def __init__(self):
        self.spans: List[tuple] = []  # (id, name, start, end, parent id, op index), in order of ending
        self.counts: Dict[str, int] = defaultdict(int)
        self.op_cases: List[str] = []
        self._stack: List[int] = []  # ids of the spans still open
        self._ids = itertools.count()
        self._undo: List[tuple] = []

    def begin_op(self, op) -> None:
        """Harness hook: the spans that follow belong to this op."""
        self.op_cases.append(op.case)
        self._stack.clear()  # an op cut off by its deadline may leave entries behind

    def _span(self, name, fn):
        spans, stack, op_cases, counts, ids = self.spans, self._stack, self.op_cases, self.counts, self._ids

        def wrapper(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else None
            start = time.perf_counter()
            try:
                stack.append(span_id)
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if stack and stack[-1] == span_id:
                    stack.pop()
                spans.append((span_id, name, start, end, parent, len(op_cases) - 1))
            if name == "oracle.witness_by_search" and result is not None:
                counts["oracle.found"] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        plan = [(m, attr, self._span(name, getattr(m, attr))) for m, attr, name in SPANNED]
        plan += [(m, attr, self._counter(name, getattr(m, attr))) for m, attr, name in COUNTED]
        for module, attr, wrapper in plan:
            for owner, binding in _bindings(wrapper.__wrapped__):
                self._undo.append((owner, binding, wrapper.__wrapped__))
                setattr(owner, binding, wrapper)
        for cls, attr, name in SPANNED_METHODS:
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._span(name, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write(self, path) -> None:
        with open(path, "w") as f:
            f.write("id,name,start,end,parent,op\n")
            for span_id, name, start, end, parent, op in self.spans:
                f.write(f"{span_id},{name},{start:.9f},{end:.9f},{'' if parent is None else parent},{op}\n")

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer numbers from the spans and counts of the traced phase."""
        spans = self.spans
        written = {span[0]: span[1] for span in spans}
        child: Dict[int, float] = defaultdict(float)
        for _, _, start, end, parent, _ in spans:
            if parent in written:
                child[parent] += end - start
        calls: Dict[str, int] = defaultdict(int)
        total: Dict[str, float] = defaultdict(float)
        self_s: Dict[str, float] = defaultdict(float)
        longest: Dict[str, float] = defaultdict(float)
        durations: Dict[str, List[float]] = defaultdict(list)
        witness_by_case: Dict[str, List[float]] = defaultdict(list)
        verify = crt_under_witness = closed_candidates = oracle_candidates = 0.0
        for span_id, name, start, end, parent, op in spans:
            d = end - start
            calls[name] += 1
            total[name] += d
            self_s[name] += d - child[span_id]
            longest[name] = max(longest[name], d)
            durations[name].append(d)
            parent_name = written.get(parent, "")
            if name == "quasiorbit.approx_witness":
                witness_by_case[self.op_cases[op]].append(d)
            elif parent_name == "quasiorbit.approx_witness":
                if name in ("adele.scale", "adele.Neighbourhood.contains"):
                    verify += d
                if name == "adele.scale" and self.op_cases[op] == "closed":
                    closed_candidates += 1
                if name == "padic.crt_solve":
                    crt_under_witness += 1
            elif parent_name == "oracle.witness_by_search" and name == "adele.scale":
                oracle_candidates += 1

        def p50_us(values):
            return statistics.median(values) * 1e6 if values else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        witness_calls = calls["quasiorbit.approx_witness"]
        m = {
            "padic.prime_factors.calls": calls["padic.prime_factors"],
            "padic.prime_factors.self_ms": self_s["padic.prime_factors"] * 1000,
            "padic.prime_factors.max_ms": longest["padic.prime_factors"] * 1000,
            "padic.is_prime.calls": self.counts["padic.is_prime"],
            "padic.valuation.calls": self.counts["padic.valuation"],
            "padic.crt_solve.calls": calls["padic.crt_solve"],
            "padic.crt_solve.self_ms": self_s["padic.crt_solve"] * 1000,
            "padic.integer_in_ball.calls": self.counts["padic.integer_in_ball"],
            "adele.scale.calls": calls["adele.scale"],
            "adele.scale.self_ms": self_s["adele.scale"] * 1000,
            "adele.Neighbourhood.contains.calls": calls["adele.Neighbourhood.contains"],
            "adele.Neighbourhood.contains.self_ms": self_s["adele.Neighbourhood.contains"] * 1000,
            "adele.FiniteAdele.validate.calls": calls["adele.FiniteAdele.validate"],
            "adele.FiniteAdele.validate.self_ms": self_s["adele.FiniteAdele.validate"] * 1000,
            "adele.factor_idele.p50_us": p50_us(durations["adele.factor_idele"]),
            "adele.absolute_value.p50_us": p50_us(durations["adele.absolute_value"]),
        }
        for case in CASES:
            m[f"quasiorbit.approx_witness.{case}.p50_us"] = p50_us(witness_by_case[case])
        m.update({
            "quasiorbit.approx_witness.self_ms": self_s["quasiorbit.approx_witness"] * 1000,
            "quasiorbit.approx_witness.total_ms": total["quasiorbit.approx_witness"] * 1000,
            "quasiorbit.approx_witness.verify_share": ratio(verify, total["quasiorbit.approx_witness"]),
            "quasiorbit.approx_witness.crt_per_op": ratio(crt_under_witness, witness_calls - len(witness_by_case["closed"])),
            "quasiorbit.closed.candidates_per_op": ratio(closed_candidates, len(witness_by_case["closed"])),
            "quasiorbit.chi.p50_us": p50_us(durations["quasiorbit.chi"]),
        })
        for name in CLOSURES:
            m[f"primtop.{name}.p50_us"] = p50_us(durations[f"primtop.{name}"])
        searches = calls["oracle.witness_by_search"]
        m.update({
            "primtop.closures.self_ms": sum(self_s[f"primtop.{name}"] for name in CLOSURES) * 1000,
            "jsonio.parse.calls": calls["jsonio.parse"],
            "jsonio.parse.self_ms": self_s["jsonio.parse"] * 1000,
            "jsonio.dump.self_ms": self_s["jsonio.dump"] * 1000,
            "cli.build_parser.self_ms": self_s["cli.build_parser"] * 1000,
            "cli.build_parser.share": ratio(total["cli.build_parser"], total["cli.main"]),
            "cli.main.p50_us": p50_us(durations["cli.main"]),
            "oracle.witness_by_search.calls": searches,
            "oracle.witness_by_search.self_ms": self_s["oracle.witness_by_search"] * 1000,
            "oracle.candidates_tested": oracle_candidates,
            "oracle.candidates_per_search": ratio(oracle_candidates, searches),
            "oracle.useful_ratio": ratio(self.counts["oracle.found"], oracle_candidates),
        })
        return m
