"""Independent output checks for the benchmark.

Nothing here calls ``scale``, ``Neighbourhood.contains`` or the oracle.
Witnesses are verified with plain ``Fraction`` arithmetic on ``r * a_p``:
each ball, integrality at the explicit primes and at the primes of the
denominator, and the real interval.  Verifying a large witness therefore
never waits on the library's trial-division factoring, and the checker's
cost stays out of the measurement (it runs after the timed phase).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional

from adelic.adele import RATIONAL, TIMES_P, ZERO, FullAdele
from adelic.errors import ClosedOrbitMiss, Infeasible


def _sieve(limit: int):
    flags = bytearray([1]) * limit
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i in range(limit) if flags[i]]


#: Product of the primes below 2000.  A positive integer divides it exactly
#: when it is squarefree with every prime factor below 2000.
_PRIMORIAL = 1
for _p in _sieve(2000):
    _PRIMORIAL *= _p


def valuation(q: Fraction, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    n, d, v = abs(q.numerator), q.denominator, 0
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def component(a, p: int) -> Fraction:
    """The component of a finitely described adele at a finite prime."""
    fin = a.finite_part if isinstance(a, FullAdele) else a
    for q, v in fin.explicit.items():
        if int(q) == p:
            return v
    if fin.default.kind == ZERO:
        return Fraction(0)
    if fin.default.kind == RATIONAL:
        return fin.default.q
    return fin.default.q * p


def witness_problem(r: Any, a, nbhd) -> Optional[str]:
    """None when r * a lies in the neighbourhood, else the broken constraint."""
    if not isinstance(r, Fraction) or r == 0:
        return f"not a nonzero rational: {r!r}"
    full = isinstance(a, FullAdele)
    if not full and r < 0:
        return f"negative witness {r} for a finite adele"
    for p, ball in nbhd.balls.items():
        x = r * component(a, int(p)) - ball.center
        if x != 0 and valuation(x, int(p)) < ball.radius_exponent:
            return f"r*a misses the ball at {int(p)}"
    fin = a.finite_part if full else a
    ball_primes = {int(p) for p in nbhd.balls}
    for p, v in fin.explicit.items():
        if int(p) not in ball_primes and v != 0 and valuation(r * v, int(p)) < 0:
            return f"r*a is not integral at {int(p)}"
    allowed = ball_primes | {int(p) for p in fin.explicit}
    # denominator primes outside the explicit map meet the default rule,
    # whose rational is a unit there (TIMES_P adds one factor of p)
    den = r.denominator
    for p in allowed:
        while den % p == 0:
            den //= p
    if den > 1:
        kind = fin.default.kind
        if kind == RATIONAL:
            return f"denominator part {den} is not integral under a rational default"
        if kind == TIMES_P and _PRIMORIAL % den:
            return f"denominator part {den} is not squarefree over small default primes"
    if full:
        lo, hi = nbhd.real_interval
        if not lo < r * a.real_part < hi:
            return "r*a misses the real interval"
    return None


def same_adele(x, y) -> bool:
    """Componentwise equality of two finitely described adeles."""
    fx = x.finite_part if isinstance(x, FullAdele) else x
    fy = y.finite_part if isinstance(y, FullAdele) else y
    if isinstance(x, FullAdele) != isinstance(y, FullAdele):
        return False
    if isinstance(x, FullAdele) and x.real_part != y.real_part:
        return False
    if (fx.default.kind, fx.default.q) != (fy.default.kind, fy.default.q):
        return False
    keys = {int(p) for p in fx.explicit} | {int(p) for p in fy.explicit}
    return all(component(x, p) == component(y, p) for p in keys)


# -- planted expectations ------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    """Some r with r*a in the neighbourhood; ``planted`` is one such r."""

    planted: Optional[Fraction] = None


@dataclass(frozen=True)
class Raises:
    error: type


@dataclass(frozen=True)
class Equals:
    value: Any


@dataclass(frozen=True)
class Factor:
    r: Fraction
    unit: Any


@dataclass(frozen=True)
class UnitClass:
    unit: Any


@dataclass(frozen=True)
class Agree:
    """Crosscheck: the construction and the oracle both find a witness, or
    both report none (the instance plants which)."""

    feasible: bool


@dataclass(frozen=True)
class Response:
    """CLI: exit code and parsed JSON document on stdout."""

    code: int
    doc: Any


def problem(expect, args, outcome) -> Optional[str]:
    """None when an op's outcome matches its planted expectation."""
    if isinstance(expect, Raises):
        if isinstance(outcome, expect.error):
            return None
        return f"expected {expect.error.__name__}, got {outcome!r}"
    if isinstance(outcome, BaseException):
        return f"raised {type(outcome).__name__}: {outcome}"
    if isinstance(expect, Witness):
        return witness_problem(outcome, *args)
    if isinstance(expect, Equals):
        return None if outcome == expect.value else f"expected {expect.value!r}, got {outcome!r}"
    if isinstance(expect, Factor):
        r, u = outcome
        if r != expect.r or not same_adele(u, expect.unit):
            return f"wrong factorization {r} * {u!r}"
        return None
    if isinstance(expect, UnitClass):
        if outcome.unit is None or not same_adele(outcome.unit, expect.unit):
            return f"wrong unit class {outcome!r}"
        return None
    if isinstance(expect, Agree):
        built, found = outcome
        if not expect.feasible:
            if not isinstance(built, (Infeasible, ClosedOrbitMiss)):
                return f"construction returned {built!r} on an infeasible instance"
            return None if found is None else f"oracle found {found} on an infeasible instance"
        if found is None:
            return "oracle found no witness on a feasible instance"
        return witness_problem(built, *args[:2]) or witness_problem(found, *args[:2])
    if isinstance(expect, Response):
        code, text = outcome
        if code != expect.code:
            return f"exit code {code}, expected {expect.code}"
        try:
            doc = json.loads(text)
        except ValueError:
            return f"stdout is not JSON: {text[:80]!r}"
        return None if doc == expect.doc else f"response {doc} differs from {expect.doc}"
    raise TypeError(f"unknown expectation {expect!r}")
