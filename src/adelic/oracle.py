"""Independent brute-force verifiers.

These deliberately know nothing about the CRT construction: the witness
search enumerates rationals by height and tests membership in integers
place by place, and the window closure enumerates basic opens over a
finite window.  The test suite uses them to cross-check the
constructive algorithms.

The witness search is lazy in both directions: the admissible
denominators come from an ascending stream, and the candidates over a
denominator d are queued only when the scan reaches height d, so its
cost follows the height of the answer, not the height bound.  A prime
that no member can have in its denominator draws no denominators, so a
fruitless search walks only the denominators its places admit.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, takewhile
from math import gcd
from typing import Iterable, Iterator, List, Optional

from .adele import EXTENDED_PRIMES, Adele, Neighbourhood, PrimeSet, TIMES_P, ZERO
from .adele import _check_kind, _default_primes
from .errors import WorkBoundExceeded
from .padic import Prime, _require_int, valuation

DEFAULT_WINDOW = frozenset(Prime(p) for p in (2, 3, 5, 7, 11, 13))


@dataclass(frozen=True)
class SearchBudget:
    """Bounds for the exhaustive witness search.

    ``height_bound`` caps max(|numerator|, denominator); denominators are
    products of primes from ``prime_window`` (plus primes where the adele
    vanishes or acquires extra divisibility) with per-prime exponent at
    most ``precision``.
    """

    height_bound: int = 1000
    prime_window: frozenset = DEFAULT_WINDOW
    precision: int = 3

    def __post_init__(self):
        _require_int(self.height_bound, "height_bound")
        _require_int(self.precision, "precision")
        if self.height_bound < 1 or self.precision < 1:
            raise ValueError("all search bounds must be >= 1")
        object.__setattr__(
            self, "prime_window", frozenset(Prime(p) for p in self.prime_window)
        )


def _allowed_denominator_primes(a: Adele, budget: SearchBudget) -> List[Prime]:
    """Window primes plus the primes where scaling can absorb denominators."""
    allowed = set(budget.prime_window)
    if a.default.kind != ZERO:  # under a ZERO default an explicit zero restates the rule
        allowed.update(p for p, v in a.explicit.items() if v == 0)
    if a.default.kind in (ZERO, TIMES_P):
        # every default prime divides the adele; draw them up to the window bound
        bound = max(allowed, default=Prime(13))
        allowed.update(takewhile(lambda p: p <= bound, _default_primes(a)))
    return sorted(allowed)


def _smooth_denominators(primes: List[Prime], bound: int, max_exp: int) -> Iterator[int]:
    """The products of ``primes``, each to at most ``max_exp``, up to
    ``bound``, in ascending order; a product grows only by its largest
    prime or a larger one, so each is reached once."""
    heap = [(1, 0, 0)]  # (product, index of its largest prime, that prime's exponent)
    while heap:
        d, i, e = heapq.heappop(heap)
        yield d
        for j in range(i, len(primes)):
            if d * primes[j] > bound:
                break
            if j > i or e < max_exp:
                heapq.heappush(heap, (d * primes[j], j, e + 1 if j == i else 1))


def witness_by_search(
    a: Adele, nbhd: Neighbourhood, budget: SearchBudget = SearchBudget()
) -> Optional[Fraction]:
    """Exhaustively search for a rational r with scale(r, a) inside nbhd.

    Candidates are enumerated by increasing height and then increasing
    numerator, positive only for finite adeles and in both signs for full
    ones; the first member of the neighbourhood wins.  Returns None when
    no candidate of admissible height works.

    The scan is lazy: each (denominator, sign) pair streams its reduced
    fractions in key order (height, numerator, denominator, + before -)
    into one heap, so a candidate is built only when every candidate
    before it has failed.  Denominators arrive in ascending order, and
    the streams over d join the heap only once every queued candidate of
    height below d has failed: each of their candidates has height
    max(n, d) >= d, so a search that ends at height h never generates a
    denominator, or opens a stream, above h.  Membership never builds
    r * a: the real interval clips each stream's numerator range by
    integer floor division, and each place where r * a can fail tests
    its ball, Z_p = B(0, 0) where nbhd has none, in integers.
    Constraints independent of r are checked once up front.
    """
    full = _check_kind(a, nbhd)

    # A ball admits r = m / d iff p ** (radius + v_p(B*D) + v_p(d)), when > 1,
    # divides m*A*D - d*B*C, the numerator of r * a_p - C / D over d*B*D, for
    # a_p = A / B and centre C / D; gcd(d, p ** bits) is p ** v_p(d).  Off the
    # listed places no candidate has a denominator and a_p is integral.  Where p
    # has no ball and v_p(a_p) <= 0, r * a_p in Z_p keeps p out of r's denominator.
    primes = [p for p in _allowed_denominator_primes(a, budget)
              if p in nbhd.balls or valuation(a.component(p), p) > 0]
    bound, places = budget.height_bound, []
    bits = bound.bit_length()
    for p in sorted(nbhd.balls.keys() | a.explicit.keys() | set(primes)):
        ball = nbhd.balls.get(p)
        centre, radius = (ball.center, ball.radius_exponent) if ball else (0, 0)  # Z_p = B(0, 0)
        (A, B), (C, D) = a.component(p).as_integer_ratio(), centre.as_integer_ratio()
        k = radius + valuation(B * D, p)
        if A:
            places.append((p ** bits, p ** max(k, 0), p ** max(-k, 0), A * D, B * C))
        elif C % p ** max(k, 0):  # a vanishing coordinate never moves
            return None
    if full and a.real_part == 0 and not nbhd.real_interval[0] < 0 < nbhd.real_interval[1]:
        return None

    clips = []
    for sign in (1, -1) if full else (1,):
        # r * a_oo in (lo, hi) puts n / d in (x, y), so n in (x * d, y * d)
        ends = (0, bound + 1)  # clips nothing
        if full and a.real_part != 0:
            ends = sorted(end / (sign * a.real_part) for end in nbhd.real_interval)
        clips.append((sign < 0, *ends[0].as_integer_ratio(), *ends[1].as_integer_ratio()))
    heap = []  # (key, stream), keys (height, n, d, negative) in search order

    def push(stream):
        key = next(stream, None)
        if key is not None:
            heapq.heappush(heap, (key, stream))

    for d in chain(_smooth_denominators(primes, bound, budget.precision), [bound + 1]):
        # a candidate over d has height max(n, d) >= d: test every lower one first
        while heap and heap[0][0][0] < d:
            (_, n, dn, negative), stream = heapq.heappop(heap)
            m = -n if negative else n
            if not any((m * ad - dn * bc) % max(1, gcd(dn, big) * up // down) for big, up, down, ad, bc in places):
                return Fraction(m, dn)
            push(stream)
        if d > bound:  # the sentinel: every candidate has failed
            break
        for negative, xn, xd, yn, yd in clips:
            push(_reduced_fractions(d, negative, max(1, xn * d // xd + 1), min(bound, -(-yn * d // yd) - 1)))
    return None


def _reduced_fractions(d: int, negative: bool, first: int, last: int) -> Iterator[tuple]:
    """The reduced n / d with first <= n <= last, keyed in search order."""
    for n in range(first, last + 1):
        if gcd(n, d) == 1:
            yield (max(n, d), n, d, negative)


def window_closure(points: Iterable[PrimeSet], window: Iterable) -> List[PrimeSet]:
    """Closure of finitely many points inside a finite window of places.

    Enumerates every subset T of the window and every basic open U_G with
    G inside the window, and keeps T when each U_G containing T meets the
    points.  This is the definition, evaluated by brute force; it equals
    supersets-within-window and validates the up-set closure formulas.
    The window is a set of places, so a repeated place counts once.
    The work is 4**n for n places, so a window of more than 10 places
    raises WorkBoundExceeded before any of it is done.
    """
    window = PrimeSet.finite(window, EXTENDED_PRIMES).members
    if len(window) > 10:
        raise WorkBoundExceeded(f"a window of {len(window)} places exceeds the bound of 10")
    pts = list(points)
    for s in pts:
        if s.kind != "finite":
            raise ValueError("the window oracle takes finite prime sets")
        if not s.members <= window:
            raise ValueError(f"point {s} strays outside the window")
        if s.base != pts[0].base:
            raise ValueError("points must share a base")
    if not pts:
        return []

    def subsets(universe):
        out = [frozenset()]
        for x in universe:
            out.extend(frozenset(s | {x}) for s in list(out))
        return out

    member_sets = [s.members for s in pts]
    closure = []
    for t in subsets(window):
        keep = True
        for g in subsets(window):
            if t & g:
                continue  # U_g does not contain t
            if not any(not (m & g) for m in member_sets):
                keep = False
                break
        if keep:
            closure.append(PrimeSet.finite(t, base=pts[0].base))
    return sorted(closure, key=lambda s: s.sort_key())
