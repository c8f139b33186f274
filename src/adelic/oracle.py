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
fruitless search walks only the denominators its places admit.  A stream
of candidates is a plain heap entry advanced in place; it opens only when
the real interval leaves it a numerator, and its places' moduli are
computed once per denominator, so a candidate costs a few integer
operations.  Every candidate and denominator spends a step of a fixed
budget, ``_SEARCH_STEPS``, and a search that runs past it raises
WorkBoundExceeded, so no search runs unbounded, whatever its height bound.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, takewhile
from math import gcd
from typing import Iterable, Iterator, List, Optional

from .adele import EXTENDED_PRIMES, FINITE_PRIMES, Adele, Neighbourhood, PrimeSet, TIMES_P, ZERO
from .adele import _check_kind, _default_primes
from .errors import WorkBoundExceeded
from .padic import INFINITY, Prime, _require_int, valuation

DEFAULT_WINDOW = frozenset(Prime(p) for p in (2, 3, 5, 7, 11, 13))
_SEARCH_STEPS = 2**18  # witness_by_search's steps, a candidate one and a denominator four; past them, WorkBoundExceeded


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
        for j in range(i if e < max_exp else i + 1, len(primes)):
            if d * primes[j] > bound:
                break
            heapq.heappush(heap, (d * primes[j], j, e + 1 if j == i else 1))


def witness_by_search(
    a: Adele, nbhd: Neighbourhood, budget: SearchBudget = SearchBudget()
) -> Optional[Fraction]:
    """Exhaustively search for a rational r with scale(r, a) inside nbhd.

    Candidates are enumerated by increasing height and then increasing
    numerator, positive only for finite adeles and in both signs for full
    ones; the first member of the neighbourhood wins.  Returns None when
    no candidate of admissible height works.

    The scan is lazy: each (denominator, sign) pair is one stream, a heap
    entry (height, n, d, negative, last, tests) keyed in search order
    (height, numerator, denominator, + before -) and advanced in place to
    its next numerator prime to d, so a candidate is built only when every
    candidate before it has failed.  Denominators arrive in ascending
    order, and the streams over d join the heap only once every queued
    candidate of height below d has failed: each of their candidates has
    height max(n, d) >= d, so a search that ends at height h never
    generates a denominator, or opens a stream, above h.  The real
    interval, its ends kept as unreduced integer pairs, clips a stream's
    numerators to n..last by floor division; a stream opens only when
    that range is non-empty, and a sign whose clip ends at or below 0
    opens none.  A stream's first n may share a factor with d, but n / d
    then equals an earlier candidate, which failed, so no answer changes.
    Membership never builds r * a: ``tests`` holds the places whose
    modulus over d exceeds 1, each a ball, Z_p = B(0, 0) where nbhd has
    none, computed once per denominator when one of its streams opens and
    tested in integers.  Constraints independent of r are checked once up
    front.

    A candidate tested costs one step and a denominator drawn four, and
    past _SEARCH_STEPS steps the search raises WorkBoundExceeded: a
    search that cannot succeed ends however large its height bound.
    """
    full = _check_kind(a, nbhd)

    # A ball admits r = m / d iff p ** (radius + v_p(B*D) + v_p(d)), when > 1,
    # divides m*A*D - d*B*C, the numerator of r * a_p - C / D over d*B*D, for
    # a_p = A / B and centre C / D; gcd(d, p ** b) is p ** v_p(d) once p ** b > bound.
    # Off the listed places no candidate has a denominator and a_p is integral.  An
    # allowed p enters r's denominator only with a ball or with p | A (A = 0 too):
    # otherwise r * a_p in Z_p = B(0, 0) keeps it out.
    allowed, bound, primes, places = set(_allowed_denominator_primes(a, budget)), budget.height_bound, [], []
    for p in sorted(nbhd.balls.keys() | a.explicit.keys() | allowed):
        centre, radius = (ball.center, ball.radius_exponent) if (ball := nbhd.balls.get(p)) else (0, 0)
        (A, B), (C, D) = a.component(p).as_integer_ratio(), centre.as_integer_ratio()
        if p in allowed and (ball or A % p == 0):
            primes.append(p)
        k = radius + valuation(B * D, p)
        if A:
            places.append((p ** bound.bit_length(), p ** max(k, 0), p ** max(-k, 0), A * D, B * C))
        elif C % p ** max(k, 0):  # a vanishing coordinate never moves
            return None
    if full and a.real_part == 0 and not nbhd.real_interval[0] < 0 < nbhd.real_interval[1]:
        return None

    # lo < r * a_oo < hi puts r * |a_oo| in (lo, hi): n / d lies in (x, y) when r
    # has a_oo's sign and in (-y, -x) when not, and an upper end <= 0 holds no n
    (xn, xd), (yn, yd), flip = (-bound - 1, 1), (bound + 1, 1), full and a.real_part < 0  # clips nothing
    if full and a.real_part:
        wn, wd = abs(a.real_part).as_integer_ratio()
        (xn, xd), (yn, yd) = ((en * wd, ed * wn) for en, ed in map(Fraction.as_integer_ratio, nbhd.real_interval))
    clips = [c for c in [(flip, xn, xd, yn, yd), (not flip, -yn, yd, -xn, xd)][:1 + full] if c[3] > 0]
    heap, steps = [], _SEARCH_STEPS  # streams (height, n, d, negative, last, tests), keyed in search order
    d = next(denominators := _smooth_denominators(primes, bound, budget.precision))
    while steps > 0:  # a candidate costs one step, a denominator four
        if heap and heap[0][0] < d:  # a candidate over d has height max(n, d) >= d: test every lower one first
            _, n, dn, negative, last, tests = heap[0]
            m, n, steps = -n if negative else n, n + 1, steps - 1
            for mod, ad, dbc in tests:
                if (m * ad - dbc) % mod:
                    break
            else:
                return Fraction(m, dn)
            while gcd(n, dn) > 1:
                n += 1
            heapq.heapreplace(heap, (max(n, dn), n, dn, negative, last, tests)) if n <= last else heapq.heappop(heap)
        elif d > bound:  # every candidate has failed
            return None
        else:  # open each sign's stream over d unless its clip holds no numerator
            tests = None  # the places whose modulus over d exceeds 1, built when a stream opens
            for negative, xn, xd, yn, yd in clips:
                n, last = max(1, xn * d // xd + 1), min(bound, -(-yn * d // yd) - 1)
                if n <= last:  # an unreduced n / d is an earlier candidate, which failed
                    tests = tests if tests is not None else [
                        (mod, ad, d * bc) for big, up, down, ad, bc in places if (mod := gcd(d, big) * up // down) > 1]
                    heapq.heappush(heap, (max(n, d), n, d, negative, last, tests))
            d, steps = next(denominators, bound + 1), steps - 4
    raise WorkBoundExceeded(f"the witness search exceeds the bound of {_SEARCH_STEPS} steps")


def window_closure(points: Iterable[PrimeSet], window: Iterable) -> List[PrimeSet]:
    """Closure of finitely many points inside a finite window of places.

    Enumerates every subset T of the window and every basic open U_G with
    G inside the window, and keeps T when each U_G containing T meets the
    points.  This is the definition, evaluated by brute force; it equals
    supersets-within-window and validates the up-set closure formulas.
    The window is a set of places, so a repeated place counts once.
    The work is 4**n for n places, so a window of more than 10 places
    raises WorkBoundExceeded before any of it is done.  A window holding
    inf has supersets of every point that hold inf, so points over the
    finite primes raise ValueError there, also before any work.
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
    if pts and pts[0].base == FINITE_PRIMES and INFINITY in window:
        raise ValueError("a window holding inf needs points over the extended primes")
    if not pts:
        return []
    subsets = [frozenset(c) for k in range(len(window) + 1) for c in combinations(window, k)]
    # T stays when every U_G holding T, that is every G missing T, meets a point
    closure = [PrimeSet.finite(t, base=pts[0].base) for t in subsets
               if all(any(s.members.isdisjoint(g) for s in pts) for g in subsets if t.isdisjoint(g))]
    return sorted(closure, key=lambda s: s.sort_key())
