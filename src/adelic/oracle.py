"""Independent brute-force verifiers.

These deliberately know nothing about the CRT construction: the witness
search enumerates rationals by height and tests membership exactly, and
the window closure enumerates basic opens over a finite window.  The
test suite uses them to cross-check the constructive algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd
from typing import Iterable, List, Optional

from .adele import Adele, FullAdele, Neighbourhood, PrimeSet, TIMES_P, ZERO, scale
from .adele import _check_kind, _governed_by_default
from .padic import Prime, extended_prime_key, is_infinite_place, iter_primes

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
        if self.height_bound < 1 or self.precision < 1:
            raise ValueError("all search bounds must be >= 1")
        object.__setattr__(
            self, "prime_window", frozenset(Prime(p) for p in self.prime_window)
        )


def _allowed_denominator_primes(a: Adele, budget: SearchBudget) -> List[Prime]:
    """Window primes plus the primes where scaling can absorb denominators."""
    fin = a.finite_part if isinstance(a, FullAdele) else a
    allowed = set(budget.prime_window)
    allowed.update(p for p, v in fin.explicit.items() if v == 0 and not _governed_by_default(fin, p))
    if fin.default.kind in (ZERO, TIMES_P):
        # every default prime divides the adele; draw them up to the window bound
        bound = max(allowed, default=Prime(13))
        for p in iter_primes():
            if p > bound:
                break
            if _governed_by_default(fin, p):
                allowed.add(p)
    return sorted(allowed)


def _smooth_denominators(primes: List[Prime], bound: int, max_exp: int) -> List[int]:
    denominators = [1]
    for p in primes:
        extended = []
        for d in denominators:
            power = d
            for _ in range(max_exp):
                power *= p
                if power > bound:
                    break
                extended.append(power)
        denominators.extend(extended)
    return sorted(denominators)


def witness_by_search(
    a: Adele, nbhd: Neighbourhood, budget: SearchBudget = SearchBudget()
) -> Optional[Fraction]:
    """Exhaustively search for a rational r with scale(r, a) inside nbhd.

    Candidates are enumerated by increasing height and then increasing
    numerator, positive only for finite adeles and in both signs for full
    ones; the first member of the neighbourhood wins.  Returns None when
    no candidate of admissible height works.

    Two honest shortcuts keep this tractable without changing the answer:
    constraints that do not depend on r are evaluated once up front, and
    for full adeles with a nonzero real coordinate the numerator range per
    denominator is clipped to the real interval, outside which membership
    is impossible; the surviving candidates are still verified in height
    order.
    """
    full = _check_kind(a, nbhd)

    # constraints independent of r: a vanishing coordinate never moves
    for p, ball in nbhd.balls.items():
        if a.component(p) == 0 and not ball.contains(0):
            return None
    if full and a.real_part == 0:
        lo, hi = nbhd.real_interval
        if not lo < 0 < hi:
            return None

    denominators = _smooth_denominators(
        _allowed_denominator_primes(a, budget), budget.height_bound, budget.precision
    )

    if full and a.real_part != 0:
        return _search_interval_clipped(a, nbhd, budget, denominators)
    return _search_by_height(a, nbhd, budget, denominators, full)


def _search_by_height(a, nbhd, budget, denominators, full) -> Optional[Fraction]:
    den_set = set(denominators)
    signs = (1, -1) if full else (1,)
    for height in range(1, budget.height_bound + 1):
        if height in den_set:
            for n in range(1, height):
                if gcd(n, height) == 1:
                    for sign in signs:
                        r = Fraction(sign * n, height)
                        if nbhd.contains(scale(r, a)):
                            return r
        for d in denominators:
            if d > height:
                break
            if d == height:  # height/height reduces to 1, seen at height one
                if height == 1:
                    for sign in signs:
                        r = Fraction(sign, 1)
                        if nbhd.contains(scale(r, a)):
                            return r
                continue
            if gcd(height, d) == 1:
                for sign in signs:
                    r = Fraction(sign * height, d)
                    if nbhd.contains(scale(r, a)):
                        return r
    return None


def _search_interval_clipped(a, nbhd, budget, denominators) -> Optional[Fraction]:
    """Height-ordered scan of the candidates the real interval admits."""
    lo, hi = nbhd.real_interval
    candidates = []
    for d in denominators:
        for sign in (1, -1):
            x, y = sorted((lo * d / (sign * a.real_part), hi * d / (sign * a.real_part)))
            first = max(1, floor(x) + 1)
            last = min(budget.height_bound, ceil(y) - 1)
            for n in range(first, last + 1):
                if gcd(n, d) == 1:
                    candidates.append((max(n, d), n, d, 0 if sign > 0 else 1))
    for _, n, d, neg in sorted(candidates):
        r = Fraction(-n if neg else n, d)
        if nbhd.contains(scale(r, a)):
            return r
    return None


def window_closure(points: Iterable[PrimeSet], window: Iterable) -> List[PrimeSet]:
    """Closure of finitely many points inside a finite window of places.

    Enumerates every subset T of the window and every basic open U_G with
    G inside the window, and keeps T when each U_G containing T meets the
    points.  This is the definition, evaluated by brute force; it equals
    supersets-within-window and validates the up-set closure formulas.
    """
    window = sorted(
        (p if is_infinite_place(p) else Prime(p) for p in window),
        key=extended_prime_key,
    )
    pts = list(points)
    base = None
    for s in pts:
        if s.kind != "finite":
            raise ValueError("the window oracle takes finite prime sets")
        if not s.members <= frozenset(window):
            raise ValueError(f"point {s} strays outside the window")
        base = s.base if base is None else base
        if s.base != base:
            raise ValueError("points must share a base")
    if base is None:
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
            closure.append(PrimeSet.finite(t, base=base))
    return sorted(closure, key=lambda s: s.sort_key())
