import heapq
import json
import sys
from fractions import Fraction
from itertools import chain, combinations
from math import gcd
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from adelic import adele, cli, oracle, padic
from adelic.adele import (
    EXTENDED_PRIMES,
    DefaultSpec,
    FiniteAdele,
    FullAdele,
    Neighbourhood,
    PrimeSet,
    embed_rational,
    scale,
)
from adelic.errors import ClosedOrbitMiss, Infeasible, WorkBoundExceeded
from adelic.oracle import (
    SearchBudget,
    _allowed_denominator_primes,
    window_closure,
    witness_by_search,
)
from adelic.padic import INFINITY, PadicBall, Prime, is_prime, valuation
from adelic.quasiorbit import approx_witness

F = Fraction


def finite(explicit, default):
    return FiniteAdele(explicit, default)


def full(explicit, default, real):
    return FullAdele(FiniteAdele(explicit, default), real)


class TestWitnessSearch:
    def test_finds_the_spec_witness(self):
        a = embed_rational(1)
        nbhd = Neighbourhood({2: PadicBall(2, F(0), 3), 3: PadicBall(3, F(1), 1)})
        r = witness_by_search(a, nbhd, SearchBudget(height_bound=100))
        assert r is not None
        assert nbhd.contains(scale(r, a))
        assert nbhd.contains(scale(16, a))  # the derived witness also verifies

    def test_neighbourhood_of_self(self):
        a = embed_rational(1)
        nbhd = Neighbourhood({2: PadicBall(2, F(1), 1)})
        assert witness_by_search(a, nbhd, SearchBudget(height_bound=1)) == 1

    def test_zero_component_conflict_returns_none(self):
        a = finite({2: F(0)}, DefaultSpec.rational(1))
        nbhd = Neighbourhood({2: PadicBall(2, F(1), 1)})
        assert witness_by_search(a, nbhd, SearchBudget(height_bound=500)) is None

    def test_full_adele_interval_clipping(self):
        a = full({2: F(0)}, DefaultSpec.rational(1), F(1))
        nbhd = Neighbourhood({3: PadicBall(3, F(2), 1)}, real_interval=(F(5), F(6)))
        r = witness_by_search(a, nbhd, SearchBudget(height_bound=60))
        assert r is not None
        assert nbhd.contains(scale(r, a))

    def test_ball_of_negative_radius_admits_its_denominators(self):
        # v_2(1/2) = -1 meets the radius -1, so 1/2 is the first member
        a = embed_rational(1)
        nbhd = Neighbourhood({2: PadicBall(2, F(0), -1), 3: PadicBall(3, F(1, 2), 2)})
        assert witness_by_search(a, nbhd, SearchBudget(height_bound=10)) == F(1, 2)

    def test_explicit_prime_outside_the_window(self):
        # 1 leaves 1/17 at 17, which Z_17 excludes; 17 is the first member
        a = finite({17: F(1, 17)}, DefaultSpec.rational(1))
        nbhd = Neighbourhood({2: PadicBall(2, F(1), 1)})
        assert witness_by_search(a, nbhd, SearchBudget(100)) == 17

    def test_a_tie_at_height_d_goes_to_the_candidate_over_d(self):
        # 2/3 and 3 both lie in B(3, 1) at 7, and B(0, -1) at 3 admits both;
        # at height 3, 2/3 comes first
        a, nbhd = embed_rational(1), Neighbourhood({3: PadicBall(3, F(0), -1), 7: PadicBall(7, F(3), 1)})
        assert nbhd.contains(scale(F(3), a))
        assert witness_by_search(a, nbhd, SearchBudget(20)) == F(2, 3)

    def test_a_positive_valuation_admits_its_prime_off_the_balls(self):
        # 1/2 leaves 1 at 2, inside Z_2; at height 2 it comes before 2
        a = finite({2: F(2)}, DefaultSpec.rational(1))
        nbhd = Neighbourhood({3: PadicBall(3, F(1, 2), 1)})
        assert witness_by_search(a, nbhd, SearchBudget(10)) == F(1, 2)

    def test_zero_height_bound_rejected(self):
        with pytest.raises(ValueError):
            SearchBudget(height_bound=0)

    @pytest.mark.parametrize("bounds", [{"height_bound": 10.5}, {"height_bound": True}, {"height_bound": F(10)},
                                        {"precision": 2.5}, {"precision": True}, {"precision": 3.0}])
    def test_non_integer_bounds_rejected(self, bounds):
        with pytest.raises(ValueError, match="must be an integer"):
            SearchBudget(**bounds)

    def test_kind_discipline(self):
        with pytest.raises(ValueError):
            witness_by_search(embed_rational(1, kind="full"), Neighbourhood({}))
        with pytest.raises(ValueError):
            witness_by_search(embed_rational(1), Neighbourhood({}, real_interval=(F(0), F(1))))


PLACES = [2, 3, 5, 7]
small = st.fractions(min_value=-12, max_value=12, max_denominator=6)


@st.composite
def search_instances(draw):
    """A finite adele, or a full one with a zero or a nonzero real part of
    either sign, under any default kind, with a height bound <= 60."""
    kind = draw(st.sampled_from(["rational", "zero", "times_p"]))
    q = None if kind == "zero" else F(draw(st.sampled_from([1, -1, 2, 3, -6])))
    a = finite(draw(st.dictionaries(st.sampled_from(PLACES), small, max_size=2)), DefaultSpec(kind, q))
    balls = {
        p: PadicBall(p, center, e)
        for p, (center, e) in draw(
            st.dictionaries(st.sampled_from(PLACES), st.tuples(small, st.integers(-1, 3)), max_size=2)
        ).items()
    }
    height = draw(st.integers(1, 60))
    shape = draw(st.sampled_from(["finite", "zero real part", "clipped"]))
    if shape == "finite":
        return a, Neighbourhood(balls), height
    real = F(0) if shape == "zero real part" else draw(small.filter(lambda x: x != 0))
    # an interval near t * real for a small t, so that it often holds candidates
    lo = draw(small) * real - draw(st.fractions(min_value=F(1, 8), max_value=4, max_denominator=8))
    width = draw(st.fractions(min_value=F(1, 8), max_value=8, max_denominator=8))
    return FullAdele(a, real), Neighbourhood(balls, real_interval=(lo, lo + width)), height


def first_member_by_height(a, nbhd, height):
    """The reference order: every reduced +-n/d of height at most the bound,
    sorted by (height, numerator, denominator, + before -)."""
    full = isinstance(a, FullAdele)
    keys = sorted(
        (max(n, d), n, d, sign < 0)
        for n in range(1, height + 1)
        for d in range(1, height + 1)
        if gcd(n, d) == 1
        for sign in ((1, -1) if full else (1,))
    )
    for _, n, d, negative in keys:
        r = F(-n if negative else n, d)
        # the real coordinate first, the cheap half of membership
        if full and not nbhd.real_interval[0] < r * a.real_part < nbhd.real_interval[1]:
            continue
        if nbhd.contains(scale(r, a)):
            return r
    return None


UNITS = [F(1), F(-1), F(2), F(-3), F(5, 7), F(-7, 11), F(11, 13), F(6, 35)]


@st.composite
def closed_miss_instances(draw):
    """A closed orbit kept off its neighbourhood: a unit idele u whose real
    part has either sign, balls centred at k * u_p, and a real interval of
    width 1/128 strictly between k * u_oo and (k + 1) * u_oo, with k of
    either sign.  Every member would be an integer, and the interval holds
    none, so each search is fruitless however far it runs."""
    units = draw(st.dictionaries(st.sampled_from(PLACES), st.sampled_from(UNITS), max_size=2))
    real = draw(st.sampled_from([1, -1])) * F(draw(st.integers(1, 16)), draw(st.integers(1, 3)))
    u = full({p: x for p, x in units.items() if valuation(x, p) == 0}, DefaultSpec.rational(1), real)
    k = draw(st.integers(-5, 5))
    ball_primes = set(u.explicit) | {Prime(draw(st.sampled_from(PLACES)))}
    balls = {p: PadicBall(p, u.component(p) * k, draw(st.integers(1, 3))) for p in ball_primes}
    lo = (k + F(draw(st.integers(1, 4)), 8)) * real
    return u, Neighbourhood(balls, real_interval=(lo, lo + F(1, 128))), draw(st.integers(1, 60))


@st.composite
def tie_instances(draw):
    """A ball at a prime p of d * d - n * d2, for n, d2 < d, holds both
    n / d and d / d2, and balls B(0, -v_q) at the primes q of d and d2
    admit both: a candidate over d ties at height d with one over the
    smaller d2, and must come first.  The adele is 1, finite or full under
    a wide interval."""
    d = draw(st.integers(2, 12))
    n, d2 = (draw(st.integers(1, d - 1).filter(lambda x: gcd(x, d) == 1)) for _ in range(2))
    gap = d * d - n * d2  # coprime to d * d2, since n and d2 are coprime to d
    ps = [p for p in range(2, gap + 1) if gap % p == 0 and is_prime(p)]
    assume(ps)  # gap == 1 has no prime
    p = draw(st.sampled_from(ps))
    balls = {q: PadicBall(q, F(0), -valuation(d * d2, q)) for q in PLACES + [11] if d * d2 % q == 0}
    balls[p] = PadicBall(p, F(n, d), 1)
    height = draw(st.integers(d, 40))
    if draw(st.booleans()):
        return embed_rational(1), Neighbourhood(balls), height
    return embed_rational(1, kind="full"), Neighbourhood(balls, real_interval=(F(-50), F(50))), height


def full_window_budget(height):
    """Every prime up to the bound, each to an exponent reaching past it:
    every denominator of height at most the bound is admissible."""
    window = frozenset(p for p in range(2, height + 1) if is_prime(p))
    return SearchBudget(height_bound=height, prime_window=window, precision=height.bit_length())


class TestSearchOrder:
    @settings(deadline=None)
    @given(search_instances())
    def test_first_member_in_height_order(self, instance):
        a, nbhd, height = instance
        assert witness_by_search(a, nbhd, full_window_budget(height)) == first_member_by_height(a, nbhd, height)

    @settings(deadline=None)
    @given(closed_miss_instances())
    def test_closed_miss_is_fruitless(self, instance):
        a, nbhd, height = instance
        assert first_member_by_height(a, nbhd, height) is None
        assert witness_by_search(a, nbhd, full_window_budget(height)) is None

    @settings(deadline=None)
    @given(tie_instances())
    def test_tie_at_the_denominator_height(self, instance):
        a, nbhd, height = instance
        assert witness_by_search(a, nbhd, full_window_budget(height)) == first_member_by_height(a, nbhd, height)


fractions_to_23 = st.builds(F, st.integers(-12, 12), st.sampled_from([1, 1, 2, 3, 5, 7, 11, 17, 23]))


@st.composite
def narrow_instances(draw):
    """A search instance under a narrow budget: a window inside {2, 3, 5},
    precision 1-3, and explicit entries at primes up to 23, most of them
    outside the window, so that a candidate can fail at a prime no ball
    and no window names."""
    a, nbhd, height = draw(search_instances())
    entries = draw(st.dictionaries(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23]), fractions_to_23, max_size=3))
    fin = FiniteAdele({**a.explicit, **entries}, a.default)
    a = FullAdele(fin, a.real_part) if isinstance(a, FullAdele) else fin
    window = draw(st.sets(st.sampled_from([2, 3, 5]), min_size=1))
    return a, nbhd, SearchBudget(height, frozenset(window), draw(st.integers(1, 3)))


def first_member_of_budget(a, nbhd, budget):
    """The reference: every admissible +-n/d, sorted by (height, numerator,
    denominator, + before -), each tested with nbhd.contains(scale(r, a))."""
    primes, height = _allowed_denominator_primes(a, budget), budget.height_bound

    def admissible(d):
        for p in primes:
            for _ in range(budget.precision):
                d = d // p if d % p == 0 else d
        return d == 1

    full = isinstance(a, FullAdele)
    keys = sorted(
        (max(n, d), n, d, sign < 0)
        for d in range(1, height + 1)
        if admissible(d)
        for n in range(1, height + 1)
        if gcd(n, d) == 1
        for sign in ((1, -1) if full else (1,))
    )
    for _, n, d, negative in keys:
        r = F(-n if negative else n, d)
        if nbhd.contains(scale(r, a)):
            return r
    return None


class TestMembershipPlaces:
    @settings(deadline=None)
    @given(narrow_instances())
    def test_matches_scale_and_contains(self, instance):
        a, nbhd, budget = instance
        assert witness_by_search(a, nbhd, budget) == first_member_of_budget(a, nbhd, budget)

    @settings(deadline=None)
    @given(closed_miss_instances(), st.sets(st.sampled_from([2, 3, 5]), min_size=1), st.integers(1, 3))
    def test_closed_miss_under_a_narrow_budget(self, instance, window, precision):
        a, nbhd, height = instance
        budget = SearchBudget(height, frozenset(window), precision)
        assert first_member_of_budget(a, nbhd, budget) is None
        assert witness_by_search(a, nbhd, budget) is None

    @settings(deadline=None)
    @given(tie_instances(), st.sets(st.sampled_from([2, 3, 5, 7]), min_size=1), st.integers(1, 3))
    def test_tie_under_a_narrow_budget(self, instance, window, precision):
        a, nbhd, height = instance
        budget = SearchBudget(height, frozenset(window), precision)
        assert witness_by_search(a, nbhd, budget) == first_member_of_budget(a, nbhd, budget)

    CASES = {
        "finite": (embed_rational(1), Neighbourhood({2: PadicBall(2, F(0), 3), 3: PadicBall(3, F(1), 1)}), 100, F(16)),
        "clipped full": (
            full({2: F(0)}, DefaultSpec.rational(1), F(1)),
            Neighbourhood({3: PadicBall(3, F(2), 1)}, real_interval=(F(5), F(6))),
            60,
            F(23, 4),
        ),
        "zero-real full": (
            full({2: F(1, 2)}, DefaultSpec.rational(1), F(0)),
            Neighbourhood({3: PadicBall(3, F(2), 1)}, real_interval=(F(-1), F(1))),
            60,
            F(2),
        ),
        "times_p": (finite({}, DefaultSpec.times_p(1)), Neighbourhood({2: PadicBall(2, F(1), 1)}), 50, F(1, 2)),
        "zero": (finite({3: F(1, 3)}, DefaultSpec.zero()), Neighbourhood({3: PadicBall(3, F(1), 1)}), 50, F(3)),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_builds_no_scaled_adele(self, case, monkeypatch):
        a, nbhd, height, expected = self.CASES[case]
        assert nbhd.contains(scale(expected, a))

        def forbidden(*args):
            raise AssertionError("membership must not build r * a")

        for original in (adele.scale, padic.prime_factors):
            for name, module in list(sys.modules.items()):
                if name == "adelic" or name.startswith("adelic."):
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            monkeypatch.setattr(module, attr, forbidden)
        monkeypatch.setattr(Neighbourhood, "contains", forbidden)
        assert witness_by_search(a, nbhd, SearchBudget(height)) == expected


def reduced_fractions(d, negative, first, last):
    """The reduced n / d with first <= n <= last, keyed in search order."""
    for n in range(first, last + 1):
        if gcd(n, d) == 1:
            yield (max(n, d), n, d, negative)


def generator_scan(a, nbhd, budget):
    """The reference: the scan as it was before its streams became heap
    entries.  Each (denominator, sign) pair is a generator of reduced
    fractions clipped to the real interval by Fraction division, pulled
    into one heap, and each candidate recomputes the modulus at every
    place, the places read in two passes.  The denominators come from
    oracle._smooth_denominators, which TestLazyAdmission checks against
    sorted_smooth."""
    full = isinstance(a, FullAdele)
    primes = [p for p in _allowed_denominator_primes(a, budget)
              if p in nbhd.balls or valuation(a.component(p), p) > 0]
    bound, places = budget.height_bound, []
    bits = bound.bit_length()
    for p in sorted(nbhd.balls.keys() | a.explicit.keys() | set(primes)):
        ball = nbhd.balls.get(p)
        centre, radius = (ball.center, ball.radius_exponent) if ball else (0, 0)
        (A, B), (C, D) = a.component(p).as_integer_ratio(), centre.as_integer_ratio()
        k = radius + valuation(B * D, p)
        if A:
            places.append((p ** bits, p ** max(k, 0), p ** max(-k, 0), A * D, B * C))
        elif C % p ** max(k, 0):
            return None
    if full and a.real_part == 0 and not nbhd.real_interval[0] < 0 < nbhd.real_interval[1]:
        return None

    clips = []
    for sign in (1, -1) if full else (1,):
        ends = (0, bound + 1)
        if full and a.real_part != 0:
            ends = sorted(end / (sign * a.real_part) for end in nbhd.real_interval)
        clips.append((sign < 0, *ends[0].as_integer_ratio(), *ends[1].as_integer_ratio()))
    heap = []

    def push(stream):
        key = next(stream, None)
        if key is not None:
            heapq.heappush(heap, (key, stream))

    for d in chain(oracle._smooth_denominators(primes, bound, budget.precision), [bound + 1]):
        while heap and heap[0][0][0] < d:
            (_, n, dn, negative), stream = heapq.heappop(heap)
            m = -n if negative else n
            if not any((m * ad - dn * bc) % max(1, gcd(dn, big) * up // down) for big, up, down, ad, bc in places):
                return Fraction(m, dn)
            push(stream)
        if d > bound:
            break
        for negative, xn, xd, yn, yd in clips:
            push(reduced_fractions(d, negative, max(1, xn * d // xd + 1), min(bound, -(-yn * d // yd) - 1)))
    return None


SMALL_VALUES = [F(1), F(2), F(3), F(5), F(6), F(-1), F(1, 7)]


@st.composite
def bench_sized_instances(draw):
    """An instance of one of the crosscheck shapes: a finite adele, Case I
    (an explicit zero), Case II (a times_p default), a closed orbit (a unit
    idele) or a closed miss.  Balls at one or two of 2, 3, 5 are centred
    on r0 * a_p for a planted r0 of height <= 12; the real part is zero
    (Cases I and II) or of either sign, and the interval lies around
    r0 * a_oo, at or below 0, or across 0."""
    shape = draw(st.sampled_from(["finite", "case I", "case II", "closed", "closed miss"]))
    if shape == "closed miss":
        return draw(closed_miss_instances())[:2]
    ball_primes = draw(st.lists(st.sampled_from([2, 3, 5]), min_size=1, max_size=2, unique=True))
    if shape == "closed":
        units = draw(st.dictionaries(st.sampled_from(PLACES), st.sampled_from(UNITS), max_size=2))
        fin = finite({p: x for p, x in units.items() if valuation(x, p) == 0}, DefaultSpec.rational(1))
    elif shape == "case II":
        fin = finite({}, DefaultSpec.times_p(draw(st.sampled_from([1, -1, 2]))))
    else:
        explicit = draw(st.dictionaries(st.sampled_from([2, 3, 5]), st.sampled_from(SMALL_VALUES), max_size=2))
        if shape == "case I" or draw(st.booleans()):
            explicit[draw(st.sampled_from([2, 3, 5, 7]))] = F(0)
        fin = finite(explicit, DefaultSpec.rational(1))
    r0 = F(draw(st.integers(1, 12)), draw(st.sampled_from(ball_primes)) ** draw(st.integers(0, 1)))
    balls = {p: PadicBall(p, fin.component(p) * r0, draw(st.integers(1, 3))) for p in ball_primes}
    if shape == "finite":
        return fin, Neighbourhood(balls)
    r0 *= draw(st.sampled_from([1, -1]))
    real = draw(st.sampled_from([F(1), F(-1), F(2), F(-3, 2), F(11), F(-25, 3)] + [F(0)] * (shape != "closed")))
    width = draw(st.sampled_from([F(1, 128), F(1, 64), F(1, 8), F(1)]))
    place = draw(st.sampled_from(["around r0", "at or below 0", "across 0"]))
    if place == "around r0":
        lo = r0 * real - width * F(draw(st.integers(1, 7)), 8)
    elif place == "at or below 0":
        lo = -F(draw(st.integers(0, 8)), 8) - width
    else:
        lo = -width * F(draw(st.integers(1, 7)), 8)
    return FullAdele(fin, real), Neighbourhood(balls, real_interval=(lo, lo + width))


class TestBenchSizedBudgets:
    """The scan against the generator scan it replaced, at the benchmark's
    height bound 10**4: past the reach of first_member_by_height."""

    @pytest.mark.parametrize("precision", [3, 13])
    @settings(deadline=None)
    @given(instance=bench_sized_instances())
    def test_agrees_with_the_generator_scan(self, precision, instance):
        a, nbhd = instance
        budget = SearchBudget(10**4, precision=precision)
        assert witness_by_search(a, nbhd, budget) == generator_scan(a, nbhd, budget)


def sorted_smooth(primes, bound, max_exp):
    """The reference: every product of the primes, each to at most
    max_exp, up to the bound, built prime by prime and then sorted."""
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


class TestLazyAdmission:
    SPEC = (embed_rational(1), Neighbourhood({2: PadicBall(2, F(0), 3), 3: PadicBall(3, F(1), 1)}))

    def test_huge_budget_answers_at_once(self, deadline):
        a, nbhd = self.SPEC
        with deadline(1):
            assert witness_by_search(a, nbhd, SearchBudget(10**60, precision=200)) == 16

    def test_fruitless_clipped_search_walks_no_inadmissible_denominator(self, deadline):
        # r * 1 integral at every prime leaves only d = 1, and (1/3, 1/2) holds no integer
        nbhd = Neighbourhood({}, real_interval=(F(1, 3), F(1, 2)))
        with deadline(1):
            assert witness_by_search(embed_rational(1, kind="full"), nbhd, SearchBudget(10**5)) is None

    @staticmethod
    def record_streams(monkeypatch):
        """The (d, negative) of every stream the search opens.  A stream opens
        as a heap entry (height, n, d, negative, last, tests) pushed with
        heappush; it advances by heapreplace, and the smooth denominators'
        own heap holds triples."""
        opened = []

        def heappush(heap, entry):
            if len(entry) == 6:
                opened.append(entry[2:4])
            heapq.heappush(heap, entry)

        shim = SimpleNamespace(heappush=heappush, heappop=heapq.heappop, heapreplace=heapq.heapreplace)
        monkeypatch.setattr(oracle, "heapq", shim)
        return opened

    @pytest.mark.parametrize("budget", [SearchBudget(100), SearchBudget(10**60, precision=200)])
    def test_opens_no_stream_above_the_answer(self, budget, monkeypatch, deadline):
        a, nbhd = self.SPEC
        streams = self.record_streams(monkeypatch)
        with deadline(1):
            assert witness_by_search(a, nbhd, budget) == 16
        opened = [d for d, _ in streams]
        # one stream per admissible denominator up to the answer's height 16; off
        # the balls at 2 and 3 every component is a unit, so no other prime enters
        assert opened == sorted_smooth([2, 3], 16, budget.precision)

    @pytest.mark.parametrize("real, answer", [(1, 16), (-1, -8)])  # -8 = 1 - 9 lies in B(1, 1) at 3
    @pytest.mark.parametrize("budget", [SearchBudget(100), SearchBudget(10**60, precision=200)])
    def test_a_one_sided_interval_opens_no_stream_of_the_other_sign(self, real, answer, budget, monkeypatch, deadline):
        # r * real in (0, 100) holds only r of real's sign, so only that sign's
        # streams open: one per admissible denominator up to the answer's height
        a = FullAdele(embed_rational(1), F(real))
        nbhd = Neighbourhood(self.SPEC[1].balls, real_interval=(F(0), F(100)))
        opened = self.record_streams(monkeypatch)
        with deadline(1):
            assert witness_by_search(a, nbhd, budget) == answer
        assert opened == [(d, real < 0) for d in sorted_smooth([2, 3], abs(answer), budget.precision)]

    @pytest.mark.parametrize("primes", [[], [2], [3], [2, 3], [5, 7, 17], [2, 3, 5, 7, 11, 13]])
    @pytest.mark.parametrize("max_exp", [1, 2, 3, 7])
    def test_ascending_denominators_match_the_sorted_list(self, primes, max_exp):
        # 12, 16, 36, 360, 1000 and 10**4 are themselves smooth
        for bound in [1, 2, 7, 12, 16, 36, 100, 360, 1000, 1001, 10**4]:
            expected = sorted_smooth(primes, bound, max_exp)
            assert list(oracle._smooth_denominators(primes, bound, max_exp)) == expected


class TestSearchBound:
    """A search that cannot succeed under a huge height bound refuses once
    its candidates and denominators spend _SEARCH_STEPS, with the code
    work_bound_exceeded."""

    # every member needs v_2(r) = -10, and precision 1 admits 2 only once
    ADELE, NBHD = embed_rational(1), Neighbourhood({2: PadicBall(2, F(1, 1024), 20)})
    DETAIL = f"the witness search exceeds the bound of {oracle._SEARCH_STEPS} steps"

    def test_fruitless_candidates_in_process(self, deadline):
        with deadline(1), pytest.raises(WorkBoundExceeded) as info:
            witness_by_search(self.ADELE, self.NBHD, SearchBudget(10**12, precision=1))
        assert info.value.code == "work_bound_exceeded" and str(info.value) == self.DETAIL

    def test_fruitless_candidates_through_the_cli(self, deadline, capsys):
        adele = json.dumps({"explicit": {}, "default": {"kind": "rational", "q": "1"}})
        nbhd = json.dumps({"balls": {"2": {"center": "1/1024", "radius_exponent": 20}}})
        argv = ["oracle-witness", "--adele", adele, "--nbhd", nbhd, "--height-bound", str(10**12), "--precision", "1"]
        with deadline(1):
            code = cli.main(argv)
        out = capsys.readouterr().out
        assert code == 2 and out.count("\n") == 1
        assert json.loads(out) == {"error": {"code": "work_bound_exceeded", "detail": self.DETAIL}}

    def test_denominators_that_open_no_stream_count(self, deadline):
        # (0, 10**-30) holds no n / d below d = 10**30, so the denominators
        # before it open nothing: they alone spend the bound
        nbhd = Neighbourhood({p: PadicBall(p, F(0), -200) for p in (2, 3, 5, 7, 11, 13)},
                             real_interval=(F(0), F(1, 10**30)))
        with deadline(1), pytest.raises(WorkBoundExceeded, match=self.DETAIL):
            witness_by_search(embed_rational(1, kind="full"), nbhd, SearchBudget(10**60, precision=200))

    def test_a_search_inside_the_bound_still_ends_in_none(self, deadline):
        # the same search under a height bound of 2**11: 2, the one prime with
        # a ball, admits the denominators 1 and 2, whose streams end in time
        with deadline(1):
            assert witness_by_search(self.ADELE, self.NBHD, SearchBudget(2**11, precision=1)) is None


class TestOracleAgainstConstruction:
    def agree(self, a, nbhd, budget):
        found = witness_by_search(a, nbhd, budget)
        try:
            built = approx_witness(a, nbhd)
        except (Infeasible, ClosedOrbitMiss):
            built = None
        assert (found is None) == (built is None)
        if built is not None:
            assert nbhd.contains(scale(built, a))
            assert nbhd.contains(scale(found, a))

    def test_finite_instances(self):
        budget = SearchBudget(height_bound=400, prime_window=frozenset({2, 3, 5}))
        cases = [
            (embed_rational(1), Neighbourhood({2: PadicBall(2, F(0), 2), 3: PadicBall(3, F(1), 1)})),
            (finite({2: F(0)}, DefaultSpec.rational(1)), Neighbourhood({2: PadicBall(2, F(1), 1)})),
            (finite({5: F(1, 5)}, DefaultSpec.rational(1)), Neighbourhood({3: PadicBall(3, F(2), 1)})),
            (finite({}, DefaultSpec.zero()), Neighbourhood({2: PadicBall(2, F(0), 2)})),
        ]
        for a, nbhd in cases:
            self.agree(a, nbhd, budget)

    def test_full_instances(self):
        budget = SearchBudget(height_bound=200, prime_window=frozenset({2, 3, 5}))
        cases = [
            (
                full({2: F(0)}, DefaultSpec.rational(1), F(1)),
                Neighbourhood({3: PadicBall(3, F(2), 1)}, real_interval=(F(5), F(6))),
            ),
            (
                full({}, DefaultSpec.times_p(1), F(1)),
                Neighbourhood({2: PadicBall(2, F(1), 1)}, real_interval=(F(1), F(2))),
            ),
            (
                embed_rational(3, kind="full"),
                Neighbourhood({2: PadicBall(2, F(1), 1)}, real_interval=(F(1, 2), F(2))),
            ),
        ]
        for a, nbhd in cases:
            self.agree(a, nbhd, budget)


class TestWindowClosure:
    def test_derived_example(self):
        # enumerate all four subsets of {2,3} against all four basic opens
        result = window_closure([PrimeSet.finite({2})], {2, 3})
        assert result == [PrimeSet.finite({2}), PrimeSet.finite({2, 3})]

    def test_repeated_place_counts_once(self):
        points = [PrimeSet.finite({2})]
        assert window_closure(points, [2, 3, 2]) == window_closure(points, [2, 3])

    def test_empty_points(self):
        assert window_closure([], {2, 3}) == []

    def test_up_set_of_empty(self):
        result = window_closure([PrimeSet.finite(())], {2})
        assert result == [PrimeSet.finite(()), PrimeSet.finite({2})]

    def test_infinity_in_window(self):
        from adelic.adele import EXTENDED_PRIMES

        pt = PrimeSet.finite({INFINITY}, base=EXTENDED_PRIMES)
        result = window_closure([pt], {Prime(2), INFINITY})
        assert pt in result
        assert PrimeSet.finite({Prime(2), INFINITY}, base=EXTENDED_PRIMES) in result
        assert PrimeSet.finite((), base=EXTENDED_PRIMES) not in result

    def test_point_outside_window_rejected(self):
        with pytest.raises(ValueError):
            window_closure([PrimeSet.finite({5})], {2, 3})

    def test_cofinite_rejected(self):
        with pytest.raises(ValueError):
            window_closure([PrimeSet.cofinite()], {2})

    def test_points_of_two_bases_rejected(self):
        with pytest.raises(ValueError):
            window_closure([PrimeSet.finite({2}), PrimeSet.finite({2}, base=EXTENDED_PRIMES)], {2})

    INF_DETAIL = "a window holding inf needs points over the extended primes"

    def test_finite_points_refuse_inf_in_the_window(self, deadline):
        # every point has a superset holding inf, which no finite-base set
        # is: refused with the point checks, before the 4**n scan
        ten = [p for p in range(2, 24) if is_prime(p)] + [INFINITY]
        assert len(ten) == 10
        with deadline(1), pytest.raises(ValueError) as info:
            window_closure([PrimeSet.finite({2})], ten)
        assert str(info.value) == self.INF_DETAIL
        # a stray point is still the first complaint, and no points still answer
        with pytest.raises(ValueError, match="strays outside the window"):
            window_closure([PrimeSet.finite({5})], [2, INFINITY])
        assert window_closure([], [2, INFINITY]) == []

    def test_finite_points_refuse_inf_through_the_cli(self, capsys):
        points = json.dumps([{"base": "finite", "kind": "finite", "members": ["2"]}])
        code = cli.main(["oracle-window", "--points", points, "--window", "2,inf"])
        out = capsys.readouterr().out
        assert code == 1 and out.count("\n") == 1
        assert json.loads(out) == {"error": {"code": "invalid_input", "detail": self.INF_DETAIL}}


def _reference_window_closure(points, window):
    """The window oracle as an explicit loop, the reference of the
    differential below: a hand-built power set, rebuilt for every
    candidate T, and a keep flag that the first U_G missing the points
    clears.  Past its point checks a finite-base window holding inf fails
    only when it builds the answer."""
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


_WINDOW_PLACES = [Prime(p) for p in (2, 3, 5, 7, 11, 13)] + [INFINITY]


@st.composite
def _window_point(draw, window):
    base = draw(st.sampled_from([adele.FINITE_PRIMES, EXTENDED_PRIMES]))
    kind = draw(st.sampled_from(["finite", "cofinite"]))
    places = window + [Prime(17)]  # 17 strays outside every window
    if base == adele.FINITE_PRIMES:
        places = [p for p in places if p is not INFINITY]
    return PrimeSet(base, kind, frozenset(draw(st.lists(st.sampled_from(places), max_size=3))))


class TestWindowClosureDifferential:
    @settings(deadline=None, max_examples=300)
    @given(st.data())
    def test_matches_the_reference_loop(self, data):
        window = data.draw(st.lists(st.sampled_from(_WINDOW_PLACES), max_size=6))
        points = data.draw(st.lists(_window_point(window), max_size=3))

        def outcome(f):
            try:
                return f(points, window)
            except Exception as exc:
                return type(exc), str(exc)

        expected, got = outcome(_reference_window_closure), outcome(window_closure)
        if expected == (ValueError, "INFINITY only belongs to the extended primes"):
            # the reference fails building its answer; the oracle refuses up front
            expected = (ValueError, TestWindowClosure.INF_DETAIL)
        assert got == expected


class TestWindowBound:
    """The window oracle does 4**n work for n places, so past 10 places it
    refuses before doing any, with the code work_bound_exceeded."""

    TWENTY = [p for p in range(2, 72) if is_prime(p)]
    DETAIL = "a window of 20 places exceeds the bound of 10"

    def test_twenty_places_in_process(self, deadline):
        assert len(self.TWENTY) == 20
        with deadline(1), pytest.raises(WorkBoundExceeded) as info:
            window_closure([PrimeSet.finite({2})], self.TWENTY)
        assert info.value.code == "work_bound_exceeded" and str(info.value) == self.DETAIL

    def test_twenty_places_through_the_cli(self, deadline, capsys):
        points = json.dumps([{"base": "finite", "kind": "finite", "members": ["2"]}])
        window = ",".join(map(str, self.TWENTY))
        with deadline(1):
            code = cli.main(["oracle-window", "--points", points, "--window", window])
        out = capsys.readouterr().out
        assert code == 2 and out.count("\n") == 1
        assert json.loads(out) == {"error": {"code": "work_bound_exceeded", "detail": self.DETAIL}}

    def test_the_bound_counts_distinct_places(self, deadline):
        # ten places, one repeated, pass the bound: the stray point is the
        # next check, and it answers at once
        ten = self.TWENTY[:10] + [2]
        with deadline(1), pytest.raises(ValueError, match="strays outside the window"):
            window_closure([PrimeSet.finite({self.TWENTY[10]})], ten)
        with deadline(1), pytest.raises(WorkBoundExceeded):
            window_closure([PrimeSet.finite({2})], self.TWENTY[:11])

    def up_set(self, points, window):
        """{T inside the window : some point inside T}, the closure formula."""
        subsets = (frozenset(c) for k in range(len(window) + 1) for c in combinations(window, k))
        return {t for t in subsets if any(s.members <= t for s in points)}

    def test_ten_places_answer_in_process(self, deadline):
        ten, points = self.TWENTY[:10], [PrimeSet.finite({2}), PrimeSet.finite({3, 29})]
        with deadline(1):
            result = window_closure(points, ten)
        assert [s.members for s in result] == sorted(self.up_set(points, ten), key=lambda t: PrimeSet.finite(t).sort_key())
        assert len(result) == 512 + 128

    def test_ten_places_answer_through_the_cli(self, deadline, capsys):
        ten, points = self.TWENTY[:10], [PrimeSet.finite({2}), PrimeSet.finite({3, 29})]
        doc = json.dumps([{"base": "finite", "kind": "finite", "members": ["2"]},
                          {"base": "finite", "kind": "finite", "members": ["3", "29"]}])
        with deadline(1):
            code = cli.main(["oracle-window", "--points", doc, "--window", ",".join(map(str, ten))])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert {frozenset(Prime(int(p)) for p in s["members"]) for s in out["closure"]} == self.up_set(points, ten)
        assert len(out["closure"]) == 512 + 128
