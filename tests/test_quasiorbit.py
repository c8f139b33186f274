import itertools
import math
import signal
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adelic import adele, jsonio, padic, quasiorbit
from adelic.adele import (
    DefaultSpec,
    FiniteAdele,
    FullAdele,
    Neighbourhood,
    PrimeSet,
    UnitIdele,
    absolute_value,
    embed_rational,
    factor_idele,
    is_invertible,
    scale,
    zero_set,
)
from adelic.errors import ClosedOrbitMiss, Infeasible, NotIntegral, NotInvertible
from adelic.oracle import SearchBudget, witness_by_search
from adelic.padic import INFINITY, PadicBall, Prime, is_prime, valuation
from adelic.quasiorbit import (
    FULL_GROUP,
    TRIVIAL,
    ParameterPoint,
    approx_witness,
    chi,
    exact_orbit_witness,
    is_zero_divisor,
    isotropy,
    orbit_closure_contains,
    same_quasi_orbit,
)

F = Fraction

small_nonzero = st.fractions(
    min_value=F(-40), max_value=F(40), max_denominator=24
).filter(lambda q: q != 0)


def finite(explicit, default):
    return FiniteAdele(explicit, default)


def full(explicit, default, real):
    return FullAdele(FiniteAdele(explicit, default), real)


ONES = UnitIdele(FiniteAdele({}, DefaultSpec.rational(1)), F(1))


class TestIsotropy:
    def test_zero_adele(self):
        assert isotropy(embed_rational(0)) == FULL_GROUP
        assert isotropy(embed_rational(0, kind="full")) == FULL_GROUP

    def test_nonzero(self):
        assert isotropy(embed_rational(1)) == TRIVIAL
        assert isotropy(finite({2: F(0)}, DefaultSpec.rational(1))) == TRIVIAL


class TestOrbitClosureFinite:
    def test_zero_set_containment(self):
        a = finite({2: F(0)}, DefaultSpec.rational(1))
        b = finite({2: F(0), 3: F(0)}, DefaultSpec.rational(1))
        assert orbit_closure_contains(a, b)
        assert not orbit_closure_contains(b, a)

    def test_closure_of_zero_is_zero(self):
        assert not orbit_closure_contains(embed_rational(0), embed_rational(1))
        assert orbit_closure_contains(embed_rational(0), embed_rational(0))
        assert orbit_closure_contains(embed_rational(1), embed_rational(0))

    def test_kind_mismatch(self):
        with pytest.raises(ValueError):
            orbit_closure_contains(embed_rational(1), embed_rational(1, kind="full"))


class TestOrbitClosureFull:
    def test_invertible_orbit_is_exact(self):
        b = embed_rational(3, kind="full")
        assert orbit_closure_contains(ONES, b)
        stray = UnitIdele(FiniteAdele({2: F(3)}, DefaultSpec.rational(1)), F(1))
        # derived check: the only scaling candidate is the real quotient 1,
        # and 1 * ONES differs from stray at p=2
        assert exact_orbit_witness(ONES, stray) is None
        assert not orbit_closure_contains(ONES, stray)

    def test_noninvertible_closure(self):
        a = full({2: F(0)}, DefaultSpec.rational(1), F(1))
        b = full({2: F(0), 3: F(0)}, DefaultSpec.rational(1), F(0))
        assert orbit_closure_contains(a, b)
        assert not orbit_closure_contains(b, a)

    def test_dense_noninvertible_orbit(self):
        # no vanishing coordinate: the closure is everything
        a = full({}, DefaultSpec.times_p(1), F(1))
        assert orbit_closure_contains(a, embed_rational(7, kind="full"))
        assert orbit_closure_contains(a, embed_rational(0, kind="full"))


class TestSameQuasiOrbit:
    def test_equal_zero_sets(self):
        a = finite({5: F(0)}, DefaultSpec.rational(1))
        b = finite({5: F(0), 2: F(2)}, DefaultSpec.rational(2))
        assert same_quasi_orbit(a, b)

    @given(small_nonzero)
    def test_scaling_stays_in_quasi_orbit(self, r):
        a = embed_rational(F(7, 3), kind="full")
        assert same_quasi_orbit(a, scale(r, a))

    def test_invertibility_is_invariant(self):
        a = embed_rational(2, kind="full")
        b = full({2: F(0)}, DefaultSpec.rational(1), F(1))
        assert not same_quasi_orbit(a, b)


class TestChi:
    def test_invertible_goes_to_unit(self):
        point = chi(embed_rational(-2, kind="full"))
        assert point == ParameterPoint.of_unit(ONES)

    def test_noninvertible_goes_to_zero_set(self):
        a = full({2: F(0)}, DefaultSpec.rational(1), F(0))
        point = chi(a)
        assert point.kind == "prime_set"
        assert point.prime_set == PrimeSet.finite({2, INFINITY}, adele.EXTENDED_PRIMES)

    def test_paper_sequence_real_coordinate(self):
        # the n-th term carries p_n at p_n and 1 elsewhere; its unit
        # representative has real coordinate 1/p_n
        for p in (2, 3, 5, 7, 11):
            a = full({p: F(p)}, DefaultSpec.rational(1), F(1))
            point = chi(a)
            assert point.kind == "unit_class"
            assert point.unit.real_part == F(1, p)
            assert point.unit.component(p) == 1

    @given(small_nonzero)
    def test_chi_is_orbit_invariant(self, r):
        inv = embed_rational(F(3, 2), kind="full")
        noninv = full({3: F(0), 2: F(2)}, DefaultSpec.rational(2), F(5))
        for a in (inv, noninv):
            assert chi(scale(r, a)) == chi(a)


class TestExactWitness:
    def test_simple(self):
        assert exact_orbit_witness(embed_rational(2), embed_rational(6)) == 3

    def test_identity(self):
        a = finite({2: F(0), 3: F(3)}, DefaultSpec.rational(3))
        assert exact_orbit_witness(a, a) == 1

    def test_positive_only_for_finite(self):
        assert exact_orbit_witness(embed_rational(2), embed_rational(-2)) is None
        a = embed_rational(2, kind="full")
        b = embed_rational(-2, kind="full")
        assert exact_orbit_witness(a, b) == -1

    def test_zero_cases(self):
        z = embed_rational(0)
        assert exact_orbit_witness(z, z) == 1
        assert exact_orbit_witness(z, embed_rational(1)) is None

    def test_mismatched_defaults(self):
        a = finite({}, DefaultSpec.rational(1))
        b = finite({}, DefaultSpec.times_p(1))
        assert exact_orbit_witness(a, b) is None

    @pytest.mark.parametrize(
        "qa, qb, r",
        [
            (DefaultSpec.rational(2), DefaultSpec.rational(6), 3),
            (DefaultSpec.times_p(2), DefaultSpec.times_p(10), 5),
        ],
    )
    def test_ratio_of_the_default_rules(self, qa, qb, r):
        # a nonzero default forces r = q_b / q_a
        assert exact_orbit_witness(finite({}, qa), finite({}, qb)) == r

    def test_a_zero_of_b_that_a_lacks_refutes_the_candidate(self):
        # the default forces r = 2, which cannot map a_3 = 3 to b_3 = 0
        a = finite({3: F(3)}, DefaultSpec.rational(1))
        assert exact_orbit_witness(a, finite({3: F(0)}, DefaultSpec.rational(2))) is None
        # under a ZERO default the first explicit entry forces r = 2; b vanishes at 5, a does not
        a = finite({2: F(1), 5: F(7)}, DefaultSpec.zero())
        assert exact_orbit_witness(a, finite({2: F(2)}, DefaultSpec.zero())) is None
        assert exact_orbit_witness(a, finite({2: F(2), 5: F(14)}, DefaultSpec.zero())) == 2

    def test_a_forced_negative_witness_is_refused_on_finite_adeles(self):
        a = finite({3: F(1, 3)}, DefaultSpec.rational(F(2, 3)))
        b = finite({3: F(-1, 3)}, DefaultSpec.rational(F(-2, 3)))
        assert exact_orbit_witness(a, b) is None  # the defaults force r = -1
        assert exact_orbit_witness(FullAdele(a, 1), FullAdele(b, -1)) == -1
        zero_default = finite({7: F(2)}, DefaultSpec.zero())
        assert exact_orbit_witness(zero_default, finite({7: F(-4)}, DefaultSpec.zero())) is None

    def test_mismatched_real_parts(self):
        # the default rule forces r = 1, which the real parts refute
        a = full({2: F(3)}, DefaultSpec.rational(1), F(0))
        assert exact_orbit_witness(a, full({2: F(3)}, DefaultSpec.rational(1), F(1))) is None

    @given(small_nonzero)
    def test_uniqueness_roundtrip(self, r):
        a = full({2: F(0), 5: F(5)}, DefaultSpec.rational(5), F(2))
        assert exact_orbit_witness(a, scale(r, a)) == r

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_agrees_with_the_candidate_walk(self, data):
        a, b = data.draw(orbit_pairs())
        r = _outcome(exact_orbit_witness, a, b)
        assert r == _outcome(_candidate_walk, a, b)
        if isinstance(r, Fraction):
            assert scale(r, a) == b


WITNESS_PRIMES = (2, 3, 5, 7)
small_value = st.fractions(min_value=F(-6), max_value=F(6), max_denominator=6)


@st.composite
def small_adeles(draw, is_full):
    """Explicit entries (zeros among them) at a few small primes, a default
    of any kind whose denominator the explicit primes cover, and a real
    part that may vanish."""
    explicit = draw(st.dictionaries(st.sampled_from(WITNESS_PRIMES), small_value, max_size=3))
    kind = draw(st.sampled_from([adele.ZERO, adele.RATIONAL, adele.TIMES_P]))
    if kind == adele.ZERO:
        default = DefaultSpec.zero()
    else:
        denominator = math.prod(draw(st.sets(st.sampled_from(sorted(explicit))))) if explicit else 1
        numerator = draw(st.integers(-6, 6).filter(bool))
        default = DefaultSpec(kind, F(numerator, denominator))
    fin = FiniteAdele(explicit, default)
    return FullAdele(fin, draw(small_value)) if is_full else fin


@st.composite
def orbit_pairs(draw):
    """(a, b): b is a scaled copy of a (r of either sign), a scaled copy
    changed at one place, a itself, an unrelated adele, or one of the
    other kind."""
    is_full = draw(st.booleans())
    a = draw(small_adeles(is_full))
    how = draw(st.sampled_from(["scaled", "perturbed", "same", "unrelated", "other kind"]))
    if how == "same":
        return a, a
    if how == "unrelated":
        return a, draw(small_adeles(is_full))
    if how == "other kind":
        return a, draw(small_adeles(not is_full))
    b = scale(draw(small_nonzero), a)
    if how == "scaled":
        return a, b
    place = draw(st.sampled_from(WITNESS_PRIMES + ("default", "real")))
    default, real = b.default, getattr(b, "real_part", None)
    explicit = dict(b.explicit)
    if place == "default":
        q = b.default.q or F(1)
        default = {adele.ZERO: DefaultSpec.rational(1), adele.RATIONAL: DefaultSpec.rational(2 * q),
                   adele.TIMES_P: DefaultSpec.rational(q)}[b.default.kind]
    elif place == "real" and is_full:
        real += 1
    else:
        p = place if place != "real" else 2
        explicit[p] = b.component(p) + 1
    fin = FiniteAdele(explicit, default)
    return a, FullAdele(fin, real) if is_full else fin


def _outcome(witness, a, b):
    try:
        return witness(a, b)
    except ValueError as exc:
        return ("raised", str(exc))


def _candidate_walk(a, b):
    """The earlier exact_orbit_witness: the first candidate from the real
    part, the sorted explicit primes of a and b, or the default rules, then
    a check of the real parts, the default rules and every explicit prime."""
    full = isinstance(a, FullAdele)
    if full != isinstance(b, FullAdele):
        raise ValueError("adeles must both be finite or both be full")
    candidate = None
    if full and a.real_part != 0:
        candidate = b.real_part / a.real_part
    else:
        for p in sorted(a.explicit.keys() | b.explicit.keys()):
            if a.component(p) != 0:
                candidate = b.component(p) / a.component(p)
                break
        else:
            if a.default.kind == adele.ZERO:
                return Fraction(1) if a == b else None
            if b.default.kind == a.default.kind:
                candidate = b.default.q / a.default.q
    if candidate is None or candidate == 0 or (not full and candidate <= 0):
        return None
    r = candidate
    if full and r * a.real_part != b.real_part:
        return None
    if a.default.kind != b.default.kind or (a.default.kind != adele.ZERO and r * a.default.q != b.default.q):
        return None
    return r if all(r * a.component(p) == b.component(p) for p in a.explicit.keys() | b.explicit.keys()) else None


class TestZeroDivisor:
    def test_explicit_zero(self):
        assert is_zero_divisor(finite({2: F(0)}, DefaultSpec.rational(1)))

    def test_embedded_six(self):
        assert not is_zero_divisor(embed_rational(6))

    def test_zero_default(self):
        assert is_zero_divisor(finite({}, DefaultSpec.zero()))

    def test_not_integral(self):
        with pytest.raises(NotIntegral):
            is_zero_divisor(finite({2: F(1, 2)}, DefaultSpec.rational(1)))


class TestApproxWitnessFinite:
    def test_spec_instance(self):
        a = embed_rational(1)
        nbhd = Neighbourhood({2: PadicBall(2, F(0), 3), 3: PadicBall(3, F(1), 1)})
        r = approx_witness(a, nbhd)
        assert r == 16  # canonical: CRT of n = 0 (mod 8), n = 1 (mod 3)
        assert nbhd.contains(scale(r, a))

    def test_neighbourhood_of_self_gives_one(self):
        a = finite({2: F(4), 5: F(1, 5)}, DefaultSpec.rational(4))
        nbhd = Neighbourhood(
            {2: PadicBall(2, F(4), 4), 5: PadicBall(5, F(1, 5), 2)}
        )
        assert approx_witness(a, nbhd) == 1

    def test_infeasible_zero_pattern(self):
        a = finite({2: F(0)}, DefaultSpec.rational(1))
        nbhd = Neighbourhood({2: PadicBall(2, F(1), 1)})
        with pytest.raises(Infeasible):
            approx_witness(a, nbhd)

    def test_infeasible_reports_the_smallest_failing_ball_before_any_rewrite(self, monkeypatch):
        rewrites = []
        monkeypatch.setattr(quasiorbit, "valuation", lambda q, p: rewrites.append(p) or valuation(q, p))
        a = finite({2: F(1, 2), 3: F(7), 5: F(0), 11: F(3, 11), 13: F(0)}, DefaultSpec.rational(1))
        balls = {p: PadicBall(p, F(1), 1) for p in (2, 3, 13, 5)}
        with pytest.raises(Infeasible, match=r"^component at p=5 vanishes but the ball excludes 0$"):
            approx_witness(a, Neighbourhood(balls))
        # the real coordinate comes after the finite balls
        with pytest.raises(Infeasible, match="p=5"):
            approx_witness(FullAdele(a, 0), Neighbourhood(balls, real_interval=(F(1), F(2))))
        assert rewrites == []

    def test_a_zero_default_vanishes_at_a_ball_off_the_explicit_primes(self):
        a = finite({2: F(1)}, DefaultSpec.zero())
        with pytest.raises(Infeasible, match=r"^component at p=3 vanishes but the ball excludes 0$"):
            approx_witness(a, Neighbourhood({3: PadicBall(3, F(1), 1)}))
        # a ball holding 0 is met by every r there
        nbhd = Neighbourhood({2: PadicBall(2, F(1, 2), 1), 3: PadicBall(3, F(0), 5)})
        assert approx_witness(a, nbhd) == F(1, 2)

    def test_a_times_p_ball_off_the_explicit_primes_passes_the_pre_pass(self):
        # a_3 = 3 under TIMES_P(1): it does not vanish, so the ball is rewritten, not refused
        a = finite({2: F(1)}, DefaultSpec.times_p(1))
        nbhd = Neighbourhood({3: PadicBall(3, F(1), 1)})
        r = approx_witness(a, nbhd)
        assert valuation(r, 3) == -1 and nbhd.contains(scale(r, a))

    def test_negative_valuation_off_the_balls(self):
        # the witness must also repair integrality at 7
        a = finite({7: F(1, 7)}, DefaultSpec.rational(1))
        nbhd = Neighbourhood({3: PadicBall(3, F(2), 1)})
        r = approx_witness(a, nbhd)
        assert nbhd.contains(scale(r, a))
        assert r % 7 == 0  # the denominator of a_7 must be cleared

    def test_zero_adele_with_friendly_neighbourhood(self):
        a = embed_rational(0)
        nbhd = Neighbourhood({2: PadicBall(2, F(0), 2)})
        assert approx_witness(a, nbhd) == 1


class TestApproxWitnessFull:
    def test_case_one_spec_instance(self):
        a = full({2: F(0)}, DefaultSpec.rational(1), F(1))
        nbhd = Neighbourhood({3: PadicBall(3, F(2), 1)}, real_interval=(F(5), F(6)))
        r = approx_witness(a, nbhd)
        assert r == F(23, 4)  # canonical Case I value; 23/4 = 2 (mod 3), in (5,6)
        assert nbhd.contains(scale(r, a))

    def test_case_one_with_zero_real_part(self):
        a = full({3: F(0), 2: F(2)}, DefaultSpec.rational(2), F(0))
        nbhd = Neighbourhood(
            {2: PadicBall(2, F(1), 2)}, real_interval=(F(-1), F(1))
        )
        r = approx_witness(a, nbhd)
        assert nbhd.contains(scale(r, a))

    def test_case_two_times_p(self):
        a = full({}, DefaultSpec.times_p(1), F(1))
        nbhd = Neighbourhood(
            {2: PadicBall(2, F(5), 2), 3: PadicBall(3, F(1), 1)},
            real_interval=(F(10), F(21, 2)),
        )
        r = approx_witness(a, nbhd)
        assert nbhd.contains(scale(r, a))

    def test_case_two_walks_the_shared_prime_list(self, monkeypatch):
        # the tail primes come from padic's shared list: once it has grown,
        # a repeated construction sieves nothing in the walk
        monkeypatch.setattr(padic, "_PRIMES", padic._PRIMES[:1])
        walked = []
        sieve = padic._sieve_past

        def sieved(primes):
            walked.append(primes[-1])
            return sieve(primes)

        monkeypatch.setattr(padic, "_sieve_past", sieved)
        a = full({}, DefaultSpec.times_p(1), F(1))
        nbhd = Neighbourhood({2: PadicBall(2, F(5), 2), 3: PadicBall(3, F(1), 1)}, real_interval=(F(10), F(10) + F(1, 10**40)))
        first = approx_witness(a, nbhd)
        assert walked and nbhd.contains(scale(first, a))
        walked.clear()
        assert approx_witness(a, nbhd) == first
        assert walked == []

    def test_interval_excluding_zero_with_vanishing_real(self):
        a = full({2: F(0)}, DefaultSpec.rational(1), F(0))
        nbhd = Neighbourhood({}, real_interval=(F(1), F(2)))
        with pytest.raises(Infeasible):
            approx_witness(a, nbhd)

    def test_invertible_hit(self):
        a = embed_rational(3, kind="full")
        nbhd = Neighbourhood(
            {2: PadicBall(2, F(1), 2)}, real_interval=(F(1, 2), F(3, 2))
        )
        r = approx_witness(a, nbhd)
        assert r == F(1, 3)
        assert nbhd.contains(scale(r, a))

    def test_invertible_miss(self):
        stray = UnitIdele(FiniteAdele({2: F(3)}, DefaultSpec.rational(1)), F(1))
        nbhd = Neighbourhood(
            {2: PadicBall(2, F(1), 3)}, real_interval=(F(7, 8), F(9, 8))
        )
        # the neighbourhood pins the orbit of ONES at r = 1, which misses stray
        with pytest.raises(ClosedOrbitMiss):
            approx_witness(stray, nbhd)

    def test_negative_real_part(self):
        a = full({2: F(0)}, DefaultSpec.rational(1), F(-3))
        nbhd = Neighbourhood(
            {3: PadicBall(3, F(1), 1)}, real_interval=(F(2), F(3))
        )
        r = approx_witness(a, nbhd)
        assert r < 0
        assert nbhd.contains(scale(r, a))

    def test_interval_discipline(self):
        with pytest.raises(ValueError):
            approx_witness(embed_rational(1, kind="full"), Neighbourhood({}))
        with pytest.raises(ValueError):
            approx_witness(
                embed_rational(1), Neighbourhood({}, real_interval=(F(0), F(1)))
            )


def closed_denominator(balls):
    """The denominator that every closed-orbit scaling t of a unit needs."""
    return math.prod(
        int(p) ** max(0, -min(ball.radius_exponent, valuation(ball.center, p)))
        for p, ball in balls.items()
    )


def first_scan_hit(a, nbhd):
    """Reference for closed orbits: with a = r0 * u, the first t = n/D in
    ascending n whose scaling of u lands in nbhd, divided by r0."""
    r0, u = factor_idele(a)
    D = closed_denominator(nbhd.balls)
    lo, hi = (x * D / u.real_part for x in nbhd.real_interval)
    for n in range(math.floor(lo) + 1, math.ceil(hi)):
        if n and nbhd.contains(scale(F(n, D), u)):
            return F(n, D) / r0
    return None


# small_closed_instances' strategies, built once rather than on every draw
CLOSED_EXPLICIT = st.dictionaries(st.sampled_from([2, 3, 5]), small_nonzero, max_size=2)
CLOSED_SIGNS = st.sampled_from([1, -1])
CLOSED_BALLS = st.dictionaries(
    st.sampled_from([2, 3, 5, 7]),
    st.tuples(
        st.fractions(min_value=-20, max_value=20, max_denominator=8),
        st.integers(-1, 4),
    ),
    max_size=2,
)
COUNT_EXPONENTS = st.integers(0, 4)
COUNTS = [st.integers(1, 10**k) for k in range(5)]
START_OFFSETS = st.fractions(min_value=0, max_value=1, max_denominator=6)


@st.composite
def small_closed_instances(draw):
    """An invertible full adele and a neighbourhood with at most 10^4
    candidates n/D in its real interval."""
    explicit = draw(CLOSED_EXPLICIT)
    a = full(explicit, DefaultSpec.rational(draw(CLOSED_SIGNS)), draw(small_nonzero))
    balls = {p: PadicBall(p, center, e) for p, (center, e) in draw(CLOSED_BALLS).items()}
    _, u = factor_idele(a)
    D = closed_denominator(balls)
    count = draw(COUNTS[draw(COUNT_EXPONENTS)])
    start = draw(st.integers(-count - 60, 60))
    lo_t = F(start, D) + draw(START_OFFSETS) / D
    interval = (lo_t * u.real_part, (lo_t + F(count, D)) * u.real_part)
    return a, Neighbourhood(balls, real_interval=interval)


class TestProgression:
    """The CRT progression in the closed case and in the refinement step."""

    def test_closed_orbit_far_from_the_interval_start(self):
        # a million candidates n/1024 lie in (0, 1000); 1/1024 is the first
        one = full({}, DefaultSpec.rational(1), F(1))
        nbhd = Neighbourhood({2: PadicBall(2, F(1, 1024), 3)}, real_interval=(F(0), F(1000)))
        assert approx_witness(one, nbhd) == F(1, 1024)

    def test_closed_orbit_admits_every_denominator_its_balls_allow(self):
        # B(0, -1) at 2 allows t = 1/2 without forcing it; only 1/2 lies in (1/4, 1)
        nbhd = Neighbourhood({2: PadicBall(2, F(0), -1)}, real_interval=(F(1, 4), F(1)))
        assert approx_witness(embed_rational(1, "full"), nbhd) == F(1, 2)

    def test_dense_orbit_takes_only_the_denominators_its_balls_force(self):
        # 1 * 4 lies in B(0, 1) at 2, so the canonical witness keeps denominator 1
        a = finite({2: F(4)}, DefaultSpec.rational(1))
        assert approx_witness(a, Neighbourhood({2: PadicBall(2, F(0), 1)})) == 1

    def test_closed_orbit_searches_in_ascending_unit_coordinate(self):
        # r0 = -1, so t = -r: t = -2 comes before t = -1, and r = 2 is returned
        nbhd = Neighbourhood({}, real_interval=(F(-5, 2), F(-1, 2)))
        assert approx_witness(embed_rational(-1, "full"), nbhd) == 2

    def test_case_one_refines_past_zero(self):
        # D = 2 leaves only n = 0 in (-1, 1); one more factor 2 gives -1/4
        a = full({2: F(0)}, DefaultSpec.rational(1), F(1))
        nbhd = Neighbourhood({}, real_interval=(F(-1, 2), F(1, 2)))
        assert approx_witness(a, nbhd) == F(-1, 4)

    def test_case_two_refines_past_zero(self):
        # D = 2 leaves only n = 0 in (-1, 1); the next default prime gives -1/3
        a = full({}, DefaultSpec.times_p(1), F(1))
        nbhd = Neighbourhood({}, real_interval=(F(-1, 2), F(1, 2)))
        assert approx_witness(a, nbhd) == F(-1, 3)

    @settings(max_examples=250, deadline=None)
    @given(small_closed_instances())
    def test_closed_orbit_matches_scan_and_oracle(self, instance):
        a, nbhd = instance
        expected = first_scan_hit(a, nbhd)
        if expected is None:
            with pytest.raises(ClosedOrbitMiss):
                approx_witness(a, nbhd)
            assert witness_by_search(a, nbhd, SearchBudget(height_bound=60)) is None
        else:
            r = approx_witness(a, nbhd)
            assert r == expected
            assert nbhd.contains(scale(r, a))


def pick_by_fractions(base, modulus, bounds):
    """The picker as it read on Fraction bounds: the first nonzero n =
    base (mod modulus) strictly between the bounds, in either order."""
    first, last = sorted(bounds)
    n = base + ((first - base) // modulus + 1) * modulus
    while n < last:
        if n != 0:
            return int(n)
        n += modulus
    return None


# fractions built from two integers draw much faster than st.fractions
small_signed = st.builds(F, st.integers(-30, 30).filter(bool), st.integers(1, 12))
# the interval often straddles 0 and the base is often 0, so 0 is often a progression term
PICKS = st.tuples(
    st.integers(1, 40).flatmap(lambda m: st.tuples(st.just(m), st.integers(0, m - 1) | st.just(0))),
    st.builds(F, st.integers(-60, 60), st.integers(1, 10)),
    st.sampled_from([F(1, 50), F(1, 3), F(1), F(7, 2), F(40)]),
    st.integers(1, 60),
    small_signed,  # the real part a_oo, of either sign
    small_signed,  # r0, of either sign
)


class TestIntegerPicker:
    """_pick_numerator on cross-multiplied integer bounds against the
    Fraction bounds lo * D / u_oo and hi * D / u_oo it replaced."""

    @settings(max_examples=250)
    @given(PICKS)
    def test_matches_the_fraction_picker(self, case):
        (modulus, base), lo, width, denominator, real, r0 = case
        hi, u = lo + width, real / r0
        u_num, u_den = real.numerator * r0.denominator, real.denominator * r0.numerator  # unreduced, either sign
        bounds = [(b.numerator * denominator * u_den, b.denominator * u_num) for b in (lo, hi)]
        expected = pick_by_fractions(base, modulus, (lo * denominator / u, hi * denominator / u))
        assert quasiorbit._pick_numerator(base, modulus, bounds) == expected
        assert quasiorbit._pick_numerator(base, modulus, bounds[::-1]) == expected
        assert quasiorbit._pick_numerator(base, modulus, None) == pick_by_fractions(base, modulus, (0, math.inf))

    def test_zero_is_never_picked(self):
        assert quasiorbit._pick_numerator(0, 5, [(-1, 2), (3, 1)]) is None
        assert quasiorbit._pick_numerator(0, 5, [(-11, 2), (3, -1)]) == -5
        assert quasiorbit._pick_numerator(0, 5, None) == 5


def witness_or_error(a, nbhd):
    try:
        return approx_witness(a, nbhd)
    except (Infeasible, ClosedOrbitMiss) as exc:
        return type(exc)


class TestWitnessDependsOnTheAdele:
    """Equal descriptions of one adele get one witness."""

    def test_restated_times_p_entries(self):
        a = full({}, DefaultSpec.times_p(1), F(1))
        b = full({2: F(2), 5: F(5)}, DefaultSpec.times_p(1), F(1))
        assert a == b
        for lo in range(1, 30):
            for width in (F(1, 7), F(1, 100), F(1, 3000)):
                nbhd = Neighbourhood({3: PadicBall(3, F(1), 2)}, real_interval=(F(lo), lo + width))
                assert approx_witness(b, nbhd) == approx_witness(a, nbhd)
        assert approx_witness(b, nbhd) == F(435439, 15015)

    def test_entry_at_a_prime_of_the_default_rational_restates_nothing(self):
        # the entry 1 = (1/2) * 2 at 2 is a unit there, not a multiple of 2,
        # so 2 stays out of the Case II denominators
        a = full({2: F(1)}, DefaultSpec.times_p(F(1, 2)), F(1))
        nbhd = Neighbourhood({3: PadicBall(3, F(1), 2)}, real_interval=(F(29), 29 + F(1, 3000)))
        assert approx_witness(a, nbhd) == F(7402399, 255255)

    def test_oracle_draws_restated_primes(self):
        # the zero at 19 takes the oracle's default primes up to 19, past
        # the restated entry at 17
        a = finite({19: F(0), 17: F(17)}, DefaultSpec.times_p(1))
        b = finite({19: F(0)}, DefaultSpec.times_p(1))
        nbhd = Neighbourhood({17: PadicBall(17, F(1), 1)})
        assert a == b
        assert witness_by_search(a, nbhd) == witness_by_search(b, nbhd) == F(1, 17)
        assert approx_witness(a, nbhd) == approx_witness(b, nbhd) == F(1, 17)

    def test_oracle_ignores_a_restated_zero(self):
        # a zero at 19 restating a ZERO default must not raise the bound
        # up to which the oracle draws default primes as denominators
        a = finite({2: F(1), 3: F(1), 5: F(1), 19: F(0)}, DefaultSpec.zero())
        b = finite({2: F(1), 3: F(1), 5: F(1)}, DefaultSpec.zero())
        nbhd = Neighbourhood({p: PadicBall(p, F(1, 17), 4) for p in (2, 3, 5)})
        assert a == b
        assert witness_by_search(a, nbhd) == witness_by_search(b, nbhd)
        assert approx_witness(a, nbhd) == approx_witness(b, nbhd)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_restated_entries_never_change_the_search(self, data):
        default = data.draw(st.sampled_from([DefaultSpec.zero(), DefaultSpec.times_p(1)]))
        explicit = {p: data.draw(st.sampled_from([F(1), F(-1), F(5), F(1, 7)])) for p in (2, 3)}
        restated = {
            p: default.value_at(p) for p in data.draw(st.sets(st.sampled_from([7, 11, 13, 17, 19, 23])))
        }
        a = finite(explicit, default)
        b = finite({**explicit, **restated}, default)
        # a center with a large prime denominator that only the default
        # primes the oracle draws can reach
        center = F(data.draw(st.sampled_from([1, -1, 2, 3])), data.draw(st.sampled_from([17, 19, 23])))
        exponent = data.draw(st.integers(2, 4))
        nbhd = Neighbourhood({p: PadicBall(p, center, exponent) for p in (2, 3)})
        budget = SearchBudget(height_bound=60)
        assert a == b
        assert witness_by_search(b, nbhd, budget) == witness_by_search(a, nbhd, budget)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_restated_entries_never_change_the_witness(self, data):
        default = DefaultSpec.times_p(data.draw(st.sampled_from([F(1), F(-1), F(2), F(1, 3)])))
        q = default.q
        support = [p for p in (2, 3) if q.numerator % p == 0 or q.denominator % p == 0]
        explicit = {p: data.draw(small_nonzero) for p in support}
        free = [p for p in (2, 3, 5, 7, 11, 13) if p not in support]
        restated = {p: default.value_at(p) for p in data.draw(st.sets(st.sampled_from(free)))}
        real = data.draw(small_nonzero)
        a = full(explicit, default, real)
        b = full({**explicit, **restated}, default, real)
        balls = {
            p: PadicBall(p, center, e)
            for p, (center, e) in data.draw(
                st.dictionaries(
                    st.sampled_from([2, 3, 5, 7]),
                    st.tuples(st.fractions(min_value=-20, max_value=20, max_denominator=8), st.integers(-1, 3)),
                    max_size=2,
                )
            ).items()
        }
        lo = data.draw(st.fractions(min_value=-40, max_value=40, max_denominator=6))
        width = data.draw(st.sampled_from([F(1, 7), F(1, 100), F(1, 3000)]))
        nbhd = Neighbourhood(balls, real_interval=(lo, lo + width))
        assert a == b
        assert witness_or_error(b, nbhd) == witness_or_error(a, nbhd)


class TestWitnessAgainstBruteForce:
    """Small frozen instances cross-checked by an inline exhaustive scan."""

    def brute(self, a, nbhd, heights=60, denominators=(1, 2, 3, 4, 6, 8, 9, 12)):
        full_kind = isinstance(a, FullAdele)
        for d in denominators:
            for n in range(1, heights + 1):
                for sign in (1, -1) if full_kind else (1,):
                    r = Fraction(sign * n, d)
                    try:
                        if nbhd.contains(scale(r, a)):
                            return r
                    except ValueError:
                        raise
        return None

    def test_finite_agreement(self):
        a = finite({2: F(2), 5: F(0)}, DefaultSpec.rational(2))
        nbhd = Neighbourhood({2: PadicBall(2, F(4), 3), 3: PadicBall(3, F(1), 1)})
        constructed = approx_witness(a, nbhd)
        found = self.brute(a, nbhd)
        assert found is not None
        assert nbhd.contains(scale(constructed, a))

    def test_full_agreement(self):
        a = full({3: F(0)}, DefaultSpec.rational(1), F(2))
        nbhd = Neighbourhood(
            {2: PadicBall(2, F(1), 1)}, real_interval=(F(1), F(3))
        )
        constructed = approx_witness(a, nbhd)
        found = self.brute(a, nbhd)
        assert found is not None
        assert nbhd.contains(scale(constructed, a))


class TestClosurePreorder:
    POOL = None

    def pool(self):
        if TestClosurePreorder.POOL is None:
            TestClosurePreorder.POOL = [
                embed_rational(0),
                embed_rational(1),
                finite({2: F(0)}, DefaultSpec.rational(1)),
                finite({2: F(0), 3: F(0)}, DefaultSpec.rational(1)),
                finite({2: F(0), 5: F(4)}, DefaultSpec.rational(1)),
                finite({5: F(1)}, DefaultSpec.zero()),
                finite({}, DefaultSpec.zero()),
            ]
        return TestClosurePreorder.POOL

    def test_reflexive(self):
        for a in self.pool():
            assert orbit_closure_contains(a, a)

    def test_transitive(self):
        pool = self.pool()
        hits = 0
        for a in pool:
            for b in pool:
                for c in pool:
                    if orbit_closure_contains(a, b) and orbit_closure_contains(b, c):
                        hits += 1
                        assert orbit_closure_contains(a, c)
        assert hits > len(pool)  # beyond the diagonal


class TestDensityCriterion:
    def test_non_zero_divisor_reaches_integral_targets(self):
        # a has no vanishing component, so its orbit meets every canonical
        # neighbourhood of every integral target
        import random

        from adelic.padic import PadicBall

        rng = random.Random(7)
        a = finite({2: F(6), 3: F(6), 7: F(3)}, DefaultSpec.rational(6))
        assert not is_zero_divisor(a)
        for _ in range(25):
            explicit = {
                p: F(rng.randint(0, 8))
                for p in (2, 3, 5, 7, 11, 13)
                if rng.random() < 0.5
            }
            b = finite(explicit, DefaultSpec.rational(1))
            balls = {
                p: PadicBall(p, b.component(p), rng.randint(1, 3))
                for p in list(explicit)[:3]
            }
            nbhd = Neighbourhood(balls)
            r = approx_witness(a, nbhd)
            assert nbhd.contains(scale(r, a))


# Case II grows the denominator through the default primes, and the
# witness numerator holds a prime far too large to trial-divide.
REPRO_ADELE = full({}, DefaultSpec.times_p(1), F(1))
REPRO_NBHD = Neighbourhood({3: PadicBall(3, F(2), 22)}, real_interval=(F(5), 5 + F(1, 10**6)))


def small_primes(bound):
    return [p for p in range(2, bound) if all(p % d for d in range(2, p))]


def recording_prime_factors(monkeypatch):
    """Wrap prime_factors wherever the library binds it; return the list
    its arguments are recorded in."""
    calls = []
    original = padic.prime_factors

    def recorded(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(padic, "prime_factors", recorded)
    monkeypatch.setattr(adele, "prime_factors", recorded)
    return calls


class TestFactorFreeVerification:
    """Checking a witness never trial-divides its numerator."""

    def test_deadline_guard_fires(self, deadline):
        if not hasattr(signal, "SIGALRM"):
            pytest.skip("no SIGALRM on this platform")
        with pytest.raises(pytest.fail.Exception):
            with deadline(0.05):
                while True:
                    pass

    def test_repro_witness_is_sound(self, deadline):
        with deadline(2):
            r = approx_witness(REPRO_ADELE, REPRO_NBHD)
        # r * a_p = r * p at every prime: the ball at 3, integral elsewhere
        x = 3 * r - 2
        assert x.numerator % 3**22 == 0 and x.denominator % 3 != 0
        assert math.prod(small_primes(200)) % r.denominator == 0  # squarefree
        assert 5 < r < 5 + F(1, 10**6)

    def test_repro_never_factors_the_numerator(self, deadline, monkeypatch):
        calls = recording_prime_factors(monkeypatch)
        with deadline(2):
            r = approx_witness(REPRO_ADELE, REPRO_NBHD)
        assert r.numerator not in calls
        assert all(r.denominator % n == 0 for n in calls)

    def test_parsing_never_factors(self, deadline, monkeypatch):
        calls = recording_prime_factors(monkeypatch)
        q = 2**61 - 1  # a 61-bit prime
        doc = {"explicit": {}, "default": {"kind": "rational", "q": str(q)}, "real": "1"}
        with deadline(2):
            a = jsonio.parse_adele(doc)
        assert a.default == DefaultSpec.rational(q) and a.explicit == {}
        assert calls == []

    def test_orbit_equality_never_factors(self, deadline):
        # the candidate 1/P puts the 61-bit prime P into the default's
        # denominator, where building P^-1 * a would have to factor it
        P = next(n for n in itertools.count(2**60) if is_prime(n))
        a = full({}, DefaultSpec.rational(1), P)
        b = full({}, DefaultSpec.rational(1), 1)
        c = full({P: F(1, P)}, DefaultSpec.rational(F(1, P)), 1)
        with deadline(1):
            assert exact_orbit_witness(a, b) is None
            assert not orbit_closure_contains(a, b)
            assert not same_quasi_orbit(a, b)
            assert exact_orbit_witness(a, c) == F(1, P)


class TestLargeRadius:
    """Witnesses for the ball B_3(1/5, 10^5), of ~158,000 bits, are built
    and verified in well under a second: no step divides by 3 once per
    unit of valuation."""

    E = 10**5

    def in_ball(self, r):
        # r - 1/5 = (5r - 1) / 5 and 5 is a 3-adic unit
        x = 5 * r - 1
        return x.numerator % 3**self.E == 0 and x.denominator % 3 != 0

    def nbhd(self, interval=None):
        return Neighbourhood({3: PadicBall(3, F(1, 5), self.E)}, real_interval=interval)

    def test_finite(self, deadline):
        with deadline(1):
            r = approx_witness(finite({}, DefaultSpec.rational(1)), self.nbhd())
        assert r.denominator == 1 and self.in_ball(r)

    def test_closed(self, deadline):
        with deadline(1):
            r = approx_witness(full({}, DefaultSpec.rational(1), 1), self.nbhd((F(1), F(3**self.E))))
        assert r.denominator == 1 and 1 < r < 3**self.E and self.in_ball(r)

    def test_case_one(self, deadline):
        with deadline(1):
            r = approx_witness(full({2: F(0)}, DefaultSpec.rational(1), 1), self.nbhd((F(1), F(2))))
        assert r.denominator & (r.denominator - 1) == 0 and 1 < r < 2 and self.in_ball(r)

    def test_case_two(self, deadline):
        with deadline(1):
            r = approx_witness(full({}, DefaultSpec.times_p(1), 1), self.nbhd((F(1), F(2))))
        assert 1 < r < 2 and self.in_ball(3 * r)  # the component at 3 is 1 * 3
        # r * p is p-integral at every prime exactly when the denominator is squarefree
        primes = itertools.takewhile(lambda p: p < 2 * 10**5, padic.iter_primes())
        assert math.prod(primes) % r.denominator == 0


class TestWitnessCheckedInPlace:
    """approx_witness checks its witness place by place and never builds
    r * a: it calls neither scale nor prime_factors nor contains."""

    BALL = {3: PadicBall(3, F(1, 5), 2)}
    CASES = {
        "finite": (finite({2: F(1, 2)}, DefaultSpec.rational(3)),
                   Neighbourhood({3: PadicBall(3, F(1), 2), 5: PadicBall(5, F(2), 1)}), F(82, 3)),
        "case_one": (full({2: F(0)}, DefaultSpec.rational(1), 1),
                     Neighbourhood(BALL, real_interval=(F(1), F(9, 8))), F(65, 64)),
        "case_one_zero_default": (full({3: F(1, 3)}, DefaultSpec.zero(), 2),
                                  Neighbourhood({3: PadicBall(3, F(1), 1)}, real_interval=(F(1), F(17, 16))), F(129, 256)),
        # the tail primes 7, 11, 13 and 17 stay in the witness's denominator
        "case_two": (full({2: F(1, 2)}, DefaultSpec.times_p(F(5, 2)), 1),
                     Neighbourhood({3: PadicBall(3, F(1, 5), 3)}, real_interval=(F(1), F(101, 100))), F(51104, 51051)),
        # r = t / 7 leaves 7 in the denominator, for the default 7 to absorb
        "closed": (full({}, DefaultSpec.rational(7), 7), Neighbourhood(BALL, real_interval=(F(1), F(100))), F(2, 7)),
        "closed_miss": (full({}, DefaultSpec.rational(1), 1), Neighbourhood(BALL, real_interval=(F(2), F(3))), ClosedOrbitMiss),
        "infeasible": (finite({2: F(0)}, DefaultSpec.rational(1)), Neighbourhood({2: PadicBall(2, F(1), 1)}), Infeasible),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_builds_no_scaled_adele(self, case, monkeypatch):
        a, nbhd, expected = self.CASES[case]
        if isinstance(expected, F):
            assert nbhd.contains(scale(expected, a))

        def forbidden(*args):
            raise AssertionError("the witness check must not build r * a")

        for original in (adele.scale, padic.prime_factors):
            for name, module in list(sys.modules.items()):
                if name == "adelic" or name.startswith("adelic."):
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            monkeypatch.setattr(module, attr, forbidden)
        monkeypatch.setattr(Neighbourhood, "contains", forbidden)
        if isinstance(expected, F):
            assert approx_witness(a, nbhd) == expected
        else:
            with pytest.raises(expected):
                approx_witness(a, nbhd)


NUMERATOR_PRIMES = (2, 3, 5, 7)


@st.composite
def implicit_and_listed(draw):
    """Two descriptions of one adele with a RATIONAL or TIMES_P default:
    one leaves the primes of the default's numerator to the rule, the
    other lists each of them."""
    kind = draw(st.sampled_from(["rational", "times_p"]))
    numerator = draw(st.sampled_from([1, 2, 3, 6, 10, 15, 35, 12, 49]))
    denominator = draw(st.sampled_from([1, 2, 3, 4, 5]))
    q = F(draw(st.sampled_from([1, -1])) * numerator, denominator)
    default = DefaultSpec(kind, q)
    explicit = {p: q * (p if kind == "times_p" else 1) for p in NUMERATOR_PRIMES if denominator % p == 0}
    for p in draw(st.sets(st.sampled_from(NUMERATOR_PRIMES + (11, 13)), max_size=2)):
        explicit[p] = draw(st.sampled_from([F(0), F(1), F(p), F(1, p), F(-2)]))
    listed = {p: default.value_at(p) for p in NUMERATOR_PRIMES if q.numerator % p == 0}
    a = FiniteAdele(explicit, default)
    b = FiniteAdele({**listed, **explicit}, default)
    if draw(st.booleans()):
        real = draw(small_nonzero)
        a, b = FullAdele(a, real), FullAdele(b, real)
    return a, b


@st.composite
def neighbourhoods(draw, full):
    balls = {
        p: PadicBall(p, center, e)
        for p, (center, e) in draw(
            st.dictionaries(
                st.sampled_from([2, 3, 5, 7, 11]),
                st.tuples(st.fractions(min_value=-20, max_value=20, max_denominator=8), st.integers(-1, 3)),
                max_size=2,
            )
        ).items()
    }
    if not full:
        return Neighbourhood(balls)
    lo = draw(st.fractions(min_value=-40, max_value=40, max_denominator=6))
    width = draw(st.sampled_from([F(1, 7), F(1, 100), F(1, 3000), F(50)]))
    return Neighbourhood(balls, real_interval=(lo, lo + width))


def factor_or_error(a):
    try:
        return factor_idele(a)
    except NotInvertible:
        return NotInvertible


class TestNumeratorPrimesLeftToTheRule:
    """Numerator primes of the default need no explicit entry: a
    description leaving them to the rule answers like one listing them."""

    @settings(max_examples=200, deadline=None)
    @given(implicit_and_listed(), st.data())
    def test_same_answers(self, pair, data):
        a, b = pair
        assert a == b and hash(a) == hash(b)
        assert zero_set(a) == zero_set(b)
        full_adele = isinstance(a, FullAdele)
        if full_adele:
            assert absolute_value(a) == absolute_value(b)
            assert factor_or_error(a) == factor_or_error(b)
            assert chi(a) == chi(b)
        nbhd = data.draw(neighbourhoods(full_adele))
        r = witness_or_error(a, nbhd)
        assert r == witness_or_error(b, nbhd)
        if isinstance(r, Fraction):
            assert nbhd.contains(scale(r, a)) and nbhd.contains(scale(r, b))

    def test_rational_two(self):
        a = full({}, DefaultSpec.rational(2), F(1))
        b = full({2: F(2)}, DefaultSpec.rational(2), F(1))
        assert is_invertible(a) and a == b
        assert absolute_value(a) == absolute_value(b) == F(1, 2)
        half = UnitIdele(FiniteAdele({}, DefaultSpec.rational(1)), F(1, 2))
        assert factor_idele(a) == factor_idele(b) == (F(2), half)

    def test_scaling_adds_no_numerator_entries(self):
        a = scale(F(35, 4), finite({2: F(1)}, DefaultSpec.rational(1)))
        assert a.explicit == {2: F(35, 4)} and a.default == DefaultSpec.rational(F(35, 4))
        z = scale(F(35, 4), finite({2: F(1)}, DefaultSpec.zero()))
        assert z.explicit == {2: F(35, 4)}
        # the denominator's primes outside the explicit map become explicit
        c = scale(F(5, 12), finite({2: F(1)}, DefaultSpec.times_p(1)))
        assert c.explicit == {2: F(5, 12), 3: F(5, 4)}


S = PrimeSet.finite([2])
INPUT_CHECKS = [
    pytest.param(lambda: chi(embed_rational(1)), ValueError, "chi needs a full adele", id="chi-finite"),
    pytest.param(lambda: is_zero_divisor(embed_rational(1, "full")), ValueError,
                 "zero divisors live among the finite adeles", id="zero-divisor-full"),
    pytest.param(lambda: ParameterPoint("prime_set"), ValueError, "prime-set point carries exactly a PrimeSet",
                 id="prime-set-without-set"),
    pytest.param(lambda: ParameterPoint("prime_set", S, ONES), ValueError,
                 "prime-set point carries exactly a PrimeSet", id="prime-set-with-unit"),
    pytest.param(lambda: ParameterPoint("unit_class"), ValueError, "unit-class point carries exactly a UnitIdele",
                 id="unit-without-unit"),
    pytest.param(lambda: ParameterPoint("unit_class", S, ONES), ValueError,
                 "unit-class point carries exactly a UnitIdele", id="unit-with-set"),
    pytest.param(lambda: ParameterPoint("unit_class", unit=embed_rational(1, "full")), ValueError,
                 "unit-class point carries exactly a UnitIdele", id="unit-not-unit-idele"),
    pytest.param(lambda: ParameterPoint("bogus"), ValueError, "unknown parameter point kind 'bogus'",
                 id="point-kind"),
]


class TestInputChecks:
    @pytest.mark.parametrize("call, error, message", INPUT_CHECKS)
    def test_rejects(self, call, error, message):
        with pytest.raises(error) as info:
            call()
        assert type(info.value) is error and str(info.value) == message
