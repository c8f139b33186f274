import math
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from adelic import padic
from adelic.adele import embed_rational, xi_partial
from adelic.errors import NoIntegerSolution, NonCoprimeModuli, WorkBoundExceeded
from adelic.padic import (
    INFINITE_VALUATION,
    INFINITY,
    PadicBall,
    Prime,
    TruncatedPadic,
    crt_solve,
    expand,
    extended_prime_key,
    integer_in_ball,
    is_infinite_place,
    is_prime,
    iter_primes,
    prime_factors,
    valuation,
)

SMALL_PRIMES = [2, 3, 5, 7, 11, 13]

rationals = st.fractions(
    min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=1000
)
nonzero_rationals = rationals.filter(lambda q: q != 0)
prime_st = st.sampled_from(SMALL_PRIMES).map(Prime)
# primes past the trial-division bound, so that their products reach Pollard's rho
RHO_PRIMES = [p for p in range(2**16, 2**16 + 400) if is_prime(p)] + [1000003]
rho_products = st.lists(st.sampled_from(RHO_PRIMES), min_size=1, max_size=4)


class TestPrime:
    def test_accepts_primes(self):
        for p in [2, 3, 5, 7, 97, 2**61 - 1]:
            assert Prime(p) == p

    def test_rejects_composites_and_small(self):
        for n in [-7, 0, 1, 4, 9, 91, 561]:
            with pytest.raises(ValueError):
                Prime(n)

    def test_rejects_huge(self):
        with pytest.raises(ValueError):
            Prime(2**64 + 13)

    @pytest.mark.parametrize("call, named", [
        (lambda: Prime(INFINITY), "INFINITY"),
        (lambda: Prime(None), "None"),
        (lambda: Prime("x"), "'x'"),
        (lambda: Prime(float("inf")), "inf"),
        (lambda: embed_rational(1).component(INFINITY), "INFINITY"),
        (lambda: PadicBall(INFINITY, 1, 1), "INFINITY"),
        (lambda: valuation(3, INFINITY), "INFINITY"),
        (lambda: xi_partial(embed_rational(1, "full"), [INFINITY]), "INFINITY"),
    ], ids=["Prime-INFINITY", "Prime-None", "Prime-str", "Prime-float-inf", "component", "PadicBall", "valuation", "xi_partial"])
    def test_a_non_integer_is_named(self, call, named):
        # the message names the value, not only its type
        with pytest.raises(ValueError, match=f"^prime must be an integer, got {named}$"):
            call()

    def test_is_an_int(self):
        p = Prime(5)
        assert p + 1 == 6
        assert {p: "x"}[5] == "x"

    def test_is_prime_brute_force_window(self):
        def slow(n):
            return n >= 2 and all(n % d for d in range(2, n))

        for n in range(0, 500):
            assert is_prime(n) == slow(n)


class TestExtendedPrimes:
    def test_infinity_is_not_finite(self):
        assert is_infinite_place(INFINITY)
        assert not is_infinite_place(Prime(2))

    def test_repr(self):
        assert repr(INFINITY) == "INFINITY"

    def test_sort_key_puts_infinity_last(self):
        places = sorted([INFINITY, Prime(3), Prime(2)], key=extended_prime_key)
        assert places == [Prime(2), Prime(3), INFINITY]


class TestValuation:
    def test_paper_examples(self):
        assert valuation(12, 2) == 2  # 12 = 2^2 * 3
        assert valuation(0, 5) == INFINITE_VALUATION
        assert valuation(Fraction(2, 9), 3) == -2

    @given(nonzero_rationals, prime_st)
    def test_unit_part_is_coprime(self, q, p):
        v = valuation(q, p)
        unit = q * Fraction(p) ** -v
        assert unit.numerator % p != 0
        assert unit.denominator % p != 0

    @given(rationals, rationals, prime_st)
    def test_multiplicative(self, q, r, p):
        assert valuation(q * r, p) == valuation(q, p) + valuation(r, p)


class TestExpand:
    def test_derived_one_third(self):
        # oracle: the unit residue of 1/3 mod 8 is the x with 3x = 1 (mod 8)
        oracle = next(x for x in range(8) if 3 * x % 8 == 1)
        assert oracle == 3
        t = expand(Fraction(1, 3), 2, 3)
        assert t.valuation == 0
        assert t.unit_residue == oracle

    def test_zero(self):
        t = expand(0, 7, 4)
        assert t.valuation == INFINITE_VALUATION
        assert t.is_zero
        assert t.reconstruct() == 0

    def test_eight(self):
        t = expand(8, 2, 2)
        assert t.valuation == 3
        assert t.unit_residue == 1

    @given(rationals, prime_st, st.integers(min_value=1, max_value=6))
    def test_reconstruction_congruence(self, q, p, k):
        t = expand(q, p, k)
        if t.is_zero:
            assert q == 0
            return
        v = t.valuation
        # p^v * residue must agree with q modulo p^(v+k)
        assert valuation(q - t.reconstruct(), p) >= v + k

    def test_precision_must_be_positive(self):
        with pytest.raises(ValueError):
            expand(1, 2, 0)

    def test_precision_must_be_an_integer(self):
        for k in (2.5, 3.0, Fraction(3), True):
            with pytest.raises(ValueError):
                expand(Fraction(1, 3), 2, k)
            with pytest.raises(ValueError, match="precision must be an integer"):
                TruncatedPadic(Prime(2), 0, 1, k)
        with pytest.raises(ValueError, match="valuation must be an integer"):
            TruncatedPadic(Prime(2), True, 1, 3)

    def test_residue_validation(self):
        with pytest.raises(ValueError):
            TruncatedPadic(Prime(2), 0, 2, 3)  # residue divisible by p
        with pytest.raises(ValueError):
            TruncatedPadic(Prime(2), INFINITE_VALUATION, 1, 3)


class TestBalls:
    def test_trivial_examples(self):
        assert PadicBall(2, Fraction(0), 3).contains(16)
        assert not PadicBall(2, Fraction(0), 3).contains(4)
        assert PadicBall(3, Fraction(1), 1).contains(16)

    @given(rationals, prime_st, st.integers(-4, 6), st.integers(-50, 50))
    def test_translation_invariance(self, x, p, ell, k):
        ball = PadicBall(p, Fraction(7, 5) if p != 5 else Fraction(7, 3), ell)
        shifted = x + Fraction(p) ** ell * k
        assert ball.contains(x) == ball.contains(shifted)

    def test_radius_must_be_an_integer(self):
        for ell in (1.5, 2.0, Fraction(2), True, "2"):
            with pytest.raises(ValueError):
                PadicBall(3, Fraction(1, 5), ell)


class TestIntegerInBall:
    def test_derived_half_mod_three(self):
        # oracle: brute-force residues mod 3 for v_3(k - 1/2) >= 1
        ball = PadicBall(3, Fraction(1, 2), 1)
        oracle = next(k for k in range(10) if ball.contains(k))
        assert oracle == 2
        assert integer_in_ball(ball) == oracle

    def test_center_itself(self):
        assert integer_in_ball(PadicBall(5, Fraction(0), 2)) == 0

    def test_residue_of_integer_center(self):
        assert integer_in_ball(PadicBall(5, Fraction(7), 1)) == 2

    def test_wide_ball_contains_zero(self):
        # radius below the center's valuation: every integer qualifies
        assert integer_in_ball(PadicBall(2, Fraction(3, 4), -2)) == 0

    def test_no_solution_for_deep_denominator(self):
        with pytest.raises(NoIntegerSolution):
            integer_in_ball(PadicBall(2, Fraction(1, 2), 0))

    @given(prime_st, rationals, st.integers(-3, 4))
    def test_minimality(self, p, center, ell):
        ball = PadicBall(p, center, ell)
        try:
            k = integer_in_ball(ball)
        except NoIntegerSolution:
            bound = int(p) ** max(ell, 1)
            assert not any(ball.contains(n) for n in range(min(bound, 200)))
            return
        assert ball.contains(k)
        assert not any(ball.contains(n) for n in range(k))


class TestCrt:
    def test_derived_pair(self):
        # oracle: brute force over 0..14
        oracle = next(n for n in range(15) if n % 3 == 2 and n % 5 == 3)
        assert oracle == 8
        assert crt_solve([(2, 3), (3, 5)]) == oracle

    def test_single(self):
        assert crt_solve([(4, 9)]) == 4

    def test_empty_system(self):
        assert crt_solve([]) == 0

    def test_non_coprime(self):
        with pytest.raises(NonCoprimeModuli):
            crt_solve([(1, 4), (2, 8)])

    def test_modulus_must_be_positive(self):
        with pytest.raises(ValueError):
            crt_solve([(1, 0)])

    @given(
        st.lists(
            st.tuples(st.integers(-100, 100), st.sampled_from([2, 3, 5, 7, 11])),
            max_size=4,
        )
    )
    def test_postconditions(self, raw):
        # build pairwise-coprime prime-power moduli from distinct bases
        seen = {}
        system = []
        for residue, p in raw:
            if p in seen:
                continue
            seen[p] = True
            system.append((residue, p**2))
        n = crt_solve(system)
        total = math.prod(m for _, m in system)
        assert 0 <= n < total
        for residue, m in system:
            assert n % m == residue % m


class TestFactoring:
    def test_prime_factors(self):
        assert prime_factors(360) == {Prime(2): 3, Prime(3): 2, Prime(5): 1}
        assert prime_factors(-(2**300 * 3**17 * 7**129)) == {Prime(2): 300, Prime(3): 17, Prime(7): 129}
        assert prime_factors(-7) == {Prime(7): 1}
        assert prime_factors(1) == {}

    def test_iter_primes(self):
        it = iter_primes()
        assert [next(it) for _ in range(6)] == [2, 3, 5, 7, 11, 13]


def plain_valuation(q, p):
    """v_p from its definition: the v with q * p**-v a p-adic unit."""
    q = Fraction(q)
    if q == 0:
        return INFINITE_VALUATION
    v = 0
    while (q * Fraction(p) ** -v).numerator % p == 0:
        v += 1
    while (q * Fraction(p) ** -v).denominator % p == 0:
        v -= 1
    return v


# the primes below 2**14: more than the longest walk below reads (1,000)
# and than the shared list those walks grow
PLAIN_PRIMES = [n for n in range(2, 2**14) if is_prime(n)]


# terms carrying high powers of the small primes, so p shows up in the
# numerator, the denominator or both sides of a difference
powers = st.builds(lambda u, p, k: u * p**k, st.integers(-50, 50), st.sampled_from(SMALL_PRIMES),
                   st.integers(0, 12) | st.integers(100, 999))
kernel_rationals = st.one_of(
    st.integers(-10**6, 10**6),
    st.builds(Fraction, powers, powers.filter(bool)),
    rationals,
)
prime_args = st.sampled_from(SMALL_PRIMES).flatmap(lambda p: st.sampled_from([p, Prime(p)]))


class TestIntegerKernel:
    """The integer forms of valuation and ball membership agree with the
    plain Fraction definitions."""

    @given(kernel_rationals, prime_args)
    def test_valuation(self, q, p):
        assert valuation(q, p) == plain_valuation(q, p)

    @given(kernel_rationals, kernel_rationals, prime_args, st.integers(-15, 30) | st.integers(-999, 999))
    def test_ball_contains(self, x, centre, p, ell):
        expected = plain_valuation(Fraction(x) - Fraction(centre), p) >= ell
        ball = PadicBall(p, centre, ell)
        assert ball.contains(x) == expected
        assert ball.contains(Fraction(x)) == expected
        assert ball.contains(centre) and ball.contains(Fraction(centre))

    def test_zero_and_negatives(self):
        assert valuation(0, 2) == valuation(Fraction(0), Prime(2)) == INFINITE_VALUATION
        assert valuation(-48, 2) == 4 and valuation(Fraction(-5, 72), 3) == -2
        assert valuation("-18/12", 3) == 1 and PadicBall(3, "4/6", 1).contains("-7/3")
        assert PadicBall(3, Fraction(-2), 5).contains(Fraction(-14 - 5 * 3**5, 7))
        assert not PadicBall(3, Fraction(1, 9), 0).contains(0)
        assert PadicBall(3, Fraction(1, 9), -2).contains(0)

    def test_non_prime_rejected(self):
        for q in (6, Fraction(1, 4), 0):
            with pytest.raises(ValueError):
                valuation(q, 4)

    def test_an_int_is_read_without_building_a_fraction(self, monkeypatch):
        built = []

        class Recorded(Fraction):
            def __new__(cls, *args):
                built.append(args)
                return super().__new__(cls, *args)

        ball = PadicBall(3, Fraction(2), 1)
        monkeypatch.setattr(padic, "Fraction", Recorded)
        assert valuation(10465, 5) == 1 and valuation(-48, 2) == 4 and valuation(0, 3) == INFINITE_VALUATION
        assert ball.contains(5) and not ball.contains(1)
        assert built == []
        assert valuation("2/9", 3) == -2 and built == [("2/9",)]


@pytest.fixture
def fresh_prime_list():
    """Start from the initial shared prime list; restore the old one after."""
    saved = padic._PRIMES
    padic._PRIMES = saved[:1]
    yield
    padic._PRIMES = saved


class TestSharedPrimeList:
    @given(st.lists(st.integers(1, 500), min_size=1, max_size=6))
    def test_walks_match_a_plain_walk_in_any_order(self, lengths):
        saved = padic._PRIMES
        padic._PRIMES = saved[:1]
        try:
            for count in lengths:
                it = iter_primes()
                assert [next(it) for _ in range(count)] == PLAIN_PRIMES[:count]
        finally:
            padic._PRIMES = saved

    def test_yields_primes_and_runs_no_test_twice(self, fresh_prime_list, monkeypatch):
        sieved, sieve = [], padic._sieve_past
        monkeypatch.setattr(padic, "_sieve_past", lambda primes: sieved.append(primes[-1]) or sieve(primes))
        first = [p for p, _ in zip(iter_primes(), range(300))]
        assert all(type(p) is Prime for p in first) and first == PLAIN_PRIMES[:300]
        assert len(sieved) == len(set(sieved))
        sieved.clear()
        again = iter_primes()
        assert [next(again) for _ in range(200)] == first[:200] and sieved == []

    def test_threads_walking_at_once(self, fresh_prime_list):
        lengths = [400, 400, 3, 900, 50, 1000, 7, 400]
        expected = [PLAIN_PRIMES[:n] for n in lengths]
        results = {}

        def walk(i):
            it = iter_primes()
            results[i] = [next(it) for _ in range(lengths[i])]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):  # each round grows the list from scratch
                padic._PRIMES = padic._PRIMES[:1]
                results.clear()
                threads = [threading.Thread(target=walk, args=(i,)) for i in range(len(lengths))]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in threads)
                assert [results.get(i) for i in range(len(lengths))] == expected
                shared = padic._PRIMES
                assert list(shared) == PLAIN_PRIMES[:len(shared)]
        finally:
            sys.setswitchinterval(interval)


class TestFactoringStops:
    def test_prime_cofactor_ends_the_search(self, deadline):
        P = 2**61 - 1
        with deadline(1):
            assert prime_factors(3 * P) == {3: 1, P: 1}
            assert prime_factors(-P) == {P: 1}
            assert prime_factors(2**5 * 3 * P) == {2: 5, 3: 1, P: 1}

    def test_prime_cofactor_past_2_64_is_rejected_at_once(self, deadline):
        # below padic._MILLER_RABIN_EXACT the test is exact, so the prime
        # cofactor is proven at once, and refused as past Prime's range
        # with the work-bound code, not trial division
        with deadline(1):
            with pytest.raises(WorkBoundExceeded) as info:
                prime_factors(2**64 + 13)
        assert info.value.code == "work_bound_exceeded"
        with pytest.raises(ValueError, match="too large"):
            Prime(2**64 + 13)

    def test_square_cofactor_is_split_by_its_root(self, deadline):
        # trial division up to 2**61 - 1 would take hours
        P = 2**61 - 1
        with deadline(1):
            assert prime_factors(2**5 * 3 * P**2) == {2: 5, 3: 1, P: 2}
            assert prime_factors(P**4 * 7) == {7: 1, P: 4}

    def test_rho_splits_a_composite_cofactor(self, deadline):
        with deadline(1):
            assert prime_factors(65537 * 65539) == {65537: 1, 65539: 1}
            assert prime_factors(12 * (2**31 - 1) * 1000003) == {2: 2, 3: 1, 1000003: 1, 2**31 - 1: 1}

    @pytest.mark.parametrize(
        "n, bits",
        [
            ((2**61 - 1) ** 3, 183),  # no square, and rho meets 2**61 - 1 only after ~2**30 steps
            ((2**61 - 1) * (2**89 - 1), 150),
            (5 * (2**521 - 1), 521),  # a prime past the exact range of the primality test
        ],
    )
    def test_a_cofactor_past_the_rho_budget_raises(self, deadline, n, bits):
        with deadline(1), pytest.raises(WorkBoundExceeded) as info:
            prime_factors(n)
        assert info.value.code == "work_bound_exceeded"
        assert str(info.value) == f"a {bits}-bit cofactor exceeds the step budget of Pollard's rho"

    def test_a_long_cofactor_pays_more_per_rho_step(self, deadline):
        # 65537 is found in a few hundred steps of a short n, but a step of
        # a 64,000-bit n costs a quarter of the budget
        assert prime_factors(65537**3 * 65539) == {65537: 3, 65539: 1}
        n = 65537**4001
        with deadline(1), pytest.raises(WorkBoundExceeded, match=f"^a {n.bit_length()}-bit cofactor"):
            prime_factors(n)

    @given(rho_products)
    def test_rho_matches_the_drawn_primes(self, primes):
        expected = {}
        for p in primes:
            expected[p] = expected.get(p, 0) + 1
        factors = prime_factors(math.prod(primes))
        assert factors == expected and list(factors) == sorted(expected)
        assert all(type(p) is Prime for p in factors)

    def test_miller_rabin_is_exact_up_to_its_bound(self):
        # the bound is the least strong pseudoprime to all twelve bases
        bound = padic._MILLER_RABIN_EXACT
        assert is_prime(bound) and bound == 399165290221 * 798330580441
        assert is_prime(2**64 + 13) and not is_prime((2**64 + 13) * 3)

    def test_high_multiplicity_is_split_off_fast(self, deadline):
        with deadline(1):
            assert prime_factors(2**100000 * 3) == {2: 100000, 3: 1}
            assert valuation(3**100000 * 7, 3) == 100000

    @given(st.integers(1, 10**7))
    def test_matches_plain_trial_division(self, n):
        out, m, d = {}, n, 2
        while d * d <= m:
            while m % d == 0:
                out[d] = out.get(d, 0) + 1
                m //= d
            d += 1
        if m > 1:
            out[m] = out.get(m, 0) + 1
        factors = prime_factors(n)
        assert factors == out and all(type(p) is Prime for p in factors)


INPUT_CHECKS = [
    pytest.param(lambda: Prime(2.5), "prime must be an integer, got 2.5", id="prime-not-integer"),
    pytest.param(lambda: prime_factors(0), "cannot factor zero", id="factor-zero"),
    pytest.param(lambda: TruncatedPadic(2, 0, 1, 0), "precision must be >= 1", id="truncated-precision"),
]


class TestInputChecks:
    @pytest.mark.parametrize("call, message", INPUT_CHECKS)
    def test_rejects(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert type(info.value) is ValueError and str(info.value) == message
