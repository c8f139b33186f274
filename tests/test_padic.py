import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from adelic.errors import NoIntegerSolution, NonCoprimeModuli
from adelic.padic import (
    INFINITE_VALUATION,
    INFINITY,
    PadicBall,
    Prime,
    TruncatedPadic,
    ball_contains,
    crt_solve,
    expand,
    extended_prime_key,
    integer_in_ball,
    is_infinite_place,
    is_prime,
    iter_primes,
    prime_factors,
    primes_dividing,
    valuation,
)

SMALL_PRIMES = [2, 3, 5, 7, 11, 13]

rationals = st.fractions(
    min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=1000
)
nonzero_rationals = rationals.filter(lambda q: q != 0)
prime_st = st.sampled_from(SMALL_PRIMES).map(Prime)


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

    def test_residue_validation(self):
        with pytest.raises(ValueError):
            TruncatedPadic(Prime(2), 0, 2, 3)  # residue divisible by p
        with pytest.raises(ValueError):
            TruncatedPadic(Prime(2), INFINITE_VALUATION, 1, 3)


class TestBalls:
    def test_trivial_examples(self):
        assert ball_contains(PadicBall(2, Fraction(0), 3), 16)
        assert not ball_contains(PadicBall(2, Fraction(0), 3), 4)
        assert ball_contains(PadicBall(3, Fraction(1), 1), 16)

    @given(rationals, prime_st, st.integers(-4, 6), st.integers(-50, 50))
    def test_translation_invariance(self, x, p, ell, k):
        ball = PadicBall(p, Fraction(7, 5) if p != 5 else Fraction(7, 3), ell)
        shifted = x + Fraction(p) ** ell * k
        assert ball.contains(x) == ball.contains(shifted)


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
        assert prime_factors(-7) == {Prime(7): 1}
        assert prime_factors(1) == {}

    def test_primes_dividing_fraction(self):
        assert primes_dividing(Fraction(4, 15)) == frozenset({2, 3, 5})
        assert primes_dividing(0) == frozenset()

    def test_iter_primes(self):
        it = iter_primes()
        assert [next(it) for _ in range(6)] == [2, 3, 5, 7, 11, 13]
        assert next(iter_primes(14)) == 17
