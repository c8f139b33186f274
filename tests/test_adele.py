import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adelic import adele
from adelic.adele import _scaled_in
from adelic.adele import (
    EXTENDED_PRIMES,
    FINITE_PRIMES,
    RATIONAL,
    TIMES_P,
    ZERO,
    DefaultSpec,
    FiniteAdele,
    FullAdele,
    Neighbourhood,
    PrimeSet,
    UnitIdele,
    absolute_value,
    component,
    embed_rational,
    factor_idele,
    is_invertible,
    scale,
    xi_partial,
    zero_set,
)
from adelic.errors import InfinityOnFiniteAdele, NotInvertible, WorkBoundExceeded, ZeroComponent
from adelic.padic import INFINITE_VALUATION, INFINITY, PadicBall, Prime, prime_factors, valuation

F = Fraction

small_nonzero = st.fractions(
    min_value=F(-60), max_value=F(60), max_denominator=50
).filter(lambda q: q != 0)


def finite(explicit, default):
    return FiniteAdele(explicit, default)


def full(explicit, default, real):
    return FullAdele(FiniteAdele(explicit, default), real)


FACTOR_PRIMES = (2, 3, 5, 7)
factor_prime_sets = st.sets(st.sampled_from(FACTOR_PRIMES))
factor_exponents = st.integers(-2, 2)
factor_signed = st.integers(-30, 30).filter(bool)
factor_values = st.builds(F, factor_signed, st.integers(1, 30))
coin = st.booleans()


@st.composite
def _invertible_adeles(draw):
    """Invertible full adeles: q is an integer, whose primes may be
    explicit, times powers of the explicit primes; each entry restates q
    or is drawn, and the real part has either sign."""
    primes = sorted(draw(factor_prime_sets))
    q = F(draw(factor_signed)) * math.prod(F(p) ** draw(factor_exponents) for p in primes)
    explicit = {p: q if draw(coin) else draw(factor_values) for p in primes}
    return full(explicit, DefaultSpec.rational(q), draw(factor_values))


invertible_adeles = _invertible_adeles()


class TestConstruction:
    def test_default_support_must_be_explicit(self):
        with pytest.raises(ValueError):
            finite({}, DefaultSpec.rational(F(1, 3)))
        finite({Prime(3): F(1, 3)}, DefaultSpec.rational(F(1, 3)))  # fine

    def test_only_the_default_denominator_must_be_explicit(self):
        with pytest.raises(ValueError, match="denominator cofactor 15"):
            finite({2: F(1)}, DefaultSpec.times_p(F(7, 60)))
        a = finite({}, DefaultSpec.rational(2))
        assert a.component(2) == 2 and a.component(5) == 2
        assert a == finite({2: F(2)}, DefaultSpec.rational(2))

    def test_times_p_component(self):
        a = finite({}, DefaultSpec.times_p(1))
        assert a.component(7) == 7
        assert a.component(2) == 2

    def test_zero_default_carries_no_q(self):
        with pytest.raises(ValueError):
            DefaultSpec(("zero"), F(1))
        with pytest.raises(ValueError):
            DefaultSpec.rational(0)

    def test_semantic_equality_ignores_redundant_entries(self):
        a = finite({2: F(6), 3: F(6)}, DefaultSpec.rational(6))
        b = finite({2: F(6), 3: F(6), 5: F(6)}, DefaultSpec.rational(6))
        assert a == b
        c = finite({2: F(6), 3: F(6), 5: F(7)}, DefaultSpec.rational(6))
        assert a != c

    def test_unit_idele_validation(self):
        UnitIdele(FiniteAdele({}, DefaultSpec.rational(1)), F(1))
        with pytest.raises(ValueError):
            UnitIdele(FiniteAdele({2: F(2)}, DefaultSpec.rational(1)), F(1))
        with pytest.raises(ValueError):
            UnitIdele(FiniteAdele({}, DefaultSpec.rational(1)), F(-1))
        with pytest.raises(ValueError):
            UnitIdele(FiniteAdele({}, DefaultSpec.zero()), F(1))
        # 2 is no unit at 2, explicit or not
        with pytest.raises(ValueError):
            UnitIdele(FiniteAdele({}, DefaultSpec.rational(2)), F(1))
        UnitIdele(FiniteAdele({2: F(1)}, DefaultSpec.rational(2)), F(1))

    def test_constructors_keep_a_given_fraction(self):
        # a Fraction is immutable, so normalising one returns the same object
        x, y = F(3, 7), F(5, 2)
        a = FullAdele(finite({7: x}, DefaultSpec.rational(x)), x)
        assert a.real_part is x and a.explicit[7] is x and a.default.q is x
        assert DefaultSpec.rational(x).q is x and DefaultSpec.times_p(x).q is x
        assert PadicBall(2, x, 1).center is x
        lo, hi = Neighbourhood({}, (x, y)).real_interval
        assert lo is x and hi is y
        assert embed_rational(x, "full").real_part is x


def four_old_checks(fin, real):
    """The four checks a unit idele once had to pass, before its rule became
    the split r * u with r = 1: a RATIONAL default, a positive real part, a
    unit at every explicit prime, and a default numerator that is 1 up to
    sign once the explicit primes are divided out."""
    if fin.default.kind != RATIONAL or real <= 0:
        return False
    if any(valuation(v, p) != 0 for p, v in fin.explicit.items()):
        return False
    n = abs(fin.default.q.numerator)
    for p in fin.explicit:
        while n % p == 0:
            n //= p
    return n == 1


@st.composite
def unit_candidates(draw):
    """(finite part, real part) pairs near the unit ideles: all three default
    kinds, explicit zeros, components p**k times a unit, real parts of every
    sign, and default numerators of either sign with primes inside and
    outside the explicit map (only explicit primes in the denominator)."""
    primes = draw(st.lists(st.sampled_from([2, 3, 5, 7]), unique=True, max_size=3))
    explicit = {}
    for p in primes:
        k = draw(st.sampled_from([0, 0, 0, 1, -1, 2, None]))  # None: an explicit zero
        unit = draw(st.sampled_from([F(1), F(-1), F(11, 13), F(-13, 11)]))
        explicit[p] = F(0) if k is None else unit * F(p) ** k
    kind = draw(st.sampled_from([RATIONAL, RATIONAL, TIMES_P, ZERO]))
    default = DefaultSpec.zero()
    if kind != ZERO:
        num = draw(st.sampled_from([1, 1, -1, 2, 14, -35, 11, -65]))
        den = math.prod(p ** draw(st.integers(0, 1)) for p in primes)
        default = DefaultSpec(kind, F(num, den))
    real = draw(st.sampled_from([F(1), F(1), F(3, 2), F(-1), F(0), F(-2, 5)]))
    return FiniteAdele(explicit, default), real


class TestUnitRule:
    @settings(max_examples=200)
    @given(unit_candidates())
    def test_accepts_exactly_what_the_four_old_checks_accepted(self, case):
        fin, real = case
        try:
            UnitIdele(fin, real)
        except ValueError:
            assert not four_old_checks(fin, real)
        else:
            assert four_old_checks(fin, real)


embed_rationals = st.fractions(min_value=F(-10**6), max_value=F(10**6), max_denominator=10**6)


class TestEmbed:
    def test_six(self):
        # only the denominator's primes are listed; the default gives 6 at 2 and 3
        a = embed_rational(6)
        assert a.explicit == {}
        assert a.component(2) == 6 and a.component(3) == 6
        assert a == FiniteAdele({2: 6, 3: 6}, DefaultSpec.rational(6))
        assert a.default == DefaultSpec.rational(6)

    def test_large_numerator_is_never_factored(self, deadline):
        q = (2**61 - 1) * (2**89 - 1)
        with deadline(1):
            a = embed_rational(q, kind="full")
        assert a.explicit == {} and a.component(3) == q and a.real_part == q

    def test_zero(self):
        a = embed_rational(0)
        assert a.explicit == {}
        assert a.default == DefaultSpec.zero()
        assert a.is_zero

    def test_one_third_full(self):
        a = embed_rational(F(1, 3), kind="full")
        assert set(a.explicit) == {3}
        assert a.real_part == F(1, 3)

    @given(embed_rationals, st.sampled_from(["finite", "full"]))
    @example(F(0), "finite")
    @example(F(0), "full")
    def test_matches_the_explicit_construction(self, q, kind):
        # the former construction, which listed the primes of q's denominator
        # itself; dump_adele prints the description, so it must agree exactly
        fin = FiniteAdele({p: q for p in prime_factors(q.denominator)},
                          DefaultSpec.rational(q) if q else DefaultSpec.zero())
        expected = fin if kind == "finite" else FullAdele(fin, q)
        a = embed_rational(q, kind)
        assert type(a) is type(expected) and a == expected
        assert list(a.explicit.items()) == list(expected.explicit.items()) and a.default == expected.default


class TestScale:
    def test_half_of_two_is_one(self):
        assert scale(F(1, 2), embed_rational(2)) == embed_rational(1)

    def test_preserves_zero_sets_of_zero_default(self):
        a = finite({5: F(1)}, DefaultSpec.zero())
        assert zero_set(scale(3, a)) == zero_set(a)

    def test_migrates_denominator_prime(self):
        a = finite({3: F(1)}, DefaultSpec.rational(1))
        b = scale(F(1, 3), a)
        assert b.component(3) == F(1, 3)
        assert b.default == DefaultSpec.rational(F(1, 3))

    def test_zero_factor_rejected(self):
        with pytest.raises(ValueError):
            scale(0, embed_rational(1))

    def test_square_prime_cofactor_migrates_at_once(self, deadline):
        # the cofactor (2**61 - 1)**2 is split by its square root, not by trial division
        P = 2**61 - 1
        r = F(1, P**2)
        with deadline(1):
            b = scale(r, embed_rational(1))
        assert b.explicit == {P: r} and b.default == DefaultSpec.rational(r)

    def test_large_prime_cofactor_migrates_at_once(self, deadline):
        # trial division up to sqrt(2**61 - 1) would take hours; the
        # cofactor left after stripping 3 passes the primality test instead
        P = 2**61 - 1
        for r in (F(1, 3 * P), F(1, P), F(5, 9 * P)):
            with deadline(1):
                b = scale(r, finite({}, DefaultSpec.rational(1)))
            assert b.explicit[P] == r and b.default == DefaultSpec.rational(r)
            assert set(b.explicit) == {p for p in (3, P) if r.denominator % p == 0}

    def test_prime_cofactor_past_2_64_is_rejected_at_once(self, deadline):
        # the cofactor passes the primality test, so the work bound past
        # Prime's range ends the call instead of trial division toward 2**32
        r = F(1, 2**64 + 13)
        with deadline(1):
            for call in (lambda: scale(r, finite({}, DefaultSpec.rational(1))), lambda: embed_rational(r)):
                with pytest.raises(WorkBoundExceeded) as info:
                    call()
                assert info.value.code == "work_bound_exceeded"

    def test_results_pass_the_constructor_check(self, monkeypatch):
        checked = []
        post_init = FiniteAdele.__post_init__

        def spy(self):
            post_init(self)
            checked.append(self)

        monkeypatch.setattr(FiniteAdele, "__post_init__", spy)
        for a in (
            full({3: F(1)}, DefaultSpec.rational(1), F(2)),
            finite({5: F(0)}, DefaultSpec.zero()),
            finite({5: F(1)}, DefaultSpec.times_p(F(2, 5))),
        ):
            b = scale(F(7, 15), a)
            assert any(c is getattr(b, "finite_part", b) for c in checked)
        u = factor_idele(full({3: F(6)}, DefaultSpec.rational(F(4, 3)), F(2)))[1]
        assert any(c is u.finite_part for c in checked)

    @given(small_nonzero, small_nonzero)
    def test_action_composes(self, r, s):
        a = full({5: F(5), 7: F(0)}, DefaultSpec.rational(5), F(3))
        assert scale(r, scale(s, a)) == scale(r * s, a)
        assert scale(1, a) == a

    @given(small_nonzero)
    def test_zero_set_invariant(self, r):
        a = full({2: F(0), 5: F(4)}, DefaultSpec.rational(1), F(2))
        assert zero_set(scale(r, a)) == zero_set(a)


class TestComponent:
    def test_truncated_view(self):
        t = component(embed_rational(6), 5, 2)
        assert t.valuation == 0 and t.unit_residue == 6

    def test_times_p_view(self):
        t = component(finite({}, DefaultSpec.times_p(1)), 7, 1)
        assert t.valuation == 1 and t.unit_residue == 1

    def test_infinity(self):
        a = embed_rational(F(5, 2), kind="full")
        assert component(a, INFINITY) == F(5, 2)
        with pytest.raises(InfinityOnFiniteAdele):
            component(embed_rational(1), INFINITY)


class TestZeroSet:
    def test_finite_description(self):
        a = finite({2: F(0), 3: F(0)}, DefaultSpec.rational(1))
        s = zero_set(a)
        assert s == PrimeSet.finite({2, 3})

    def test_embedded_six_has_no_zeros(self):
        assert zero_set(embed_rational(6)) == PrimeSet.finite()

    def test_cofinite_description(self):
        a = finite({5: F(1)}, DefaultSpec.zero())
        assert zero_set(a) == PrimeSet.cofinite({5})

    def test_full_adele_includes_infinity(self):
        a = full({2: F(0)}, DefaultSpec.rational(1), F(0))
        s = zero_set(a)
        assert s.base == EXTENDED_PRIMES
        assert s.contains(INFINITY) and s.contains(2) and not s.contains(3)


class TestPrimeSet:
    def test_subset_rules(self):
        fin = PrimeSet.finite({2})
        assert fin.is_subset_of(PrimeSet.finite({2, 3}))
        assert not PrimeSet.finite({2, 3}).is_subset_of(fin)
        assert fin.is_subset_of(PrimeSet.cofinite({3}))
        assert not fin.is_subset_of(PrimeSet.cofinite({2}))
        assert not PrimeSet.cofinite({2}).is_subset_of(fin)
        assert PrimeSet.cofinite({2, 3}).is_subset_of(PrimeSet.cofinite({2}))
        assert not PrimeSet.cofinite({2}).is_subset_of(PrimeSet.cofinite({2, 3}))

    def test_base_mismatch(self):
        with pytest.raises(ValueError):
            PrimeSet.finite({2}).is_subset_of(PrimeSet.finite({2}, base=EXTENDED_PRIMES))
        with pytest.raises(ValueError):
            PrimeSet.finite({INFINITY})

    def test_membership_on_a_window(self):
        assert [p for p in (2, 3, 5) if PrimeSet.cofinite({3}).contains(p)] == [2, 5]
        assert [p for p in (2, 3) if PrimeSet.finite({2, 7}).contains(p)] == [2]

    def test_infinity_lies_off_the_finite_primes(self):
        assert not PrimeSet.cofinite(()).contains(INFINITY)
        assert not PrimeSet.finite(()).contains(INFINITY)
        assert not zero_set(FiniteAdele({}, DefaultSpec.zero())).contains(INFINITY)
        assert PrimeSet.cofinite((), base=EXTENDED_PRIMES).contains(INFINITY)


class TestInvertibility:
    def test_embedded_rational_is_invertible(self):
        assert is_invertible(embed_rational(6, kind="full"))

    def test_zero_component_blocks(self):
        assert not is_invertible(full({2: F(0)}, DefaultSpec.rational(1), F(1)))

    def test_times_p_blocks(self):
        a = full({}, DefaultSpec.times_p(1), F(1))
        assert all(a.component(p) != 0 for p in (2, 3, 5))
        assert not is_invertible(a)

    def test_zero_real_blocks(self):
        assert not is_invertible(full({}, DefaultSpec.rational(1), F(0)))


class TestAbsoluteValue:
    @given(small_nonzero)
    def test_product_formula(self, q):
        assert absolute_value(embed_rational(q, kind="full")) == 1

    def test_explicit_example(self):
        assert absolute_value(full({2: F(8)}, DefaultSpec.rational(1), F(3))) == F(3, 8)

    def test_noninvertible_gives_zero(self):
        assert absolute_value(full({}, DefaultSpec.times_p(1), F(1))) == 0

    @given(small_nonzero)
    def test_scaling_invariance(self, r):
        a = full({2: F(8), 3: F(1, 9)}, DefaultSpec.rational(1), F(5))
        assert absolute_value(scale(r, a)) == absolute_value(a)


class TestXiPartial:
    def setup_method(self):
        self.a = embed_rational(6, kind="full")

    def test_partial_products(self):
        assert xi_partial(self.a, {2}) == 3
        assert xi_partial(self.a, {2, 3}) == 1
        assert xi_partial(self.a, set()) == 6

    def test_zero_component_error(self):
        bad = full({2: F(0)}, DefaultSpec.rational(1), F(1))
        with pytest.raises(ZeroComponent):
            xi_partial(bad, {2})
        with pytest.raises(ZeroComponent):
            xi_partial(full({}, DefaultSpec.rational(1), F(0)), set())

    def test_tail_net_monotone(self):
        a = full({2: F(4), 3: F(1, 3), 5: F(0)}, DefaultSpec.rational(4), F(7))
        # once F contains the negative-valuation prime 3, growing F shrinks xi
        chain = [{3}, {2, 3}, {2, 3, 7}, {2, 3, 7, 11}]
        values = [xi_partial(a, fs) for fs in chain]
        assert values == sorted(values, reverse=True)


class TestFactorIdele:
    def test_embedded_six(self):
        r, u = factor_idele(embed_rational(6, kind="full"))
        assert r == 6
        assert u == embed_rational(1, kind="full")

    def test_negative_sign(self):
        r, u = factor_idele(embed_rational(-2, kind="full"))
        assert r == -2
        assert u == embed_rational(1, kind="full")

    def test_unit_maps_to_itself(self):
        u0 = UnitIdele(FiniteAdele({2: F(3)}, DefaultSpec.rational(1)), F(2))
        r, u = factor_idele(u0)
        assert r == 1 and u == u0

    def test_prime_powers_of_both_signs_and_the_stripped_default(self):
        # -1 * strip(21, {2, 3, 5}) * 2^3 * 3^-2 * 5^1 = -280/9
        a = full({2: F(8), 3: F(1, 9), 5: F(5, 7)}, DefaultSpec.rational(21), F(-1, 2))
        r, u = factor_idele(a)
        assert r == F(-280, 9)
        assert scale(r, u) == a

    def test_not_invertible(self):
        with pytest.raises(NotInvertible):
            factor_idele(full({2: F(0)}, DefaultSpec.rational(1), F(1)))

    @settings(max_examples=200)
    @given(invertible_adeles)
    def test_unit_is_described_as_the_scale_route_described_it(self, a):
        # the earlier route built the unit's finite part as scale(1 / r, a)
        r, u = factor_idele(a)
        old = scale(1 / r, a.finite_part)
        assert list(u.explicit.items()) == list(old.explicit.items())
        assert u.default == old.default and u.real_part == a.real_part / r
        assert repr(u) == repr(UnitIdele(old, a.real_part / r))

    def test_builds_the_unit_without_scale_or_factoring(self, monkeypatch):
        a = full({2: F(8), 3: F(1, 9), 5: F(5, 7), 7: F(21)}, DefaultSpec.rational(21), F(-1, 2))
        expected = (F(-280, 9), UnitIdele(scale(F(-9, 280), a.finite_part), F(9, 560)))

        def refuse(*args):
            raise AssertionError("factor_idele builds its unit directly")

        monkeypatch.setattr(adele, "scale", refuse)
        monkeypatch.setattr(adele, "prime_factors", refuse)
        r, u = factor_idele(a)
        assert (r, u) == expected and repr(u) == repr(expected[1])

    @given(small_nonzero, st.fractions(min_value=F(1, 9), max_value=F(9), max_denominator=9))
    def test_roundtrip(self, r, real):
        u = UnitIdele(FiniteAdele({2: F(7), 5: F(1, 3)}, DefaultSpec.rational(1)), real)
        a = scale(r, u)
        r2, u2 = factor_idele(FullAdele(a.finite_part, a.real_part))
        assert r2 == r and u2 == u
        assert scale(r2, u2) == a
        # the product formula: |a| is the real coordinate of its unit part
        assert absolute_value(a) == u2.real_part == real


class TestNeighbourhood:
    def test_membership(self):
        v = Neighbourhood({2: PadicBall(2, F(0), 3), 3: PadicBall(3, F(1), 1)})
        assert v.contains(embed_rational(16))
        assert not v.contains(embed_rational(4))
        # integrality is enforced outside the constrained primes
        assert not v.contains(FiniteAdele({5: F(1, 5)}, DefaultSpec.rational(1)))

    def test_interval_discipline(self):
        v = Neighbourhood({}, real_interval=(F(5), F(7)))
        assert v.contains(embed_rational(6, kind="full"))
        assert not v.contains(embed_rational(7, kind="full"))  # endpoints excluded
        with pytest.raises(ValueError):
            v.contains(embed_rational(1))
        with pytest.raises(ValueError):
            Neighbourhood({}).contains(embed_rational(1, kind="full"))

    def test_ball_admits_non_integral_member(self):
        v = Neighbourhood({2: PadicBall(2, F(11, 2), -1)}, real_interval=(F(5), F(6)))
        assert v.contains(embed_rational(F(11, 2), kind="full"))

    def test_interval_must_be_nonempty(self):
        with pytest.raises(ValueError):
            Neighbourhood({}, real_interval=(F(1), F(1)))

    def test_ball_must_sit_at_its_key(self):
        with pytest.raises(ValueError):
            Neighbourhood({3: PadicBall(2, F(0), 1)})


PLACES = (2, 3, 5, 7, 11)
DENOMINATOR_PRIMES = PLACES + (13, 17)


@st.composite
def scaled_memberships(draw):
    """(a, nbhd, r) where r's denominator reaches primes off the places,
    a default numerator often shares its primes, explicit entries may
    vanish, and each ball's centre sits at, near or away from r * a_p."""
    den = math.prod(p ** draw(st.integers(0, 2)) for p in DENOMINATOR_PRIMES)
    r = F(draw(st.integers(-30, 30).filter(bool)), den)
    kind = draw(st.sampled_from(["zero", "rational", "times_p"]))
    default, explicit = DefaultSpec.zero(), {}
    if kind != "zero":
        shared = math.prod(p ** draw(st.integers(0, 2)) for p in DENOMINATOR_PRIMES)
        default = DefaultSpec(kind, F(draw(st.sampled_from([1, -1, 2, -3])) * shared, draw(st.sampled_from([1, 2, 15]))))
        explicit = {p: default.value_at(p) for p in PLACES if default.q.denominator % p == 0}
    for p in draw(st.sets(st.sampled_from(PLACES), max_size=3)):
        explicit[p] = draw(st.sampled_from([F(0), F(1), F(p), F(1, p), F(-2, p * p), F(3, 4)]))
    a = FiniteAdele(explicit, default)
    balls = {}
    for p in draw(st.sets(st.sampled_from(PLACES), max_size=3)):
        e, x = draw(st.integers(-2, 4)), r * a.component(p)
        where = draw(st.sampled_from(["at", "near", "away"]))
        if where == "at":
            centre = x
        elif where == "near":  # |x - centre|_p is p**-e, p**-(e + 1) or p**-(e - 1)
            centre = x + F(p) ** e * draw(st.sampled_from([1, -1, p, F(1, p)]))
        else:
            centre = draw(st.sampled_from([F(0), F(1, 3), F(-7, 2), F(5)]))
        balls[p] = PadicBall(p, centre, e)
    if not draw(st.booleans()):
        return a, Neighbourhood(balls), r
    real = draw(st.sampled_from([F(0), F(1), F(-5, 3)]))
    lo = r * real + draw(st.sampled_from([F(-1), F(-1, 8), F(0), F(1, 8)]))
    hi = lo + draw(st.sampled_from([F(1, 8), F(1), F(5)]))
    return FullAdele(a, real), Neighbourhood(balls, real_interval=(lo, hi)), r


class TestScaledMembership:
    """The rule that decides r * a in U without building r * a, against
    building it with scale and testing it with contains."""

    @settings(max_examples=200)
    @given(scaled_memberships())
    def test_matches_scale_and_contains(self, case):
        a, nbhd, r = case
        expected = nbhd.contains(scale(r, a))
        places = nbhd.balls.keys() | a.explicit.keys()
        rest_primes = [p for p in DENOMINATOR_PRIMES if r.denominator % p == 0 and p not in places]
        assert _scaled_in(nbhd, r, a, rest_primes) == expected
        assert _scaled_in(nbhd, r, a, DENOMINATOR_PRIMES) == expected  # primes at the places count for nothing
        for left_out in rest_primes:
            if _scaled_in(nbhd, r, a, [p for p in rest_primes if p != left_out]):
                assert expected

    def test_times_p_absorbs_one_factor_per_given_prime(self):
        a = finite({}, DefaultSpec.times_p(1))
        nbhd = Neighbourhood({})
        assert nbhd.contains(scale(F(1, 13), a)) and not nbhd.contains(scale(F(1, 169), a))
        assert _scaled_in(nbhd, F(1, 13), a, [13, 13]) and not _scaled_in(nbhd, F(1, 169), a, [13, 13])
        assert not _scaled_in(nbhd, F(1, 13), a)


def scaled_in_by_fractions(nbhd, r, a, primes=()):
    """The membership rule as it read on Fractions: r * a_p built at each
    place and tested by PadicBall.contains, the real part by comparison."""
    explicit, default, balls = a.explicit, a.default, nbhd.balls
    places = balls.keys() | explicit.keys()
    for p in places:
        v = explicit.get(p)
        x = (default.value_at(p) if v is None else v) * r
        if not (balls[p].contains(x) if p in balls else x.denominator % p):
            return False
    rest = r.denominator
    for p in places:
        while rest % p == 0:
            rest //= p
    if default.value_at(math.prod(set(primes))).numerator % rest:
        return False
    if isinstance(a, FullAdele):
        lo, hi = nbhd.real_interval
        return lo < a.real_part * r < hi
    return True


# g * r and 1 / (g * r) cancel g against r's denominator or numerator, and entries such
# as 1/p meet r's factor p, so the pairs the integer rule multiplies are often unreduced
INTEGER_MEMBERSHIPS = st.tuples(
    scaled_memberships(),
    st.sampled_from([1, 2, 3, 10, 13]),
    st.lists(st.sampled_from(DENOMINATOR_PRIMES), max_size=4),
)


class TestIntegerMembership:
    """_scaled_in on numerators and denominators against the rule it
    replaced, which multiplied Fractions at every place."""

    @settings(max_examples=200)
    @given(INTEGER_MEMBERSHIPS)
    def test_matches_the_fraction_rule(self, case):
        (a, nbhd, r), g, primes = case
        for s in (r, -r, g * r, -1 / (g * r)):
            assert _scaled_in(nbhd, s, a, primes) == scaled_in_by_fractions(nbhd, s, a, primes)
        assert _scaled_in(nbhd, 1, a) == scaled_in_by_fractions(nbhd, F(1), a) == nbhd.contains(a)


PRIMES = (2, 3, 5, 7)


@st.composite
def descriptions(draw, default=None):
    """A finite adele over 2, 3, 5, 7 with small values, where each prime
    is left to the default rule, restates it explicitly, or differs."""
    if default is None:
        kind = draw(st.sampled_from(["zero", "rational", "times_p"]))
        q = None if kind == "zero" else draw(st.sampled_from([F(1), F(-1), F(2), F(1, 3), F(-6, 5)]))
        default = DefaultSpec(kind, q)
    q = default.q
    explicit = {}
    for p in PRIMES:
        choice = draw(st.sampled_from(["absent", "restated", "other"]))
        if choice == "absent" and (q is None or q.denominator % p):
            continue
        if choice == "other":
            explicit[p] = draw(st.sampled_from([F(0), F(1), F(p), F(1, p), F(-2)]))
        else:
            explicit[p] = default.value_at(p)
    return FiniteAdele(explicit, default)


@st.composite
def description_pairs(draw):
    """Two finite or two full adeles, sharing their default rule (and
    real part) often enough that equal pairs are common."""
    a = draw(descriptions())
    b = draw(descriptions(default=a.default if draw(st.booleans()) else None))
    if draw(st.booleans()):
        reals = st.sampled_from([F(1), F(1, 2)])
        a, b = FullAdele(a, draw(reals)), FullAdele(b, draw(reals))
    return a, b


def componentwise_equal(a, b):
    """Equality of adeles by definition: the same default rule and the same
    component at every explicit prime of either description."""
    if isinstance(a, FullAdele):
        if a.real_part != b.real_part:
            return False
        a, b = a.finite_part, b.finite_part
    if a.default != b.default:
        return False
    return all(a.component(p) == b.component(p) for p in set(a.explicit) | set(b.explicit))


def pruned_unit_key(u):
    """The order closed descriptions list rational-default units in."""
    pruned = tuple(
        (int(p), v.numerator, v.denominator)
        for p, v in u.explicit.items()
        if v != u.default.value_at(p)
    )
    q = u.default.q
    return (pruned, q.numerator, q.denominator, u.real_part.numerator, u.real_part.denominator)


class TestCanonicalKey:
    @given(description_pairs())
    def test_equality_is_componentwise_and_hash_follows(self, pair):
        a, b = pair
        assert (a == b) == componentwise_equal(a, b)
        assert (a.sort_key() == b.sort_key()) == (a == b)
        if a == b:
            assert hash(a) == hash(b)
            assert len({a, b}) == 1

    @given(st.data())
    def test_rational_defaults_order_by_pruned_entries_then_q_then_real(self, data):
        qs = st.sampled_from([F(1), F(-1), F(2), F(1, 3)])
        a, b = (
            FullAdele(
                data.draw(descriptions(default=DefaultSpec.rational(data.draw(qs)))),
                data.draw(st.sampled_from([F(1), F(1, 2), F(3)])),
            )
            for _ in range(2)
        )
        assert (a.sort_key() < b.sort_key()) == (pruned_unit_key(a) < pruned_unit_key(b))

    def test_unit_idele_equals_full_adele(self):
        u = UnitIdele(FiniteAdele({3: F(1)}, DefaultSpec.rational(1)), F(2))
        a = FullAdele(FiniteAdele({}, DefaultSpec.rational(1)), F(2))
        assert u == a and a == u and hash(u) == hash(a)
        assert a.finite_part != a


INPUT_CHECKS = [
    pytest.param(lambda: DefaultSpec("bogus"), ValueError, "unknown default kind 'bogus'", id="default-kind"),
    pytest.param(lambda: FiniteAdele({}, RATIONAL), ValueError, "default must be a DefaultSpec", id="finite-default"),
    pytest.param(lambda: FullAdele({}, 1), ValueError, "finite_part must be a FiniteAdele", id="full-finite-part"),
    pytest.param(lambda: PrimeSet("bogus", "finite", frozenset()), ValueError, "unknown base 'bogus'", id="set-base"),
    pytest.param(lambda: PrimeSet(FINITE_PRIMES, "bogus", frozenset()), ValueError, "unknown kind 'bogus'",
                 id="set-kind"),
    pytest.param(lambda: embed_rational(1, "bogus"), ValueError, "kind must be 'finite' or 'full', got 'bogus'",
                 id="embed-kind"),
    # the kind is judged before q's denominator is factored
    pytest.param(lambda: embed_rational(F(1, 2**64 + 13), "bogus"), ValueError,
                 "kind must be 'finite' or 'full', got 'bogus'", id="embed-kind-before-factoring"),
    pytest.param(lambda: component(embed_rational(1), 2), ValueError, "precision is required at a finite prime",
                 id="component-precision"),
    pytest.param(lambda: is_invertible(embed_rational(1)), ValueError, "invertibility is a full-adele notion",
                 id="invertible-finite"),
    pytest.param(lambda: xi_partial(embed_rational(1), [2]), ValueError, "xi_partial is a full-adele operation",
                 id="xi-finite"),
    pytest.param(lambda: factor_idele(embed_rational(1)), ValueError, "idele factorization needs a full adele",
                 id="factor-finite"),
    # what each of the four old unit checks caught, told by the one rule
    pytest.param(lambda: UnitIdele(FiniteAdele({}, DefaultSpec.times_p(1)), 1), ValueError,
                 "UnitIdele(FiniteAdele({}, default=times_p(1)), real=1) is not a unit idele: it is not invertible",
                 id="unit-times-p"),
    pytest.param(lambda: UnitIdele(FiniteAdele({}, DefaultSpec.rational(1)), -1), ValueError,
                 "UnitIdele(FiniteAdele({}, default=rational(1)), real=-1) is not a unit idele: it is -1 times one",
                 id="unit-real-negative"),
    pytest.param(lambda: UnitIdele(FiniteAdele({}, DefaultSpec.rational(1)), 0), ValueError,
                 "UnitIdele(FiniteAdele({}, default=rational(1)), real=0) is not a unit idele: it is not invertible",
                 id="unit-real-zero"),
    pytest.param(lambda: UnitIdele(FiniteAdele({2: 2}, DefaultSpec.rational(1)), 1), ValueError,
                 "UnitIdele(FiniteAdele({2: 2}, default=rational(1)), real=1) is not a unit idele: it is 2 times one",
                 id="unit-component"),
    pytest.param(lambda: UnitIdele(FiniteAdele({}, DefaultSpec.rational(2)), 1), ValueError,
                 "UnitIdele(FiniteAdele({}, default=rational(2)), real=1) is not a unit idele: it is 2 times one",
                 id="unit-default-numerator"),
]


class TestInputChecks:
    @pytest.mark.parametrize("call, error, message", INPUT_CHECKS)
    def test_rejects(self, call, error, message):
        with pytest.raises(error) as info:
            call()
        assert type(info.value) is error and str(info.value) == message

    def test_full_adele_component_at_infinity_is_the_real_part(self):
        assert full({}, DefaultSpec.rational(1), F(3, 2)).component(INFINITY) == F(3, 2)
