"""Acceptance suite.

One test per criterion, exact (zero-tolerance) checks unless a runtime
bound is stated.  Run with ``pytest -s tests/test_acceptance.py`` to see
one PASS line per criterion.
"""

import random
import time
from fractions import Fraction

import pytest

from adelic.adele import (
    EXTENDED_PRIMES,
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
    xi_partial,
    zero_set,
)
from adelic.errors import ClosedOrbitMiss, Infeasible
from adelic.oracle import SearchBudget, window_closure, witness_by_search
from adelic.padic import INFINITY, PadicBall, Prime, iter_primes, valuation
from adelic.primtop import (
    ALL_CHARACTERS,
    Character,
    CharacterPoint,
    PrimeSetPoint,
    Q_FULL,
    Q_PLUS,
    SetDescriptor,
    SingletonFamily,
    UnitFamily,
    UnitPoint,
    WHOLE_SPACE,
    closed_contains_atom,
    pc_closure,
    point_specializes,
    prim_equal,
    prim_full_closure,
    primcq_closure,
    tau_closure,
)
from adelic.quasiorbit import (
    ParameterPoint,
    approx_witness,
    chi,
    exact_orbit_witness,
    orbit_closure_contains,
    same_quasi_orbit,
)

F = Fraction
SMALL_PRIMES = [Prime(p) for p in (2, 3, 5, 7, 11, 13)]
SEED = 0x5EED


def _report(number: int, label: str) -> None:
    print(f"criterion {number:02d} {label}: PASS")


def rand_nonzero(rng: random.Random, height: int) -> Fraction:
    while True:
        q = F(rng.randint(-height, height), rng.randint(1, height))
        if q != 0:
            return q


def rand_invertible(rng: random.Random, value_height: int = 1000) -> FullAdele:
    chosen = [p for p in SMALL_PRIMES if rng.random() < 0.5]
    explicit = {p: rand_nonzero(rng, value_height) for p in chosen}
    q = F(1)
    for p in chosen:
        q *= F(p) ** rng.randint(-2, 2)
    if rng.random() < 0.5:
        q = -q
    return FullAdele(FiniteAdele(explicit, DefaultSpec.rational(q)), rand_nonzero(rng, value_height))


def rand_unit(rng: random.Random, real=None) -> UnitIdele:
    chosen = [p for p in SMALL_PRIMES if rng.random() < 0.5]
    explicit = {}
    for p in chosen:
        while True:
            v = rand_nonzero(rng, 50)
            if valuation(v, p) == 0:
                explicit[p] = abs(v) if rng.random() < 0.5 else v
                break
    q = F(1)
    for p in chosen:
        q *= F(p) ** rng.randint(-1, 1)
    if real is None:
        real = abs(rand_nonzero(rng, 40))
    return UnitIdele(FiniteAdele(explicit, DefaultSpec.rational(q)), real)


def canonical_neighbourhood(rng: random.Random, b: FullAdele | FiniteAdele, width=F(1, 8)):
    """Balls of exponent <= 3 around b's components at primes <= 13, plus a
    real interval of the requested width around its real part (full case)."""
    full = isinstance(b, FullAdele)
    fin = b.finite_part if full else b
    ball_primes = set(fin.explicit)
    for p in rng.sample(SMALL_PRIMES, k=rng.randint(0, 2)):
        ball_primes.add(p)
    balls = {
        p: PadicBall(p, fin.component(p), rng.randint(1, 3)) for p in sorted(ball_primes)
    }
    if not full:
        return Neighbourhood(balls)
    lo = b.real_part - width / 2
    return Neighbourhood(balls, real_interval=(lo, lo + width))


class TestCriterion01ProductFormula:
    def test_product_formula(self):
        rng = random.Random(SEED)
        start = time.perf_counter()
        for _ in range(1000):
            q = rand_nonzero(rng, 10**6)
            assert absolute_value(embed_rational(q, kind="full")) == 1
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f}s"
        _report(1, "product formula")


class TestCriterion02IdeleFactorization:
    def test_factorization_roundtrip(self):
        rng = random.Random(SEED + 2)
        start = time.perf_counter()
        for _ in range(1000):
            if rng.random() < 0.5:
                a = rand_invertible(rng)
                r, u = factor_idele(a)
                assert scale(r, u) == a
                r2, u2 = factor_idele(scale(r, u))
                assert r2 == r and u2 == u
            else:
                r = rand_nonzero(rng, 1000)
                u = rand_unit(rng)
                product = scale(r, u)
                r2, u2 = factor_idele(FullAdele(product.finite_part, product.real_part))
                assert r2 == r and u2 == u
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, f"took {elapsed:.3f}s"
        _report(2, "idele factorization")


def _finite_pair_with_nested_zero_sets(rng: random.Random):
    if rng.random() < 0.75:
        zeros_b = {p for p in SMALL_PRIMES if rng.random() < 0.4}
        zeros_a = {p for p in zeros_b if rng.random() < 0.7}

        def build(zeros):
            explicit = {p: F(0) for p in zeros}
            for p in SMALL_PRIMES:
                if p not in zeros and rng.random() < 0.3:
                    explicit[p] = rand_nonzero(rng, 60)
            return FiniteAdele(explicit, DefaultSpec.rational(1))

        return build(zeros_a), build(zeros_b)
    # cofinite zero sets: excluded(b) inside excluded(a)
    excluded_a = {p for p in SMALL_PRIMES if rng.random() < 0.5}
    excluded_b = {p for p in excluded_a if rng.random() < 0.6}

    def build(excluded):
        explicit = {p: rand_nonzero(rng, 60) for p in excluded}
        return FiniteAdele(explicit, DefaultSpec.zero())

    return build(excluded_a), build(excluded_b)


class TestCriterion03WitnessSoundness:
    def _check(self, a, nbhd):
        start = time.perf_counter()
        r = approx_witness(a, nbhd)
        elapsed = time.perf_counter() - start
        assert nbhd.contains(scale(r, a))
        assert elapsed < 1.0, f"single call took {elapsed:.3f}s"

    def test_finite_pairs(self):
        rng = random.Random(SEED + 3)
        for _ in range(200):
            a, b = _finite_pair_with_nested_zero_sets(rng)
            assert zero_set(a).is_subset_of(zero_set(b))
            self._check(a, canonical_neighbourhood(rng, b))
        _report(3, "witness soundness (finite pairs)")

    def test_full_case_one(self):
        rng = random.Random(SEED + 31)
        for _ in range(100):
            fin_a, fin_b = _finite_pair_with_nested_zero_sets(rng)
            if not any(v == 0 for v in fin_a.explicit.values()) and fin_a.default.kind != "zero":
                fin_a = FiniteAdele({**fin_a.explicit, Prime(2): F(0)}, fin_a.default)
                fin_b = FiniteAdele({**fin_b.explicit, Prime(2): F(0)}, fin_b.default)
            real_a = rand_nonzero(rng, 40) if rng.random() < 0.8 else F(0)
            real_b = rand_nonzero(rng, 40) if real_a != 0 else F(0)
            a, b = FullAdele(fin_a, real_a), FullAdele(fin_b, real_b)
            assert zero_set(a).is_subset_of(zero_set(b))
            width = F(1, 8) * rng.randint(1, 4)
            self._check(a, canonical_neighbourhood(rng, b, width=width))
        _report(3, "witness soundness (full, vanishing prime)")

    def test_full_case_two(self):
        rng = random.Random(SEED + 32)
        for _ in range(50):
            chosen = [p for p in SMALL_PRIMES if rng.random() < 0.4]
            explicit = {p: rand_nonzero(rng, 60) for p in chosen}
            q = F(1)
            for p in chosen:
                q *= F(p) ** rng.randint(-1, 1)
            a = FullAdele(FiniteAdele(explicit, DefaultSpec.times_p(q)), rand_nonzero(rng, 40))
            b = rand_invertible(rng, value_height=60)
            assert zero_set(a).is_subset_of(zero_set(b))
            self._check(a, canonical_neighbourhood(rng, b, width=F(1, 8)))
        _report(3, "witness soundness (full, divisible tails)")


ORACLE_PRIMES = [Prime(2), Prime(3), Prime(5)]
ORACLE_VALUES = [F(1), F(2), F(3), F(5), F(6)]


def _small_integral_adele(rng: random.Random, zeros=frozenset()):
    explicit = {p: F(0) for p in zeros}
    for p in ORACLE_PRIMES:
        if p not in zeros and rng.random() < 0.5:
            explicit[p] = rng.choice(ORACLE_VALUES)
    return FiniteAdele(explicit, DefaultSpec.rational(1))


def _small_neighbourhood(rng: random.Random, b, width=None):
    """At most two shallow balls, so minimal witnesses stay far below the
    oracle's height budget."""
    full = isinstance(b, FullAdele)
    fin = b.finite_part if full else b
    count = rng.randint(1, 2)
    primes = rng.sample(ORACLE_PRIMES, k=count)
    balls = {p: PadicBall(p, fin.component(p), rng.randint(1, 2)) for p in primes}
    if not full:
        return Neighbourhood(balls)
    lo = b.real_part - width / 2
    return Neighbourhood(balls, real_interval=(lo, lo + width))


def _oracle_instances(rng: random.Random):
    """Mixed witness instances: feasible, infeasible and closed-orbit cases,
    all sized so any existing witness has height well under the budget."""
    instances = []
    for _ in range(40):  # feasible finite with nested zero patterns
        zeros_b = frozenset(p for p in ORACLE_PRIMES if rng.random() < 0.3)
        zeros_a = frozenset(p for p in zeros_b if rng.random() < 0.7)
        a = _small_integral_adele(rng, zeros_a)
        b = _small_integral_adele(rng, zeros_b)
        instances.append((a, _small_neighbourhood(rng, b)))
    for _ in range(15):  # infeasible finite: a vanishes where the ball avoids 0
        p = rng.choice(SMALL_PRIMES)
        a = FiniteAdele({p: F(0)}, DefaultSpec.rational(1))
        nbhd = Neighbourhood({p: PadicBall(p, F(rng.randint(1, 4)), 1)})
        instances.append((a, nbhd))
    for _ in range(15):  # full, vanishing prime
        zeros = frozenset({rng.choice(ORACLE_PRIMES)})
        a = FullAdele(_small_integral_adele(rng, zeros), F(rng.randint(1, 2)))
        b = FullAdele(_small_integral_adele(rng, zeros), F(rng.choice([-2, -1, 1, 2])))
        instances.append((a, _small_neighbourhood(rng, b, width=F(rng.randint(1, 2)))))
    for _ in range(10):  # full, divisible tail
        a = FullAdele(FiniteAdele({}, DefaultSpec.times_p(1)), F(rng.randint(1, 2)))
        b = FullAdele(_small_integral_adele(rng), F(rng.choice([-2, -1, 1, 2])))
        instances.append((a, _small_neighbourhood(rng, b, width=F(rng.randint(1, 2)))))
    for _ in range(10):  # invertible, orbit meets the neighbourhood
        u = rand_unit(rng, real=F(rng.randint(8, 16)))
        r = rand_nonzero(rng, 12)
        b = scale(r, u)
        instances.append(
            (FullAdele(u.finite_part, u.real_part), canonical_neighbourhood(rng, b, width=F(1, 4)))
        )
    for _ in range(10):  # invertible, orbit misses (separating neighbourhood)
        u = rand_unit(rng, real=F(rng.randint(8, 16)))
        v = _separate(rng, u)
        instances.append((FullAdele(u.finite_part, u.real_part), v))
    return instances


def _differing_prime(x: FullAdele, y: FullAdele):
    """Some finite prime where two distinct full adeles disagree, if any."""
    for p in sorted(set(x.explicit) | set(y.explicit)):
        if x.component(p) != y.component(p):
            return p
    if x.default != y.default:
        for p in iter_primes():
            if p not in x.explicit and p not in y.explicit:
                if x.component(p) != y.component(p):
                    return p
    return None  # the adeles differ at most in the real coordinate


def _separate(rng: random.Random, u: UnitIdele) -> Neighbourhood:
    """A neighbourhood of some invertible b outside the orbit of u that the
    orbit provably misses.

    The neighbourhood starts as a canonical one around b and is refined:
    whenever the exact search still finds the orbit inside, a ball is
    added at a prime where that orbit point differs from b, or the
    neighbourhood is shrunk, until the search reports a genuine miss."""
    stray = dict(u.explicit)
    p0 = Prime(2)
    bumped = u.component(p0) * 3
    stray[p0] = bumped if valuation(bumped, p0) == 0 else u.component(p0) + 2
    b = FullAdele(FiniteAdele(stray, u.default), u.real_part * rng.randint(2, 5))
    assert exact_orbit_witness(u, b) is None
    ball_primes = set(b.explicit) | set(u.explicit) | {p0}
    ell, width = 3, F(1, 8)
    for _ in range(40):
        balls = {p: PadicBall(p, b.component(p), ell) for p in sorted(ball_primes)}
        nbhd = Neighbourhood(
            balls, real_interval=(b.real_part - width / 2, b.real_part + width / 2)
        )
        try:
            r = approx_witness(u, nbhd)
        except ClosedOrbitMiss:
            return nbhd
        culprit = _differing_prime(scale(r, u), b)
        if culprit is not None and culprit not in ball_primes:
            ball_primes.add(culprit)
        else:
            ell += 1
            width /= 2
    raise AssertionError("could not separate a closed orbit from a point off it")


class TestCriterion04OracleAgreement:
    def test_agreement(self, deadline):
        rng = random.Random(SEED + 4)
        # a deep exponent cap makes every window-smooth denominator below
        # the height bound admissible, so the search space is height-complete
        budget = SearchBudget(height_bound=10**4, precision=13)
        # the lazy search answers in about a second; an enumerator that
        # builds and sorts every candidate before testing one takes over 20 s
        with deadline(10):
            for a, nbhd in _oracle_instances(rng):
                try:
                    built = approx_witness(a, nbhd)
                except (Infeasible, ClosedOrbitMiss):
                    built = None
                found = witness_by_search(a, nbhd, budget)
                assert (built is None) == (found is None)
                if built is not None:
                    assert nbhd.contains(scale(built, a))
                    assert nbhd.contains(scale(found, a))
        _report(4, "oracle agreement")


class TestCriterion05ClosedInvertibleOrbits:
    def test_closed_orbits(self):
        rng = random.Random(SEED + 5)
        budget = SearchBudget(height_bound=10**4)
        for _ in range(50):
            u = rand_unit(rng, real=F(rng.randint(4, 16)))
            nbhd = _separate(rng, u)
            b_center = FullAdele(
                FiniteAdele(
                    {p: ball.center for p, ball in nbhd.balls.items()},
                    u.default,
                ),
                sum(nbhd.real_interval) / 2,
            )
            assert is_invertible(b_center)
            assert exact_orbit_witness(u, b_center) is None
            assert not orbit_closure_contains(u, b_center)
            assert witness_by_search(u, nbhd, budget) is None
        _report(5, "closed invertible orbits")


def _descriptor_pool(rng: random.Random, space: str):
    base = EXTENDED_PRIMES if space in ("tau", "primfull") else "finite_primes"
    places = list(SMALL_PRIMES) + ([INFINITY] if base == EXTENDED_PRIMES else [])

    def prime_point():
        members = frozenset(p for p in places if rng.random() < 0.3)
        if space in ("primcq", "primfull") or rng.random() < 0.8:
            return PrimeSetPoint(PrimeSet.finite(members, base=base))
        return PrimeSetPoint(PrimeSet.cofinite(members or {rng.choice(SMALL_PRIMES)}, base=base))

    def family():
        excluded = frozenset(p for p in places if rng.random() < 0.2)
        return SingletonFamily(excluded, base)

    def unit_point():
        return UnitPoint(rand_unit(rng))

    def unit_family():
        if rng.random() < 0.5:
            reals = sorted({F(1, rng.randint(2, 60)) for _ in range(rng.randint(2, 4))}, reverse=True)
            if len(reals) >= 2:
                return UnitFamily(tuple(rand_unit(rng, real=x) for x in reals), inf_abs_zero=True)
        return UnitFamily(tuple(rand_unit(rng) for _ in range(rng.randint(1, 3))))

    def character():
        group = Q_PLUS if space == "primcq" else Q_FULL
        angles = {p: F(rng.randint(0, 5), 6) for p in rng.sample(SMALL_PRIMES, k=rng.randint(0, 2))}
        sign = F(1, 2) if group == Q_FULL and rng.random() < 0.5 else 0
        return CharacterPoint(Character(group, angles, sign))

    makers = {
        "pc": [prime_point, prime_point, family],
        "tau": [prime_point, prime_point, family, unit_point, unit_family],
        "primcq": [prime_point, prime_point, character, lambda: ALL_CHARACTERS],
        "primfull": [prime_point, character, unit_point, unit_family, lambda: ALL_CHARACTERS],
    }[space]
    atoms = tuple(rng.choice(makers)() for _ in range(rng.randint(0, 4)))
    return SetDescriptor(atoms)


class TestCriterion06Kuratowski:
    CLOSURES = {
        "pc": pc_closure,
        "tau": tau_closure,
        "primcq": primcq_closure,
        "primfull": prim_full_closure,
    }

    @pytest.mark.parametrize("space", ["pc", "tau", "primcq", "primfull"])
    def test_axioms(self, space):
        rng = random.Random(SEED + 6)
        cl = self.CLOSURES[space]
        assert cl(SetDescriptor.of()).is_empty  # cl(empty) = empty
        descriptors = [_descriptor_pool(rng, space) for _ in range(500)]
        for i, a in enumerate(descriptors):
            ca = cl(a)
            for atom in a.atoms:  # extensivity
                assert closed_contains_atom(ca, atom)
            assert cl(ca) == ca  # idempotence
            b = descriptors[(i * 31 + 7) % len(descriptors)]  # additivity
            assert cl(a.union(b)) == ca.union(cl(b))
        _report(6, f"Kuratowski axioms ({space})")


class TestCriterion07WindowAgreement:
    def test_windows(self):
        window_pool = [Prime(p) for p in (2, 3, 5, 7)]
        windows = [
            [p for j, p in enumerate(window_pool) if mask >> j & 1]
            for mask in range(16)
        ]
        for window in windows:
            subsets = [
                frozenset(p for j, p in enumerate(window) if mask >> j & 1)
                for mask in range(1 << len(window))
            ]
            for t in subsets:
                fin_t = PrimeSet.finite(t)
                expected = {s.members for s in window_closure([fin_t], window)}
                pc = pc_closure([fin_t])
                got_pc = {
                    s for s in subsets
                    if closed_contains_atom(pc, PrimeSetPoint(PrimeSet.finite(s)))
                }
                assert got_pc == expected
                pq = primcq_closure([fin_t])
                got_pq = {
                    s for s in subsets
                    if closed_contains_atom(pq, PrimeSetPoint(PrimeSet.finite(s)))
                }
                assert got_pq == expected
                x = ParameterPoint.of_prime_set(PrimeSet.finite(t, base=EXTENDED_PRIMES))
                got_sp = {
                    s for s in subsets
                    if point_specializes(
                        x, ParameterPoint.of_prime_set(PrimeSet.finite(s, base=EXTENDED_PRIMES))
                    )
                }
                assert got_sp == expected
            # two-point unions agree as well
            for t1 in subsets:
                for t2 in subsets:
                    pts = [PrimeSet.finite(t1), PrimeSet.finite(t2)]
                    expected = {s.members for s in window_closure(pts, window)}
                    pc = pc_closure(pts)
                    got = {
                        s for s in subsets
                        if closed_contains_atom(pc, PrimeSetPoint(PrimeSet.finite(s)))
                    }
                    assert got == expected
        _report(7, "window oracle agreement")


def _bridge_pool(rng: random.Random):
    pool = [
        embed_rational(0, kind="full"),
        embed_rational(1, kind="full"),
        embed_rational(-6, kind="full"),
        FullAdele(FiniteAdele({2: F(0)}, DefaultSpec.rational(1)), F(1)),
        FullAdele(FiniteAdele({2: F(0)}, DefaultSpec.rational(1)), F(3)),
        FullAdele(FiniteAdele({2: F(0), 3: F(0)}, DefaultSpec.rational(1)), F(1)),
        FullAdele(FiniteAdele({2: F(5)}, DefaultSpec.rational(1)), F(0)),
        FullAdele(FiniteAdele({}, DefaultSpec.times_p(1)), F(2)),
        FullAdele(FiniteAdele({5: F(1)}, DefaultSpec.zero()), F(1)),
        FullAdele(rand_unit(rng).finite_part, F(2)),
        FullAdele(rand_unit(rng).finite_part, F(2)),
        rand_invertible(rng, value_height=30),
    ]

    def draw():
        a = rng.choice(pool)
        if a.is_zero or rng.random() < 0.3:
            return a
        return scale(rand_nonzero(rng, 20), a)

    return draw


class TestCriterion08ParametrizationBridge:
    def test_bridge(self):
        rng = random.Random(SEED + 8)
        draw = _bridge_pool(rng)
        for _ in range(300):
            a, b = draw(), draw()
            assert same_quasi_orbit(a, b) == (chi(a) == chi(b))
            assert orbit_closure_contains(a, b) == point_specializes(chi(a), chi(b))
        _report(8, "parametrization bridge")


class TestCriterion09PaperSequence:
    def test_sequence(self):
        primes = []
        gen = iter_primes()
        while len(primes) < 50:
            primes.append(next(gen))
        units = []
        for p in primes:
            a = FullAdele(FiniteAdele({p: F(p)}, DefaultSpec.rational(1)), F(1))
            point = chi(a)
            assert point.kind == "unit_class"
            u = point.unit
            assert u.real_part == F(1, p)
            units.append(u)
        reals = [u.real_part for u in units]
        assert all(x > y for x, y in zip(reals, reals[1:]))  # monotone to zero
        family = SetDescriptor.of(UnitFamily(tuple(units), inf_abs_zero=True))
        assert tau_closure(family) == WHOLE_SPACE
        for k in (1, 10, 50):
            prefix = SetDescriptor.of(*(UnitPoint(u) for u in units[:k]))
            closed = tau_closure(prefix)
            assert not closed.whole_space
            assert not closed.up_sets
            assert len(closed.unit_points) == k
            for u in units[:k]:
                assert closed_contains_atom(closed, UnitPoint(u))
        _report(9, "paper sequence reproduction")


class TestCriterion10TailNet:
    def test_monotone_tail(self):
        rng = random.Random(SEED + 10)
        for _ in range(200):
            a = rand_invertible(rng)
            negative = {p for p, v in a.explicit.items() if valuation(v, p) < 0}
            support = {p for p, v in a.explicit.items() if valuation(v, p) != 0}
            extras = [p for p in SMALL_PRIMES + [Prime(17), Prime(19)] if p not in negative]
            f1 = set(negative) | {p for p in extras if rng.random() < 0.4}
            f2 = f1 | {p for p in extras if rng.random() < 0.5}
            assert xi_partial(a, f2) <= xi_partial(a, f1)
            if support <= f1:
                assert xi_partial(a, f1) == absolute_value(a)
            assert xi_partial(a, support | f2) == absolute_value(a)
        _report(10, "tail-net monotonicity")


class TestCriterion11EquivalenceLaws:
    def test_same_quasi_orbit_laws(self):
        rng = random.Random(SEED + 11)
        # a small pool keeps the relation from being vacuous on triples
        pool = [
            embed_rational(1, kind="full"),
            FullAdele(FiniteAdele({2: F(0)}, DefaultSpec.rational(1)), F(1)),
            FullAdele(FiniteAdele({2: F(0), 3: F(3)}, DefaultSpec.rational(3)), F(-2)),
            FullAdele(FiniteAdele({2: F(0), 3: F(0)}, DefaultSpec.rational(1)), F(1)),
            FullAdele(FiniteAdele({}, DefaultSpec.times_p(1)), F(2)),
        ]

        def draw():
            a = rng.choice(pool)
            return scale(rand_nonzero(rng, 12), a) if rng.random() < 0.7 else a

        related = 0
        for _ in range(300):
            a, b, c = draw(), draw(), draw()
            assert same_quasi_orbit(a, a)
            assert same_quasi_orbit(a, b) == same_quasi_orbit(b, a)
            if same_quasi_orbit(a, b) and same_quasi_orbit(b, c):
                related += 1
                assert same_quasi_orbit(a, c)
        assert related > 20  # the pool must actually exercise transitivity

    def test_prim_equal_laws(self):
        rng = random.Random(SEED + 111)
        whole = PrimeSet.cofinite()
        sets = [
            PrimeSet.finite(()),
            PrimeSet.finite({2}),
            PrimeSet.finite({2, 3}),
            PrimeSet.cofinite({2}),
            whole,
        ]
        characters = [
            Character(Q_PLUS, {}),
            Character(Q_PLUS, {2: F(1, 2)}),
            Character(Q_PLUS, {3: F(1, 3)}),
        ]

        def draw():
            return rng.choice(sets), rng.choice(characters)

        for _ in range(300):
            x, y, z = draw(), draw(), draw()
            assert prim_equal(x, x)
            assert prim_equal(x, y) == prim_equal(y, x)
            if prim_equal(x, y) and prim_equal(y, z):
                assert prim_equal(x, z)
        for s in sets:
            for g1 in characters:
                for g2 in characters:
                    expected = (not s.is_whole_base) or g1 == g2
                    assert prim_equal((s, g1), (s, g2)) == expected
        _report(11, "equivalence-relation laws")
