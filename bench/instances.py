"""Seeded instance generation for the benchmark workloads.

``build(workload, seed)`` returns the list of ops a run cycles through.
The same seed gives the same ops; the library receives only the generated
objects.  Every expected outcome is planted by construction -- a known
witness ``r0``, a zero pattern that is ``Infeasible``, a closed orbit
separated from the neighbourhood, a factorization ``a = rho * u`` built
from its parts -- so the checker knows the right answer without calling
the oracle or the construction under test.

Sizes are stratified: each instance class gets a fixed count, and the
parameter that sets its cost (prime size, scan length) takes the centre
of its own slice of the class range.  Two seeds therefore give the same
cost profile with different numbers, which keeps run-to-run spread small.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Any, Dict, List, Optional, Sequence

from adelic import adele, cli, jsonio, oracle, padic, primtop, quasiorbit
from adelic.adele import (
    EXTENDED_PRIMES,
    FINITE_PRIMES,
    RATIONAL,
    ZERO,
    DefaultSpec,
    FiniteAdele,
    FullAdele,
    Neighbourhood,
    PrimeSet,
    UnitIdele,
)
from adelic.errors import AdelicError, ClosedOrbitMiss, Infeasible
from adelic.padic import INFINITY, PadicBall
from adelic.primtop import (
    ALL_CHARACTERS,
    Q_FULL,
    Q_PLUS,
    AllCharacters,
    Character,
    CharacterPoint,
    ClosedSetDescriptor,
    PrimeSetPoint,
    SetDescriptor,
    SingletonFamily,
    UnitFamily,
    UnitPoint,
    WHOLE_SPACE,
)
from adelic.quasiorbit import ParameterPoint

import checker
from checker import Agree, Equals, Factor, Raises, Response, Witness

#: Per-op deadline in seconds.  An op still running at its deadline is
#: interrupted and counts as failed.
DEADLINE_S = {"library": 1.0, "deep": 0.5, "cli": 1.0, "crosscheck": 2.0}

SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
CROSSCHECK_BUDGET = oracle.SearchBudget(height_bound=10**4)
_MODULES = {"adele": adele, "oracle": oracle, "primtop": primtop, "quasiorbit": quasiorbit}


@dataclass(frozen=True, eq=False)
class Op:
    """One timed call.  ``target`` names the public function; it is looked
    up at call time so that the traced run sees its patched bindings."""

    label: str
    target: str
    args: tuple
    expect: Any
    case: str = ""  # construction case of an approx_witness call

    def run(self):
        if self.target == "cli.main":
            return run_cli(self.args[0])
        if self.target == "crosscheck":
            return crosscheck(*self.args)
        module, name = self.target.split(".")
        return getattr(_MODULES[module], name)(*self.args)


def run_cli(argv):
    """``cli.main(argv)`` with stdout captured: (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def crosscheck(a, nbhd, budget):
    """The construction, then the oracle, on the same instance."""
    try:
        built = quasiorbit.approx_witness(a, nbhd)
    except (Infeasible, ClosedOrbitMiss) as exc:
        built = exc
    return built, oracle.witness_by_search(a, nbhd, budget)


# -- small exact helpers --------------------------------------------------------


def _factor_small(n: int) -> Dict[int, int]:
    """Trial division, for the small integers the generators build."""
    n, out, d = abs(n), {}, 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _support(q: F) -> set:
    return set(_factor_small(q.numerator)) | set(_factor_small(q.denominator)) if q else set()


def _nonzero(rng: random.Random, height: int) -> F:
    while True:
        q = F(rng.randint(-height, height), rng.randint(1, height))
        if q:
            return q


def _unit_at(rng: random.Random, p: int, height: int) -> F:
    while True:
        q = _nonzero(rng, height)
        if checker.valuation(q, p) == 0:
            return q


def _prime_power_product(rng: random.Random, primes, lo: int, hi: int) -> F:
    q = F(1)
    for p in primes:
        q *= F(p) ** rng.randint(lo, hi)
    return q


def _times(r: F, a):
    """r * a by componentwise arithmetic, keeping r's primes explicit."""
    fin = a.finite_part if isinstance(a, FullAdele) else a
    keys = {int(p) for p in fin.explicit} | _support(r)
    explicit = {p: checker.component(a, p) * r for p in keys}
    default = fin.default if fin.default.kind == ZERO else DefaultSpec(fin.default.kind, fin.default.q * r)
    out = FiniteAdele(explicit, default)
    return FullAdele(out, a.real_part * r) if isinstance(a, FullAdele) else out


def _stratified(rng: random.Random, n: int, lo: float, hi: float) -> List[float]:
    """The centres of n equal slices of [lo, hi), shuffled."""
    out = [lo + (i + 0.5) * (hi - lo) / n for i in range(n)]
    rng.shuffle(out)
    return out


def _random_prime(rng: random.Random, bits: float) -> int:
    """A prime within 1% above 2**bits."""
    n = int(2**bits * (1 + rng.random() / 100)) | 1
    while not padic.is_prime(n):
        n += 2
    return n


# -- acceptance-sized objects (heights <= 10^3, exponents <= 3) -------------------


def _rand_unit(rng: random.Random, real: Optional[F] = None) -> UnitIdele:
    chosen = [p for p in SMALL_PRIMES if rng.random() < 0.5]
    explicit = {p: _unit_at(rng, p, 50) for p in chosen}
    q = _prime_power_product(rng, chosen, -1, 1)
    if real is None:
        real = abs(_nonzero(rng, 40))
    return UnitIdele(FiniteAdele(explicit, DefaultSpec.rational(q)), real)


def _rand_finite(rng: random.Random, zeros=(), kind: str = RATIONAL, height: int = 1000) -> FiniteAdele:
    chosen = sorted(set(p for p in SMALL_PRIMES if rng.random() < 0.4) | set(zeros))
    explicit = {p: (F(0) if p in zeros else _nonzero(rng, height)) for p in chosen}
    return FiniteAdele(explicit, DefaultSpec(kind, _prime_power_product(rng, chosen, -2, 2)))


def _rho(rng: random.Random) -> F:
    """A rational of the form +-prod p^k, the r of an idele factorization."""
    primes = rng.sample(SMALL_PRIMES, k=rng.randint(0, 2))
    return _prime_power_product(rng, primes, -2, 2) * rng.choice((1, -1))


def _interval_returning(rng: random.Random, a: FullAdele, balls, r0: F, width: F):
    """A real interval of the given width on which the construction returns
    r0 itself, or None when r0's denominator does not fit the construction.

    Mirrors the documented arithmetic of approx_witness for a
    noninvertible full adele whose ball centres are a_p * r0: the balls
    give a modulus M and a denominator core, the width fixes the
    denominator tail (powers of the smallest vanishing prime, Case I, or
    default primes, Case II), and the interval is placed so that r0's
    numerator is the first element of the progression inside it.  The
    witness numerator is then the planted one, whose factoring cost the
    generator controls.
    """
    fin = a.finite_part
    modulus = core = 1
    for p, ball in balls.items():
        a_p = checker.component(a, p)
        if a_p == 0:
            continue
        m = ball.radius_exponent - checker.valuation(a_p, p)
        beta = checker.valuation(r0, p)
        d = max(0, -beta) if beta < m else 0
        core *= p**d
        if m + d >= 1:
            modulus *= p ** (m + d)
    if (r0 * core).denominator != 1:
        return None
    if any(int(p) not in balls and v != 0 and checker.valuation(v, int(p)) < 0 for p, v in fin.explicit.items()):
        return None
    zeros = [int(p) for p, v in fin.explicit.items() if v == 0]
    if zeros:
        factors = iter(lambda: min(zeros), None)
    else:
        skip = {int(p) for p in fin.explicit} | set(balls)
        factors = (int(p) for p in padic.iter_primes() if int(p) not in skip)
    threshold = abs(a.real_part) * modulus / (width * core)
    tail = 1
    while tail <= threshold:
        tail *= next(factors)
    shift = F(rng.randint(1, 7), 8) * modulus * a.real_part / (core * tail)
    x0 = r0 * a.real_part - shift
    return (x0, x0 + width) if a.real_part > 0 else (x0 - width, x0)


def _planted(rng: random.Random, a, extra_balls: int = 2, width: F = F(1, 8), den_primes: int = 2):
    """A neighbourhood of r0 * a for a planted r0, radius exponents 1..3.

    The balls sit at every explicit prime plus a few more, and r0's
    denominator uses ball primes only, so r0 itself is a witness.  For a
    noninvertible full adele the interval is placed so the construction
    returns r0 (see _interval_returning); for an invertible one it is
    placed at random around r0 * a_oo.
    """
    full = isinstance(a, FullAdele)
    fin = a.finite_part if full else a
    ball_primes = sorted({int(p) for p in fin.explicit} | set(rng.sample(SMALL_PRIMES, k=rng.randint(0, extra_balls))))
    while True:
        chosen = rng.sample(ball_primes, k=min(len(ball_primes), rng.randint(0, den_primes)))
        r0 = F(rng.randint(1, 30)) / _prime_power_product(rng, chosen, 0, 2)
        if full:
            r0 *= rng.choice((1, -1))
        balls = {p: PadicBall(p, checker.component(a, p) * r0, rng.randint(1, 3)) for p in ball_primes}
        if not full:
            return Neighbourhood(balls), r0
        if adele.is_invertible(a):
            lo = r0 * a.real_part - width * F(rng.randint(1, 7), 8)
            return Neighbourhood(balls, real_interval=(lo, lo + width)), r0
        interval = _interval_returning(rng, a, balls, r0, width)
        if interval is not None:
            return Neighbourhood(balls, real_interval=interval), r0


def _witness_op(label, case, a, planted):
    nbhd, r0 = planted
    return Op(label, "quasiorbit.approx_witness", (a, nbhd), Witness(r0), case)


def _witness_finite(rng):
    zeros = [p for p in SMALL_PRIMES[:3] if rng.random() < 0.2]
    a = _rand_finite(rng, zeros)
    return _witness_op("approx_witness.finite", "finite", a, _planted(rng, a))


def _witness_infeasible(rng):
    p = rng.choice(SMALL_PRIMES)
    a = _rand_finite(rng, zeros=[p])
    balls = {p: PadicBall(p, _unit_at(rng, p, 20), rng.randint(1, 3))}
    return Op("approx_witness.infeasible", "quasiorbit.approx_witness", (a, Neighbourhood(balls)), Raises(Infeasible), "finite")


def _case_one_adele(rng):
    p1 = rng.choice(SMALL_PRIMES[:3])
    return FullAdele(_rand_finite(rng, zeros=[p1]), _nonzero(rng, 40))


def _case_two_adele(rng):
    chosen = [p for p in SMALL_PRIMES if rng.random() < 0.4]
    explicit = {p: _nonzero(rng, 60) for p in chosen}
    fin = FiniteAdele(explicit, DefaultSpec.times_p(_prime_power_product(rng, chosen, -1, 1)))
    return FullAdele(fin, _nonzero(rng, 40))


def _witness_full(rng, label, make, case):
    a = make(rng)
    return _witness_op(label, case, a, _planted(rng, a, width=F(1, 8) * rng.randint(1, 4)))


def _invertible(rng, real=None):
    u = _rand_unit(rng, real)
    rho = _rho(rng)
    return u, rho, _times(rho, u)


def _witness_closed(rng):
    """Shaped like criterion 04's closed orbits: a is a unit idele and the
    witness has at most one denominator prime, which keeps today's
    candidate scan (width times denominator) short."""
    u = _rand_unit(rng, real=F(rng.randint(8, 16)))
    a = FullAdele(u.finite_part, u.real_part)
    return _witness_op("approx_witness.closed", "closed", a, _planted(rng, a, width=F(1, 4), den_primes=1))


def _closed_miss(rng, width: F, real: F, scaled: bool = True):
    """All ball centres integral, so every t with t*u in the balls is an
    integer; the interval sits strictly between two integer multiples of
    the real part, so the closed orbit misses the neighbourhood."""
    u = _rand_unit(rng, real=real)
    a = _times(_rho(rng), u) if scaled else FullAdele(u.finite_part, u.real_part)
    k = rng.randint(-5, 5)
    ball_primes = sorted({int(p) for p in u.explicit} | set(rng.sample(SMALL_PRIMES, k=1)))
    balls = {p: PadicBall(p, checker.component(u, p) * k, rng.randint(1, 3)) for p in ball_primes}
    lo = (k + F(rng.randint(1, 4), 8)) * u.real_part
    return a, Neighbourhood(balls, real_interval=(lo, lo + width))


def _witness_closed_miss(rng):
    a, nbhd = _closed_miss(rng, F(1, 2), F(rng.randint(8, 16)))
    return Op("approx_witness.closed_miss", "quasiorbit.approx_witness", (a, nbhd), Raises(ClosedOrbitMiss), "closed")


def _factor(rng):
    u, rho, a = _invertible(rng)
    return Op("adele.factor_idele", "adele.factor_idele", (a,), Factor(rho, u))


def _noninvertible_full(rng):
    if rng.random() < 0.5:
        return _case_two_adele(rng), frozenset()
    a = _case_one_adele(rng)
    zeros = {int(p) for p, v in a.explicit.items() if v == 0}
    return a, frozenset(zeros)


def _absolute_value(rng):
    if rng.random() < 0.75:
        u, _, a = _invertible(rng)
        return Op("adele.absolute_value", "adele.absolute_value", (a,), Equals(u.real_part))
    a, _ = _noninvertible_full(rng)
    return Op("adele.absolute_value", "adele.absolute_value", (a,), Equals(F(0)))


def _chi(rng):
    if rng.random() < 0.6:
        u, _, a = _invertible(rng)
        return Op("quasiorbit.chi", "quasiorbit.chi", (a,), checker.UnitClass(u))
    a, zeros = _noninvertible_full(rng)
    point = ParameterPoint.of_prime_set(PrimeSet.finite(zeros, base=EXTENDED_PRIMES))
    return Op("quasiorbit.chi", "quasiorbit.chi", (a,), Equals(point))


def _perturbed(rng, b: FullAdele) -> FullAdele:
    """b with one explicit component multiplied by a unit other than 1."""
    p = rng.choice(sorted(int(q) for q in b.explicit))
    explicit = {int(q): v for q, v in b.explicit.items()}
    explicit[p] *= 2 if p != 2 else 3
    return FullAdele(FiniteAdele(explicit, b.default), b.real_part)


def _orbit_pair(rng):
    """(a, b, r) with b = r*a, or r None when b is off the orbit."""
    if rng.random() < 0.5:
        zeros_b = [p for p in SMALL_PRIMES[:3] if rng.random() < 0.4]
        zeros_a = [p for p in zeros_b if rng.random() < 0.6]
        a = _rand_finite(rng, zeros_a)
        r = F(rng.randint(1, 30), rng.randint(1, 30))
        return a, _times(r, a), r
    _, _, a = _invertible(rng)
    explicit = {int(p): v for p, v in a.explicit.items()}
    explicit.setdefault(2, checker.component(a, 2))  # so _perturbed has a prime to change
    a = FullAdele(FiniteAdele(explicit, a.default), a.real_part)
    r = _nonzero(rng, 30)
    b = _times(r, a)
    if rng.random() < 0.5:
        return a, _perturbed(rng, b), None
    return a, b, r


def _orbit_closure(rng):
    if rng.random() < 0.5:
        zeros_b = [p for p in SMALL_PRIMES[:3] if rng.random() < 0.5]
        zeros_a = [p for p in SMALL_PRIMES[:3] if rng.random() < 0.3]
        a, b = _rand_finite(rng, zeros_a), _rand_finite(rng, zeros_b)
        return Op("quasiorbit.orbit_closure_contains", "quasiorbit.orbit_closure_contains", (a, b), Equals(set(zeros_a) <= set(zeros_b)))
    a, b, r = _orbit_pair(rng)
    return Op("quasiorbit.orbit_closure_contains", "quasiorbit.orbit_closure_contains", (a, b), Equals(r is not None))


def _exact_witness(rng):
    a, b, r = _orbit_pair(rng)
    return Op("quasiorbit.exact_orbit_witness", "quasiorbit.exact_orbit_witness", (a, b), Equals(r))


# -- descriptor pools shaped like the Kuratowski criterion ------------------------


def _descriptor(rng: random.Random, space: str) -> SetDescriptor:
    base = EXTENDED_PRIMES if space in ("tau", "primfull") else FINITE_PRIMES
    places = list(SMALL_PRIMES) + ([INFINITY] if base == EXTENDED_PRIMES else [])

    def prime_point():
        members = frozenset(p for p in places if rng.random() < 0.3)
        if space in ("primcq", "primfull") or rng.random() < 0.8:
            return PrimeSetPoint(PrimeSet.finite(members, base=base))
        return PrimeSetPoint(PrimeSet.cofinite(members or {rng.choice(SMALL_PRIMES)}, base=base))

    def family():
        return SingletonFamily(frozenset(p for p in places if rng.random() < 0.2), base)

    def unit_point():
        return UnitPoint(_rand_unit(rng))

    def unit_family():
        if rng.random() < 0.5:
            reals = sorted({F(1, rng.randint(2, 60)) for _ in range(rng.randint(2, 4))}, reverse=True)
            if len(reals) >= 2:
                return UnitFamily(tuple(_rand_unit(rng, real=x) for x in reals), inf_abs_zero=True)
        return UnitFamily(tuple(_rand_unit(rng) for _ in range(rng.randint(1, 3))))

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
    return SetDescriptor(tuple(rng.choice(makers)() for _ in range(rng.randint(0, 4))))


def expected_closure(space: str, desc: SetDescriptor) -> ClosedSetDescriptor:
    """The closure each space's documented rules give, built from the parts.

    A prime-set point closes to its up-set; a singleton family or the
    empty prime set is dense; an accumulating unit family closes to the
    whole space where units live; a nonempty prime-set part drags in every
    character of the Prim spaces; finite unit and character sets are closed.
    """
    atoms = desc.atoms
    points = [x.point for x in atoms if isinstance(x, PrimeSetPoint)]
    families = [x for x in atoms if isinstance(x, SingletonFamily)]
    units = [x.unit for x in atoms if isinstance(x, UnitPoint)]
    unit_families = [x for x in atoms if isinstance(x, UnitFamily)]
    characters = [x.character for x in atoms if isinstance(x, CharacterPoint)]
    all_chars = any(isinstance(x, AllCharacters) for x in atoms)
    if space == "pc":
        return ClosedSetDescriptor(up_sets=tuple(points) + tuple(PrimeSet.finite((), base=f.base) for f in families))
    dense = bool(families) or any(s.is_empty for s in points)
    if dense or (space in ("tau", "primfull") and any(f.inf_abs_zero for f in unit_families)):
        return WHOLE_SPACE
    for f in unit_families:
        units.extend(f.prefix)
    if space == "tau":
        return ClosedSetDescriptor(up_sets=tuple(points), unit_points=tuple(units))
    all_chars = all_chars or bool(points)
    if space == "primcq":
        return ClosedSetDescriptor(up_sets=tuple(points), character_points=tuple(characters), all_characters=all_chars)
    return ClosedSetDescriptor(
        up_sets=tuple(points), unit_points=tuple(units), character_points=tuple(characters), all_characters=all_chars
    )


CLOSURES = {"pc": "pc_closure", "tau": "tau_closure", "primcq": "primcq_closure", "primfull": "prim_full_closure"}


def _closure(rng, space):
    desc = _descriptor(rng, space)
    name = CLOSURES[space]
    return Op(f"primtop.{name}", f"primtop.{name}", (desc,), Equals(expected_closure(space, desc)))


def _mix(rng: random.Random, weights: Sequence) -> List[Op]:
    ops = [make(rng) for make, count in weights for _ in range(count)]
    rng.shuffle(ops)
    return ops


def library(rng: random.Random) -> List[Op]:
    """In-process library calls at acceptance-suite sizes."""
    return _mix(rng, [
        (_witness_finite, 180),
        (_witness_infeasible, 45),
        (lambda r: _witness_full(r, "approx_witness.case_I", _case_one_adele, "case_I"), 150),
        (lambda r: _witness_full(r, "approx_witness.case_II", _case_two_adele, "case_II"), 120),
        (_witness_closed, 90),
        (_witness_closed_miss, 45),
        (_factor, 90),
        (_absolute_value, 90),
        (_chi, 90),
        (_orbit_closure, 90),
        (_exact_witness, 90),
        (lambda r: _closure(r, "pc"), 30),
        (lambda r: _closure(r, "tau"), 30),
        (lambda r: _closure(r, "primcq"), 30),
        (lambda r: _closure(r, "primfull"), 30),
    ])


# -- deep: planted witnesses whose bit length grows --------------------------------
#
# A witness r0 = n0 / D is planted with n0 = s * P: P a prime of a chosen
# size and s a product of primes below 256.  With the ball centres at
# a_p * r0 and the real interval placed just above the previous element
# of the CRT progression, the construction returns exactly r0, so the
# cost of verifying it (today: trial division of n0, set by P) is
# controlled while the bit length of n0 grows with the ball exponents.

DEEP_PRIME_BITS = (16.0, 34.0)
_FILLER_PRIMES = [p for p in range(13, 256) if padic.is_prime(p)]  # above every ball prime


def _deep_balls(rng: random.Random, prime_bits: float, candidates=(2, 3, 5, 7)):
    """Ball primes, valuations of a_p, exponents in 4..40 and the planted
    denominator exponents, grown until the modulus has room for P."""
    primes = sorted(rng.sample(candidates, k=rng.randint(1, min(3, len(candidates)))))
    alpha = {p: rng.randint(0, 1) for p in primes}
    expo = {p: rng.randint(4, 40) for p in primes}
    dens = {p: rng.randint(0, 3) for p in primes}
    spare = [p for p in candidates if p not in primes]

    def modulus_bits():
        return sum((expo[p] - alpha[p] + dens[p]) * math.log2(p) for p in expo)

    while modulus_bits() < prime_bits + 10:
        open_ = [p for p in expo if expo[p] < 40]
        if open_:
            expo[rng.choice(open_)] += 1
        else:
            p = spare.pop(0)
            alpha[p], expo[p], dens[p] = 0, 4, 0
    return alpha, expo, dens


def _deep_numerator(rng: random.Random, prime_bits: float, modulus: int) -> int:
    n0 = _random_prime(rng, prime_bits)
    while n0 * 256 < modulus:
        n0 *= rng.choice(_FILLER_PRIMES)
    return n0


def _deep_planted(rng: random.Random, prime_bits: float, candidates=(2, 3, 5, 7)):
    """Components a_p, balls centred at a_p * r0, and r0 = n0 / D."""
    alpha, expo, dens = _deep_balls(rng, prime_bits, candidates)
    components = {p: F(p) ** alpha[p] * rng.choice([w for w in range(1, 40) if w % p]) * rng.choice((1, -1)) for p in expo}
    modulus = math.prod(p ** (expo[p] - alpha[p] + dens[p]) for p in expo)
    r0 = F(_deep_numerator(rng, prime_bits, modulus), math.prod(p ** dens[p] for p in expo))
    balls = {p: PadicBall(p, components[p] * r0, expo[p]) for p in expo}
    return components, balls, r0


def _deep_finite(rng, prime_bits):
    components, balls, r0 = _deep_planted(rng, prime_bits)
    a = FiniteAdele(components, DefaultSpec.rational(1))
    return Op("approx_witness.finite", "quasiorbit.approx_witness", (a, Neighbourhood(balls)), Witness(r0), "finite")


def _deep_width(rng, log10_width: float) -> F:
    return F(rng.randint(10, 99), 10) * F(10) ** round(log10_width)


def _deep_case_one(rng, prime_bits, log10_width):
    p1 = rng.choice((2, 3, 5, 7))
    components, balls, r0 = _deep_planted(rng, prime_bits, tuple(p for p in (2, 3, 5, 7, 11) if p != p1))
    a = FullAdele(FiniteAdele({**components, p1: F(0)}, DefaultSpec.rational(1)), F(rng.randint(1, 40), rng.randint(1, 8)))
    nbhd = Neighbourhood(balls, real_interval=_interval_returning(rng, a, balls, r0, _deep_width(rng, log10_width)))
    return Op("approx_witness.case_I", "quasiorbit.approx_witness", (a, nbhd), Witness(r0), "case_I")


def _deep_case_two(rng, prime_bits, log10_width):
    components, balls, r0 = _deep_planted(rng, prime_bits)
    a = FullAdele(FiniteAdele(components, DefaultSpec.times_p(1)), F(rng.randint(1, 40), rng.randint(1, 8)))
    nbhd = Neighbourhood(balls, real_interval=_interval_returning(rng, a, balls, r0, _deep_width(rng, log10_width)))
    return Op("approx_witness.case_II", "quasiorbit.approx_witness", (a, nbhd), Witness(r0), "case_II")


def _deep_closed(rng, log2_scan):
    """A closed orbit whose first witness sits ``scan`` candidates into the
    interval.  The ball at 2 has a 2-power centre n* u_2 / 2^k, so the
    candidates are n / 2^k, and with the ball at 3 only n = n* modulo
    2^(e+k) 3^e3 lands in both."""
    scan = int(2**log2_scan)
    k, e = rng.randint(1, 4), rng.randint(12, 40)
    u2, u3 = rng.randrange(1, 32, 2), rng.choice((1, 2, 4, 5, 7, 8))
    real = F(rng.randint(1, 4))
    n_star = (scan + 1 + 2 * rng.randint(0, 500)) | 1
    explicit = {2: F(u2), 3: F(u3)}
    balls = {2: PadicBall(2, F(n_star * u2, 2**k), e), 3: PadicBall(3, F(n_star * u3, 2**k), rng.randint(1, 3))}
    u = UnitIdele(FiniteAdele(explicit, DefaultSpec.rational(1)), real)
    first = n_star - scan
    lo_t = F(2 * first - 1, 2 ** (k + 1))
    count_cap = min(F(10**4) / real, F(150_000, 2**k))
    length = F(scan + 2, 2**k) + (count_cap - F(scan + 2, 2**k)) * F(rng.randint(0, 100), 100)
    nbhd = Neighbourhood(balls, real_interval=(lo_t * real, (lo_t + length) * real))
    rho = F(3 ** rng.randint(0, 2), 2 ** rng.randint(0, 2)) * rng.choice((1, -1))
    witness = F(n_star, 2**k) / rho
    return Op("approx_witness.closed", "quasiorbit.approx_witness", (_times(rho, u), nbhd), Witness(witness), "closed")


def deep(rng: random.Random) -> List[Op]:
    """approx_witness on planted instances whose witness bit length grows."""
    lo, hi = DEEP_PRIME_BITS
    ops = [_deep_finite(rng, b) for b in _stratified(rng, 60, lo, hi)]
    widths = _stratified(rng, 60, -12, -1)
    ops += [_deep_case_one(rng, b, w) for b, w in zip(_stratified(rng, 60, lo, hi), widths)]
    widths = _stratified(rng, 40, -12, -1)
    ops += [_deep_case_two(rng, b, w) for b, w in zip(_stratified(rng, 40, lo, hi), widths)]
    ops += [_deep_closed(rng, s) for s in _stratified(rng, 40, 4.0, 7.5)]
    rng.shuffle(ops)
    return ops


def repros() -> List[Op]:
    """The two ROADMAP repros, fixed: a Case II witness whose verification
    factors a large numerator, and a closed orbit with the witness 1/1024
    whose scan exceeds the cap.  Both have a witness, so any error or
    deadline overrun is a failure."""
    times_p = FullAdele(FiniteAdele({}, DefaultSpec.times_p(1)), 1)
    nbhd = Neighbourhood({3: PadicBall(3, 2, 22)}, real_interval=(F(5), 5 + F(1, 10**6)))
    one = FullAdele(FiniteAdele({}, DefaultSpec.rational(1)), 1)
    ball = Neighbourhood({2: PadicBall(2, F(1, 1024), 3)}, real_interval=(F(0), F(1000)))
    return [
        Op("repro.scale_factoring", "quasiorbit.approx_witness", (times_p, nbhd), Witness(), "case_II"),
        Op("repro.closed_scan_cap", "quasiorbit.approx_witness", (one, ball), Witness(F(1, 1024)), "closed"),
    ]


# -- cli: JSON requests for the 19 non-oracle subcommands ---------------------------


def _adele_doc(a) -> str:
    return json.dumps(jsonio.dump_adele(a))


def _atom_doc(atom) -> dict:
    if isinstance(atom, PrimeSetPoint):
        return {"kind": "prime_set_point", "set": jsonio.dump_prime_set(atom.point)}
    if isinstance(atom, SingletonFamily):
        return {
            "kind": "singleton_family",
            "base": "finite" if atom.base == FINITE_PRIMES else "extended",
            "excluded": [jsonio.dump_place(p) for p in sorted(atom.excluded, key=padic.extended_prime_key)],
        }
    if isinstance(atom, UnitPoint):
        return {"kind": "unit_point", "unit": jsonio.dump_adele(atom.unit)}
    if isinstance(atom, UnitFamily):
        return {"kind": "unit_family", "prefix": [jsonio.dump_adele(u) for u in atom.prefix], "inf_abs_zero": atom.inf_abs_zero}
    if isinstance(atom, CharacterPoint):
        return {"kind": "character_point", "character": jsonio.dump_character(atom.character)}
    return {"kind": "all_characters"}


def _descriptor_doc(desc: SetDescriptor) -> str:
    return json.dumps({"atoms": [_atom_doc(x) for x in desc.atoms]})


def _cli_requests(rng: random.Random):
    """(argv, library call giving the expected document) per subcommand."""
    q = F(rng.choice(SMALL_PRIMES)) ** rng.randint(-3, 3) * F(rng.randint(1, 9), rng.randint(1, 9))
    p = rng.choice(SMALL_PRIMES)
    fin = _rand_finite(rng, zeros=[2] if rng.random() < 0.5 else [])
    integral = FiniteAdele({k: F(v.numerator) for k, v in fin.explicit.items()}, DefaultSpec.rational(1))
    u, rho, inv = _invertible(rng)
    nonin, _ = _noninvertible_full(rng)
    factor_target = inv if rng.random() < 0.75 else nonin
    a, b, r = _orbit_pair(rng)
    witness_op = rng.choice([_witness_finite, _witness_infeasible, _witness_closed, _witness_closed_miss])(rng)
    wa, wn = witness_op.args
    pc_points = [PrimeSet.finite(frozenset(x for x in SMALL_PRIMES if rng.random() < 0.3)) for _ in range(rng.randint(0, 3))]
    tau = _descriptor(rng, "tau")
    primcq = _descriptor(rng, "primcq")
    primfull = _descriptor(rng, "primfull")
    px = ParameterPoint.of_prime_set(PrimeSet.finite(frozenset(rng.sample(SMALL_PRIMES, k=1)), base=EXTENDED_PRIMES))
    py = rng.choice([ParameterPoint.of_prime_set(PrimeSet.finite(frozenset(SMALL_PRIMES[:3]), base=EXTENDED_PRIMES)), ParameterPoint.of_unit(u)])
    ch = Character(Q_PLUS, {x: F(rng.randint(0, 5), 6) for x in rng.sample(SMALL_PRIMES, k=2)})
    whole = PrimeSet.cofinite((), base=FINITE_PRIMES)
    left_set = rng.choice([whole, PrimeSet.finite({2})])
    eval_at = _nonzero(rng, 30)
    dump_r = jsonio.dump_rational
    pair = lambda s, c: json.dumps({"set": jsonio.dump_prime_set(s), "character": jsonio.dump_character(c)})
    return [
        (["valuation", "--q", str(q), "--p", str(p)], lambda: {"valuation": padic.valuation(q, p)}),
        (["expand", "--q", str(q), "--p", str(p), "--k", "4"], lambda: _expand_doc(q, p, 4)),
        (["zero-set", "--adele", _adele_doc(fin)], lambda: {"zero_set": jsonio.dump_prime_set(adele.zero_set(fin))}),
        (["abs", "--adele", _adele_doc(inv)], lambda: {"abs": dump_r(adele.absolute_value(inv))}),
        (["factor", "--adele", _adele_doc(factor_target)], lambda: _factor_doc(factor_target)),
        (["isotropy", "--adele", _adele_doc(fin)], lambda: {"isotropy": quasiorbit.isotropy(fin)}),
        (["orbit-closure", "--a", _adele_doc(a), "--b", _adele_doc(b)], lambda: {"contains": quasiorbit.orbit_closure_contains(a, b)}),
        (["quasi-orbit", "--a", _adele_doc(a), "--b", _adele_doc(b)], lambda: {"same": quasiorbit.same_quasi_orbit(a, b)}),
        (["chi", "--adele", _adele_doc(inv)], lambda: jsonio.dump_parameter_point(quasiorbit.chi(inv))),
        (
            ["witness", "--adele", _adele_doc(wa), "--nbhd", json.dumps(jsonio.dump_neighbourhood(wn))],
            lambda: {"r": dump_r(quasiorbit.approx_witness(wa, wn)), "verified": True},
        ),
        (
            ["exact-witness", "--a", _adele_doc(a), "--b", _adele_doc(b)],
            lambda: {"r": _optional(quasiorbit.exact_orbit_witness(a, b))},
        ),
        (["zero-divisor", "--adele", _adele_doc(integral)], lambda: {"zero_divisor": quasiorbit.is_zero_divisor(integral)}),
        (
            ["pc-closure", "--points", json.dumps([jsonio.dump_prime_set(s) for s in pc_points])],
            lambda: {"closure": jsonio.dump_closed_descriptor(primtop.pc_closure(pc_points))},
        ),
        (["tau-closure", "--descriptor", _descriptor_doc(tau)], lambda: {"closure": jsonio.dump_closed_descriptor(primtop.tau_closure(tau))}),
        (
            ["specializes", "--x", json.dumps(jsonio.dump_parameter_point(px)), "--y", json.dumps(jsonio.dump_parameter_point(py))],
            lambda: {"specializes": primtop.point_specializes(px, py)},
        ),
        (["primcq-closure", "--descriptor", _descriptor_doc(primcq)], lambda: {"closure": jsonio.dump_closed_descriptor(primtop.primcq_closure(primcq))}),
        (["primfull-closure", "--descriptor", _descriptor_doc(primfull)], lambda: {"closure": jsonio.dump_closed_descriptor(primtop.prim_full_closure(primfull))}),
        (
            ["prim-equal", "--left", pair(left_set, ch), "--right", pair(left_set, Character(Q_PLUS, {2: F(1, 2)}))],
            lambda: {"equal": primtop.prim_equal((left_set, ch), (left_set, Character(Q_PLUS, {2: F(1, 2)})))},
        ),
        (
            ["char-eval", "--character", json.dumps(jsonio.dump_character(ch)), f"--r={eval_at}"],
            lambda: {"angle": dump_r(primtop.character_eval(ch, eval_at))},
        ),
    ]


def _optional(r):
    return None if r is None else jsonio.dump_rational(r)


def _expand_doc(q, p, k):
    t = padic.expand(q, p, k)
    return {"prime": str(p), "valuation": t.valuation, "unit_residue": t.unit_residue, "precision": k}


def _factor_doc(a):
    r, u = adele.factor_idele(a)
    return {"r": jsonio.dump_rational(r), "unit": jsonio.dump_adele(u)}


def _expected_response(make_doc) -> Response:
    """The library's direct answer, as the CLI's exit code and document."""
    try:
        return Response(0, make_doc())
    except AdelicError as exc:
        return Response(2, {"error": {"code": exc.code, "detail": str(exc)}})


def cli_ops(rng: random.Random, rounds: int = 12) -> List[Op]:
    ops = []
    for _ in range(rounds):
        for argv, make_doc in _cli_requests(rng):
            ops.append(Op(f"cli.{argv[0]}", "cli.main", (argv,), _expected_response(make_doc)))
    rng.shuffle(ops)
    return ops


# -- crosscheck: construction against the oracle, criteria 04/05 shapes ------------

ORACLE_PRIMES = (2, 3, 5)
ORACLE_VALUES = (F(1), F(2), F(3), F(5), F(6))


def _small_integral(rng, zeros=()):
    explicit = {p: F(0) for p in zeros}
    for p in ORACLE_PRIMES:
        if p not in zeros and rng.random() < 0.5:
            explicit[p] = rng.choice(ORACLE_VALUES)
    return FiniteAdele(explicit, DefaultSpec.rational(1))


def _small_planted(rng, a, width=None):
    """At most two shallow balls around r0*a with r0 of height <= 12, so
    the oracle's height budget always reaches a witness."""
    full = isinstance(a, FullAdele)
    primes = sorted(rng.sample(ORACLE_PRIMES, k=rng.randint(1, 2)))
    r0 = F(rng.randint(1, 12), rng.choice(primes) ** rng.randint(0, 1))
    if full:
        r0 *= rng.choice((1, -1))
    balls = {p: PadicBall(p, checker.component(a, p) * r0, rng.randint(1, 2)) for p in primes}
    if not full:
        return Neighbourhood(balls)
    lo = r0 * a.real_part - width * F(rng.randint(1, 7), 8)
    return Neighbourhood(balls, real_interval=(lo, lo + width))


def _cross(label, case, a, nbhd, feasible):
    return Op(label, "crosscheck", (a, nbhd, CROSSCHECK_BUDGET), Agree(feasible), case)


def crosscheck_ops(rng: random.Random) -> List[Op]:
    """Real parts alternate between the two criterion-04 values, and the
    closed-orbit real parts are spread evenly over 8..16, since the
    oracle's cost scales with the numerator range the interval admits."""
    ops = []
    for i in range(30):
        zeros = [p for p in ORACLE_PRIMES if rng.random() < 0.2]
        a = _small_integral(rng, zeros)
        ops.append(_cross("crosscheck.finite", "finite", a, _small_planted(rng, a), True))
    for _ in range(10):
        p = rng.choice(SMALL_PRIMES)
        a = FiniteAdele({p: F(0)}, DefaultSpec.rational(1))
        centre = rng.choice([c for c in range(1, 5) if c % p])  # a unit, so the ball excludes 0
        ops.append(_cross("crosscheck.infeasible", "finite", a, Neighbourhood({p: PadicBall(p, F(centre), 1)}), False))
    for i in range(20):
        a = FullAdele(_small_integral(rng, [rng.choice(ORACLE_PRIMES)]), F(1 + i % 2))
        ops.append(_cross("crosscheck.case_I", "case_I", a, _small_planted(rng, a, F(1, 64)), True))
    for i in range(10):
        a = FullAdele(FiniteAdele({}, DefaultSpec.times_p(1)), F(1 + i % 2))
        ops.append(_cross("crosscheck.case_II", "case_II", a, _small_planted(rng, a, F(1, 64)), True))
    for i in range(20):
        u = _rand_unit(rng, real=F(8 + i % 9))
        a = FullAdele(u.finite_part, u.real_part)
        ops.append(_cross("crosscheck.closed", "closed", a, _planted(rng, a, 0, F(1, 64), den_primes=1)[0], True))
    for i in range(10):
        a, nbhd = _closed_miss(rng, F(1, 128), F(8 + i % 9), scaled=False)
        ops.append(_cross("crosscheck.closed_miss", "closed", a, nbhd, False))
    rng.shuffle(ops)
    return ops


BUILDERS = {"library": library, "deep": deep, "cli": cli_ops, "crosscheck": crosscheck_ops}


def build(workload: str, seed: int) -> List[Op]:
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"))


def spawn_requests(seed: int, count: int):
    """A fixed sample of CLI requests, each with its expected response,
    for timing fresh ``python -m adelic.cli`` processes."""
    requests = _cli_requests(random.Random(f"spawn:{seed}"))
    return [(argv, _expected_response(make_doc)) for argv, make_doc in requests[:count]]
