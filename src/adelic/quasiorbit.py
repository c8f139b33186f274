"""Orbits of the rational scaling action and their closures.

The positive rationals act on finite adeles and the nonzero rationals on
full adeles, componentwise at every place.  Everything here is exact:
orbit-closure membership is decided from zero sets and idele
factorizations, and ``approx_witness`` *constructs* a rational r placing
r*a inside a requested neighbourhood, via a Chinese Remainder argument,
then checks the result in place before returning it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .adele import (
    Adele,
    FiniteAdele,
    FullAdele,
    Neighbourhood,
    PrimeSet,
    UnitIdele,
    ZERO,
    factor_idele,
    is_invertible,
    zero_set,
)
from .adele import _check_kind, _default_primes, _idele_rational, _pair_at, _scaled_in
from .errors import ClosedOrbitMiss, Infeasible, NotIntegral
from .padic import _congruence, _pair_valuation, _split, crt_solve

# isotropy tags
TRIVIAL = "trivial"
FULL_GROUP = "full_group"

# parameter point kinds
PRIME_SET = "prime_set"
UNIT_CLASS = "unit_class"


@dataclass(frozen=True)
class ParameterPoint:
    """A point of the quasi-orbit parameter space: either the zero set of
    a noninvertible class or the canonical unit representative of a closed
    invertible orbit."""

    kind: str
    prime_set: Optional[PrimeSet] = None
    unit: Optional[UnitIdele] = None

    def __post_init__(self):
        if self.kind == PRIME_SET:
            if not isinstance(self.prime_set, PrimeSet) or self.unit is not None:
                raise ValueError("prime-set point carries exactly a PrimeSet")
        elif self.kind == UNIT_CLASS:
            if not isinstance(self.unit, UnitIdele) or self.prime_set is not None:
                raise ValueError("unit-class point carries exactly a UnitIdele")
        else:
            raise ValueError(f"unknown parameter point kind {self.kind!r}")

    @classmethod
    def of_prime_set(cls, s: PrimeSet) -> "ParameterPoint":
        return cls(PRIME_SET, prime_set=s)

    @classmethod
    def of_unit(cls, u: UnitIdele) -> "ParameterPoint":
        return cls(UNIT_CLASS, unit=u)

    def __repr__(self) -> str:
        payload = self.prime_set if self.kind == PRIME_SET else self.unit
        return f"ParameterPoint({self.kind}, {payload!r})"


def isotropy(a: Adele) -> str:
    """FULL_GROUP exactly at the zero adele, TRIVIAL everywhere else."""
    return FULL_GROUP if a.is_zero else TRIVIAL


def _require_same_kind(a: Adele, b: Adele) -> bool:
    fa, fb = isinstance(a, FullAdele), isinstance(b, FullAdele)
    if fa != fb:
        raise ValueError("adeles must both be finite or both be full")
    return fa


def orbit_closure_contains(a: Adele, b: Adele) -> bool:
    """Whether b lies in the closure of the scaling orbit of a.

    Finite adeles: the closure is cut out by the zero set, so the test is
    zero_set(a) <= zero_set(b).  Full adeles: invertible orbits are closed
    (membership means an exact witness exists), noninvertible closures are
    again cut out by the extended zero set.
    """
    full = _require_same_kind(a, b)
    if full and is_invertible(a):
        return exact_orbit_witness(a, b) is not None
    return zero_set(a).is_subset_of(zero_set(b))


def same_quasi_orbit(a: Adele, b: Adele) -> bool:
    """Whether a and b have identical orbit closures."""
    return orbit_closure_contains(a, b) and orbit_closure_contains(b, a)


def chi(a: FullAdele) -> ParameterPoint:
    """The quasi-orbit parametrization of a full adele.

    Invertible adeles map to their unique unit-idele representative,
    noninvertible ones to their extended zero set.
    """
    if not isinstance(a, FullAdele):
        raise ValueError("chi needs a full adele")
    if is_invertible(a):
        return ParameterPoint.of_unit(factor_idele(a)[1])
    return ParameterPoint.of_prime_set(zero_set(a))


def exact_orbit_witness(a: Adele, b: Adele) -> Optional[Fraction]:
    """The rational r with scale(r, a) == b, if one exists.

    Unique for a != 0.  For finite adeles only positive witnesses count
    (the acting group is the positive rationals); full adeles admit both
    signs.  Scaling keeps the default kind and maps q to r * q, so a
    nonzero default forces r = q_b / q_a.  Under a ZERO default r is read
    from the real part or from the first prime where a does not vanish,
    which is explicit in a.  The one candidate is then checked at the real
    place and at the primes explicit in a or b, each r * x == y
    cross-multiplied, so neither r * a nor a Fraction product is built and
    nothing is factored; the default rule holds by the choice of r.
    """
    full = _require_same_kind(a, b)
    if a.default.kind != b.default.kind:
        return None
    if a.default.kind != ZERO:
        r = b.default.q / a.default.q
    elif full and a.real_part != 0:
        r = b.real_part / a.real_part
    else:
        r = next((b.component(p) / v for p, v in a.explicit.items() if v != 0), None)
        if r is None:  # a vanishes identically; only b == a keeps it in the orbit
            return Fraction(1) if a == b else None
    if r == 0 or (not full and r < 0):
        return None
    n, d = r.numerator, r.denominator
    xs, ys = a.explicit, b.explicit
    pairs = [(a.real_part, b.real_part)] if full else []
    pairs += [(xs[p] if p in xs else a.default.value_at(p), ys[p] if p in ys else b.default.value_at(p))
              for p in xs.keys() | ys.keys()]
    return r if all(n * x.numerator * y.denominator == y.numerator * d * x.denominator for x, y in pairs) else None


def is_zero_divisor(a: FiniteAdele) -> bool:
    """Whether an integral finite adele kills something componentwise.

    Equivalent to a component vanishing somewhere; the negation is the
    criterion for the rational orbit to be dense among the integral
    adeles.  Raises NotIntegral off the integral ones.
    """
    if not isinstance(a, FiniteAdele):
        raise ValueError("zero divisors live among the finite adeles")
    for p, v in a.explicit.items():
        if v.denominator % p == 0:
            raise NotIntegral(f"component {v} at p={int(p)} has negative valuation")
    return a.default.kind == ZERO or any(v == 0 for v in a.explicit.values())


def approx_witness(a: Adele, nbhd: Neighbourhood) -> Fraction:
    """Construct a rational r with scale(r, a) inside the neighbourhood.

    The algorithm mirrors the constructive orbit-closure proofs.  Each
    ball constraint at a prime p with nonvanishing component is rewritten
    as a ball for r itself, a triple (p, e, gamma), and so as one congruence
    on the numerator over the core denominator; crt_solve merges them once,
    and a tail t on the denominator multiplies the solution by t.
    Off the balls r * a_p must be integral, which is the ball B(0, 0):
    the explicit primes without a ball go through the same rewrite.
    For dense full adeles with a nonzero real coordinate the denominator is
    enlarged, through powers of the smallest vanishing prime (Case I) or
    through the default primes dividing a TIMES_P adele (Case II), until
    the solution progression is dense enough to hit the real interval;
    the first nonzero progression term inside the interval is taken.

    Invertible full adeles have closed orbits: some exact r lands in the
    neighbourhood or none does.  With a = r0 * u, the same rewrite runs on
    t = r * r0 and reads u_p = a_p / r0 and u_oo = a_oo / r0, never
    building u.  As u_p is a p-adic unit, each ball admits every
    denominator it allows, v_p(t) >= min(e_p, v_p(c_p)), so the
    denominator is fixed and gets no tail; the first nonzero progression
    term in the real interval is the smallest such t and gives r = t / r0,
    or there is none and the orbit misses the neighbourhood.

    The plan is carried on integers.  Each place's component is read once,
    as the pair adele._pair_at gives, and its valuation and the centre's
    are split off those pairs (padic._pair_valuation), so no Fraction
    product is built and valuation() is never called; gamma, u and the real
    bounds are unreduced pairs, and the one Fraction built is r.

    All free choices are pinned so the returned witness is canonical and
    reproducible.  The result is checked exactly before it is returned,
    by the rule of Neighbourhood.contains applied to r * a in place
    (adele._scaled_in): r * a is never built and nothing is factored.
    The ball primes, the explicit primes and the real interval are tested
    directly, on the same component pairs; elsewhere the default must
    absorb r's denominator, an integer divisibility that for a TIMES_P
    default takes the tail primes Case II drew.

    Raises Infeasible on a zero-pattern conflict and ClosedOrbitMiss when
    an invertible full adele's closed orbit misses the neighbourhood.
    """
    full = _check_kind(a, nbhd)
    closed = full and is_invertible(a)
    r0 = _idele_rational(a) if closed else 1
    explicit, default = a.explicit, a.default
    if full:
        lo, hi = nbhd.real_interval
        real = a.real_part
        u_num, u_den = real.numerator * r0.denominator, real.denominator * r0.numerator  # u_oo = a_oo / r0
    if not closed:  # an invertible adele has no vanishing coordinate
        # a_p vanishes at an explicit 0 or, elsewhere, under a ZERO default (the zero-set rule);
        # a vanishing coordinate meets a ball only through 0 (B(0, 0) off the balls holds it)
        for p, ball in nbhd.balls.items():
            if (explicit[p] == 0 if p in explicit else default.kind == ZERO) and not ball.contains(0):
                raise Infeasible(f"component at p={int(p)} vanishes but the ball excludes 0")
        if full and real == 0 and not lo < 0 < hi:
            raise Infeasible("real part vanishes but the interval excludes 0")

    # rewrite each ball constraint as a congruence datum for r (for t = r * r0 when closed)
    cong_data = []  # (p, exponent, centre gamma of the r-ball as an unreduced pair)
    denominator_core = 1
    for p in sorted(nbhd.balls.keys() | explicit.keys()):
        a_num, a_den = _pair_at(explicit, default, p)
        if a_num == 0:
            continue  # a feasible ball, satisfied by every r
        ball = nbhd.balls.get(p)
        centre, radius = (ball.center, ball.radius_exponent) if ball else (0, 0)  # Z_p = B(0, 0)
        c_num, c_den = centre.numerator, centre.denominator
        alpha = 0 if closed else _pair_valuation(a_num, a_den, p)  # u_p = a_p / r0 is a p-adic unit
        m = radius - alpha
        beta = _pair_valuation(c_num, c_den, p) - alpha  # v_p(gamma) for gamma = centre / u_p
        # a closed orbit takes every denominator the ball allows, a dense one those it forces
        d_p = max(0, -min(beta, m)) if closed or beta < m else 0
        denominator_core *= int(p) ** d_p
        e_p = m + d_p
        if e_p >= 1:
            cong_data.append((p, e_p, c_num * a_den * r0.numerator, c_den * a_num * r0.denominator))

    # one CRT per witness: over denominator_core * t the solution is base * t mod modulus
    congruences = []
    for p, e, gamma_num, gamma_den in cong_data:
        k, gamma_den = _split(gamma_den, p)  # p**k divides gamma_num * core, as beta + d_p >= 0
        congruences.append(_congruence(p, gamma_num * denominator_core // p**k, gamma_den, e))
    base = crt_solve(congruences)
    modulus = math.prod(m for _, m in congruences)

    # denominator growth for real-interval control (dense full case only)
    tail_factor, tail_primes, drawn, threshold = 1, None, [], -1  # -1: nothing grows
    if full and real != 0 and not closed:
        # floor(|a_oo| * modulus / ((hi - lo) * core)): exact against the integer tail_factor
        threshold = abs(real.numerator) * hi.denominator * lo.denominator * modulus // (
            real.denominator * (hi.numerator * lo.denominator - lo.numerator * hi.denominator) * denominator_core)
        vanishing = [p for p, v in explicit.items() if v == 0]
        if default.kind == ZERO:
            vanishing.append(next(_default_primes(a)))
        if vanishing:  # Case I: powers of the smallest vanishing prime
            p = min(vanishing)
            tail_primes = itertools.repeat(p)
            # p**k <= 2**(bits - 1) <= threshold even if float rounding adds one to k
            tail_factor = p ** max(0, int(threshold.bit_length() / math.log2(p)) - 2)
        else:  # Case II: nothing vanishes, so the default is TIMES_P
            tail_primes = _default_primes(a, skip=frozenset(nbhd.balls))

    # The tail grows past the threshold before any pick.  That makes the
    # open numerator range longer than the modulus, so it holds a
    # progression term and only a lone 0 can be rejected.  A refinement
    # draws one more tail prime, which multiplies the range by a prime >= 2,
    # so it then holds two terms, at most one of them 0: past the threshold
    # at most two picks are made.  A closed orbit's denominator is fixed
    # and nothing grows, so one pick decides it.
    while True:
        if tail_factor > threshold:
            denominator = denominator_core * tail_factor
            # n * u_oo / denominator lies in (lo, hi): n lies between lo and hi times denominator / u_oo
            bounds = [(b.numerator * denominator * u_den, b.denominator * u_num) for b in (lo, hi)] if full and real else None
            numerator = _pick_numerator(base * tail_factor % modulus, modulus, bounds)
            if numerator is not None:
                break
            if closed:
                raise ClosedOrbitMiss("the closed orbit misses the neighbourhood")
        drawn.append(next(tail_primes))
        tail_factor *= drawn[-1]
    r = Fraction(numerator * r0.denominator, denominator * r0.numerator)  # t / r0, or n / D when r0 = 1
    if not _scaled_in(nbhd, r, a, drawn):
        raise AssertionError(f"constructed witness {r} failed verification")
    return r


def _pick_numerator(base: int, modulus: int, bounds) -> Optional[int]:
    """The first nonzero n = base (mod modulus) strictly between the bounds,
    or None.  The bounds are two rationals as integer pairs (numerator,
    denominator) in either order; bounds None give the smallest positive
    solution.  An integer lies strictly between two rationals exactly when
    it lies strictly between the floor of the lower and the ceiling of the
    upper."""
    first, last = 0, math.inf
    if bounds:
        (a, b), (c, d) = bounds
        first, last = min(a // b, c // d), max(-(-a // b), -(-c // d))
    n = base + ((first - base) // modulus + 1) * modulus
    while n < last:
        if n != 0:
            return n
        n += modulus
    return None
