"""Exact truncated p-adic arithmetic.

Valuations, expansions of rationals, decidable ball membership and a
Chinese Remainder solver.  Every value is backed by an exact rational;
truncation happens only when digits are extracted, so all predicates in
this module are decidable.  All types are immutable and all operations
are pure functions, safe for concurrent use.  The one shared prime list
behind ``iter_primes`` grows by rebinding a longer tuple, so a walk that
indexes an older one still reads a complete run of primes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Tuple, Union

from .errors import NoIntegerSolution, NonCoprimeModuli, WorkBoundExceeded

Rational = Union[int, Fraction]

#: Valuation of zero.  ``math.inf`` absorbs addition and compares
#: correctly against every integer, which is all we need of it.
INFINITE_VALUATION = math.inf

Valuation = Union[int, float]

_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIMALITY_LIMIT = 2**64
#: Below this bound the twelve bases decide primality exactly (Sorenson and
#: Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 86, 2017).
_MILLER_RABIN_EXACT = 318665857834031151167461
_TRIAL_BOUND = 2**16  # prime_factors trial-divides by the primes below it
_RHO_STEPS = 2**16  # the budget of _rho_divisor, which raises WorkBoundExceeded past it


def _require_int(value, name: str) -> None:
    """Reject anything but an int, a bool included, with ValueError."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer")


def _fraction(q) -> Fraction:
    """q as a Fraction: a Fraction comes back as the same object, which is
    safe since Fraction is immutable, and anything else is converted."""
    return q if isinstance(q, Fraction) else Fraction(q)


def _rational(x) -> Rational:
    """x itself when it is an int or a Fraction, which both carry a numerator
    and a denominator, and x converted to a Fraction otherwise."""
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact below _MILLER_RABIN_EXACT."""
    if n < 2:
        return False
    for p in _MILLER_RABIN_BASES:
        if n % p == 0:
            return n == p
    s, d = _split(n - 1, 2)
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Prime(int):
    """A verified prime number.

    Constructing ``Prime(n)`` runs a deterministic primality test; values
    at or above 2**64 are rejected outright.  Instances behave as plain
    integers everywhere else.
    """

    __slots__ = ()

    def __new__(cls, value) -> "Prime":
        if isinstance(value, Prime):
            return value
        try:
            v = int(value)
        except (TypeError, ValueError, OverflowError) as exc:  # INFINITY, None, "x", float("inf"), ...
            raise ValueError(f"prime must be an integer, got {value!r}") from exc
        if v != value:
            raise ValueError(f"prime must be an integer, got {value!r}")
        if v >= _PRIMALITY_LIMIT:
            raise ValueError(f"{v} is too large: primality is only verified below 2**64")
        if not is_prime(v):
            raise ValueError(f"{v} is not prime")
        return super().__new__(cls, v)

    def __repr__(self) -> str:
        return f"Prime({int(self)})"


class _InfinitePlace:
    """The archimedean place, the extra point of the extended primes."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "INFINITY"


INFINITY = _InfinitePlace()

ExtendedPrime = Union[Prime, _InfinitePlace]


def is_infinite_place(p: object) -> bool:
    return isinstance(p, _InfinitePlace)


def extended_prime_key(p: ExtendedPrime) -> Tuple[int, int]:
    """Sort key placing the finite primes in order and INFINITY last."""
    if is_infinite_place(p):
        return (1, 0)
    return (0, int(p))


#: Every prime up to the last one listed, ascending; see the module docstring.
_PRIMES: Tuple[Prime, ...] = (int.__new__(Prime, 2),)


def iter_primes() -> Iterator[Prime]:
    """Yield the primes in increasing order, forever, from the shared list,
    grown by sieving when a walk runs off its end."""
    global _PRIMES
    primes, i = _PRIMES, 0
    while True:
        if i == len(primes):
            primes = _PRIMES  # perhaps grown by another walk
            while len(primes) <= i:  # a walk with an older list may have published a shorter one
                primes = _PRIMES = primes + _sieve_past(primes)
        yield primes[i]
        i += 1


def _sieve_past(primes: Tuple[Prime, ...]) -> Tuple[Prime, ...]:
    """The primes in (P, 2P] for P = primes[-1], at least one by Bertrand's
    postulate, sieved by the listed primes up to sqrt(2P) <= P."""
    lo, hi = primes[-1] + 1, 2 * primes[-1]
    sieve = bytearray([1]) * (hi - lo + 1)  # sieve[n - lo] stays 1 while n may be prime
    for p in itertools.takewhile(lambda p: p * p <= hi, primes):
        first = max(p * p, -(-lo // p) * p) - lo
        sieve[first::p] = bytes(len(range(first, len(sieve), p)))
    return tuple(int.__new__(Prime, n) for n in itertools.compress(range(lo, hi + 1), sieve))


def prime_factors(n: int) -> dict:
    """Factor a nonzero integer into {Prime: multiplicity}.  Trial division
    below _TRIAL_BOUND leaves primes past it, so a part below its square is
    prime, as is one the primality test passes where it is exact; others
    split by their square root or ``_rho_divisor``, primes by ``_split``.
    A cofactor past rho's step budget, or a prime cofactor of 2**64 or
    more, which Prime would refuse, raises WorkBoundExceeded."""
    if n == 0:
        raise ValueError("cannot factor zero")
    n, out = abs(n), {}
    for p in iter_primes():
        if p >= _TRIAL_BOUND or p * p > n:
            break
        if n % p == 0:
            out[p], n = _split(n, p)
    while n > 1:
        d = n
        while d >= _TRIAL_BOUND**2 and not (d < _MILLER_RABIN_EXACT and is_prime(d)):
            s = math.isqrt(d)
            d = s if s * s == d else _rho_divisor(d)
        if d >= _PRIMALITY_LIMIT:
            raise WorkBoundExceeded(f"a {d.bit_length()}-bit prime cofactor is past 2**64, the range Prime verifies")
        out[Prime(d)], n = _split(n, d)
    return dict(sorted(out.items()))


def _rho_divisor(n: int) -> int:
    """A proper divisor of n, a non-square with no prime below _TRIAL_BOUND:
    Pollard's rho (BIT 15, 1975), Brent's cycle finding and a gcd a stride
    (BIT 20, 1980).  A step y -> y*y + c mod n costs 1 + (bits // 512)**2 of
    _RHO_STEPS, as reducing mod n is quadratic; a prime n raises at the end."""
    budget, cost = _RHO_STEPS, 1 + (n.bit_length() // 512) ** 2
    for c in itertools.count(1):
        y, stride, g = 2, 1, 1
        while g == 1:  # y walks a stride of steps, each against x, where the stride began
            if stride * cost > budget:
                raise WorkBoundExceeded(f"a {n.bit_length()}-bit cofactor exceeds the step budget of Pollard's rho")
            x, q, budget = y, 1, budget - stride * cost
            for _ in range(stride):
                y = (y * y + c) % n
                q = q * (x - y) % n
            g, stride = math.gcd(q, n), 2 * stride
        if g == n:  # the stride met every factor at once: walk it again one gcd per step
            y, g = x, 1
            while g == 1:
                y = (y * y + c) % n
                g = math.gcd(x - y, n)
        if g != n:
            return g


def _split(n: int, p: int) -> Tuple[int, int]:
    """(v, n // p**v) for v = v_p(n), n nonzero.  At p = 2, v is the count of
    trailing zero bits, read in one pass.  Otherwise a round divides by p,
    then by p, p**2, p**4, ... while they divide: v costs O(log(v)**2)
    divisions."""
    if p == 2:
        v = (n & -n).bit_length() - 1  # n & -n is 2**v, of either sign of n
        return v, n >> v
    v, k = 0, 2
    while k > 1 and n % p == 0:  # a round that divided only by p leaves no p
        n, d, k = n // p, p, 1
        while n % d == 0:
            n, d, k = n // d, d * d, k + k
        v += k
    return v, n


def valuation(q: Rational, p) -> Valuation:
    """The p-adic valuation of a rational.

    Returns the unique integer v such that q * p**-v is a p-adic unit,
    and INFINITE_VALUATION exactly when q is zero.  Negative values occur
    when p divides the denominator.  Its cost follows log(v), not v.

    >>> valuation(12, 2)
    2
    >>> valuation(Fraction(2, 9), 3)
    -2
    """
    p = p if isinstance(p, Prime) else Prime(p)
    q = _rational(q)
    return _pair_valuation(q.numerator, q.denominator, p)


def _pair_valuation(num: int, den: int, p: int) -> Valuation:
    """v_p(num / den) for a nonzero den, where p divides at most one of the
    two, as in lowest terms: num % p picks the side that is split."""
    if num % p:
        return -_split(den, p)[0]
    return _split(num, p)[0] if num else INFINITE_VALUATION


@dataclass(frozen=True)
class TruncatedPadic:
    """A p-adic value split as p**valuation * unit, the unit kept mod p**precision.

    ``unit_residue`` is absent exactly when the value is zero (infinite
    valuation); otherwise it lies in [1, p**precision - 1] and is coprime
    to p.
    """

    prime: Prime
    valuation: Valuation
    unit_residue: Optional[int]
    precision: int

    def __post_init__(self):
        object.__setattr__(self, "prime", Prime(self.prime))
        _require_int(self.precision, "precision")
        if self.precision < 1:
            raise ValueError("precision must be >= 1")
        if self.valuation == INFINITE_VALUATION:
            if self.unit_residue is not None:
                raise ValueError("zero has no unit residue")
        else:
            _require_int(self.valuation, "finite valuation")
            r = self.unit_residue
            if r is None or not 1 <= r < self.prime**self.precision or r % self.prime == 0:
                raise ValueError("unit residue must lie in [1, p^k - 1] and be coprime to p")

    @property
    def is_zero(self) -> bool:
        return self.unit_residue is None

    def reconstruct(self) -> Fraction:
        """The rational p**valuation * unit_residue (zero for the zero value)."""
        if self.is_zero:
            return Fraction(0)
        return Fraction(self.prime) ** self.valuation * self.unit_residue


def _congruence(p: int, num: int, den: int, e: int) -> Tuple[int, int]:
    """The integers in the ball B(num / den, e) around a p-integral centre
    (p does not divide den), e >= 1, as one congruence (residue, p**e)."""
    modulus = p**e
    return num * pow(den, -1, modulus) % modulus, modulus


def expand(q: Rational, p, precision: int) -> TruncatedPadic:
    """Expand a rational at p: valuation plus the unit part mod p**precision.

    The reconstruction p**v * unit_residue agrees with q modulo p**(v + precision).
    """
    p = Prime(p)
    _require_int(precision, "precision")
    if precision < 1:
        raise ValueError("precision must be >= 1")
    q = _fraction(q)
    if q == 0:
        return TruncatedPadic(p, INFINITE_VALUATION, None, precision)
    (v, unit_num), (w, unit_den) = _split(q.numerator, p), _split(q.denominator, p)
    return TruncatedPadic(p, v - w, _congruence(p, unit_num, unit_den, precision)[0], precision)


@dataclass(frozen=True)
class PadicBall:
    """The set {x : |x - center|_p <= p**-radius_exponent}.

    Membership of a rational x is decided exactly by one divisibility
    test on integers, never by the valuation of x - center.
    """

    prime: Prime
    center: Fraction
    radius_exponent: int

    def __post_init__(self):
        object.__setattr__(self, "prime", Prime(self.prime))
        object.__setattr__(self, "center", _fraction(self.center))
        _require_int(self.radius_exponent, "radius_exponent")

    def contains(self, x: Rational) -> bool:
        x = _rational(x)
        return _in_ball(self.prime, x.numerator, x.denominator, self.center, self.radius_exponent)


def _in_ball(p: int, num: int, den: int, centre: Rational, e: int) -> bool:
    """Whether num / den, in lowest terms or not, lies in B(centre, e) at p.
    With centre = c_num / c_den the difference is diff / (den * c_den)
    unreduced, for diff = num * c_den - c_num * den, so it lies in the
    ball exactly when p**max(0, e + v_p(den * c_den)) divides diff;
    diff == 0 decides before den is split."""
    diff = num * centre.denominator - centre.numerator * den
    return diff == 0 or diff % p ** max(0, e + _split(den * centre.denominator, p)[0]) == 0


def integer_in_ball(ball: PadicBall) -> int:
    """The smallest nonnegative integer inside a p-adic ball.

    Raises NoIntegerSolution when the center has negative valuation and
    the radius is too small for any integer to reach it.
    """
    if ball.contains(0):
        return 0
    p, c, ell = ball.prime, ball.center, ball.radius_exponent
    if c.denominator % p == 0:
        # every integer sits at distance exactly |c|_p > p**-ell from the center
        raise NoIntegerSolution(
            f"no integer within p^-{ell} of {c} at p={int(p)}"
        )
    return _congruence(p, c.numerator, c.denominator, ell)[0]


def crt_solve(congruences: Sequence[Tuple[int, int]]) -> int:
    """Solve simultaneous congruences n = r_i (mod m_i) with coprime moduli.

    Takes (residue, modulus) pairs whose moduli are pairwise coprime
    (prime powers in every use here) and returns the smallest nonnegative
    solution; the full solution set is that value plus multiples of the
    product of the moduli.  An empty system yields 0.
    """
    x = 0
    modulus = 1
    for residue, m in congruences:
        if m < 1:
            raise ValueError(f"modulus must be positive, got {m}")
        if math.gcd(modulus, m) != 1:
            raise NonCoprimeModuli(f"modulus {m} shares a factor with {modulus}")
        k = (residue - x) * pow(modulus, -1, m) % m
        x += modulus * k
        modulus *= m
    return x % modulus
