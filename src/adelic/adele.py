"""Finitely described finite and full adeles.

An adele is stored as a finite map of explicit rational components plus a
default rule covering every other prime.  Three default rules suffice for
the whole library: ZERO (the component vanishes), RATIONAL(q) (the
component is q) and TIMES_P(q) (the component at the default prime p is
q*p, so p divides the adele there).
The archimedean coordinate of a full adele is an exact rational.

Equality of adeles is semantic: two descriptions are equal when they have
the same component at every place.  Equality and hashing go through one
canonical key, ``sort_key``, that every description of an adele shares,
and witnesses, constructed or searched, depend on the adele, not on its
description.  Values are immutable and operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Iterator, Optional, Tuple, Union

from .errors import (
    NotInvertible,
    ZeroComponent,
)
from .padic import (
    INFINITY,
    PadicBall,
    Prime,
    Rational,
    _fraction,
    _in_ball,
    _split,
    extended_prime_key,
    is_infinite_place,
    iter_primes,
    prime_factors,
    valuation,
)

# default rule kinds
ZERO = "zero"
RATIONAL = "rational"
TIMES_P = "times_p"

# prime set bases
FINITE_PRIMES = "finite_primes"
EXTENDED_PRIMES = "extended_primes"


@dataclass(frozen=True)
class DefaultSpec:
    """The rule giving the component at every non-explicit prime."""

    kind: str
    q: Optional[Fraction] = None

    def __post_init__(self):
        if self.kind not in (ZERO, RATIONAL, TIMES_P):
            raise ValueError(f"unknown default kind {self.kind!r}")
        if self.kind == ZERO:
            if self.q is not None:
                raise ValueError("zero default carries no rational")
        else:
            q = _fraction(self.q)
            if q == 0:
                raise ValueError("rational/times_p default must be nonzero")
            object.__setattr__(self, "q", q)

    @classmethod
    def zero(cls) -> "DefaultSpec":
        return cls(ZERO)

    @classmethod
    def rational(cls, q: Rational) -> "DefaultSpec":
        return cls(RATIONAL, q)

    @classmethod
    def times_p(cls, q: Rational) -> "DefaultSpec":
        return cls(TIMES_P, q)

    def value_at(self, p: Prime) -> Fraction:
        if self.kind == ZERO:
            return Fraction(0)
        if self.kind == RATIONAL:
            return self.q
        return self.q * p


def _strip(n: int, primes: Iterable) -> int:
    """|n| with every power of the given primes divided out."""
    n = abs(n)
    for p in primes:
        if n % p == 0:
            n = _split(n, p)[1]
    return n


def _normalize_explicit(explicit) -> Dict[Prime, Fraction]:
    # dict keys are distinct numbers and Prime(p) == p, so no two collide
    return dict(sorted((Prime(p), _fraction(v)) for p, v in dict(explicit).items()))


@dataclass(frozen=True)
class FiniteAdele:
    """An element of the restricted product of the p-adic fields.

    Invariant: every prime dividing the denominator of the default
    rational appears among the explicit keys, so the component at each
    non-explicit prime is integral.  Only explicit primes can carry a
    negative valuation, which keeps the element inside the restricted
    product.  Primes of the numerator may stay implicit, since the
    restricted product bounds denominators only; checking the invariant
    divides the explicit primes out of the denominator and factors
    nothing.  Every finite adele the library builds, the results of
    ``scale`` and ``factor_idele`` included, comes through this
    constructor and its check; there is no unchecked path.
    """

    explicit: Dict[Prime, Fraction]
    default: DefaultSpec

    def __post_init__(self):
        object.__setattr__(self, "explicit", _normalize_explicit(self.explicit))
        if not isinstance(self.default, DefaultSpec):
            raise ValueError("default must be a DefaultSpec")
        if self.default.kind != ZERO:
            cofactor = _strip(self.default.q.denominator, self.explicit)
            if cofactor != 1:
                raise ValueError(
                    f"default rational {self.default.q} has denominator cofactor {cofactor} "
                    "outside the explicit map"
                )

    def component(self, p) -> Fraction:
        """The exact rational component at a finite prime."""
        p = Prime(p)
        if p in self.explicit:
            return self.explicit[p]
        return self.default.value_at(p)

    @property
    def is_zero(self) -> bool:
        return self.default.kind == ZERO and all(v == 0 for v in self.explicit.values())

    def sort_key(self):
        """The canonical key: the explicit entries that differ from the
        default rule, then the rule.  Two descriptions have the same
        components exactly when their keys agree, since distinct default
        rules disagree at infinitely many primes."""
        d = self.default
        q = Fraction(0) if d.q is None else d.q
        entries = tuple(
            (int(p), v.numerator, v.denominator)
            for p, v in self.explicit.items()
            if v != d.value_at(p)
        )
        return (entries, d.kind, q.numerator, q.denominator)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteAdele):
            return NotImplemented
        # distinct default rules disagree at infinitely many primes
        return self.default == other.default and self.sort_key() == other.sort_key()

    def __hash__(self):
        return hash(self.sort_key())

    def __repr__(self) -> str:
        parts = ", ".join(f"{int(p)}: {v}" for p, v in self.explicit.items())
        tail = self.default.kind if self.default.kind == ZERO else f"{self.default.kind}({self.default.q})"
        return f"FiniteAdele({{{parts}}}, default={tail})"


def _default_primes(a: Adele, skip=frozenset()) -> Iterator[Prime]:
    """The primes where the default rule gives a's component, ascending, minus skips:
    p divides neither term of the default rational, and any entry at p restates the rule."""
    d, explicit = a.default, a.explicit
    terms = 1 if d.q is None else d.q.numerator * d.q.denominator  # p | n*d iff p | n or p | d
    for p in iter_primes():
        if p not in skip and terms % p and (p not in explicit or explicit[p] == d.value_at(p)):
            yield p


@dataclass(frozen=True)
class FullAdele:
    """A finite adele together with an exact rational archimedean coordinate."""

    finite_part: FiniteAdele
    real_part: Fraction

    def __post_init__(self):
        if not isinstance(self.finite_part, FiniteAdele):
            raise ValueError("finite_part must be a FiniteAdele")
        object.__setattr__(self, "real_part", _fraction(self.real_part))

    @property
    def explicit(self) -> Dict[Prime, Fraction]:
        return self.finite_part.explicit

    @property
    def default(self) -> DefaultSpec:
        return self.finite_part.default

    def component(self, p) -> Fraction:
        """The exact component at a finite prime or at INFINITY."""
        if is_infinite_place(p):
            return self.real_part
        return self.finite_part.component(p)

    @property
    def is_zero(self) -> bool:
        return self.real_part == 0 and self.finite_part.is_zero

    def sort_key(self):
        """The finite part's canonical key, then the real coordinate."""
        return self.finite_part.sort_key() + (self.real_part.numerator, self.real_part.denominator)

    def __eq__(self, other) -> bool:
        # a UnitIdele equals an equal FullAdele
        if not isinstance(other, FullAdele):
            return NotImplemented
        return self.real_part == other.real_part and self.finite_part == other.finite_part

    def __hash__(self):
        return hash(self.sort_key())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.finite_part!r}, real={self.real_part})"


class UnitIdele(FullAdele):
    """A full adele whose split r * u (see factor_idele) has r = 1: it is
    invertible and its idele rational is 1, so every finite component is a
    unit, the default rule is RATIONAL and the real coordinate is positive.

    These are the canonical orbit representatives of invertible adeles.
    """

    def __post_init__(self):
        super().__post_init__()
        r = _idele_rational(self) if is_invertible(self) else None
        if r != 1:
            why = "it is not invertible" if r is None else f"it is {r} times one"
            raise ValueError(f"{self!r} is not a unit idele: {why}")


Adele = Union[FiniteAdele, FullAdele]


@dataclass(frozen=True)
class PrimeSet:
    """A finite or cofinite set of (extended) primes.

    ``members`` lists the elements for kind "finite" and the excluded
    elements for kind "cofinite".
    """

    base: str
    kind: str
    members: frozenset

    def __post_init__(self):
        if self.base not in (FINITE_PRIMES, EXTENDED_PRIMES):
            raise ValueError(f"unknown base {self.base!r}")
        if self.kind not in ("finite", "cofinite"):
            raise ValueError(f"unknown kind {self.kind!r}")
        normalized = set()
        for p in self.members:
            if is_infinite_place(p):
                if self.base != EXTENDED_PRIMES:
                    raise ValueError("INFINITY only belongs to the extended primes")
                normalized.add(INFINITY)
            else:
                normalized.add(Prime(p))
        object.__setattr__(self, "members", frozenset(normalized))

    @classmethod
    def finite(cls, members: Iterable = (), base: str = FINITE_PRIMES) -> "PrimeSet":
        return cls(base, "finite", frozenset(members))

    @classmethod
    def cofinite(cls, excluded: Iterable = (), base: str = FINITE_PRIMES) -> "PrimeSet":
        return cls(base, "cofinite", frozenset(excluded))

    @property
    def is_empty(self) -> bool:
        return self.kind == "finite" and not self.members

    @property
    def is_whole_base(self) -> bool:
        return self.kind == "cofinite" and not self.members

    def is_subset_of(self, other: "PrimeSet") -> bool:
        if self.base != other.base:
            raise ValueError("cannot compare prime sets over different bases")
        if self.kind == "finite":
            if other.kind == "finite":
                return self.members <= other.members
            return not (self.members & other.members)
        # a cofinite set is infinite, so it never fits inside a finite one
        if other.kind == "finite":
            return False
        return other.members <= self.members

    def sort_key(self):
        return (
            0 if self.kind == "finite" else 1,
            self.base,
            tuple(sorted(extended_prime_key(p) for p in self.members)),
        )

    def __repr__(self) -> str:
        names = sorted(self.members, key=extended_prime_key)
        body = "{" + ", ".join("inf" if is_infinite_place(p) else str(int(p)) for p in names) + "}"
        return f"PrimeSet({self.kind} {body})"


@dataclass(frozen=True)
class Neighbourhood:
    """A basic open set: p-adic balls at finitely many primes, integrality
    everywhere else, and (for full adeles) an open rational interval for
    the real coordinate."""

    balls: Dict[Prime, PadicBall]
    real_interval: Optional[Tuple[Fraction, Fraction]] = None

    def __post_init__(self):
        normalized = {}
        for p, ball in dict(self.balls).items():
            p = Prime(p)
            if not isinstance(ball, PadicBall) or ball.prime != p:
                raise ValueError(f"ball at {int(p)} must be a PadicBall at that prime")
            normalized[p] = ball
        object.__setattr__(self, "balls", dict(sorted(normalized.items())))
        if self.real_interval is not None:
            lo, hi = self.real_interval
            lo, hi = _fraction(lo), _fraction(hi)
            if not lo < hi:
                raise ValueError("real interval must be nonempty")
            object.__setattr__(self, "real_interval", (lo, hi))

    def contains(self, a: Adele) -> bool:
        """Exact membership of a finitely described adele.

        This is the r = 1 case of the rule ``_scaled_in`` applies to r * a,
        which ``approx_witness`` also checks its witness by.  At each ball
        prime and each explicit prime, r * a_p must lie in the ball, or in
        Z_p = B(0, 0) where there is none.  Off those places the component
        is r times the default rule's, so the default must absorb rest, the
        part of r's denominator prime to the places: a ZERO default always
        does, RATIONAL(q) when rest divides q's numerator, and TIMES_P(q)
        when rest divides q's numerator times the product of the distinct
        primes the caller names, each of which adds its own factor p.  At
        r = 1 rest is 1, as the FiniteAdele invariant keeps every default
        integral off the explicit primes.  A full adele's r * a_oo must
        lie in the open real interval.
        """
        return _scaled_in(self, 1, a)


def _scaled_in(nbhd: Neighbourhood, r: Rational, a: Adele, primes: Iterable = ()) -> bool:
    """Whether r * a lies in nbhd, by the rule of Neighbourhood.contains,
    decided on integers without building r * a.  Each place's component is
    read once as a pair by ``_pair_at``.  Off the places the default
    absorbs rest, the part of r's denominator prime to them, when rest
    divides the numerator of its value at the product of the distinct
    given primes.  Leaving out a prime of rest can turn a True into a
    False, never the other way."""
    full = _check_kind(a, nbhd)
    explicit, default, balls = a.explicit, a.default, nbhd.balls
    r_num, r_den = r.numerator, r.denominator
    places = balls.keys() | explicit.keys()
    for p in places:
        num, den = _pair_at(explicit, default, p)
        c, radius = (balls[p].center, balls[p].radius_exponent) if p in balls else (0, 0)  # Z_p = B(0, 0)
        # r * a_p unreduced, so all of r's denominator is split only when r * a_p is not the centre
        if not _in_ball(p, num * r_num, den * r_den, c, radius):
            return False
    # off the places the default absorbs the rest of r's denominator; value_at gives 0, q or q * prod(primes)
    rest = _strip(r_den, places)
    if rest != 1 and default.value_at(math.prod(set(primes))).numerator % rest:
        return False
    if full:
        (lo, hi), x = nbhd.real_interval, a.real_part
        x_num, x_den = x.numerator * r_num, x.denominator * r_den
        return lo.numerator * x_den < x_num * lo.denominator and x_num * hi.denominator < hi.numerator * x_den
    return True


def _pair_at(explicit: Dict[Prime, Fraction], default: DefaultSpec, p: Prime) -> Tuple[int, int]:
    """The component at a finite prime p as an integer pair (numerator,
    denominator) in lowest terms: an explicit entry's own, else the default
    rule's (0, 1), (q.n, q.d) or, under TIMES_P, (q.n * p, q.d), which is in
    lowest terms as p does not divide q.d off the explicit primes (the
    FiniteAdele invariant).  So p divides at most one term of the pair."""
    v = explicit.get(p)
    if v is not None:
        return v.numerator, v.denominator
    if default.kind == ZERO:
        return 0, 1
    q = default.q
    return (q.numerator if default.kind == RATIONAL else q.numerator * p), q.denominator


def _check_kind(a: Adele, nbhd: Neighbourhood) -> bool:
    """Whether a is a full adele, after checking that the neighbourhood
    has a real interval exactly when it is."""
    full = isinstance(a, FullAdele)
    if full and nbhd.real_interval is None:
        raise ValueError("full-adele neighbourhoods need a real interval")
    if not full and nbhd.real_interval is not None:
        raise ValueError("finite-adele neighbourhoods admit no real interval")
    return full


def embed_rational(q: Rational, kind: str = "finite") -> Adele:
    """Diagonally embed a rational: the component is q at every place.

    For q != 0 the finite part is q times the finite adele 1, so ``scale``
    builds it: the primes of q's denominator migrate into the explicit
    map, and the default rule gives q at every other place.  Only that
    denominator is factored.  For q = 0 it is the zero adele."""
    q = _fraction(q)
    if kind not in ("finite", "full"):  # before anything is factored
        raise ValueError(f"kind must be 'finite' or 'full', got {kind!r}")
    fin = scale(q, FiniteAdele({}, DefaultSpec.rational(1))) if q else FiniteAdele({}, DefaultSpec.zero())
    return fin if kind == "finite" else FullAdele(fin, q)


def scale(r: Rational, a: Adele) -> Adele:
    """Multiply an adele by a nonzero rational, componentwise at every place.

    Primes of the new default rational's denominator that are not yet
    explicit migrate into the explicit map, so the default-rule invariant
    survives.  Only that cofactor is ever factored, never the numerator
    of r; this is the one place the library factors, and
    ``embed_rational`` goes through it.  A cofactor that cannot be
    factored within ``prime_factors``' bounds raises WorkBoundExceeded.
    The result is built by the public constructors, which check it like
    any other adele.
    """
    r = _fraction(r)
    if r == 0:
        raise ValueError("scaling factor must be nonzero")
    explicit = {p: v * r for p, v in a.explicit.items()}
    default = a.default
    if default.kind != ZERO:
        default = DefaultSpec(default.kind, default.q * r)
        cofactor = _strip(default.q.denominator, explicit)
        if cofactor > 1:
            for p in prime_factors(cofactor):
                explicit[p] = a.default.value_at(p) * r
    fin = FiniteAdele(explicit, default)
    if isinstance(a, FullAdele):
        return FullAdele(fin, a.real_part * r)
    return fin


def zero_set(a: Adele) -> PrimeSet:
    """The exact set of places where the component vanishes.

    The description is finite when the default rule is nonzero and
    cofinite when the default is ZERO; for a full adele the set lives in
    the extended primes and contains INFINITY exactly when the real part
    is zero.
    """
    full = isinstance(a, FullAdele)
    base = EXTENDED_PRIMES if full else FINITE_PRIMES
    if a.default.kind == ZERO:
        excluded = {p for p, v in a.explicit.items() if v != 0}
        if full and a.real_part != 0:
            excluded.add(INFINITY)
        return PrimeSet.cofinite(excluded, base)
    members = {p for p, v in a.explicit.items() if v == 0}
    if full and a.real_part == 0:
        members.add(INFINITY)
    return PrimeSet.finite(members, base)


def is_invertible(a: FullAdele) -> bool:
    """True when no component vanishes and only finitely many primes divide a.

    A TIMES_P default has valuation one at infinitely many primes, which
    already rules out invertibility even though nothing vanishes.
    """
    if not isinstance(a, FullAdele):
        raise ValueError("invertibility is a full-adele notion")
    if a.real_part == 0 or a.default.kind != RATIONAL:
        return False
    return all(a.explicit.values())  # a Fraction is false exactly when it is 0


def absolute_value(a: FullAdele) -> Fraction:
    """The product of the normalized absolute values over all places.

    Vanishes exactly on the noninvertible adeles.  For an invertible adele
    a = r * u (see factor_idele) the product formula gives |r| = 1 and
    every u_p is a unit, so the product is the real coordinate a_oo / r
    of u; no factoring is needed.
    """
    if not is_invertible(a):
        return Fraction(0)
    return a.real_part / _idele_rational(a)


def xi_partial(a: FullAdele, primes: Iterable) -> Fraction:
    """The partial product |a_oo| * prod_{p in F} p^-v_p(a) over a finite F.

    These partial products form the nonincreasing tail net converging to
    the absolute value.  Raises ZeroComponent when the real part or a
    component at F vanishes.
    """
    if not isinstance(a, FullAdele):
        raise ValueError("xi_partial is a full-adele operation")
    if a.real_part == 0:
        raise ZeroComponent("real part vanishes")
    result = abs(a.real_part)
    for p in sorted({Prime(p) for p in primes}):
        v = a.component(p)
        if v == 0:
            raise ZeroComponent(f"component at p={int(p)} vanishes")
        result *= Fraction(p) ** -valuation(v, p)
    return result


def _idele_rational(a: FullAdele) -> Fraction:
    """The rational r of factor_idele's split a = r * u, a invertible."""
    num, den = (1 if a.real_part.numerator > 0 else -1) * _strip(a.default.q.numerator, a.explicit), 1
    for p, v in a.explicit.items():  # in lowest terms p divides v's numerator or denominator, not both
        num, den = num * p ** _split(v.numerator, p)[0], den * p ** _split(v.denominator, p)[0]
    return Fraction(num, den)


def factor_idele(a: FullAdele) -> Tuple[Fraction, UnitIdele]:
    """Split an invertible adele as r * u with r rational and u a unit idele.

    r is sign * q' * prod p^v_p(a_p) over the explicit primes: the sign of
    the real part, the numerator q' of the default rational with the
    explicit primes divided out, and the explicit prime powers.  The
    factorization is unique.  u divides each explicit entry and q by r;
    no prime migrates into the explicit map, as off the explicit primes r
    is q', which divides q's numerator, so nothing is factored.
    """
    if not isinstance(a, FullAdele):
        raise ValueError("idele factorization needs a full adele")
    if not is_invertible(a):
        raise NotInvertible("only invertible full adeles factor through the units")
    r = _idele_rational(a)
    unit = FiniteAdele({p: v / r for p, v in a.explicit.items()}, DefaultSpec.rational(a.default.q / r))
    return r, UnitIdele(unit, a.real_part / r)
