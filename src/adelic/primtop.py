"""The topology of the quasi-orbit parameter spaces.

Four spaces share one closure engine:

* ``pc``       -- a power set of (extended) primes with the power-cofinite
                  topology, whose basic opens are U_G = {T : T does not
                  meet G} for finite G;
* ``tau``      -- prime sets together with the unit ideles, carrying the
                  quotient topology of the full-adele action;
* ``primcq``   -- proper prime sets together with characters of the
                  positive rationals (the finite-adele parametrization);
* ``primfull`` -- characters of the nonzero rationals, proper extended
                  prime sets, and unit ideles (the full-adele
                  parametrization).

The spaces differ only in the points they admit (the base of their prime
sets, unit points, the character group, whether the full prime set is
excluded); ``_close`` validates and closes a description for any of them.

Subsets are finite symbolic descriptions (``SetDescriptor``), closures are
again finite descriptions (``ClosedSetDescriptor``), and the closure
operators are total functions on descriptors, so the Kuratowski axioms
can be checked by exact descriptor equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from .adele import EXTENDED_PRIMES, FINITE_PRIMES, PrimeSet, UnitIdele
from .errors import ImproperPoint, MalformedDescriptor, NegativeForQPlus
from .padic import Prime, Rational, _fraction, valuation
from .quasiorbit import PRIME_SET, ParameterPoint

# character groups
Q_PLUS = "q_plus"
Q_FULL = "q_full"


@dataclass(frozen=True)
class Character:
    """A finitely supported character of the (positive) rationals.

    The positive rationals are free abelian on the primes, so a character
    is pinned by a finite map of prime angles; the full rational group
    adds a sign angle in {0, 1/2} for the value at -1.  Angles are exact
    rationals in [0, 1), denoting points of the unit circle.  Any map of
    prime angles is accepted and normalized to sorted (prime, angle) pairs
    with the zero angles dropped.
    """

    group: str
    prime_angles: Tuple[Tuple[Prime, Fraction], ...] = None
    sign_angle: Rational = 0

    def __post_init__(self):
        if self.group not in (Q_PLUS, Q_FULL):
            raise ValueError(f"unknown character group {self.group!r}")
        sign = _fraction(self.sign_angle) % 1
        if self.group == Q_PLUS:
            if sign != 0:
                raise ValueError("characters of the positive rationals have no sign angle")
        elif sign.denominator > 2:  # in [0, 1), so only 0 and 1/2 pass
            raise ValueError("the sign angle must be 0 or 1/2")
        angles = {}
        for p, angle in dict(self.prime_angles or {}).items():
            angle = _fraction(angle) % 1
            if angle != 0:
                angles[Prime(p)] = angle
        object.__setattr__(self, "sign_angle", sign)
        object.__setattr__(self, "prime_angles", tuple(sorted(angles.items())))

    def sort_key(self):
        return (
            self.group,
            self.sign_angle,
            tuple((int(p), a.numerator, a.denominator) for p, a in self.prime_angles),
        )

    def __repr__(self) -> str:
        angles = ", ".join(f"{int(p)}: {a}" for p, a in self.prime_angles)
        sign = f", sign={self.sign_angle}" if self.group == Q_FULL else ""
        return f"Character({self.group}, {{{angles}}}{sign})"


def character_eval(c: Character, r: Rational) -> Fraction:
    """Evaluate a character at a nonzero rational, as an angle in [0, 1)."""
    r = _fraction(r)
    if r == 0:
        raise ValueError("characters are evaluated at nonzero rationals")
    if r < 0 and c.group == Q_PLUS:
        raise NegativeForQPlus("this character lives on the positive rationals")
    angle = c.sign_angle if r < 0 else Fraction(0)
    for p, a in c.prime_angles:
        angle += valuation(r, p) * a
    return angle % 1


# ---------------------------------------------------------------------------
# descriptor atoms


@dataclass(frozen=True)
class PrimeSetPoint:
    """A single point of a power-set space."""

    point: PrimeSet


@dataclass(frozen=True)
class SingletonFamily:
    """The infinite family {{p} : p not excluded}; always power-cofinite dense."""

    excluded: frozenset
    base: str = EXTENDED_PRIMES

    def __post_init__(self):
        object.__setattr__(self, "excluded", PrimeSet.finite(self.excluded, self.base).members)


@dataclass(frozen=True)
class UnitPoint:
    """A single unit idele."""

    unit: UnitIdele


@dataclass(frozen=True)
class UnitFamily:
    """An infinite family of unit ideles known only through a finite prefix.

    Whether the real coordinates accumulate at zero is an asserted
    attribute (it is not decidable from finite data); when asserted, the
    prefix must witness it by strictly decreasing real coordinates.  For
    closure purposes an unflagged family stands for its prefix.
    """

    prefix: Tuple[UnitIdele, ...]
    inf_abs_zero: bool = False

    def __post_init__(self):
        prefix = tuple(self.prefix)
        if not all(isinstance(u, UnitIdele) for u in prefix):
            raise ValueError("the prefix must consist of unit ideles")
        if self.inf_abs_zero:
            reals = [u.real_part for u in prefix]
            if len(reals) < 2 or any(x <= y for x, y in zip(reals, reals[1:])):
                raise ValueError(
                    "an accumulation-at-zero assertion needs a strictly "
                    "decreasing prefix of real coordinates"
                )
        object.__setattr__(self, "prefix", prefix)


@dataclass(frozen=True)
class CharacterPoint:
    """A single character."""

    character: Character


@dataclass(frozen=True)
class AllCharacters:
    """The whole character group of the space."""


ALL_CHARACTERS = AllCharacters()

Atom = Union[PrimeSetPoint, SingletonFamily, UnitPoint, UnitFamily, CharacterPoint, AllCharacters]


@dataclass(frozen=True)
class SetDescriptor:
    """A finite union of atoms describing a subset of a parameter space."""

    atoms: Tuple[Atom, ...]

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))

    @classmethod
    def of(cls, *atoms: Atom) -> "SetDescriptor":
        return cls(atoms)

    def union(self, other: "SetDescriptor") -> "SetDescriptor":
        return SetDescriptor(self.atoms + other.atoms)


@dataclass(frozen=True)
class ClosedSetDescriptor:
    """A canonical finite description of a closed subset.

    Either the whole space, or a union of up-sets of prime sets (each
    denoting its supersets inside the space), finitely many unit points,
    finitely many characters, and optionally the whole character group.
    Canonical form makes equality of closed sets decidable.
    """

    whole_space: bool = False
    up_sets: Tuple[PrimeSet, ...] = ()
    unit_points: Tuple[UnitIdele, ...] = ()
    character_points: Tuple[Character, ...] = ()
    all_characters: bool = False

    def __post_init__(self):
        if self.whole_space:
            object.__setattr__(self, "up_sets", ())
            object.__setattr__(self, "unit_points", ())
            object.__setattr__(self, "character_points", ())
            object.__setattr__(self, "all_characters", False)
            return
        # absorb redundant up-sets: supersets of a kept base add nothing;
        # kept stays in sort_key order, as removals keep it and appends come last
        kept: List[PrimeSet] = []
        for s in sorted(set(self.up_sets), key=lambda t: t.sort_key()):
            if not any(o.base == s.base and o.is_subset_of(s) for o in kept):
                kept = [t for t in kept if not (t.base == s.base and s.is_subset_of(t))]
                kept.append(s)
        object.__setattr__(self, "up_sets", tuple(kept))
        # of equal units the first given is kept
        units = sorted(dict.fromkeys(self.unit_points), key=UnitIdele.sort_key)
        object.__setattr__(self, "unit_points", tuple(units))
        chars = () if self.all_characters else tuple(
            sorted(set(self.character_points), key=Character.sort_key)
        )
        object.__setattr__(self, "character_points", chars)

    @property
    def is_empty(self) -> bool:
        return not (
            self.whole_space
            or self.up_sets
            or self.unit_points
            or self.character_points
            or self.all_characters
        )

    def union(self, other: "ClosedSetDescriptor") -> "ClosedSetDescriptor":
        if self.whole_space or other.whole_space:
            return ClosedSetDescriptor(whole_space=True)
        return ClosedSetDescriptor(
            up_sets=self.up_sets + other.up_sets,
            unit_points=self.unit_points + other.unit_points,
            character_points=self.character_points + other.character_points,
            all_characters=self.all_characters or other.all_characters,
        )

    def __repr__(self) -> str:
        if self.whole_space:
            return "ClosedSetDescriptor(WHOLE_SPACE)"
        parts = []
        if self.up_sets:
            parts.append(f"up_sets={list(self.up_sets)}")
        if self.unit_points:
            parts.append(f"units={len(self.unit_points)}")
        if self.all_characters:
            parts.append("all_characters")
        elif self.character_points:
            parts.append(f"characters={len(self.character_points)}")
        return f"ClosedSetDescriptor({', '.join(parts) or 'empty'})"


WHOLE_SPACE = ClosedSetDescriptor(whole_space=True)


# ---------------------------------------------------------------------------
# the closure engine


_DescriptorInput = Union[SetDescriptor, ClosedSetDescriptor, Sequence]


@dataclass(frozen=True)
class _Space:
    """Which points a parameter space admits; everything else about a
    closure is shared."""

    name: str
    base: Optional[str]  # the base of its prime sets; None admits either base
    units: bool  # unit ideles are points
    group: Optional[str]  # Q_PLUS or Q_FULL; None: no characters


# One rule set serves all four spaces:
#
# * a prime set closes to its up-set of supersets, because every basic open
#   U_G of a superset also holds the set itself;
# * a singleton family is dense, since cofinitely many singletons dodge any
#   finite G, so it closes like the empty prime set, whose up-set is every
#   prime set.  A dense prime-set part therefore closes to the whole space;
#   in the bare power-cofinite space the up-set of the empty set already is
#   the whole space and stays in that form;
# * finite unit sets are bounded away from zero and are closed as they
#   stand, an unflagged unit family stands for its prefix, and a family
#   whose real coordinates accumulate at zero closes to everything;
# * every neighbourhood of a character contains all the proper prime sets,
#   so a nonempty prime-set part drags the whole character group into its
#   closure, while finite character sets are closed.
_PC = _Space("the power-cofinite space", None, units=False, group=None)
_TAU = _Space("the tau space", EXTENDED_PRIMES, units=True, group=None)
_PRIMCQ = _Space("the finite-adele Prim space", FINITE_PRIMES, units=False, group=Q_PLUS)
_PRIMFULL = _Space("the full-adele Prim space", EXTENDED_PRIMES, units=True, group=Q_FULL)

_GROUP_NAMES = {Q_PLUS: "positive rationals", Q_FULL: "full rational group"}


def _parts(data: _DescriptorInput):
    """Split input into prime sets (each standing for its up-set), unit
    points, unit families, characters and the all-characters flag.  The
    unit points end with the prefixes of the unit families, in order, so an
    unflagged family stands for its prefix wherever the parts are read."""
    if isinstance(data, ClosedSetDescriptor):
        return (
            list(data.up_sets),
            list(data.unit_points),
            [],
            list(data.character_points),
            data.all_characters,
        )
    atoms = data.atoms if isinstance(data, SetDescriptor) else [
        PrimeSetPoint(item) if isinstance(item, PrimeSet) else item for item in data
    ]
    up: List[PrimeSet] = []
    units: List[UnitIdele] = []
    unit_families: List[UnitFamily] = []
    characters: List[Character] = []
    all_chars = False
    for atom in atoms:
        if isinstance(atom, PrimeSetPoint):
            up.append(atom.point)
        elif isinstance(atom, SingletonFamily):
            up.append(PrimeSet.finite((), base=atom.base))
        elif isinstance(atom, UnitPoint):
            units.append(atom.unit)
        elif isinstance(atom, UnitFamily):
            unit_families.append(atom)
        elif isinstance(atom, CharacterPoint):
            characters.append(atom.character)
        elif isinstance(atom, AllCharacters):
            all_chars = True
        else:
            raise MalformedDescriptor(f"not a descriptor atom: {atom!r}")
    for f in unit_families:
        units += f.prefix
    return up, units, unit_families, characters, all_chars


def _close(space: _Space, data: _DescriptorInput) -> ClosedSetDescriptor:
    """The closure of a description in a space.

    Atoms and closed descriptions are validated alike, in a fixed order:
    atom kinds, then per prime set its base and properness, then the
    character group.
    """
    if isinstance(data, ClosedSetDescriptor) and data.whole_space:
        return WHOLE_SPACE
    up, units, unit_families, characters, all_chars = _parts(data)
    if (units or unit_families) and not space.units:
        raise MalformedDescriptor(f"{space.name} has no unit points")
    if (characters or all_chars) and space.group is None:
        raise MalformedDescriptor(f"{space.name} has no characters")
    for s in up:
        if space.base is not None and s.base != space.base:
            raise MalformedDescriptor(
                f"prime sets of {space.name} live over the {space.base.replace('_', ' ')}, "
                f"got {s.base.replace('_', ' ')}"
            )
        if space.group and s.is_whole_base:  # characters stand in for the full prime set
            raise ImproperPoint(f"the full prime set is not a point of {space.name}")
    for c in characters:
        if c.group != space.group:
            raise MalformedDescriptor(f"characters here live on the {_GROUP_NAMES[space.group]}")
    if space.units or space.group:  # else the up-set of the empty set is the whole space
        if any(s.is_empty for s in up) or any(f.inf_abs_zero for f in unit_families):
            return WHOLE_SPACE
    return ClosedSetDescriptor(
        up_sets=tuple(up),
        unit_points=tuple(units),
        character_points=tuple(characters),
        all_characters=all_chars or bool(up and space.group),
    )


def pc_closure(data: _DescriptorInput) -> ClosedSetDescriptor:
    """Closure in the bare power-cofinite space."""
    return _close(_PC, data)


def tau_closure(data: _DescriptorInput) -> ClosedSetDescriptor:
    """Closure in the quotient topology on prime sets joined with units."""
    return _close(_TAU, data)


def primcq_closure(data: _DescriptorInput) -> ClosedSetDescriptor:
    """Closure in the finite-adele parametrization: proper prime sets
    joined with characters of the positive rationals."""
    return _close(_PRIMCQ, data)


def prim_full_closure(data: _DescriptorInput) -> ClosedSetDescriptor:
    """Closure in the full-adele parametrization: characters of the
    rationals, proper extended prime sets, and unit ideles."""
    return _close(_PRIMFULL, data)


def closed_contains_atom(closed: ClosedSetDescriptor, atom: Atom) -> bool:
    """Whether the set an atom denotes sits inside a closed description."""
    if closed.whole_space:
        return True
    up, units, unit_families, characters, all_chars = _parts(SetDescriptor.of(atom))
    if any(f.inf_abs_zero for f in unit_families):
        return False  # only the whole space swallows an accumulating family
    # the power-cofinite space admits both bases; up-sets hold prime sets
    # of their own base only
    return (
        all(any(t.base == s.base and t.is_subset_of(s) for t in closed.up_sets) for s in up)
        and all(u in closed.unit_points for u in units)
        and (closed.all_characters or not all_chars and all(c in closed.character_points for c in characters))
    )


def point_specializes(x, y) -> bool:
    """Whether y lies in the tau-closure of the single point x.

    Both arguments are quasi-orbit parameter points.  The empty prime set
    is dense, so it specializes to everything; a nonempty prime set
    specializes exactly to its supersets; a unit class only to itself.
    """
    return closed_contains_atom(tau_closure([_parameter_atom(x)]), _parameter_atom(y))


def _parameter_atom(point) -> Atom:
    if not isinstance(point, ParameterPoint):
        raise ValueError("expected a quasi-orbit parameter point")
    if point.kind == PRIME_SET:
        return PrimeSetPoint(point.prime_set)
    return UnitPoint(point.unit)


def prim_equal(
    left: Tuple[PrimeSet, Character], right: Tuple[PrimeSet, Character]
) -> bool:
    """The identification of (prime set, character) pairs in the
    finite-adele primitive space.

    Pairs agree when the prime sets agree, except over the full prime set
    where the characters must also match.
    """
    (s, gamma), (t, chi_) = left, right
    for c in (gamma, chi_):
        if c.group != Q_PLUS:
            raise MalformedDescriptor("characters here live on the positive rationals")
    for ps in (s, t):
        if ps.base != FINITE_PRIMES:
            raise MalformedDescriptor("prime sets here live over the finite primes")
    if s != t:
        return False
    if s.is_whole_base:
        return gamma == chi_
    return True
