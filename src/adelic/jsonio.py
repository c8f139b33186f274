"""JSON schemas for every value the CLI reads or writes.

Rationals travel as strings in canonical reduced form ("n/d" with positive
denominator, or just "n"), so output is bit-exact and reproducible.
Parsers are strict: unknown keys, floats and non-canonical syntax are
rejected with ValueError, which the CLI reports as malformed input.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import Any, Dict, List

from .adele import (
    EXTENDED_PRIMES,
    FINITE_PRIMES,
    RATIONAL,
    TIMES_P,
    ZERO,
    Adele,
    DefaultSpec,
    FiniteAdele,
    FullAdele,
    Neighbourhood,
    PrimeSet,
    UnitIdele,
)
from .padic import (
    INFINITY,
    PadicBall,
    Prime,
    extended_prime_key,
    is_infinite_place,
)
from .primtop import (
    ALL_CHARACTERS,
    Character,
    CharacterPoint,
    ClosedSetDescriptor,
    PrimeSetPoint,
    SetDescriptor,
    SingletonFamily,
    UnitFamily,
    UnitPoint,
)
from .quasiorbit import PRIME_SET, ParameterPoint

# Whole-string ASCII matches (\d and "$" admit other scripts' digits and a
# trailing newline); a prime has one spelling, so no two JSON keys collide
_RATIONAL_RE = re.compile(r"([+-]?)([0-9]+)(?:/([1-9][0-9]*))?")
_PRIME_RE = re.compile(r"[1-9][0-9]*")


def parse_rational(text: Any) -> Fraction:
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if isinstance(text, str) and (m := _RATIONAL_RE.fullmatch(text)):
        sign, digits, den = m.groups()
        n, d = int(sign + digits), int(den or 1)  # past the digit limit, int's own error
        # reduced, no "/1", no "+", no leading 0, no sign on 0
        if sign != "+" and (digits[0] != "0" or digits == "0" and not sign) and den != "1" and gcd(n, d) == 1:
            return Fraction(n, d)
    raise ValueError(f"not a canonical rational: {text!r}")


def dump_rational(q: Fraction) -> str:
    return str(q)


def parse_prime(text: Any) -> Prime:
    if isinstance(text, str) and _PRIME_RE.fullmatch(text):
        text = int(text)
    if not isinstance(text, int) or isinstance(text, bool):
        raise ValueError(f"not a prime literal: {text!r}")
    return Prime(text)


def parse_place(text: Any):
    if text == "inf":
        return INFINITY
    return parse_prime(text)


def dump_place(p) -> str:
    return "inf" if is_infinite_place(p) else str(int(p))


def _require_keys(doc: Dict, required, optional=()):
    if not isinstance(doc, dict):
        raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
    unknown = [k for k in doc if k not in required and k not in optional]
    if unknown:
        raise ValueError(f"unknown keys {sorted(unknown)}")
    missing = [k for k in required if k not in doc]
    if missing:
        raise ValueError(f"missing keys {sorted(missing)}")


def _require(value: Any, type_: type, what: str):
    if not isinstance(value, type_):
        raise ValueError(f"{what} must be a JSON {'object' if type_ is dict else 'list'}, got {type(value).__name__}")
    return value


def _read_kind(doc: Dict, kinds: Dict, what: str):
    """The object a "kind"-tagged JSON object describes.  Its kind picks a
    row of kinds, (required keys besides "kind", optional keys, builder),
    which fixes its keys and builds it.  Builders name the public parsers
    at call time, so a binding replaced on this module (as the benchmark's
    tracer does) is the one called."""
    kind = doc["kind"]
    row = kinds.get(kind) if isinstance(kind, str) else None  # an unhashable kind is unknown too
    if row is None:
        raise ValueError(f"unknown {what} kind {kind!r}")
    required, optional, build = row
    _require_keys(doc, ["kind", *required], optional)
    return build(doc)


# -- adeles -----------------------------------------------------------------


def parse_default(doc: Dict) -> DefaultSpec:
    _require_keys(doc, ["kind"], ["q"])
    if doc["kind"] in (RATIONAL, TIMES_P):
        _require_keys(doc, ["kind", "q"])
    return DefaultSpec(doc["kind"], parse_rational(doc["q"]) if "q" in doc else None)


def dump_default(d: DefaultSpec) -> Dict:
    if d.kind == ZERO:
        return {"kind": ZERO}
    return {"kind": d.kind, "q": dump_rational(d.q)}


def parse_adele(doc: Dict) -> Adele:
    _require_keys(doc, ["explicit", "default"], ["real"])
    explicit = _require(doc["explicit"], dict, "explicit")
    explicit = {parse_prime(k): parse_rational(v) for k, v in explicit.items()}
    fin = FiniteAdele(explicit, parse_default(doc["default"]))
    if "real" in doc:
        return FullAdele(fin, parse_rational(doc["real"]))
    return fin


def dump_adele(a: Adele) -> Dict:
    doc = {
        "explicit": {str(int(p)): dump_rational(v) for p, v in a.explicit.items()},
        "default": dump_default(a.default),
    }
    if isinstance(a, FullAdele):
        doc["real"] = dump_rational(a.real_part)
    return doc


def parse_unit_idele(doc: Dict) -> UnitIdele:
    a = parse_adele(doc)
    if not isinstance(a, FullAdele):
        raise ValueError("a unit idele needs a real part")
    return UnitIdele(a.finite_part, a.real_part)


# -- prime sets and neighbourhoods ------------------------------------------


def _parse_base(name: Any) -> str:
    if name not in ("finite", "extended"):
        raise ValueError(f"unknown base {name!r}")
    return FINITE_PRIMES if name == "finite" else EXTENDED_PRIMES


def parse_prime_set(doc: Dict) -> PrimeSet:
    _require_keys(doc, ["base", "kind", "members"])
    base = _parse_base(doc["base"])
    members = frozenset(parse_place(m) for m in _require(doc["members"], list, "members"))
    return PrimeSet(base, doc["kind"], members)


def dump_prime_set(s: PrimeSet) -> Dict:
    return {
        "base": "finite" if s.base == FINITE_PRIMES else "extended",
        "kind": s.kind,
        "members": [dump_place(p) for p in sorted(s.members, key=extended_prime_key)],
    }


def parse_neighbourhood(doc: Dict) -> Neighbourhood:
    _require_keys(doc, ["balls"], ["real_interval"])
    balls = {}
    for key, ball_doc in _require(doc["balls"], dict, "balls").items():
        p = parse_prime(key)
        _require_keys(ball_doc, ["center", "radius_exponent"])
        balls[p] = PadicBall(p, parse_rational(ball_doc["center"]), ball_doc["radius_exponent"])
    interval = None
    if "real_interval" in doc:
        raw = doc["real_interval"]
        if not isinstance(raw, list) or len(raw) != 2:
            raise ValueError("real_interval must be a two-element list")
        interval = (parse_rational(raw[0]), parse_rational(raw[1]))
    return Neighbourhood(balls, interval)


def dump_neighbourhood(v: Neighbourhood) -> Dict:
    doc = {
        "balls": {
            str(int(p)): {
                "center": dump_rational(b.center),
                "radius_exponent": b.radius_exponent,
            }
            for p, b in v.balls.items()
        }
    }
    if v.real_interval is not None:
        doc["real_interval"] = [dump_rational(x) for x in v.real_interval]
    return doc


# -- parameter points and characters -----------------------------------------


def parse_parameter_point(doc: Dict) -> ParameterPoint:
    _require_keys(doc, ["kind"], ["set", "unit"])
    return _read_kind(doc, _POINT_KINDS, "parameter point")


_POINT_KINDS = {
    "prime_set": (["set"], [], lambda doc: ParameterPoint.of_prime_set(parse_prime_set(doc["set"]))),
    "unit_class": (["unit"], [], lambda doc: ParameterPoint.of_unit(parse_unit_idele(doc["unit"]))),
}


def dump_parameter_point(pt: ParameterPoint) -> Dict:
    if pt.kind == PRIME_SET:
        return {"kind": "prime_set", "set": dump_prime_set(pt.prime_set)}
    return {"kind": "unit_class", "unit": dump_adele(pt.unit)}


def parse_character(doc: Dict) -> Character:
    _require_keys(doc, ["group"], ["sign_angle", "prime_angles"])
    angles = _require(doc.get("prime_angles", {}), dict, "prime_angles")
    angles = {parse_prime(k): parse_rational(v) for k, v in angles.items()}
    sign = parse_rational(doc.get("sign_angle", "0"))
    return Character(doc["group"], angles, sign)


def dump_character(c: Character) -> Dict:
    doc = {
        "group": c.group,
        "prime_angles": {str(int(p)): dump_rational(a) for p, a in c.prime_angles},
    }
    if c.group == "q_full":
        doc["sign_angle"] = dump_rational(c.sign_angle)
    return doc


# -- descriptors --------------------------------------------------------------


def parse_descriptor(doc: Dict) -> SetDescriptor:
    _require_keys(doc, ["atoms"])
    atoms = []
    for atom_doc in _require(doc["atoms"], list, "atoms"):
        if not isinstance(atom_doc, dict) or "kind" not in atom_doc:
            raise ValueError("each atom needs a kind")
        atoms.append(_read_kind(atom_doc, _ATOM_KINDS, "atom"))
    return SetDescriptor(tuple(atoms))


def _unit_family(doc: Dict) -> UnitFamily:
    prefix = tuple(parse_unit_idele(u) for u in _require(doc["prefix"], list, "prefix"))
    if not isinstance(doc["inf_abs_zero"], bool):
        raise ValueError("inf_abs_zero must be a boolean")
    return UnitFamily(prefix, doc["inf_abs_zero"])


_ATOM_KINDS = {
    "prime_set_point": (["set"], [], lambda doc: PrimeSetPoint(parse_prime_set(doc["set"]))),
    "singleton_family": (["excluded"], ["base"], lambda doc: SingletonFamily(
        base=_parse_base(doc.get("base", "extended")),  # keywords are read in order: the base first
        excluded=frozenset(parse_place(p) for p in _require(doc["excluded"], list, "excluded")))),
    "unit_point": (["unit"], [], lambda doc: UnitPoint(parse_unit_idele(doc["unit"]))),
    "unit_family": (["prefix", "inf_abs_zero"], [], _unit_family),
    "character_point": (["character"], [], lambda doc: CharacterPoint(parse_character(doc["character"]))),
    "all_characters": ([], [], lambda doc: ALL_CHARACTERS),
}


def dump_closed_descriptor(c: ClosedSetDescriptor) -> Dict:
    if c.whole_space:
        return {"whole_space": True}
    return {
        "whole_space": False,
        "up_sets": [dump_prime_set(s) for s in c.up_sets],
        "unit_points": [dump_adele(u) for u in c.unit_points],
        "character_points": [dump_character(ch) for ch in c.character_points],
        "all_characters": c.all_characters,
    }


def parse_prime_set_list(doc: Any) -> List[PrimeSet]:
    if not isinstance(doc, list):
        raise ValueError("expected a JSON list of prime sets")
    return [parse_prime_set(item) for item in doc]
