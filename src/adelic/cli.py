"""Command-line front end.

Every library operation is exposed as a subcommand taking JSON documents
through flags and printing a single JSON document on stdout.  Exit status
0 means success, 2 a domain error (infeasible witness, noninvertible
adele, ...) and 1 malformed input; errors carry a payload
``{"error": {"code": ..., "detail": ...}}``.  Output is canonical: sorted
keys, reduced rationals, byte-identical for identical argv.  The
subcommands are defined in one table, ``COMMANDS``.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Any, Dict, Optional

from . import jsonio
from .adele import FullAdele, absolute_value, factor_idele, zero_set
from .errors import AdelicError
from .oracle import SearchBudget, window_closure, witness_by_search
from .padic import INFINITE_VALUATION, expand, valuation
from .primtop import (
    character_eval,
    pc_closure,
    point_specializes,
    prim_full_closure,
    prim_equal,
    primcq_closure,
    tau_closure,
)
from .quasiorbit import (
    approx_witness,
    chi,
    exact_orbit_witness,
    is_zero_divisor,
    isotropy,
    orbit_closure_contains,
    same_quasi_orbit,
)


def _dump(doc: Dict, pretty: bool) -> None:
    if pretty:
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))


def _valuation_doc(v) -> Any:
    return "inf" if v == INFINITE_VALUATION else int(v)


# JSON is parsed inside the handlers, never through argparse ``type=``:
# argparse would report a bad document as a usage error with no JSON on
# stdout.  Handlers name library functions at call time, so a binding
# replaced on a module (as the benchmark's tracer does) is the one called.


def _load(parse, text: str):
    return parse(json.loads(text))


def _adele(text: str, full: Optional[bool] = None, message: str = ""):
    """Parse a JSON adele; ``full`` demands a full (True) or finite (False) one."""
    a = _load(jsonio.parse_adele, text)
    if full is not None and isinstance(a, FullAdele) != full:
        raise ValueError(message)
    return a


def _r_doc(r: Optional[Fraction], division: bool) -> Dict:
    """The scaling r, reported as 1/r for the division action."""
    if r is None:
        return {"r": None}
    return {"r": jsonio.dump_rational(1 / r if division else r)}


def _descriptor(a):
    return _load(jsonio.parse_descriptor, a.descriptor)


def _closure_doc(closed) -> Dict:
    return {"closure": jsonio.dump_closed_descriptor(closed)}


def _expand(a) -> Dict:
    t = expand(jsonio.parse_rational(a.q), a.p, a.k)
    return {
        "prime": str(int(t.prime)),
        "valuation": _valuation_doc(t.valuation),
        "unit_residue": t.unit_residue,
        "precision": t.precision,
    }


def _abs(a) -> Dict:
    full = _adele(a.adele, True, "the absolute value needs a full adele (a 'real' field)")
    return {"abs": jsonio.dump_rational(absolute_value(full))}


def _factor(a) -> Dict:
    r, u = factor_idele(_adele(a.adele, True, "idele factorization needs a full adele"))
    return {"r": jsonio.dump_rational(r), "unit": jsonio.dump_adele(u)}


def _witness(a) -> Dict:
    # approx_witness raises unless r verifies
    r = approx_witness(_adele(a.adele), _load(jsonio.parse_neighbourhood, a.nbhd))
    return {**_r_doc(r, a.division), "verified": True}


def _zero_divisor(a) -> Dict:
    finite = _adele(a.adele, False, "zero divisors live among the finite adeles")
    return {"zero_divisor": is_zero_divisor(finite)}


def _specializes(a) -> Dict:
    x, y = _load(jsonio.parse_parameter_point, a.x), _load(jsonio.parse_parameter_point, a.y)
    return {"specializes": point_specializes(x, y)}


def _prim_equal(a) -> Dict:
    def pair(doc):
        jsonio._require_keys(doc, ["set", "character"])
        return jsonio.parse_prime_set(doc["set"]), jsonio.parse_character(doc["character"])

    return {"equal": prim_equal(pair(json.loads(a.left)), pair(json.loads(a.right)))}


def _char_eval(a) -> Dict:
    c = _load(jsonio.parse_character, a.character)
    return {"angle": jsonio.dump_rational(character_eval(c, jsonio.parse_rational(a.r)))}


def _oracle_witness(a) -> Dict:
    adele, nbhd = _adele(a.adele), _load(jsonio.parse_neighbourhood, a.nbhd)
    window = frozenset(int(p) for p in a.prime_window.split(",") if p)
    r = witness_by_search(adele, nbhd, SearchBudget(a.height_bound, window, a.precision))
    return _r_doc(r, a.division)


def _oracle_window(a) -> Dict:
    points = _load(jsonio.parse_prime_set_list, a.points)
    window = [jsonio.parse_place(p) for p in a.window.split(",") if p]
    return {"closure": [jsonio.dump_prime_set(s) for s in window_closure(points, window)]}


_INT = {"required": True, "type": int}
_DIVISION = ("--division", {"action": "store_true", "help": "report 1/r for the division action"})

#: subcommand -> (help, flags, handler returning the response document).  A
#: bare flag is a required string; any other comes with its argparse options.
COMMANDS = {
    "valuation": ("p-adic valuation of a rational", ["--q", ("--p", _INT)],
                  lambda a: {"valuation": _valuation_doc(valuation(jsonio.parse_rational(a.q), a.p))}),
    "expand": ("truncated p-adic expansion of a rational", ["--q", ("--p", _INT), ("--k", _INT)], _expand),
    "zero-set": ("set of places where an adele vanishes", ["--adele"],
                 lambda a: {"zero_set": jsonio.dump_prime_set(zero_set(_adele(a.adele)))}),
    "abs": ("adelic absolute value of a full adele", ["--adele"], _abs),
    "factor": ("idele factorization a = r*u of an invertible adele", ["--adele"], _factor),
    "isotropy": ("isotropy of the scaling action at an adele", ["--adele"],
                 lambda a: {"isotropy": isotropy(_adele(a.adele))}),
    "orbit-closure": ("does the orbit closure of a contain b", ["--a", "--b"],
                      lambda a: {"contains": orbit_closure_contains(_adele(a.a), _adele(a.b))}),
    "quasi-orbit": ("do a and b share their orbit closure", ["--a", "--b"],
                    lambda a: {"same": same_quasi_orbit(_adele(a.a), _adele(a.b))}),
    "chi": ("quasi-orbit parameter point of a full adele", ["--adele"],
            lambda a: jsonio.dump_parameter_point(chi(_adele(a.adele, True, "chi needs a full adele")))),
    "witness": ("construct r with r*a inside a neighbourhood", ["--adele", "--nbhd", _DIVISION], _witness),
    "exact-witness": ("exact scaling r with r*a == b, if any", ["--a", "--b", _DIVISION],
                      lambda a: _r_doc(exact_orbit_witness(_adele(a.a), _adele(a.b)), a.division)),
    "zero-divisor": ("is an integral finite adele a zero divisor", ["--adele"], _zero_divisor),
    "pc-closure": ("power-cofinite closure of a list of prime sets", ["--points"],
                   lambda a: _closure_doc(pc_closure(_load(jsonio.parse_prime_set_list, a.points)))),
    "tau-closure": ("closure in the quotient topology on prime sets and units", ["--descriptor"],
                    lambda a: _closure_doc(tau_closure(_descriptor(a)))),
    "specializes": ("is y in the closure of the parameter point x", ["--x", "--y"], _specializes),
    "primcq-closure": ("closure in the finite-adele primitive space", ["--descriptor"],
                       lambda a: _closure_doc(primcq_closure(_descriptor(a)))),
    "primfull-closure": ("closure in the full-adele primitive space", ["--descriptor"],
                         lambda a: _closure_doc(prim_full_closure(_descriptor(a)))),
    "prim-equal": ("identification of (prime set, character) pairs", ["--left", "--right"], _prim_equal),
    "char-eval": ("evaluate a character at a nonzero rational", ["--character", "--r"], _char_eval),
    "oracle-witness": ("brute-force witness search by height", [
        "--adele",
        "--nbhd",
        ("--height-bound", {"type": int, "default": 1000}),
        ("--prime-window", {"default": "2,3,5,7,11,13"}),
        ("--precision", {"type": int, "default": 3}),
        _DIVISION,
    ], _oracle_witness),
    "oracle-window": ("closure within a finite window of places", [
        "--points",
        ("--window", {"required": True, "help": "comma-separated places, e.g. 2,3,inf"}),
    ], _oracle_window),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adele",
        description="exact adele arithmetic, orbit witnesses and parameter-space topology",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, flags, _) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--pretty", action="store_true", help="indent the JSON output")
        for flag in flags:
            name, options = (flag, {"required": True}) if isinstance(flag, str) else flag
            p.add_argument(name, **options)
    return parser


def _run(args) -> Dict:
    return COMMANDS[args.command][2](args)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors; the contract reserves 2 for
        # domain errors, so usage problems report as malformed input
        return 1 if exc.code else 0
    pretty = getattr(args, "pretty", False)
    try:
        doc = _run(args)
    except AdelicError as exc:
        _dump({"error": {"code": exc.code, "detail": str(exc)}}, pretty)
        return 2
    except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        _dump({"error": {"code": "invalid_input", "detail": str(exc)}}, pretty)
        return 1
    _dump(doc, pretty)
    return 0


if __name__ == "__main__":
    sys.exit(main())
