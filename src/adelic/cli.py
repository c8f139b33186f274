"""Command-line front end.

Every library operation is exposed as a subcommand taking JSON documents
through flags and printing a single JSON document on stdout.  Exit status
0 means success, 2 a domain error (infeasible witness, noninvertible
adele, ...) and 1 malformed input; errors carry a payload
``{"error": {"code": ..., "detail": ...}}``.  Output is canonical: sorted
keys, reduced rationals, byte-identical for identical argv.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Any, Dict

from . import jsonio
from .adele import (
    FullAdele,
    absolute_value,
    factor_idele,
    zero_set,
)
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


def _maybe_invert(r: Fraction, division: bool) -> Fraction:
    return 1 / r if division else r


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adele",
        description="exact adele arithmetic, orbit witnesses and parameter-space topology",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--pretty", action="store_true", help="indent the JSON output")
        return p

    p = cmd("valuation", "p-adic valuation of a rational")
    p.add_argument("--q", required=True)
    p.add_argument("--p", required=True, type=int)

    p = cmd("expand", "truncated p-adic expansion of a rational")
    p.add_argument("--q", required=True)
    p.add_argument("--p", required=True, type=int)
    p.add_argument("--k", required=True, type=int)

    p = cmd("zero-set", "set of places where an adele vanishes")
    p.add_argument("--adele", required=True)

    p = cmd("abs", "adelic absolute value of a full adele")
    p.add_argument("--adele", required=True)

    p = cmd("factor", "idele factorization a = r*u of an invertible adele")
    p.add_argument("--adele", required=True)

    p = cmd("isotropy", "isotropy of the scaling action at an adele")
    p.add_argument("--adele", required=True)

    p = cmd("orbit-closure", "does the orbit closure of a contain b")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    p = cmd("quasi-orbit", "do a and b share their orbit closure")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    p = cmd("chi", "quasi-orbit parameter point of a full adele")
    p.add_argument("--adele", required=True)

    p = cmd("witness", "construct r with r*a inside a neighbourhood")
    p.add_argument("--adele", required=True)
    p.add_argument("--nbhd", required=True)
    p.add_argument("--division", action="store_true", help="report 1/r for the division action")

    p = cmd("exact-witness", "exact scaling r with r*a == b, if any")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--division", action="store_true")

    p = cmd("zero-divisor", "is an integral finite adele a zero divisor")
    p.add_argument("--adele", required=True)

    p = cmd("pc-closure", "power-cofinite closure of a list of prime sets")
    p.add_argument("--points", required=True)

    p = cmd("tau-closure", "closure in the quotient topology on prime sets and units")
    p.add_argument("--descriptor", required=True)

    p = cmd("specializes", "is y in the closure of the parameter point x")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)

    p = cmd("primcq-closure", "closure in the finite-adele primitive space")
    p.add_argument("--descriptor", required=True)

    p = cmd("primfull-closure", "closure in the full-adele primitive space")
    p.add_argument("--descriptor", required=True)

    p = cmd("prim-equal", "identification of (prime set, character) pairs")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)

    p = cmd("char-eval", "evaluate a character at a nonzero rational")
    p.add_argument("--character", required=True)
    p.add_argument("--r", required=True)

    p = cmd("oracle-witness", "brute-force witness search by height")
    p.add_argument("--adele", required=True)
    p.add_argument("--nbhd", required=True)
    p.add_argument("--height-bound", type=int, default=1000)
    p.add_argument("--prime-window", default="2,3,5,7,11,13")
    p.add_argument("--precision", type=int, default=3)
    p.add_argument("--division", action="store_true")

    p = cmd("oracle-window", "closure within a finite window of places")
    p.add_argument("--points", required=True)
    p.add_argument("--window", required=True, help="comma-separated places, e.g. 2,3,inf")

    return parser


def _run(args) -> Dict:
    def loads(text):
        return json.loads(text)

    if args.command == "valuation":
        return {"valuation": _valuation_doc(valuation(jsonio.parse_rational(args.q), args.p))}

    if args.command == "expand":
        t = expand(jsonio.parse_rational(args.q), args.p, args.k)
        return {
            "prime": str(int(t.prime)),
            "valuation": _valuation_doc(t.valuation),
            "unit_residue": t.unit_residue,
            "precision": t.precision,
        }

    if args.command == "zero-set":
        return {"zero_set": jsonio.dump_prime_set(zero_set(jsonio.parse_adele(loads(args.adele))))}

    if args.command == "abs":
        a = jsonio.parse_adele(loads(args.adele))
        if not isinstance(a, FullAdele):
            raise ValueError("the absolute value needs a full adele (a 'real' field)")
        return {"abs": jsonio.dump_rational(absolute_value(a))}

    if args.command == "factor":
        a = jsonio.parse_adele(loads(args.adele))
        if not isinstance(a, FullAdele):
            raise ValueError("idele factorization needs a full adele")
        r, u = factor_idele(a)
        return {"r": jsonio.dump_rational(r), "unit": jsonio.dump_adele(u)}

    if args.command == "isotropy":
        return {"isotropy": isotropy(jsonio.parse_adele(loads(args.adele)))}

    if args.command == "orbit-closure":
        a, b = jsonio.parse_adele(loads(args.a)), jsonio.parse_adele(loads(args.b))
        return {"contains": orbit_closure_contains(a, b)}

    if args.command == "quasi-orbit":
        a, b = jsonio.parse_adele(loads(args.a)), jsonio.parse_adele(loads(args.b))
        return {"same": same_quasi_orbit(a, b)}

    if args.command == "chi":
        a = jsonio.parse_adele(loads(args.adele))
        if not isinstance(a, FullAdele):
            raise ValueError("chi needs a full adele")
        return jsonio.dump_parameter_point(chi(a))

    if args.command == "witness":
        a = jsonio.parse_adele(loads(args.adele))
        nbhd = jsonio.parse_neighbourhood(loads(args.nbhd))
        r = approx_witness(a, nbhd)  # raises unless r verifies
        return {"r": jsonio.dump_rational(_maybe_invert(r, args.division)), "verified": True}

    if args.command == "exact-witness":
        a, b = jsonio.parse_adele(loads(args.a)), jsonio.parse_adele(loads(args.b))
        r = exact_orbit_witness(a, b)
        if r is None:
            return {"r": None}
        return {"r": jsonio.dump_rational(_maybe_invert(r, args.division))}

    if args.command == "zero-divisor":
        a = jsonio.parse_adele(loads(args.adele))
        if isinstance(a, FullAdele):
            raise ValueError("zero divisors live among the finite adeles")
        return {"zero_divisor": is_zero_divisor(a)}

    if args.command == "pc-closure":
        points = jsonio.parse_prime_set_list(loads(args.points))
        return {"closure": jsonio.dump_closed_descriptor(pc_closure(points))}

    if args.command == "tau-closure":
        desc = jsonio.parse_descriptor(loads(args.descriptor))
        return {"closure": jsonio.dump_closed_descriptor(tau_closure(desc))}

    if args.command == "specializes":
        x = jsonio.parse_parameter_point(loads(args.x))
        y = jsonio.parse_parameter_point(loads(args.y))
        return {"specializes": point_specializes(x, y)}

    if args.command == "primcq-closure":
        desc = jsonio.parse_descriptor(loads(args.descriptor))
        return {"closure": jsonio.dump_closed_descriptor(primcq_closure(desc))}

    if args.command == "primfull-closure":
        desc = jsonio.parse_descriptor(loads(args.descriptor))
        return {"closure": jsonio.dump_closed_descriptor(prim_full_closure(desc))}

    if args.command == "prim-equal":
        def pair(doc):
            jsonio._require_keys(doc, ["set", "character"])
            return jsonio.parse_prime_set(doc["set"]), jsonio.parse_character(doc["character"])

        return {"equal": prim_equal(pair(loads(args.left)), pair(loads(args.right)))}

    if args.command == "char-eval":
        c = jsonio.parse_character(loads(args.character))
        return {"angle": jsonio.dump_rational(character_eval(c, jsonio.parse_rational(args.r)))}

    if args.command == "oracle-witness":
        a = jsonio.parse_adele(loads(args.adele))
        nbhd = jsonio.parse_neighbourhood(loads(args.nbhd))
        window = frozenset(int(p) for p in args.prime_window.split(",") if p)
        budget = SearchBudget(args.height_bound, window, args.precision)
        r = witness_by_search(a, nbhd, budget)
        if r is None:
            return {"r": None}
        return {"r": jsonio.dump_rational(_maybe_invert(r, args.division))}

    if args.command == "oracle-window":
        points = jsonio.parse_prime_set_list(loads(args.points))
        window = [jsonio.parse_place(p) for p in args.window.split(",") if p]
        closure = window_closure(points, window)
        return {"closure": [jsonio.dump_prime_set(s) for s in closure]}

    raise AssertionError(f"unhandled command {args.command}")


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
