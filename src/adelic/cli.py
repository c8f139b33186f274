"""Command-line front end.

Every library operation is exposed as a subcommand taking JSON documents
through flags and printing a single JSON document on stdout.  Exit status
0 means success, 2 a domain error (infeasible witness, noninvertible
adele, ...) and 1 malformed input; errors carry a payload
``{"error": {"code": ..., "detail": ...}}``.  Output is canonical: sorted
keys, reduced rationals, byte-identical for identical argv.  The
subcommands are defined in one table, ``COMMANDS``.

A request goes first to a plain reader, which takes a subcommand followed
by exact ``--flag value`` and ``--flag=value`` tokens, each flag at most
once and every required flag given, and builds the namespace argparse
would build.  Any other argv goes to argparse: first to the subcommand's
own parser, built once per process, on the command's first request, which
prints the command's help and usage errors in the same bytes as the parser
of all subcommands, ``build_parser()``; then, for an argv that names no
subcommand or leaves arguments over, to ``build_parser()``.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import Any, Dict, Optional

from . import jsonio
from .adele import absolute_value, factor_idele, zero_set
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


# json.dumps builds an encoder per call when given separators
_COMPACT = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _encode(doc: Dict, pretty: bool) -> str:
    if pretty:
        return json.dumps(doc, sort_keys=True, indent=2)
    return _COMPACT.encode(doc)


def _valuation_doc(v) -> Any:
    return "inf" if v == INFINITE_VALUATION else int(v)


# JSON is parsed inside the handlers, never through argparse ``type=``:
# argparse would report a bad document as a usage error with no JSON on
# stdout.  Handlers name library functions at call time, so a binding
# replaced on a module (as the benchmark's tracer does) is the one called.


def _unique_keys(pairs) -> Dict:
    doc = dict(pairs)
    if len(doc) < len(pairs):
        raise ValueError(f"repeated key in JSON object {[k for k, _ in pairs]}")
    return doc


# json.loads builds a decoder per call when given a hook
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def _load(parse, text: str):
    """Parse a JSON flag value; a key repeated within one object is
    malformed input, not a silent last-one-wins."""
    if isinstance(text, str) and not text.startswith("\ufeff"):
        return parse(_DECODER.decode(text))
    # json.loads refuses a leading BOM and a non-string; JSONDecoder.decode does neither
    return parse(json.loads(text, object_pairs_hook=_unique_keys))


def _adele(text: str):
    """Parse a JSON adele; the library checks its kind."""
    return _load(jsonio.parse_adele, text)


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
    return {"abs": jsonio.dump_rational(absolute_value(_adele(a.adele)))}


def _factor(a) -> Dict:
    r, u = factor_idele(_adele(a.adele))
    return {"r": jsonio.dump_rational(r), "unit": jsonio.dump_adele(u)}


def _witness(a) -> Dict:
    # approx_witness raises unless r verifies
    r = approx_witness(_adele(a.adele), _load(jsonio.parse_neighbourhood, a.nbhd))
    return {**_r_doc(r, a.division), "verified": True}


def _specializes(a) -> Dict:
    x, y = _load(jsonio.parse_parameter_point, a.x), _load(jsonio.parse_parameter_point, a.y)
    return {"specializes": point_specializes(x, y)}


def _prim_equal(a) -> Dict:
    def pair(doc):
        jsonio._require_keys(doc, ["set", "character"])
        return jsonio.parse_prime_set(doc["set"]), jsonio.parse_character(doc["character"])

    return {"equal": prim_equal(_load(pair, a.left), _load(pair, a.right))}


def _char_eval(a) -> Dict:
    c = _load(jsonio.parse_character, a.character)
    return {"angle": jsonio.dump_rational(character_eval(c, jsonio.parse_rational(a.r)))}


def _oracle_witness(a) -> Dict:
    adele, nbhd = _adele(a.adele), _load(jsonio.parse_neighbourhood, a.nbhd)
    window = frozenset(jsonio.parse_prime(p) for p in a.prime_window.split(",") if p)
    r = witness_by_search(adele, nbhd, SearchBudget(a.height_bound, window, a.precision))
    return _r_doc(r, a.division)


def _oracle_window(a) -> Dict:
    points = _load(jsonio.parse_prime_set_list, a.points)
    window = [jsonio.parse_place(p) for p in a.window.split(",") if p]
    return {"closure": [jsonio.dump_prime_set(s) for s in window_closure(points, window)]}


_INT = {"required": True, "type": int}
_BUDGET = SearchBudget()
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
            lambda a: jsonio.dump_parameter_point(chi(_adele(a.adele)))),
    "witness": ("construct r with r*a inside a neighbourhood", ["--adele", "--nbhd", _DIVISION], _witness),
    "exact-witness": ("exact scaling r with r*a == b, if any", ["--a", "--b", _DIVISION],
                      lambda a: _r_doc(exact_orbit_witness(_adele(a.a), _adele(a.b)), a.division)),
    "zero-divisor": ("is an integral finite adele a zero divisor", ["--adele"],
                     lambda a: {"zero_divisor": is_zero_divisor(_adele(a.adele))}),
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
        ("--height-bound", {"type": int, "default": _BUDGET.height_bound}),
        ("--prime-window", {"default": ",".join(str(int(p)) for p in sorted(_BUDGET.prime_window))}),
        ("--precision", {"type": int, "default": _BUDGET.precision}),
        _DIVISION,
    ], _oracle_witness),
    "oracle-window": ("closure within a finite window of places", [
        "--points",
        ("--window", {"required": True, "help": "comma-separated places, e.g. 2,3,inf"}),
    ], _oracle_window),
}


def _add_flags(parser: argparse.ArgumentParser, flags) -> Dict[str, argparse.Action]:
    """Add ``--pretty`` and ``flags`` to ``parser``; their actions by flag."""
    actions = [parser.add_argument("--pretty", action="store_true", help="indent the JSON output")]
    for flag in flags:
        name, options = (flag, {"required": True}) if isinstance(flag, str) else flag
        actions.append(parser.add_argument(name, **options))
    return {action.option_strings[0]: action for action in actions}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adele",
        description="exact adele arithmetic, orbit witnesses and parameter-space topology",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, flags, _) in COMMANDS.items():
        _add_flags(sub.add_parser(command, help=help_text), flags)
    return parser


@functools.lru_cache(maxsize=None)
def _command_parser(command: str) -> argparse.ArgumentParser:
    """``command``'s parser, built on its first request and then kept; its
    ``flags`` maps each flag to its action."""
    parser = argparse.ArgumentParser(prog=f"adele {command}")
    parser.flags = _add_flags(parser, COMMANDS[command][1])
    return parser


def _plain_args(argv) -> Optional[argparse.Namespace]:
    """The namespace argparse builds for a command followed by exact
    ``--flag value`` and ``--flag=value`` tokens, each flag at most once and
    every required flag given; None for any other argv.  Abbreviations,
    repeats, help and usage errors are left to argparse."""
    if not argv or argv[0] not in COMMANDS:
        return None
    flags = _command_parser(argv[0]).flags
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        name, joined, value = token.partition("=")
        action = flags.get(name)
        if action is None or action.dest in given:
            return None
        # argparse refuses a switch a value, and stores [] for a "--" value
        if joined and (action.nargs == 0 or value == "--"):
            return None
        if action.nargs == 0:
            value = action.const
        elif not joined:
            value = next(tokens, "-")
            if value.startswith("-"):  # missing, or argparse may read it as an option
                return None
        if action.type is not None:
            try:
                value = action.type(value)
            except ValueError:
                return None
        given[action.dest] = value
    if any(action.required and action.dest not in given for action in flags.values()):
        return None
    return argparse.Namespace(command=argv[0], **{a.dest: given.get(a.dest, a.default) for a in flags.values()})


def _parse_args(argv) -> argparse.Namespace:
    """Read ``argv`` plainly when it allows; else parse it with only its
    command's flags when it names one.  ``parse_known_args`` is the full
    parser's own call on that subparser, so help and usage errors print the
    same bytes; only leftover arguments need the full parser, whose error
    reports them."""
    args = _plain_args(argv)
    if args is not None:
        return args
    if argv and argv[0] in COMMANDS:
        args, rest = _command_parser(argv[0]).parse_known_args(argv[1:])
        if not rest:
            return argparse.Namespace(command=argv[0], **vars(args))
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors; the contract reserves 2 for
        # domain errors, so usage problems report as malformed input
        return 1 if exc.code else 0
    # encoding fails past Python's digit limit on int to str, so it is inside the try
    try:
        text, status = _encode(COMMANDS[args.command][2](args), args.pretty), 0
    except AdelicError as exc:
        text, status = _encode({"error": {"code": exc.code, "detail": str(exc)}}, args.pretty), 2
    except (ValueError, KeyError, TypeError, RecursionError) as exc:  # json.JSONDecodeError is a ValueError
        text, status = _encode({"error": {"code": "invalid_input", "detail": str(exc)}}, args.pretty), 1
    print(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
