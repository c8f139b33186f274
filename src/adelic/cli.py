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
would build.  Any other argv goes to argparse, to the parser of all
subcommands, ``build_parser()``, which prints help and usage errors.
``main`` then reads each flag's value through its reader in ``_READERS``,
calls the subcommand's handler, and writes the response document.
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


# json.dumps builds an encoder per call when given separators or indent;
# --pretty picks the second
_COMPACT = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_PRETTY = json.JSONEncoder(sort_keys=True, indent=2)


def _valuation_doc(v) -> Any:
    return "inf" if v == INFINITE_VALUATION else int(v)


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


def _pair(doc) -> tuple:
    """A (prime set, character) pair, as prim-equal reads it."""
    jsonio._require_keys(doc, ["set", "character"])
    return jsonio.parse_prime_set(doc["set"]), jsonio.parse_character(doc["character"])


def _comma_list(parse, text) -> list:
    """Parse each item of a comma-separated flag value."""
    if not isinstance(text, str):  # argparse stores [] for a "--" value
        raise TypeError(f"a comma-separated list must be str, not {type(text).__name__}")
    return [parse(item) for item in text.split(",") if item]


# flag dest -> reader of its value.  ``main`` runs the readers, in flag
# order, before the handler, never through argparse ``type=``: argparse
# would report a bad document as a usage error with no JSON on stdout.
# Readers and handlers name library functions at call time, so a binding
# replaced on a module (as the benchmark's tracer does) is the one called.
_READERS = {
    **dict.fromkeys(["q", "r"], lambda text: jsonio.parse_rational(text)),
    **dict.fromkeys(["adele", "a", "b"], lambda text: _load(jsonio.parse_adele, text)),
    "nbhd": lambda text: _load(jsonio.parse_neighbourhood, text),
    **dict.fromkeys(["x", "y"], lambda text: _load(jsonio.parse_parameter_point, text)),
    **dict.fromkeys(["left", "right"], lambda text: _load(_pair, text)),
    "descriptor": lambda text: _load(jsonio.parse_descriptor, text),
    "points": lambda text: _load(jsonio.parse_prime_set_list, text),
    "character": lambda text: _load(jsonio.parse_character, text),
    "prime_window": lambda text: _comma_list(jsonio.parse_prime, text),
    "window": lambda text: _comma_list(jsonio.parse_place, text),
}


def _r_doc(r: Optional[Fraction], division: bool) -> Dict:
    """The scaling r, reported as 1/r for the division action."""
    if r is None:
        return {"r": None}
    return {"r": jsonio.dump_rational(1 / r if division else r)}


def _closure_doc(closed) -> Dict:
    return {"closure": jsonio.dump_closed_descriptor(closed)}


def _expand(a) -> Dict:
    t = expand(a.q, a.p, a.k)
    return {
        "prime": str(int(t.prime)),
        "valuation": _valuation_doc(t.valuation),
        "unit_residue": t.unit_residue,
        "precision": t.precision,
    }


def _factor(a) -> Dict:
    r, u = factor_idele(a.adele)
    return {"r": jsonio.dump_rational(r), "unit": jsonio.dump_adele(u)}


_INT = {"required": True, "type": int}
_BUDGET = SearchBudget()
_DIVISION = ("--division", {"action": "store_true", "help": "report 1/r for the division action"})

#: subcommand -> (help, flags, handler returning the response document).  A
#: bare flag is a required string; any other comes with its argparse options.
COMMANDS = {
    "valuation": ("p-adic valuation of a rational", ["--q", ("--p", _INT)],
                  lambda a: {"valuation": _valuation_doc(valuation(a.q, a.p))}),
    "expand": ("truncated p-adic expansion of a rational", ["--q", ("--p", _INT), ("--k", _INT)], _expand),
    "zero-set": ("set of places where an adele vanishes", ["--adele"],
                 lambda a: {"zero_set": jsonio.dump_prime_set(zero_set(a.adele))}),
    "abs": ("adelic absolute value of a full adele", ["--adele"],
            lambda a: {"abs": jsonio.dump_rational(absolute_value(a.adele))}),
    "factor": ("idele factorization a = r*u of an invertible adele", ["--adele"], _factor),
    "isotropy": ("isotropy of the scaling action at an adele", ["--adele"],
                 lambda a: {"isotropy": isotropy(a.adele)}),
    "orbit-closure": ("does the orbit closure of a contain b", ["--a", "--b"],
                      lambda a: {"contains": orbit_closure_contains(a.a, a.b)}),
    "quasi-orbit": ("do a and b share their orbit closure", ["--a", "--b"],
                    lambda a: {"same": same_quasi_orbit(a.a, a.b)}),
    "chi": ("quasi-orbit parameter point of a full adele", ["--adele"],
            lambda a: jsonio.dump_parameter_point(chi(a.adele))),
    "witness": ("construct r with r*a inside a neighbourhood", ["--adele", "--nbhd", _DIVISION],
                # approx_witness raises unless r verifies
                lambda a: {**_r_doc(approx_witness(a.adele, a.nbhd), a.division), "verified": True}),
    "exact-witness": ("exact scaling r with r*a == b, if any", ["--a", "--b", _DIVISION],
                      lambda a: _r_doc(exact_orbit_witness(a.a, a.b), a.division)),
    "zero-divisor": ("is an integral finite adele a zero divisor", ["--adele"],
                     lambda a: {"zero_divisor": is_zero_divisor(a.adele)}),
    "pc-closure": ("power-cofinite closure of a list of prime sets", ["--points"],
                   lambda a: _closure_doc(pc_closure(a.points))),
    "tau-closure": ("closure in the quotient topology on prime sets and units", ["--descriptor"],
                    lambda a: _closure_doc(tau_closure(a.descriptor))),
    "specializes": ("is y in the closure of the parameter point x", ["--x", "--y"],
                    lambda a: {"specializes": point_specializes(a.x, a.y)}),
    "primcq-closure": ("closure in the finite-adele primitive space", ["--descriptor"],
                       lambda a: _closure_doc(primcq_closure(a.descriptor))),
    "primfull-closure": ("closure in the full-adele primitive space", ["--descriptor"],
                         lambda a: _closure_doc(prim_full_closure(a.descriptor))),
    "prim-equal": ("identification of (prime set, character) pairs", ["--left", "--right"],
                   lambda a: {"equal": prim_equal(a.left, a.right)}),
    "char-eval": ("evaluate a character at a nonzero rational", ["--character", "--r"],
                  lambda a: {"angle": jsonio.dump_rational(character_eval(a.character, a.r))}),
    "oracle-witness": ("brute-force witness search by height", [
        "--adele",
        "--nbhd",
        ("--height-bound", {"type": int, "default": _BUDGET.height_bound}),
        ("--prime-window", {"default": ",".join(str(int(p)) for p in sorted(_BUDGET.prime_window))}),
        ("--precision", {"type": int, "default": _BUDGET.precision}),
        _DIVISION,
    ], lambda a: _r_doc(witness_by_search(a.adele, a.nbhd, SearchBudget(a.height_bound, a.prime_window, a.precision)),
                        a.division)),
    "oracle-window": ("closure within a finite window of places", [
        "--points",
        ("--window", {"required": True, "help": "comma-separated places, e.g. 2,3,inf"}),
    ], lambda a: {"closure": [jsonio.dump_prime_set(s) for s in window_closure(a.points, a.window)]}),
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
def _flags(command: str) -> Dict[str, argparse.Action]:
    """``command``'s flags and their argparse actions, built on its first
    request and then kept."""
    return _add_flags(argparse.ArgumentParser(add_help=False), COMMANDS[command][1])


def _plain_args(argv) -> Optional[argparse.Namespace]:
    """The namespace argparse builds for a command followed by exact
    ``--flag value`` and ``--flag=value`` tokens, each flag at most once and
    every required flag given; None for any other argv.  Abbreviations,
    repeats, help and usage errors are left to argparse."""
    if not argv or argv[0] not in COMMANDS:
        return None
    flags = _flags(argv[0])
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
    """Read ``argv`` plainly when it allows; else parse it with the full
    parser, which prints help and usage errors."""
    args = _plain_args(argv)
    return build_parser().parse_args(argv) if args is None else args


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors; the contract reserves 2 for
        # domain errors, so usage problems report as malformed input
        return 1 if exc.code else 0
    encoder = _PRETTY if args.pretty else _COMPACT
    # read, call, write; encoding fails past Python's digit limit on int to
    # str, so it is inside the try
    try:
        for dest, value in list(vars(args).items()):
            if dest in _READERS:
                setattr(args, dest, _READERS[dest](value))
        text, status = encoder.encode(COMMANDS[args.command][2](args)), 0
    except AdelicError as exc:
        text, status = encoder.encode({"error": {"code": exc.code, "detail": str(exc)}}), 2
    except (ValueError, KeyError, TypeError, RecursionError) as exc:  # json.JSONDecodeError is a ValueError
        text, status = encoder.encode({"error": {"code": "invalid_input", "detail": str(exc)}}), 1
    print(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
