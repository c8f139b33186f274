import argparse
import contextlib
import gc
import io
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adelic
from adelic import cli, jsonio
from adelic.cli import build_parser, main
from adelic.oracle import DEFAULT_WINDOW
from test_cli_golden import GOLDEN

F = Fraction


def run_cli(*argv, capsys=None):
    code = main(list(argv))
    out = capsys.readouterr().out if capsys else ""
    return code, out


def invoke(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


ADELE_38 = json.dumps(
    {"explicit": {"2": "8"}, "default": {"kind": "rational", "q": "1"}, "real": "3"}
)
CASE_ONE_ADELE = json.dumps(
    {"explicit": {"2": "0"}, "default": {"kind": "rational", "q": "1"}, "real": "1"}
)
CASE_ONE_NBHD = json.dumps(
    {
        "balls": {"3": {"center": "2", "radius_exponent": 1}},
        "real_interval": ["5", "6"],
    }
)


class TestBasicCommands:
    def test_valuation(self, capsys):
        code, doc = invoke(capsys, "valuation", "--q", "12", "--p", "2")
        assert code == 0 and doc == {"valuation": 2}

    def test_valuation_of_zero(self, capsys):
        code, doc = invoke(capsys, "valuation", "--q", "0", "--p", "5")
        assert code == 0 and doc == {"valuation": "inf"}

    def test_expand(self, capsys):
        code, doc = invoke(capsys, "expand", "--q", "1/3", "--p", "2", "--k", "3")
        assert code == 0
        assert doc == {"prime": "2", "valuation": 0, "unit_residue": 3, "precision": 3}

    def test_abs_spec_example(self, capsys):
        code, doc = invoke(capsys, "abs", "--adele", ADELE_38)
        assert code == 0 and doc == {"abs": "3/8"}

    def test_zero_set(self, capsys):
        adele = json.dumps({"explicit": {"5": "1"}, "default": {"kind": "zero"}})
        code, doc = invoke(capsys, "zero-set", "--adele", adele)
        assert code == 0
        assert doc == {"zero_set": {"base": "finite", "kind": "cofinite", "members": ["5"]}}

    def test_factor_roundtrip(self, capsys):
        adele = json.dumps(
            {"explicit": {"2": "6", "3": "6"}, "default": {"kind": "rational", "q": "6"}, "real": "6"}
        )
        code, doc = invoke(capsys, "factor", "--adele", adele)
        assert code == 0 and doc["r"] == "6"
        # the emitted unit feeds back into abs
        code, doc2 = invoke(capsys, "abs", "--adele", json.dumps(doc["unit"]))
        assert code == 0 and doc2 == {"abs": "1"}

    def test_abs_with_numerator_prime_left_to_the_default(self, capsys):
        adele = json.dumps({"explicit": {}, "default": {"kind": "rational", "q": "2"}, "real": "1"})
        code, doc = invoke(capsys, "abs", "--adele", adele)
        assert code == 0 and doc == {"abs": "1/2"}

    def test_isotropy(self, capsys):
        zero = json.dumps({"explicit": {}, "default": {"kind": "zero"}})
        code, doc = invoke(capsys, "isotropy", "--adele", zero)
        assert code == 0 and doc == {"isotropy": "full_group"}


class TestWitnessCommands:
    def test_witness_case_one(self, capsys):
        code, doc = invoke(
            capsys, "witness", "--adele", CASE_ONE_ADELE, "--nbhd", CASE_ONE_NBHD
        )
        assert code == 0
        assert doc == {"r": "23/4", "verified": True}

    def test_witness_division_flag(self, capsys):
        code, doc = invoke(
            capsys, "witness", "--adele", CASE_ONE_ADELE, "--nbhd", CASE_ONE_NBHD, "--division"
        )
        assert code == 0 and doc["r"] == "4/23"

    def test_witness_infeasible_is_domain_error(self, capsys):
        adele = json.dumps({"explicit": {"2": "0"}, "default": {"kind": "rational", "q": "1"}})
        nbhd = json.dumps({"balls": {"2": {"center": "1", "radius_exponent": 1}}})
        code, doc = invoke(capsys, "witness", "--adele", adele, "--nbhd", nbhd)
        assert code == 2
        assert doc["error"]["code"] == "infeasible"

    def test_exact_witness(self, capsys):
        a = json.dumps({"explicit": {"2": "2"}, "default": {"kind": "rational", "q": "2"}})
        b = json.dumps(
            {"explicit": {"2": "6", "3": "6"}, "default": {"kind": "rational", "q": "6"}}
        )
        code, doc = invoke(capsys, "exact-witness", "--a", a, "--b", b)
        assert code == 0 and doc == {"r": "3"}

    def test_oracle_witness(self, capsys):
        adele = json.dumps({"explicit": {}, "default": {"kind": "rational", "q": "1"}})
        nbhd = json.dumps(
            {
                "balls": {
                    "2": {"center": "0", "radius_exponent": 3},
                    "3": {"center": "1", "radius_exponent": 1},
                }
            }
        )
        code, doc = invoke(
            capsys, "oracle-witness", "--adele", adele, "--nbhd", nbhd, "--height-bound", "100"
        )
        assert code == 0 and doc == {"r": "16"}

    def test_oracle_witness_answers_at_once_under_a_huge_budget(self, capsys, deadline):
        # the answer has height 16; no denominator past it is generated
        adele = json.dumps({"explicit": {}, "default": {"kind": "rational", "q": "1"}})
        nbhd = json.dumps({"balls": {"2": {"center": "0", "radius_exponent": 3},
                                     "3": {"center": "1", "radius_exponent": 1}}})
        argv = ["oracle-witness", "--adele", adele, "--nbhd", nbhd]
        with deadline(1):
            code, doc = invoke(capsys, *argv, "--height-bound", str(10**60), "--precision", "200")
        assert code == 0 and doc == {"r": "16"}

    def test_misses_report_a_null_r(self, capsys):
        a = json.dumps({"explicit": {}, "default": {"kind": "rational", "q": "1"}})
        b = json.dumps({"explicit": {}, "default": {"kind": "times_p", "q": "1"}})
        code, doc = invoke(capsys, "exact-witness", "--a", a, "--b", b)
        assert code == 0 and doc == {"r": None}
        # a 2-adic valuation of 7 needs a height above the bound
        nbhd = json.dumps({"balls": {"2": {"center": "0", "radius_exponent": 7}}})
        code, doc = invoke(
            capsys, "oracle-witness", "--adele", a, "--nbhd", nbhd, "--height-bound", "100"
        )
        assert code == 0 and doc == {"r": None}

    def test_prime_window_items_parse_as_prime_keys(self, capsys):
        adele = json.dumps({"explicit": {}, "default": {"kind": "rational", "q": "1"}})
        nbhd = json.dumps({"balls": {"2": {"center": "0", "radius_exponent": 3}}})
        argv = ["oracle-witness", "--adele", adele, "--nbhd", nbhd, "--height-bound", "100"]
        code, doc = invoke(capsys, *argv, "--prime-window", " 2, 03,\u0663")
        assert code == 1 and doc["error"]["code"] == "invalid_input"
        args = build_parser().parse_args(argv)
        assert frozenset(jsonio.parse_prime(p) for p in args.prime_window.split(",")) == DEFAULT_WINDOW
        assert invoke(capsys, *argv) == invoke(capsys, *argv, "--prime-window", "2,3,5,7,11,13")


class TestTopologyCommands:
    def test_pc_closure(self, capsys):
        points = json.dumps([{"base": "finite", "kind": "finite", "members": ["2"]}])
        code, doc = invoke(capsys, "pc-closure", "--points", points)
        assert code == 0
        assert doc["closure"]["up_sets"] == [
            {"base": "finite", "kind": "finite", "members": ["2"]}
        ]

    def test_tau_closure_whole_space(self, capsys):
        desc = json.dumps(
            {"atoms": [{"kind": "prime_set_point", "set": {"base": "extended", "kind": "finite", "members": []}}]}
        )
        code, doc = invoke(capsys, "tau-closure", "--descriptor", desc)
        assert code == 0 and doc == {"closure": {"whole_space": True}}

    def test_specializes(self, capsys):
        x = json.dumps({"kind": "prime_set", "set": {"base": "extended", "kind": "finite", "members": ["2"]}})
        y = json.dumps({"kind": "prime_set", "set": {"base": "extended", "kind": "finite", "members": ["2", "3"]}})
        code, doc = invoke(capsys, "specializes", "--x", x, "--y", y)
        assert code == 0 and doc == {"specializes": True}

    def test_prim_equal_spec_example(self, capsys):
        left = json.dumps(
            {
                "set": {"base": "finite", "kind": "finite", "members": ["2"]},
                "character": {"group": "q_plus", "prime_angles": {"2": "1/3"}},
            }
        )
        right = json.dumps(
            {
                "set": {"base": "finite", "kind": "finite", "members": ["2"]},
                "character": {"group": "q_plus", "prime_angles": {"2": "2/3"}},
            }
        )
        code, doc = invoke(capsys, "prim-equal", "--left", left, "--right", right)
        assert code == 0 and doc == {"equal": True}

    def test_char_eval(self, capsys):
        character = json.dumps(
            {"group": "q_plus", "prime_angles": {"2": "1/4", "3": "1/3"}}
        )
        code, doc = invoke(capsys, "char-eval", "--character", character, "--r", "2/3")
        assert code == 0 and doc == {"angle": "11/12"}

    def test_oracle_window(self, capsys):
        points = json.dumps([{"base": "finite", "kind": "finite", "members": ["2"]}])
        code, doc = invoke(capsys, "oracle-window", "--points", points, "--window", "2,3")
        assert code == 0
        members = [s["members"] for s in doc["closure"]]
        assert members == [["2"], ["2", "3"]]
        # a repeated place counts once
        assert invoke(capsys, "oracle-window", "--points", points, "--window", "2,3,2") == (code, doc)


class TestErrorHandling:
    def test_malformed_json_is_exit_one(self, capsys):
        code, doc = invoke(capsys, "abs", "--adele", "{not json")
        assert code == 1 and doc["error"]["code"] == "invalid_input"

    NESTED = "[" * 3000 + "]" * 3000  # deeper than json.loads recurses

    @pytest.mark.parametrize("argv", [
        ["pc-closure", "--points", NESTED],
        ["abs", "--adele", NESTED],
        ["tau-closure", "--descriptor", '{"atoms": %s}' % NESTED],
    ], ids=["pc-closure", "abs", "tau-closure"])
    def test_deeply_nested_json_is_invalid_input(self, capsys, argv):
        code, doc = invoke(capsys, *argv)
        assert code == 1 and doc["error"]["code"] == "invalid_input"

    def test_unknown_keys_rejected(self, capsys):
        bad = json.dumps({"explicit": {}, "default": {"kind": "zero"}, "bogus": 1})
        code, doc = invoke(capsys, "zero-set", "--adele", bad)
        assert code == 1 and doc["error"]["code"] == "invalid_input"

    def test_composite_prime_rejected(self, capsys):
        code, doc = invoke(capsys, "valuation", "--q", "1", "--p", "4")
        assert code == 1 and doc["error"]["code"] == "invalid_input"

    def test_keys_naming_the_same_prime_rejected(self, capsys):
        # "02" would name 2 too; of two keys for one prime the last would win
        for explicit in ('{"2":"8","02":"1"}', '{"02":"1","2":"8"}',
                         '{"2":"8","2":"1"}', '{"2":"1","2":"8"}'):
            adele = '{"explicit":%s,"default":{"kind":"rational","q":"1"},"real":"3"}' % explicit
            code, doc = invoke(capsys, "abs", "--adele", adele)
            assert code == 1 and doc["error"]["code"] == "invalid_input"

    def test_repeated_json_keys_rejected(self, capsys):
        # whichever key came last would win
        for reals in ('"real":"3","real":"1"', '"real":"1","real":"3"'):
            adele = '{"explicit":{"2":"8"},"default":{"kind":"rational","q":"1"},%s}' % reals
            code, doc = invoke(capsys, "abs", "--adele", adele)
            assert code == 1 and doc["error"]["code"] == "invalid_input"
        character = '"character":{"group":"q_plus"}'
        one, two = ('{"base":"finite","kind":"finite","members":[%s]}' % m for m in ('"2"', '"3"'))
        pair = '{"set":%s,"set":%s,%s}'
        for left in (pair % (one, two, character), pair % (two, one, character)):
            right = '{"set":%s,%s}' % (one, character)
            code, doc = invoke(capsys, "prim-equal", "--left", left, "--right", right)
            assert code == 1 and doc["error"]["code"] == "invalid_input"

    def test_not_invertible_is_domain_error(self, capsys):
        adele = json.dumps(
            {"explicit": {"2": "0"}, "default": {"kind": "rational", "q": "1"}, "real": "1"}
        )
        code, doc = invoke(capsys, "factor", "--adele", adele)
        assert code == 2 and doc["error"]["code"] == "not_invertible"

    @pytest.mark.parametrize("command, detail", [
        ("abs", "invertibility is a full-adele notion"),
        ("factor", "idele factorization needs a full adele"),
        ("chi", "chi needs a full adele"),
    ])
    def test_full_adele_command_on_a_finite_adele_is_invalid_input(self, capsys, command, detail):
        # the library checks the kind; the CLI only parses
        finite = json.dumps({"explicit": {}, "default": {"kind": "rational", "q": "1"}})
        assert run_cli(command, "--adele", finite, capsys=capsys) == (
            1, '{"error":{"code":"invalid_input","detail":"%s"}}\n' % detail
        )

    def test_zero_divisor_of_a_full_adele_is_invalid_input(self, capsys):
        full = json.dumps({"explicit": {}, "default": {"kind": "rational", "q": "1"}, "real": "1"})
        assert run_cli("zero-divisor", "--adele", full, capsys=capsys) == (
            1, '{"error":{"code":"invalid_input","detail":"zero divisors live among the finite adeles"}}\n'
        )

    def test_zero_bounds_are_invalid_input(self, capsys):
        for argv in (["oracle-witness", "--adele", CASE_ONE_ADELE, "--nbhd", CASE_ONE_NBHD, "--height-bound", "0"],
                     ["expand", "--q", "1", "--p", "2", "--k", "0"]):
            code, doc = invoke(capsys, *argv)
            assert code == 1 and doc["error"]["code"] == "invalid_input"

    # each of these used to report a Python internal ('q', 'int' object is
    # not iterable, unhashable type: 'list') instead of the field
    MALFORMED = [
        (["zero-set", "--adele", '{"explicit":{},"default":{"kind":"rational"}}'], "missing keys ['q']"),
        (["specializes", "--x", '{"kind":"prime_set"}', "--y", '{"kind":"prime_set"}'], "missing keys ['set']"),
        (["tau-closure", "--descriptor", '{"atoms":5}'], "atoms must be a JSON list, got int"),
        (["primfull-closure", "--descriptor", '{"atoms":[{"kind":"unit_family","prefix":5,"inf_abs_zero":false}]}'],
         "prefix must be a JSON list, got int"),
        (["pc-closure", "--points", '[{"base":["finite"],"kind":"finite","members":[]}]'], "unknown base ['finite']"),
        (["tau-closure", "--descriptor", '{"atoms":[{"kind":"singleton_family","excluded":[],"base":["finite"]}]}'],
         "unknown base ['finite']"),
        (["specializes", "--x", '{"kind":"unit_class","unit":{"explicit":{"2":"2"},"default":{"kind":"rational","q":"1"},'
          '"real":"1"}}', "--y", '{"kind":"prime_set","set":{"base":"extended","kind":"finite","members":[]}}'],
         "UnitIdele(FiniteAdele({2: 2}, default=rational(1)), real=1) is not a unit idele: it is 2 times one"),
    ]

    def test_malformed_documents_name_the_field(self, capsys):
        for argv, detail in self.MALFORMED:
            assert invoke(capsys, *argv) == (1, {"error": {"code": "invalid_input", "detail": detail}})

    def test_parameter_point_rejects_the_other_kinds_payload(self, capsys):
        prime_set = {"kind": "prime_set", "set": {"base": "extended", "kind": "finite", "members": ["2"]}}
        unit = {"explicit": {}, "default": {"kind": "rational", "q": "1"}, "real": "1"}
        unit_class = {"kind": "unit_class", "unit": unit}
        for point, other in ((prime_set, {"unit": {"bogus": 1}}), (unit_class, {"set": {"bogus": 1}})):
            x = json.dumps({**point, **other})
            code, doc = invoke(capsys, "specializes", "--x", x, "--y", json.dumps(point))
            assert code == 1 and doc["error"]["code"] == "invalid_input"
            assert invoke(capsys, "specializes", "--x", json.dumps(point), "--y", json.dumps(point))[0] == 0

    def test_an_answer_too_large_to_print_is_one_error_document(self, capsys, deadline):
        # the unit residue of 1/3 mod 2**20000 has more digits than
        # Python converts from int to str
        for pretty in ((), ("--pretty",)):
            with deadline(5):
                code, out = run_cli("expand", "--q", "1/3", "--p", "2", "--k", "20000", *pretty, capsys=capsys)
            doc = json.loads(out)  # exactly one document, nothing else
            assert code == 1 and doc["error"]["code"] == "invalid_input"
            assert "4300" in doc["error"]["detail"]

    def test_a_leading_bom_is_refused_as_json_loads_refuses_it(self, capsys):
        assert run_cli("abs", "--adele", "\ufeff{}", capsys=capsys) == (1, (
            '{"error":{"code":"invalid_input",'
            '"detail":"Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"}}\n'))

    def test_unknown_flag(self, capsys):
        assert main(["abs", "--bogus", "1"]) == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1


class TestDeterminism:
    def test_byte_identical_output(self, capsys):
        args = ["abs", "--adele", ADELE_38]
        _, first = run_cli(*args, capsys=capsys)
        _, second = run_cli(*args, capsys=capsys)
        assert first == second

    def test_pretty_flag(self, capsys):
        code, out = run_cli("abs", "--adele", ADELE_38, "--pretty", capsys=capsys)
        assert code == 0 and "\n" in out

    def test_console_entry_point(self):
        # the child imports the same adelic as this process, installed or not
        src = os.path.dirname(os.path.dirname(adelic.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "adelic.cli", "valuation", "--q", "12", "--p", "2"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"valuation": 2}


class TestRoundTrips:
    def test_chi_output_feeds_specializes(self, capsys):
        adele = json.dumps(
            {"explicit": {"2": "0"}, "default": {"kind": "rational", "q": "1"}, "real": "1"}
        )
        code, point = invoke(capsys, "chi", "--adele", adele)
        assert code == 0 and point["kind"] == "prime_set"
        code, doc = invoke(
            capsys, "specializes", "--x", json.dumps(point), "--y", json.dumps(point)
        )
        assert code == 0 and doc == {"specializes": True}

    def test_chi_unit_roundtrip(self, capsys):
        adele = json.dumps(
            {"explicit": {"2": "-2"}, "default": {"kind": "rational", "q": "-2"}, "real": "-2"}
        )
        code, point = invoke(capsys, "chi", "--adele", adele)
        assert code == 0 and point["kind"] == "unit_class"
        code, doc = invoke(capsys, "abs", "--adele", json.dumps(point["unit"]))
        assert code == 0 and doc == {"abs": "1"}


# argvs that argparse answers itself: help and usage errors that the named
# command's parser prints alone ...
COMMAND_USAGE = [
    ["abs"],
    ["abs", "-h"],
    ["abs", "--adele", ADELE_38, "--help"],
    ["abs", "--adele"],
    ["abs", "--bogus", "1"],
    ["abs", "extra", "-h"],
    ["abs", "--", "--adele", ADELE_38],
    ["witness", "--adele", CASE_ONE_ADELE],
    ["witness", "--help"],
    ["valuation", "--q", "12", "--p", "two"],
    ["oracle-witness", "--he", "3"],
    ["oracle-witness", "--adele", CASE_ONE_ADELE, "--nbhd", CASE_ONE_NBHD, "--he", "50"],
    ["expand", "-h", "--q", "1"],
]
# ... and those that name no command or leave arguments over
FALLBACK_USAGE = [
    [],
    ["-h"],
    ["--help"],
    ["bogus"],
    ["--pretty", "abs", "--adele", ADELE_38],
    ["abs", "--adele", ADELE_38, "extra"],
    ["abs", "--adele", ADELE_38, "--bogus", "1"],
    ["abs", "-p", "--adele", ADELE_38],
    ["witness", "--adele", CASE_ONE_ADELE, "--nbhd", CASE_ONE_NBHD, "x"],
]
USAGE = COMMAND_USAGE + FALLBACK_USAGE
# argvs that parse on either path, in forms argparse also accepts
ACCEPTED = [
    ["abs", "--adel", ADELE_38],
    ["abs", "--adele", "{}", "--adele", ADELE_38],
    ["abs", "--pre", "--adele=" + ADELE_38],
    ["witness", "--adele", CASE_ONE_ADELE, "--nbhd", CASE_ONE_NBHD, "--div"],
    ["valuation", "--q", "-1", "--p", "2"],
    ["char-eval", "--character={\"group\":\"q_plus\"}", "--r=-2/3", "--pretty"],
    ["expand", "--q", "-1/3", "--p", "2", "--k", "3"],
    ["valuation", "--q", "1", "--p", "2", "--q", "12"],
    ["expand", "--q", "1/3", "--p", "2", "--k", "3", "--pre"],
    # argparse drops a "--" value and stores []
    ["valuation", "--q=--", "--p", "2"],
    ["abs", "--adele=--"],
]


def transcript(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # main maps argparse's exits to codes; a leak still reports
        code = ("SystemExit", exc.code)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParsePaths:
    """A request goes to the plain reader first, then to its command's
    argparse parser, and then to the full parser; what it prints must match
    parsing with the full parser."""

    def test_both_paths_print_the_same(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        corpus = [argv for argv, _, _ in GOLDEN] + USAGE + ACCEPTED
        fast = [transcript(capsys, argv) for argv in corpus]
        monkeypatch.setattr(cli, "_parse_args", lambda argv: cli.build_parser().parse_args(argv))
        reference = [transcript(capsys, argv) for argv in corpus]
        for argv, got, want in zip(corpus, fast, reference):
            assert got == want, argv

    def test_requests_never_build_the_full_parser(self, capsys, monkeypatch):
        first = {}
        for argv, code, stdout in GOLDEN:
            if code == 0:
                first.setdefault(argv[0], (argv, stdout))
        assert set(first) == set(cli.COMMANDS)

        def refuse():
            raise AssertionError("built the full parser")

        monkeypatch.setattr(cli, "build_parser", refuse)
        for argv, stdout in first.values():
            assert transcript(capsys, argv) == (0, stdout, ""), argv

    def test_plain_requests_never_reach_argparse(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("reached argparse")

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refuse)
        for argv, code, stdout in GOLDEN:
            if code == 0:
                assert transcript(capsys, argv) == (0, stdout, ""), argv

    def full_parser_builds(self, monkeypatch, capsys, argvs):
        """Yield each argv with the number of full parsers it built."""
        calls = []
        full = cli.build_parser

        def counted():
            calls.append(1)
            return full()

        monkeypatch.setattr(cli, "build_parser", counted)
        for argv in argvs:
            calls.clear()
            transcript(capsys, argv)
            yield argv, len(calls)

    def test_a_command_prints_its_own_help_and_usage_errors(self, capsys, monkeypatch):
        for argv, builds in self.full_parser_builds(monkeypatch, capsys, COMMAND_USAGE):
            assert builds == 0, argv

    def test_no_command_or_leftovers_build_the_full_parser_once(self, capsys, monkeypatch):
        for argv, builds in self.full_parser_builds(monkeypatch, capsys, FALLBACK_USAGE):
            assert builds == 1, argv


GOOD_VALUES = ["2", "12", " 7"]  # each fits every flag
# values that are negative, empty or not ints, and tokens argparse may read
# as an option or as the "--" marker
ODD_VALUES = ["-1", "-40/9", "", "two", "--", "-h"]
STRAY_TOKENS = ["-h", "--help", "--", "extra", "-1", "--bogus", "--bogus=1", "-p"]
CHANGES = ["leave out", "repeat", "abbreviate", "odd value", "odd form"]


@st.composite
def command_argvs(draw):
    """A command followed by each of its flags once, switches bare and the
    others in the exact or the "=" form, with up to two changes: a flag left
    out, repeated or abbreviated, an odd value or form; and at times a stray
    token."""
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    flags = cli._command_parser(command).flags
    entries = [[name, draw(st.sampled_from(GOOD_VALUES)),
                "bare" if flags[name].nargs == 0 else draw(st.sampled_from(["exact", "joined"]))]
               for name in draw(st.permutations(list(flags)))]
    for change in draw(st.lists(st.sampled_from(CHANGES), max_size=2)):
        if not entries:
            break
        i = draw(st.integers(0, len(entries) - 1))
        name, value, form = entries[i]
        if change == "leave out":
            del entries[i]
        elif change == "repeat":
            entries.insert(draw(st.integers(0, len(entries))),
                           [name, draw(st.sampled_from(GOOD_VALUES + ODD_VALUES)), form])
        elif change == "abbreviate" and len(name) > 3:
            entries[i][0] = name[: draw(st.integers(3, len(name) - 1))]
        elif change == "odd value":
            entries[i][1] = draw(st.sampled_from(ODD_VALUES))
        elif change == "odd form":
            entries[i][2] = draw(st.sampled_from([f for f in ("exact", "joined", "bare") if f != form]))
    tokens = [token for name, value, form in entries
              for token in {"exact": [name, value], "joined": [f"{name}={value}"], "bare": [name]}[form]]
    if draw(st.integers(0, 4)) == 0:
        tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(STRAY_TOKENS)))
    return [command, *tokens]


class TestPlainReader:
    """The plain reader either declines an argv or builds the namespace that
    the command's argparse parser builds from it."""

    @given(argv=command_argvs())
    @settings(max_examples=400, deadline=None)
    def test_agrees_with_argparse(self, argv):
        got = cli._plain_args(argv)
        if got is not None:
            with contextlib.redirect_stderr(io.StringIO()):
                try:
                    args, rest = cli._command_parser(argv[0]).parse_known_args(argv[1:])
                except SystemExit:
                    raise AssertionError(f"argparse refuses {argv}") from None
            assert rest == [] and got == argparse.Namespace(command=argv[0], **vars(args))


class TestParserCache:
    """Each command's parser is built on its first request and kept."""

    def test_one_parser_per_command(self, capsys):
        cli._command_parser.cache_clear()
        try:
            for _ in range(2):
                for argv, code, stdout in GOLDEN:
                    assert transcript(capsys, argv)[:2] == (code, stdout), argv
            info = cli._command_parser.cache_info()
        finally:
            cli._command_parser.cache_clear()
        commands = {argv[0] for argv, _, _ in GOLDEN}
        assert info.misses == info.currsize == len(commands)  # one build per command

    def test_a_usage_error_leaves_the_cached_parser_as_it_was(self, capsys):
        request = ["witness", "--adele", CASE_ONE_ADELE, "--nbhd", CASE_ONE_NBHD]
        want = transcript(capsys, request)
        for bad in (request + ["--bogus", "1"], request[:3], ["witness", "-h"], request + ["--pretty=1"]):
            transcript(capsys, bad)
            assert transcript(capsys, request) == want, bad

    def test_threads_parse_as_a_serial_run_does(self):
        corpus = [argv for argv, _, stdout in GOLDEN if stdout] * 4  # not the usage error
        serial = [cli._parse_args(argv) for argv in corpus]
        cli._command_parser.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, inside argparse too
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                threaded = list(pool.map(cli._parse_args, corpus, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial

    def test_requests_leave_no_cyclic_garbage(self, capsys):
        requests = [["abs", "--adele", ADELE_38], ["abs", "--adele", "{"]]
        for argv in requests:
            main(argv)
        gc.collect()
        gc.disable()
        try:
            for argv in requests:
                for _ in range(200):
                    main(argv)
            assert gc.collect() == 0
        finally:
            gc.enable()
        capsys.readouterr()


TRANSCRIPTS = Path(__file__).resolve().parent / "cli_transcripts"


class TestUsageTranscripts:
    """The bytes argparse prints for help and usage errors, at 80 columns.

    To accept a deliberate change, rerun the command and overwrite its file,
    e.g. ``COLUMNS=80 PYTHONPATH=src python -m adelic.cli --help >
    tests/cli_transcripts/help.txt``.
    """

    @pytest.mark.parametrize(
        "argv, code, stream, name",
        [
            (["--help"], 0, "out", "help.txt"),
            (["witness", "--help"], 0, "out", "witness_help.txt"),
            (["witness", "--adele", CASE_ONE_ADELE], 1, "err", "witness_missing_nbhd.txt"),
        ],
    )
    def test_transcript(self, capsys, monkeypatch, argv, code, stream, name):
        monkeypatch.setenv("COLUMNS", "80")
        got_code, out, err = transcript(capsys, argv)
        expected = (TRANSCRIPTS / name).read_text()
        assert got_code == code
        assert (out, err) == ((expected, "") if stream == "out" else ("", expected))
