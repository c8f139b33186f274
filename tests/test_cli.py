import json
import os
import subprocess
import sys
from fractions import Fraction

import adelic
from adelic.cli import main

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


class TestErrorHandling:
    def test_malformed_json_is_exit_one(self, capsys):
        code, doc = invoke(capsys, "abs", "--adele", "{not json")
        assert code == 1 and doc["error"]["code"] == "invalid_input"

    def test_unknown_keys_rejected(self, capsys):
        bad = json.dumps({"explicit": {}, "default": {"kind": "zero"}, "bogus": 1})
        code, doc = invoke(capsys, "zero-set", "--adele", bad)
        assert code == 1 and doc["error"]["code"] == "invalid_input"

    def test_composite_prime_rejected(self, capsys):
        code, doc = invoke(capsys, "valuation", "--q", "1", "--p", "4")
        assert code == 1 and doc["error"]["code"] == "invalid_input"

    def test_not_invertible_is_domain_error(self, capsys):
        adele = json.dumps(
            {"explicit": {"2": "0"}, "default": {"kind": "rational", "q": "1"}, "real": "1"}
        )
        code, doc = invoke(capsys, "factor", "--adele", adele)
        assert code == 2 and doc["error"]["code"] == "not_invertible"

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
