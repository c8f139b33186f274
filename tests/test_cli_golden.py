"""Golden CLI transcripts: exit code and exact stdout of every subcommand.

Each case pins the bytes ``adele`` prints, so a change to the front end
that alters an answer, a key, the canonical JSON layout or an error code
fails here.  The subcommand list and each subcommand's flags are pinned
as well, so that ``adele --help`` keeps listing the same commands in the
same order.
"""

import argparse
import json

import pytest

from adelic.cli import build_parser, main


def doc(value):
    return json.dumps(value, separators=(",", ":"))


ONE = {"kind": "rational", "q": "1"}


def adele(explicit, default=ONE, real=None):
    value = {"explicit": explicit, "default": default}
    if real is not None:
        value["real"] = real
    return value


def ext(*members):
    return {"base": "extended", "kind": "finite", "members": list(members)}


def fin(*members):
    return {"base": "finite", "kind": "finite", "members": list(members)}


CASE_ONE_ADELE = doc(adele({"2": "0"}, real="1"))
CASE_ONE_NBHD = doc({"balls": {"3": {"center": "2", "radius_exponent": 1}}, "real_interval": ["5", "6"]})
SIX = {"kind": "rational", "q": "6"}

GOLDEN = [
    (
        ["valuation", "--q=-40/9", "--p", "3"],
        0,
        '{"valuation":-2}\n',
    ),
    (
        ["expand", "--q", "1/3", "--p", "2", "--k", "3"],
        0,
        '{"precision":3,"prime":"2","unit_residue":3,"valuation":0}\n',
    ),
    (
        ["zero-set", "--adele", doc(adele({"5": "1"}, default={"kind": "zero"}))],
        0,
        '{"zero_set":{"base":"finite","kind":"cofinite","members":["5"]}}\n',
    ),
    (
        ["abs", "--adele", doc(adele({"2": "8"}, real="3"))],
        0,
        '{"abs":"3/8"}\n',
    ),
    (
        ["factor", "--adele", doc(adele({"2": "6", "3": "6"}, default=SIX, real="-6"))],
        0,
        '{"r":"-6","unit":{"default":{"kind":"rational","q":"-1"},'
        '"explicit":{"2":"-1","3":"-1"},"real":"1"}}\n',
    ),
    (
        ["isotropy", "--adele", doc(adele({"2": "0"}))],
        0,
        '{"isotropy":"trivial"}\n',
    ),
    (
        ["orbit-closure", "--a", CASE_ONE_ADELE, "--b", doc(adele({"2": "0", "3": "0"}, real="1"))],
        0,
        '{"contains":true}\n',
    ),
    (
        ["quasi-orbit", "--a", doc(adele({"2": "4"})), "--b", doc(adele({"2": "1/2"}))],
        0,
        '{"same":true}\n',
    ),
    (
        ["chi", "--adele", doc(adele({"2": "-2"}, default={"kind": "rational", "q": "-2"}, real="-2"))],
        0,
        '{"kind":"unit_class","unit":{"default":{"kind":"rational","q":"1"},'
        '"explicit":{"2":"1"},"real":"1"}}\n',
    ),
    (
        ["witness", "--adele", CASE_ONE_ADELE, "--nbhd", CASE_ONE_NBHD, "--division"],
        0,
        '{"r":"4/23","verified":true}\n',
    ),
    (
        [
            "exact-witness",
            "--a", doc(adele({"2": "2"}, default={"kind": "rational", "q": "2"})),
            "--b", doc(adele({"2": "6", "3": "6"}, default=SIX)),
            "--division",
        ],
        0,
        '{"r":"1/3"}\n',
    ),
    (
        ["zero-divisor", "--adele", doc(adele({"3": "0"}))],
        0,
        '{"zero_divisor":true}\n',
    ),
    (
        ["pc-closure", "--points", doc([fin("2"), fin("2", "3"), ext("5", "inf")])],
        0,
        '{"closure":{"all_characters":false,"character_points":[],"unit_points":[],'
        '"up_sets":[{"base":"extended","kind":"finite","members":["5","inf"]},'
        '{"base":"finite","kind":"finite","members":["2"]}],"whole_space":false}}\n',
    ),
    (
        [
            "tau-closure",
            "--descriptor",
            doc(
                {
                    "atoms": [
                        {"kind": "prime_set_point", "set": ext("3", "inf")},
                        {"kind": "unit_point", "unit": adele({}, real="2")},
                        {
                            "kind": "unit_family",
                            "prefix": [adele({}, real="3"), adele({"2": "1"}, real="1/3")],
                            "inf_abs_zero": False,
                        },
                    ]
                }
            ),
        ],
        0,
        '{"closure":{"all_characters":false,"character_points":[],"unit_points":['
        '{"default":{"kind":"rational","q":"1"},"explicit":{"2":"1"},"real":"1/3"},'
        '{"default":{"kind":"rational","q":"1"},"explicit":{},"real":"2"},'
        '{"default":{"kind":"rational","q":"1"},"explicit":{},"real":"3"}],'
        '"up_sets":[{"base":"extended","kind":"finite","members":["3","inf"]}],"whole_space":false}}\n',
    ),
    (
        [
            "specializes",
            "--x", doc({"kind": "prime_set", "set": ext("2")}),
            "--y", doc({"kind": "unit_class", "unit": adele({}, real="1")}),
        ],
        0,
        '{"specializes":false}\n',
    ),
    (
        [
            "primcq-closure",
            "--descriptor",
            doc(
                {
                    "atoms": [
                        {"kind": "prime_set_point", "set": fin("7")},
                        {"kind": "character_point", "character": {"group": "q_plus", "prime_angles": {"2": "1/3"}}},
                    ]
                }
            ),
        ],
        0,
        '{"closure":{"all_characters":true,"character_points":[],"unit_points":[],'
        '"up_sets":[{"base":"finite","kind":"finite","members":["7"]}],"whole_space":false}}\n',
    ),
    (
        [
            "primfull-closure",
            "--descriptor",
            doc(
                {
                    "atoms": [
                        {"kind": "unit_point", "unit": adele({}, real="5")},
                        {
                            "kind": "character_point",
                            "character": {"group": "q_full", "prime_angles": {"3": "1/2"}, "sign_angle": "1/2"},
                        },
                    ]
                }
            ),
        ],
        0,
        '{"closure":{"all_characters":false,"character_points":['
        '{"group":"q_full","prime_angles":{"3":"1/2"},"sign_angle":"1/2"}],"unit_points":['
        '{"default":{"kind":"rational","q":"1"},"explicit":{},"real":"5"}],"up_sets":[],"whole_space":false}}\n',
    ),
    (
        [
            "prim-equal",
            "--left",
            doc(
                {
                    "set": {"base": "finite", "kind": "cofinite", "members": []},
                    "character": {"group": "q_plus", "prime_angles": {"2": "1/3"}},
                }
            ),
            "--right",
            doc(
                {
                    "set": {"base": "finite", "kind": "cofinite", "members": []},
                    "character": {"group": "q_plus", "prime_angles": {"2": "2/3"}},
                }
            ),
        ],
        0,
        '{"equal":false}\n',
    ),
    (
        [
            "char-eval",
            "--character", doc({"group": "q_full", "prime_angles": {"2": "1/4", "3": "1/3"}, "sign_angle": "1/2"}),
            "--r=-2/3",
        ],
        0,
        '{"angle":"5/12"}\n',
    ),
    (
        [
            "oracle-witness",
            "--adele", doc(adele({})),
            "--nbhd",
            doc({"balls": {"2": {"center": "0", "radius_exponent": 3}, "3": {"center": "1", "radius_exponent": 1}}}),
            "--height-bound", "100",
            "--prime-window", "2,3",
            "--precision", "2",
            "--division",
        ],
        0,
        '{"r":"1/16"}\n',
    ),
    (
        ["oracle-window", "--points", doc([fin("2")]), "--window", "2,3"],
        0,
        '{"closure":[{"base":"finite","kind":"finite","members":["2"]},'
        '{"base":"finite","kind":"finite","members":["2","3"]}]}\n',
    ),
    # --pretty
    (
        ["abs", "--adele", doc(adele({"2": "8"}, real="3")), "--pretty"],
        0,
        '{\n  "abs": "3/8"\n}\n',
    ),
    # usage error: a required flag is missing
    (
        ["witness", "--adele", CASE_ONE_ADELE],
        1,
        "",
    ),
    # malformed input
    (
        ["abs", "--adele", "{not json"],
        1,
        '{"error":{"code":"invalid_input","detail":'
        '"Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"}}\n',
    ),
    (
        ["chi", "--adele", doc(adele({}))],
        1,
        '{"error":{"code":"invalid_input","detail":"chi needs a full adele"}}\n',
    ),
    # domain errors
    (
        [
            "primcq-closure",
            "--descriptor",
            doc({"atoms": [{"kind": "character_point", "character": {"group": "q_full", "prime_angles": {}}}]}),
        ],
        2,
        '{"error":{"code":"malformed_descriptor","detail":"characters here live on the positive rationals"}}\n',
    ),
    (
        ["factor", "--adele", CASE_ONE_ADELE],
        2,
        '{"error":{"code":"not_invertible","detail":"only invertible full adeles factor through the units"}}\n',
    ),
]

SUBCOMMANDS = [
    ("valuation", "p-adic valuation of a rational"),
    ("expand", "truncated p-adic expansion of a rational"),
    ("zero-set", "set of places where an adele vanishes"),
    ("abs", "adelic absolute value of a full adele"),
    ("factor", "idele factorization a = r*u of an invertible adele"),
    ("isotropy", "isotropy of the scaling action at an adele"),
    ("orbit-closure", "does the orbit closure of a contain b"),
    ("quasi-orbit", "do a and b share their orbit closure"),
    ("chi", "quasi-orbit parameter point of a full adele"),
    ("witness", "construct r with r*a inside a neighbourhood"),
    ("exact-witness", "exact scaling r with r*a == b, if any"),
    ("zero-divisor", "is an integral finite adele a zero divisor"),
    ("pc-closure", "power-cofinite closure of a list of prime sets"),
    ("tau-closure", "closure in the quotient topology on prime sets and units"),
    ("specializes", "is y in the closure of the parameter point x"),
    ("primcq-closure", "closure in the finite-adele primitive space"),
    ("primfull-closure", "closure in the full-adele primitive space"),
    ("prim-equal", "identification of (prime set, character) pairs"),
    ("char-eval", "evaluate a character at a nonzero rational"),
    ("oracle-witness", "brute-force witness search by height"),
    ("oracle-window", "closure within a finite window of places"),
]

# (flag, required, default, type name) after --pretty, for each subcommand
REQUIRED = (True, None, None)
INT = (True, None, "int")
DIVISION = ("--division", False, False, None)
FLAGS = {
    "valuation": [("--q", *REQUIRED), ("--p", *INT)],
    "expand": [("--q", *REQUIRED), ("--p", *INT), ("--k", *INT)],
    "zero-set": [("--adele", *REQUIRED)],
    "abs": [("--adele", *REQUIRED)],
    "factor": [("--adele", *REQUIRED)],
    "isotropy": [("--adele", *REQUIRED)],
    "orbit-closure": [("--a", *REQUIRED), ("--b", *REQUIRED)],
    "quasi-orbit": [("--a", *REQUIRED), ("--b", *REQUIRED)],
    "chi": [("--adele", *REQUIRED)],
    "witness": [("--adele", *REQUIRED), ("--nbhd", *REQUIRED), DIVISION],
    "exact-witness": [("--a", *REQUIRED), ("--b", *REQUIRED), DIVISION],
    "zero-divisor": [("--adele", *REQUIRED)],
    "pc-closure": [("--points", *REQUIRED)],
    "tau-closure": [("--descriptor", *REQUIRED)],
    "specializes": [("--x", *REQUIRED), ("--y", *REQUIRED)],
    "primcq-closure": [("--descriptor", *REQUIRED)],
    "primfull-closure": [("--descriptor", *REQUIRED)],
    "prim-equal": [("--left", *REQUIRED), ("--right", *REQUIRED)],
    "char-eval": [("--character", *REQUIRED), ("--r", *REQUIRED)],
    "oracle-witness": [
        ("--adele", *REQUIRED),
        ("--nbhd", *REQUIRED),
        ("--height-bound", False, 1000, "int"),
        ("--prime-window", False, "2,3,5,7,11,13", None),
        ("--precision", False, 3, "int"),
        DIVISION,
    ],
    "oracle-window": [("--points", *REQUIRED), ("--window", *REQUIRED)],
}


@pytest.mark.parametrize("argv, code, stdout", GOLDEN, ids=[f"{i:02d}-{c[0][0]}" for i, c in enumerate(GOLDEN)])
def test_golden(capsys, argv, code, stdout):
    assert main(argv) == code
    assert capsys.readouterr().out == stdout


def test_every_subcommand_has_a_golden_case():
    assert {argv[0] for argv, _, _ in GOLDEN} == {name for name, _ in SUBCOMMANDS}


def test_subcommands_and_flags():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert [(c.dest, c.help) for c in sub._choices_actions] == SUBCOMMANDS
    for name, subparser in sub.choices.items():
        flags = [
            (a.option_strings[0], a.required, a.default, a.type.__name__ if a.type else None)
            for a in subparser._actions
            if a.option_strings != ["-h", "--help"]
        ]
        assert flags == [("--pretty", False, False, None)] + FLAGS[name], name
