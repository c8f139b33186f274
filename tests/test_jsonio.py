import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adelic import jsonio
from adelic.cli import main
from adelic.adele import (
    DefaultSpec,
    EXTENDED_PRIMES,
    FiniteAdele,
    FullAdele,
    Neighbourhood,
    PrimeSet,
    UnitIdele,
    embed_rational,
)
from adelic.padic import INFINITY, PadicBall
from adelic.primtop import (
    ALL_CHARACTERS,
    Character,
    CharacterPoint,
    PrimeSetPoint,
    Q_FULL,
    SetDescriptor,
    SingletonFamily,
    UnitFamily,
    UnitPoint,
    prim_full_closure,
)

F = Fraction


class TestRationals:
    def test_parse_and_dump(self):
        assert jsonio.parse_rational("5/9") == F(5, 9)
        assert jsonio.parse_rational("-3") == -3
        assert jsonio.dump_rational(F(10, 4)) == "5/2"
        assert jsonio.dump_rational(F(6)) == "6"

    def test_rejects_sloppy_forms(self):
        for bad in ["1.5", "1/0", " 2", "2/-3", "a", "\u0663", "3\n", None, 1.5, True,
                    "03", "+3", "-0", "-0/7", "2/4", "3/1"]:
            with pytest.raises(ValueError):
                jsonio.parse_rational(bad)
        # a prime has one spelling, so two JSON keys never name the same prime
        for bad in ["02", "\u0662", "+2", " 2", "2\n", "0"]:
            with pytest.raises(ValueError):
                jsonio.parse_prime(bad)


def _fraction_parse_rational(text):
    """The former definition: ``Fraction(text)``, kept only when it prints back as ``text``."""
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if isinstance(text, str) and re.fullmatch(r"[+-]?[0-9]+(/[1-9][0-9]*)?", text):
        q = Fraction(text)
        if jsonio.dump_rational(q) == text:
            return q
    raise ValueError(f"not a canonical rational: {text!r}")


def _outcome(parse, text):
    try:
        q = parse(text)
    except ValueError as exc:
        return "error", str(exc)
    return type(q), q


# digits with leading zeros, other scripts' digits and stray characters
_DIGITS = st.text(alphabet="0123456789", min_size=1, max_size=6) | st.sampled_from(["0", "00", "1", "01"])
_ODD = st.text(alphabet="019+-/ \n\u0663\u0661\uff11", max_size=6)
_SPELLED = st.builds(
    lambda sign, n, den: sign + n + ("" if den is None else "/" + den),
    st.sampled_from(["", "+", "-"]),
    _DIGITS | _ODD,
    st.none() | _DIGITS | _ODD,
)
_ANY = _SPELLED | _ODD | st.integers() | st.booleans() | st.floats() | st.none() | st.lists(st.integers(), max_size=2)


class TestParseRationalDifferential:
    """``parse_rational`` reads integers where it once printed a Fraction
    back; every input must give the same value or the same error text."""

    @given(_ANY)
    @settings(max_examples=500)
    def test_matches_the_fraction_round_trip(self, text):
        assert _outcome(jsonio.parse_rational, text) == _outcome(_fraction_parse_rational, text)

    @pytest.mark.parametrize("n, d", [(0, 1), (0, 7), (6, 4), (-6, 4), (5, 1), (-5, 3), (1, 12)])
    def test_pairs(self, n, d):
        for text in (f"{n}/{d}", f"+{n}/{d}", f"0{n}/{d}", f"{n}/0{d}", str(n)):
            assert _outcome(jsonio.parse_rational, text) == _outcome(_fraction_parse_rational, text)

    def test_past_the_digit_limit(self):
        long = "1" * 4301
        for text in (long, "-" + long, "+" + long, "0" + long, "1/" + long, long + "/" + long + "1"):
            got = _outcome(jsonio.parse_rational, text)
            assert got == _outcome(_fraction_parse_rational, text)
            assert got[0] == "error" and "Exceeds the limit (4300 digits)" in got[1]
        assert jsonio.parse_rational("1" * 4300) == int("1" * 4300)


class TestAdeleRoundTrip:
    def test_finite(self):
        a = FiniteAdele({2: F(0), 3: F(5, 9)}, DefaultSpec.rational(1))
        assert jsonio.parse_adele(jsonio.dump_adele(a)) == a

    def test_full(self):
        a = embed_rational(F(-7, 2), kind="full")
        assert jsonio.parse_adele(jsonio.dump_adele(a)) == a

    def test_spec_schema_shape(self):
        doc = json.loads(
            '{"explicit": {"2": "0", "3": "5/9"}, "default": {"kind": "rational", "q": "1"}, "real": "6"}'
        )
        a = jsonio.parse_adele(doc)
        assert isinstance(a, FullAdele)
        assert a.component(3) == F(5, 9)
        assert jsonio.dump_adele(a) == doc

    def test_times_p(self):
        a = FiniteAdele({}, DefaultSpec.times_p(1))
        assert jsonio.parse_adele(jsonio.dump_adele(a)) == a


class TestOtherRoundTrips:
    def test_prime_set_with_infinity(self):
        s = PrimeSet.cofinite({2, INFINITY}, base=EXTENDED_PRIMES)
        assert jsonio.parse_prime_set(jsonio.dump_prime_set(s)) == s

    def test_neighbourhood(self):
        v = Neighbourhood(
            {2: PadicBall(2, F(1, 2), -1), 5: PadicBall(5, F(3), 2)},
            real_interval=(F(-1), F(1, 3)),
        )
        w = jsonio.parse_neighbourhood(jsonio.dump_neighbourhood(v))
        assert w == v

    def test_character(self):
        c = Character(Q_FULL, {2: F(1, 4)}, sign_angle=F(1, 2))
        assert jsonio.parse_character(jsonio.dump_character(c)) == c

    def test_descriptor_and_closure(self):
        u = UnitIdele(FiniteAdele({}, DefaultSpec.rational(1)), F(2))
        desc = SetDescriptor.of(
            PrimeSetPoint(PrimeSet.finite({2}, base=EXTENDED_PRIMES)),
            UnitPoint(u),
            CharacterPoint(Character(Q_FULL, {3: F(1, 3)})),
            ALL_CHARACTERS,
        )
        doc = {
            "atoms": [
                {"kind": "prime_set_point", "set": {"base": "extended", "kind": "finite", "members": ["2"]}},
                {"kind": "unit_point", "unit": jsonio.dump_adele(u)},
                {"kind": "character_point", "character": {"group": "q_full", "prime_angles": {"3": "1/3"}, "sign_angle": "0"}},
                {"kind": "all_characters"},
            ]
        }
        parsed = jsonio.parse_descriptor(doc)
        closed = prim_full_closure(parsed)
        reference = prim_full_closure(desc)
        assert closed == reference
        dumped = jsonio.dump_closed_descriptor(closed)
        assert dumped["all_characters"] is True or dumped["whole_space"]

    def test_unit_family_descriptor(self):
        def unit(real):
            return UnitIdele(FiniteAdele({}, DefaultSpec.rational(1)), real)

        doc = {
            "atoms": [
                {
                    "kind": "unit_family",
                    "prefix": [jsonio.dump_adele(unit(F(1, 2))), jsonio.dump_adele(unit(F(1, 3)))],
                    "inf_abs_zero": True,
                }
            ]
        }
        parsed = jsonio.parse_descriptor(doc)
        assert isinstance(parsed.atoms[0], UnitFamily)
        assert prim_full_closure(parsed).whole_space

    def test_unknown_atom_rejected(self):
        with pytest.raises(ValueError):
            jsonio.parse_descriptor({"atoms": [{"kind": "mystery"}]})


ONE = {"kind": "rational", "q": "1"}
WRONG_CONTAINERS = [
    # a list where an object belongs used to escape as AttributeError
    (jsonio.parse_adele, {"explicit": [], "default": ONE}),
    (jsonio.parse_neighbourhood, {"balls": [1]}),
    (jsonio.parse_character, {"group": "q_plus", "prime_angles": [["2", "1/2"]]}),
    # a string or object where a list belongs used to be read as its characters or keys
    (jsonio.parse_prime_set, {"base": "finite", "kind": "finite", "members": "23"}),
    (jsonio.parse_prime_set, {"base": "finite", "kind": "finite", "members": {"2": 1}}),
    (jsonio.parse_descriptor, {"atoms": [{"kind": "singleton_family", "excluded": "23"}]}),
    (jsonio.parse_descriptor, {"atoms": [{"kind": "singleton_family", "excluded": {"2": 1}}]}),
]


@pytest.mark.parametrize("parse, doc", WRONG_CONTAINERS)
def test_wrong_container_type_rejected(parse, doc):
    with pytest.raises(ValueError):
        parse(doc)


def test_wrong_container_type_is_invalid_input_on_the_cli(capsys):
    assert main(["abs", "--adele", json.dumps({"explicit": [], "default": ONE, "real": "1"})]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "error": {"code": "invalid_input", "detail": "explicit must be a JSON object, got list"}
    }


RATIONAL_ONE = {"kind": "rational", "q": "1"}
INPUT_CHECKS = [
    pytest.param(lambda: jsonio.parse_default({"kind": "zero", "q": "1"}), "zero default carries no rational",
                 id="zero-default-with-q"),
    pytest.param(lambda: jsonio.parse_default({"kind": "bogus"}), "unknown default kind 'bogus'", id="default-kind"),
    # q is read before the kind is judged, so a bad q is reported first
    pytest.param(lambda: jsonio.parse_default({"kind": "zero", "q": None}), "not a canonical rational: None",
                 id="zero-default-with-null-q"),
    pytest.param(lambda: jsonio.parse_default({"kind": "bogus", "q": "x"}), "not a canonical rational: 'x'",
                 id="default-kind-and-q"),
    pytest.param(lambda: jsonio.parse_unit_idele({"explicit": {}, "default": RATIONAL_ONE}),
                 "a unit idele needs a real part", id="unit-without-real"),
    pytest.param(lambda: jsonio.parse_neighbourhood({"balls": {}, "real_interval": ["0"]}),
                 "real_interval must be a two-element list", id="interval-length"),
    pytest.param(lambda: jsonio.parse_neighbourhood({"balls": {}, "real_interval": "0"}),
                 "real_interval must be a two-element list", id="interval-not-list"),
    pytest.param(lambda: jsonio.parse_parameter_point({"kind": "bogus"}), "unknown parameter point kind 'bogus'",
                 id="point-kind"),
    pytest.param(lambda: jsonio.parse_descriptor({"atoms": [{}]}), "each atom needs a kind", id="atom-kind"),
    pytest.param(lambda: jsonio.parse_descriptor({"atoms": [{"kind": "unit_family", "prefix": [], "inf_abs_zero": 1}]}),
                 "inf_abs_zero must be a boolean", id="inf-abs-zero"),
    pytest.param(lambda: jsonio.parse_prime_set_list({}), "expected a JSON list of prime sets", id="points-list"),
    pytest.param(lambda: jsonio.parse_adele([]), "expected a JSON object, got list", id="non-object"),
]


class TestInputChecks:
    @pytest.mark.parametrize("call, message", INPUT_CHECKS)
    def test_rejects(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert type(info.value) is ValueError and str(info.value) == message

    def test_zero_default_round_trip(self):
        doc = {"kind": "zero"}
        assert jsonio.parse_default(doc) == DefaultSpec.zero()
        assert jsonio.dump_default(jsonio.parse_default(doc)) == doc
