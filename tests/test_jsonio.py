import json
from fractions import Fraction

import pytest

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
        for bad in ["1.5", "1/0", " 2", "2/-3", "a", None, 1.5, True]:
            with pytest.raises(ValueError):
                jsonio.parse_rational(bad)


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
