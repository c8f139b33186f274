from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from adelic.adele import (
    EXTENDED_PRIMES,
    DefaultSpec,
    FiniteAdele,
    PrimeSet,
    UnitIdele,
    embed_rational,
)
from adelic.errors import (
    ImproperPoint,
    MalformedDescriptor,
    NegativeForQPlus,
)
from adelic.padic import INFINITY, Prime
from adelic.primtop import (
    ALL_CHARACTERS,
    Q_FULL,
    Q_PLUS,
    Character,
    CharacterPoint,
    ClosedSetDescriptor,
    PrimeSetPoint,
    SetDescriptor,
    SingletonFamily,
    UnitFamily,
    UnitPoint,
    WHOLE_SPACE,
    character_eval,
    closed_contains_atom,
    pc_basic_open,
    pc_closure,
    pc_dense,
    point_specializes,
    prim_equal,
    prim_full_closure,
    primcq_closure,
    tau_closure,
)
from adelic.quasiorbit import ParameterPoint, chi

F = Fraction


def unit(real=1, explicit=None):
    return UnitIdele(FiniteAdele(explicit or {}, DefaultSpec.rational(1)), F(real))


def ext(*members):
    return PrimeSet.finite(members, base=EXTENDED_PRIMES)


def fin(*members):
    return PrimeSet.finite(members)


class TestCharacter:
    def test_normalization(self):
        c = Character(Q_PLUS, {2: F(5, 4), 3: F(0)})
        assert c.prime_angles == ((Prime(2), F(1, 4)),)
        assert c.angle_at(3) == 0

    def test_sign_angle_rules(self):
        Character(Q_FULL, {}, sign_angle=F(1, 2))
        with pytest.raises(ValueError):
            Character(Q_PLUS, {}, sign_angle=F(1, 2))
        with pytest.raises(ValueError):
            Character(Q_FULL, {}, sign_angle=F(1, 3))

    def test_eval_examples(self):
        c = Character(Q_PLUS, {2: F(1, 2)})
        assert character_eval(c, 4) == 0
        assert character_eval(c, 1) == 0
        d = Character(Q_PLUS, {2: F(1, 4), 3: F(1, 3)})
        assert character_eval(d, F(2, 3)) == F(11, 12)

    def test_sign_evaluation(self):
        c = Character(Q_FULL, {}, sign_angle=F(1, 2))
        assert character_eval(c, -1) == F(1, 2)
        assert character_eval(c, 1) == 0

    def test_negative_rejected_on_q_plus(self):
        with pytest.raises(NegativeForQPlus):
            character_eval(Character(Q_PLUS, {}), -2)

    @given(
        st.fractions(min_value=F(-30), max_value=F(30), max_denominator=12).filter(lambda q: q != 0),
        st.fractions(min_value=F(-30), max_value=F(30), max_denominator=12).filter(lambda q: q != 0),
    )
    def test_homomorphism(self, r, s):
        c = Character(Q_FULL, {2: F(1, 4), 5: F(2, 3)}, sign_angle=F(1, 2))
        lhs = character_eval(c, r * s)
        rhs = (character_eval(c, r) + character_eval(c, s)) % 1
        assert lhs == rhs


class TestBasicOpens:
    def test_examples(self):
        assert pc_basic_open([])(fin(2, 3))
        u2 = pc_basic_open([2])
        assert u2(fin(3, 5))
        assert not u2(fin(2))
        assert not u2(PrimeSet.cofinite({3}))  # cofinite sets meet {2}

    @given(
        st.frozensets(st.sampled_from([2, 3, 5, 7]), max_size=3),
        st.frozensets(st.sampled_from([2, 3, 5, 7]), max_size=3),
        st.frozensets(st.sampled_from([2, 3, 5, 7, 11]), max_size=4),
    )
    def test_intersection_law(self, g, h, t_members):
        t = fin(*t_members)
        lhs = pc_basic_open(g)(t) and pc_basic_open(h)(t)
        assert lhs == pc_basic_open(g | h)(t)


class TestPcClosure:
    def test_point_closure_is_up_set(self):
        closed = pc_closure([fin(2)])
        assert closed.up_sets == (fin(2),)
        assert closed_contains_atom(closed, PrimeSetPoint(fin(2, 3)))
        assert not closed_contains_atom(closed, PrimeSetPoint(fin(3)))

    def test_empty_input(self):
        assert pc_closure([]).is_empty

    def test_empty_set_point_covers_everything(self):
        closed = pc_closure([fin()])
        assert closed.up_sets == (fin(),)
        assert closed_contains_atom(closed, PrimeSetPoint(fin(5, 11)))
        assert closed_contains_atom(closed, PrimeSetPoint(PrimeSet.cofinite({2})))

    def test_absorption(self):
        closed = pc_closure([fin(2), fin(2, 3), fin(5)])
        assert closed.up_sets == (fin(2), fin(5))

    def test_family_closes_to_everything(self):
        closed = pc_closure(SetDescriptor.of(SingletonFamily(frozenset({2}))))
        assert closed.up_sets == (ext(),)

    def test_rejects_units(self):
        with pytest.raises(MalformedDescriptor):
            pc_closure(SetDescriptor.of(UnitPoint(unit())))


class TestPcDense:
    def test_examples(self):
        assert pc_dense([fin()])
        assert not pc_dense([fin(2), fin(3)])
        assert pc_dense(SetDescriptor.of(SingletonFamily(frozenset({2}))))

    def test_rejects_characters(self):
        with pytest.raises(MalformedDescriptor):
            pc_dense(SetDescriptor.of(CharacterPoint(Character(Q_PLUS, {}))))


class TestTauClosure:
    def test_prime_point(self):
        closed = tau_closure([ext(2)])
        assert closed.up_sets == (ext(2),)
        assert not closed.whole_space

    def test_dense_prime_part(self):
        assert tau_closure([ext()]) == WHOLE_SPACE

    def test_unit_points_are_closed(self):
        u = unit(3)
        closed = tau_closure(SetDescriptor.of(UnitPoint(u)))
        assert closed.unit_points == (u,)
        assert not closed.whole_space

    def test_accumulating_family_is_dense(self):
        prefix = tuple(unit(F(1, p)) for p in (2, 3, 5))
        closed = tau_closure(SetDescriptor.of(UnitFamily(prefix, inf_abs_zero=True)))
        assert closed == WHOLE_SPACE

    def test_unflagged_family_stands_for_its_prefix(self):
        prefix = (unit(2), unit(3))
        closed = tau_closure(SetDescriptor.of(UnitFamily(prefix)))
        assert len(closed.unit_points) == 2

    def test_family_flag_needs_decreasing_prefix(self):
        with pytest.raises(ValueError):
            UnitFamily((unit(1), unit(2)), inf_abs_zero=True)
        with pytest.raises(ValueError):
            UnitFamily((unit(1),), inf_abs_zero=True)

    def test_rejects_characters(self):
        with pytest.raises(MalformedDescriptor):
            tau_closure(SetDescriptor.of(CharacterPoint(Character(Q_PLUS, {}))))

    def test_rejects_finite_base(self):
        with pytest.raises(MalformedDescriptor):
            tau_closure([fin(2)])

    def test_idempotent_on_closed_input(self):
        closed = tau_closure([ext(2), ext(3, INFINITY)])
        assert tau_closure(closed) == closed


class TestPointSpecializes:
    def test_supersets(self):
        x = ParameterPoint.of_prime_set(ext(2))
        y = ParameterPoint.of_prime_set(ext(2, 3))
        assert point_specializes(x, y)
        assert not point_specializes(y, x)

    def test_empty_set_is_dense(self):
        x = ParameterPoint.of_prime_set(ext())
        u = ParameterPoint.of_unit(unit())
        assert point_specializes(x, u)
        assert point_specializes(x, x)

    def test_units_specialize_only_to_themselves(self):
        u = ParameterPoint.of_unit(unit())
        v = ParameterPoint.of_unit(unit(explicit={2: F(3)}))
        assert point_specializes(u, u)
        assert not point_specializes(u, v)
        assert not point_specializes(u, ParameterPoint.of_prime_set(ext(2)))

    def test_preorder_on_samples(self):
        points = [
            ParameterPoint.of_prime_set(ext(*m))
            for m in [(), (2,), (3,), (2, 3), (2, 3, INFINITY)]
        ] + [ParameterPoint.of_unit(unit())]
        for x in points:
            assert point_specializes(x, x)
        for x in points:
            for y in points:
                for z in points:
                    if point_specializes(x, y) and point_specializes(y, z):
                        assert point_specializes(x, z)


class TestPrimCqClosure:
    def test_prime_point_drags_in_characters(self):
        closed = primcq_closure([fin(2)])
        assert closed.up_sets == (fin(2),)
        assert closed.all_characters
        assert not closed.whole_space

    def test_character_list_is_closed(self):
        c = Character(Q_PLUS, {2: F(1, 2)})
        closed = primcq_closure(SetDescriptor.of(CharacterPoint(c)))
        assert closed.character_points == (c,)
        assert not closed.all_characters

    def test_all_characters_is_closed(self):
        closed = primcq_closure(SetDescriptor.of(ALL_CHARACTERS))
        assert closed.all_characters and not closed.up_sets

    def test_empty(self):
        assert primcq_closure([]).is_empty

    def test_dense_prime_part_covers_space(self):
        assert primcq_closure([fin()]) == WHOLE_SPACE

    def test_improper_point_rejected(self):
        with pytest.raises(ImproperPoint):
            primcq_closure([PrimeSet.cofinite()])

    def test_wrong_group_rejected(self):
        with pytest.raises(MalformedDescriptor):
            primcq_closure(SetDescriptor.of(CharacterPoint(Character(Q_FULL, {}))))

    def test_units_rejected(self):
        with pytest.raises(MalformedDescriptor):
            primcq_closure(SetDescriptor.of(UnitPoint(unit())))


class TestPrimFullClosure:
    def test_prime_point(self):
        closed = prim_full_closure([ext(2)])
        assert closed.up_sets == (ext(2),)
        assert closed.all_characters
        assert not closed.unit_points

    def test_unit_point_is_closed_alone(self):
        u = unit(5)
        closed = prim_full_closure(SetDescriptor.of(UnitPoint(u)))
        assert closed.unit_points == (u,)
        assert not closed.all_characters

    def test_accumulating_family(self):
        prefix = tuple(unit(F(1, p)) for p in (2, 3, 5))
        closed = prim_full_closure(
            SetDescriptor.of(UnitFamily(prefix, inf_abs_zero=True))
        )
        assert closed == WHOLE_SPACE

    def test_character_group_must_be_full(self):
        with pytest.raises(MalformedDescriptor):
            prim_full_closure(SetDescriptor.of(CharacterPoint(Character(Q_PLUS, {}))))

    def test_improper_extended_point(self):
        with pytest.raises(ImproperPoint):
            prim_full_closure([PrimeSet.cofinite((), base=EXTENDED_PRIMES)])

    def test_base_must_be_extended(self):
        with pytest.raises(MalformedDescriptor):
            prim_full_closure([fin(2)])


class TestPrimEqual:
    def c(self, **angles):
        return Character(Q_PLUS, {Prime(int(k)): v for k, v in angles.items()})

    def test_characters_collapse_off_the_full_set(self):
        s = fin(2)
        g1 = Character(Q_PLUS, {2: F(1, 3)})
        g2 = Character(Q_PLUS, {2: F(2, 3)})
        assert prim_equal((s, g1), (s, g2))

    def test_full_set_separates_characters(self):
        whole = PrimeSet.cofinite()
        g1 = Character(Q_PLUS, {2: F(1, 3)})
        g2 = Character(Q_PLUS, {2: F(2, 3)})
        assert not prim_equal((whole, g1), (whole, g2))
        assert prim_equal((whole, g1), (whole, g1))

    def test_identical_pairs(self):
        pair = (fin(3, 5), Character(Q_PLUS, {}))
        assert prim_equal(pair, pair)

    def test_distinct_sets_differ(self):
        g = Character(Q_PLUS, {})
        assert not prim_equal((fin(2), g), (fin(3), g))


def _random_closed_pairs():
    """Small pool of descriptors exercising canonical equality."""
    c1 = Character(Q_PLUS, {2: F(1, 2)})
    c2 = Character(Q_PLUS, {3: F(1, 3)})
    return [
        SetDescriptor.of(PrimeSetPoint(fin(2)), CharacterPoint(c1)),
        SetDescriptor.of(PrimeSetPoint(fin(2)), PrimeSetPoint(fin(2, 3))),
        SetDescriptor.of(CharacterPoint(c1), CharacterPoint(c2)),
        SetDescriptor.of(ALL_CHARACTERS, CharacterPoint(c2)),
        SetDescriptor.of(),
    ]


class TestKuratowskiSpotChecks:
    def test_primcq_axioms_on_pool(self):
        pool = _random_closed_pairs()
        assert primcq_closure(SetDescriptor.of()).is_empty
        for a in pool:
            ca = primcq_closure(a)
            for atom in a.atoms:
                assert closed_contains_atom(ca, atom)
            assert primcq_closure(ca) == ca
            for b in pool:
                union = primcq_closure(a.union(b))
                assert union == ca.union(primcq_closure(b))

    def test_canonical_equality_ignores_order_and_duplicates(self):
        left = ClosedSetDescriptor(up_sets=(fin(2), fin(3), fin(2)))
        right = ClosedSetDescriptor(up_sets=(fin(3), fin(2)))
        assert left == right

    def test_whole_space_absorbs(self):
        c = ClosedSetDescriptor(up_sets=(fin(2),))
        assert c.union(WHOLE_SPACE) == WHOLE_SPACE


class TestSpecializationAntisymmetry:
    def test_antisymmetric_on_parameter_points(self):
        points = [
            ParameterPoint.of_prime_set(ext(*m))
            for m in [(), (2,), (3,), (2, 3), (INFINITY,)]
        ] + [
            ParameterPoint.of_unit(unit()),
            ParameterPoint.of_unit(unit(2)),
        ]
        for x in points:
            for y in points:
                if point_specializes(x, y) and point_specializes(y, x):
                    assert x == y


def _closed_form(atoms):
    """The same points as a closed description."""
    return ClosedSetDescriptor(
        up_sets=tuple(a.point for a in atoms if isinstance(a, PrimeSetPoint)),
        unit_points=tuple(a.unit for a in atoms if isinstance(a, UnitPoint)),
        character_points=tuple(a.character for a in atoms if isinstance(a, CharacterPoint)),
        all_characters=ALL_CHARACTERS in atoms,
    )


BAD_INPUT = [
    (pc_closure, [UnitPoint(unit())], MalformedDescriptor),
    (pc_closure, [CharacterPoint(Character(Q_PLUS, {}))], MalformedDescriptor),
    (tau_closure, [PrimeSetPoint(fin(2))], MalformedDescriptor),
    (tau_closure, [CharacterPoint(Character(Q_FULL, {}))], MalformedDescriptor),
    (tau_closure, [ALL_CHARACTERS], MalformedDescriptor),
    (primcq_closure, [PrimeSetPoint(ext(2))], MalformedDescriptor),
    (primcq_closure, [PrimeSetPoint(PrimeSet.cofinite())], ImproperPoint),
    (primcq_closure, [CharacterPoint(Character(Q_FULL, {}))], MalformedDescriptor),
    (primcq_closure, [UnitPoint(unit())], MalformedDescriptor),
    (prim_full_closure, [PrimeSetPoint(fin(2))], MalformedDescriptor),
    (prim_full_closure, [PrimeSetPoint(PrimeSet.cofinite((), base=EXTENDED_PRIMES))], ImproperPoint),
    (prim_full_closure, [CharacterPoint(Character(Q_PLUS, {}))], MalformedDescriptor),
    # mixed-bad input: atom kinds, then base, then properness, then the group
    (primcq_closure, [UnitPoint(unit()), PrimeSetPoint(PrimeSet.cofinite())], MalformedDescriptor),
    (primcq_closure, [PrimeSetPoint(PrimeSet.cofinite((), base=EXTENDED_PRIMES))], MalformedDescriptor),
    (primcq_closure, [PrimeSetPoint(PrimeSet.cofinite()), CharacterPoint(Character(Q_FULL, {}))], ImproperPoint),
]


@pytest.mark.parametrize("closure, atoms, error", BAD_INPUT)
def test_closed_input_is_validated_like_atoms(closure, atoms, error):
    with pytest.raises(error):
        closure(SetDescriptor(tuple(atoms)))
    with pytest.raises(error):
        closure(_closed_form(atoms))
