"""Tests for exact rationals and the game data model."""

from __future__ import annotations

import copy
import dataclasses
import inspect
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bimatrix.core import (
    Game,
    InvalidGameError,
    MixedProfile,
    PureProfile,
    Record,
    as_rat,
    make_game,
    payoff,
    rat,
    validate_game,
)
from bimatrix.dilemma import (
    Ambiguous,
    Mixture,
    MixtureCheck,
    PdParams,
    SweepRow,
    classical_pd,
    generalized_pd,
)
from bimatrix.equilibrium import DominanceFact, EquilibriumReport
from bimatrix.formats import GameDocument

from helpers import random_game

ints = st.integers(-60, 60)
nonzero = st.integers(-60, 60).filter(lambda n: n != 0)


class TestRat:
    def test_reduces_to_lowest_terms(self):
        half = rat(2, 4)
        assert half == Fraction(1, 2)
        assert (half.numerator, half.denominator) == (1, 2)

    def test_integer_embedding(self):
        value = rat(-4, 1)
        assert value == Fraction(-4)
        assert (value.numerator, value.denominator) == (-4, 1)

    def test_sign_carried_on_numerator(self):
        value = rat(3, -6)
        assert value == Fraction(-1, 2)
        assert (value.numerator, value.denominator) == (-1, 2)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            rat(1, 0)

    def test_float_components_rejected(self):
        with pytest.raises(TypeError):
            rat(1.5)  # type: ignore[arg-type]
        with pytest.raises(TypeError):
            as_rat(0.25)  # type: ignore[arg-type]
        with pytest.raises(TypeError):
            as_rat(True)  # type: ignore[arg-type]
        with pytest.raises(TypeError):
            rat(True, 2)

    @given(a=ints, b=nonzero, c=ints, d=nonzero)
    def test_addition_matches_cross_multiplication(self, a, b, c, d):
        assert rat(a, b) + rat(c, d) == rat(a * d + c * b, b * d)

    @given(a=ints, b=nonzero, c=ints, d=nonzero)
    def test_multiplication_matches_cross_multiplication(self, a, b, c, d):
        assert rat(a, b) * rat(c, d) == rat(a * c, b * d)

    @given(a=ints, b=nonzero)
    def test_negation_matches_integer_semantics(self, a, b):
        assert -rat(a, b) == rat(-a, b)

    @given(a=ints, b=nonzero, c=ints, d=nonzero)
    def test_comparison_matches_cross_multiplication(self, a, b, c, d):
        assert (rat(a, b) < rat(c, d)) == ((a * d - c * b) * (b * d) < 0)

    @given(a=ints, b=nonzero, c=ints, d=nonzero)
    def test_arithmetic_keeps_canonical_form(self, a, b, c, d):
        import math

        for value in (rat(a, b) + rat(c, d), rat(a, b) * rat(c, d), -rat(a, b)):
            assert value.denominator >= 1
            assert math.gcd(abs(value.numerator), value.denominator) == 1


class TestPayoff:
    def test_classical_pd_mutual_defection(self):
        g = classical_pd()
        assert payoff(g, 1, PureProfile(1, 1)) == Fraction(-4)

    def test_classical_pd_sucker_payoff(self):
        g = classical_pd()
        assert payoff(g, 2, PureProfile(1, 0)) == Fraction(-5)

    def test_single_entry_game(self):
        g = make_game(["only"], ["only"], [[7]], [[7]])
        assert payoff(g, 1, PureProfile(0, 0)) == 7

    def test_out_of_range_profile(self):
        g = classical_pd()
        with pytest.raises(IndexError):
            payoff(g, 1, PureProfile(2, 0))
        with pytest.raises(IndexError):
            payoff(g, 2, PureProfile(0, -1))

    def test_bad_player(self):
        with pytest.raises(ValueError):
            payoff(classical_pd(), 3, PureProfile(0, 0))  # type: ignore[arg-type]

    def test_bool_player_refused(self):
        # True == 1, so a membership test alone would read it as player 1.
        with pytest.raises(ValueError, match="player must be 1 or 2"):
            payoff(classical_pd(), True, PureProfile(0, 0))  # type: ignore[arg-type]

    def test_bool_strategy_index_refused(self):
        # True == 1 and False == 0, so an index test alone would read cell (1, 0).
        with pytest.raises(TypeError, match="strategy index must be an int, not bool"):
            payoff(classical_pd(), 1, PureProfile(True, False))
        with pytest.raises(TypeError, match="strategy index must be an int, not bool"):
            payoff(classical_pd(), 2, PureProfile(0, True))

    def test_is_pure_function(self):
        g = classical_pd()
        first = payoff(g, 1, PureProfile(0, 1))
        assert all(payoff(g, 1, PureProfile(0, 1)) == first for _ in range(5))


class TestValidateGame:
    def test_well_formed_game_passes(self):
        assert validate_game(classical_pd()) == []

    def test_dimension_mismatch_reported(self):
        g = Game(("C", "D"), ("C", "D"), ((1, 2), (3, 4), (5, 6)), ((1, 2), (3, 4)))
        problems = validate_game(g)
        assert any("u1 has 3 rows" in p for p in problems)

    def test_ragged_row_reported(self):
        g = Game(("C", "D"), ("C", "D"), ((1, 2), (3,)), ((1, 2), (3, 4)))
        assert any("row 1 has 1 entries" in p for p in validate_game(g))

    def test_duplicate_label_reported(self):
        g = Game(("C", "C"), ("L", "R"), ((1, 2), (3, 4)), ((1, 2), (3, 4)))
        assert any("duplicate" in p for p in validate_game(g))

    def test_empty_strategy_set_reported(self):
        g = Game((), ("L",), (), ())
        assert any("no strategies" in p for p in validate_game(g))

    def test_empty_label_reported(self):
        g = Game(("C",), ("L", ""), ((1, 2),), ((3, 4),))
        assert validate_game(g) == ["player 2 has an empty strategy label"]

    def test_non_string_labels_reported(self):
        g = Game((1, ["b"]), ("x", None), ((1, 0), (0, 0)), ((0, 0), (0, 0)))
        assert validate_game(g) == [
            "player 1 has a strategy label that is not a string: 1",
            "player 1 has a strategy label that is not a string: ['b']",
            "player 2 has a strategy label that is not a string: None",
        ]
        with pytest.raises(InvalidGameError, match="not a string: 2"):
            make_game([1, 2], ["x"], [[1], [0]], [[0], [0]])

    def test_make_game_raises_on_violation(self):
        with pytest.raises(InvalidGameError):
            make_game(["C", "C"], ["L"], [[1], [2]], [[1], [2]])

    def test_every_constructor_output_validates(self):
        rng = random.Random(20240)
        games = [classical_pd(), generalized_pd(PdParams(), Mixture(Fraction(1, 3))),
                 generalized_pd(PdParams(), Ambiguous("optimistic"))]
        games += [random_game(rng) for _ in range(25)]
        for g in games:
            assert validate_game(g) == []


class TestProfiles:
    def test_mixed_profile_requires_exact_unit_sum(self):
        with pytest.raises(ValueError):
            MixedProfile((Fraction(1, 2), Fraction(1, 3)), (Fraction(1),))

    def test_mixed_profile_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            MixedProfile((Fraction(3, 2), Fraction(-1, 2)), (Fraction(1),))

    @settings(deadline=None, max_examples=400)
    @given(
        st.lists(
            st.one_of(
                st.integers(-2, 3),
                st.builds(Fraction, st.integers(-(10**6), 10**6), st.integers(1, 10**6)),
            ),
            max_size=5,
        ).flatmap(
            # Mostly vectors that sum to 1, with a last entry that closes the
            # gap to 1, or misses it by a tiny amount.
            lambda head: st.sampled_from(
                [
                    head,
                    head + [1 - sum(head, Fraction(0))],
                    head + [1 - sum(head, Fraction(0)) + Fraction(1, 10**30)],
                    head + [1 - sum(head, Fraction(0)) - Fraction(1, 10**30)],
                ]
            )
        ),
        st.sampled_from([(1,), (Fraction(1, 3), Fraction(2, 3))]),
    )
    @example([Fraction(3, 2), Fraction(-1, 2)], (1,))
    @example([Fraction(1, 2), Fraction(1, 2) - Fraction(1, 10**30)], (1,))
    @example([Fraction(1, 10**6), Fraction(999999, 10**6)], (1,))
    @example([], (1,))
    def test_integer_checks_match_fraction_predicate(self, x, y):
        """MixedProfile accepts exactly the vectors that are non-empty, have
        no entry below 0 and sum to 1 as Fractions, with the same messages."""
        if not x:
            expected = "x must be non-empty"
        elif any(p < 0 for p in x):
            expected = "x has a negative entry"
        elif sum(x, Fraction(0)) != 1:
            expected = "x does not sum to 1"
        else:
            assert MixedProfile(tuple(x), y).x == tuple(map(Fraction, x))
            assert MixedProfile(y, tuple(x)).y == tuple(map(Fraction, x))
            return
        with pytest.raises(ValueError, match=f"^{expected}$"):
            MixedProfile(tuple(x), y)
        with pytest.raises(ValueError, match=f"^{expected.replace('x', 'y', 1)}$"):
            MixedProfile(y, tuple(x))

    def test_mixed_profile_support(self):
        m = MixedProfile((Fraction(1, 2), Fraction(0), Fraction(1, 2)), (Fraction(1),))
        assert m.support() == ((0, 2), (0,))

    def test_game_is_immutable(self):
        g = classical_pd()
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.labels1 = ("X", "Y")  # type: ignore[misc]

    def test_matrices_frozen_as_tuples(self):
        g = classical_pd()
        assert isinstance(g.u1, tuple)
        assert all(isinstance(row, tuple) for row in g.u1)

    def test_game_rejects_float_payoffs(self):
        with pytest.raises(TypeError):
            make_game(["a"], ["b"], [[0.5]], [[1]])


GAME = Game(("C", "D"), ("x",), ((Fraction(1),), (Fraction(-1, 2),)), ((Fraction(0),), (Fraction(2),)))
GAME_REPR = (
    "Game(labels1=('C', 'D'), labels2=('x',), u1=((Fraction(1, 1),), (Fraction(-1, 2),)), "
    "u2=((Fraction(0, 1),), (Fraction(2, 1),)))"
)
FACT = DominanceFact(2, 0, 1, "weak")
FACT_REPR = "DominanceFact(player=2, dominated=0, dominator=1, mode='weak')"

# One record of each class: its fields as already normalized constructor
# arguments, and its repr.
RECORDS = [
    (PureProfile, (1, 2), "PureProfile(i=1, j=2)"),
    (
        MixedProfile,
        ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1),)),
        "MixedProfile(x=(Fraction(1, 2), Fraction(1, 2)), y=(Fraction(1, 1),))",
    ),
    (Game, (GAME.labels1, GAME.labels2, GAME.u1, GAME.u2), GAME_REPR),
    (
        PdParams,
        (Fraction(1, 2), Fraction(1), Fraction(3), Fraction(7)),
        "PdParams(years_free=Fraction(1, 2), years_both_coop=Fraction(1, 1), "
        "years_both_defect=Fraction(3, 1), years_sucker=Fraction(7, 1))",
    ),
    (Mixture, (Fraction(1, 3),), "Mixture(w=Fraction(1, 3))"),
    (Ambiguous, ("optimistic",), "Ambiguous(attitude='optimistic')"),
    (
        MixtureCheck,
        (False, None, False, "u1[S][C] breaks it"),
        "MixtureCheck(consistent=False, w=None, any_weight=False, counterexample='u1[S][C] breaks it')",
    ),
    (
        SweepRow,
        (Fraction(1, 2), ("C", "D", "S"), (("D", "D"),), (FACT,)),
        f"SweepRow(w=Fraction(1, 2), labels=('C', 'D', 'S'), equilibria=(('D', 'D'),), dominance=({FACT_REPR},))",
    ),
    (DominanceFact, (2, 0, 1, "weak"), FACT_REPR),
    (
        EquilibriumReport,
        (("a",), ("b",), (PureProfile(0, 0),), (True,), (MixedProfile((Fraction(1),), (Fraction(1),)),), (), False),
        "EquilibriumReport(labels1=('a',), labels2=('b',), pure=(PureProfile(i=0, j=0),), strict=(True,), "
        "mixed=(MixedProfile(x=(Fraction(1, 1),), y=(Fraction(1, 1),)),), dominance=(), degenerate=False)",
    ),
    (GameDocument, ("g", GAME), f"GameDocument(name='g', game={GAME_REPR})"),
]


# The defaults of the records that have any, for their trailing fields.
DEFAULTS = {
    PdParams: (Fraction(0), Fraction(1), Fraction(4), Fraction(5)),
    MixtureCheck: (None, False, None),
    EquilibriumReport: (None,) * 5,
}


def _fields(record) -> tuple:
    return tuple(getattr(record, name) for name in type(record).__match_args__)


@pytest.mark.parametrize(("cls", "args", "text"), RECORDS, ids=[cls.__name__ for cls, _, _ in RECORDS])
class TestRecords:
    """Every record: construction, field-tuple equality and hash, repr, immutability, copies, patterns."""

    def test_construction(self, cls, args, text):
        record = cls(*args)
        assert _fields(record) == args
        assert cls(**dict(zip(cls.__match_args__, args))) == record
        assert tuple(cls.__annotations__) == cls.__match_args__

    def test_signature(self, cls, args, text):
        params = list(inspect.signature(cls).parameters.values())
        assert tuple(p.name for p in params) == cls.__match_args__
        assert {p.kind for p in params} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}
        defaults = DEFAULTS.get(cls, ())
        empty = (inspect.Parameter.empty,) * (len(params) - len(defaults))
        assert tuple(p.default for p in params) == empty + defaults
        assert [type(p.default) for p in params[len(empty):]] == [type(d) for d in defaults]

    def test_equality_and_hash_follow_the_field_tuple(self, cls, args, text):
        record = cls(*args)
        assert record == cls(*args) and not record != cls(*args)
        assert record != args
        assert hash(record) == hash(args)
        other = cls(*args)
        object.__setattr__(other, cls.__match_args__[-1], object())
        assert record != other and not record == other

    def test_repr(self, cls, args, text):
        assert repr(cls(*args)) == text

    def test_frozen(self, cls, args, text):
        record, name = cls(*args), cls.__match_args__[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, args[0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.extra = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
        assert _fields(record) == args

    @pytest.mark.parametrize("clone", [lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy])
    def test_copies(self, cls, args, text, clone):
        twin = clone(cls(*args))
        assert type(twin) is cls and twin == cls(*args) and repr(twin) == text
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(twin, cls.__match_args__[0], args[0])

    def test_class_pattern(self, cls, args, text):
        match cls(*args):
            case cls(first):
                assert first == args[0]
            case _:
                pytest.fail("class pattern did not match")


def test_record_defaults():
    assert PdParams() == PdParams(Fraction(0), Fraction(1), Fraction(4), Fraction(5))
    assert PdParams(years_sucker=7) == PdParams(0, 1, 4, Fraction(7))
    assert _fields(MixtureCheck(consistent=True)) == (True, None, False, None)
    assert _fields(EquilibriumReport(("a",), ("b",))) == (("a",), ("b",), None, None, None, None, None)


def test_field_without_default_after_one_with_default_rejected():
    with pytest.raises(SyntaxError):

        class Bad(Record):
            a: int = 0
            b: int


def test_positional_class_pattern():
    match FACT:
        case DominanceFact(player, dominated, dominator, mode=mode):
            assert (player, dominated, dominator, mode) == (2, 0, 1, "weak")
        case _:
            pytest.fail("class pattern did not match")


@pytest.mark.parametrize(
    ("cls", "args", "error", "message"),
    [
        (PureProfile, (1,), TypeError, "missing 1 required positional argument: 'j'"),
        (MixedProfile, ((), (1,)), ValueError, "x must be non-empty"),
        (MixedProfile, ((1,), (Fraction(3, 2), Fraction(-1, 2))), ValueError, "y has a negative entry"),
        (MixedProfile, ((Fraction(1, 2),), (1,)), ValueError, "x does not sum to 1"),
        (MixedProfile, ((0.5, 0.5), (1,)), TypeError, "expected an exact rational, got float"),
        (Game, (["a"], ["b"], [[0.5]], [[1]]), TypeError, "expected an exact rational, got float"),
        (PdParams, (-1, 1, 4, 5), ValueError, "sentence lengths must be non-negative"),
        (
            PdParams,
            (2, 1, 4, 5),
            ValueError,
            "dilemma ordering violated: need years_free < years_both_coop < years_both_defect "
            "< years_sucker, got 2 / 1 / 4 / 5",
        ),
        (PdParams, (0.5,), TypeError, "expected an exact rational, got float"),
        (Mixture, (2,), ValueError, "mixture weight must be in [0, 1], got 2"),
        (Mixture, (0.5,), TypeError, "expected an exact rational, got float"),
        (Ambiguous, ("neutral",), ValueError, "unknown attitude 'neutral'"),
        (
            EquilibriumReport,
            (("a",), ("b",), (PureProfile(0, 0),)),
            ValueError,
            "strict must be parallel to pure: both None or equally long",
        ),
        (
            EquilibriumReport,
            (("a",), ("b",), (PureProfile(0, 0),), ()),
            ValueError,
            "strict must be parallel to pure: both None or equally long",
        ),
    ],
)
def test_record_validation(cls, args, error, message):
    with pytest.raises(error) as raised:
        cls(*args)
    assert message in str(raised.value)
