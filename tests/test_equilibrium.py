"""Tests for best responses, pure/mixed equilibria, and dominance."""

from __future__ import annotations

import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bimatrix.core import MixedProfile, PureProfile, make_game
from bimatrix.dilemma import Ambiguous, Mixture, PdParams, classical_pd, generalized_pd
from bimatrix import equilibrium
from bimatrix.equilibrium import (
    DominanceFact,
    EquilibriumReport,
    NoEquilibriumFoundError,
    analyze,
    best_responses,
    dominance_facts,
    expected_payoff,
    is_nash,
    is_strict,
    mixed_equilibria,
    pure_equilibria,
)
from bimatrix.formats import parse_game

import checker
from helpers import (
    CLAIMS_DOC,
    G5_DOC,
    _solve_by_substitution,
    equilibrium_index,
    random_game,
    random_rat,
    reference_extreme_equilibria,
    reference_support_enumeration,
    reference_undominated,
)


def matching_pennies():
    return make_game(["H", "T"], ["H", "T"], [[1, -1], [-1, 1]], [[-1, 1], [1, -1]])


def coordination():
    return make_game(["A", "B"], ["A", "B"], [[1, 0], [0, 1]], [[1, 0], [0, 1]])


class TestBestResponses:
    def test_pd_defect_beats_cooperation_against_c(self):
        g = classical_pd()
        assert best_responses(g, 1, 0) == {1}

    def test_pd_defect_beats_cooperation_against_d(self):
        g = classical_pd()
        assert best_responses(g, 1, 1) == {1}

    def test_all_equal_row_ties_everywhere(self):
        g = make_game(["a", "b", "c"], ["x", "y"], [[2, 5], [2, 5], [2, 5]],
                      [[0, 0], [1, 1], [2, 2]])
        for j in range(2):
            assert best_responses(g, 1, j) == {0, 1, 2}

    def test_never_empty_and_exactly_argmax(self):
        rng = random.Random(7)
        for _ in range(40):
            g = random_game(rng, 5, 5)
            rows, cols = g.shape
            for j in range(cols):
                brs = best_responses(g, 1, j)
                assert brs
                top = max(g.u1[i][j] for i in range(rows))
                assert brs == {i for i in range(rows) if g.u1[i][j] == top}
            for i in range(rows):
                brs = best_responses(g, 2, i)
                assert brs
                top = max(g.u2[i][j] for j in range(cols))
                assert brs == {j for j in range(cols) if g.u2[i][j] == top}

    def test_bad_player(self):
        with pytest.raises(ValueError, match="player must be 1 or 2"):
            best_responses(classical_pd(), 3, 0)  # type: ignore[arg-type]

    def test_bool_player_refused(self):
        # True == 1, so a membership test alone would read it as player 1.
        with pytest.raises(ValueError, match="player must be 1 or 2"):
            best_responses(classical_pd(), True, 0)  # type: ignore[arg-type]

    def test_bool_strategy_index_refused(self):
        # True == 1, so an index test alone would answer for column 1.
        with pytest.raises(TypeError, match="strategy index must be an int, not bool"):
            best_responses(classical_pd(), 1, True)  # type: ignore[arg-type]
        with pytest.raises(TypeError, match="strategy index must be an int, not bool"):
            best_responses(classical_pd(), 2, False)  # type: ignore[arg-type]
        for p in (PureProfile(True, 0), PureProfile(0, False)):
            with pytest.raises(TypeError, match="strategy index must be an int, not bool"):
                is_nash(classical_pd(), p)
            with pytest.raises(TypeError, match="strategy index must be an int, not bool"):
                is_strict(classical_pd(), p)

    def test_bounds_checked(self):
        with pytest.raises(IndexError):
            best_responses(classical_pd(), 1, 2)
        with pytest.raises(IndexError):
            best_responses(classical_pd(), 2, -1)

    @pytest.mark.parametrize("check", [is_nash, is_strict])
    @pytest.mark.parametrize("i, j", [(2, 0), (0, -1)])
    def test_profile_out_of_range_names_the_profile(self, check, i, j):
        # check_profile's message, not best_responses' "column 2 out of range".
        with pytest.raises(IndexError, match=rf"^profile \({i}, {j}\) out of range for a 2x2 game$"):
            check(classical_pd(), PureProfile(i, j))


class TestPureNash:
    def test_pd_mutual_defection_is_nash(self):
        assert is_nash(classical_pd(), PureProfile(1, 1))

    def test_pd_mutual_cooperation_is_not_nash(self):
        assert not is_nash(classical_pd(), PureProfile(0, 0))

    def test_trivial_game_profile_is_nash(self):
        g = make_game(["only"], ["only"], [[0]], [[0]])
        assert is_nash(g, PureProfile(0, 0))

    def test_pd_equilibrium_set(self):
        g = classical_pd()
        assert pure_equilibria(g) == [PureProfile(1, 1)]
        assert is_strict(g, PureProfile(1, 1))

    def test_matching_pennies_has_no_pure_equilibrium(self):
        assert pure_equilibria(matching_pennies()) == []

    def test_generalized_pd_half_weight(self):
        g = generalized_pd(PdParams(), Mixture(Fraction(1, 2)))
        assert pure_equilibria(g) == [PureProfile(1, 1)]

    def test_lexicographic_order(self):
        g = make_game(["a", "b"], ["x", "y"], [[0, 0], [0, 0]], [[0, 0], [0, 0]])
        assert pure_equilibria(g) == [
            PureProfile(0, 0), PureProfile(0, 1), PureProfile(1, 0), PureProfile(1, 1),
        ]

    def test_matches_brute_force_on_random_games(self):
        rng = random.Random(11)
        for _ in range(150):
            g = random_game(rng)
            assert [(p.i, p.j) for p in pure_equilibria(g)] == checker.pure_nash(g.u1, g.u2)

    @given(data=st.data(), rows=st.integers(1, 6), cols=st.integers(1, 6))
    def test_matches_is_nash_scan_on_games_with_ties(self, data, rows, cols):
        # Entries from a handful of values, so most columns and rows tie.
        entry = st.builds(Fraction, st.integers(-2, 2), st.sampled_from((1, 2)))
        matrix = st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)
        g = make_game(
            [f"r{i}" for i in range(rows)], [f"c{j}" for j in range(cols)],
            data.draw(matrix), data.draw(matrix),
        )
        cells = [PureProfile(i, j) for i in range(rows) for j in range(cols)]
        assert pure_equilibria(g) == [p for p in cells if is_nash(g, p)]


class TestDominance:
    def test_pd_cooperation_strictly_dominated(self):
        facts = dominance_facts(classical_pd(), "strict")
        assert facts == [DominanceFact(1, 0, 1, "strict"), DominanceFact(2, 0, 1, "strict")]

    def test_generalized_pd_silence_dominated(self):
        g = generalized_pd(PdParams(), Mixture(Fraction(1, 2)))
        facts = dominance_facts(g, "strict")
        assert DominanceFact(1, 2, 1, "strict") in facts
        assert DominanceFact(2, 2, 1, "strict") in facts
        assert DominanceFact(1, 0, 1, "strict") in facts

    def test_identical_rows_never_strictly_dominate(self):
        g = make_game(["a", "b"], ["x", "y"], [[1, 2], [1, 2]], [[0, 0], [0, 0]])
        assert [f for f in dominance_facts(g, "strict") if f.player == 1] == []

    def test_weak_needs_at_least_one_strict_gain(self):
        g = make_game(["a", "b"], ["x", "y"], [[1, 2], [1, 3]], [[0, 0], [0, 0]])
        weak = dominance_facts(g, "weak")
        assert DominanceFact(1, 0, 1, "weak") in weak
        assert all(f.dominated != 1 for f in weak if f.player == 1)

    def test_mode_validated(self):
        with pytest.raises(ValueError):
            dominance_facts(classical_pd(), "loose")  # type: ignore[arg-type]


class TestExpectedPayoff:
    def test_bad_player(self):
        pure = MixedProfile((1, 0), (0, 1))
        with pytest.raises(ValueError, match="player must be 1 or 2"):
            expected_payoff(classical_pd(), 3, pure)  # type: ignore[arg-type]

    def test_bool_player_refused(self):
        pure = MixedProfile((1, 0), (0, 1))
        with pytest.raises(ValueError, match="player must be 1 or 2"):
            expected_payoff(classical_pd(), True, pure)  # type: ignore[arg-type]

    def test_degenerate_mixture_equals_pure_payoff(self):
        g = classical_pd()
        m = MixedProfile((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))
        assert expected_payoff(g, 1, m) == g.u1[1][0]
        assert expected_payoff(g, 2, m) == g.u2[1][0]

    def test_matching_pennies_uniform_is_fair(self):
        half = Fraction(1, 2)
        m = MixedProfile((half, half), (half, half))
        assert expected_payoff(matching_pennies(), 1, m) == 0

    def test_pd_half_mix_against_defection(self):
        m = MixedProfile((Fraction(1, 2), Fraction(1, 2)), (Fraction(0), Fraction(1)))
        assert expected_payoff(classical_pd(), 1, m) == Fraction(-9, 2)

    def test_dimension_mismatch_rejected(self):
        m = MixedProfile((Fraction(1),), (Fraction(1),))
        with pytest.raises(IndexError):
            expected_payoff(classical_pd(), 1, m)


class TestMixedEquilibria:
    def test_matching_pennies_unique_uniform(self):
        half = Fraction(1, 2)
        assert mixed_equilibria(matching_pennies()) == [
            MixedProfile((half, half), (half, half))
        ]

    def test_pd_only_mutual_defection(self):
        assert mixed_equilibria(classical_pd()) == [
            MixedProfile((Fraction(0), Fraction(1)), (Fraction(0), Fraction(1)))
        ]

    def test_coordination_game_vertices(self):
        half = Fraction(1, 2)
        one, zero = Fraction(1), Fraction(0)
        assert mixed_equilibria(coordination()) == [
            MixedProfile((one, zero), (one, zero)),
            MixedProfile((zero, one), (zero, one)),
            MixedProfile((half, half), (half, half)),
        ]

    def test_support_conditions_hold_exactly(self):
        rng = random.Random(23)
        for _ in range(40):
            g = random_game(rng, 3, 3)
            for m in mixed_equilibria(g):
                assert not checker.mixed_problems(g.u1, g.u2, m.x, m.y)

    def test_results_are_duplicate_free(self):
        rng = random.Random(29)
        for _ in range(40):
            found = mixed_equilibria(random_game(rng, 3, 3))
            assert len({(m.x, m.y) for m in found}) == len(found)

    def test_strictly_dominated_strategy_never_in_support(self):
        rng = random.Random(31)
        checked = 0
        for _ in range(60):
            g = random_game(rng, 4, 4)
            strict = dominance_facts(g, "strict")
            dominated = {(f.player, f.dominated) for f in strict}
            if not dominated:
                continue
            checked += 1
            for p in pure_equilibria(g):
                assert (1, p.i) not in dominated
                assert (2, p.j) not in dominated
            for m in mixed_equilibria(g):
                sup1, sup2 = m.support()
                assert all((1, i) not in dominated for i in sup1)
                assert all((2, j) not in dominated for j in sup2)
        assert checked > 5

    def test_empty_result_raises_internal_error(self):
        # MISSED_DOC of test_cli.py: a degenerate game whose equilibria
        # support enumeration misses; a report without the mixed section
        # never enumerates, so it does not raise.
        g = _int_game([[1, 1, -1], [-1, 1, 0], [-1, 0, 1]], [[-1, 0, 1], [1, 0, -1], [0, 1, 0]])
        with pytest.raises(NoEquilibriumFoundError):
            mixed_equilibria(g)
        assert analyze(g, mixed=False).mixed is None

    # A degenerate game where support enumeration misses two extreme
    # equilibria: both have a row support of size 2 against one column, and
    # an off-support tie pins each down.
    MISSED_GAP = (
        [[1, 1, -1], [0, -2, -1], [1, 2, 1]], [[0, -1, 1], [2, -2, -1], [1, 2, -1]]
    )
    MISSED_PROFILES = [("1/2 0 1/2", "1 0 0"), ("2/3 0 1/3", "1 0 0")]

    @pytest.mark.parametrize("x, y", MISSED_PROFILES)
    def test_missed_profiles_are_equilibria(self, x, y):
        g = _int_game(*self.MISSED_GAP)
        assert not checker.mixed_problems(g.u1, g.u2, _vector(x), _vector(y))

    @pytest.mark.xfail(strict=True, reason="support enumeration misses extreme equilibria pinned by ties")
    def test_analyze_lists_every_extreme_equilibrium(self):
        report = analyze(_int_game(*self.MISSED_GAP))
        expected = [("0 0 1", "0 1 0")] + self.MISSED_PROFILES
        assert len(report.mixed) == 3
        assert set(report.mixed) == {MixedProfile(_vector(x), _vector(y)) for x, y in expected}
        assert report.degenerate is True

    def test_rock_paper_scissors_unique_uniform(self):
        u1 = [[0, -1, 1], [1, 0, -1], [-1, 1, 0]]
        u2 = [[-v for v in row] for row in u1]
        g = make_game(["R", "P", "S"], ["R", "P", "S"], u1, u2)
        third = Fraction(1, 3)
        assert mixed_equilibria(g) == [
            MixedProfile((third, third, third), (third, third, third))
        ]

    def test_duplicate_strategy_continuum_reports_square_vertices(self):
        # weight-0 silence duplicates defection; the equilibrium component is
        # the product of two segments and its vertices are the pure profiles.
        g = generalized_pd(PdParams(), Mixture(Fraction(0)))
        one = Fraction(1)
        zero = Fraction(0)
        vertices = {
            (m.x, m.y) for m in mixed_equilibria(g)
        }
        assert vertices == {
            ((zero, one, zero), (zero, one, zero)),
            ((zero, one, zero), (zero, zero, one)),
            ((zero, zero, one), (zero, one, zero)),
            ((zero, zero, one), (zero, zero, one)),
        }

    def test_two_by_two_complete_against_closed_form(self):
        # Independent completeness oracle: in a generic 2x2 game the
        # equilibria are the strict pure profiles plus at most one interior
        # profile given in closed form by the indifference ratios.
        rng = random.Random(47)
        generic_checked = 0
        while generic_checked < 120:
            g = random_game(rng, 2, 2)
            if g.shape != (2, 2):
                continue
            if any(g.u1[0][j] == g.u1[1][j] for j in range(2)):
                continue
            if any(g.u2[i][0] == g.u2[i][1] for i in range(2)):
                continue
            d1 = g.u1[0][0] - g.u1[0][1] - g.u1[1][0] + g.u1[1][1]
            d2 = g.u2[0][0] - g.u2[1][0] - g.u2[0][1] + g.u2[1][1]
            expected = set()
            for i, j in checker.pure_nash(g.u1, g.u2):
                x = tuple(Fraction(int(k == i)) for k in range(2))
                y = tuple(Fraction(int(k == j)) for k in range(2))
                expected.add((x, y))
            if d1 != 0 and d2 != 0:
                y0 = (g.u1[1][1] - g.u1[0][1]) / d1
                x0 = (g.u2[1][1] - g.u2[1][0]) / d2
                if 0 < x0 < 1 and 0 < y0 < 1:
                    expected.add(((x0, 1 - x0), (y0, 1 - y0)))
            generic_checked += 1
            assert {(m.x, m.y) for m in mixed_equilibria(g)} == expected


def _vector(text):
    return tuple(Fraction(v) for v in text.split())


def _int_game(u1, u2):
    rows, cols = len(u1), len(u1[0])
    return make_game([f"r{i}" for i in range(rows)], [f"c{j}" for j in range(cols)], u1, u2)


# (game, expected mixed equilibria in reported order as (x, y) strings, degenerate)
PINNED_TIE_GAMES = {
    "silence_weight_0": (
        lambda: generalized_pd(PdParams(), Mixture(Fraction(0))),
        [("0 1 0", "0 1 0"), ("0 1 0", "0 0 1"), ("0 0 1", "0 1 0"), ("0 0 1", "0 0 1")],
        True,
    ),
    "silence_pessimistic": (
        lambda: generalized_pd(PdParams(), Ambiguous("pessimistic")),
        [("0 1 0", "0 1 0")],
        False,
    ),
    "silence_optimistic": (
        lambda: generalized_pd(PdParams(), Ambiguous("optimistic")),
        [("0 1 0", "0 1 0"), ("0 1 0", "0 0 1"), ("0 0 1", "0 1 0"), ("0 0 1", "0 0 1")],
        True,
    ),
    "ties_3x3": (
        lambda: _int_game(
            [[-1, 1, 0], [-1, 1, 0], [-1, 0, 1]], [[-1, 0, -1], [1, 0, -1], [1, -1, 1]]
        ),
        [
            ("1 0 0", "0 1 0"),
            ("0 1 0", "1 0 0"),
            ("0 0 1", "1 0 0"),
            ("0 0 1", "0 0 1"),
            ("2/3 0 1/3", "0 1/2 1/2"),
        ],
        True,
    ),
    "ties_3x4": (
        lambda: _int_game(
            [[-1, -1, 0, -1], [1, 0, -1, -1], [-1, 0, 0, -1]],
            [[1, -1, 0, -1], [-1, 0, 0, 0], [-1, 0, 0, 1]],
        ),
        [
            ("0 1 0", "0 1 0 0"),
            ("0 1 0", "0 0 0 1"),
            ("1/2 1/2 0", "1/3 0 2/3 0"),
            ("0 0 1", "0 0 0 1"),
        ],
        True,
    ),
    "ties_2x3_nondegenerate": (
        lambda: _int_game([[-1, 1, 1], [0, -1, 0]], [[0, 1, 0], [1, -1, 0]]),
        [("1 0", "0 1 0"), ("0 1", "1 0 0"), ("2/3 1/3", "2/3 1/3 0")],
        False,
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_TIE_GAMES))
def test_order_and_degenerate_flag_pinned_on_games_with_ties(name):
    build, expected, degenerate = PINNED_TIE_GAMES[name]
    g = build()
    assert mixed_equilibria(g) == [MixedProfile(_vector(x), _vector(y)) for x, y in expected]
    assert analyze(g).degenerate is degenerate


def _primes_below(limit: int) -> list[int]:
    sieve = [True] * limit
    sieve[:2] = [False, False]
    for k in range(2, int(limit ** 0.5) + 1):
        if sieve[k]:
            sieve[k * k::k] = [False] * len(sieve[k * k::k])
    return [k for k, prime in enumerate(sieve) if prime]


PRIMES = _primes_below(10**4)


def _tie_heavy_games(max_side: int = 5):
    """Games whose entries mostly repeat a few values: zeros, negatives, and
    large numerators over distinct primes up to 10^4, so the denominators are
    pairwise coprime and their LCM is huge."""

    @st.composite
    def build(draw):
        rows, cols = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
        fresh = st.builds(
            Fraction, st.integers(-10**12, 10**12), st.sampled_from(PRIMES)
        ) | st.just(Fraction(0)) | st.builds(Fraction, st.integers(-3, 3))
        pool = draw(st.lists(fresh, min_size=1, max_size=4))
        entry = st.sampled_from(pool) | fresh
        matrix = st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)
        return make_game(
            [f"r{i}" for i in range(rows)], [f"c{j}" for j in range(cols)], draw(matrix), draw(matrix)
        )

    return build()


# Few distinct values, some of them fractions, so ties are common and the
# reduced game is scaled by 6 to integers.
FRACTIONAL_UNITS = tuple(map(Fraction, ("-1", "-1/2", "0", "1/3", "1")))


@st.composite
def _games_over(draw, values, max_side=4):
    """Games of at most max_side strategies each, every payoff drawn from values."""
    rows, cols = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    matrix = st.lists(
        st.lists(st.sampled_from(values), min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )
    return _int_game(draw(matrix), draw(matrix))


def _off_support_best_reply(g, m) -> bool:
    """The degenerate flag's definition, scanned on the Fractions: a strategy
    off m's support is a best reply to the other player's mixture."""
    for own, other, u in ((m.x, m.y, g.u1), (m.y, m.x, tuple(zip(*g.u2)))):
        pays = [sum(map(mul, row, other)) for row in u]
        if any(p == 0 and v == max(pays) for p, v in zip(own, pays)):
            return True
    return False


class TestSupportEnumerationOracle:
    """The mixed list, its order and the degenerate flag against
    helpers.reference_support_enumeration, which shares no code with the
    solver and removes no dominated strategy, and the flag against its
    definition."""

    @staticmethod
    def check(g):
        expected, tie = reference_support_enumeration(g)
        if not expected:
            with pytest.raises(NoEquilibriumFoundError):
                mixed_equilibria(g)
            return
        assert mixed_equilibria(g) == expected
        report = analyze(g)
        assert report.degenerate is tie
        assert report.degenerate is any(_off_support_best_reply(g, m) for m in report.mixed)

    @settings(deadline=None, max_examples=300)
    @given(data=st.data(), rows=st.integers(1, 4), cols=st.integers(1, 4))
    def test_matches_reference_on_unit_payoff_games(self, data, rows, cols):
        matrix = st.lists(
            st.lists(st.integers(-1, 1), min_size=cols, max_size=cols), min_size=rows, max_size=rows
        )
        self.check(_int_game(data.draw(matrix), data.draw(matrix)))

    @settings(deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_reference_on_random_games(self, seed):
        self.check(random_game(random.Random(seed), 5, 5))

    @settings(deadline=None, max_examples=300)
    @given(g=_tie_heavy_games(4))
    def test_matches_reference_on_tie_heavy_games(self, g):
        self.check(g)

    @settings(deadline=None, max_examples=300)
    @given(data=st.data(), long=st.integers(1, 6), short=st.integers(1, 3), tall=st.booleans())
    def test_matches_reference_on_rectangular_games(self, data, long, short, tall):
        rows, cols = (long, short) if tall else (short, long)
        matrix = st.lists(
            st.lists(st.integers(-2, 2), min_size=cols, max_size=cols), min_size=rows, max_size=rows
        )
        self.check(_int_game(data.draw(matrix), data.draw(matrix)))

    @settings(deadline=None, max_examples=300)
    @given(g=_games_over(FRACTIONAL_UNITS))
    def test_matches_reference_on_fractional_unit_games(self, g):
        self.check(g)


class TestExtremeEquilibriumOracle:
    """Every mixed profile is an extreme equilibrium, against
    helpers.reference_extreme_equilibria, which enumerates the vertices of the
    best response polytopes and shares no code with the solver. The solver
    may miss extreme equilibria on degenerate games (see the strict xfail
    above), so in general only the inclusion is checked. In general position
    (checker.in_general_position) support enumeration is complete, and the
    sets must be equal."""

    @staticmethod
    def check(g):
        """Whether g was in general position, so that equality was checked."""
        extreme = reference_extreme_equilibria(g)
        assert extreme, "every game has an extreme equilibrium"
        try:
            found = set(mixed_equilibria(g))
        except NoEquilibriumFoundError:
            found = set()
        assert found <= extreme
        general = checker.in_general_position(g.u1, g.u2)
        if general:
            assert found == extreme
        return general

    def test_oracle_finds_the_missed_extreme_equilibria(self):
        expected = [("0 0 1", "0 1 0")] + TestMixedEquilibria.MISSED_PROFILES
        assert reference_extreme_equilibria(_int_game(*TestMixedEquilibria.MISSED_GAP)) == {
            MixedProfile(_vector(x), _vector(y)) for x, y in expected
        }

    @settings(deadline=None, max_examples=200)
    @given(g=_tie_heavy_games(4))
    def test_on_tie_heavy_games(self, g):
        self.check(g)

    @settings(deadline=None, max_examples=200)
    @given(g=_games_over(FRACTIONAL_UNITS))
    def test_on_fractional_unit_games(self, g):
        self.check(g)

    def test_on_random_5x5_games(self):
        rng = random.Random(53)
        for _ in range(25):
            u1, u2 = ([[random_rat(rng) for _ in range(5)] for _ in range(5)] for _ in "12")
            self.check(_int_game(u1, u2))

    def test_complete_on_wide_payoff_games(self):
        # Payoffs from [-99, 99] are seldom tied, so most of these games are
        # in general position and the equality is checked.
        rng = random.Random(59)
        general = 0
        for k in range(40):
            rows, cols = 2 + k % 3, 2 + k // 3 % 3
            u1, u2 = ([[rng.randint(-99, 99) for _ in range(cols)] for _ in range(rows)] for _ in "12")
            general += self.check(_int_game(u1, u2))
        assert general >= 30


class TestTiedCountsEachSupport:
    """_tied compares each player's best-reply tie count with that player's
    own support size, so it also decides equilibria whose supports differ in
    size, which support enumeration never reports but complete enumeration
    does."""

    @staticmethod
    def tied(u1, u2, x, y) -> bool:
        u1, u2 = equilibrium._integer_payoffs(_int_game(u1, u2))
        return equilibrium._tied(u1, u2, MixedProfile(_vector(x), _vector(y)))

    @pytest.mark.parametrize("x, y", TestMixedEquilibria.MISSED_PROFILES)
    def test_two_rows_against_one_column(self, x, y):
        # Two columns tie against x, and y holds one column.
        assert self.tied(*TestMixedEquilibria.MISSED_GAP, x, y) is True

    def test_one_row_against_two_columns(self):
        # Both rows tie against y, and x holds one row.
        assert self.tied([[0, 1], [1, 0]], [[0, 0], [0, 0]], "0 1", "1/2 1/2") is True

    def test_two_rows_against_one_column_transposed(self):
        assert self.tied([[0, 0], [0, 0]], [[0, 1], [1, 0]], "1/2 1/2", "0 1") is True

    @settings(deadline=None, max_examples=300)
    @given(g=_games_over((0, 1), max_side=3))
    def test_matches_definition_on_every_extreme_equilibrium(self, g):
        u1, u2 = equilibrium._integer_payoffs(g)
        for m in reference_extreme_equilibria(g):
            assert equilibrium._tied(u1, u2, m) is _off_support_best_reply(g, m)


class TestIndexSum:
    """Completeness where the vertex oracle is too slow: on games in general
    position up to 6x6 (checker.in_general_position), the equilibrium
    indices of mixed_equilibria (helpers.equilibrium_index) sum to 1. Each
    index is +1 or -1, so one missing equilibrium breaks the sum."""

    @staticmethod
    def check(g, found):
        assert sum(equilibrium_index(g, m) for m in found) == 1

    def test_coordination_game_indices(self):
        # The two pure equilibria have index +1 and the mixed one -1.
        g = coordination()
        assert [equilibrium_index(g, m) for m in mixed_equilibria(g)] == [1, 1, -1]

    def test_leaving_out_any_equilibrium_fails(self):
        g = coordination()
        found = mixed_equilibria(g)
        self.check(g, found)
        for k in range(len(found)):
            with pytest.raises(AssertionError):
                self.check(g, found[:k] + found[k + 1:])

    @settings(deadline=None, max_examples=200)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 6), cols=st.integers(1, 6))
    def test_indices_sum_to_one_in_general_position(self, seed, rows, cols):
        # Payoffs from [-99, 99] are seldom tied, so most draws are kept.
        rng = random.Random(seed)
        u1, u2 = ([[rng.randint(-99, 99) for _ in range(cols)] for _ in range(rows)] for _ in "12")
        g = _int_game(u1, u2)
        assume(checker.in_general_position(g.u1, g.u2))
        self.check(g, mixed_equilibria(g))


class TestEliminationOracle:
    """_undominated on the scaled integers against
    helpers.reference_undominated on the Fraction payoffs."""

    @staticmethod
    def check(g):
        u1, u2 = equilibrium._integer_payoffs(g)
        assert equilibrium._undominated(u1, u2) == reference_undominated(g)

    @settings(deadline=None, max_examples=500)
    @given(g=_tie_heavy_games(6))
    def test_matches_reference_on_tie_heavy_games(self, g):
        self.check(g)

    @settings(deadline=None, max_examples=500)
    @given(data=st.data(), rows=st.integers(1, 6), cols=st.integers(1, 6))
    def test_matches_reference_on_small_payoff_games(self, data, rows, cols):
        matrix = st.lists(
            st.lists(st.integers(-2, 2), min_size=cols, max_size=cols), min_size=rows, max_size=rows
        )
        self.check(_int_game(data.draw(matrix), data.draw(matrix)))


def _player1_solves(monkeypatch):
    """The (own, other) supports, as positions among the survivors of
    elimination, of every player-1 call to _opponent_mixture from now on;
    pairs of one-strategy supports make none, and neither do pairs that
    either player's integers rule out.

    Player 2's system is solved only right after player 1's found a mixture,
    so a call is player 1's unless the previous one was and succeeded.
    """
    solved = []
    original = equilibrium._opponent_mixture
    player2_next = False

    def counted(u, own_support, other_support, block):
        nonlocal player2_next
        result = original(u, own_support, other_support, block)
        if player2_next:
            player2_next = False
        else:
            solved.append((own_support, other_support))
            player2_next = result is not None
        return result

    monkeypatch.setattr(equilibrium, "_opponent_mixture", counted)
    return solved


def _linear_solves(monkeypatch):
    """The size of every system that reaches _solve_square from now on."""
    sizes = []
    original = equilibrium._solve_square

    def counted(a, b):
        sizes.append(len(a))
        return original(a, b)

    monkeypatch.setattr(equilibrium, "_solve_square", counted)
    return sizes


class TestOneStrategySupports:
    """A pair of one-strategy supports that exclusion keeps is a pure
    equilibrium: no surviving strategy pays more against the other one. It is
    reported as point masses without a call to _opponent_mixture."""

    @pytest.mark.parametrize(
        "build", [classical_pd, lambda: parse_game(CLAIMS_DOC).game], ids=["pd", "claims"]
    )
    def test_pure_games_solve_no_system(self, monkeypatch, build):
        g = build()
        sizes = _linear_solves(monkeypatch)
        solved = _player1_solves(monkeypatch)
        report = analyze(g)
        assert sizes == solved == []
        assert [checker.mixed_problems(g.u1, g.u2, m.x, m.y) for m in report.mixed] == [[]]

    def test_off_support_tie_at_a_pure_profile_sets_degenerate(self, monkeypatch):
        # Column 1 falls to column 0; both rows then pay 1 against column 0,
        # so each pure profile is an equilibrium whose off-support row ties.
        g = _int_game([[1, 1], [1, 0]], [[1, 0], [1, 0]])
        sizes = _linear_solves(monkeypatch)
        one, zero = Fraction(1), Fraction(0)
        expected = [MixedProfile((one, zero), (one, zero)), MixedProfile((zero, one), (one, zero))]
        assert reference_support_enumeration(g) == (expected, True)
        report = analyze(g)
        assert (list(report.mixed), report.degenerate) == (expected, True)
        assert sizes == []

    def test_pure_support_probabilities_are_fractions(self):
        # The base case returns the weight as a Fraction, as a solved system
        # does, whether the off-support row pays less or ties; one that pays
        # more rejects the pair.
        for u in ([[3, 1], [2, 5]], [[3, 1], [3, 5]]):
            mixture = equilibrium._opponent_mixture(u, (0,), (0,), [(3,)])
            assert mixture == [1] and type(mixture[0]) is Fraction
        assert equilibrium._opponent_mixture([[3, 1], [4, 5]], (0,), (0,), [(3,)]) is None
        games = [classical_pd(), parse_game(CLAIMS_DOC).game, coordination(),
                 _int_game([[1, 1], [1, 0]], [[1, 0], [1, 0]])]
        for g in games:
            for m in analyze(g).mixed:
                assert {type(p) for p in (*m.x, *m.y)} == {Fraction}


def _indifference_system(block):
    """The system _opponent_mixture solves for the integer block
    u[own][other]: a column of -1 for the common payoff, then the int
    payoffs, and a last row of ones that sums the probabilities to 1."""
    a = [[equilibrium._MINUS_ONE, *row] for row in block]
    a.append([equilibrium._ZERO] + [equilibrium._ONE] * len(block))
    return a, [equilibrium._ZERO] * len(block) + [equilibrium._ONE]


def _has_twins(block) -> bool:
    return len(set(map(tuple, block))) < len(block) or len(set(zip(*block))) < len(block)


class TestSolveSquare:
    """_solve_square against back substitution, which shares no code with it."""

    @settings(deadline=None, max_examples=500)
    @given(
        block=st.integers(1, 5).flatmap(
            lambda k: st.lists(st.lists(st.integers(-3, 3), min_size=k, max_size=k), min_size=k, max_size=k)
        )
    )
    # Rows that pay alike against the first opponent strategy, so step 1
    # swaps in the sum row; and twin rows, a singular system.
    @example(block=[[1, 2], [1, 3]])
    @example(block=[[1, 2], [1, 2]])
    def test_matches_substitution_on_indifference_systems(self, block):
        a, b = _indifference_system(block)
        before = [list(row) for row in a]
        expected = _solve_by_substitution([[Fraction(v) for v in row] for row in a], b)
        solution = equilibrium._solve_square(a, b)
        assert a == before
        assert (solution is None) == (expected is None)
        if solution is not None:
            assert solution == expected
            # An int entry left in a row would meet an int pivot and turn
            # the solution into floats.
            assert {type(v) for v in solution} == {Fraction}


def _twin_systems(monkeypatch):
    """Per block that reaches _ruled_out from now on, whether it has twins,
    and per system that reaches _solve_square, whether it does."""
    calls, systems = [], []
    ruled_out, solve_square = equilibrium._ruled_out, equilibrium._solve_square

    def ruled_out_counted(block):
        calls.append(_has_twins(block))
        return ruled_out(block)

    def solve_counted(a, b):
        systems.append(_has_twins([row[1:] for row in a[:-1]]))
        return solve_square(a, b)

    monkeypatch.setattr(equilibrium, "_ruled_out", ruled_out_counted)
    monkeypatch.setattr(equilibrium, "_solve_square", solve_counted)
    return calls, systems


class TestTwinStrategies:
    """Two own strategies that pay alike on the opponent's support, or two
    opponent strategies that pay the player alike on the own support, make
    the indifference system singular, so _ruled_out rejects the block and
    no system is built for it."""

    @pytest.mark.parametrize(
        "u",
        [[[1, 2, 0], [1, 2, 5], [3, -1, 2]], [[1, 1, 0], [4, 4, 5], [3, -1, 2]]],
        ids=["equal-rows", "equal-columns"],
    )
    def test_twins_solve_no_system(self, monkeypatch, u):
        block = equilibrium._block(u, (0, 1), (0, 1))
        assert _solve_by_substitution(*_indifference_system(block)) is None
        sizes = _linear_solves(monkeypatch)
        assert equilibrium._ruled_out(block)
        # Rows 0 and 2 on columns 0 and 1 have no twins and differences of
        # opposite signs, so they still reach the system.
        block = equilibrium._block(u, (0, 2), (0, 1))
        assert not equilibrium._ruled_out(block)
        assert sizes == []
        equilibrium._opponent_mixture(u, (0, 2), (0, 1), block)
        assert sizes == [3]

    @pytest.mark.parametrize(
        ("semantics", "twin_pairs"),
        [
            # S is D's twin at w = 0 and under optimism, and the two survive
            # elimination; at w = 1 and under pessimism only D survives.
            (Mixture(Fraction(0)), 1),
            (Mixture(Fraction(1)), 0),
            (Ambiguous("pessimistic"), 0),
            (Ambiguous("optimistic"), 1),
        ],
        ids=["w=0", "w=1", "pessimistic", "optimistic"],
    )
    def test_silence_games_match_reference(self, monkeypatch, semantics, twin_pairs):
        g = generalized_pd(PdParams(), semantics)
        expected = reference_support_enumeration(g)
        calls, systems = _twin_systems(monkeypatch)
        report = analyze(g)
        assert (list(report.mixed), report.degenerate) == expected
        # Player 1's block is ruled out first, so player 2's is never built.
        assert calls.count(True) == twin_pairs
        assert not any(systems)


class TestTwoStrategySupports:
    """A pair of two-strategy supports (s, r) against (t, v) reaches a system
    only when d_t = u[s][t] - u[r][t] and d_v = u[s][v] - u[r][v] have
    opposite signs; _ruled_out's sign test on the integers decides every
    other pair."""

    @settings(deadline=None, max_examples=500)
    @given(
        block=st.lists(st.lists(st.integers(-2, 2), min_size=2, max_size=2), min_size=2, max_size=2),
        off=st.lists(st.lists(st.integers(-2, 2), min_size=2, max_size=2), max_size=3),
    )
    # Twin rows, twin columns, one zero difference, two of one sign, and
    # opposite signs with an off-support row that ties.
    @example(block=[[1, 2], [1, 2]], off=[])
    @example(block=[[1, 1], [2, 2]], off=[])
    @example(block=[[1, 2], [1, 0]], off=[])
    @example(block=[[2, 1], [0, -1]], off=[])
    @example(block=[[1, -1], [-1, 1]], off=[[0, 0]])
    def test_matches_substitution(self, block, off):
        a, b = _indifference_system(block)
        solution = _solve_by_substitution([[Fraction(v) for v in row] for row in a], b)
        u = block + off
        block = equilibrium._block(u, (0, 1), (0, 1))
        result = None
        if not equilibrium._ruled_out(block):
            result = equilibrium._opponent_mixture(u, (0, 1), (0, 1), block)
        if solution is None or any(p <= 0 for p in solution[1:]):
            assert result is None
            return
        value, *mixture = solution
        deviations = [sum(p * v for p, v in zip(mixture, row)) for row in off]
        assert result == (None if any(d > value for d in deviations) else mixture)

    def test_one_zero_difference_solves_no_system(self, monkeypatch):
        # Both rows pay 1 against column 0, so d_t = 0 and d_v = 1: no twins,
        # and the system has the unique solution p_v = 0, not positive.
        block = [[1, 3], [1, 2]]
        assert not _has_twins(block)
        assert _solve_by_substitution(
            *_indifference_system([[Fraction(v) for v in row] for row in block])
        ) == [Fraction(1), Fraction(1), Fraction(0)]
        sizes = _linear_solves(monkeypatch)
        assert equilibrium._ruled_out(equilibrium._block(block, (0, 1), (0, 1)))
        assert sizes == []


class TestRuledOut:
    """_ruled_out decides a support pair on one player's integers, and the
    search asks it for both players before it solves either system."""

    @settings(deadline=None, max_examples=500)
    @given(
        block=st.integers(2, 4).flatmap(
            lambda k: st.lists(st.lists(st.integers(-2, 2), min_size=k, max_size=k), min_size=k, max_size=k)
        )
    )
    # Twin rows and twin columns at size 3.
    @example(block=[[1, 2, 0], [1, 2, 0], [2, -1, 1]])
    @example(block=[[1, 1, 0], [-2, -2, 1], [2, 2, -1]])
    def test_sound(self, block):
        """A block it rules out has no positive solution, and every block
        with twins is ruled out."""
        block = [tuple(row) for row in block]
        if not equilibrium._ruled_out(block):
            assert not _has_twins(block)
            return
        a, b = _indifference_system(block)
        solution = _solve_by_substitution([[Fraction(v) for v in row] for row in a], b)
        assert solution is None or any(p <= 0 for p in solution[1:])

    def test_player2_integers_spare_player1_system(self, monkeypatch):
        # Player 1's differences on the full supports are 1 and -1, so the
        # sign test passes; player 2's are 0 and -3, so it rejects the pair.
        # No column is strictly dominated, so elimination keeps both.
        g = _int_game([[1, 0], [0, 1]], [[1, 1], [0, 3]])
        u1, u2 = equilibrium._integer_payoffs(g)
        assert equilibrium._undominated(u1, u2) == ([0, 1], [0, 1])
        sizes = _linear_solves(monkeypatch)
        report = analyze(g)
        assert sizes == []
        one, zero = Fraction(1), Fraction(0)
        expected = [MixedProfile((one, zero), (one, zero)), MixedProfile((zero, one), (zero, one))]
        assert reference_support_enumeration(g) == (expected, True)
        assert (list(report.mixed), report.degenerate) == (expected, True)
        assert report.pure == (PureProfile(0, 0), PureProfile(1, 1))


def _matrices(values):
    """k x n integer matrices, k and n in 1..5, with entries from `values`."""
    return st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
        lambda shape: st.lists(
            st.lists(values, min_size=shape[1], max_size=shape[1]), min_size=shape[0], max_size=shape[0]
        )
    )


class TestBeaten:
    """_beaten against its definition, at every mask width."""

    @settings(deadline=None, max_examples=400)
    @given(u=st.one_of(_matrices(st.sampled_from([-1, 0, 1])), _matrices(st.integers(-3, 3))))
    # Twin rows, and a row that another beats on some columns only.
    @example(u=[[1, 0, -1], [1, 0, -1]])
    @example(u=[[0, 0, 0], [1, 1, -1], [-1, 1, 1]])
    def test_matches_definition(self, u):
        """Bit a of table[mask] is set exactly when another row is strictly
        greater than row a on every masked column."""
        table = equilibrium._beaten(u)
        n = len(u[0])
        assert len(table) == 1 << n and table[0] == 0
        for mask in range(1, 1 << n):
            columns = [t for t in range(n) if mask >> t & 1]
            expected = sum(
                1 << a
                for a, va in enumerate(u)
                if any(all(vb[t] > va[t] for t in columns) for vb in u)
            )
            assert table[mask] == expected, (mask, columns)


class TestDominanceReduction:
    def test_column_falls_only_after_a_row_does(self):
        # Row 2 is strictly dominated; column 2 is dominated only once row 2
        # is gone, and the matching-pennies core that is left survives.
        g = _int_game(
            [[1, -1, 0], [-1, 1, 0], [-2, -2, -1]], [[-1, 1, -2], [1, -1, -2], [0, 0, 5]]
        )
        assert dominance_facts(g, "strict") == [
            DominanceFact(1, 2, 0, "strict"), DominanceFact(1, 2, 1, "strict")
        ]
        u1, u2 = equilibrium._integer_payoffs(g)
        assert equilibrium._undominated(u1, u2) == ([0, 1], [0, 1])
        half, zero = Fraction(1, 2), Fraction(0)
        expected, tie = reference_support_enumeration(g)
        assert expected == [MixedProfile((half, half, zero), (half, half, zero))]
        assert mixed_equilibria(g) == expected
        assert analyze(g).degenerate is tie is False

    def test_row_falls_only_after_the_column_does(self):
        # Row 2 falls, then column 2, which was row 1's only edge, then
        # row 1 and column 0: three passes leave the strict profile (0, 1).
        g = _int_game(
            [[3, 2, 0], [2, 1, 5], [0, 0, -1]], [[1, 2, 0], [1, 0, 0], [0, 0, 9]]
        )
        assert dominance_facts(g, "strict") == [
            DominanceFact(1, 2, 0, "strict"), DominanceFact(1, 2, 1, "strict")
        ]
        u1, u2 = equilibrium._integer_payoffs(g)
        assert equilibrium._undominated(u1, u2) == ([0], [1])
        one, zero = Fraction(1), Fraction(0)
        assert mixed_equilibria(g) == reference_support_enumeration(g)[0] == [
            MixedProfile((one, zero, zero), (zero, one, zero))
        ]

    def test_twelve_by_twelve_solves_one_support_pair(self, monkeypatch):
        g = parse_game(CLAIMS_DOC).game
        u1, u2 = equilibrium._integer_payoffs(g)
        assert equilibrium._undominated(u1, u2) == ([0], [0])
        solved = _player1_solves(monkeypatch)
        one, zero = Fraction(1), Fraction(0)
        corner = (one,) + (zero,) * 11
        assert analyze(g).mixed == (MixedProfile(corner, corner),)
        # Without the reduction this is C(24, 12) - 1 = 2,704,155 pairs. The
        # one pair left, ((0,), (0,)), is kept by exclusion and reported as
        # a pure profile without a call to _opponent_mixture.
        assert solved == []

    def test_five_by_five_solves_sixty_seven_systems(self, monkeypatch):
        # Nothing is strictly dominated (the g5 row of the solve goldens in
        # test_cli checks it), so only the exclusion of supports holding a
        # conditionally dominated strategy bounds the work: 67 of the
        # C(10, 5) - 1 = 251 equal-size support pairs are kept.
        g = parse_game(G5_DOC).game
        solved = _player1_solves(monkeypatch)
        sizes = _linear_solves(monkeypatch)
        report = analyze(g)
        assert len(report.mixed) == 7
        # One of them is a pair of one-strategy supports, reported as a pure
        # profile without a call. The other 66 and the 23 player-2 systems
        # that follow a player-1 mixture reach _solve_square, each on a
        # support of two or more.
        assert sum(1 in m.x for m in report.mixed) == len(report.pure) == 1
        assert len(solved) == 66 and min(len(own) for own, _ in solved) == 2
        assert len(sizes) == 89 and min(sizes) == 3

    def test_rock_paper_scissors_skips_conditionally_dominated_supports(self, monkeypatch):
        # Nothing is strictly dominated, but against each support of size 1
        # or 2 some strategy of the other player loses to another on every
        # strategy of it: of the 19 equal-size support pairs only the full
        # one is solved.
        a = [[0, -1, 1], [1, 0, -1], [-1, 1, 0]]
        g = _int_game(a, [[-v for v in row] for row in a])
        solved = _player1_solves(monkeypatch)
        third = (Fraction(1, 3),) * 3
        assert mixed_equilibria(g) == reference_support_enumeration(g)[0] == [
            MixedProfile(third, third)
        ]
        assert solved == [((0, 1, 2), (0, 1, 2))]


def _swap_players(g):
    rows, cols = g.shape
    return make_game(
        g.labels2, g.labels1,
        [[g.u2[i][j] for i in range(rows)] for j in range(cols)],
        [[g.u1[i][j] for i in range(rows)] for j in range(cols)],
    )


class TestPlayerSwap:
    """Exclusion treats both players alike: the transposed game solves as
    many player-1 systems and finds the same profiles, x and y swapped, with
    the same flag."""

    @staticmethod
    def outcome(g, swap):
        with pytest.MonkeyPatch.context() as mp:
            solved = _player1_solves(mp)
            try:
                report = analyze(g, pure=False, dominance=False)
            except NoEquilibriumFoundError:
                return len(solved), None, None
        mixed = {(m.y, m.x) if swap else (m.x, m.y) for m in report.mixed}
        return len(solved), mixed, report.degenerate

    def check(self, g):
        assert self.outcome(_swap_players(g), True) == self.outcome(g, False)

    def test_random_games(self):
        rng = random.Random(5)
        for _ in range(150):
            self.check(random_game(rng, 5, 5))

    @settings(deadline=None, max_examples=150)
    @given(g=_tie_heavy_games())
    def test_tie_heavy_games(self, g):
        self.check(g)


def _permute(g, rows, cols):
    """g with its rows and columns reordered: row k of the result is row rows[k]."""
    return make_game(
        [g.labels1[i] for i in rows], [g.labels2[j] for j in cols],
        *([[u[i][j] for j in cols] for i in rows] for u in (g.u1, g.u2)),
    )


class TestStrategyPermutation:
    """Reordering the strategies reorders every section of the analysis alike
    and keeps the degenerate flag: the masks and positions the solver keeps
    must map back to the right strategies."""

    @staticmethod
    def outcome(g, rows, cols):
        """analyze(g) as sets, each strategy k named rows[k] or cols[k]."""
        try:
            report = analyze(g)
        except NoEquilibriumFoundError:
            return None
        names = {1: rows, 2: cols}

        def spread(v, order):
            return tuple(v[order.index(k)] for k in range(len(order)))

        return (
            {(rows[p.i], cols[p.j], s) for p, s in zip(report.pure, report.strict)},
            {(f.player, names[f.player][f.dominated], names[f.player][f.dominator], f.mode)
             for f in report.dominance},
            {(spread(m.x, rows), spread(m.y, cols)) for m in report.mixed},
            report.degenerate,
        )

    def check(self, g, data):
        rows, cols = (data.draw(st.permutations(range(n))) for n in g.shape)
        identity = [list(range(n)) for n in g.shape]
        assert self.outcome(_permute(g, rows, cols), rows, cols) == self.outcome(g, *identity)

    @settings(deadline=None, max_examples=300)
    @given(data=st.data(), g=_tie_heavy_games(4))
    def test_tie_heavy_games(self, data, g):
        self.check(g, data)

    @settings(deadline=None, max_examples=300)
    @given(data=st.data(), g=_games_over(FRACTIONAL_UNITS))
    def test_fractional_unit_games(self, data, g):
        self.check(g, data)


class TestStructuralProperties:
    def test_affine_rescaling_one_player_preserves_analysis(self):
        rng = random.Random(37)
        for trial in range(40):
            g = random_game(rng, 4, 4)
            a = Fraction(rng.randint(1, 8), rng.choice((1, 2, 3)))
            b = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))
            if trial % 2 == 0:
                h = make_game(g.labels1, g.labels2,
                              [[a * v + b for v in row] for row in g.u1], g.u2)
            else:
                h = make_game(g.labels1, g.labels2, g.u1,
                              [[a * v + b for v in row] for row in g.u2])
            assert pure_equilibria(g) == pure_equilibria(h)
            assert dominance_facts(g, "strict") == dominance_facts(h, "strict")
            assert dominance_facts(g, "weak") == dominance_facts(h, "weak")
            rows, cols = g.shape
            for j in range(cols):
                assert best_responses(g, 1, j) == best_responses(h, 1, j)
            for i in range(rows):
                assert best_responses(g, 2, i) == best_responses(h, 2, i)
            mixed_g, mixed_h = (analyze(k, pure=False, dominance=False) for k in (g, h))
            assert (mixed_g.mixed, mixed_g.degenerate) == (mixed_h.mixed, mixed_h.degenerate)

    def test_player_swap_transposes_pure_equilibria(self):
        rng = random.Random(41)
        for _ in range(40):
            g = random_game(rng, 4, 4)
            direct = {(p.i, p.j) for p in pure_equilibria(g)}
            mirrored = {(p.j, p.i) for p in pure_equilibria(_swap_players(g))}
            assert direct == mirrored


class TestAnalyze:
    @pytest.mark.parametrize(
        "pure, strict",
        [
            ((PureProfile(0, 0),), None),
            (None, (True,)),
            ((PureProfile(0, 0), PureProfile(1, 1)), (True,)),
        ],
    )
    def test_report_rejects_strict_not_parallel_to_pure(self, pure, strict):
        with pytest.raises(ValueError):
            EquilibriumReport(("a", "b"), ("x", "y"), pure=pure, strict=strict)

    def test_report_sections_follow_requests(self):
        report = analyze(classical_pd(), pure=True, mixed=False, dominance=False)
        assert report.pure == (PureProfile(1, 1),)
        assert report.strict == (True,)
        assert report.mixed is None
        assert report.dominance is None
        assert report.degenerate is None

    def test_full_report_on_pd(self):
        report = analyze(classical_pd())
        assert report.labels1 == ("C", "D")
        assert report.pure == (PureProfile(1, 1),)
        assert report.mixed == (
            MixedProfile((Fraction(0), Fraction(1)), (Fraction(0), Fraction(1))),
        )
        assert report.degenerate is False
        assert {(f.player, f.dominated, f.dominator) for f in report.dominance or ()} == {
            (1, 0, 1), (2, 0, 1),
        }

    def test_degeneracy_flagged_for_duplicate_strategies(self):
        g = generalized_pd(PdParams(), Mixture(Fraction(0)))
        report = analyze(g)
        assert report.degenerate is True

    def test_weak_only_facts_labelled(self):
        g = make_game(["a", "b"], ["x", "y"], [[1, 2], [1, 3]], [[0, 0], [0, 0]])
        report = analyze(g, pure=False, mixed=False, dominance=True)
        modes = {(f.player, f.dominated, f.dominator): f.mode for f in report.dominance or ()}
        assert modes[(1, 0, 1)] == "weak"


class TestIntegerComparisonOracle:
    @settings(deadline=None)
    @given(g=_tie_heavy_games())
    def test_pure_strict_and_dominance_match_fraction_reference(self, g):
        # The checker reads every condition off the original Fractions.
        pure = [PureProfile(i, j) for i, j in checker.pure_nash(g.u1, g.u2)]
        strict = [checker.is_strict_nash(g.u1, g.u2, p.i, p.j) for p in pure]
        facts = [DominanceFact(*fact) for fact in sorted(checker.dominance(g.u1, g.u2))]
        assert pure_equilibria(g) == pure
        assert [is_strict(g, p) for p in pure] == strict
        assert dominance_facts(g, "strict") == [f for f in facts if f.mode == "strict"]
        assert dominance_facts(g, "weak") == [
            DominanceFact(f.player, f.dominated, f.dominator, "weak") for f in facts
        ]
        assert analyze(g, mixed=False) == EquilibriumReport(
            g.labels1, g.labels2, pure=tuple(pure), strict=tuple(strict), dominance=tuple(facts)
        )

    def test_pure_and_dominance_make_no_fraction_comparison(self, monkeypatch):
        rng = random.Random(12)
        g = make_game(
            [f"r{i}" for i in range(12)], [f"c{j}" for j in range(12)],
            *([[Fraction(rng.randint(-99, 99), rng.choice((1, 2, 3, 4))) for _ in range(12)]
               for _ in range(12)] for _ in range(2)),
        )
        calls = []
        for name in ("__eq__", "__lt__", "__le__", "__gt__", "__ge__"):
            original = getattr(Fraction, name)

            def counted(a, b, original=original, name=name):
                calls.append(name)
                return original(a, b)

            monkeypatch.setattr(Fraction, name, counted)
        assert Fraction(1, 2) < Fraction(2, 3) and calls == ["__lt__"]
        calls.clear()
        pure_equilibria(g)
        dominance_facts(g, "strict")
        dominance_facts(g, "weak")
        assert calls == []
