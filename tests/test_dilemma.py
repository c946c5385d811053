"""Tests for the classical and generalized prisoner's dilemma constructors."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bimatrix import dilemma
from bimatrix.core import PureProfile, make_game, validate_game
from bimatrix.dilemma import (
    Ambiguous,
    Mixture,
    MixtureCheck,
    NotGeneralizedGameError,
    PdParams,
    SweepRow,
    classical_pd,
    generalized_pd,
    mixture_consistency,
    reduce_to_classical,
    sweep_mixture,
)
from bimatrix.equilibrium import DominanceFact, dominance_facts, pure_equilibria

import checker
from helpers import random_params, random_weight


class TestPdParams:
    def test_defaults_are_the_story_sentences(self):
        p = PdParams()
        assert (p.years_free, p.years_both_coop, p.years_both_defect, p.years_sucker) == (
            0, 1, 4, 5,
        )

    @pytest.mark.parametrize(
        "years",
        [
            (0, 4, 1, 5),   # both-defect shorter than both-cooperate
            (1, 1, 4, 5),   # tie breaks the strict ordering
            (5, 4, 3, 2),   # fully reversed
            (-1, 1, 4, 5),  # negative sentence
        ],
    )
    def test_ordering_violations_rejected(self, years):
        with pytest.raises(ValueError):
            PdParams(*[Fraction(v) for v in years])

    def test_rational_sentences_accepted(self):
        p = PdParams(Fraction(1, 2), Fraction(3, 4), Fraction(7, 2), Fraction(9, 2))
        assert p.years_sucker == Fraction(9, 2)


class TestClassicalPd:
    def test_default_payoff_matrices(self):
        g = classical_pd()
        assert g.labels1 == ("C", "D") and g.labels2 == ("C", "D")
        assert g.u1 == ((Fraction(-1), Fraction(-5)), (Fraction(0), Fraction(-4)))
        assert g.u2 == ((Fraction(-1), Fraction(0)), (Fraction(-5), Fraction(-4)))

    def test_default_equilibrium_is_mutual_defection(self):
        g = classical_pd()
        assert pure_equilibria(g) == [PureProfile(1, 1)]

    def test_small_integer_variant(self):
        g = classical_pd(PdParams(Fraction(0), Fraction(1), Fraction(2), Fraction(3)))
        assert validate_game(g) == []
        assert pure_equilibria(g) == [PureProfile(1, 1)]


class TestGeneralizedPd:
    def test_weight_one_collapses_silence_to_cooperation(self):
        g = generalized_pd(PdParams(), Mixture(Fraction(1)))
        for u in (g.u1, g.u2):
            assert u[2] == u[0]                        # S row == C row
            assert [r[2] for r in u] == [r[0] for r in u]  # S col == C col

    def test_weight_zero_collapses_silence_to_defection(self):
        g = generalized_pd(PdParams(), Mixture(Fraction(0)))
        for u in (g.u1, g.u2):
            assert u[2] == u[1]
            assert [r[2] for r in u] == [r[1] for r in u]

    def test_half_weight_expectation(self):
        g = generalized_pd(PdParams(), Mixture(Fraction(1, 2)))
        assert g.u1[2][0] == Fraction(-1, 2)   # S vs C: mean of -1 and 0
        assert g.u1[2][1] == Fraction(-9, 2)
        assert g.u1[2][2] == Fraction(-5, 2)
        assert g.u2[0][2] == Fraction(-1, 2)

    def test_classical_block_untouched(self):
        rng = random.Random(5)
        for _ in range(20):
            params = random_params(rng)
            base = classical_pd(params)
            for sem in (Mixture(random_weight(rng)), Ambiguous("pessimistic"),
                        Ambiguous("optimistic")):
                g = generalized_pd(params, sem)
                for i in range(2):
                    for j in range(2):
                        assert g.u1[i][j] == base.u1[i][j]
                        assert g.u2[i][j] == base.u2[i][j]

    def test_pessimistic_entries_take_worst_case(self):
        g = generalized_pd(PdParams(), Ambiguous("pessimistic"))
        assert g.u1[2][1] == Fraction(-5)   # S vs D resolves to the sucker outcome
        assert g.u1[2][2] == Fraction(-5)
        assert g.u1[1][2] == Fraction(-4)

    def test_optimistic_entries_take_best_case(self):
        g = generalized_pd(PdParams(), Ambiguous("optimistic"))
        assert g.u1[2][0] == Fraction(0)    # S vs C can resolve to going free
        assert g.u1[2][2] == Fraction(0)
        assert g.u1[0][2] == Fraction(-1)

    def test_ambiguity_brackets_every_mixture(self):
        rng = random.Random(9)
        for _ in range(20):
            params = random_params(rng)
            low = generalized_pd(params, Ambiguous("pessimistic"))
            high = generalized_pd(params, Ambiguous("optimistic"))
            mid = generalized_pd(params, Mixture(random_weight(rng)))
            for i in range(3):
                for j in range(3):
                    assert low.u1[i][j] <= mid.u1[i][j] <= high.u1[i][j]
                    assert low.u2[i][j] <= mid.u2[i][j] <= high.u2[i][j]

    @settings(deadline=None)
    @given(
        free=st.fractions(0, 20, max_denominator=12),
        gaps=st.lists(st.fractions(Fraction(1, 12), 12, max_denominator=12), min_size=3, max_size=3),
        sem=st.one_of(
            st.fractions(0, 1, max_denominator=10**6).map(Mixture),
            st.sampled_from(["pessimistic", "optimistic"]).map(Ambiguous),
        ),
    )
    @example(free=Fraction(0), gaps=[Fraction(1), Fraction(3), Fraction(1)], sem=Mixture(0))
    @example(free=Fraction(0), gaps=[Fraction(1), Fraction(3), Fraction(1)], sem=Mixture(1))
    @example(free=Fraction(1, 3), gaps=[Fraction(1, 2), Fraction(5), Fraction(7, 4)], sem=Mixture(0))
    @example(free=Fraction(1, 3), gaps=[Fraction(1, 2), Fraction(5), Fraction(7, 4)], sem=Mixture(1))
    def test_every_entry_follows_the_definition(self, free, gaps, sem):
        # checker.gpd_payoffs builds the game straight from the module
        # docstring, sharing no code with the twin rule: C, D and S resolve to
        # C with weights 1, 0 and w (Mixture), or to the sets {C}, {D} and
        # {C, D} (Ambiguous); payoffs are negated years.
        years = (free, free + gaps[0], free + gaps[0] + gaps[1], free + sum(gaps))
        if isinstance(sem, Mixture):
            expected = checker.gpd_payoffs(years, "mixture", sem.w)
        else:
            expected = checker.gpd_payoffs(years, sem.attitude)
        g = generalized_pd(PdParams(*years), sem)
        assert g.labels1 == g.labels2 == ("C", "D", "S")
        assert (g.u1, g.u2) == expected

    def test_invalid_weight_rejected(self):
        with pytest.raises(ValueError):
            Mixture(Fraction(7, 3))
        with pytest.raises(ValueError):
            Mixture(Fraction(-1, 5))

    def test_unknown_attitude_rejected(self):
        with pytest.raises(ValueError):
            Ambiguous("hopeful")  # type: ignore[arg-type]

    @pytest.mark.parametrize("sem", ["pessimistic", None, Fraction(1, 2)])
    def test_semantics_of_another_type_rejected(self, sem):
        with pytest.raises(TypeError, match="Mixture or an Ambiguous"):
            generalized_pd(PdParams(), sem)  # type: ignore[arg-type]


class TestReduction:
    def test_reduction_recovers_classical_game(self):
        rng = random.Random(13)
        for _ in range(20):
            params = random_params(rng)
            base = classical_pd(params)
            for sem in (Mixture(random_weight(rng)), Ambiguous("pessimistic"),
                        Ambiguous("optimistic")):
                assert reduce_to_classical(generalized_pd(params, sem)) == base

    def test_silence_position_does_not_matter(self):
        g = make_game(
            ["X", "S", "Y"], ["S", "P", "Q"],
            [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
            [[9, 8, 7], [6, 5, 4], [3, 2, 1]],
        )
        reduced = reduce_to_classical(g)
        assert reduced.labels1 == ("X", "Y") and reduced.labels2 == ("P", "Q")
        assert reduced.u1 == ((Fraction(2), Fraction(3)), (Fraction(8), Fraction(9)))

    def test_two_by_two_game_rejected(self):
        with pytest.raises(NotGeneralizedGameError):
            reduce_to_classical(classical_pd())

    def test_three_by_three_without_silence_rejected(self):
        g = make_game(["a", "b", "c"], ["x", "y", "z"],
                      [[0] * 3] * 3, [[0] * 3] * 3)
        with pytest.raises(NotGeneralizedGameError):
            reduce_to_classical(g)


_SMALL_RATS = st.fractions(-6, 6, max_denominator=3)
_ENTRIES = [(a, b) for a in "CDS" for b in "CDS"]


@st.composite
def _silence_games(draw):
    """3x3 games over C, D, S in random row and column orders: random tensors,
    a Mixture game with one S-entry shifted (possibly by 0), or constant C/D
    blocks whose S-entries each equal the block or are random."""
    kind = draw(st.sampled_from(["random", "perturbed", "constant"]))
    if kind == "random":
        tensors = [{e: draw(_SMALL_RATS) for e in _ENTRIES} for _ in range(2)]
    elif kind == "perturbed":
        rng = draw(st.randoms(use_true_random=False))
        g = generalized_pd(random_params(rng), Mixture(random_weight(rng)))
        tensors = [
            {(a, b): u[i][j] for i, a in enumerate(g.labels1) for j, b in enumerate(g.labels2)}
            for u in (g.u1, g.u2)
        ]
        entry = draw(st.sampled_from([e for e in _ENTRIES if "S" in e]))
        tensors[draw(st.integers(0, 1))][entry] += draw(_SMALL_RATS)
    else:
        tensors = []
        for _ in range(2):
            block = draw(_SMALL_RATS)
            tensors.append({
                e: block if "S" not in e else draw(st.one_of(st.just(block), _SMALL_RATS))
                for e in _ENTRIES
            })
    rows, cols = draw(st.permutations("CDS")), draw(st.permutations("CDS"))
    u1, u2 = ([[t[a, b] for b in cols] for a in rows] for t in tensors)
    return make_game(rows, cols, u1, u2)


def _weight_set_oracle(g):
    """The set of weights in [0, 1] that fit every S-entry so far, entry by
    entry in the documented scan order. Each S-entry s with C twin c and
    D twin d (its last S read as C, as D) asks (c - d) w = s - d.

    Returns the counterexample's "u<p>(<a>,<b>) " prefix when the set becomes
    empty, else None when it stays all of [0, 1], else its one point."""
    at = lambda u, a, b: u[g.labels1.index(a)][g.labels2.index(b)]
    edges = [(p, a, b) for p in (1, 2) for a, b in (("S", "C"), ("S", "D"), ("C", "S"), ("D", "S"))]
    point = None
    for p, a, b in edges + [(1, "S", "S"), (2, "S", "S")]:
        u = g.u1 if p == 1 else g.u2
        twin = (lambda x: (a, x)) if b == "S" else (lambda x: (x, b))
        s, c, d = at(u, a, b), at(u, *twin("C")), at(u, *twin("D"))
        if point is not None:
            fits = (c - d) * point == s - d
        elif c == d:
            fits = s == d
        else:
            point = (s - d) / (c - d)
            fits = 0 <= point <= 1
        if not fits:
            return f"u{p}({a},{b}) "
    return point


class TestMixtureConsistency:
    def test_recovers_the_construction_weight(self):
        check = mixture_consistency(generalized_pd(PdParams(), Mixture(Fraction(2, 3))))
        assert check.consistent and check.w == Fraction(2, 3)
        assert not check.any_weight and check.counterexample is None

    def test_ambiguous_game_is_not_a_single_mixture(self):
        check = mixture_consistency(generalized_pd(PdParams(), Ambiguous("pessimistic")))
        assert not check.consistent
        assert check.counterexample is not None

    def test_noise_entries_rejected_with_witness(self):
        g = make_game(
            ["C", "D", "S"], ["C", "D", "S"],
            [[-1, -5, 17], [0, -4, 23], [31, 37, 41]],
            [[-1, 0, 43], [-5, -4, 47], [53, 59, 61]],
        )
        check = mixture_consistency(g)
        assert not check.consistent
        assert "u1" in (check.counterexample or "")

    def test_constant_block_consistent_for_every_weight(self):
        g = make_game(
            ["C", "D", "S"], ["C", "D", "S"],
            [[5, 5, 5]] * 3,
            [[7, 7, 7]] * 3,
        )
        check = mixture_consistency(g)
        assert check.consistent and check.any_weight and check.w is None

    def test_constant_block_with_wrong_corner_rejected(self):
        g = make_game(
            ["C", "D", "S"], ["C", "D", "S"],
            [[5, 5, 5], [5, 5, 5], [5, 5, 6]],
            [[7, 7, 7]] * 3,
        )
        check = mixture_consistency(g)
        assert not check.consistent
        assert "u1(S,S)" in (check.counterexample or "")

    def test_out_of_range_weight_rejected(self):
        base = classical_pd()
        # S-entries extrapolate beyond the C/D segment: weight would be 2.
        row_s = [2 * base.u1[0][j] - base.u1[1][j] for j in range(2)]
        col_s = [2 * base.u1[i][0] - base.u1[i][1] for i in range(2)]
        u1 = [list(base.u1[0]) + [col_s[0]], list(base.u1[1]) + [col_s[1]], row_s + [0]]
        u2 = [list(base.u2[0]) + [0], list(base.u2[1]) + [0], [0, 0, 0]]
        check = mixture_consistency(make_game(["C", "D", "S"], ["C", "D", "S"], u1, u2))
        assert not check.consistent
        assert "outside [0, 1]" in (check.counterexample or "")

    @pytest.mark.parametrize(
        "labels1, labels2, u1, u2, expected",
        [
            pytest.param(
                "SCD", "DSC",
                [[-9, -5, -1], [-10, -6, -2], [-8, -4, 0]],
                [[-4, -5, -6], [0, -1, -2], [-8, -9, -10]],
                MixtureCheck(consistent=True, w=Fraction(1, 2)),
                id="weight-permuted-labels",
            ),
            pytest.param(
                "CDS", "CDS", [[5] * 3] * 3, [[7] * 3] * 3,
                MixtureCheck(consistent=True, any_weight=True),
                id="any-weight",
            ),
            pytest.param(
                "CDS", "CDS", [[1, 2, 3], [1, 4, 5], [6, 7, 8]], [[0] * 3] * 3,
                MixtureCheck(
                    consistent=False,
                    counterexample=(
                        "u1(S,C) = 6 but the C and D entries both equal 1, "
                        "so no weight can produce it"
                    ),
                ),
                id="twins-equal",
            ),
            pytest.param(
                "CDS", "CDS", [[-1, -5, 0], [0, -4, 0], [-2, -6, 0]], [[0] * 3] * 3,
                MixtureCheck(
                    consistent=False,
                    counterexample="u1(S,C) implies weight 2, outside [0, 1]",
                ),
                id="outside-unit-interval",
            ),
            pytest.param(
                "DSC", "SCD",
                [[-4, 0, -4], [-5, -1, -5], [-5, -1, -5]],
                [[-5, -5, -4], [-5, -5, -4], [-1, -1, 0]],
                MixtureCheck(
                    consistent=False,
                    counterexample=(
                        "u1(C,S) implies weight 0, conflicting with the "
                        "already inferred weight 1"
                    ),
                ),
                id="conflicting-weight-pessimistic-permuted",
            ),
            pytest.param(
                "CDS", "CDS",
                [[-2, -10, -6], [0, -8, -4], [-1, -9, -5]],
                [[-2, 0, -1], [-10, -8, -9], [-6, -4, -4]],
                MixtureCheck(
                    consistent=False,
                    counterexample=(
                        "u2(S,S) = -4 does not match the bilinear form -5 at weight 1/2"
                    ),
                ),
                id="corner-bilinear",
            ),
            pytest.param(
                "CDS", "CDS",
                [[5, 5, 5], [5, 5, 5], [5, 5, 6]],
                [[-2, 0, -1], [-10, -8, -9], [-6, -4, -5]],
                MixtureCheck(
                    consistent=False,
                    counterexample=(
                        "u1(S,S) = 6 does not match the bilinear form 5 at weight 1/2"
                    ),
                ),
                id="corner-constant-block-other-player-weighted",
            ),
            pytest.param(
                "CDS", "CDS", [[5, 5, 5], [5, 5, 5], [5, 5, 6]], [[7] * 3] * 3,
                MixtureCheck(
                    consistent=False,
                    counterexample="u1(S,S) = 6 but every C/D entry equals 5",
                ),
                id="corner-constant-block",
            ),
        ],
    )
    def test_whole_check_per_outcome(self, labels1, labels2, u1, u2, expected):
        g = make_game(list(labels1), list(labels2), u1, u2)
        assert mixture_consistency(g) == expected

    def test_wrong_labels_rejected(self):
        g = make_game(["A", "B", "S"], ["A", "B", "S"], [[0] * 3] * 3, [[0] * 3] * 3)
        with pytest.raises(NotGeneralizedGameError):
            mixture_consistency(g)

    def test_inversion_on_random_parameters(self):
        rng = random.Random(17)
        for _ in range(40):
            params = random_params(rng)
            w = random_weight(rng)
            check = mixture_consistency(generalized_pd(params, Mixture(w)))
            assert check.consistent and check.w == w

    @settings(deadline=None, max_examples=400)
    @given(game=_silence_games())
    def test_against_weight_set_oracle(self, game):
        expected = _weight_set_oracle(game)
        check = mixture_consistency(game)
        if isinstance(expected, str):
            assert (check.consistent, check.w, check.any_weight) == (False, None, False)
            assert (check.counterexample or "").startswith(expected)
        elif expected is None:
            assert check == MixtureCheck(consistent=True, any_weight=True)
        else:
            assert check == MixtureCheck(consistent=True, w=expected)


class TestSweep:
    def test_grid_is_exact_and_ordered(self):
        rows = sweep_mixture(PdParams(), 4)
        assert [row.w for row in rows] == [Fraction(k, 4) for k in range(5)]

    def test_mutual_defection_everywhere(self):
        for row in sweep_mixture(PdParams(), 4):
            assert ("D", "D") in row.equilibria

    def test_weight_zero_ties_silence_with_defection(self):
        row = sweep_mixture(PdParams(), 4)[0]
        assert row.equilibria == (("D", "D"), ("D", "S"), ("S", "D"), ("S", "S"))

    def test_positive_weights_leave_single_equilibrium(self):
        for row in sweep_mixture(PdParams(), 4)[1:]:
            assert row.equilibria == (("D", "D"),)
            assert DominanceFact(1, 2, 1, "strict") in row.dominance
            assert DominanceFact(2, 2, 1, "strict") in row.dominance

    def test_rows_match_direct_evaluation(self):
        rng = random.Random(19)
        params = random_params(rng)
        for row in sweep_mixture(params, 6):
            g = generalized_pd(params, Mixture(row.w))
            expected = tuple((g.labels1[p.i], g.labels2[p.j]) for p in pure_equilibria(g))
            assert row.equilibria == expected
            assert row.dominance == tuple(dominance_facts(g, "strict"))

    @settings(deadline=None)
    @given(
        free=st.fractions(0, 20, max_denominator=6),
        gaps=st.lists(st.fractions(Fraction(1, 6), 12, max_denominator=6), min_size=3, max_size=3),
        steps=st.integers(1, 60),
    )
    @example(free=Fraction(0), gaps=[Fraction(1), Fraction(3), Fraction(1)], steps=1)
    @example(free=Fraction(1, 2), gaps=[Fraction(11, 6), Fraction(13, 6), Fraction(13, 2)], steps=2)
    def test_rows_equal_exact_games_at_every_weight(self, free, gaps, steps):
        params = PdParams(free, free + gaps[0], free + gaps[0] + gaps[1], free + sum(gaps))
        expected = []
        for k in range(steps + 1):
            g = generalized_pd(params, Mixture(Fraction(k, steps)))
            expected.append(SweepRow(
                w=Fraction(k, steps),
                labels=g.labels1,
                equilibria=tuple((g.labels1[p.i], g.labels2[p.j]) for p in pure_equilibria(g)),
                dominance=tuple(dominance_facts(g, "strict")),
            ))
        assert sweep_mixture(params, steps) == expected

    @settings(deadline=None)
    @given(
        free=st.fractions(0, 20, max_denominator=12),
        gaps=st.lists(st.fractions(Fraction(1, 12), 12, max_denominator=12), min_size=3, max_size=3),
        w=st.fractions(0, 1, max_denominator=10**6).filter(lambda w: 0 < w < 1),
    )
    def test_three_regimes_whatever_the_sentences(self, free, gaps, w):
        # D strictly dominates C, and S pays the w-convex combination of C and
        # D, so for 0 < w < 1 every column is ordered D > S > C.
        params = PdParams(free, free + gaps[0], free + gaps[0] + gaps[1], free + sum(gaps))
        C, D, S = 0, 1, 2

        def outcome(weight):
            g = generalized_pd(params, Mixture(weight))
            return pure_equilibria(g), dominance_facts(g, "strict")

        def facts(*pairs):
            return [DominanceFact(player, a, b, "strict") for player in (1, 2) for a, b in pairs]

        assert outcome(0) == (
            [PureProfile(D, D), PureProfile(D, S), PureProfile(S, D), PureProfile(S, S)],
            facts((C, D), (C, S)),
        )
        assert outcome(w) == ([PureProfile(D, D)], facts((C, D), (C, S), (S, D)))
        assert outcome(1) == ([PureProfile(D, D)], facts((C, D), (S, D)))

    @pytest.mark.parametrize("steps, games", [(1, 2), (2, 3), (5, 3)])
    def test_solves_at_most_three_games(self, monkeypatch, steps, games):
        # w = 0, 1/steps and 1; with one step the middle run is empty, so
        # the w = 1 game is built once.
        weights = []

        def counted(params, sem):
            weights.append(sem.w)
            return generalized_pd(params, sem)

        monkeypatch.setattr(dilemma, "generalized_pd", counted)
        rows = sweep_mixture(PdParams(), steps)
        assert len(weights) == games
        assert sorted(set(weights)) == sorted({Fraction(0), Fraction(1, steps), Fraction(1)})
        assert [row.w for row in rows] == [Fraction(k, steps) for k in range(steps + 1)]

    def test_step_count_validated(self):
        with pytest.raises(ValueError):
            sweep_mixture(PdParams(), 0)

    @pytest.mark.parametrize(
        "steps", [True, False, 2.0, Fraction(2), "2"], ids=["True", "False", "float", "Fraction", "str"]
    )
    def test_step_count_must_be_an_int(self, steps):
        # A bool would make rows w = k/True, and a float fails inside Fraction.
        with pytest.raises(TypeError, match="steps must be an integer"):
            sweep_mixture(PdParams(), steps)
