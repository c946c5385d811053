"""Acceptance suite: the project's exit criteria, all at exact tolerance.

Every numeric comparison is Fraction equality; there are no epsilons anywhere.
A summary hook in conftest prints one PASS/FAIL line per criterion.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from bimatrix.cli import main
from bimatrix.core import MixedProfile, PureProfile, make_game
from bimatrix.dilemma import (
    Ambiguous,
    Mixture,
    PdParams,
    classical_pd,
    generalized_pd,
    mixture_consistency,
    reduce_to_classical,
)
from bimatrix.equilibrium import (
    DominanceFact,
    best_responses,
    dominance_facts,
    mixed_equilibria,
    pure_equilibria,
)
from bimatrix.formats import parse_game, serialize_game

import checker
from helpers import (
    random_game,
    random_params,
    random_weight,
)

GOLDEN_PD = """\
game classical_pd
rows C D
cols C D
payoffs
C : -1 -1  -5 0
D : 0 -5  -4 -4
"""

GOLDEN_GPD_HALF = """\
game generalized_pd
rows C D S
cols C D S
payoffs
C : -1 -1  -5 0  -3 -1/2
D : 0 -5  -4 -4  -2 -9/2
S : -1/2 -3  -9/2 -2  -5/2 -5/2
"""

GOLDEN_SOLVE_PURE_CSV = "kind,row,col,strictness\npure,D,D,strict\n"


def test_criterion_01_classical_pd_unique_equilibrium():
    g = classical_pd()
    found = pure_equilibria(g)
    assert found == [PureProfile(1, 1)]
    assert [(g.labels1[p.i], g.labels2[p.j]) for p in found] == [("D", "D")]


def test_criterion_02_reduction_identity():
    rng = random.Random(1002)
    weights = [Fraction(k, 10) for k in range(11)]
    for _ in range(50):
        params = random_params(rng)
        base = classical_pd(params)
        for w in weights:
            assert reduce_to_classical(generalized_pd(params, Mixture(w))) == base
        for attitude in ("pessimistic", "optimistic"):
            assert reduce_to_classical(generalized_pd(params, Ambiguous(attitude))) == base


def test_criterion_03_pure_oracle_equivalence():
    rng = random.Random(1003)
    for _ in range(500):
        g = random_game(rng, 6, 6)
        assert [(p.i, p.j) for p in pure_equilibria(g)] == checker.pure_nash(g.u1, g.u2)


@pytest.fixture(scope="module")
def mixed_batch():
    rng = random.Random(1004)
    batch = []
    for _ in range(200):
        g = random_game(rng, 4, 4)
        batch.append((g, mixed_equilibria(g)))
    return batch


def test_criterion_04_mixed_soundness(mixed_batch):
    for g, found in mixed_batch:
        for profile in found:
            assert not checker.mixed_problems(g.u1, g.u2, profile.x, profile.y)
    pennies = make_game(["H", "T"], ["H", "T"], [[1, -1], [-1, 1]], [[-1, 1], [1, -1]])
    half = Fraction(1, 2)
    assert mixed_equilibria(pennies) == [MixedProfile((half, half), (half, half))]


def test_criterion_05_mixed_existence_sentinel(mixed_batch):
    for g, found in mixed_batch:
        assert found, f"empty equilibrium list on a valid {g.shape} game"


def test_criterion_06_silence_dominated():
    rng = random.Random(1006)
    for _ in range(100):
        params = random_params(rng)
        for _ in range(20):
            w = random_weight(rng, positive=True)
            g = generalized_pd(params, Mixture(w))
            facts = dominance_facts(g, "strict")
            assert DominanceFact(1, 2, 1, "strict") in facts
            assert DominanceFact(2, 2, 1, "strict") in facts
            assert pure_equilibria(g) == [PureProfile(1, 1)]


def test_criterion_07_endpoint_collapse():
    rng = random.Random(1007)
    for params in [PdParams()] + [random_params(rng) for _ in range(25)]:
        collapsed_to_c = generalized_pd(params, Mixture(Fraction(1)))
        for u in (collapsed_to_c.u1, collapsed_to_c.u2):
            assert u[2] == u[0]
            assert tuple(row[2] for row in u) == tuple(row[0] for row in u)
        collapsed_to_d = generalized_pd(params, Mixture(Fraction(0)))
        for u in (collapsed_to_d.u1, collapsed_to_d.u2):
            assert u[2] == u[1]
            assert tuple(row[2] for row in u) == tuple(row[1] for row in u)


def test_criterion_08_consistency_inversion():
    rng = random.Random(1008)
    for _ in range(100):
        params = random_params(rng)
        w = random_weight(rng)
        check = mixture_consistency(generalized_pd(params, Mixture(w)))
        assert check.consistent and check.w == w
    ambiguous = mixture_consistency(generalized_pd(PdParams(), Ambiguous("pessimistic")))
    assert not ambiguous.consistent
    assert ambiguous.counterexample is not None


def test_criterion_09_io_round_trip_and_goldens(tmp_path, capsys):
    rng = random.Random(1009)
    for _ in range(200):
        g = random_game(rng, 6, 6)
        assert parse_game(serialize_game(g, "sample")).game == g

    assert main(["pd"]) == 0
    assert capsys.readouterr().out == GOLDEN_PD

    assert main(["gpd", "--w", "1/2"]) == 0
    assert capsys.readouterr().out == GOLDEN_GPD_HALF

    pd_path = tmp_path / "pd.game"
    pd_path.write_text(GOLDEN_PD, encoding="utf-8")
    assert main(["solve", str(pd_path), "--pure", "--format", "csv"]) == 0
    assert capsys.readouterr().out == GOLDEN_SOLVE_PURE_CSV


def test_criterion_10_affine_invariance():
    rng = random.Random(1010)
    for trial in range(100):
        g = random_game(rng, 5, 5)
        a = Fraction(rng.randint(1, 9), rng.choice((1, 2, 3)))
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
