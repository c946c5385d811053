"""Prisoner's dilemma constructors and the three-strategy silence variant.

Outcomes are sentence lengths in years; payoffs are stored as negated years so
that maximizing payoff means minimizing prison time. The classical game has
strategies C (cooperate with the other prisoner) and D (defect/betray). The
generalized game adds S (stay silent), an undeclared stance that the outside
observer cannot tell apart from C or D. Because the original story never fixes
the sentences for silent profiles, S-payoffs are derived from an explicit,
caller-chosen semantics:

* Mixture(w): S behaves as C with probability w and as D with probability
  1 - w; every S-entry is the exact expectation over resolutions.
* Ambiguous(attitude): every S in a profile ranges over {C, D}; each player's
  entry is the worst case (pessimistic) or best case (optimistic) of that
  player's own payoff over all resolutions.

Both semantics come down to one twin rule. The C twin of an S-entry is the
same entry with its last S read as C, and its D twin the same entry with it
read as D. Under Mixture(w) an S-entry is w times its C twin plus 1 - w times
its D twin; under Ambiguous it is the smaller (pessimistic) or the larger
(optimistic) twin. The twins of (S,S) are (S,C) and (S,D), themselves
S-entries, so (S,S) is the bilinear expectation, or the extreme over all four
resolutions.

Deleting S recovers the classical game exactly, whatever the semantics.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Literal, Sequence

from .core import Game, Rat, Record, as_rat, make_game
from .equilibrium import DominanceFact, dominance_facts, pure_equilibria

Attitude = Literal["pessimistic", "optimistic"]

CLASSICAL_LABELS = ("C", "D")
GENERALIZED_LABELS = ("C", "D", "S")


class NotGeneralizedGameError(ValueError):
    """The game lacks the 3x3-with-silence structure the operation needs."""


class PdParams(Record):
    """Sentence lengths (years) for the four prisoner's dilemma outcomes.

    years_free: the betrayer's sentence when the other cooperates.
    years_sucker: the cooperator's sentence when the other betrays.
    The dilemma requires years_free < years_both_coop < years_both_defect <
    years_sucker, all non-negative.
    """

    years_free: Rat = Fraction(0)
    years_both_coop: Rat = Fraction(1)
    years_both_defect: Rat = Fraction(4)
    years_sucker: Rat = Fraction(5)

    def __post_init__(self) -> None:
        for name in self.__match_args__:
            object.__setattr__(self, name, as_rat(getattr(self, name)))
        if self.years_free < 0:
            raise ValueError("sentence lengths must be non-negative")
        ordered = (
            self.years_free
            < self.years_both_coop
            < self.years_both_defect
            < self.years_sucker
        )
        if not ordered:
            raise ValueError(
                "dilemma ordering violated: need years_free < years_both_coop "
                "< years_both_defect < years_sucker, got "
                f"{self.years_free} / {self.years_both_coop} / "
                f"{self.years_both_defect} / {self.years_sucker}"
            )


class Mixture(Record):
    """Silence behaves as C with probability w, as D with probability 1 - w."""

    w: Rat

    def __post_init__(self) -> None:
        object.__setattr__(self, "w", as_rat(self.w))
        if not 0 <= self.w <= 1:
            raise ValueError(f"mixture weight must be in [0, 1], got {self.w}")


class Ambiguous(Record):
    """Silence stays unresolved; entries take each player's worst or best case."""

    attitude: Attitude

    def __post_init__(self) -> None:
        if self.attitude not in ("pessimistic", "optimistic"):
            raise ValueError(f"unknown attitude {self.attitude!r}")


SilenceSemantics = Mixture | Ambiguous


def classical_pd(params: PdParams = PdParams()) -> Game:
    """The 2x2 prisoner's dilemma with payoffs stored as negated years."""
    free = -params.years_free
    coop = -params.years_both_coop
    defect = -params.years_both_defect
    sucker = -params.years_sucker
    u1 = ((coop, sucker), (free, defect))
    u2 = ((coop, free), (sucker, defect))
    return make_game(CLASSICAL_LABELS, CLASSICAL_LABELS, u1, u2)


def _with_silence(u: Sequence[Sequence[Rat]], combine: Callable[[Rat, Rat], Rat]) -> list[list[Rat]]:
    """Extend a 2x2 C/D block by an S row, then an S column, by the twin rule.

    Each new entry is combine(C twin, D twin), so (S,S) combines (S,C) and (S,D).
    """
    rows = [list(row) for row in u]
    rows.append([combine(c, d) for c, d in zip(*rows)])
    return [[*row, combine(*row)] for row in rows]


def generalized_pd(params: PdParams, sem: SilenceSemantics) -> Game:
    """The 3x3 game over {C, D, S} whose C/D block equals the classical game.

    Both semantics run the twin rule (module docstring) on the classical
    game's Fractions: d + w (c - d) under Mixture(w), min or max under Ambiguous.
    """
    combine: Callable[[Rat, Rat], Rat]
    if isinstance(sem, Mixture):
        combine = lambda c, d: d + sem.w * (c - d)
    elif isinstance(sem, Ambiguous):
        combine = min if sem.attitude == "pessimistic" else max
    else:
        raise TypeError(f"semantics must be a Mixture or an Ambiguous, got {type(sem).__name__}")
    base = classical_pd(params)
    u1, u2 = (_with_silence(u, combine) for u in (base.u1, base.u2))
    return make_game(GENERALIZED_LABELS, GENERALIZED_LABELS, u1, u2)


def _silence_indices(g3: Game) -> tuple[int, int]:
    if g3.shape != (3, 3) or "S" not in g3.labels1 or "S" not in g3.labels2:
        raise NotGeneralizedGameError(
            "expected a 3x3 game with an 'S' strategy for both players, got "
            f"{g3.shape[0]}x{g3.shape[1]} with rows {list(g3.labels1)} and "
            f"cols {list(g3.labels2)}"
        )
    return g3.labels1.index("S"), g3.labels2.index("S")


def reduce_to_classical(g3: Game) -> Game:
    """Drop the S row and column from both tensors, preserving the other order."""
    si, sj = _silence_indices(g3)
    keep_rows = [i for i in range(3) if i != si]
    keep_cols = [j for j in range(3) if j != sj]
    return make_game(
        [g3.labels1[i] for i in keep_rows],
        [g3.labels2[j] for j in keep_cols],
        [[g3.u1[i][j] for j in keep_cols] for i in keep_rows],
        [[g3.u2[i][j] for j in keep_cols] for i in keep_rows],
    )


class MixtureCheck(Record):
    """Whether a 3x3 silence game's S-entries are a single-weight mixture.

    Exactly one of these holds: `w` is the unique inferred weight
    (consistent=True), the game is consistent for every weight in [0, 1]
    (any_weight=True, possible only when the C and D entries coincide), or
    `counterexample` names the first entry that breaks consistency.
    """

    consistent: bool
    w: Rat | None = None
    any_weight: bool = False
    counterexample: str | None = None


def mixture_consistency(g3: Game) -> MixtureCheck:
    """Infer the mixture weight from a 3x3 {C, D, S} game, or refute one.

    Under Mixture(w) every S-entry s, with C twin c and D twin d (module
    docstring), obeys s - d = w (c - d). Entries are scanned in a fixed order
    (u1 then u2, each S-row then S-column, then (S,S) of u1 and of u2) so the
    reported counterexample is deterministic. Until the weight is pinned, an
    entry whose twins are equal must equal them; the first edge entry whose
    twins differ pins w, which must lie in [0, 1]. Every later entry is
    checked by the same equation, so (S,S), whose twins (S,C) and (S,D) were
    checked before, checks the bilinear form in w.
    """
    _silence_indices(g3)
    if set(g3.labels1) != {"C", "D", "S"} or set(g3.labels2) != {"C", "D", "S"}:
        raise NotGeneralizedGameError(
            "mixture consistency needs strategy labels {C, D, S} for both "
            f"players, got rows {list(g3.labels1)} and cols {list(g3.labels2)}"
        )
    rows = {label: g3.labels1.index(label) for label in GENERALIZED_LABELS}
    cols = {label: g3.labels2.index(label) for label in GENERALIZED_LABELS}
    edges = [(p, a, b) for p in (1, 2) for a, b in ("SC", "SD", "CS", "DS")]

    w: Rat | None = None
    for player, a, b in edges + [(1, "S", "S"), (2, "S", "S")]:
        u = g3.u1 if player == 1 else g3.u2
        # The C and D twins read the entry's last S as C, then as D.
        twins = ((a, "C"), (a, "D")) if b == "S" else (("C", b), ("D", b))
        name, s_val = f"u{player}({a},{b})", u[rows[a]][cols[b]]
        c_val, d_val = (u[rows[x]][cols[y]] for x, y in twins)
        corner = a == b
        # A corner never pins the weight: when no edge pinned it, every C/D
        # entry of its tensor is equal, so the corner's twins are equal too.
        if w is None and c_val != d_val:
            w = (s_val - d_val) / (c_val - d_val)
            if 0 <= w <= 1:
                continue
            message = f"{name} implies weight {w}, outside [0, 1]"
        # Unpinned, the twins are equal here and every weight gives d_val.
        elif s_val - d_val == (w or 0) * (c_val - d_val):
            continue
        elif corner and w is not None:
            expected = w * c_val + (1 - w) * d_val
            message = f"{name} = {s_val} does not match the bilinear form {expected} at weight {w}"
        elif c_val != d_val:
            message = (
                f"{name} implies weight {(s_val - d_val) / (c_val - d_val)}, "
                f"conflicting with the already inferred weight {w}"
            )
        elif corner:
            message = f"{name} = {s_val} but every C/D entry equals {d_val}"
        else:
            message = (
                f"{name} = {s_val} but the C and D entries both equal {d_val}, "
                "so no weight can produce it"
            )
        return MixtureCheck(consistent=False, counterexample=message)
    return MixtureCheck(consistent=True, w=w, any_weight=w is None)


class SweepRow(Record):
    """Equilibrium structure of the generalized game at one mixture weight."""

    w: Rat
    labels: tuple[str, ...]
    equilibria: tuple[tuple[str, str], ...]
    dominance: tuple[DominanceFact, ...]


def sweep_mixture(params: PdParams, steps: int) -> list[SweepRow]:
    """Evaluate Mixture(k/steps) for k = 0..steps on an exact rational grid.

    Each row records the pure equilibria (as label pairs, lexicographic) and
    the strict dominance facts of the generalized game at that weight.

    The sweep has three outcomes: w = 0, 0 < w < 1 and w = 1. Every valid
    PdParams makes D strictly dominate C, also against S, which mixes C and D.
    By the twin rule (module docstring), and by the bilinear form at (S,S), S
    pays w times C's payoff plus 1 - w times D's against every opponent
    strategy, so D - S = w (D - C) and S - C = (1 - w)(D - C): D strictly
    dominates S for w > 0 and S strictly dominates C for w < 1, for both
    players. So only the games at w = 0, 1/steps (for steps >= 2) and 1 are
    solved, and rows with equal outcomes share one equilibria tuple and one
    dominance tuple.
    """
    if isinstance(steps, bool) or not isinstance(steps, int):
        raise TypeError(f"steps must be an integer, got {type(steps).__name__}")
    if steps < 1:
        raise ValueError("steps must be at least 1")

    def outcome(k: int) -> tuple[tuple[tuple[str, str], ...], tuple[DominanceFact, ...]]:
        g = generalized_pd(params, Mixture(Fraction(k, steps)))
        pairs = tuple((g.labels1[p.i], g.labels2[p.j]) for p in pure_equilibria(g))
        return pairs, tuple(dominance_facts(g, "strict"))

    middle = [outcome(1)] * (steps - 1) if steps >= 2 else []
    outcomes = [outcome(0), *middle, outcome(steps)]
    return [SweepRow(Fraction(k, steps), GENERALIZED_LABELS, *o) for k, o in enumerate(outcomes)]
