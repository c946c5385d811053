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

Deleting S recovers the classical game exactly, whatever the semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Sequence

from .core import Game, Rat, as_rat, integer_payoffs, make_game
from .equilibrium import DominanceFact, dominance_facts, pure_equilibria

Attitude = Literal["pessimistic", "optimistic"]

CLASSICAL_LABELS = ("C", "D")
GENERALIZED_LABELS = ("C", "D", "S")


class NotGeneralizedGameError(ValueError):
    """The game lacks the 3x3-with-silence structure the operation needs."""


@dataclass(frozen=True)
class PdParams:
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
        for field in (
            "years_free",
            "years_both_coop",
            "years_both_defect",
            "years_sucker",
        ):
            object.__setattr__(self, field, as_rat(getattr(self, field)))
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


@dataclass(frozen=True)
class Mixture:
    """Silence behaves as C with probability w, as D with probability 1 - w."""

    w: Rat

    def __post_init__(self) -> None:
        object.__setattr__(self, "w", as_rat(self.w))
        if not 0 <= self.w <= 1:
            raise ValueError(f"mixture weight must be in [0, 1], got {self.w}")


@dataclass(frozen=True)
class Ambiguous:
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


# Resolutions of each generalized strategy into classical indices (C=0, D=1).
_RESOLUTIONS = ((0,), (1,), (0, 1))


def _expectations(u: Sequence[Sequence[int]], p: int, q: int) -> tuple[tuple[int, ...], ...]:
    """q**2 times the 3x3 expectations of a 2x2 u when S plays C with weight p/q.

    C, D and S weigh the resolutions (C, D) as (q, 0), (0, q) and (p, q - p);
    entry (a, b) is the sum of wa[ra] * wb[rb] * u[ra][rb].
    """
    weights = ((q, 0), (0, q), (p, q - p))
    (cc, cd), (dc, dd) = u
    return tuple(
        tuple(ca * (cb * cc + db * cd) + da * (cb * dc + db * dd) for cb, db in weights)
        for ca, da in weights
    )


def _ambiguous_entry(
    u: tuple[tuple[Rat, ...], ...], a: int, b: int, attitude: Attitude
) -> Rat:
    pick = min if attitude == "pessimistic" else max
    return pick(
        u[ra][rb] for ra in _RESOLUTIONS[a] for rb in _RESOLUTIONS[b]
    )


def generalized_pd(params: PdParams, sem: SilenceSemantics) -> Game:
    """The 3x3 game over {C, D, S} whose C/D block equals the classical game."""
    base = classical_pd(params)
    if isinstance(sem, Mixture):
        scale, *payoffs = integer_payoffs(base)
        p, q = sem.w.numerator, sem.w.denominator
        u1, u2 = (
            [[Fraction(v, scale * q * q) for v in row] for row in _expectations(u, p, q)]
            for u in payoffs
        )
    else:
        u1, u2 = (
            [[_ambiguous_entry(u, a, b, sem.attitude) for b in range(3)] for a in range(3)]
            for u in (base.u1, base.u2)
        )
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


@dataclass(frozen=True)
class MixtureCheck:
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

    Every off-diagonal S-entry must equal the w-convex combination of the
    matching C and D entries, and both (S,S) entries must equal the bilinear
    form in w. Entries are scanned in a fixed order (u1 then u2; S-row, then
    S-column, then S,S) so the reported counterexample is deterministic.
    """
    _silence_indices(g3)
    if set(g3.labels1) != {"C", "D", "S"} or set(g3.labels2) != {"C", "D", "S"}:
        raise NotGeneralizedGameError(
            "mixture consistency needs strategy labels {C, D, S} for both "
            f"players, got rows {list(g3.labels1)} and cols {list(g3.labels2)}"
        )
    rows = {label: g3.labels1.index(label) for label in GENERALIZED_LABELS}
    cols = {label: g3.labels2.index(label) for label in GENERALIZED_LABELS}

    # (entry name, S entry, C entry, D entry) for each off-diagonal constraint:
    # S entry == w * C entry + (1 - w) * D entry.
    linear: list[tuple[str, Rat, Rat, Rat]] = []
    for player, u in ((1, g3.u1), (2, g3.u2)):
        for other in ("C", "D"):
            linear.append(
                (
                    f"u{player}(S,{other})",
                    u[rows["S"]][cols[other]],
                    u[rows["C"]][cols[other]],
                    u[rows["D"]][cols[other]],
                )
            )
        for own in ("C", "D"):
            linear.append(
                (
                    f"u{player}({own},S)",
                    u[rows[own]][cols["S"]],
                    u[rows[own]][cols["C"]],
                    u[rows[own]][cols["D"]],
                )
            )

    inferred: Rat | None = None
    for name, s_val, c_val, d_val in linear:
        if c_val == d_val:
            if s_val != d_val:
                return MixtureCheck(
                    consistent=False,
                    counterexample=(
                        f"{name} = {s_val} but the C and D entries both equal {d_val}, "
                        "so no weight can produce it"
                    ),
                )
            continue
        w = (s_val - d_val) / (c_val - d_val)
        if inferred is None:
            if not 0 <= w <= 1:
                return MixtureCheck(
                    consistent=False,
                    counterexample=f"{name} implies weight {w}, outside [0, 1]",
                )
            inferred = w
        elif w != inferred:
            return MixtureCheck(
                consistent=False,
                counterexample=(
                    f"{name} implies weight {w}, conflicting with the already "
                    f"inferred weight {inferred}"
                ),
            )

    for player, u in ((1, g3.u1), (2, g3.u2)):
        ss = u[rows["S"]][cols["S"]]
        cc = u[rows["C"]][cols["C"]]
        cd = u[rows["C"]][cols["D"]]
        dc = u[rows["D"]][cols["C"]]
        dd = u[rows["D"]][cols["D"]]
        if inferred is not None:
            w = inferred
            expected = (
                w * w * cc + w * (1 - w) * cd + (1 - w) * w * dc + (1 - w) * (1 - w) * dd
            )
            if ss != expected:
                return MixtureCheck(
                    consistent=False,
                    counterexample=(
                        f"u{player}(S,S) = {ss} does not match the bilinear form "
                        f"{expected} at weight {inferred}"
                    ),
                )
        else:
            # No off-diagonal entry pinned the weight, which forces the whole
            # C/D block of this tensor to be constant; (S,S) must equal it.
            if ss != dd:
                return MixtureCheck(
                    consistent=False,
                    counterexample=(
                        f"u{player}(S,S) = {ss} but every C/D entry equals {dd}"
                    ),
                )
    if inferred is None:
        return MixtureCheck(consistent=True, any_weight=True)
    return MixtureCheck(consistent=True, w=inferred)


@dataclass(frozen=True)
class SweepRow:
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
    S pays w times C's payoff plus 1 - w times D's against every opponent
    strategy, so D - S = w (D - C) and S - C = (1 - w)(D - C): D strictly
    dominates S for w > 0 and S strictly dominates C for w < 1, for both
    players. So only the games at w = 0, 1/steps and 1 are solved, and rows
    with equal outcomes share one equilibria tuple and one dominance tuple.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")

    def outcome(k: int) -> tuple[tuple[tuple[str, str], ...], tuple[DominanceFact, ...]]:
        g = generalized_pd(params, Mixture(Fraction(k, steps)))
        pairs = tuple((g.labels1[p.i], g.labels2[p.j]) for p in pure_equilibria(g))
        return pairs, tuple(dominance_facts(g, "strict"))

    outcomes = [outcome(0), *[outcome(1)] * (steps - 1), outcome(steps)]
    return [SweepRow(Fraction(k, steps), GENERALIZED_LABELS, *o) for k, o in enumerate(outcomes)]
