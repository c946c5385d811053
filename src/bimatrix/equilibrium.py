"""Best responses, Nash equilibria, and dominance analysis in exact arithmetic.

Pure equilibria are checked directly against the weak-inequality best-response
conditions. They, dominance and mixed enumeration read the payoffs scaled to
integers by the LCM of their denominators (_integer_payoffs); scaling by
one positive integer keeps the order of the values and the solutions of the
indifference systems, so every answer stays exact.

Mixed equilibria come from support enumeration: for every pair of nonempty
supports of equal size, each player's square indifference system is solved
over Fraction, and solutions are kept only if every support probability is
strictly positive and no off-support deviation pays more (weak inequality,
exact). Unequal sizes are skipped: one player's system then has more unknowns
than equations, so it never has the unique solution enumeration keeps. A
pair of one-strategy supports, a pure profile, needs no system and no check
of its own: the exclusion below keeps it exactly when it is a pure
equilibrium, and it is reported as point masses. A pair of two-strategy
supports, (s, r) against (t, v), is decided first by one sign test on the
integers: with d_t = u[s][t] - u[r][t] and d_v = u[s][v] - u[r][v],
indifference asks p_t d_t + p_v d_v = 0, which positive p_t and p_v meet
only when d_t * d_v < 0, so every other pair is skipped before any Fraction
is built.
Larger pairs with twins are skipped as early: two strategies of one support
that pay alike on the other support, or two strategies of the other support
that pay the player alike on the first, give the system two equal rows or
two equal columns, so it is singular. At size 2 twins make d_t = d_v, which
the sign test already rejects. The paper's silence strategy is such a twin
of D at w = 0 and of C at w = 1. Both tests live in _ruled_out, and both
players' integer tests run before either player's system is built, so a
pair that player 2's integers rule out builds no Fraction for player 1
either. The systems left are solved by Gauss-Jordan elimination whose step
c divides and updates only columns c..n, since the pivot row is zero left
of column c. Intended for small games (at most ~7 strategies per side after
elimination).

Strict dominance is one relation: strategy b pays strictly more than
strategy a against every opponent strategy held. Dominance facts and
elimination decide it by one test, `all(map(gt, vb, va))`, and the
exclusion tables read it off win masks. Mixed enumeration uses it to prune
supports in two ways:
- Elimination. Supports are drawn only from the strategies that survive
  iterated strict dominance by pure strategies (_dominated). A removed
  strategy pays strictly less than a survivor against every mixture of
  surviving opponent strategies, so no equilibrium puts weight on it and it
  pays strictly less than the equilibrium payoff. Systems and off-support
  checks therefore run on the survivors alone, with the same profiles. Weak
  dominance can lose equilibria and is not used.
- Exclusion. A support pair is skipped unsolved when one player's support
  holds a strategy that another surviving strategy of that player beats on
  every strategy of the opponent's support (conditional strict dominance,
  Porter, Nudelman & Shoham 2008); _beaten tabulates this once per game for
  every opponent support, of every width. It compares each ordered pair
  (a, b) of the player's survivors once: the opponent strategies where b
  pays more than a form the win mask, b beats a on exactly its nonempty
  subsets, and a is marked on those alone, for a sum of 2^|wins| updates
  over the pairs instead of a pass over every opponent mask. Each strategy
  of the opponent's support has positive weight, so the beaten strategy pays
  strictly less against the opponent's mixture, and the player's own system
  rejects the pair: with the better strategy in the support the two cannot
  tie, without it that strategy gains off-support. At size 1 the tables are
  the whole test: against the opponent's one strategy t, a strategy is
  beaten exactly when another survivor pays more at t, which is the
  off-support check. At size 2 the sign test above sharpens this to weak
  conditional dominance: a pair is skipped when one support strategy pays at
  least as much as the other on both opponent strategies, since a zero or a
  shared sign of d_t and d_v rejects it.
Either way the list and its order are those of enumerating every support:
reduced masks map monotonically to the original ones.

Strictness and degeneracy come from one rule, the best-reply tie count:
against the opponent's strategy or integer-scaled mixture, count the
player's pure strategies that tie for best. A pure equilibrium is strict
when both players' counts are 1 (_pure_profiles, and is_strict through
best_responses). A reported equilibrium is degenerate when some player's
count exceeds that player's own support size: a strategy off its support is
a best reply to the opponent's mixture (von Stengel, Handbook of Game Theory
vol. 3, 2002). _tied decides this after the search, from each profile and
the whole game's integer payoffs; a removed strategy never ties.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import gt, lt, mul
from typing import Iterator, Literal, Sequence

from .core import (
    Game, MixedProfile, Player, PureProfile, Rat, Record, check_index, check_player, check_profile,
)

Mode = Literal["strict", "weak"]
IntMatrix = Sequence[Sequence[int]]


class NoEquilibriumFoundError(RuntimeError):
    """Support enumeration found nothing on a valid game.

    Every finite game has at least one equilibrium, so an empty result is a
    solver defect, never a legitimate answer.
    """


class DominanceFact(Record):
    """Strategy `dominated` is dominated by `dominator` for `player`."""

    player: Player
    dominated: int
    dominator: int
    mode: Mode


class EquilibriumReport(Record):
    """Everything the solver found for one game.

    Sections that were not requested are None; `strict` is parallel to `pure`
    and marks which pure equilibria are strict: each player's strategy is the
    only one that ties for best. `degenerate` is set when some reported mixed
    profile is degenerate: for some player more strategies tie for best than
    that player's support holds, so one off the support is a best reply (see
    the module docstring). That signals a possible continuum of equilibria
    beyond the reported vertices.
    """

    labels1: tuple[str, ...]
    labels2: tuple[str, ...]
    pure: tuple[PureProfile, ...] | None = None
    strict: tuple[bool, ...] | None = None
    mixed: tuple[MixedProfile, ...] | None = None
    dominance: tuple[DominanceFact, ...] | None = None
    degenerate: bool | None = None

    def __post_init__(self) -> None:
        pure, strict = self.pure, self.strict
        if (pure is None) != (strict is None) or (pure is not None and len(pure) != len(strict)):
            raise ValueError("strict must be parallel to pure: both None or equally long")


def best_responses(g: Game, player: Player, opponent_choice: int) -> frozenset[int]:
    """The argmax set of the player's payoffs against a fixed opponent strategy."""
    check_player(player)
    check_index(opponent_choice)
    rows, cols = g.shape
    if player == 1:
        if not 0 <= opponent_choice < cols:
            raise IndexError(f"column {opponent_choice} out of range")
        values = [g.u1[i][opponent_choice] for i in range(rows)]
    else:
        if not 0 <= opponent_choice < rows:
            raise IndexError(f"row {opponent_choice} out of range")
        values = [g.u2[opponent_choice][j] for j in range(cols)]
    best = max(values)
    return frozenset(k for k, v in enumerate(values) if v == best)


def is_nash(g: Game, p: PureProfile) -> bool:
    """True iff neither player can weakly improve by a unilateral deviation."""
    check_profile(g, p)
    return p.i in best_responses(g, 1, p.j) and p.j in best_responses(g, 2, p.i)


def is_strict(g: Game, p: PureProfile) -> bool:
    """True iff p is an equilibrium and both best-response sets are singletons."""
    check_profile(g, p)
    return best_responses(g, 1, p.j) == {p.i} and best_responses(g, 2, p.i) == {p.j}


def _integer_payoffs(g: Game) -> tuple[list[list[int]], list[list[int]]]:
    """Both matrices times the LCM of all their denominators, which keeps every comparison."""
    scale = math.lcm(*[v.denominator for u in (g.u1, g.u2) for row in u for v in row])
    u1, u2 = ([[v.numerator * (scale // v.denominator) for v in row] for row in u] for u in (g.u1, g.u2))
    return u1, u2


def _pure_profiles(u1: IntMatrix, u2: IntMatrix) -> list[tuple[PureProfile, bool]]:
    """The pure equilibria of integer payoffs, in lexicographic order, in
    O(mn), each with its strict flag: its payoff occurs once in its column of
    u1 and once in its row of u2, so each player has one best reply."""
    columns = list(zip(*u1))
    col_best = [max(column) for column in columns]
    row_best = [max(row) for row in u2]
    return [
        (PureProfile(i, j), columns[j].count(v1) == row2.count(v2) == 1)
        for i, (row1, row2) in enumerate(zip(u1, u2))
        for j, (v1, v2) in enumerate(zip(row1, row2))
        if v1 == col_best[j] and v2 == row_best[i]
    ]


def pure_equilibria(g: Game) -> list[PureProfile]:
    """All pure equilibria, in lexicographic (row, column) order, in O(mn)."""
    u1, u2 = _integer_payoffs(g)
    return [p for p, _ in _pure_profiles(u1, u2)]


def _dominance_pairs(u1: IntMatrix, u2: IntMatrix) -> Iterator[tuple[Player, int, int, Mode]]:
    """Every dominated pair of integer payoffs as (player, dominated,
    dominator, strongest mode).

    Pairs come in (player, dominated, dominator) order; mode is "strict" when
    the dominator pays more against every opponent strategy, else "weak".
    """
    for player, vectors in ((1, u1), (2, tuple(zip(*u2)))):
        for (a, va), (b, vb) in itertools.product(enumerate(vectors), repeat=2):
            if va != vb and not any(map(lt, vb, va)):
                yield player, a, b, "strict" if all(map(gt, vb, va)) else "weak"


def dominance_facts(g: Game, mode: Mode) -> list[DominanceFact]:
    """Every (dominated, dominator) pair per player, ordered by indices."""
    if mode not in ("strict", "weak"):
        raise ValueError("mode must be 'strict' or 'weak'")
    u1, u2 = _integer_payoffs(g)
    return [
        DominanceFact(player, a, b, mode)
        for player, a, b, found in _dominance_pairs(u1, u2)
        if mode == "weak" or found == "strict"
    ]


def expected_payoff(g: Game, player: Player, m: MixedProfile) -> Rat:
    """Bilinear expected payoff of a mixed profile, exact."""
    check_player(player)
    rows, cols = g.shape
    if len(m.x) != rows or len(m.y) != cols:
        raise IndexError(
            f"profile shape ({len(m.x)}, {len(m.y)}) does not match game {rows}x{cols}"
        )
    u = g.u1 if player == 1 else g.u2
    return sum(
        (m.x[i] * m.y[j] * u[i][j] for i in range(rows) for j in range(cols)),
        start=Fraction(0),
    )


# Fractions, not ints: an int row divided by an int pivot would turn into
# floats, so systems of int payoffs put the column of _MINUS_ONE first.
_ZERO, _ONE, _MINUS_ONE = Fraction(0), Fraction(1), Fraction(-1)


def _solve_square(a: list[list[Rat | int]], b: list[Rat]) -> list[Rat] | None:
    """Gauss-Jordan over Fraction: the solution of square a z = b, or None if a is singular.

    Step c divides and updates columns c..n alone: left of column c the
    pivot row is all zeros, so the other rows would only subtract zeros
    there.
    """
    n = len(a)
    aug = [row + [v] for row, v in zip(a, b)]
    for c in range(n):
        pivot = next((k for k in range(c, n) if aug[k][c] != 0), None)
        if pivot is None:
            return None
        aug[c], aug[pivot] = aug[pivot], aug[c]
        row = aug[c]
        inv = row[c]
        row[c:] = tail = [v / inv for v in row[c:]]
        for other in aug:
            factor = other[c]
            if factor != 0 and other is not row:
                other[c:] = [v - factor * w for v, w in zip(other[c:], tail)]
    return [row[n] for row in aug]


def _bits(mask: int) -> tuple[int, ...]:
    return tuple(k for k in range(mask.bit_length()) if mask >> k & 1)


def _dominated(vectors: Sequence[Sequence[int]]) -> list[bool]:
    """Per vector, whether some other vector is strictly greater in every entry."""
    return [any(all(map(gt, vb, va)) for vb in vectors) for va in vectors]


def _beaten(u: IntMatrix) -> list[int]:
    """Per mask over u's columns, the mask over its rows of those another row
    beats on every masked column.

    Row b beats row a on a mask exactly when the mask lies inside wins, the
    columns where b pays more than a, so bit a is set on every nonempty
    subset of wins, and on no other mask, for each ordered pair (a, b).
    """
    table = [0] * (1 << len(u[0]))
    column_bits = [1 << t for t in range(len(u[0]))]
    for a, va in enumerate(u):
        row_bit = 1 << a
        for vb in u:
            wins = sub = sum([bit for bit, x, y in zip(column_bits, va, vb) if y > x])
            while sub:
                table[sub] |= row_bit
                sub = (sub - 1) & wins
    return table


def _undominated(u1: IntMatrix, u2: IntMatrix) -> tuple[list[int], list[int]]:
    """The rows and columns, ascending, that survive iterated elimination of
    every strategy another pure strategy strictly dominates on the survivors."""
    rows, cols = list(range(len(u1))), list(range(len(u1[0])))
    while True:
        dominated = _dominated([[u1[i][j] for j in cols] for i in rows])
        kept_rows = [i for i, out in zip(rows, dominated) if not out]
        dominated = _dominated([[u2[i][j] for i in kept_rows] for j in cols])
        kept_cols = [j for j, out in zip(cols, dominated) if not out]
        if (kept_rows, kept_cols) == (rows, cols):
            return rows, cols
        rows, cols = kept_rows, kept_cols


def _block(u: IntMatrix, own: tuple[int, ...], other: tuple[int, ...]) -> list[tuple[int, ...]]:
    """u[own][other] on a support pair, one tuple per own strategy."""
    return [tuple([u[s][t] for t in other]) for s in own]


def _ruled_out(block: Sequence[tuple[int, ...]]) -> bool:
    """True when the integers alone show that no positive mixture of the
    opponent's support makes the own support a best reply.

    block is one player's integer payoffs u[own][other] on a support pair,
    one tuple per own strategy. At size 2 the sign test decides, and above
    it twin rows or twin columns make the indifference system singular (see
    the module docstring). A block it keeps may still fail its system.
    """
    size = len(block)
    if size == 2:
        (s_t, s_v), (r_t, r_v) = block
        return (s_t - r_t) * (s_v - r_v) >= 0
    return len(set(block)) < size or len(set(zip(*block))) < size


def _opponent_mixture(
    u: IntMatrix,
    own_support: tuple[int, ...],
    other_support: tuple[int, ...],
    block: Sequence[tuple[int, ...]],
) -> list[Rat] | None:
    """The opponent mixture on other_support that makes own_support a best reply.

    u is one player's integer payoffs on the survivors, indexed u[own][other];
    both supports have the same size, and block is u[own][other] on them.
    The search builds the block once and passes both players' blocks
    through _ruled_out before it builds either system, so only the system
    is solved and checked here. Returns the probabilities, in
    other_support's order, or None when the indifference system is
    singular, a probability is not positive, or an off-support survivor
    pays more. Removed strategies cannot beat the payoff, so they are not
    checked. The search does not call it on one-strategy supports, though
    its system answers them too: a pair that exclusion keeps is a pure
    equilibrium, reported as point masses without a system.
    """
    size = len(block)
    a = [[_MINUS_ONE, *row] for row in block]
    a.append([_ZERO] + [_ONE] * size)
    solution = _solve_square(a, [_ZERO] * size + [_ONE])
    if solution is None or any(p <= 0 for p in solution[1:]):
        return None
    value, *mixture = solution
    off_support = (row for s, row in enumerate(u) if s not in own_support)
    deviations = (sum(p * row[t] for t, p in zip(other_support, mixture)) for row in off_support)
    return None if any(d > value for d in deviations) else mixture


def _spread(mixture: list[Rat], support: tuple[int, ...], kept: list[int], n: int) -> list[Rat]:
    """Probabilities on positions among the kept strategies, over all n strategies."""
    weights = {kept[s]: p for s, p in zip(support, mixture)}
    return [weights.get(k, _ZERO) for k in range(n)]


def _enumerate_mixed(u1: IntMatrix, u2: IntMatrix) -> list[MixedProfile]:
    """All isolated support-enumeration equilibria.

    u1 and u2 are _integer_payoffs. Supports are pruned by elimination
    and exclusion (see the module docstring): every system and off-support
    check runs on the survivors' payoffs, player 2's transposed, since a
    removed strategy can neither be in an equilibrium's support nor beat its
    payoff. A pair of one-strategy supports that exclusion keeps is a pure
    equilibrium, reported as point masses without a system. A larger pair
    builds each player's integer block once, player 2's only if player 1's
    passes _ruled_out, and both players' integer tests run before either
    system is built. Each profile found has exactly the supports it was
    solved on, so none repeats; it is mapped back to the original indices,
    and the list comes in (row mask, column mask) order. Raises
    NoEquilibriumFoundError when nothing is found.
    """
    m, n = len(u1), len(u1[0])
    rows, cols = _undominated(u1, u2)
    v1 = [[u1[i][j] for j in cols] for i in rows]
    v2 = [[u2[i][j] for i in rows] for j in cols]
    size = min(len(rows), len(cols))
    beaten_rows, beaten_cols = _beaten(v1), _beaten(v2)
    found: list[MixedProfile] = []
    for mask1 in range(1, 1 << len(rows)):
        if mask1.bit_count() > size:
            continue
        support1 = _bits(mask1)
        for mask2 in range(1, 1 << len(cols)):
            if (
                mask2.bit_count() != len(support1)
                or mask2 & beaten_cols[mask1]
                or mask1 & beaten_rows[mask2]
            ):
                continue
            support2 = _bits(mask2)
            if len(support1) == 1:
                x = y = [_ONE]
            elif (
                _ruled_out(block1 := _block(v1, support1, support2))
                or _ruled_out(block2 := _block(v2, support2, support1))
                or (y := _opponent_mixture(v1, support1, support2, block1)) is None
                or (x := _opponent_mixture(v2, support2, support1, block2)) is None
            ):
                continue
            found.append(MixedProfile(_spread(x, support1, rows, m), _spread(y, support2, cols, n)))
    if not found:
        raise NoEquilibriumFoundError(
            "support enumeration found no equilibrium; this is a solver defect"
        )
    return found


def mixed_equilibria(g: Game) -> list[MixedProfile]:
    """All mixed equilibria found by exact support enumeration.

    Supports are pruned by strict dominance, with the list and order of
    enumerating every support (see the module docstring). Pure equilibria
    appear as point-mass mixtures. Raises NoEquilibriumFoundError if nothing
    is found, since that can only mean a defect, not an equilibrium-free
    game.
    """
    return _enumerate_mixed(*_integer_payoffs(g))


def _tied(u1: IntMatrix, u2: IntMatrix, m: MixedProfile) -> bool:
    """True iff a strategy off the equilibrium m's support is a best reply
    to the opponent's mixture, on the whole game's integer payoffs.

    Each player's support strategies all tie for best, so another one ties
    exactly when more strategies tie than that player's support holds. Both
    mixtures are scaled to integers by the LCM of their denominators, which
    keeps the order of the pure strategies' payoffs against them.
    """
    scale = math.lcm(*[p.denominator for p in (*m.x, *m.y)])
    x, y = ([p.numerator * (scale // p.denominator) for p in w] for w in (m.x, m.y))
    pays1 = [sum(map(mul, row, y)) for row in u1]
    pays2 = [sum(map(mul, column, x)) for column in zip(*u2)]
    return pays1.count(max(pays1)) > sum(map(bool, x)) or pays2.count(max(pays2)) > sum(map(bool, y))


def analyze(
    g: Game,
    *,
    pure: bool = True,
    mixed: bool = True,
    dominance: bool = True,
) -> EquilibriumReport:
    """Run the requested analyses and bundle them into a report."""
    u1, u2 = _integer_payoffs(g)
    pure_found: tuple[PureProfile, ...] | None = None
    strict_flags: tuple[bool, ...] | None = None
    if pure:
        found = _pure_profiles(u1, u2)
        pure_found = tuple(p for p, _ in found)
        strict_flags = tuple(strict for _, strict in found)
    mixed_found: tuple[MixedProfile, ...] | None = None
    degenerate: bool | None = None
    if mixed:
        mixed_found = tuple(_enumerate_mixed(u1, u2))
        degenerate = any(_tied(u1, u2, m) for m in mixed_found)
    facts = tuple(DominanceFact(*pair) for pair in _dominance_pairs(u1, u2)) if dominance else None
    return EquilibriumReport(
        labels1=g.labels1,
        labels2=g.labels2,
        pure=pure_found,
        strict=strict_flags,
        mixed=mixed_found,
        dominance=facts,
        degenerate=degenerate,
    )
