"""Shared generators and independent oracles for the test suite.

The pure-equilibrium scan, the strictness and dominance scans and the mixed
soundness check come from `perfbench/checker.py` (imported as `checker`),
which imports nothing from the library and is also the benchmark's answer
check. The oracles here are the ones the checker lacks, and they too avoid
the library's own solver paths: the reference support enumeration has its
own elimination and no dominance step, the reference extreme equilibria come
from vertex enumeration of the best response polytopes, the equilibrium
index takes its own Fraction determinant, and the reference dominance
elimination compares the Fraction payoffs one at a time. The game
documents that more than one test module pins are written out here by hand,
not by serialize_game.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from bimatrix.core import Game, MixedProfile, make_game
from bimatrix.dilemma import PdParams

CLASSICAL_DOC = """\
game classical_pd
rows C D
cols C D
payoffs
C : -1 -1  -5 0
D : 0 -5  -4 -4
"""


def formula_doc(name: str, rows: int, cols: int, cell) -> str:
    """A game document on rows r0.. and columns c0.. whose cell (i, j) holds
    the payoff pair cell(i, j)."""
    lines = [
        f"game {name}",
        "rows " + " ".join(f"r{i}" for i in range(rows)),
        "cols " + " ".join(f"c{j}" for j in range(cols)),
        "payoffs",
    ]
    for i in range(rows):
        lines.append(f"r{i} : " + "  ".join("{} {}".format(*cell(i, j)) for j in range(cols)))
    return "\n".join(lines) + "\n"


def _g5(k: int) -> int:
    return (11 * k * k + 3 * k) % 97 - 48


# A 5x5 game that strict dominance keeps whole, so every support pair that
# exclusion does not skip is solved.
G5_DOC = formula_doc("g5", 5, 5, lambda i, j: (_g5(5 * i + j), _g5(25 + 5 * i + j)))


def _claim(i: int, j: int) -> int:
    return i + 2 if i < j else i if i == j else 2 * j - i - 2


# A traveler's-dilemma variant on claims 0..11: the lower claim plus 2 for its
# claimant, a tie pays the claim, and the higher claim j - 2 - (i - j). Each
# round of strict dominance removes both players' top claim, so only (0, 0)
# survives after 11 rounds.
CLAIMS_DOC = formula_doc("claims", 12, 12, lambda i, j: (_claim(i, j), _claim(j, i)))


def random_rat(rng: random.Random, lo: int = -9, hi: int = 9, dens=(1, 2, 3)) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice(dens))


def random_game(
    rng: random.Random, max_rows: int = 6, max_cols: int = 6
) -> Game:
    rows = rng.randint(1, max_rows)
    cols = rng.randint(1, max_cols)
    u1 = [[random_rat(rng) for _ in range(cols)] for _ in range(rows)]
    u2 = [[random_rat(rng) for _ in range(cols)] for _ in range(rows)]
    labels1 = [f"r{i}" for i in range(rows)]
    labels2 = [f"c{j}" for j in range(cols)]
    return make_game(labels1, labels2, u1, u2)


def random_params(rng: random.Random) -> PdParams:
    def gap() -> Fraction:
        return Fraction(rng.randint(1, 12), rng.choice((1, 2, 3, 4)))

    free = Fraction(rng.randint(0, 12), rng.choice((1, 2, 3, 4)))
    coop = free + gap()
    defect = coop + gap()
    sucker = defect + gap()
    return PdParams(free, coop, defect, sucker)


def random_weight(rng: random.Random, positive: bool = False) -> Fraction:
    den = rng.randint(1, 12)
    num = rng.randint(1 if positive else 0, den)
    return Fraction(num, den)


def _solve_by_substitution(a: list[list[Fraction]], b: list[Fraction]) -> list[Fraction] | None:
    """The unique solution of square a z = b by forward elimination and back
    substitution, or None when a is singular."""
    n = len(a)
    m = [list(row) + [rhs] for row, rhs in zip(a, b)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c] != 0), None)
        if pivot is None:
            return None
        m[c], m[pivot] = m[pivot], m[c]
        for r in range(c + 1, n):
            factor = m[r][c] / m[c][c]
            m[r] = [v - factor * w for v, w in zip(m[r], m[c])]
    z = [Fraction(0)] * n
    for c in reversed(range(n)):
        z[c] = (m[c][n] - sum(m[c][k] * z[k] for k in range(c + 1, n))) / m[c][c]
    return z


def _indifference(pay, own: list[int], other: list[int]) -> list[Fraction] | None:
    """Opponent probabilities on `other`, then the common payoff, that make
    every strategy in `own` pay the same, with pay(own, other) the payoff;
    None when that system has no unique solution."""
    a = [[Fraction(pay(s, t)) for t in other] + [Fraction(-1)] for s in own]
    a.append([Fraction(1)] * len(other) + [Fraction(0)])
    return _solve_by_substitution(a, [Fraction(0)] * len(own) + [Fraction(1)])


def reference_support_enumeration(g: Game) -> tuple[list[MixedProfile], bool]:
    """Plain support enumeration: the profiles found and whether any of them
    has an off-support strategy tying its player's equilibrium payoff.

    Every pair of nonempty supports of equal size is tried, row mask outer and
    column mask inner, both ascending. A pair gives an equilibrium when each
    player's indifference system (the opponent's probabilities on its support
    and the common payoff) has a unique solution, every support probability
    is positive, and no strategy pays more than that payoff.
    """
    rows, cols = g.shape
    found: list[MixedProfile] = []
    tie = False
    for mask1 in range(1, 1 << rows):
        s1 = [i for i in range(rows) if mask1 >> i & 1]
        for mask2 in range(1, 1 << cols):
            s2 = [j for j in range(cols) if mask2 >> j & 1]
            if len(s1) != len(s2):
                continue
            # y on s2 with value v1 equalizes player 1's rows in s1, and x on
            # s1 with value v2 equalizes player 2's columns in s2.
            ys = _indifference(lambda i, j: g.u1[i][j], s1, s2)
            xs = _indifference(lambda j, i: g.u2[i][j], s2, s1)
            if ys is None or xs is None or min(ys[:-1] + xs[:-1]) <= 0:
                continue
            y = [Fraction(0)] * cols
            for j, p in zip(s2, ys):
                y[j] = p
            x = [Fraction(0)] * rows
            for i, p in zip(s1, xs):
                x[i] = p
            pays1 = [sum(g.u1[i][j] * y[j] for j in range(cols)) for i in range(rows)]
            pays2 = [sum(g.u2[i][j] * x[i] for i in range(rows)) for j in range(cols)]
            v1, v2 = ys[-1], xs[-1]
            if max(pays1) > v1 or max(pays2) > v2:
                continue
            found.append(MixedProfile(x, y))
            tie = tie or pays1.count(v1) > len(s1) or pays2.count(v2) > len(s2)
    return found, tie


def _vertices(m: list[list[Fraction]]) -> list[tuple[list[Fraction], set[int], set[int]]]:
    """Each vertex z of {z >= 0, m z <= 1}, with the indices k where z_k = 0
    and the rows of m that are tight at z.

    A vertex is the unique solution of some len(z) of the constraints held at
    equality; every choice is tried and the feasible solutions kept, once
    each.
    """
    n = len(m[0])
    found: dict[tuple[Fraction, ...], tuple[list[Fraction], set[int], set[int]]] = {}
    for tight in itertools.combinations(range(n + len(m)), n):
        a = [[Fraction(k == c) for k in range(n)] if c < n else m[c - n] for c in tight]
        z = _solve_by_substitution(a, [Fraction(c >= n) for c in tight])
        if z is None or min(z) < 0:
            continue
        pays = [sum(v * w for v, w in zip(row, z)) for row in m]
        if max(pays) <= 1:
            zeros = {k for k in range(n) if z[k] == 0}
            found[tuple(z)] = (z, zeros, {r for r, p in enumerate(pays) if p == 1})
    return list(found.values())


def reference_extreme_equilibria(g: Game) -> set[MixedProfile]:
    """The extreme equilibria of g, by vertex enumeration.

    With A and B the payoffs shifted to be positive, the polytopes
    P = {x >= 0, B^T x <= 1} and Q = {y >= 0, A y <= 1} are bounded. The
    extreme equilibria are the vertex pairs (x, y) other than (0, 0) that are
    completely labelled: every row i has x_i = 0 or (A y)_i = 1, and every
    column j has y_j = 0 or (B^T x)_j = 1. Each is scaled to a pair of
    probability vectors.
    """
    rows, cols = g.shape
    shift = 1 - min(v for u in (g.u1, g.u2) for row in u for v in row)
    a = [[v + shift for v in row] for row in g.u1]
    bt = [[g.u2[i][j] + shift for i in range(rows)] for j in range(cols)]
    found, q_vertices = set(), _vertices(a)
    for x, x_zeros, x_tight in _vertices(bt):
        for y, y_zeros, y_tight in q_vertices:
            labelled = x_zeros | y_tight == set(range(rows)) and x_tight | y_zeros == set(range(cols))
            if labelled and any(x) and any(y):
                found.add(MixedProfile([p / sum(x) for p in x], [p / sum(y) for p in y]))
    return found


def _det_sign(m: list[list[Fraction]]) -> int:
    """The sign of a square matrix's determinant, by Gaussian elimination over
    Fraction: the product of the pivots, negated once per row swap."""
    m = [list(row) for row in m]
    sign = 1
    for c in range(len(m)):
        pivot = next((r for r in range(c, len(m)) if m[r][c] != 0), None)
        if pivot is None:
            return 0
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        if m[c][c] < 0:
            sign = -sign
        for r in range(c + 1, len(m)):
            factor = m[r][c] / m[c][c]
            m[r] = [v - factor * w for v, w in zip(m[r], m[c])]
    return sign


def equilibrium_index(g: Game, m: MixedProfile) -> int:
    """Shapley's index of the equilibrium m of a nondegenerate game.

    With both matrices shifted by one constant until every payoff is at
    least 1, and I, J the supports of m, of size k each, the index is
    (-1)^(k+1) sign det A_IJ sign det B_IJ (Shapley, "A note on the
    Lemke-Howson algorithm", 1974). Over all equilibria of a nondegenerate
    game the indices sum to 1, so leaving out one equilibrium, or any odd
    number, breaks the sum.
    """
    shift = max(0, 1 - min(v for u in (g.u1, g.u2) for row in u for v in row))
    rows, cols = m.support()
    signs = [_det_sign([[u[i][j] + shift for j in cols] for i in rows]) for u in (g.u1, g.u2)]
    return (-1) ** (len(rows) + 1) * signs[0] * signs[1]


def reference_undominated(g: Game) -> tuple[list[int], list[int]]:
    """The rows and columns, ascending, left by iterated strict dominance by
    pure strategies, compared on the Fraction payoffs with no scaling.

    Each round removes, for both players at once, every strategy that another
    surviving strategy pays strictly more than against every surviving
    opponent strategy. Iterated strict dominance by pure strategies ends in
    the same survivors whatever the order of removal.
    """
    rows, cols = list(range(len(g.u1))), list(range(len(g.u1[0])))
    while True:
        kept_rows = [
            a for a in rows
            if not any(all(g.u1[b][j] > g.u1[a][j] for j in cols) for b in rows if b != a)
        ]
        kept_cols = [
            a for a in cols
            if not any(all(g.u2[i][b] > g.u2[i][a] for i in rows) for b in cols if b != a)
        ]
        if (kept_rows, kept_cols) == (rows, cols):
            return rows, cols
        rows, cols = kept_rows, kept_cols
