"""Independent answer checks for the benchmark.

Nothing here imports `bimatrix`: payoffs, game texts, pure equilibria,
deviations and dominance are recomputed from the generator's own matrices
with plain `Fraction` arithmetic. Every function returns a list of problem
strings; an empty list means the output passed.

Pure equilibria are checked for soundness and completeness. Mixed equilibria
are checked for soundness only: support enumeration is known to miss extreme
equilibria on degenerate games, and that gap must stay visible in the digests
rather than fail the run.

`in_general_position` and `pure_nash` also decide which random draws the
corpora keep (see `workloads`).
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Sequence

Matrix = tuple[tuple[Fraction, ...], ...]

PD_LABELS = ("C", "D")
GPD_LABELS = ("C", "D", "S")
# Which classical strategies (C=0, D=1) each generalized strategy resolves to.
_RESOLVES_TO = {"C": {0: Fraction(1)}, "D": {1: Fraction(1)}}


def matrix(rows) -> Matrix:
    return tuple(tuple(Fraction(v) for v in row) for row in rows)


def game_text(name: str, labels1: Sequence[str], labels2: Sequence[str], u1: Matrix, u2: Matrix) -> str:
    """The canonical game file text, written without the library."""
    lines = [f"game {name}", "rows " + " ".join(labels1), "cols " + " ".join(labels2), "payoffs"]
    for i, label in enumerate(labels1):
        cells = "  ".join(f"{u1[i][j]} {u2[i][j]}" for j in range(len(labels2)))
        lines.append(f"{label} : {cells}")
    return "\n".join(lines) + "\n"


def pd_payoffs(years: Sequence[Fraction]) -> tuple[Matrix, Matrix]:
    """Classical dilemma from (free, both-cooperate, both-defect, sucker) years."""
    free, coop, defect, sucker = (-Fraction(y) for y in years)
    return matrix([[coop, sucker], [free, defect]]), matrix([[coop, free], [sucker, defect]])


def gpd_payoffs(years: Sequence[Fraction], semantics: str, w: Fraction | None = None) -> tuple[Matrix, Matrix]:
    """The 3x3 silence game under "mixture" (with weight w), "pessimistic" or "optimistic"."""
    base = pd_payoffs(years)
    if semantics == "mixture":
        resolve = dict(_RESOLVES_TO, S={0: w, 1: 1 - w})

        def entry(u: Matrix, a: str, b: str) -> Fraction:
            return sum(
                (pa * pb * u[ra][rb] for ra, pa in resolve[a].items() for rb, pb in resolve[b].items()),
                start=Fraction(0),
            )
    else:
        pick = min if semantics == "pessimistic" else max
        options = {"C": (0,), "D": (1,), "S": (0, 1)}

        def entry(u: Matrix, a: str, b: str) -> Fraction:
            return pick(u[ra][rb] for ra in options[a] for rb in options[b])

    u1, u2 = (matrix([[entry(u, a, b) for b in GPD_LABELS] for a in GPD_LABELS]) for u in base)
    return u1, u2


def _column(u: Matrix, j: int) -> list[Fraction]:
    return [row[j] for row in u]


def pure_nash(u1: Matrix, u2: Matrix) -> list[tuple[int, int]]:
    """Every cell where neither player has a profitable deviation, in row-major order."""
    rows, cols = len(u1), len(u1[0])
    return [
        (i, j)
        for i in range(rows)
        for j in range(cols)
        if u1[i][j] == max(_column(u1, j)) and u2[i][j] == max(u2[i])
    ]


def is_strict_nash(u1: Matrix, u2: Matrix, i: int, j: int) -> bool:
    col, row = _column(u1, j), u2[i]
    return col.count(col[i]) == 1 and col[i] == max(col) and row.count(row[j]) == 1 and row[j] == max(row)


def dominance(u1: Matrix, u2: Matrix) -> set[tuple[int, int, int, str]]:
    """(player, dominated, dominator, mode); a weak fact is listed only when not strict."""
    facts = set()
    strategies = (
        (1, [list(row) for row in u1]),
        (2, [_column(u2, j) for j in range(len(u2[0]))]),
    )
    for player, vectors in strategies:
        for a, va in enumerate(vectors):
            for b, vb in enumerate(vectors):
                if a == b:
                    continue
                if all(y > x for x, y in zip(va, vb)):
                    facts.add((player, a, b, "strict"))
                elif all(y >= x for x, y in zip(va, vb)) and va != vb:
                    facts.add((player, a, b, "weak"))
    return facts


def _singular(m: list[list[int]]) -> bool:
    """Whether a square integer matrix is singular, by fraction-free (Bareiss) elimination."""
    m = [list(row) for row in m]
    n, prev = len(m), 1
    for c in range(n - 1):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            return True
        m[c], m[pivot] = m[pivot], m[c]
        for r in range(c + 1, n):
            for k in range(c + 1, n):
                m[r][k] = (m[r][k] * m[c][c] - m[r][c] * m[c][k]) // prev
        prev = m[c][c]
    return m[-1][-1] == 0


def in_general_position(u1: Matrix, u2: Matrix) -> bool:
    """No mixed strategy on k pure strategies makes k+1 opponent strategies pay the same.

    That is, for every set S of k strategies of one player and T of k + 1 of
    the other, the matrix [U_TS | 1] of T's owner's payoffs is nonsingular.
    Such a game is nondegenerate, and more: every equilibrium has supports of
    equal size whose indifference systems have unique solutions, so support
    enumeration finds every equilibrium. A tie in one player's payoffs against
    a pure strategy is the case k = 1.
    """
    for u in (u1, tuple(zip(*u2))):  # rows: the owner's strategies
        scale = lcm(*(v.denominator for row in u for v in row))
        ints = [[int(v * scale) for v in row] for row in u]
        own, other = len(ints), len(ints[0])
        for k in range(1, min(own - 1, other) + 1):
            for s in combinations(range(other), k):
                for t in combinations(range(own), k + 1):
                    if _singular([[ints[i][j] for j in s] + [1] for i in t]):
                        return False
    return True


def mixed_problems(u1: Matrix, u2: Matrix, x: Sequence[Fraction], y: Sequence[Fraction]) -> list[str]:
    """Probability vectors on the simplex, and no pure deviation that pays more."""
    rows, cols = len(u1), len(u1[0])
    if len(x) != rows or len(y) != cols:
        return [f"mixed profile has shape {len(x)}x{len(y)}, game is {rows}x{cols}"]
    problems = []
    for name, vec in (("x", x), ("y", y)):
        if any(p < 0 for p in vec) or sum(vec) != 1:
            problems.append(f"{name}={list(map(str, vec))} is not a probability vector")
    if problems:
        return problems
    row_values = [sum((u1[i][j] * y[j] for j in range(cols)), start=Fraction(0)) for i in range(rows)]
    col_values = [sum((u2[i][j] * x[i] for i in range(rows)), start=Fraction(0)) for j in range(cols)]
    value1 = sum((x[i] * row_values[i] for i in range(rows)), start=Fraction(0))
    value2 = sum((y[j] * col_values[j] for j in range(cols)), start=Fraction(0))
    if max(row_values) > value1:
        problems.append(f"player 1 gains by a pure deviation from x={list(map(str, x))}")
    if max(col_values) > value2:
        problems.append(f"player 2 gains by a pure deviation from y={list(map(str, y))}")
    return problems


def report_problems(u1: Matrix, u2: Matrix, report) -> list[str]:
    """Check the sections an EquilibriumReport carries against the payoffs."""
    problems = []
    if report.pure is not None:
        reported = [(p.i, p.j) for p in report.pure]
        if reported != pure_nash(u1, u2):
            problems.append(f"pure equilibria {reported} != {pure_nash(u1, u2)}")
        elif list(report.strict) != [is_strict_nash(u1, u2, i, j) for i, j in reported]:
            problems.append(f"strict flags {list(report.strict)} are wrong")
    if report.mixed is not None:
        if not report.mixed:
            problems.append("no mixed equilibrium reported")
        for profile in report.mixed:
            problems.extend(mixed_problems(u1, u2, profile.x, profile.y))
    if report.dominance is not None:
        reported = {(f.player, f.dominated, f.dominator, f.mode) for f in report.dominance}
        if reported != dominance(u1, u2) or len(reported) != len(report.dominance):
            problems.append(f"dominance facts {sorted(reported)} != {sorted(dominance(u1, u2))}")
    return problems


def json_report_problems(text: str, labels1: Sequence[str], labels2: Sequence[str], report) -> list[str]:
    """The JSON emission must carry the same equilibria as the report it renders."""
    obj = json.loads(text)
    problems = []
    if report.pure is not None:
        pure = [(labels1.index(e["row"]), labels2.index(e["col"])) for e in obj["pure"]]
        if pure != [(p.i, p.j) for p in report.pure]:
            problems.append("JSON pure equilibria differ from the report")
    if report.mixed is not None:
        mixed = [(tuple(map(Fraction, e["x"])), tuple(map(Fraction, e["y"]))) for e in obj["mixed"]]
        if mixed != [(m.x, m.y) for m in report.mixed]:
            problems.append("JSON mixed equilibria differ from the report")
    return problems


def sweep_problems(years: Sequence[Fraction], steps: int, rows) -> list[str]:
    """Every sweep row: the weight k/steps, its pure equilibria and strict dominance."""
    if [row.w for row in rows] != [Fraction(k, steps) for k in range(steps + 1)]:
        return [f"sweep weights are not the grid k/{steps}"]
    for row in rows:
        u1, u2 = gpd_payoffs(years, "mixture", row.w)
        expected = [(GPD_LABELS[i], GPD_LABELS[j]) for i, j in pure_nash(u1, u2)]
        if list(row.equilibria) != expected:
            return [f"w={row.w}: equilibria {list(row.equilibria)} != {expected}"]
        facts = {(f.player, f.dominated, f.dominator, f.mode) for f in row.dominance}
        strict = {fact for fact in dominance(u1, u2) if fact[3] == "strict"}
        if facts != strict:
            return [f"w={row.w}: dominance {sorted(facts)} != {sorted(strict)}"]
    return []


def game_json_problems(text: str, labels1: Sequence[str], labels2: Sequence[str], u1: Matrix, u2: Matrix) -> list[str]:
    obj = json.loads(text)
    same = (
        obj["labels1"] == list(labels1)
        and obj["labels2"] == list(labels2)
        and matrix(obj["u1"]) == u1
        and matrix(obj["u2"]) == u2
    )
    return [] if same else ["game_to_json does not carry the game's labels and payoffs"]
