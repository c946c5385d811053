"""Seeded corpora and ops of the four workloads.

Each `build_*` function turns a seeded `random.Random` into the list of
items one pass runs, in order. An item's `run(span, traced)` is one op: it
returns the emitted text, which feeds the workload digest, and a payload that
`problems(text, payload)` checks with `checker` outside the timed op. `span`
opens a named span around each call into the package; in an untraced run it
records nothing. `weight` orders items by expected cost, for warm-up.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from random import Random
from typing import Callable

import checker
from bimatrix import (
    Ambiguous,
    EquilibriumReport,
    Mixture,
    PdParams,
    PureProfile,
    analyze,
    classical_pd,
    emit_report,
    game_to_json,
    generalized_pd,
    is_nash,
    is_strict,
    make_game,
    mixture_consistency,
    parse_game,
    pure_equilibria,
    reduce_to_classical,
    serialize_game,
    sweep_mixture,
)
from bimatrix.formats import FORMATS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Games per pass for each shape. Counts are inverse to the seed's time per
# game, so each shape class above 2x2 takes a comparable share of the run, and
# they put p50 near the middle of the 3x3 class and p90 inside the
# 4x4/2x6/3x5 band, away from the boundaries between classes.
# 7x7 is left out: at about 6 s a game, one game would decide the run.
#
# Random draws are kept only where support enumeration is known to be
# complete enough that `analyze` cannot raise NoEquilibriumFoundError, so that
# no op fails on the known completeness gap (an op that raises fails):
# solve-generic keeps games in general position (`checker.in_general_position`,
# nondegenerate, every equilibrium found), solve-degenerate keeps games with a
# pure equilibrium (always found as a pair of one-strategy supports; its mixed
# equilibria may still be missed, which the digest shows). The gap left out:
# enumeration finds no equilibrium at all on about 1 in 10^4 3x3 draws from
# {-1, 0, 1} and from [-99, 99], each of them degenerate.
GENERIC_SHAPES = {(2, 2): 114, (3, 3): 211, (4, 4): 30, (2, 6): 24, (3, 5): 20, (6, 3): 12, (5, 5): 6, (6, 6): 1}
GENERIC_PD_GAMES = 6
DEGENERATE_SHAPES = {(2, 2): 120, (3, 3): 200, (4, 4): 60, (5, 5): 10}
# generalized_pd semantics that are degenerate at the seed, two games each.
DEGENERATE_GPD = (("mixture", Fraction(0)), ("optimistic", None))
# pure-sweep, per pass: sweeps and their grid, generated games (the same
# shapes from 2x2 to 12x12 on every seed) and generalized-dilemma round trips.
# Sweeps are 15% of the ops, so p90 falls inside them and p50 among the rest.
SWEEPS, SWEEP_STEPS = 16, 400
GAMES, GAME_SIZES = 66, range(2, 13)
GPD_TRIPS = 24
SEMANTICS = ("mixture", "pessimistic", "optimistic")

Span = Callable[[str], object]
Keep = Callable[[checker.Matrix, checker.Matrix], bool]


class NonzeroExit(RuntimeError):
    """A CLI subprocess exited with a code other than 0."""


def _years(rng: Random) -> tuple[Fraction, ...]:
    """Four increasing non-negative sentence lengths, in halves of a year."""
    return tuple(Fraction(k, 2) for k in sorted(rng.sample(range(41), 4)))


def _matrix(rng: Random, rows: int, cols: int, draw: Callable[[], object]) -> checker.Matrix:
    return checker.matrix([[draw() for _ in range(cols)] for _ in range(rows)])


def _labels(prefix: str, count: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{k}" for k in range(1, count + 1))


def _semantics(kind: str, w: Fraction | None):
    return Mixture(w) if kind == "mixture" else Ambiguous(kind)


def _analyze(game, span: Span, traced: bool, mixed: bool) -> EquilibriumReport:
    """`analyze(game, mixed=mixed)`; traced, with one span per sub-layer."""
    if not traced:
        return analyze(game, mixed=mixed)
    with span("equilibrium.pure"):
        pure = tuple(pure_equilibria(game))
        strict = tuple(is_strict(game, p) for p in pure)
    # The degenerate flag and the merged dominance list have no public source
    # but analyze, so these two sub-layers run it one section at a time.
    solved = None
    if mixed:
        with span("equilibrium.mixed"):
            solved = analyze(game, pure=False, dominance=False)
    with span("equilibrium.dominance"):
        dominance = analyze(game, pure=False, mixed=False).dominance
    return EquilibriumReport(
        game.labels1, game.labels2, pure, strict,
        solved and solved.mixed, dominance, solved and solved.degenerate,
    )


# --- solve-generic and solve-degenerate -------------------------------------


@dataclass
class SolveItem:
    """parse_game, analyze (pure, mixed, dominance), emit_report in one format."""

    label: str
    labels1: tuple[str, ...]
    labels2: tuple[str, ...]
    u1: checker.Matrix
    u2: checker.Matrix
    fmt: str = "table"
    rejected: int = 0  # draws `_draw_game` rejected before this game
    text: str = field(init=False)

    def __post_init__(self) -> None:
        self.text = checker.game_text("g", self.labels1, self.labels2, self.u1, self.u2)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.labels1), len(self.labels2))

    @property
    def weight(self) -> int:
        return (2 ** self.shape[0] - 1) * (2 ** self.shape[1] - 1)

    def run(self, span: Span, traced: bool):
        with span("formats.parse_game"):
            game = parse_game(self.text).game
        report = _analyze(game, span, traced, mixed=True)
        with span(f"formats.emit_report.{self.fmt}"):
            text = emit_report(report, self.fmt)
        return text, report

    def problems(self, text: str, report) -> list[str]:
        found = checker.report_problems(self.u1, self.u2, report)
        if self.fmt == "json":
            found += checker.json_report_problems(text, self.labels1, self.labels2, report)
        return found


def _draw_game(rng: Random, rows: int, cols: int, values: range, keep: Keep) -> tuple[checker.Matrix, checker.Matrix, int]:
    """Payoff matrices drawn from `values` until `keep` accepts them, and the number of draws it rejected."""
    rejected = 0
    while True:
        u1, u2 = (_matrix(rng, rows, cols, lambda: rng.choice(values)) for _ in range(2))
        if keep(u1, u2):
            return u1, u2, rejected
        rejected += 1


def _random_games(rng: Random, shapes: dict, values: range, small: bool, keep: Keep) -> list[SolveItem]:
    items = []
    for (rows, cols), count in shapes.items():
        for _ in range(1 if small else count):
            u1, u2, rejected = _draw_game(rng, rows, cols, values, keep)
            items.append(SolveItem(
                f"int[{values[0]},{values[-1]}] {rows}x{cols}",
                _labels("a", rows), _labels("b", cols), u1, u2, rejected=rejected,
            ))
    return items


def _rotate_formats(rng: Random, items: list[SolveItem]) -> list[SolveItem]:
    rng.shuffle(items)
    for k, item in enumerate(items):
        item.fmt = FORMATS[k % len(FORMATS)]
    return items


def build_solve_generic(rng: Random, small: bool, workdir: Path) -> list[SolveItem]:
    items = _random_games(rng, GENERIC_SHAPES, range(-99, 100), small, checker.in_general_position)
    for _ in range(1 if small else GENERIC_PD_GAMES):
        items.append(SolveItem("pd 2x2", checker.PD_LABELS, checker.PD_LABELS, *checker.pd_payoffs(_years(rng))))
    return _rotate_formats(rng, items)


def _has_pure_equilibrium(u1: checker.Matrix, u2: checker.Matrix) -> bool:
    return bool(checker.pure_nash(u1, u2))


def build_solve_degenerate(rng: Random, small: bool, workdir: Path) -> list[SolveItem]:
    items = _random_games(rng, DEGENERATE_SHAPES, range(-1, 2), small, _has_pure_equilibrium)
    for kind, w in DEGENERATE_GPD:
        for _ in range(1 if small else 2):
            u1, u2 = checker.gpd_payoffs(_years(rng), kind, w)
            name = f"gpd {kind}{'' if w is None else f'({w})'} 3x3"
            items.append(SolveItem(name, checker.GPD_LABELS, checker.GPD_LABELS, u1, u2))
    return _rotate_formats(rng, items)


# --- pure-sweep --------------------------------------------------------------


@dataclass
class SweepItem:
    """(a) sweep_mixture on a grid, emitted in all three formats."""

    years: tuple[Fraction, ...]
    steps: int
    label: str = "sweep"

    @property
    def weight(self) -> int:
        return 100 * self.steps

    def run(self, span: Span, traced: bool):
        with span("dilemma.sweep_mixture"):
            rows = sweep_mixture(PdParams(*self.years), self.steps)
        texts = []
        for fmt in FORMATS:
            with span(f"formats.emit_sweep.{fmt}"):
                texts.append(emit_report(rows, fmt))
        return "".join(texts), (rows, texts[2])

    def problems(self, text: str, payload) -> list[str]:
        rows, json_text = payload
        found = checker.sweep_problems(self.years, self.steps, rows)
        if json.loads(json_text)[-1]["w"] != "1":
            found.append("JSON sweep does not end at w=1")
        return found


@dataclass
class RoundTripItem:
    """(b) make_game, serialize_game, parse_game, analyze(mixed=False), every emitter."""

    labels1: tuple[str, ...]
    labels2: tuple[str, ...]
    u1: checker.Matrix
    u2: checker.Matrix

    @property
    def label(self) -> str:
        return f"rational {len(self.labels1)}x{len(self.labels2)}"

    @property
    def weight(self) -> int:
        return len(self.labels1) * len(self.labels2)

    def run(self, span: Span, traced: bool):
        with span("core.make_game"):
            game = make_game(self.labels1, self.labels2, self.u1, self.u2)
        with span("formats.serialize_game"):
            text = serialize_game(game, "g")
        with span("formats.parse_game"):
            parsed = parse_game(text).game
        report = _analyze(parsed, span, traced, mixed=False)
        texts = [text]
        for fmt in FORMATS:
            with span(f"formats.emit_report.{fmt}"):
                texts.append(emit_report(report, fmt))
        with span("formats.game_to_json"):
            texts.append(game_to_json(parsed, "g"))
        return "".join(texts), (parsed, report, texts)

    def problems(self, text: str, payload) -> list[str]:
        parsed, report, (serialized, _, _, json_report, json_game) = payload
        found = checker.report_problems(self.u1, self.u2, report)
        found += checker.json_report_problems(json_report, self.labels1, self.labels2, report)
        found += checker.game_json_problems(json_game, self.labels1, self.labels2, self.u1, self.u2)
        if serialized != checker.game_text("g", self.labels1, self.labels2, self.u1, self.u2):
            found.append("serialize_game text differs from the canonical text")
        if (parsed.u1, parsed.u2, parsed.labels1, parsed.labels2) != (self.u1, self.u2, self.labels1, self.labels2):
            found.append("parse_game does not invert serialize_game")
        return found


@dataclass
class GpdItem:
    """(c) generalized_pd, serialize, parse, mixture_consistency, reduce, serialize."""

    years: tuple[Fraction, ...]
    kind: str
    w: Fraction | None
    weight: int = 1

    @property
    def label(self) -> str:
        return f"gpd {self.kind} 3x3"

    def run(self, span: Span, traced: bool):
        params, semantics = PdParams(*self.years), _semantics(self.kind, self.w)
        with span(f"dilemma.generalized_pd.{self.kind}"):
            g3 = generalized_pd(params, semantics)
        with span("formats.serialize_game"):
            text = serialize_game(g3, "generalized_pd")
        with span("formats.parse_game"):
            parsed = parse_game(text).game
        with span("dilemma.mixture_consistency"):
            check = mixture_consistency(parsed)
        with span("dilemma.reduce_to_classical"):
            g2 = reduce_to_classical(parsed)
        with span("formats.serialize_game"):
            reduced = serialize_game(g2, "classical_pd")
        verdict = f"consistent={check.consistent} w={check.w} any={check.any_weight} {check.counterexample}\n"
        return text + reduced + verdict, (text, reduced, check)

    def problems(self, text: str, payload) -> list[str]:
        g3_text, reduced, check = payload
        found = []
        u1, u2 = checker.gpd_payoffs(self.years, self.kind, self.w)
        if g3_text != checker.game_text("generalized_pd", checker.GPD_LABELS, checker.GPD_LABELS, u1, u2):
            found.append("generalized_pd payoffs or their text are wrong")
        if reduced != checker.game_text("classical_pd", checker.PD_LABELS, checker.PD_LABELS, *checker.pd_payoffs(self.years)):
            found.append("reduced game bytes differ from the pd bytes")
        if self.kind == "mixture" and not (check.consistent and check.w == self.w):
            found.append(f"mixture_consistency gave {check}, expected weight {self.w}")
        return found


def build_pure_sweep(rng: Random, small: bool, workdir: Path) -> list:
    sweeps, games, trips = (1, len(GAME_SIZES), len(SEMANTICS)) if small else (SWEEPS, GAMES, GPD_TRIPS)
    items: list = [SweepItem(_years(rng), 20 if small else SWEEP_STEPS) for _ in range(sweeps)]

    def draw() -> Fraction:
        return Fraction(rng.randint(-99, 99), rng.choice((1, 1, 2, 3, 4)))

    for k in range(games):
        rows = GAME_SIZES[k % len(GAME_SIZES)]
        cols = GAME_SIZES[(3 * k + k // len(GAME_SIZES)) % len(GAME_SIZES)]
        items.append(RoundTripItem(
            _labels("a", rows), _labels("b", cols),
            _matrix(rng, rows, cols, draw), _matrix(rng, rows, cols, draw),
        ))
    for k in range(trips):
        kind = SEMANTICS[k % len(SEMANTICS)]
        w = Fraction(rng.randint(0, 12), 12) if kind == "mixture" else None
        items.append(GpdItem(_years(rng), kind, w))
    rng.shuffle(items)
    return items


# --- cli ---------------------------------------------------------------------

# What the installed `bimatrix` console script runs.
ENTRY = "from bimatrix.cli import run; run()"
# Three longer sweeps, one per format, are 3 of the 17 commands: they put p90
# inside a class of ops whose cost the seed does not change, not in the tail
# of the other commands, which host noise sets.
CLI_SWEEP_STEPS = 200
PROCESS_TIMEOUT_S = 60


def _expire(signum, frame) -> None:
    raise TimeoutError(f"subprocess still running after {PROCESS_TIMEOUT_S} s")


def run_process(argv: list[str], **kwargs) -> subprocess.CompletedProcess:
    """`subprocess.run` that waits for the child in one blocking call.

    With `timeout=`, `subprocess.run` polls for the child's exit with sleeps
    of up to 50 ms, which adds that much noise to a timing. Here SIGALRM bounds
    the wait instead; `subprocess.run` kills the child when the alarm raises.
    """
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, PROCESS_TIMEOUT_S)
    try:
        return subprocess.run(argv, cwd=ROOT, **kwargs)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def cli_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


@dataclass
class CliItem:
    """One `bimatrix` subprocess; stdout must equal the library's rendering."""

    argv: tuple[str, ...]
    expected: str | None
    audit: Callable[[], list[str]]
    stdin: str | None = None
    weight: int = 1

    @property
    def label(self) -> str:
        return f"cli {self.argv[0]}"

    def run(self, span: Span, traced: bool):
        with span(f"cli.{self.argv[0]}"):
            proc = run_process(
                [sys.executable, "-c", ENTRY, *self.argv],
                input=self.stdin, capture_output=True, text=True, encoding="utf-8", env=cli_env(),
            )
        if proc.returncode != 0:
            raise NonzeroExit(f"exit {proc.returncode}: {proc.stderr.strip()}")
        return proc.stdout, None

    def problems(self, text: str, payload) -> list[str]:
        found = [] if text == self.expected else ["stdout differs from the library rendering"]
        return found + self.audit()


def _solved(text: str, fmt: str):
    """The library's `solve` rendering, and an audit of its report against the payoffs."""
    try:
        report = analyze(parse_game(text).game)
    except Exception as exc:  # a solver defect fails the op; it must not stop the run
        return None, lambda u1, u2: [f"the library raised {type(exc).__name__}: {exc}"]
    return emit_report(report, fmt), lambda u1, u2: checker.report_problems(u1, u2, report)


def build_cli(rng: Random, small: bool, workdir: Path) -> list[CliItem]:
    default = tuple(Fraction(y) for y in (0, 1, 4, 5))
    years, w = _years(rng), Fraction(rng.randint(1, 11), 12)
    years_arg = ",".join(str(y) for y in years)
    pd_default = checker.pd_payoffs(default)
    pd_seeded = checker.pd_payoffs(years)
    pd_text = checker.game_text("classical_pd", checker.PD_LABELS, checker.PD_LABELS, *pd_seeded)
    labels = _labels("a", 3), _labels("b", 3)
    *u, _ = _draw_game(rng, 3, 3, range(-99, 100), checker.in_general_position)
    game3_text = checker.game_text("g", *labels, *u)
    gpd_seeded = checker.gpd_payoffs(years, "mixture", w)
    gpd_text = checker.game_text("generalized_pd", checker.GPD_LABELS, checker.GPD_LABELS, *gpd_seeded)
    pd_file = workdir / "pd.game"
    pd_file.write_text(pd_text, encoding="utf-8")

    def same(actual: str, expected: str) -> Callable[[], list[str]]:
        return lambda: [] if actual == expected else ["library rendering differs from the independent one"]

    def gpd_item(args: tuple[str, ...], kind: str, weight: Fraction | None) -> CliItem:
        expected = serialize_game(generalized_pd(PdParams(), _semantics(kind, weight)), "generalized_pd")
        independent = checker.gpd_payoffs(default, kind, weight)
        return CliItem(args, expected, same(expected, checker.game_text(
            "generalized_pd", checker.GPD_LABELS, checker.GPD_LABELS, *independent)))

    items = []
    expected = serialize_game(classical_pd(PdParams()), "classical_pd")
    items.append(CliItem(("pd",), expected, same(expected, checker.game_text(
        "classical_pd", checker.PD_LABELS, checker.PD_LABELS, *pd_default))))
    expected = serialize_game(classical_pd(PdParams(*years)), "classical_pd")
    items.append(CliItem(("pd", "--years", years_arg), expected, same(expected, pd_text)))
    items.append(gpd_item(("gpd", "--w", str(w)), "mixture", w))
    for attitude in ("pessimistic", "optimistic"):
        items.append(gpd_item(("gpd", "--ambiguous", attitude), attitude, None))
    for text, payoffs in ((pd_text, pd_seeded), (game3_text, u)):
        for fmt in FORMATS:
            expected, audit = _solved(text, fmt)
            items.append(CliItem(("solve", "-", "--format", fmt), expected,
                                 lambda audit=audit, payoffs=payoffs: audit(*payoffs), stdin=text))
    nash = is_nash(parse_game(pd_text).game, PureProfile(1, 1))
    items.append(CliItem(
        ("verify", str(pd_file.relative_to(ROOT)), "--profile", "D,D"), "NASH\n" if nash else "",
        lambda: [] if (1, 1) in checker.pure_nash(*pd_seeded) else ["(D, D) is not an equilibrium"],
    ))
    expected = serialize_game(reduce_to_classical(parse_game(gpd_text).game), "classical_pd")
    items.append(CliItem(("reduce", "-"), expected, same(expected, pd_text), stdin=gpd_text))
    for steps, formats in ((10, ("table",)), (CLI_SWEEP_STEPS, FORMATS)):
        rows = sweep_mixture(PdParams(), steps)
        audit = lambda steps=steps, rows=rows: checker.sweep_problems(default, steps, rows)  # noqa: E731
        for fmt in formats:
            argv = ("sweep", "--steps", str(steps)) + (("--format", fmt) if steps != 10 else ())
            items.append(CliItem(argv, emit_report(rows, fmt), audit))
    return items


BUILDERS = {
    "solve-generic": build_solve_generic,
    "solve-degenerate": build_solve_degenerate,
    "pure-sweep": build_pure_sweep,
    "cli": build_cli,
}
