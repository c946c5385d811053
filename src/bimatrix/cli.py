"""Command-line interface.

Subcommands: solve (equilibrium/dominance reports for a game file), pd and
gpd (emit canonical classical/generalized dilemma game files), sweep
(equilibria across an exact grid of mixture weights), verify (check one pure
profile), and reduce (drop the silence strategy). Labels may hold commas, so
verify splits --profile at the first comma that leaves a row label and a
column label of the game. Reports go to stdout as UTF-8 whatever the locale,
diagnostics to stderr. Exit codes: 0 success, 1 usage error, 2 game file
that cannot be read or parsed, 3 semantic/validation error (verify given a
strategy label the game lacks among them), 4 mixed enumeration found no
equilibrium (a solver defect on some degenerate games).
"""

from __future__ import annotations

import argparse
import sys

from .core import Rat
from .dilemma import (
    Ambiguous,
    Mixture,
    PdParams,
    classical_pd,
    generalized_pd,
    reduce_to_classical,
    sweep_mixture,
)
from .equilibrium import NoEquilibriumFoundError, analyze, best_responses
from .formats import FORMATS, GameDocument, ParseError, emit_report, parse_game, parse_rat, serialize_game

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_SOLVER = 4


def _rational(text: str) -> Rat:
    try:
        return parse_rat(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _years(text: str) -> tuple[Rat, Rat, Rat, Rat]:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            "expected four comma-separated sentence lengths: FREE,COOP,DEFECT,SUCKER"
        )
    free, coop, defect, sucker = (_rational(part) for part in parts)
    return free, coop, defect, sucker


def _steps(text: str) -> int:
    # int() alone would also take non-ASCII digits, underscores and spaces
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"invalid step count {text!r}")
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("steps must be at least 1")
    return value


def _profile(text: str) -> list[tuple[str, str]]:
    # Every comma with text on both sides is a reading; cmd_verify picks one.
    readings = [(text[:k], text[k + 1:]) for k in range(1, len(text) - 1) if text[k] == ","]
    if not readings:
        raise argparse.ArgumentTypeError(
            f"expected a profile as ROWLABEL,COLLABEL, got {text!r}"
        )
    return readings


def _read_document(path: str) -> GameDocument:
    # Files and stdin both decode as UTF-8 whatever the locale, keeping
    # undecodable bytes as lone surrogates for parse_game to locate, and drop
    # the byte-order mark some editors write.
    if path != "-":
        with open(path, encoding="utf-8", errors="surrogateescape") as file:
            text = file.read()
    elif hasattr(sys.stdin, "buffer"):
        text = sys.stdin.buffer.read().decode("utf-8", "surrogateescape")
    else:
        text = sys.stdin.read()
    return parse_game(text.removeprefix("\ufeff"))


def cmd_solve(args: argparse.Namespace) -> None:
    doc = _read_document(args.file)
    run_all = not (args.pure or args.mixed or args.dominance)
    report = analyze(
        doc.game,
        pure=args.pure or run_all,
        mixed=args.mixed or run_all,
        dominance=args.dominance or run_all,
    )
    sys.stdout.write(emit_report(report, args.format))


def cmd_pd(args: argparse.Namespace) -> None:
    sys.stdout.write(serialize_game(classical_pd(PdParams(*args.years)), "classical_pd"))


def cmd_gpd(args: argparse.Namespace) -> None:
    sem = Mixture(args.w) if args.w is not None else Ambiguous(args.ambiguous)
    sys.stdout.write(serialize_game(generalized_pd(PdParams(*args.years), sem), "generalized_pd"))


def cmd_sweep(args: argparse.Namespace) -> None:
    rows = sweep_mixture(PdParams(*args.years), args.steps)
    sys.stdout.write(emit_report(rows, args.format))


def cmd_verify(args: argparse.Namespace) -> None:
    game = _read_document(args.file).game
    # When no reading names a row and a column, the first one's unknown label is the error.
    matches = [(row, col) for row, col in args.profile if row in game.labels1 and col in game.labels2]
    row, col = (matches or args.profile)[0]
    for player, labels, label in ((1, game.labels1, row), (2, game.labels2, col)):
        if label not in labels:
            raise ValueError(f"unknown strategy label {label!r} for player {player}")
    i, j = game.labels1.index(row), game.labels2.index(col)
    # The first player with a profitable deviation moves to its lowest-index
    # best response; the profile is Nash when neither player has one.
    best_row, best_col = min(best_responses(game, 1, j)), min(best_responses(game, 2, i))
    deviations = (
        (1, row, game.labels1[best_row], game.u1[best_row][j] - game.u1[i][j]),
        (2, col, game.labels2[best_col], game.u2[i][best_col] - game.u2[i][j]),
    )
    for player, source, target, gain in deviations:
        if gain > 0:
            print(f"NOT NASH: player {player} deviates {source}→{target}, gain {gain}")
            return
    print("NASH")


def cmd_reduce(args: argparse.Namespace) -> None:
    doc = _read_document(args.file)
    sys.stdout.write(serialize_game(reduce_to_classical(doc.game), "classical_pd"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bimatrix",
        description="Exact-arithmetic solver for two-player normal-form games.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    solve = sub.add_parser("solve", help="report equilibria and dominance for a game file")
    solve.add_argument("--pure", action="store_true", help="list pure equilibria")
    solve.add_argument("--mixed", action="store_true", help="list mixed equilibria (support enumeration)")
    solve.add_argument("--dominance", action="store_true", help="list dominance facts")
    solve.set_defaults(func=cmd_solve)

    pd = sub.add_parser("pd", help="emit the classical prisoner's dilemma game file")
    pd.set_defaults(func=cmd_pd)

    gpd = sub.add_parser("gpd", help="emit the generalized dilemma with a silence strategy")
    semantics = gpd.add_mutually_exclusive_group(required=True)
    semantics.add_argument(
        "--w",
        type=_rational,
        default=None,
        metavar="RAT",
        help="mixture weight: probability that silence behaves as cooperation",
    )
    semantics.add_argument(
        "--ambiguous",
        choices=("pessimistic", "optimistic"),
        default=None,
        help="ambiguity semantics: worst-case or best-case resolution of silence",
    )
    gpd.set_defaults(func=cmd_gpd)

    sweep = sub.add_parser("sweep", help="equilibria across a grid of mixture weights")
    sweep.add_argument("--steps", type=_steps, default=10, help="grid resolution: weights k/steps")
    sweep.set_defaults(func=cmd_sweep)

    verify = sub.add_parser("verify", help="check whether a pure profile is a Nash equilibrium")
    verify.add_argument("--profile", type=_profile, required=True, metavar="ROW,COL",
                        help="strategy labels, e.g. D,D")
    verify.set_defaults(func=cmd_verify)

    reduce = sub.add_parser("reduce", help="drop the silence strategy from a 3x3 game")
    reduce.set_defaults(func=cmd_reduce)

    # Shared options come after each command's own, in the order its usage line shows.
    for command in (solve, verify, reduce):
        command.add_argument("file", help="game file path, or - for stdin")
    for command in (pd, gpd, sweep):
        command.add_argument(
            "--years",
            type=_years,
            default=(),
            metavar="F,C,D,S",
            help="sentence lengths: free, both-cooperate, both-defect, sucker (default 0,1,4,5)",
        )
    for command in (solve, sweep):
        command.add_argument("--format", choices=FORMATS, default="table", help="output format")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage; here 2 means a game file that cannot be read or parsed.
        return EXIT_USAGE if exc.code == 2 else int(exc.code or 0)
    try:
        args.func(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except NoEquilibriumFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def run() -> None:
    # Labels and verify's arrow may be missing from the locale's encoding;
    # game files are read as UTF-8 too. Only the console script does this, so
    # main(argv) leaves a caller's stdout as it found it.
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(encoding="utf-8")
    raise SystemExit(main())


if __name__ == "__main__":
    run()
