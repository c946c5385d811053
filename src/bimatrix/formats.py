"""Game file parsing/serialization and table/CSV/JSON report emission.

The game file format, by example (comments start with '#', blank lines are
ignored, cells are "u1 u2" pairs separated by two spaces):

    game classical_pd
    rows C D
    cols C D
    payoffs
    C : -1 -1  -5 0
    D : 0 -5  -4 -4

Rationals are written "a" or "a/b" (ASCII digits) with an optional leading
minus and no decimals, so values survive round trips bit-exactly.

Reports pass through one record layer: an equilibrium report or a sweep is
turned into plain records once, with labels resolved, rationals rendered by
format_rat and each dominance fact a dict. Table and csv text is rendered from
those records, and JSON text by one writer, _json_value. For records of str,
int, bool, None, list and dict it writes the bytes of json.dumps(obj,
indent=2), quoting strings with json's C encode_basestring_ascii; any other
type, a float or a tuple among them, raises TypeError. A csv mixed cell lists
its probabilities separated by ';', which no rational contains, so each part
reads back with parse_rat.

Csv is written with RFC 4180 minimal quoting: a field holding ',', '"', CR or
LF is quoted, with its quotes doubled, and every row ends in LF. Any other
character, NUL among them, is written as is. This module writes those bytes
itself, so they do not depend on the Python version.

A sweep's outcomes are piecewise constant in the weight, so emission works
per run of equal outcomes: each run's outcome is rendered once, as the members
of a JSON row object or as the last two fields of a csv row, and every row of
the run joins that fragment with its weight. The weight needs no quoting in
either format: format_rat writes only digits, '-' and '/'.

All emitters are deterministic: equal inputs give byte-identical output.
"""

from __future__ import annotations

import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, Sequence, TypeVar

from .core import Game, InvalidGameError, Rat, Record, as_rat, make_game, validate_game
from .dilemma import SweepRow
from .equilibrium import DominanceFact, EquilibriumReport

FORMATS = ("table", "csv", "json")

_RAT_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
_TOKEN_RE = re.compile(r"\S+")
_CSV_QUOTE_RE = re.compile(r'[,"\r\n]')

_Piece = TypeVar("_Piece")


class ParseError(ValueError):
    """A game file failed to parse; line and column point at the offender."""

    def __init__(self, line: int, column: int, reason: str):
        super().__init__(f"line {line}, column {column}: {reason}")
        self.line = line
        self.column = column
        self.reason = reason


class GameDocument(Record):
    """A named game as read from (or destined for) a game file."""

    name: str
    game: Game


def parse_rat(text: str) -> Rat:
    """Parse the file format's rational literal grammar ("a" or "a/b")."""
    match = _RAT_RE.fullmatch(text)
    if match is None:
        raise ValueError(f"invalid rational literal {text!r}")
    num_text, den_text = match.groups()
    if den_text is None:
        return Fraction(int(num_text))
    if int(den_text) == 0:
        raise ValueError(f"zero denominator in rational literal {text!r}")
    return Fraction(int(num_text), int(den_text))


def format_rat(value: Rat) -> str:
    """Canonical rendering: reduced, '/'-separated only when non-integer.

    Raises TypeError for a float, bool or other inexact value, as as_rat does.
    """
    return str(value) if type(value) is Fraction else str(as_rat(value))


def _column(raw: str, index: int) -> int:
    """1-based character column of the index-th whitespace-separated token of raw."""
    return [m.start() for m in _TOKEN_RE.finditer(raw)][index] + 1


def _lone_surrogate_at(text: str) -> int:
    """Index of the first lone surrogate in text, or -1.

    errors="surrogateescape" decodes each byte that is not UTF-8 to one, and
    only lone surrogates make encoding to UTF-8 fail.
    """
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        return exc.start
    return -1


class _Cursor:
    """The significant lines of a document, each split into tokens once.

    Comment and blank lines are skipped; a lone surrogate on any line raises
    a ParseError at once. A later ParseError points at a token by its index,
    and its column is found in the raw line only then.
    """

    def __init__(self, text: str):
        raws = text.splitlines()
        self.lines = []
        for number, raw in enumerate(raws, start=1):
            if (index := _lone_surrogate_at(raw)) >= 0:
                raise ParseError(
                    number, index + 1, f"undecodable character {raw[index]!r}: game files are UTF-8 text"
                )
            if (tokens := raw.split()) and not tokens[0].startswith("#"):
                self.lines.append((number, raw, tokens))
        self.pos = 0
        self.end_line = len(raws) + 1

    def next_line(self, expectation: str) -> list[str]:
        if self.pos >= len(self.lines):
            raise ParseError(self.end_line, 1, f"unexpected end of file: expected {expectation}")
        self.line, self.raw, tokens = self.lines[self.pos]
        self.pos += 1
        return tokens

    def error(self, index: int, reason: str) -> ParseError:
        """A ParseError at the index-th token of the line next_line returned last."""
        return ParseError(self.line, _column(self.raw, index), reason)


def _labels_line(cursor: _Cursor, keyword: str, player: int) -> list[str]:
    tokens = cursor.next_line(f"'{keyword} <label> ...'")
    if tokens[0] != keyword:
        raise cursor.error(0, f"expected '{keyword} <label> ...'")
    if len(tokens) < 2:
        raise cursor.error(0, f"player {player} needs at least one strategy label")
    labels: list[str] = []
    for index, text in enumerate(tokens[1:], start=1):
        if text in labels:
            raise cursor.error(index, f"duplicate strategy label {text!r} for player {player}")
        if player == 1 and text.startswith("#"):
            raise cursor.error(index, f"row label {text!r} starts with '#' and would read as a comment")
        labels.append(text)
    return labels


def parse_game(text: str) -> GameDocument:
    """Parse a game document; raises ParseError with line/column on failure.

    Lone surrogates (undecodable bytes) are rejected wherever they appear,
    comment lines included: _Cursor finds them in its one pass over the
    lines, before any other check runs.
    """
    cursor = _Cursor(text)

    tokens = cursor.next_line("'game <name>' header")
    if tokens[0] != "game":
        raise cursor.error(0, "expected 'game <name>' header")
    if len(tokens) != 2:
        raise cursor.error(-1, "header must be exactly 'game <name>'")
    name = tokens[1]

    labels1 = _labels_line(cursor, "rows", 1)
    labels2 = _labels_line(cursor, "cols", 2)

    tokens = cursor.next_line("'payoffs' section")
    if tokens[0] != "payoffs" or len(tokens) != 1:
        raise cursor.error(0, "expected 'payoffs' on a line of its own")

    u1: list[list[Rat]] = []
    u2: list[list[Rat]] = []
    expected = 2 * len(labels2)
    for label in labels1:
        tokens = cursor.next_line(f"payoff row for strategy {label!r}")
        if tokens[0] != label:
            raise cursor.error(0, f"expected payoff row for strategy {label!r}, found {tokens[0]!r}")
        if len(tokens) < 2 or tokens[1] != ":":
            raise cursor.error(1 if len(tokens) > 1 else 0, f"expected ':' after row label {label!r}")
        cells = tokens[2:]
        if len(cells) != expected:
            raise cursor.error(
                2 + expected if len(cells) > expected else len(tokens) - 1,
                f"row {label!r} must have {len(labels2)} payoff cells "
                f"({expected} rationals), found {len(cells)} rationals",
            )
        values: list[Rat] = []
        for index, cell in enumerate(cells, start=2):
            try:
                values.append(parse_rat(cell))
            except ValueError as exc:
                raise cursor.error(index, str(exc)) from None
        u1.append(values[0::2])
        u2.append(values[1::2])

    if cursor.pos < len(cursor.lines):
        line, raw, _ = cursor.lines[cursor.pos]
        raise ParseError(line, _column(raw, 0), "unexpected content after the payoff rows")

    return GameDocument(name=name, game=make_game(labels1, labels2, u1, u2))


def _check_token(kind: str, text: str) -> None:
    if not isinstance(text, str) or not _TOKEN_RE.fullmatch(text) or _lone_surrogate_at(text) >= 0:
        raise ValueError(f"{kind} {text!r} must be one token without whitespace or lone surrogates")


def serialize_game(g: Game, name: str) -> str:
    """Canonical document text for a game; parse_game inverts this exactly.

    Raises InvalidGameError, a ValueError, for a game that validate_game
    rejects (a Game built without make_game can be one). Raises ValueError
    for a name or label that would not read back as itself: one that is not
    a single whitespace-free token of valid text, or a row label starting
    with '#', which would make its payoff row a comment.
    """
    if problems := validate_game(g):
        raise InvalidGameError("; ".join(problems))
    _check_token("game name", name)
    for label in g.labels1:
        _check_token("row label", label)
        if label.startswith("#"):
            raise ValueError(f"row label {label!r} starts with '#' and would read as a comment")
    for label in g.labels2:
        _check_token("column label", label)
    lines = [
        f"game {name}",
        "rows " + " ".join(g.labels1),
        "cols " + " ".join(g.labels2),
        "payoffs",
    ]
    for i, label in enumerate(g.labels1):
        cells = [
            f"{format_rat(g.u1[i][j])} {format_rat(g.u2[i][j])}"
            for j in range(len(g.labels2))
        ]
        lines.append(f"{label} : " + "  ".join(cells))
    return "\n".join(lines) + "\n"


def game_to_json(g: Game, name: str) -> str:
    """JSON rendering of a game with rationals as strings (no precision loss)."""
    return _json_text({
        "name": name,
        "labels1": list(g.labels1),
        "labels2": list(g.labels2),
        "u1": [[format_rat(v) for v in row] for row in g.u1],
        "u2": [[format_rat(v) for v in row] for row in g.u2],
    })


def _json_value(obj: object, newline: str) -> str:
    """json.dumps(obj, indent=2) of a value nested at the depth of newline.

    newline starts a line at the value's own depth: "\n" plus two spaces per
    level. See the module docstring for the types this writes.
    """
    kind = type(obj)
    if kind is str:
        return _quote(obj)
    if kind is list:
        if not obj:
            return "[]"
        inner = newline + "  "
        return f"[{inner}" + f",{inner}".join([_json_value(item, inner) for item in obj]) + f"{newline}]"
    if kind is dict:
        if not obj:
            return "{}"
        inner = newline + "  "
        return f"{{{inner}{_json_members(obj, inner)}{newline}}}"
    if obj is None:
        return "null"
    if kind is bool:
        return "true" if obj else "false"
    if kind is int:
        return repr(obj)
    raise TypeError(f"cannot write {kind.__name__} as JSON")


def _json_members(obj: dict, newline: str) -> str:
    """The members of a JSON object, each on a line that newline starts."""
    return f",{newline}".join([f"{_quote(key)}: {_json_value(value, newline)}" for key, value in obj.items()])


def _json_text(obj: object) -> str:
    return _json_value(obj, "\n") + "\n"


def _csv_text(rows: Sequence[Sequence[str]]) -> str:
    """Csv text of rows, quoted by the rule in the module docstring."""
    lines = []
    for row in rows:
        fields = ['"' + f.replace('"', '""') + '"' if _CSV_QUOTE_RE.search(f) else f for f in row]
        lines.append(",".join(fields) + "\n")
    return "".join(lines)


def _fact_record(fact: DominanceFact, labels1: Sequence[str], labels2: Sequence[str]) -> dict:
    labels = labels1 if fact.player == 1 else labels2
    return {
        "player": fact.player,
        "dominated": labels[fact.dominated],
        "dominator": labels[fact.dominator],
        "mode": fact.mode,
    }


def _report_record(report: EquilibriumReport) -> dict:
    labels1, labels2 = report.labels1, report.labels2
    pure = mixed = dominance = None
    if report.pure is not None:
        pure = [
            {"row": labels1[p.i], "col": labels2[p.j], "strict": strict}
            for p, strict in zip(report.pure, report.strict)
        ]
    if report.mixed is not None:
        mixed = [
            {"x": [format_rat(v) for v in m.x], "y": [format_rat(v) for v in m.y]}
            for m in report.mixed
        ]
    if report.dominance is not None:
        dominance = [_fact_record(f, labels1, labels2) for f in report.dominance]
    return {
        "labels1": list(labels1),
        "labels2": list(labels2),
        "pure": pure,
        "mixed": mixed,
        "dominance": dominance,
        "degenerate": report.degenerate,
    }


def _strictness(item: dict) -> str:
    return "strict" if item["strict"] else "weak"


# One entry per report section: record key, table title, csv header, and the
# table line and the csv row of one item record.
_SECTIONS = (
    (
        "pure", "pure equilibria", ("kind", "row", "col", "strictness"),
        lambda p: f"({p['row']}, {p['col']})  [{_strictness(p)}]",
        lambda p: ("pure", p["row"], p["col"], _strictness(p)),
    ),
    (
        "mixed", "mixed equilibria", ("kind", "x", "y"),
        lambda m: f"x=({', '.join(m['x'])})  y=({', '.join(m['y'])})",
        lambda m: ("mixed", ";".join(m["x"]), ";".join(m["y"])),
    ),
    (
        "dominance", "dominance", ("kind", "player", "dominated", "dominator", "mode"),
        lambda f: f"player {f['player']}: {f['dominated']} dominated by {f['dominator']} [{f['mode']}]",
        lambda f: ("dominance", str(f["player"]), f["dominated"], f["dominator"], f["mode"]),
    ),
)


def _report_text(record: dict, format: str) -> str:
    """Table or csv text of a report record, one block per requested section.

    Table blocks are titled and say "(none)" when empty, and the table ends
    with the degenerate flag; csv blocks are a header plus rows, separated by
    a blank line.
    """
    blocks = []
    for key, title, header, table_line, csv_row in _SECTIONS:
        items = record[key]
        if items is None:
            continue
        if format == "csv":
            blocks.append(_csv_text([header, *map(csv_row, items)]))
        else:
            blocks.append(f"{title}:")
            blocks.extend([f"  {table_line(item)}" for item in items] or ["  (none)"])
    if format == "csv":
        return "\n".join(blocks)
    if record["degenerate"] is not None:
        blocks.append(f"degenerate: {'yes' if record['degenerate'] else 'no'}")
    return "\n".join(blocks) + "\n"


def _sweep_lines(rows: Sequence[SweepRow], render: Callable[[dict], _Piece]) -> list[tuple[str, _Piece]]:
    """(w text, rendered outcome) per sweep row, rendering each run of equal rows once.

    An outcome record holds a row's "equilibria" as [row, col] label lists and
    its "dominance" as fact records. A row whose labels, equilibria and
    dominance equal the previous row's reuses its piece; on the tuples
    sweep_mixture shares between rows, that comparison ends at identity.
    """
    lines = []
    last = piece = None
    for row in rows:
        key = (row.labels, row.equilibria, row.dominance)
        if key != last:
            last = key
            piece = render({
                "equilibria": [[r, c] for r, c in row.equilibria],
                "dominance": [_fact_record(f, row.labels, row.labels) for f in row.dominance],
            })
        lines.append((format_rat(row.w), piece))
    return lines


def _outcome_cells(outcome: dict) -> tuple[str, str]:
    return (
        ";".join(f"{r}/{c}" for r, c in outcome["equilibria"]),
        ";".join(f"{f['player']}:{f['dominated']}<{f['dominator']}" for f in outcome["dominance"]),
    )


def _sweep_text(rows: Sequence[SweepRow], format: str) -> str:
    """Table or csv text of a sweep: one line per weight, in three columns."""
    if format == "csv":
        lines = _sweep_lines(rows, lambda outcome: _csv_text([_outcome_cells(outcome)]))
        return "w,equilibria,dominance\n" + "".join([f"{w},{fragment}" for w, fragment in lines])
    grid = [("w", ("equilibria", "dominance")), *_sweep_lines(rows, _outcome_cells)]
    distinct = {cells for _, cells in grid}
    widths = [max(map(len, column)) for column in zip(*distinct)]
    tails = {cells: "  ".join(cell.ljust(width) for cell, width in zip(cells, widths)) for cells in distinct}
    w_width = max(len(w) for w, _ in grid)
    return "".join(f"{w.ljust(w_width)}  {tails[cells]}".rstrip() + "\n" for w, cells in grid)


def _sweep_json(rows: Sequence[SweepRow]) -> str:
    """_json_text of the row records, each row spliced from its weight and the
    members its run rendered once."""
    lines = _sweep_lines(rows, lambda outcome: _json_members(outcome, "\n    "))
    if not lines:
        return "[]\n"
    body = ",\n".join([f'  {{\n    "w": "{w}",\n    {members}\n  }}' for w, members in lines])
    return f"[\n{body}\n]\n"


def emit_report(
    report: EquilibriumReport | Sequence[SweepRow], format: str
) -> str:
    """Render an equilibrium report or a sweep as table, csv, or json text."""
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}; choose from {', '.join(FORMATS)}")
    if isinstance(report, EquilibriumReport):
        record = _report_record(report)
        return _json_text(record) if format == "json" else _report_text(record, format)
    rows = list(report)
    if any(not isinstance(r, SweepRow) for r in rows):
        raise TypeError("emit_report expects an EquilibriumReport or SweepRow sequence")
    return _sweep_json(rows) if format == "json" else _sweep_text(rows, format)
