"""Tests for the game file format and the report emitters."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
import re
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, example, given, reject, settings
from hypothesis import strategies as st

from bimatrix.core import Game, InvalidGameError, make_game
from bimatrix.dilemma import Mixture, PdParams, SweepRow, classical_pd, generalized_pd, sweep_mixture
from bimatrix.equilibrium import DominanceFact, NoEquilibriumFoundError, analyze
from bimatrix.formats import (
    GameDocument,
    ParseError,
    _json_text,
    emit_report,
    format_rat,
    game_to_json,
    parse_game,
    parse_rat,
    serialize_game,
)

from helpers import CLASSICAL_DOC, random_game

# Every character str.isspace() accepts, and those that str.splitlines() does
# not break a line at, so they can separate tokens inside one line.
_SPACES = "".join(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())
_INLINE_SPACES = "".join(c for c in _SPACES if len(f"a{c}b".splitlines()) == 1)


class TestParseRat:
    def test_plain_and_fraction_literals(self):
        assert parse_rat("-4") == Fraction(-4)
        assert parse_rat("1/2") == Fraction(1, 2)
        assert parse_rat("-10/4") == Fraction(-5, 2)

    @pytest.mark.parametrize(
        "bad", ["", "1/0", "3/-6", "1.5", "+2", "1 /2", "a", "1/2/3", "٣/٤", "３"]
    )
    def test_bad_literals_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_rat(bad)

    @given(st.fractions())
    def test_round_trip(self, value):
        assert parse_rat(format_rat(value)) == value

    def test_integers_render_without_denominator(self):
        assert format_rat(Fraction(-4, 1)) == "-4"
        assert format_rat(Fraction(8, 2)) == "4"
        assert format_rat(-4) == "-4"

    @pytest.mark.parametrize("value", [0.1, True, Decimal("0.5")], ids=["float", "bool", "decimal"])
    def test_inexact_values_rejected(self, value):
        with pytest.raises(TypeError, match="expected an exact rational"):
            format_rat(value)


class TestParseGame:
    def test_classical_document(self):
        doc = parse_game(CLASSICAL_DOC)
        assert doc.name == "classical_pd"
        g = doc.game
        assert g.labels1 == ("C", "D")
        assert g.u1[1][0] == Fraction(0)
        assert g.u2[1][0] == Fraction(-5)

    def test_comments_and_blank_lines_ignored(self):
        doc = parse_game("# a comment\n\n" + CLASSICAL_DOC.replace("payoffs", "payoffs\n# mid"))
        assert doc.game == parse_game(CLASSICAL_DOC).game

    def test_zero_denominator_is_lexical_error(self):
        text = CLASSICAL_DOC.replace("C : -1 -1", "C : 1/0 -1")
        with pytest.raises(ParseError) as err:
            parse_game(text)
        assert (err.value.line, err.value.column) == (5, 5)
        assert "zero denominator" in err.value.reason

    def test_bad_literal_position_inside_token(self):
        text = CLASSICAL_DOC.replace("-5 0", "-5 0.75")
        with pytest.raises(ParseError) as err:
            parse_game(text)
        assert err.value.line == 5
        assert err.value.column == 15  # start of "0.75"

    def test_missing_payoff_row_named(self):
        text = "game g\nrows a b c\ncols x y\npayoffs\na : 1 1  2 2\nb : 3 3  4 4\n"
        with pytest.raises(ParseError) as err:
            parse_game(text)
        assert "'c'" in err.value.reason
        assert err.value.line == 7

    def test_duplicate_row_label_position(self):
        with pytest.raises(ParseError) as err:
            parse_game("game g\nrows C C\ncols x\npayoffs\nC : 1 1\n")
        assert (err.value.line, err.value.column) == (2, 8)
        assert "duplicate" in err.value.reason

    def test_duplicate_col_label_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_game("game g\nrows R\ncols x x\npayoffs\nR : 1 1  2 2\n")
        assert "duplicate" in err.value.reason

    def test_row_out_of_declared_order(self):
        text = CLASSICAL_DOC.replace("C : -1 -1  -5 0\nD", "D : -1 -1  -5 0\nC")
        with pytest.raises(ParseError) as err:
            parse_game(text)
        assert "expected payoff row for strategy 'C'" in err.value.reason

    def test_cell_count_mismatch(self):
        text = CLASSICAL_DOC.replace("C : -1 -1  -5 0", "C : -1 -1  -5")
        with pytest.raises(ParseError) as err:
            parse_game(text)
        assert "2 payoff cells" in err.value.reason
        text = CLASSICAL_DOC.replace("C : -1 -1  -5 0", "C : -1 -1  -5 0  9 9")
        with pytest.raises(ParseError) as err:
            parse_game(text)
        assert err.value.column == 18  # first extra token

    def test_missing_colon(self):
        with pytest.raises(ParseError) as err:
            parse_game("game g\nrows R\ncols x\npayoffs\nR 1 1\n")
        assert "':'" in err.value.reason

    def test_missing_sections_reported_at_end_of_file(self):
        with pytest.raises(ParseError) as err:
            parse_game("")
        assert (err.value.line, err.value.column) == (1, 1)
        with pytest.raises(ParseError) as err:
            parse_game("game g\n")
        assert "rows" in err.value.reason

    def test_bad_header(self):
        with pytest.raises(ParseError) as err:
            parse_game("match g\nrows a\ncols b\npayoffs\na : 1 1\n")
        assert "'game <name>'" in err.value.reason
        with pytest.raises(ParseError):
            parse_game("game\nrows a\ncols b\npayoffs\na : 1 1\n")
        with pytest.raises(ParseError):
            parse_game("game g extra\nrows a\ncols b\npayoffs\na : 1 1\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("game g\ncols x\n", "line 2, column 1: expected 'rows <label> ...'"),
            ("game g\nrows\n", "line 2, column 1: player 1 needs at least one strategy label"),
            ("game g\nrows a\ncols x\n  payoffs a\n", "line 4, column 3: expected 'payoffs' on a line of its own"),
            (
                "game g\nrows #a b\ncols x y\npayoffs\n#a : 1 1  0 0\nb : 0 0  1 1\n",
                "line 2, column 6: row label '#a' starts with '#' and would read as a comment",
            ),
        ],
        ids=["rows-keyword", "no-row-labels", "payoffs-line", "hash-row-label"],
    )
    def test_section_line_errors(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_game(text)
        assert str(err.value) == message

    def test_trailing_content_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_game(CLASSICAL_DOC + "E : 0 0  0 0\n")
        assert err.value.line == 7
        assert "unexpected content" in err.value.reason

    def test_lone_surrogate_rejected_with_position(self):
        # errors="surrogateescape" reads the byte 0xff as "\udcff"
        text = CLASSICAL_DOC.replace("rows C D", "rows C D\udcff")
        with pytest.raises(ParseError) as err:
            parse_game(text)
        assert (err.value.line, err.value.column) == (2, 9)
        assert "UTF-8" in err.value.reason

    def test_lone_surrogate_in_comment_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_game("# note \udcff\n" + CLASSICAL_DOC)
        assert (err.value.line, err.value.column) == (1, 8)

    def test_comment_lines_shift_error_positions(self):
        text = "# heading\n" + CLASSICAL_DOC.replace("C : -1 -1", "C : 1/0 -1")
        with pytest.raises(ParseError) as err:
            parse_game(text)
        assert err.value.line == 6

    @pytest.mark.parametrize("space", _SPACES, ids=lambda c: f"U+{ord(c):04X}")
    def test_str_split_tokens_equal_regex_tokens(self, space):
        for sep in (space, space * 3, f"{space}\t{space}", _SPACES):
            line = f"{sep}C{sep}:{sep}-1{sep}1/2{sep}é{sep}"
            assert line.split() == re.findall(r"\S+", line)

    @pytest.mark.parametrize("space", _INLINE_SPACES, ids=lambda c: f"U+{ord(c):04X}")
    @pytest.mark.parametrize(
        "old,new,offender",
        [
            ("C : -1 -1  -5 0", "{s}C{s}:{s}{s}-1{s}-1{s}-5{s}0.75{s}", "0.75"),
            ("C : -1 -1  -5 0", "C{s}:{s}-1{s}-1{s}-5{s}0{s}{s}9", "9"),
            ("rows C D", "rows{s}C{s}{s}D{s}D", "D"),
            ("game classical_pd", "{s}game{s}{s}g{s}extra", "extra"),
            ("D : 0 -5  -4 -4", "D{s}{s}0{s}-5{s}-4{s}-4", "0"),
        ],
    )
    def test_error_column_counts_characters_across_unicode_spaces(self, space, old, new, offender):
        line = new.replace("{s}", space)
        with pytest.raises(ParseError) as err:
            parse_game(CLASSICAL_DOC.replace(old, line))
        assert err.value.column == line.rindex(offender) + 1


# Names and labels for games built without make_game: valid tokens, and ones
# that are empty, hold whitespace or a lone surrogate, start with '#' or are
# not strings. Drawing from a few valid ones gives duplicates.
_LOOSE_TOKENS = st.sampled_from(["a", "b", "c"]) | st.sampled_from(["#c", "d e", "", "\udcff", "\x1c", 7])
# Half the label lists are valid, so that some drawn games are written.
_LOOSE_LABELS = st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True) | st.lists(
    _LOOSE_TOKENS, max_size=3
)


@st.composite
def _loose_games(draw):
    """A Game built without make_game, whose payoff rows are mostly as long
    as its column labels, sometimes one longer or shorter."""
    labels1, labels2 = draw(_LOOSE_LABELS), draw(_LOOSE_LABELS)
    n = len(labels2)
    row = st.sampled_from([n] * 8 + [n + 1, max(n - 1, 0)]).flatmap(
        lambda k: st.lists(st.integers(-2, 2), min_size=k, max_size=k)
    )
    matrix = st.lists(row, min_size=len(labels1), max_size=len(labels1))
    return Game(labels1, labels2, draw(matrix), draw(matrix))


class TestSerializeGame:
    def test_classical_document_is_canonical(self):
        assert serialize_game(classical_pd(), "classical_pd") == CLASSICAL_DOC

    def test_defection_row_rendering(self):
        assert "D : 0 -5  -4 -4" in serialize_game(classical_pd(), "classical_pd")

    def test_integer_rationals_have_no_denominator(self):
        text = serialize_game(classical_pd(), "classical_pd")
        assert "/1" not in text
        assert text.endswith("\n")

    def test_parse_inverts_serialize(self):
        rng = random.Random(43)
        for _ in range(50):
            g = random_game(rng)
            assert parse_game(serialize_game(g, "sample")).game == g

    def test_serialize_inverts_parse_on_canonical_documents(self):
        doc = parse_game(CLASSICAL_DOC)
        assert serialize_game(doc.game, doc.name) == CLASSICAL_DOC

    @pytest.mark.parametrize(
        "labels1,labels2,name,offender",
        [
            (["a b", "c"], ["x"], "g", "a b"),
            (["a"], ["x", "y\tz"], "g", "y\tz"),
            (["#r", "s"], ["x"], "g", "#r"),
            (["a\udcff"], ["x"], "g", "a\udcff"),
            (["a"], ["x"], "my game", "my game"),
            (["a"], ["x"], "", ""),
        ],
    )
    def test_names_that_would_not_read_back_rejected(self, labels1, labels2, name, offender):
        zeros = [[0] * len(labels2)] * len(labels1)
        g = make_game(labels1, labels2, zeros, zeros)
        with pytest.raises(ValueError, match=re.escape(repr(offender))):
            serialize_game(g, name)

    @pytest.mark.parametrize(
        "g,problem",
        [
            (Game(["a", "a"], ["x"], [[0], [0]], [[0], [0]]), "player 1 has duplicate strategy label 'a'"),
            (Game(["a"], ["x"], [[0, 1]], [[0]]), "u1 row 0 has 2 entries, expected 1"),
            (Game([], [], [], []), "player 1 has no strategies; player 2 has no strategies"),
            (Game(["a"], [1], [[0]], [[0]]), "player 2 has a strategy label that is not a string: 1"),
        ],
        ids=["duplicate-labels", "long-row", "no-strategies", "int-label"],
    )
    def test_invalid_games_rejected(self, g, problem):
        with pytest.raises(InvalidGameError, match=re.escape(problem)):
            serialize_game(g, "g")

    @settings(deadline=None)
    @given(g=_loose_games(), name=_LOOSE_TOKENS)
    def test_writes_only_what_reads_back(self, g, name):
        try:
            text = serialize_game(g, name)
        except ValueError:
            return
        assert parse_game(text) == GameDocument(name, g)

    def test_hash_inside_or_column_labels_still_round_trip(self):
        g = make_game(["r#", "s"], ["#x", "y"], [[1, 2], [3, 4]], [[5, 6], [7, 8]])
        doc = parse_game(serialize_game(g, "#name"))
        assert (doc.name, doc.game) == ("#name", g)

    def test_fraction_cells_round_trip(self):
        g = generalized_pd(PdParams(), Mixture(Fraction(1, 2)))
        text = serialize_game(g, "generalized_pd")
        assert "-1/2" in text
        assert parse_game(text).game == g


class TestGameJson:
    def test_schema_and_string_rationals(self):
        payload = json.loads(game_to_json(classical_pd(), "classical_pd"))
        assert list(payload) == ["name", "labels1", "labels2", "u1", "u2"]
        assert payload["name"] == "classical_pd"
        assert payload["labels1"] == ["C", "D"]
        assert payload["u1"][0] == ["-1", "-5"]
        assert payload["u2"][1] == ["-5", "-4"]


# Characters json escapes (control characters, '"', '\\', U+2028), non-BMP and
# lone surrogates, drawn among arbitrary ones.
_JSON_TEXT = st.text(st.sampled_from("\x00\x1f\x7f\"\\/\u2028\u2029\U0001F600\ud800\udcffé沈") | st.characters())
_JSON_RECORDS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-10**40, 10**40) | _JSON_TEXT,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(_JSON_TEXT, children, max_size=4),
    max_leaves=20,
)


class TestJsonWriter:
    @given(_JSON_RECORDS)
    @example([])
    @example({})
    @example({"": [[], {}, [{}]], "\ud800": {"a": None}})
    def test_bytes_equal_json_dumps_indent_2(self, record):
        assert _json_text(record) == json.dumps(record, indent=2) + "\n"

    @pytest.mark.parametrize("record", [1.5, (1, 2), [["a"], ("b",)], {"x": {"y": 0.5}}, {1: "a"}])
    def test_other_types_raise_type_error(self, record):
        with pytest.raises(TypeError):
            _json_text(record)


REPORT_CSV = """\
kind,row,col,strictness
pure,D,D,strict

kind,x,y
mixed,0;1,0;1

kind,player,dominated,dominator,mode
dominance,1,C,D,strict
dominance,2,C,D,strict
"""

REPORT_TABLE = """\
pure equilibria:
  (D, D)  [strict]
mixed equilibria:
  x=(0, 1)  y=(0, 1)
dominance:
  player 1: C dominated by D [strict]
  player 2: C dominated by D [strict]
degenerate: no
"""

REPORT_JSON = """\
{
  "labels1": [
    "C",
    "D"
  ],
  "labels2": [
    "C",
    "D"
  ],
  "pure": [
    {
      "row": "D",
      "col": "D",
      "strict": true
    }
  ],
  "mixed": [
    {
      "x": [
        "0",
        "1"
      ],
      "y": [
        "0",
        "1"
      ]
    }
  ],
  "dominance": [
    {
      "player": 1,
      "dominated": "C",
      "dominator": "D",
      "mode": "strict"
    },
    {
      "player": 2,
      "dominated": "C",
      "dominator": "D",
      "mode": "strict"
    }
  ],
  "degenerate": false
}
"""

ALL_OFF_JSON = """\
{
  "labels1": [
    "C",
    "D"
  ],
  "labels2": [
    "C",
    "D"
  ],
  "pure": null,
  "mixed": null,
  "dominance": null,
  "degenerate": null
}
"""


class TestReportEmission:
    def test_pd_csv_golden(self):
        assert emit_report(analyze(classical_pd()), "csv") == REPORT_CSV

    def test_pd_table_golden(self):
        assert emit_report(analyze(classical_pd()), "table") == REPORT_TABLE

    def test_pd_json_golden(self):
        assert emit_report(analyze(classical_pd()), "json") == REPORT_JSON

    def test_pd_json_contents(self):
        payload = json.loads(emit_report(analyze(classical_pd()), "json"))
        assert payload["pure"] == [{"row": "D", "col": "D", "strict": True}]
        assert payload["mixed"] == [{"x": ["0", "1"], "y": ["0", "1"]}]
        assert payload["degenerate"] is False
        assert {(f["player"], f["dominated"], f["dominator"]) for f in payload["dominance"]} == {
            (1, "C", "D"), (2, "C", "D"),
        }

    def test_empty_pure_section_is_header_only(self):
        pennies = make_game(["H", "T"], ["H", "T"], [[1, -1], [-1, 1]], [[-1, 1], [1, -1]])
        report = analyze(pennies, pure=True, mixed=False, dominance=False)
        assert emit_report(report, "csv") == "kind,row,col,strictness\n"

    def test_unrequested_sections_omitted(self):
        report = analyze(classical_pd(), pure=True, mixed=False, dominance=False)
        assert emit_report(report, "csv") == "kind,row,col,strictness\npure,D,D,strict\n"
        payload = json.loads(emit_report(report, "json"))
        assert payload["mixed"] is None and payload["dominance"] is None
        none = analyze(classical_pd(), pure=False, mixed=False, dominance=False)
        assert emit_report(none, "table") == "\n"
        assert emit_report(none, "csv") == ""
        assert emit_report(none, "json") == ALL_OFF_JSON

    def test_emitters_are_deterministic(self):
        report = analyze(generalized_pd(PdParams(), Mixture(Fraction(1, 3))))
        for fmt in ("table", "csv", "json"):
            assert emit_report(report, fmt) == emit_report(report, fmt)

    # About one 4x4-or-smaller draw in four has a non-integer probability.
    @settings(deadline=None, max_examples=60, suppress_health_check=[HealthCheck.filter_too_much])
    @given(rng=st.randoms(use_true_random=True))
    def test_csv_mixed_cells_read_back(self, rng):
        g = random_game(rng, 4, 4)
        try:
            report = analyze(g, pure=False, dominance=False)
        except NoEquilibriumFoundError:
            # A report that was never made has no csv to read back; that
            # solver defect is pinned by the CLI's exit-4 test.
            reject()
        assume(any(p.denominator != 1 for m in report.mixed for p in (*m.x, *m.y)))
        rows = list(csv.reader(io.StringIO(emit_report(report, "csv"))))
        assert rows[0] == ["kind", "x", "y"]
        read = [
            tuple(tuple(parse_rat(p) for p in cell.split(";")) for cell in row[1:])
            for row in rows[1:]
        ]
        assert read == [(m.x, m.y) for m in report.mixed]

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_report(analyze(classical_pd()), "yaml")

    def test_non_report_payload_rejected(self):
        with pytest.raises(TypeError):
            emit_report(["not a sweep row"], "csv")  # type: ignore[list-item]


SWEEP_CSV = """\
w,equilibria,dominance
0,D/D;D/S;S/D;S/S,1:C<D;1:C<S;2:C<D;2:C<S
1/2,D/D,1:C<D;1:C<S;1:S<D;2:C<D;2:C<S;2:S<D
1,D/D,1:C<D;1:S<D;2:C<D;2:S<D
"""

SWEEP_TABLE = """\
w    equilibria       dominance
0    D/D;D/S;S/D;S/S  1:C<D;1:C<S;2:C<D;2:C<S
1/2  D/D              1:C<D;1:C<S;1:S<D;2:C<D;2:C<S;2:S<D
1    D/D              1:C<D;1:S<D;2:C<D;2:S<D
"""

SWEEP_JSON = """\
[
  {
    "w": "0",
    "equilibria": [
      [
        "D",
        "D"
      ],
      [
        "D",
        "S"
      ],
      [
        "S",
        "D"
      ],
      [
        "S",
        "S"
      ]
    ],
    "dominance": [
      {
        "player": 1,
        "dominated": "C",
        "dominator": "D",
        "mode": "strict"
      },
      {
        "player": 1,
        "dominated": "C",
        "dominator": "S",
        "mode": "strict"
      },
      {
        "player": 2,
        "dominated": "C",
        "dominator": "D",
        "mode": "strict"
      },
      {
        "player": 2,
        "dominated": "C",
        "dominator": "S",
        "mode": "strict"
      }
    ]
  },
  {
    "w": "1/2",
    "equilibria": [
      [
        "D",
        "D"
      ]
    ],
    "dominance": [
      {
        "player": 1,
        "dominated": "C",
        "dominator": "D",
        "mode": "strict"
      },
      {
        "player": 1,
        "dominated": "C",
        "dominator": "S",
        "mode": "strict"
      },
      {
        "player": 1,
        "dominated": "S",
        "dominator": "D",
        "mode": "strict"
      },
      {
        "player": 2,
        "dominated": "C",
        "dominator": "D",
        "mode": "strict"
      },
      {
        "player": 2,
        "dominated": "C",
        "dominator": "S",
        "mode": "strict"
      },
      {
        "player": 2,
        "dominated": "S",
        "dominator": "D",
        "mode": "strict"
      }
    ]
  },
  {
    "w": "1",
    "equilibria": [
      [
        "D",
        "D"
      ]
    ],
    "dominance": [
      {
        "player": 1,
        "dominated": "C",
        "dominator": "D",
        "mode": "strict"
      },
      {
        "player": 1,
        "dominated": "S",
        "dominator": "D",
        "mode": "strict"
      },
      {
        "player": 2,
        "dominated": "C",
        "dominator": "D",
        "mode": "strict"
      },
      {
        "player": 2,
        "dominated": "S",
        "dominator": "D",
        "mode": "strict"
      }
    ]
  }
]
"""


class TestSweepEmission:
    def test_csv_golden(self):
        assert emit_report(sweep_mixture(PdParams(), 2), "csv") == SWEEP_CSV

    def test_table_golden(self):
        assert emit_report(sweep_mixture(PdParams(), 2), "table") == SWEEP_TABLE

    def test_json_golden(self):
        assert emit_report(sweep_mixture(PdParams(), 2), "json") == SWEEP_JSON

    def test_rows_in_increasing_weight_order(self):
        lines = emit_report(sweep_mixture(PdParams(), 4), "csv").splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "1/4", "1/2", "3/4", "1"]

    def test_table_lists_every_weight(self):
        text = emit_report(sweep_mixture(PdParams(), 2), "table")
        lines = text.splitlines()
        assert lines[0].split() == ["w", "equilibria", "dominance"]
        assert len(lines) == 4

    def test_json_structure(self):
        payload = json.loads(emit_report(sweep_mixture(PdParams(), 2), "json"))
        assert [row["w"] for row in payload] == ["0", "1/2", "1"]
        assert payload[1]["equilibria"] == [["D", "D"]]
        assert {"player": 1, "dominated": "S", "dominator": "D", "mode": "strict"} in payload[1][
            "dominance"
        ]

    def test_empty_row_list_emits_header_only(self):
        assert emit_report([], "csv") == "w,equilibria,dominance\n"

    @pytest.mark.parametrize(
        "fmt, text",
        [("table", "w  equilibria  dominance\n"), ("csv", "w,equilibria,dominance\n"), ("json", "[]\n")],
    )
    def test_empty_row_list_in_every_format(self, fmt, text):
        assert emit_report([], fmt) == text

    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_fact_hashes_do_not_grow_with_steps(self, monkeypatch, fmt):
        # Rows in a run of one outcome reuse its rendering after comparing it
        # with the previous row's, so no fact is hashed at any row count.
        short, long = sweep_mixture(PdParams(), 10), sweep_mixture(PdParams(), 1000)
        calls = []
        original = DominanceFact.__hash__

        def counted(fact):
            calls.append(fact)
            return original(fact)

        monkeypatch.setattr(DominanceFact, "__hash__", counted)
        hash(long[1].dominance[0])
        assert len(calls) == 1
        calls.clear()
        emit_report(short, fmt)
        emit_report(long, fmt)
        assert calls == []


def _oracle_csv_row(row):
    """One csv row by the stdlib writer, ended in LF.

    With a CRLF line terminator the writer quotes fields holding CR or LF on
    every Python version; with LF alone it leaves CR unquoted before 3.13.
    """
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\r\n").writerow(row)
    return buffer.getvalue()[:-2] + "\n"


def _oracle_sweep_text(rows, fmt):
    """Sweep text built row by row with json, csv and str only (no formats helper)."""
    if fmt == "json":
        records = [
            {
                "w": str(Fraction(row.w)),
                "equilibria": [[r, c] for r, c in row.equilibria],
                "dominance": [
                    {
                        "player": f.player,
                        "dominated": row.labels[f.dominated],
                        "dominator": row.labels[f.dominator],
                        "mode": f.mode,
                    }
                    for f in row.dominance
                ],
            }
            for row in rows
        ]
        return json.dumps(records, indent=2) + "\n"
    grid = [("w", "equilibria", "dominance")]
    for row in rows:
        grid.append((
            str(Fraction(row.w)),
            ";".join(f"{r}/{c}" for r, c in row.equilibria),
            ";".join(f"{f.player}:{row.labels[f.dominated]}<{row.labels[f.dominator]}" for f in row.dominance),
        ))
    if fmt == "csv":
        return "".join(map(_oracle_csv_row, grid))
    widths = [max(len(line[c]) for line in grid) for c in range(3)]
    return "".join(
        "  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip() + "\n"
        for line in grid
    )


# Labels that JSON must escape (quotes, backslashes, control and non-ASCII
# characters, U+2028) and that exercise csv's quoting rules, "\r" and a
# leading space among them.
_ODD_LABELS = (
    "C", "D", "é", "沈黙", 'say "no"', "back\\slash", "a,b", "tab\there", "new\nline", "\u2028", "\r", " lead",
)


@st.composite
def _outcomes(draw):
    labels = tuple(draw(st.lists(st.sampled_from(_ODD_LABELS), min_size=1, max_size=4, unique=True)))
    pairs = st.tuples(st.sampled_from(labels), st.sampled_from(labels))
    index = st.integers(0, len(labels) - 1)
    facts = st.builds(DominanceFact, st.sampled_from((1, 2)), index, index, st.sampled_from(("strict", "weak")))
    return labels, tuple(draw(st.lists(pairs, max_size=4))), tuple(draw(st.lists(facts, max_size=4)))


def _fresh(outcome):
    """An equal outcome held in new tuple and fact objects."""
    labels, equilibria, dominance = outcome
    return (
        tuple(list(labels)),
        tuple([tuple(list(pair)) for pair in equilibria]),
        tuple([DominanceFact(f.player, f.dominated, f.dominator, f.mode) for f in dominance]),
    )


class TestSweepEmissionOracle:
    @settings(deadline=None)
    @given(
        free=st.fractions(0, 20, max_denominator=6),
        gaps=st.lists(st.fractions(Fraction(1, 6), 12, max_denominator=6), min_size=3, max_size=3),
        steps=st.integers(1, 80),
    )
    def test_sweeps_match_per_row_oracle(self, free, gaps, steps):
        params = PdParams(free, free + gaps[0], free + gaps[0] + gaps[1], free + sum(gaps))
        rows = sweep_mixture(params, steps)
        for fmt in ("table", "csv", "json"):
            assert emit_report(rows, fmt) == _oracle_sweep_text(rows, fmt)

    @settings(deadline=None)
    @given(
        a=_outcomes(),
        b=_outcomes(),
        tail=st.lists(st.tuples(st.integers(0, 1), st.booleans()), max_size=6),
        weights=st.lists(st.fractions(), min_size=9, max_size=9),
    )
    def test_hand_built_rows_match_per_row_oracle(self, a, b, tail, weights):
        # Outcomes alternate A, B, A, then follow `tail`; a True flag holds the
        # row's outcome in fresh objects, equal in value to the first ones.
        outcomes = (a, b)
        pattern = [(0, False), (1, False), (0, True), *tail]
        rows = [
            SweepRow(w, *(_fresh(outcomes[which]) if fresh else outcomes[which]))
            for w, (which, fresh) in zip(weights, pattern)
        ]
        for fmt in ("table", "csv", "json"):
            assert emit_report(rows, fmt) == _oracle_sweep_text(rows, fmt)

    @settings(deadline=None)
    @given(
        other=_outcomes(),
        pattern=st.lists(st.booleans(), min_size=1, max_size=6),
        weights=st.lists(st.fractions(), min_size=6, max_size=6),
    )
    def test_outcome_without_equilibria_or_dominance(self, other, pattern, weights):
        # A True flag is a row with no equilibria and no dominance: its csv
        # fields are both empty and its JSON members two empty lists.
        empty = (other[0], (), ())
        rows = [SweepRow(w, *(empty if flag else other)) for w, flag in zip(weights, pattern)]
        for fmt in ("table", "csv", "json"):
            assert emit_report(rows, fmt) == _oracle_sweep_text(rows, fmt)


def _oracle_report_grids(report):
    """Report csv rows, one list per requested section led by its header."""
    def label(player, index):
        return (report.labels1 if player == 1 else report.labels2)[index]

    grids = []
    if report.pure is not None:
        grids.append([("kind", "row", "col", "strictness")] + [
            ("pure", label(1, p.i), label(2, p.j), "strict" if strict else "weak")
            for p, strict in zip(report.pure, report.strict)
        ])
    if report.mixed is not None:
        grids.append([("kind", "x", "y")] + [
            ("mixed", ";".join(str(Fraction(v)) for v in m.x), ";".join(str(Fraction(v)) for v in m.y))
            for m in report.mixed
        ])
    if report.dominance is not None:
        grids.append([("kind", "player", "dominated", "dominator", "mode")] + [
            ("dominance", str(f.player), label(f.player, f.dominated), label(f.player, f.dominator), f.mode)
            for f in report.dominance
        ])
    return grids


# The classical PD with labels that need every csv quoting case: CR, ','
# and '"' are quoted, and NUL is written as is.
ODD_PD_CSV = """\
kind,row,col,strictness
pure,"c,d",a\x00b,strict

kind,x,y
mixed,0;1,0;1

kind,player,dominated,dominator,mode
dominance,1,"a\rb","c,d",strict
dominance,2,"y""z",a\x00b,strict
"""


class TestReportCsv:
    def test_odd_labels_golden(self):
        pd = classical_pd()
        game = make_game(["a\rb", "c,d"], ['y"z', "a\x00b"], pd.u1, pd.u2)
        assert emit_report(analyze(game), "csv") == ODD_PD_CSV

    @settings(deadline=None, max_examples=60)
    @given(rng=st.randoms(use_true_random=True), labels=st.permutations(_ODD_LABELS))
    def test_odd_labels_match_per_row_oracle_and_read_back(self, rng, labels):
        g = random_game(rng, 3, 3)
        rows, cols = g.shape
        game = make_game(labels[:rows], labels[-cols:], g.u1, g.u2)
        try:
            report = analyze(game)
        except NoEquilibriumFoundError:
            reject()  # no report, so no csv; the CLI's exit-4 test pins this defect
        grids = _oracle_report_grids(report)
        text = emit_report(report, "csv")
        assert text == "\n".join("".join(map(_oracle_csv_row, grid)) for grid in grids)
        # csv.reader reads the blank line between sections as an empty row.
        expected = [list(row) for grid in grids for row in [(), *grid]][1:]
        assert list(csv.reader(io.StringIO(text, newline=""))) == expected


# sha256 of emit_report(sweep_mixture(PdParams(*years), steps), fmt) on grids
# where both the equilibria and the dominance facts change mid-sweep.
SWEEP_REGIME_SHA256 = {
    ((0, 1, 4, 5), 40): {
        "table": "83352c37cec3564880b10bb446c4c6235d87dbbc2967509f45d15dacaa2fd081",
        "csv": "20f3e2d9c6f1c93b5030885410aa8620fc67cc3f9eb12fd7a3a9a795084abb3a",
        "json": "62d8174de086b38386412c320aca387f7ccb3272a8b844865a0248b722552a2e",
    },
    ((0, 1, 2, 3), 24): {
        "table": "58c59ed70736103954d1b981c56a4234cc2975707b46047b487d4343fe54561a",
        "csv": "391cb04fe1658ba7df430d80a2fcf0ce1ae87032ebc7271f997d7fe65a937d25",
        "json": "254f8ea1051fb12563fabcd63cdc8c2dae8a75892d111d50ffa049ab4283a6dd",
    },
    ((Fraction(1, 2), Fraction(7, 3), Fraction(9, 2), 11), 30): {
        "table": "f5833a889915db8c88f524696b0dc67b46a0592b640be6ae6c19127a1e189682",
        "csv": "b41f63d7b44a0a27a6c7ffd8908d3b025904d0da87c2d83af5c64f1e423f9f11",
        "json": "cf896e1e8d3f9dc807961bec0d69564e129c219e93949c1fd3dbec98e8bd9979",
    },
    ((0, 3, 4, 10), 37): {
        "table": "7d1d6d21213db11813d5f7266ba3bfcfdf42122a9662b92c72c8dd81e4700bba",
        "csv": "3f71bb916a37ca71dcb22de53b26543df42fc4ea11c1393ea924fb3dcf4ac61e",
        "json": "9d881c880dc67076256b4539a7ac929f4489057fa6ed8bc08f08c571c999d093",
    },
}


@pytest.mark.parametrize("years,steps", list(SWEEP_REGIME_SHA256))
def test_multi_regime_sweep_goldens(years, steps):
    rows = sweep_mixture(PdParams(*years), steps)
    assert len({row.equilibria for row in rows}) > 1
    assert len({row.dominance for row in rows}) > 2
    for fmt in ("table", "csv", "json"):
        digest = hashlib.sha256(emit_report(rows, fmt).encode("utf-8")).hexdigest()
        assert digest == SWEEP_REGIME_SHA256[years, steps][fmt]


def test_document_round_trip_identity():
    doc = parse_game(CLASSICAL_DOC)
    assert isinstance(doc, GameDocument)
    assert parse_game(serialize_game(doc.game, doc.name)) == doc
