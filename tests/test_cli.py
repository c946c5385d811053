"""End-to-end CLI tests: commands, exit codes, and byte-stable output."""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bimatrix
from bimatrix import equilibrium
from bimatrix.cli import main
from bimatrix.core import PureProfile, make_game
from bimatrix.equilibrium import is_nash
from bimatrix.formats import parse_game, serialize_game

from helpers import CLAIMS_DOC, CLASSICAL_DOC, G5_DOC, formula_doc

PENNIES_DOC = """\
game pennies
rows H T
cols H T
payoffs
H : 1 -1  -1 1
T : -1 1  1 -1
"""


# Rows b and c tie as player 1's best deviation from (a, x), and columns y
# and z tie as player 2's from (b, x); both gains are non-integers.
TIE_DOC = """\
game tie
rows a b c
cols x y z
payoffs
a : 0 0  0 0  0 0
b : 1/2 0  0 3/2  0 3/2
c : 1/2 0  0 0  0 0
"""


# Row and column labels with commas in them.
COMMA_DOC = """\
game commas
rows a a,b
cols b,c c
payoffs
a : 1 1  1 0
a,b : 0 0  0 0
"""


# A degenerate game on which support enumeration finds no equilibrium.
MISSED_DOC = """\
game missed
rows r0 r1 r2
cols c0 c1 c2
payoffs
r0 : 1 -1  1 0  -1 1
r1 : -1 1  1 0  0 -1
r2 : -1 0  0 1  1 0
"""


def _g63(k):
    return (17 * k * k + 9 * k) % 83 - 41


G63_DOC = formula_doc("g63", 6, 3, lambda i, j: (_g63(3 * i + j), _g63(18 + 3 * i + j)))


WEAK_DOC = """\
game weak
rows a b c
cols x y z
payoffs
a : 1 0  0 0  2 1
b : 1 1  1 0  0 1
c : 0 2  -1 2  0 0
"""


FRAC_DOC = """\
game frac
rows a b c
cols x y z
payoffs
a : 1/2 -1/2  -1/3 1/3  0 -1
b : -1/2 1/2  1/3 -1/3  0 -1
c : -1 0  -1 0  -1 2
"""


def _csv(*lines):
    return "".join(line + "\n" for line in lines)


# name: (document, solve flags, stdout, the rows and columns iterated strict
# dominance keeps, the integer scale of the payoffs, the dominance modes
# stdout lists). Each document guards one path of the solver: g5 keeps its
# whole 5x5 game, g63 is shrunk to 5x3, frac is scaled by 6 and shrunk to
# 2x2, weak reports strict and weak facts, and claims solves one support pair
# (see test_equilibrium.TestDominanceReduction) where it would otherwise
# solve 2.7M.
SOLVE_GOLDENS = {
    "g5": (G5_DOC, ["--mixed"], _csv(
        "kind,x,y",
        "mixed,0;1;0;0;0,1;0;0;0;0",
        "mixed,1/20;0;0;19/20;0,0;40/77;0;0;37/77",
        "mixed,1267/2522;0;2141/12610;159/485;0,1274/4365;0;0;1/97;3046/4365",
        "mixed,0;34/39;0;0;5/39,38/39;1/39;0;0;0",
        "mixed,0;19/58;0;0;39/58,0;0;19/39;20/39;0",
        "mixed,1108/2231;0;0;612/2231;511/2231,0;397/873;229/873;0;247/873",
        "mixed,628/1261;0;5/2522;53/194;22/97,0;31/97;121/1261;295/1261;34/97",
    ), (5, 5), 1, set()),
    "g63": (G63_DOC, ["--mixed"], _csv(
        "kind,x,y",
        "mixed,0;0;1;0;0;0,0;1;0",
        "mixed,0;0;0;0;1;0,1;0;0",
        "mixed,0;0;0;33/64;31/64;0,45/64;19/64;0",
    ), (5, 3), 1, set()),
    "weak": (WEAK_DOC, [], _csv(
        "kind,row,col,strictness", "pure,a,z,strict", "pure,b,x,weak", "",
        "kind,x,y", "mixed,1;0;0,0;0;1", "mixed,0;1;0,1;0;0", "",
        "kind,player,dominated,dominator,mode",
        "dominance,1,c,a,strict", "dominance,1,c,b,weak", "dominance,2,y,x,weak",
    ), (2, 2), 1, {"strict", "weak"}),
    "frac": (FRAC_DOC, [], _csv(
        "kind,row,col,strictness", "",
        "kind,x,y", "mixed,1/2;1/2;0,2/5;3/5;0", "",
        "kind,player,dominated,dominator,mode",
        "dominance,1,c,a,strict", "dominance,1,c,b,strict",
    ), (2, 2), 6, {"strict"}),
    "pennies": (PENNIES_DOC, ["--mixed"], _csv(
        "kind,x,y", "mixed,1/2;1/2,1/2;1/2",
    ), (2, 2), 1, set()),
    "claims": (CLAIMS_DOC, ["--mixed"], _csv(
        "kind,x,y", "mixed,1" + ";0" * 11 + ",1" + ";0" * 11,
    ), (1, 1), 1, set()),
}


@pytest.fixture
def run(capsys):
    def invoke(*args):
        code = main(list(args))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


@pytest.fixture
def pd_file(tmp_path):
    path = tmp_path / "pd.game"
    path.write_text(CLASSICAL_DOC, encoding="utf-8")
    return str(path)


@pytest.fixture
def pennies_file(tmp_path):
    path = tmp_path / "pennies.game"
    path.write_text(PENNIES_DOC, encoding="utf-8")
    return str(path)


class TestPd:
    def test_default_document_golden(self, run):
        code, out, err = run("pd")
        assert (code, err) == (0, "")
        assert out == CLASSICAL_DOC

    def test_custom_years_round_trip(self, run):
        code, out, _ = run("pd", "--years", "0,1,2,3")
        assert code == 0
        game = parse_game(out).game
        assert game.u1[1][1] == Fraction(-2)

    def test_ordering_violation_exits_3(self, run):
        code, out, err = run("pd", "--years", "0,4,1,5")
        assert code == 3
        assert out == ""
        assert "ordering" in err

    def test_malformed_years_is_usage_error(self, run):
        code, _, _ = run("pd", "--years", "1,2,3")
        assert code == 1
        code, _, _ = run("pd", "--years", "a,b,c,d")
        assert code == 1


class TestGpd:
    def test_weight_one_collapses_to_cooperation(self, run):
        code, out, _ = run("gpd", "--w", "1")
        assert code == 0
        game = parse_game(out).game
        assert game.u1[2] == game.u1[0]
        assert game.u2[2] == game.u2[0]

    def test_half_weight_cell_text(self, run):
        code, out, _ = run("gpd", "--w", "1/2")
        assert code == 0
        game = parse_game(out).game
        assert game.u1[2][0] == Fraction(-1, 2)
        assert "S : -1/2" in out

    def test_ambiguous_semantics(self, run):
        code, out, _ = run("gpd", "--ambiguous", "pessimistic")
        assert code == 0
        assert parse_game(out).game.u1[2][2] == Fraction(-5)

    def test_semantics_flag_required(self, run):
        code, out, err = run("gpd")
        assert code == 1
        assert out == ""
        assert "required" in err

    def test_semantics_flags_mutually_exclusive(self, run):
        code, _, err = run("gpd", "--w", "1/2", "--ambiguous", "optimistic")
        assert code == 1
        assert "not allowed" in err

    def test_non_ascii_weight_is_usage_error(self, run):
        code, out, _ = run("gpd", "--w", "١/٢")
        assert (code, out) == (1, "")

    def test_out_of_range_weight_exits_3(self, run):
        code, _, err = run("gpd", "--w", "7/3")
        assert code == 3
        assert "[0, 1]" in err


class TestSolve:
    def test_pure_csv_reports_single_equilibrium(self, run, pd_file):
        code, out, err = run("solve", pd_file, "--pure", "--format", "csv")
        assert (code, err) == (0, "")
        assert out == "kind,row,col,strictness\npure,D,D,strict\n"

    def test_default_runs_all_sections(self, run, pd_file):
        code, out, _ = run("solve", pd_file)
        assert code == 0
        for heading in ("pure equilibria:", "mixed equilibria:", "dominance:", "degenerate:"):
            assert heading in out

    def test_empty_pure_section(self, run, pennies_file):
        code, out, _ = run("solve", pennies_file, "--pure", "--format", "csv")
        assert code == 0
        assert out == "kind,row,col,strictness\n"

    @pytest.mark.parametrize("name", SOLVE_GOLDENS)
    def test_golden(self, run, tmp_path, name):
        doc, flags, expected, kept, scale, modes = SOLVE_GOLDENS[name]
        path = tmp_path / f"{name}.game"
        path.write_text(doc, encoding="utf-8")
        code, out, err = run("solve", str(path), *flags, "--format", "csv")
        assert (code, out, err) == (0, expected, "")
        g = parse_game(doc).game
        u1, u2 = equilibrium._integer_payoffs(g)
        assert [u1, u2] == [[[v * scale for v in row] for row in u] for u in (g.u1, g.u2)]
        rows, cols = equilibrium._undominated(u1, u2)
        assert (len(rows), len(cols)) == kept
        facts = [line for line in out.splitlines() if line.startswith("dominance,")]
        assert {fact.rsplit(",", 1)[1] for fact in facts} == modes

    def test_nul_label_in_csv(self, run, tmp_path):
        # csv quotes only ',', '"', CR and LF, so NUL is written as is.
        path = tmp_path / "nul.game"
        path.write_text("game nul\nrows a\x00b c\ncols x y\npayoffs\na\x00b : 1 1  0 0\nc : 0 0  -1 -1\n", encoding="utf-8")
        code, out, err = run("solve", str(path), "--pure", "--format", "csv")
        assert (code, err) == (0, "")
        assert out == "kind,row,col,strictness\npure,a\x00b,x,strict\n"

    def test_parse_error_exits_2_with_position(self, run, tmp_path):
        broken = tmp_path / "broken.game"
        broken.write_text(CLASSICAL_DOC.replace("-4 -4", "-4 4/0"), encoding="utf-8")
        code, out, err = run("solve", str(broken))
        assert (code, out) == (2, "")
        assert "line 6" in err and "column" in err

    @pytest.mark.parametrize(
        "where,position",
        [(b"rows C D", "line 2, column 9"), (b"-4 -4", "line 6, column 16")],
        ids=["label", "payoff"],
    )
    def test_undecodable_file_exits_2_with_position(self, run, tmp_path, where, position):
        path = tmp_path / "bad.game"
        path.write_bytes(CLASSICAL_DOC.encode("utf-8").replace(where, where + b"\xff"))
        code, out, err = run("solve", str(path))
        assert (code, out) == (2, "")
        assert position in err and "UTF-8" in err

    @pytest.mark.parametrize("errors", ["strict", "surrogateescape"])
    @pytest.mark.parametrize(
        "where,position",
        [(b"rows C D", "line 2, column 9"), (b"-4 -4", "line 6, column 16")],
        ids=["label", "payoff"],
    )
    def test_undecodable_stdin_exits_2_with_position(self, run, monkeypatch, where, position, errors):
        # A UTF-8 locale reads stdin with errors="strict", the C locale with
        # "surrogateescape"; the exit code must not depend on which.
        data = CLASSICAL_DOC.encode("utf-8").replace(where, where + b"\xff")
        stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors=errors)
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run("solve", "-")
        assert (code, out) == (2, "")
        assert position in err and "UTF-8" in err

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_byte_order_mark_is_dropped(self, run, monkeypatch, tmp_path, pd_file, source):
        # Some editors start a UTF-8 file with the mark U+FEFF.
        data = b"\xef\xbb\xbf" + CLASSICAL_DOC.encode("utf-8")
        if source == "file":
            path = tmp_path / "bom.game"
            path.write_bytes(data)
            target = str(path)
        else:
            monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
            target = "-"
        code, out, err = run("solve", target)
        assert (code, err) == (0, "")
        assert out == run("solve", pd_file)[1]

    def test_second_byte_order_mark_exits_2(self, run, tmp_path):
        path = tmp_path / "bom2.game"
        path.write_bytes(b"\xef\xbb\xbf" * 2 + CLASSICAL_DOC.encode("utf-8"))
        code, out, err = run("solve", str(path))
        assert (code, out) == (2, "")
        assert "line 1, column 1" in err

    def test_missing_file_exits_2(self, run, tmp_path):
        code, _, err = run("solve", str(tmp_path / "absent.game"))
        assert code == 2
        assert err

    def test_json_format(self, run, pd_file):
        import json

        code, out, _ = run("solve", pd_file, "--format", "json")
        assert code == 0
        assert json.loads(out)["pure"] == [{"row": "D", "col": "D", "strict": True}]

    def test_stdin_dash(self, run, monkeypatch, pd_file):
        monkeypatch.setattr("sys.stdin", io.StringIO(CLASSICAL_DOC))
        code, out, _ = run("solve", "-", "--pure", "--format", "csv")
        direct = run("solve", pd_file, "--pure", "--format", "csv")
        assert code == 0
        assert out == direct[1]

    def test_enumeration_finding_nothing_exits_4(self, run, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(MISSED_DOC))
        code, out, err = run("solve", "-")
        assert (code, out) == (4, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_enumeration_finding_nothing_leaves_pure_and_dominance(self, run, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(MISSED_DOC))
        code, out, err = run("solve", "-", "--pure", "--dominance")
        assert (code, err) == (0, "")
        assert "pure equilibria:" in out


class TestSweep:
    def test_csv_grid(self, run):
        code, out, _ = run("sweep", "--steps", "4", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "w,equilibria,dominance"
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "1/4", "1/2", "3/4", "1"]
        for line in lines[2:]:
            assert line.split(",")[1] == "D/D"

    def test_zero_steps_is_usage_error(self, run):
        code, _, err = run("sweep", "--steps", "0")
        assert code == 1
        assert "steps" in err

    def test_custom_years(self, run):
        code, out, _ = run("sweep", "--steps", "2", "--years", "0,1,2,3", "--format", "csv")
        assert code == 0
        assert len(out.splitlines()) == 4

    @pytest.mark.parametrize("steps", ["١٠", "1_0", " 3", "3 ", "+3", "３"])
    def test_steps_other_than_ascii_digits_is_usage_error(self, run, steps):
        code, out, err = run("sweep", "--steps", steps)
        assert (code, out) == (1, "")
        assert "step count" in err


class TestVerify:
    def test_equilibrium_profile(self, run, pd_file):
        code, out, _ = run("verify", pd_file, "--profile", "D,D")
        assert (code, out) == (0, "NASH\n")

    def test_non_equilibrium_profile_with_witness(self, run, pd_file):
        code, out, _ = run("verify", pd_file, "--profile", "C,C")
        assert code == 0
        assert out == "NOT NASH: player 1 deviates C→D, gain 1\n"

    def test_player_two_witness(self, run, pd_file):
        code, out, _ = run("verify", pd_file, "--profile", "D,C")
        assert code == 0
        assert out == "NOT NASH: player 2 deviates C→D, gain 1\n"

    def test_tied_deviations_report_lowest_index(self, run, tmp_path):
        path = tmp_path / "tie.game"
        path.write_text(TIE_DOC, encoding="utf-8")
        code, out, _ = run("verify", str(path), "--profile", "a,x")
        assert (code, out) == (0, "NOT NASH: player 1 deviates a→b, gain 1/2\n")
        code, out, _ = run("verify", str(path), "--profile", "b,x")
        assert (code, out) == (0, "NOT NASH: player 2 deviates x→y, gain 3/2\n")

    def test_unknown_label_exits_3(self, run, pd_file):
        code, out, err = run("verify", pd_file, "--profile", "X,C")
        assert (code, out) == (3, "")
        assert "unknown strategy label" in err

    @pytest.mark.parametrize(
        "profile,message",
        [
            ("X,C", "error: unknown strategy label 'X' for player 1\n"),
            ("C,X", "error: unknown strategy label 'X' for player 2\n"),
            ("C,D,X", "error: unknown strategy label 'D,X' for player 2\n"),
        ],
        ids=["player1", "player2", "first-comma"],
    )
    def test_unknown_label_message(self, run, pd_file, profile, message):
        assert run("verify", pd_file, "--profile", profile) == (3, "", message)

    @pytest.mark.parametrize("profile", ["DD", "a,", ",x"])
    def test_malformed_profile_is_usage_error(self, run, pd_file, profile):
        code, _, _ = run("verify", pd_file, "--profile", profile)
        assert code == 1

    def test_comma_labels_read_at_first_matching_comma(self, run, tmp_path):
        # a,b,c has two readings, (a, b,c) and (a,b, c), and takes the first; a,b,b,c has one.
        path = tmp_path / "commas.game"
        path.write_text(COMMA_DOC, encoding="utf-8")
        assert run("verify", str(path), "--profile", "a,b,c") == (0, "NASH\n", "")
        assert run("verify", str(path), "--profile", "a,b,b,c") == (
            0, "NOT NASH: player 1 deviates a,b→a, gain 1\n", "")


def _verify_oracle(labels1, labels2, u1, u2, i, j) -> str:
    """verify's line for profile (i, j), by scanning the column and the row."""
    column = [row[j] for row in u1]
    if max(column) > column[i]:
        best = column.index(max(column))
        return f"NOT NASH: player 1 deviates {labels1[i]}→{labels1[best]}, gain {max(column) - column[i]}\n"
    row = u2[i]
    if max(row) > row[j]:
        best = row.index(max(row))
        return f"NOT NASH: player 2 deviates {labels2[j]}→{labels2[best]}, gain {max(row) - row[j]}\n"
    return "NASH\n"


@st.composite
def _tie_heavy_games(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cell = st.sampled_from((-1, 0, 1))
    matrix = st.lists(st.lists(cell, min_size=cols, max_size=cols), min_size=rows, max_size=rows)
    # Row labels may hold commas anywhere; column labels hold none, so each
    # profile ROW,COL has exactly one reading.
    row_label = st.sampled_from(("r{}", "r,{}", ",r{}", "r{},", "r,{},x"))
    labels1 = [draw(row_label).format(i) for i in range(rows)]
    return labels1, [f"c{j}" for j in range(cols)], draw(matrix), draw(matrix)


@settings(deadline=None)
@given(spec=_tie_heavy_games())
def test_verify_matches_oracle_on_every_pure_profile(tmp_path_factory, spec):
    labels1, labels2, u1, u2 = spec
    game = make_game(labels1, labels2, u1, u2)
    path = tmp_path_factory.mktemp("verify") / "tie.game"
    path.write_text(serialize_game(game, "tie"), encoding="utf-8")
    for i, row_label in enumerate(labels1):
        for j, col_label in enumerate(labels2):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                code = main(["verify", str(path), "--profile", f"{row_label},{col_label}"])
            expected = _verify_oracle(labels1, labels2, u1, u2, i, j)
            assert (code, out.getvalue()) == (0, expected)
            assert (expected == "NASH\n") == is_nash(game, PureProfile(i, j))


class TestReduce:
    def test_mixture_reduction_matches_pd_bytes(self, run, tmp_path):
        _, gpd_text, _ = run("gpd", "--w", "1/3")
        path = tmp_path / "g3.game"
        path.write_text(gpd_text, encoding="utf-8")
        code, out, _ = run("reduce", str(path))
        assert code == 0
        assert out == run("pd")[1]

    @pytest.mark.parametrize("attitude", ["pessimistic", "optimistic"])
    def test_ambiguous_reduction_matches_pd_bytes(self, run, tmp_path, attitude):
        _, gpd_text, _ = run("gpd", "--ambiguous", attitude)
        path = tmp_path / "g3.game"
        path.write_text(gpd_text, encoding="utf-8")
        code, out, _ = run("reduce", str(path))
        assert code == 0
        assert out == CLASSICAL_DOC

    def test_reduce_via_stdin(self, run, monkeypatch):
        _, gpd_text, _ = run("gpd", "--w", "1/3")
        monkeypatch.setattr("sys.stdin", io.StringIO(gpd_text))
        code, out, _ = run("reduce", "-")
        assert code == 0
        assert out == CLASSICAL_DOC

    def test_classical_game_exits_3(self, run, pd_file):
        code, out, err = run("reduce", pd_file)
        assert (code, out) == (3, "")
        assert "'S'" in err


class TestHarness:
    def test_missing_command_is_usage_error(self, run):
        assert run()[0] == 1

    def test_unknown_command_is_usage_error(self, run):
        assert run("explode")[0] == 1

    def test_help_exits_zero(self, run):
        code, out, _ = run("--help")
        assert code == 0
        assert "solve" in out

    @pytest.mark.parametrize("command", ["solve", "pd", "gpd", "sweep", "verify", "reduce"])
    def test_subcommand_help_exits_zero(self, run, command):
        code, out, err = run(command, "-h")
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: bimatrix {command} ")

    @pytest.mark.parametrize(
        "argv,stderr",
        [
            ((), "usage: bimatrix [-h] command ...\n"
                 "bimatrix: error: the following arguments are required: command\n"),
            (("explode",), "usage: bimatrix [-h] command ...\n"
                           "bimatrix: error: argument command: invalid choice: 'explode' "
                           "(choose from solve, pd, gpd, sweep, verify, reduce)\n"),
            (("sweep", "--steps", "0"), "usage: bimatrix sweep [-h] [--steps STEPS] [--years F,C,D,S]\n"
                                        "                      [--format {table,csv,json}]\n"
                                        "bimatrix sweep: error: argument --steps: steps must be at least 1\n"),
            (("pd", "--years", "1,2,3"), "usage: bimatrix pd [-h] [--years F,C,D,S]\n"
                                         "bimatrix pd: error: argument --years: expected four "
                                         "comma-separated sentence lengths: FREE,COOP,DEFECT,SUCKER\n"),
            (("gpd",), "usage: bimatrix gpd [-h] (--w RAT | --ambiguous {pessimistic,optimistic})\n"
                       "                    [--years F,C,D,S]\n"
                       "bimatrix gpd: error: one of the arguments --w --ambiguous is required\n"),
            (("verify", "FILE", "--profile", "DD"), "usage: bimatrix verify [-h] --profile ROW,COL file\n"
                                                    "bimatrix verify: error: argument --profile: expected "
                                                    "a profile as ROWLABEL,COLLABEL, got 'DD'\n"),
        ],
        ids=["no-command", "unknown-command", "zero-steps", "three-years", "no-semantics", "no-comma"],
    )
    def test_usage_error_bytes(self, run, monkeypatch, pd_file, argv, stderr):
        # Usage lines wrap at the terminal width.
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = run(*(pd_file if arg == "FILE" else arg for arg in argv))
        # Older argparse releases quote each choice in this message.
        err = err.replace("'solve', 'pd', 'gpd', 'sweep', 'verify', 'reduce'", "solve, pd, gpd, sweep, verify, reduce")
        assert (code, out, err) == (1, "", stderr)

    def test_identical_invocations_are_byte_identical(self, run, pd_file):
        first = run("solve", pd_file, "--format", "csv")
        second = run("solve", pd_file, "--format", "csv")
        assert first == second


ACCENT_DOC = """\
game accents
rows é b
cols x
payoffs
é : 1 0
b : 0 0
"""


def python(*argv, **environ) -> subprocess.CompletedProcess:
    """A fresh interpreter run with argv, this checkout's bimatrix on its path."""
    env = dict(os.environ, **environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(bimatrix.__file__).parents[1]), env.get("PYTHONPATH")])
    )
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, timeout=60)


class TestStdoutEncoding:
    """stdout is UTF-8 whatever encoding the environment gives it."""

    @staticmethod
    def console(args, encoding):
        return python("-c", "from bimatrix.cli import run; run()", *args, PYTHONIOENCODING=encoding)

    def test_main_leaves_caller_stdout_alone(self, monkeypatch):
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="latin-1", errors="surrogateescape")
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["pd"]) == 0
        assert (stdout.encoding, stdout.errors) == ("latin-1", "surrogateescape")

    @pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
    def test_verify_witness_arrow(self, tmp_path, encoding):
        path = tmp_path / "pd.game"
        path.write_text(CLASSICAL_DOC, encoding="utf-8")
        done = self.console(["verify", str(path), "--profile", "C,C"], encoding)
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout == "NOT NASH: player 1 deviates C→D, gain 1\n".encode("utf-8")

    @pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
    def test_non_ascii_equilibrium_label(self, tmp_path, encoding):
        path = tmp_path / "accents.game"
        path.write_text(ACCENT_DOC, encoding="utf-8")
        done = self.console(["solve", str(path), "--pure"], encoding)
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout == "pure equilibria:\n  (é, x)  [strict]\n".encode("utf-8")


# `site` may import modules before the test does, so it compares sys.modules
# before and after the import; -S runs without site, which otherwise preloads
# pathlib.
STARTUP = "import sys; before = set(sys.modules); import bimatrix.cli; print(*set(sys.modules) - before)"


@pytest.mark.parametrize(
    ("flags", "unwanted"),
    [((), {"csv", "dataclasses", "inspect"}), (("-S",), {"csv", "dataclasses", "inspect", "pathlib"})],
    ids=["site", "no-site"],
)
def test_cli_import_skips_unused_stdlib(flags, unwanted):
    done = python(*flags, "-c", STARTUP)
    assert (done.returncode, done.stderr) == (0, b"")
    added = set(done.stdout.decode().split())
    assert "bimatrix.cli" in added
    assert not unwanted & added
