"""Smoke test of the benchmark itself: every workload, at a tiny size, in both
modes, passes its checks and emits every metric that BENCHMARK.json names.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checker  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_names_what_the_benchmark_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


def test_general_position_rejects_ties_and_affine_dependence():
    generic = checker.matrix([[3, 1], [0, 2]])
    assert checker.in_general_position(generic, generic)
    # Player 2 ties in row 1: k = 1.
    assert not checker.in_general_position(generic, checker.matrix([[1, 1], [0, 2]]))
    # Rows 1-3 of player 1 are collinear on columns 1 and 2, with no tie: k = 2.
    collinear = checker.matrix([[0, 0, 5], [1, 1, 3], [2, 2, 7]])
    distinct = checker.matrix([[1, 2, 3], [5, 6, 4], [9, 7, 8]])
    assert checker.in_general_position(distinct, distinct)
    assert not checker.in_general_position(collinear, distinct)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_emits_every_metric(workload, trace):
    doc = run.run_workload(workload, seed=7, seconds=0, trace=trace, import_s=0.0, small=True)
    assert doc["failed"] == 0, doc["failures"]
    assert doc["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert set(doc["metrics"]) == set(expected)
    for name, metric in doc["metrics"].items():
        assert metric["unit"] == expected[name]
        assert isinstance(metric["value"], (int, float))
        if not trace:
            assert metric["value"] > 0, name
    assert len(doc["digest"]) == 64
    assert doc["provenance"]["seed"] == 7


def test_digest_follows_the_seed_and_compare_names_the_difference(capsys):
    def doc(seed):
        return run.run_workload("pure-sweep", seed=seed, seconds=0, trace=False, import_s=0.0, small=True)

    first, again, other = doc(1), doc(1), doc(2)
    assert first["digest"] == again["digest"]
    assert first["digest"] != other["digest"]

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
        paths = [Path(tmp) / "a.json", Path(tmp) / "b.json"]
        other["seed"] = 1  # same key, different outputs
        for path, result in zip(paths, (first, other)):
            path.write_text(json.dumps({"results": [result]}), encoding="utf-8")
        assert run.compare(str(paths[0]), str(paths[0])) == 0
        assert run.compare(*map(str, paths)) == 1
    assert "digest differs: pure-sweep" in capsys.readouterr().out
