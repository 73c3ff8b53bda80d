"""The summary of tools/bench_pairs.py on fixed numbers, and its stop on a
failed run; no benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
DECLARED = [{"name": "solve_s", "better": "lower"},
            {"name": "nodes_per_s", "better": "higher"}]


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _pairs(parent, change):
    return [{"correct": True,
             "parent": {"solve_s": old, "nodes_per_s": 1.0 / old},
             "change": {"solve_s": new, "nodes_per_s": 1.0 / new}}
            for old, new in zip(parent, change)]


def test_quartiles_inclusive():
    bench = _bench_pairs()
    assert bench.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == {"q1": 2.0, "median": 3.0, "q3": 4.0}
    assert bench.quartiles([7.0]) == {"q1": 7.0, "median": 7.0, "q3": 7.0}


def test_clear_gain_wins_nine_tenths_beyond_the_parent_spread():
    bench = _bench_pairs()
    parent = [2.0, 2.1, 1.9, 2.0, 2.2, 1.8, 2.0, 2.1, 1.9, 2.0]
    change = [1.5, 1.6, 1.5, 1.4, 1.6, 1.9, 1.5, 1.5, 1.6, 1.5]   # loses pair 6
    summary = bench.summarise(_pairs(parent, change), DECLARED)
    solve = summary["solve_s"]
    assert solve["parent"] == pytest.approx({"q1": 1.925, "median": 2.0, "q3": 2.075})
    assert solve["change"]["median"] == 1.5
    assert solve["wins"] == 9 and solve["pairs"] == 10
    assert solve["relative_change"] == pytest.approx(-0.25)
    assert solve["clear"]
    # a higher-is-better metric counts wins the other way round
    assert summary["nodes_per_s"]["wins"] == 9 and summary["nodes_per_s"]["clear"]


def test_no_clear_gain_with_too_few_wins_or_within_the_spread():
    bench = _bench_pairs()
    parent = [2.0, 2.1, 1.9, 2.0, 2.2, 1.8, 2.0, 2.1, 1.9, 2.0]
    # seven wins, two losses and a tie, which counts for neither side
    change = [1.5, 1.6, 1.5, 1.4, 2.3, 1.9, 2.0, 1.5, 1.6, 1.5]
    solve = bench.summarise(_pairs(parent, change), DECLARED)["solve_s"]
    assert solve["wins"] == 7 and not solve["clear"]
    # every pair won, but by less than the parent's interquartile distance
    close = [value - 0.1 for value in parent]
    solve = bench.summarise(_pairs(parent, close), DECLARED)["solve_s"]
    assert solve["wins"] == 10
    assert solve["parent"]["q3"] - solve["parent"]["q1"] > 0.1
    assert not solve["clear"]


def test_no_clear_gain_when_a_run_fails_its_correctness_check():
    bench = _bench_pairs()
    parent = [2.0, 2.1, 1.9, 2.0, 2.2, 1.8, 2.0, 2.1, 1.9, 2.0]
    change = [1.5, 1.6, 1.5, 1.4, 1.6, 1.5, 1.5, 1.5, 1.6, 1.5]
    pairs = _pairs(parent, change)
    assert bench.summarise(pairs, DECLARED)["solve_s"]["clear"]
    pairs[3]["correct"] = False
    solve = bench.summarise(pairs, DECLARED)["solve_s"]
    assert solve["wins"] == 10 and not solve["clear"]


def test_failed_run_stops_with_one_line_naming_it(tmp_path, capsys):
    """A run that exits non-zero stops the script with exit status 1 and a
    line naming the workload, seed, pair, side and exit code, then the tail
    of the run's stderr; no summary is written."""
    bench = _bench_pairs()
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "workloads": [{"name": "toy"}],
        "end_to_end": DECLARED}), encoding="utf-8")
    (tmp_path / "epibench").mkdir()
    (tmp_path / "epibench" / "run.py").write_text(
        "import sys\nprint('first line', file=sys.stderr)\n"
        "print('engine gave up', file=sys.stderr)\nsys.exit(3)\n", encoding="utf-8")
    tag = "failed-run-test"
    status = bench.main(["--parent", str(tmp_path), "--change", str(tmp_path),
                         "--tag", tag, "--seeds", "7", "--pairs", "2"])
    assert status == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "error: toy seed 7 pair 1, parent run exited with code 3; stderr ends:"
    assert err[1:] == ["first line", "engine gave up"]
    assert not (bench.ROOT / f"BENCH_{tag}.json").exists()
