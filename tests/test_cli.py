import json
from importlib import resources

import pytest

from epiplan.cli import main
from epiplan.parser import MAX_FORMULA_DEPTH, MAX_INT_RANGE


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    """Copies of the bundled number files as plain files for the CLI."""
    root = tmp_path_factory.mktemp("cli")
    out = {}
    base = resources.files("epiplan").joinpath("benchmarks").joinpath("number")
    for name in ("number.dom", "n1.prob", "plan1.trace"):
        target = root / name
        target.write_text(base.joinpath(name).read_text(encoding="utf-8"),
                          encoding="utf-8")
        out[name] = str(target)
    out["dir"] = root
    return out


class TestSolve:
    def test_solves_n1(self, paths, capsys):
        code = main(["solve", paths["number.dom"], paths["n1.prob"]])
        out = capsys.readouterr().out
        assert code == 0
        assert "PLAN:" in out
        plan_line = next(line for line in out.splitlines() if line.startswith("PLAN:"))
        assert len(plan_line.split()[1:]) == 2

    def test_json_format(self, paths, capsys):
        code = main(["solve", paths["number.dom"], paths["n1.prob"],
                     "--format", "json", "--seed", "7"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["plan_length"] == 2
        assert rows[0]["expanded"] <= rows[0]["generated"]

    def test_tsv_format(self, paths, capsys):
        code = main(["solve", paths["number.dom"], paths["n1.prob"], "--format", "tsv"])
        assert code == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if "\t" in l]
        header, row = lines[0].split("\t"), lines[1].split("\t")
        assert header[0] == "id"
        assert row[header.index("plan_length")] == "2"

    @pytest.mark.parametrize("limit, code, status", [
        (["--max-depth", "0"], 3, "unsolvable"),
        (["--node-budget", "1"], 4, "aborted"),
    ])
    def test_machine_formats_hold_only_rows_when_unsolved(self, paths, capsys,
                                                          limit, code, status):
        """json and tsv output give the status in `plan_length` and the exit
        code; the text status line would break them."""
        args = ["solve", paths["number.dom"], paths["n1.prob"], *limit]
        assert main(args + ["--format", "json"]) == code
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["plan_length"] == status
        assert main(args + ["--format", "tsv"]) == code
        header, row = capsys.readouterr().out.splitlines()
        assert header.split("\t")[0] == "id"
        assert row.split("\t")[header.split("\t").index("plan_length")] == status

    def test_goal_already_true(self, paths, capsys, tmp_path):
        prob = tmp_path / "easy.prob"
        prob.write_text("problem easy\ndomain number\n"
                        "init n=2 peeking_a=false peeking_b=false\n"
                        "goal true (= n 2)\n", encoding="utf-8")
        code = main(["solve", paths["number.dom"], str(prob)])
        assert code == 0
        assert "PLAN: (empty)" in capsys.readouterr().out

    def test_unsolvable_exit_code(self, paths, capsys):
        code = main(["solve", paths["number.dom"], paths["n1.prob"], "--max-depth", "1"])
        assert code == 3
        assert "UNSOLVABLE" in capsys.readouterr().out

    def test_malformed_domain_exit_code(self, paths, capsys, tmp_path):
        bad = tmp_path / "bad.dom"
        bad.write_text("domain broken\nagents a\nvar n : int nope\n", encoding="utf-8")
        code = main(["solve", str(bad), paths["n1.prob"]])
        err = capsys.readouterr().err
        assert code == 2
        assert "line 3" in err

    def test_missing_file_exit_code(self, paths, capsys):
        assert main(["solve", paths["number.dom"], "/does/not/exist.prob"]) == 2

    @pytest.mark.parametrize("which", ["domain", "problem"])
    def test_undecodable_file_exit_code(self, paths, capsys, tmp_path, which):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes("problem caf\u00e9\n".encode("latin-1"))
        args = {"domain": [str(bad), paths["n1.prob"]],
                "problem": [paths["number.dom"], str(bad)]}[which]
        code = main(["solve", *args])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "not UTF-8" in err

    @pytest.mark.parametrize("option, value", [
        ("--max-depth", "-1"),
        ("--node-budget", "-5"),
        ("--time-budget", "-0.5"),
        ("--time-budget", "nan"),
    ])
    def test_negative_limit_exit_code(self, paths, capsys, option, value):
        with pytest.raises(SystemExit) as stop:
            main(["solve", paths["number.dom"], paths["n1.prob"], option, value])
        assert stop.value.code == 2
        assert f"argument {option}: expected" in capsys.readouterr().err

    def test_zero_depth_is_a_limit(self, paths, capsys):
        code = main(["solve", paths["number.dom"], paths["n1.prob"], "--max-depth", "0"])
        assert code == 3
        assert "UNSOLVABLE within depth 0" in capsys.readouterr().out

    @pytest.mark.parametrize("depth, code, message", [
        ("-1", 2, "max-depth must not be negative"),
        ("0", 3, "UNSOLVABLE within depth 0"),
    ])
    def test_problem_file_depth(self, paths, capsys, tmp_path, depth, code, message):
        prob = tmp_path / "depth.prob"
        with open(paths["n1.prob"], encoding="utf-8") as source:
            prob.write_text(source.read().replace("max-depth 4", f"max-depth {depth}"),
                            encoding="utf-8")
        assert main(["solve", paths["number.dom"], str(prob)]) == code
        assert message in "".join(capsys.readouterr())

    def test_out_of_domain_effect_exit_code(self, paths, capsys, tmp_path):
        dom = tmp_path / "reach.dom"
        with open(paths["number.dom"], encoding="utf-8") as source:
            dom.write_text(source.read().replace("eff n += 1", "eff n := 99"),
                           encoding="utf-8")
        assert main(["solve", str(dom), paths["n1.prob"]]) == 2
        err = capsys.readouterr().err
        assert "line 32" in err and "not in the domain of 'n'" in err

    def test_too_wide_integer_range_exit_code(self, paths, capsys, tmp_path):
        # one value over the limit
        dom = tmp_path / "wide.dom"
        with open(paths["number.dom"], encoding="utf-8") as source:
            dom.write_text(source.read().replace("0..2", f"0..{MAX_INT_RANGE}"),
                           encoding="utf-8")
        assert main(["solve", str(dom), paths["n1.prob"]]) == 2
        err = capsys.readouterr().err
        assert "line 6" in err and f"more than {MAX_INT_RANGE} values" in err


def _nested_beliefs(depth: int) -> str:
    """`depth - 1` beliefs of a around an atom that holds in a's view of plan1."""
    return "(B a " * (depth - 1) + "(= n 2)" + ")" * (depth - 1)


def _conjunction(depth: int) -> str:
    """A flat conjunction that folds into an And chain `depth` nodes deep."""
    return "(and" + " (< n 3)" * depth + ")"


class TestEval:
    def test_plan1_common_belief(self, paths, capsys):
        code = main(["eval", paths["number.dom"], paths["plan1.trace"],
                     "(CB (a b) (< n 3))"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_plan1_individual_belief(self, paths, capsys):
        code = main(["eval", paths["number.dom"], paths["plan1.trace"],
                     "(B a (= n 2))"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_unknown_prints_half(self, paths, capsys, tmp_path):
        trace = tmp_path / "still.trace"
        trace.write_text("init n=2 peeking_a=false peeking_b=false\n", encoding="utf-8")
        code = main(["eval", paths["number.dom"], str(trace), "(B a (= n 2))"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "1/2"

    def test_initially_visible_variable_seen(self, paths, capsys, tmp_path):
        trace = tmp_path / "still.trace"
        trace.write_text("init n=2 peeking_a=false peeking_b=false\n", encoding="utf-8")
        code = main(["eval", paths["number.dom"], str(trace), "(S b peeking_a)"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_explain_prints_perspectives(self, paths, capsys):
        code = main(["eval", paths["number.dom"], paths["plan1.trace"],
                     "(CB (a b) (< n 3))", "--explain"])
        out = capsys.readouterr().out
        assert code == 0
        assert "agent a:" in out and "agent b:" in out
        assert "t=4" in out

    def test_undecodable_trace_exit_code(self, paths, capsys, tmp_path):
        bad = tmp_path / "latin1.trace"
        bad.write_bytes(b"init n=2 peeking_a=false peeking_b=false\n# \xe9\n")
        code = main(["eval", paths["number.dom"], str(bad), "(= n 2)"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "not UTF-8" in err

    @pytest.mark.parametrize("text", [
        "init n=1 n=2 peeking_a=false peeking_b=false\n",
        "state n=1 peeking_a=false\nstate n=1 n=0\n",
    ], ids=["init", "state"])
    def test_variable_given_twice_exit_code(self, paths, capsys, tmp_path, text):
        trace = tmp_path / "twice.trace"
        trace.write_text(text, encoding="utf-8")
        code = main(["eval", paths["number.dom"], str(trace), "(= n 1)"])
        assert code == 2
        assert "'n' given twice" in capsys.readouterr().err

    def test_bad_formula_exit_code(self, paths, capsys):
        assert main(["eval", paths["number.dom"], paths["plan1.trace"],
                     "(K a (B b (= n 2)))"]) == 2

    @pytest.mark.parametrize("formula", [
        "(B a " * 5000 + "(= peeking_a true)" + ")" * 5000,
        "(and" + " (= peeking_a true)" * 3000 + ")",
    ], ids=["nested-beliefs", "flat-conjunction"])
    def test_deeply_nested_formula_exit_code(self, paths, capsys, formula):
        code = main(["eval", paths["number.dom"], paths["plan1.trace"], formula])
        assert code == 2
        assert f"deeper than {MAX_FORMULA_DEPTH} levels" in capsys.readouterr().err

    @pytest.mark.parametrize("build", [_nested_beliefs, _conjunction])
    def test_formula_at_depth_limit_evaluates(self, paths, capsys, build):
        code = main(["eval", paths["number.dom"], paths["plan1.trace"],
                     build(MAX_FORMULA_DEPTH)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "1"
        assert main(["eval", paths["number.dom"], paths["plan1.trace"],
                     build(MAX_FORMULA_DEPTH + 1)]) == 2


class TestBench:
    def test_unknown_set_is_usage_error(self, capsys):
        assert main(["bench", "mystery"]) == 2

    def test_number_set_lengths(self, capsys):
        code = main(["bench", "number", "--format", "json", "--time-budget", "120"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["id"] for row in rows] == [f"N{i}" for i in range(7)]
        assert [row["plan_length"] for row in rows] == [4, 2, 4, 6, 8, 4, 4]

    def test_small_sets_report_every_instance(self, capsys):
        code = main(["bench", "bbl", "--format", "tsv", "--time-budget", "60"])
        assert code == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 8  # header + 7 rows
        assert lines[1].split("\t")[0] == "BBL0"
