"""CLI behaviors: exit codes, output formats, model selection."""

from __future__ import annotations

import json
import re
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

from cogseq.cli import cli


@pytest.fixture()
def runner():
    return CliRunner()


def err_text(result) -> str:
    try:
        return result.stderr + result.output
    except ValueError:  # older click merges the streams
        return result.output


CYCLIC_DOC = json.dumps({
    "tasks": [
        {"code": "A", "name": "A", "resource": "VWM", "modality": "t",
         "voluntary": False, "familiarity": 3, "complexity": 3,
         "prerequisites": ["B"]},
        {"code": "B", "name": "B", "resource": "PM", "modality": "t",
         "voluntary": False, "familiarity": 3, "complexity": 3,
         "prerequisites": ["A"]},
    ],
})


class TestValidate:
    def test_fixture_is_ok(self, runner):
        result = runner.invoke(cli, ["validate", "checkin-full"])
        assert result.exit_code == 0
        assert "OK: 16 tasks, 1 variant groups, 28 precedence edges" \
            in result.output

    def test_cycle_fails_with_kinds(self, runner, tmp_path):
        doc = tmp_path / "cyclic.json"
        doc.write_text(CYCLIC_DOC, encoding="utf-8")
        result = runner.invoke(cli, ["validate", str(doc)])
        assert result.exit_code == 1
        assert "[cycle]" in result.output

    def test_missing_file(self, runner):
        result = runner.invoke(cli, ["validate", "ghost.json"])
        assert result.exit_code == 1
        assert "error:" in err_text(result)

    @pytest.mark.parametrize("value", [5, None])
    def test_variant_groups_not_array(self, runner, tmp_path, value):
        doc = {
            "tasks": [{"code": "A", "name": "A", "resource": "VWM",
                       "modality": "t", "voluntary": False,
                       "familiarity": 3, "complexity": 3}],
            "variant_groups": value,
        }
        path = tmp_path / "groups.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        result = runner.invoke(cli, ["validate", str(path)])
        # An uncaught exception would also exit 1 under CliRunner; a clean
        # domain error is a SystemExit with the message on stderr.
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "error:" in err_text(result)
        assert "variant_groups" in err_text(result)

    def test_blank_task_code_names_file_and_field(self, runner, tmp_path):
        doc = json.loads(CYCLIC_DOC)
        doc["tasks"][1]["code"] = " "
        path = tmp_path / "blank.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        result = runner.invoke(cli, ["validate", str(path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"error: {path}: tasks[1].code: " in err_text(result)


class TestSolve:
    def test_table_output(self, runner):
        result = runner.invoke(cli, [
            "solve", "checkin-full", "--variant", "AUTH=AUPS",
        ])
        assert result.exit_code == 0
        assert "objective: minimize" in result.output
        assert "5.34" in result.output

    def test_json_output(self, runner):
        result = runner.invoke(cli, [
            "solve", "checkin-full", "--variant", "AUTH=AUPS",
            "--format", "json",
        ])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["objective"] == "minimize"
        sol = payload["solutions"][0]
        assert sol["rank"] == 1
        assert sol["total_thousandths"] == 5340
        assert sol["total"] == "5.34"
        assert len(sol["ordering"]) == 13
        assert len(sol["transitions"]) == 12
        assert "stats" not in payload and "elapsed" not in result.output

    def test_unresolved_group_mentions_compare(self, runner):
        result = runner.invoke(cli, ["solve", "checkin-full"])
        assert result.exit_code == 1
        assert "compare-variants" in err_text(result)

    def test_unknown_member(self, runner):
        result = runner.invoke(cli, [
            "solve", "checkin-full", "--variant", "AUTH=NOPE",
        ])
        assert result.exit_code == 1
        assert "error:" in err_text(result)

    def test_malformed_variant_is_usage_error(self, runner):
        result = runner.invoke(cli, [
            "solve", "checkin-full", "--variant", "AUTH",
        ])
        assert result.exit_code == 2
        assert "GROUP=MEMBER" in err_text(result)

    def test_unknown_option(self, runner):
        result = runner.invoke(cli, ["solve", "checkin-full", "--frobnicate"])
        assert result.exit_code == 2

    def test_unknown_subcommand(self, runner):
        result = runner.invoke(cli, ["transmogrify"])
        assert result.exit_code == 2

    def test_objective_max_dominates_min(self, runner):
        args = ["solve", "checkin-validation", "--format", "json"]
        low = json.loads(runner.invoke(cli, args).output)
        high = json.loads(runner.invoke(
            cli, args + ["--objective", "max"]).output)
        assert high["solutions"][0]["total_thousandths"] > \
            low["solutions"][0]["total_thousandths"]

    def test_backend_flag_rejected(self, runner):
        result = runner.invoke(cli, ["solve", "checkin-validation",
                                     "--backend", "exhaustive"])
        assert result.exit_code == 2

    def test_k_returns_ranked_solutions(self, runner):
        result = runner.invoke(cli, [
            "solve", "checkin-validation", "--k", "3", "--format", "json",
        ])
        payload = json.loads(result.output)
        totals = [s["total_thousandths"] for s in payload["solutions"]]
        assert len(totals) == 3
        assert totals == sorted(totals)
        assert [s["rank"] for s in payload["solutions"]] == [1, 2, 3]

    def test_search_budget_is_domain_error(self, runner, tmp_path,
                                           monkeypatch):
        monkeypatch.setattr("cogseq._search.MAX_IDEALS", 100)
        doc = {"tasks": [
            {"code": f"T{i}", "name": f"T{i}", "resource": "VWM",
             "modality": "t", "voluntary": False, "familiarity": 3,
             "complexity": 3}
            for i in range(10)
        ]}
        path = tmp_path / "antichain.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        result = runner.invoke(cli, ["solve", str(path)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "error:" in err_text(result)
        assert "order ideals" in err_text(result)

    @pytest.mark.parametrize("command", [
        ["solve", "checkin-validation"],
        ["compare-variants", "checkin-full"],
    ], ids=["solve", "compare-variants"])
    def test_workers_flag_rejected(self, runner, command):
        result = runner.invoke(cli, command + ["--workers", "4"])
        assert result.exit_code == 2
        assert "--workers" in err_text(result)


class TestCostModelSelection:
    def test_literal_differs_from_calibrated(self, runner):
        base = ["solve", "checkin-full", "--variant", "AUTH=AUPI",
                "--format", "json"]
        calibrated = json.loads(runner.invoke(cli, base).output)
        literal = json.loads(runner.invoke(
            cli, base + ["--cost-model", "literal"]).output)
        assert calibrated["solutions"][0]["total_thousandths"] != \
            literal["solutions"][0]["total_thousandths"]

    def test_cost_model_file(self, runner, tmp_path):
        model_file = tmp_path / "model.json"
        model_file.write_text(json.dumps({"rules_enabled": False}),
                              encoding="utf-8")
        result = runner.invoke(cli, ["show-model", "--cost-model",
                                     str(model_file)])
        assert result.exit_code == 0
        assert "rules: disabled" in result.output

    def test_environment_variable(self, runner):
        result = runner.invoke(cli, ["show-model"],
                               env={"COGSEQ_COST_MODEL": "literal"})
        assert result.exit_code == 0
        assert "RecentPractice: 0.31" in result.output

    def test_default_is_calibrated(self, runner):
        result = runner.invoke(cli, ["show-model"])
        assert result.exit_code == 0
        assert "RecentPractice" not in result.output
        assert "Familiarity: 0.42" in result.output
        assert "recent-practice scope: adjacent-only" in result.output

    def test_every_rule_withheld_prints_disabled(self, runner, tmp_path):
        model_file = tmp_path / "model.json"
        model_file.write_text(json.dumps({"rules": {
            "Modality": None, "RecentPractice": None, "Familiarity": None,
            "VoluntaryComplexityDrop": None,
            "InvoluntaryComplexityDrop": None,
        }}), encoding="utf-8")
        result = runner.invoke(cli, ["show-model", "--cost-model",
                                     str(model_file)])
        assert result.exit_code == 0
        assert result.output.splitlines()[-2:] == [
            "rules: disabled", "recent-practice scope: adjacent-only"]

    @pytest.mark.parametrize("doc", [
        {"rules": {"Familiarity": [0, [4, 2], -2]}},
        {"matrix": [[0, [0, [4, 2], -2], 0, 0, 0]] + [[0] * 5] * 4},
    ], ids=["rule", "matrix"])
    @pytest.mark.parametrize("command", [
        ["show-model"], ["solve", "checkin-validation"],
    ], ids=["show-model", "solve"])
    def test_non_numeric_effect_size(self, runner, tmp_path, doc, command):
        model_file = tmp_path / "model.json"
        model_file.write_text(json.dumps(doc), encoding="utf-8")
        result = runner.invoke(cli, command + ["--cost-model",
                                               str(model_file)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "error:" in err_text(result)
        assert "effect size must be numeric, got list" in err_text(result)
        assert "Traceback" not in err_text(result)

    @pytest.mark.parametrize("doc", [
        {"rules": {"Familiarity": "1e5000"}},
        {"matrix": [0, 2e6] + [0] * 23},
    ], ids=["rule", "matrix"])
    @pytest.mark.parametrize("command", [
        ["show-model"], ["solve", "checkin-validation"],
    ], ids=["show-model", "solve"])
    def test_effect_size_above_maximum(self, runner, tmp_path, doc, command):
        model_file = tmp_path / "model.json"
        model_file.write_text(json.dumps(doc), encoding="utf-8")
        result = runner.invoke(cli, command + ["--cost-model",
                                               str(model_file)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "error:" in err_text(result)
        assert "exceeds the maximum effect size" in err_text(result)
        assert "Traceback" not in err_text(result)


class TestReadme:
    """The README's command-line examples print what the README shows."""

    EXAMPLE = re.compile(r"```sh\n(?P<commands>.*?)```\n\n```\n(?P<output>.*?)```",
                         re.DOTALL)

    def examples(self):
        text = (Path(__file__).parents[1] / "README.md").read_text(
            encoding="utf-8")
        return [(m["commands"].splitlines()[-1], m["output"])
                for m in self.EXAMPLE.finditer(text)]

    def test_examples_are_found(self):
        assert [command for command, _ in self.examples()] == [
            "cogseq solve checkin-full --variant AUTH=AUPS --k 3",
            "cogseq compare-variants checkin-full",
        ]

    def test_output_matches_byte_for_byte(self, runner):
        for command, output in self.examples():
            result = runner.invoke(cli, shlex.split(command)[1:])
            assert result.exit_code == 0, command
            assert result.output == output, command


class TestCompareVariants:
    def test_table(self, runner):
        result = runner.invoke(cli, ["compare-variants", "checkin-full"])
        assert result.exit_code == 0
        assert "group AUTH:" in result.output
        assert "delta (dearest - cheapest): 1.503" in result.output
        lines = [l for l in result.output.splitlines()
                 if l.startswith("  ") and "delta" not in l]
        assert len(lines) == 4

    def test_json_ranks_members(self, runner):
        result = runner.invoke(cli, [
            "compare-variants", "checkin-full", "--format", "json",
        ])
        payload = json.loads(result.output)
        (comp,) = payload["comparisons"]
        assert comp["group"] == "AUTH"
        members = [row["member"] for row in comp["rows"]]
        totals = [row["total_thousandths"] for row in comp["rows"]]
        assert members == ["AUPS", "AUCC", "AUPI", "AUPW"]
        assert totals == sorted(totals)
        assert comp["delta_thousandths"] == totals[-1] - totals[0]

    def test_concrete_workflow_is_domain_error(self, runner):
        result = runner.invoke(cli, ["compare-variants", "checkin-validation"])
        assert result.exit_code == 1
        assert "use solve" in err_text(result)


class TestExplain:
    def test_known_ordering_by_name(self, runner):
        result = runner.invoke(cli, [
            "explain", "checkin-validation", "--ordering", "paper_pessimal",
        ])
        assert result.exit_code == 0
        assert "total:" in result.output

    def test_explicit_codes(self, runner):
        result = runner.invoke(cli, [
            "explain", "checkin-validation",
            "--ordering", "AIRL,LIQH,BKRF,FRBN,STSO,DIMH,EXBG,CFRM,PRBP,PRLT",
            "--format", "json",
        ])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["ordering"][0] == "AIRL"
        assert payload["total_thousandths"] == sum(
            t["total_thousandths"] for t in payload["transitions"])

    def test_infeasible_ordering(self, runner):
        result = runner.invoke(cli, [
            "explain", "checkin-validation",
            "--ordering", "BKRF,AIRL,FRBN,LIQH,DIMH,STSO,EXBG,CFRM,PRLT,PRBP",
        ])
        assert result.exit_code == 1
        assert "must precede" in err_text(result)

    def test_unknown_prerequisite_is_domain_error(self, runner, tmp_path):
        doc = tmp_path / "unknown.json"
        doc.write_text(json.dumps({"tasks": [
            {"code": "A", "name": "A", "resource": "VWM", "modality": "t",
             "voluntary": False, "familiarity": 3, "complexity": 3,
             "prerequisites": ["Z"]},
            {"code": "B", "name": "B", "resource": "PM", "modality": "t",
             "voluntary": False, "familiarity": 3, "complexity": 3},
        ]}), encoding="utf-8")
        result = runner.invoke(cli, ["explain", str(doc), "--ordering", "A,B"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "error:" in err_text(result)
        assert "requires unknown code 'Z'" in err_text(result)
        assert "Traceback" not in err_text(result)

    def test_explain_agrees_with_solve(self, runner):
        solved = json.loads(runner.invoke(cli, [
            "solve", "checkin-validation", "--format", "json",
        ]).output)
        ordering = ",".join(solved["solutions"][0]["ordering"])
        explained = json.loads(runner.invoke(cli, [
            "explain", "checkin-validation", "--ordering", ordering,
            "--format", "json",
        ]).output)
        assert explained["total_thousandths"] == \
            solved["solutions"][0]["total_thousandths"]


class TestDistance:
    def test_zero(self, runner):
        result = runner.invoke(cli, ["distance", "--a", "A,B,C",
                                     "--b", "A,B,C"])
        assert result.output.strip() == "0.0000"

    def test_adjacent_swap(self, runner):
        result = runner.invoke(cli, ["distance", "--a", "A,B,C",
                                     "--b", "A,C,B"])
        assert result.output.strip() == "1.4142"

    def test_mismatched_sets(self, runner):
        result = runner.invoke(cli, ["distance", "--a", "A,B", "--b", "A,C"])
        assert result.exit_code == 1
        assert "different task sets" in err_text(result)


class TestConsensus:
    def test_file(self, runner, tmp_path):
        votes = tmp_path / "votes.txt"
        votes.write_text("A,B,C\nA,B,C\nB,A,C\n", encoding="utf-8")
        result = runner.invoke(cli, ["consensus", str(votes)])
        assert result.exit_code == 0
        assert result.output.strip() == "A, B, C"

    def test_empty_file(self, runner, tmp_path):
        votes = tmp_path / "votes.txt"
        votes.write_text("# nothing here\n", encoding="utf-8")
        result = runner.invoke(cli, ["consensus", str(votes)])
        assert result.exit_code == 1


class TestExportDot:
    def test_full_fixture(self, runner):
        result = runner.invoke(cli, ["export-dot", "checkin-full"])
        assert result.exit_code == 0
        assert result.output.startswith("digraph workflow {")
        assert result.output.count("->") == 28
        assert result.output.endswith("}\n")

    def test_variant_resolution_drops_group_node(self, runner):
        result = runner.invoke(cli, [
            "export-dot", "checkin-full", "--variant", "AUTH=AUCC",
        ])
        assert result.exit_code == 0
        assert "AUTH" not in result.output
        assert '"AUCC"' in result.output
