"""CLI behaviors: exit codes, output formats, model selection."""

from __future__ import annotations

import json
import os
import re
import shlex
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from test_io import (FUZZ_COST_MODEL, FUZZ_WORKFLOW, json_paths,
                     json_values, substituted)

import cogseq
from conftest import run


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


#: A name longer than any file system allows (ENAMETOOLONG).
LONG_NAME = "x" * 5000


class TestEntryPoint:
    """The in-process runner gives what the shipped entry point gives, so it
    stands in for a ``cogseq`` process in every other test."""

    @pytest.mark.parametrize("status,args", [
        (0, ["validate", "checkin-full"]),
        (1, ["validate", "{cyclic}"]),
        (0, ["solve", "checkin-full", "--variant", "AUTH=AUPS", "--k", "3"]),
        (0, ["compare-variants", "checkin-full", "--format", "json"]),
        (1, ["solve", "checkin-full"]),
        (1, ["explain", "checkin-validation", "--ordering", "BKRF,AIRL"]),
        (2, ["solve", "checkin-full", "--k", "0"]),
        (2, ["transmogrify"]),
        (0, ["--help"]),
        (1, ["validate", "{long}"]),
        (1, ["solve", "{long}"]),
        (1, ["export-dot", "{long}"]),
        (1, ["compare-variants", "{long}"]),
    ], ids=lambda arg: " ".join(arg) if isinstance(arg, list) else None)
    def test_main_matches_the_process(self, tmp_path, status, args):
        cyclic = tmp_path / "cyclic.json"
        cyclic.write_text(CYCLIC_DOC, encoding="utf-8")
        args = [arg.format(cyclic=cyclic, long=LONG_NAME) for arg in args]
        src = Path(cogseq.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "cogseq.cli", *args],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == status, proc.stderr
        assert "Traceback" not in proc.stderr
        assert run(args) == (proc.returncode, proc.stdout, proc.stderr)

    @pytest.mark.parametrize("status,args", [
        (0, ["validate", "checkin-full"]),
        (1, ["solve", "checkin-full"]),
        (2, ["solve", "checkin-full", "--k", "0"]),
    ], ids=lambda arg: " ".join(arg) if isinstance(arg, list) else None)
    def test_click_shim_exits_with_main(self, capsys, status, args):
        # The benchmark's traced run drives cogseq.cli.cli through click's
        # CliRunner, which reads only its name and main(args=, prog_name=).
        from cogseq.cli import cli

        assert cli.name == "cogseq"
        with pytest.raises(SystemExit) as exited:
            cli.main(args=args, prog_name="cogseq")
        out, err = capsys.readouterr()
        assert (exited.value.code, out, err) == run(args)
        assert exited.value.code == status


class TestEdges:
    """What the command line does around a command: no abbreviated options,
    Ctrl-C, a reader that closes stdout early, and help that does not
    depend on the terminal."""

    @pytest.mark.parametrize("args", [
        ["solve", "checkin-full", "--variant", "AUTH=AUPS", "--obj", "max"],
        ["explain", "checkin-validation", "--ord", "paper_optimal"],
        ["--hel"],
    ], ids=" ".join)
    def test_abbreviated_option_is_usage_error(self, args):
        result = run(args)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("usage: cogseq ")

    def test_keyboard_interrupt_aborts(self, monkeypatch):
        def interrupted(request):
            raise KeyboardInterrupt

        monkeypatch.setattr("cogseq.cli.solve", interrupted)
        assert run(["solve", "checkin-validation"]) == (1, "", "\nAborted!\n")

    @pytest.mark.parametrize("read,status", [(0, 1), (10, 0)])
    def test_closed_stdout_ends_quietly(self, read, status):
        # The JSON (about 1.2 MB) goes out in one write: a reader that
        # leaves after 10 bytes cuts it short without an error, and the
        # command ends as usual.  One that leaves before any output makes
        # that write fail, and the command ends with status 1.  Either way
        # nothing reaches stderr, neither an error nor a traceback.
        src = Path(cogseq.__file__).resolve().parents[1]
        with subprocess.Popen(
                [sys.executable, "-m", "cogseq.cli", "solve",
                 "checkin-validation", "--k", "400", "--format", "json"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": str(src)}) as proc:
            try:
                assert len(proc.stdout.read(read)) == read
                proc.stdout.close()
                _, stderr = proc.communicate(timeout=60)
            finally:
                proc.kill()
        assert (proc.returncode, stderr) == (status, b"")

    @pytest.mark.parametrize("args", [["--help"], ["solve", "--help"]],
                             ids=" ".join)
    def test_help_ignores_the_terminal_width(self, monkeypatch, args):
        outputs = []
        for columns in ("40", "300"):
            monkeypatch.setenv("COLUMNS", columns)
            outputs.append(run(args))
        narrow, wide = outputs
        assert narrow == wide
        assert narrow.exit_code == 0
        assert narrow.stdout.startswith("usage: cogseq ")
        assert max(map(len, narrow.stdout.splitlines())) <= 80


class TestValidate:
    def test_fixture_is_ok(self):
        result = run(["validate", "checkin-full"])
        assert result.exit_code == 0
        assert "OK: 16 tasks, 1 variant groups, 28 precedence edges" \
            in result.stdout

    def test_cycle_fails_with_kinds(self, tmp_path):
        doc = tmp_path / "cyclic.json"
        doc.write_text(CYCLIC_DOC, encoding="utf-8")
        result = run(["validate", str(doc)])
        assert result.exit_code == 1
        assert "[cycle]" in result.stdout

    def test_missing_file(self):
        result = run(["validate", "ghost.json"])
        assert result.exit_code == 1
        assert "error:" in result.stderr

    @pytest.mark.parametrize("value", [5, None])
    def test_variant_groups_not_array(self, tmp_path, value):
        doc = {
            "tasks": [{"code": "A", "name": "A", "resource": "VWM",
                       "modality": "t", "voluntary": False,
                       "familiarity": 3, "complexity": 3}],
            "variant_groups": value,
        }
        path = tmp_path / "groups.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        result = run(["validate", str(path)])
        # An uncaught exception would escape run() and fail the test; a
        # clean domain error is exit 1 with the message on stderr.
        assert result.exit_code == 1
        assert "error:" in result.stderr
        assert "variant_groups" in result.stderr

    def test_blank_task_code_names_file_and_field(self, tmp_path):
        doc = json.loads(CYCLIC_DOC)
        doc["tasks"][1]["code"] = " "
        path = tmp_path / "blank.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        result = run(["validate", str(path)])
        assert result.exit_code == 1
        assert f"error: {path}: tasks[1].code: " in result.stderr

    def test_prints_the_report_summary(self, tmp_path):
        doc = json.loads(CYCLIC_DOC)
        doc["tasks"][0]["familiarity"] = 9
        doc["tasks"][1]["complexity"] = 0
        doc["tasks"][1]["prerequisites"].append("Q")
        path = tmp_path / "faults.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        report = cogseq.validate_workflow(cogseq.load_document(path).workflow)
        assert [v.kind for v in report] == [
            "out-of-range", "out-of-range", "unknown-prerequisite", "cycle"]
        assert run(["validate", str(path)]) == (1, report.summary() + "\n", "")


class TestSolve:
    def test_table_output(self):
        result = run([
            "solve", "checkin-full", "--variant", "AUTH=AUPS",
        ])
        assert result.exit_code == 0
        assert "objective: minimize" in result.stdout
        assert "5.34" in result.stdout

    def test_json_output(self):
        result = run([
            "solve", "checkin-full", "--variant", "AUTH=AUPS",
            "--format", "json",
        ])
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        assert payload["objective"] == "minimize"
        sol = payload["solutions"][0]
        assert sol["rank"] == 1
        assert sol["total_thousandths"] == 5340
        assert sol["total"] == "5.34"
        assert len(sol["ordering"]) == 13
        assert len(sol["transitions"]) == 12
        assert "stats" not in payload and "elapsed" not in result.stdout

    def test_unresolved_group_mentions_compare(self):
        result = run(["solve", "checkin-full"])
        assert result.exit_code == 1
        assert "compare-variants" in result.stderr

    def test_unknown_member(self):
        result = run([
            "solve", "checkin-full", "--variant", "AUTH=NOPE",
        ])
        assert result.exit_code == 1
        assert "error:" in result.stderr

    def test_malformed_variant_is_usage_error(self):
        result = run([
            "solve", "checkin-full", "--variant", "AUTH",
        ])
        assert result.exit_code == 2
        assert "GROUP=MEMBER" in result.stderr

    def test_repeated_variant_group_is_usage_error(self):
        result = run([
            "solve", "checkin-full", "--variant", "AUTH=AUPS",
            "--variant", " AUTH =AUPW",
        ])
        assert result.exit_code == 2
        assert "variant group 'AUTH' given twice" in result.stderr

    def test_unknown_option(self):
        result = run(["solve", "checkin-full", "--frobnicate"])
        assert result.exit_code == 2

    def test_unknown_subcommand(self):
        result = run(["transmogrify"])
        assert result.exit_code == 2

    def test_objective_max_dominates_min(self):
        args = ["solve", "checkin-validation", "--format", "json"]
        low = json.loads(run(args).stdout)
        high = json.loads(run(args + ["--objective", "max"]).stdout)
        assert high["solutions"][0]["total_thousandths"] > \
            low["solutions"][0]["total_thousandths"]

    def test_backend_flag_rejected(self):
        result = run(["solve", "checkin-validation",
                      "--backend", "exhaustive"])
        assert result.exit_code == 2

    def test_k_returns_ranked_solutions(self):
        result = run([
            "solve", "checkin-validation", "--k", "3", "--format", "json",
        ])
        payload = json.loads(result.stdout)
        totals = [s["total_thousandths"] for s in payload["solutions"]]
        assert len(totals) == 3
        assert totals == sorted(totals)
        assert [s["rank"] for s in payload["solutions"]] == [1, 2, 3]

    def test_search_budget_is_domain_error(self, tmp_path,
                                           monkeypatch):
        monkeypatch.setattr("cogseq._search.MAX_IDEALS", 100)
        # Distinct modalities: identical tasks would be twins, 11 ideals.
        doc = {"tasks": [
            {"code": f"T{i}", "name": f"T{i}", "resource": "VWM",
             "modality": f"m{i}", "voluntary": False, "familiarity": 3,
             "complexity": 3}
            for i in range(10)
        ]}
        path = tmp_path / "antichain.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        result = run(["solve", str(path)])
        assert result.exit_code == 1
        assert "error:" in result.stderr
        assert "order ideals" in result.stderr

    @pytest.mark.parametrize("command", [
        ["solve", "checkin-validation"],
        ["compare-variants", "checkin-full"],
    ], ids=["solve", "compare-variants"])
    def test_workers_flag_rejected(self, command):
        result = run(command + ["--workers", "4"])
        assert result.exit_code == 2
        assert "--workers" in result.stderr


class TestCostModelSelection:
    def test_literal_differs_from_calibrated(self):
        base = ["solve", "checkin-full", "--variant", "AUTH=AUPI",
                "--format", "json"]
        calibrated = json.loads(run(base).stdout)
        literal = json.loads(run(base + ["--cost-model", "literal"]).stdout)
        assert calibrated["solutions"][0]["total_thousandths"] != \
            literal["solutions"][0]["total_thousandths"]

    def test_cost_model_file(self, tmp_path):
        model_file = tmp_path / "model.json"
        model_file.write_text(json.dumps({"rules_enabled": False}),
                              encoding="utf-8")
        result = run(["show-model", "--cost-model", str(model_file)])
        assert result.exit_code == 0
        assert "rules: disabled" in result.stdout

    def test_environment_variable_is_ignored(self, monkeypatch):
        # --cost-model is the only way to choose a model.
        monkeypatch.setenv("COGSEQ_COST_MODEL", "literal")
        result = run(["show-model"])
        assert result.exit_code == 0
        assert "RecentPractice" not in result.stdout
        assert "Familiarity: 0.42" in result.stdout

    def test_default_is_calibrated(self):
        result = run(["show-model"])
        assert result.exit_code == 0
        assert "RecentPractice" not in result.stdout
        assert "Familiarity: 0.42" in result.stdout
        assert "recent-practice scope: adjacent-only" in result.stdout

    def test_every_rule_withheld_prints_disabled(self, tmp_path):
        model_file = tmp_path / "model.json"
        model_file.write_text(json.dumps({"rules": {
            "Modality": None, "RecentPractice": None, "Familiarity": None,
            "VoluntaryComplexityDrop": None,
            "InvoluntaryComplexityDrop": None,
        }}), encoding="utf-8")
        result = run(["show-model", "--cost-model", str(model_file)])
        assert result.exit_code == 0
        assert result.stdout.splitlines()[-2:] == [
            "rules: disabled", "recent-practice scope: adjacent-only"]

    def test_rounding_rule_value_is_refused(self, tmp_path):
        # Decimal's default 28-digit precision would read it as 0.16.
        value = "0.1600000000000000000000000000001"
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"rules": {"Modality": value}}),
                        encoding="utf-8")
        assert run(["show-model", "--cost-model", str(path)]) == (
            1, "", f"error: {path}: rules.Modality: effect size {value!r} "
                   "has more than 3 fractional digits\n")

    @pytest.mark.parametrize("literal,shown", [
        ("1e-400", "1E-400"),
        ("0.16000000000000000001", "0.16000000000000000001"),
    ])
    def test_number_literal_is_not_rounded(self, tmp_path, literal, shown):
        # json's float parser would read them as 0 and 0.16.
        path = tmp_path / "model.json"
        path.write_text(f'{{"rules": {{"Modality": {literal}}}}}',
                        encoding="utf-8")
        assert run(["show-model", "--cost-model", str(path)]) == (
            1, "", f"error: {path}: rules.Modality: effect size {shown} "
                   "has more than 3 fractional digits\n")

    @pytest.mark.parametrize("doc", [
        {"rules": {"Familiarity": [0, [4, 2], -2]}},
        {"matrix": [[0, [0, [4, 2], -2], 0, 0, 0]] + [[0] * 5] * 4},
    ], ids=["rule", "matrix"])
    @pytest.mark.parametrize("command", [
        ["show-model"], ["solve", "checkin-validation"],
    ], ids=["show-model", "solve"])
    def test_non_numeric_effect_size(self, tmp_path, doc, command):
        model_file = tmp_path / "model.json"
        model_file.write_text(json.dumps(doc), encoding="utf-8")
        result = run(command + ["--cost-model", str(model_file)])
        assert result.exit_code == 1
        assert "error:" in result.stderr
        assert "effect size must be numeric, got list" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("doc", [
        {"rules": {"Familiarity": "1e5000"}},
        {"matrix": [[0, 2e6, 0, 0, 0]] + [[0] * 5] * 4},
    ], ids=["rule", "matrix"])
    @pytest.mark.parametrize("command", [
        ["show-model"], ["solve", "checkin-validation"],
    ], ids=["show-model", "solve"])
    def test_effect_size_above_maximum(self, tmp_path, doc, command):
        model_file = tmp_path / "model.json"
        model_file.write_text(json.dumps(doc), encoding="utf-8")
        result = run(command + ["--cost-model", str(model_file)])
        assert result.exit_code == 1
        assert "error:" in result.stderr
        assert "exceeds the maximum effect size" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("value", ["\u0661\u0662", "\uff11.\uff15"],
                             ids=["arabic-indic", "full-width"])
    @pytest.mark.parametrize("command", [
        ["show-model"], ["solve", "checkin-validation"],
    ], ids=["show-model", "solve"])
    def test_non_ascii_digits_rejected(self, tmp_path, value, command):
        # Decimal reads both as numbers (12 and 1.5).
        model_file = tmp_path / "model.json"
        model_file.write_text(json.dumps({"rules": {"Familiarity": value}}),
                              encoding="utf-8")
        result = run(command + ["--cost-model", str(model_file)])
        assert result.exit_code == 1
        assert "error:" in result.stderr
        assert "invalid effect size" in result.stderr
        assert "Traceback" not in result.stderr


class TestUnreadableInput:
    """A file that cannot be decoded is a domain error, not a traceback."""

    COMMANDS = {
        "validate": ["validate", "{path}"],
        "cost-model": ["show-model", "--cost-model", "{path}"],
        "consensus": ["consensus", "{path}"],
        "solve": ["solve", "{path}"],
        "export-dot": ["export-dot", "{path}"],
        "compare-variants": ["compare-variants", "{path}"],
    }

    def error_output(self, command, path):
        result = run([arg.format(path=path) for arg in self.COMMANDS[command]])
        assert result.exit_code == 1
        assert "error:" in result.stderr
        assert "Traceback" not in result.stderr
        return result.stderr

    @pytest.mark.parametrize("command", ["validate", "cost-model",
                                         "consensus"])
    def test_non_utf8_file(self, tmp_path, command):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe\x00bad")
        assert "not UTF-8 text" in self.error_output(command, path)

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_over_long_name(self, command):
        # The system refuses the name itself: one error line, as for a
        # missing file.
        message = self.error_output(command, LONG_NAME)
        assert message.startswith("error: ")
        assert message.count("\n") == 1

    @pytest.mark.parametrize("command", ["cost-model", "consensus"])
    def test_over_long_name_is_named_once(self, command):
        # The system's reason is given without its copy of the name.
        message = self.error_output(command, LONG_NAME)
        assert len(message.encode()) <= len(LONG_NAME) + 40

    @pytest.mark.parametrize("command,name,reason", [
        ("validate", "{dir}", "Is a directory"),
        ("cost-model", "{dir}", "Is a directory"),
        ("consensus", "{dir}/nothere.txt", "No such file or directory"),
    ], ids=["validate-dir", "cost-model-dir", "consensus-missing"])
    def test_unopenable_file(self, tmp_path, command, name, reason):
        path = name.format(dir=tmp_path)
        result = run([arg.format(path=path) for arg in self.COMMANDS[command]])
        assert result == (1, "", f"error: {path}: {reason}\n")

    @pytest.mark.parametrize("command", ["validate", "cost-model"])
    def test_deeply_nested_json(self, tmp_path, command):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000, encoding="utf-8")
        assert "nested too deeply" in self.error_output(command, path)

    @pytest.mark.parametrize("command", ["validate", "solve", "export-dot"])
    def test_lone_surrogate_in_code(self, tmp_path, command):
        # json.loads accepts the escape "\ud800"; no output can encode it.
        path = tmp_path / "surrogate.json"
        path.write_text(json.dumps({"tasks": [
            {"code": "A\ud800", "name": "A", "resource": "VWM",
             "modality": "t", "voluntary": False, "familiarity": 3,
             "complexity": 3},
        ]}), encoding="utf-8")
        message = self.error_output(command, path)
        assert "tasks[0].code: not encodable as UTF-8: 'A\\ud800'" in message


class TestControlCharacters:
    """A key the document holds as written, control characters and all,
    stays on the one error line, escaped as ``repr`` writes it."""

    TASK = {"code": "A", "name": "A", "resource": "VWM", "modality": "t",
            "voluntary": False, "familiarity": 3, "complexity": 3}

    @pytest.mark.parametrize("args,document,line", [
        (["validate"], {"tasks": [], "bad\nkey\x1b[31m": 1},
         "unknown keys in document: bad\\nkey\\x1b[31m"),
        (["show-model", "--cost-model"], {"rules": {"Mod\x00ality": 1}},
         "rules.Mod\\x00ality: unknown rule 'Mod\\x00ality' (expected one "
         "of: Modality, RecentPractice, Familiarity, VoluntaryComplexityDrop, "
         "InvoluntaryComplexityDrop)"),
        (["validate"], {"tasks": [dict(TASK, **{"pre\nreq": []})]},
         "unknown keys in tasks[0]: pre\\nreq"),
        (["validate"], {"tasks": [TASK], "known_orderings": {"na\nme": 5}},
         "known_orderings.na\\nme: ordering must be an array of codes"),
    ], ids=["document-key", "rule-name", "task-key", "ordering-name"])
    def test_error_is_one_line(self, tmp_path, args, document, line):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        assert run([*args, str(path)]) == (1, "", f"error: {path}: {line}\n")

    @pytest.mark.parametrize("command", ["validate", "solve", "export-dot"])
    def test_code_must_be_printable(self, tmp_path, command):
        # The commands write codes as data, so a code that holds a control
        # character is refused where the document is read.
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"tasks": [
            dict(self.TASK, code="A\x1b[31m"),
            dict(self.TASK, code="B\nC", prerequisites=["A\x1b[31m"]),
        ]}), encoding="utf-8")
        assert run([command, str(path)]) == (
            1, "", f"error: {path}: tasks[0].code: code must be printable, "
                   "got 'A\\x1b[31m'\n")

    ONLY_IN = ("error: orderings cover different task sets (only in first: "
               "A\\x1b[31m, B; only in second: A, C)\n")

    def test_distance_refusal_is_one_line(self):
        assert run(["distance", "--a", "A\x1b[31m,B", "--b", "A,C"]) == (
            1, "", self.ONLY_IN)

    def test_consensus_refusal_is_one_line(self, tmp_path):
        path = tmp_path / "orderings.txt"
        path.write_text("A\x1b[31m, B\nA, C\n", encoding="utf-8")
        assert run(["consensus", str(path)]) == (1, "", self.ONLY_IN)


class TestHashSeed:
    """Output does not depend on string hashing: a process run under other
    ``PYTHONHASHSEED`` values writes the same bytes and exits the same."""

    TASK = TestControlCharacters.TASK

    def test_same_bytes_under_every_seed(self, tmp_path):
        two_groups = tmp_path / "two-groups.json"
        # Four members a group: an order that followed string hashing would
        # differ between the seeds.
        two_groups.write_text(variant_document(
            {**dict.fromkeys("ABCDEFWX", ()), "Z": ("G", "H")},
            {"G": ("A", "B", "C", "D"), "H": ("E", "F", "W", "X")}),
            encoding="utf-8")
        faulty = tmp_path / "faulty.json"
        faulty.write_text(json.dumps({"tasks": [
            dict(self.TASK, code="A", prerequisites=["C"]),
            dict(self.TASK, code="B", prerequisites=["A"]),
            dict(self.TASK, code="C", prerequisites=["B"]),
            dict(self.TASK, code="D", prerequisites=["Q", "R"]),
        ]}), encoding="utf-8")
        for status, args in [
            (0, ["solve", "checkin-full", "--variant", "AUTH=AUPW", "--k",
                 "10", "--objective", "max"]),
            (0, ["compare-variants", "checkin-full", "--format", "json"]),
            (0, ["export-dot", str(two_groups)]),
            (1, ["validate", str(faulty)]),
        ]:
            runs = {self.process(args, seed) for seed in ("0", "1", "2")}
            assert len(runs) == 1, (args, runs)
            assert next(iter(runs))[0] == status, (args, runs)

    @staticmethod
    def process(args, seed: str) -> tuple[int, str, str]:
        src = Path(cogseq.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "cogseq.cli", *args],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src),
                 "PYTHONHASHSEED": seed})
        return proc.returncode, proc.stdout, proc.stderr


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

    def test_output_matches_byte_for_byte(self):
        for command, output in self.examples():
            result = run(shlex.split(command)[1:])
            assert result.exit_code == 0, command
            assert result.stdout == output, command

    def test_python_api_example_runs(self, capsys):
        text = (Path(__file__).parents[1] / "README.md").read_text(
            encoding="utf-8")
        (code,) = re.findall(r"```python\n(.*?)```", text, re.DOTALL)
        exec(code, {})
        assert capsys.readouterr().out.startswith("5760 ('LANG', 'AIRL'")


class TestCompareVariants:
    def test_table(self):
        result = run(["compare-variants", "checkin-full"])
        assert result.exit_code == 0
        assert "group AUTH:" in result.stdout
        assert "delta (dearest - cheapest): 1.503" in result.stdout
        lines = [l for l in result.stdout.splitlines()
                 if l.startswith("  ") and "delta" not in l]
        assert len(lines) == 4

    def test_json_ranks_members(self):
        result = run([
            "compare-variants", "checkin-full", "--format", "json",
        ])
        payload = json.loads(result.stdout)
        (comp,) = payload["comparisons"]
        assert comp["group"] == "AUTH"
        members = [row["member"] for row in comp["rows"]]
        totals = [row["total_thousandths"] for row in comp["rows"]]
        assert members == ["AUPS", "AUCC", "AUPI", "AUPW"]
        assert totals == sorted(totals)
        assert comp["delta_thousandths"] == totals[-1] - totals[0]

    def test_concrete_workflow_is_domain_error(self):
        result = run(["compare-variants", "checkin-validation"])
        assert result.exit_code == 1
        assert "use solve" in result.stderr

    def test_several_groups_need_all_but_one_resolved(self, tmp_path):
        task = {"name": "T", "resource": "VWM", "modality": "t",
                "voluntary": False, "familiarity": 3, "complexity": 3}
        path = tmp_path / "two-groups.json"
        path.write_text(json.dumps({
            "tasks": [dict(task, code=code) for code in ("A1", "A2", "B1")]
            + [dict(task, code="B2", resource="PM")],
            "variant_groups": [{"code": "GA", "members": ["A1", "A2"]},
                               {"code": "GB", "members": ["B1", "B2"]}],
        }), encoding="utf-8")
        result = run(["compare-variants", str(path)])
        assert result.exit_code == 1
        assert ("error: several variant groups are unresolved (GA, GB); "
                "compare_variants sweeps one: resolve the others with "
                "instantiate_variant or --variant GROUP=MEMBER"
                in result.stderr)
        result = run(["compare-variants", str(path), "--variant", "GB=B2"])
        assert result.exit_code == 0
        assert result.stdout.startswith("group GA:\n")


def variant_document(tasks, groups) -> str:
    """A workflow document: ``tasks`` maps each code to its prerequisites
    and ``groups`` each group code to its members."""
    task = {"name": "T", "resource": "VWM", "modality": "t",
            "voluntary": False, "familiarity": 3, "complexity": 3}
    return json.dumps({
        "tasks": [dict(task, code=code, prerequisites=list(pres))
                  for code, pres in tasks.items()],
        "variant_groups": [{"code": code, "members": list(members)}
                           for code, members in groups.items()],
    })


# Documents that resolution must refuse rather than drop a precedence or
# keep a task in the group's place.
RESOLUTION_DOCS = {
    # Z requires member X directly; resolving to Y would lose X -> Z.
    "D1": variant_document(
        {"A": (), "X": ("A",), "Y": ("A",), "Z": ("X",)}, {"G": ("X", "Y")}),
    # One member requires another.
    "D2": variant_document({"A": (), "X": ("Y",), "Y": ()},
                           {"G": ("X", "Y")}),
    # X is a member of two groups; resolving either drops X from the other
    # or keeps it in both slots.
    "D3": variant_document({"A": (), "X": (), "Y": (), "Z": ("G", "H")},
                           {"G": ("X", "Y"), "H": ("X", "A")}),
    # The group code is also a task code, so task G would stay.
    "D4": variant_document({"A": (), "X": (), "Y": (), "G": ()},
                           {"G": ("X", "Y")}),
    # Member Y is no task, so resolving to it would keep no task in its place.
    "D5": variant_document({"A": (), "X": ()}, {"G": ("X", "Y")}),
}
Z_REQUIRES_X = "task 'Z' requires 'X' directly; use its group 'G' instead"
X_REQUIRES_Y = "task 'X' requires 'Y' directly; use its group 'G' instead"
G_IS_A_TASK = "variant group 'G' collides with a task code"
X_IN_G_AND_H = "task 'X' belongs to variant groups 'G' and 'H'"
Y_IS_NO_TASK = "variant group 'G' lists unknown member 'Y'"


class TestVariantResolution:
    """Resolution refuses, with an error line and exit 1, what validate
    reports, in validate's words."""

    @pytest.mark.parametrize("doc,args,message", [
        ("D1", ["solve", "--variant", "G=Y"], Z_REQUIRES_X),
        ("D1", ["solve", "--variant", "G=X"], Z_REQUIRES_X),
        ("D1", ["compare-variants"], Z_REQUIRES_X),
        ("D2", ["solve", "--variant", "G=X"], X_REQUIRES_Y),
        ("D2", ["solve", "--variant", "G=Y"], X_REQUIRES_Y),
        ("D2", ["compare-variants"], X_REQUIRES_Y),
        ("D3", ["solve", "--variant", "G=X", "--variant", "H=A"],
         X_IN_G_AND_H),
        ("D3", ["solve", "--variant", "H=A", "--variant", "G=X"],
         X_IN_G_AND_H),
        ("D3", ["solve", "--variant", "G=Y", "--variant", "H=A"],
         X_IN_G_AND_H),
        ("D3", ["compare-variants", "--variant", "G=X"], X_IN_G_AND_H),
        ("D3", ["compare-variants", "--variant", "H=A"], X_IN_G_AND_H),
        ("D4", ["solve", "--variant", "G=X"], G_IS_A_TASK),
        ("D4", ["compare-variants"], G_IS_A_TASK),
        ("D5", ["solve", "--variant", "G=Y"], Y_IS_NO_TASK),
        ("D5", ["compare-variants"], Y_IS_NO_TASK),
    ], ids=lambda arg: " ".join(arg) if isinstance(arg, list) else None)
    def test_refused(self, tmp_path, doc, args, message):
        path = tmp_path / f"{doc}.json"
        path.write_text(RESOLUTION_DOCS[doc], encoding="utf-8")
        result = run([args[0], str(path), *args[1:]])
        assert result == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("doc,line", [
        ("D1", f"[direct-member-reference] {Z_REQUIRES_X}"),
        ("D2", f"[direct-member-reference] {X_REQUIRES_Y}"),
        ("D3", f"[shared-member] {X_IN_G_AND_H}"),
        ("D4", f"[group-code-collision] {G_IS_A_TASK}"),
        ("D5", f"[unknown-member] {Y_IS_NO_TASK}"),
    ])
    def test_validate_reports_the_same_fault(self, tmp_path, doc, line):
        path = tmp_path / f"{doc}.json"
        path.write_text(RESOLUTION_DOCS[doc], encoding="utf-8")
        assert run(["validate", str(path)]) == (1, line + "\n", "")


class TestExplain:
    def test_known_ordering_by_name(self):
        result = run([
            "explain", "checkin-validation", "--ordering", "paper_pessimal",
        ])
        assert result.exit_code == 0
        assert "total:" in result.stdout

    def test_explicit_codes(self):
        result = run([
            "explain", "checkin-validation",
            "--ordering", "AIRL,LIQH,BKRF,FRBN,STSO,DIMH,EXBG,CFRM,PRBP,PRLT",
            "--format", "json",
        ])
        assert result.exit_code == 0
        payload = json.loads(result.stdout)
        assert payload["ordering"][0] == "AIRL"
        assert payload["total_thousandths"] == sum(
            t["total_thousandths"] for t in payload["transitions"])

    def test_infeasible_ordering(self):
        result = run([
            "explain", "checkin-validation",
            "--ordering", "BKRF,AIRL,FRBN,LIQH,DIMH,STSO,EXBG,CFRM,PRLT,PRBP",
        ])
        assert result.exit_code == 1
        assert "must precede" in result.stderr

    def test_unknown_prerequisite_is_domain_error(self, tmp_path):
        doc = tmp_path / "unknown.json"
        doc.write_text(json.dumps({"tasks": [
            {"code": "A", "name": "A", "resource": "VWM", "modality": "t",
             "voluntary": False, "familiarity": 3, "complexity": 3,
             "prerequisites": ["Z"]},
            {"code": "B", "name": "B", "resource": "PM", "modality": "t",
             "voluntary": False, "familiarity": 3, "complexity": 3},
        ]}), encoding="utf-8")
        result = run(["explain", str(doc), "--ordering", "A,B"])
        assert result.exit_code == 1
        assert "error:" in result.stderr
        assert "requires unknown code 'Z'" in result.stderr
        assert "Traceback" not in result.stderr

    def test_explain_agrees_with_solve(self):
        solved = json.loads(run([
            "solve", "checkin-validation", "--format", "json",
        ]).stdout)
        ordering = ",".join(solved["solutions"][0]["ordering"])
        explained = json.loads(run([
            "explain", "checkin-validation", "--ordering", ordering,
            "--format", "json",
        ]).stdout)
        assert explained["total_thousandths"] == \
            solved["solutions"][0]["total_thousandths"]

    def test_explain_prints_a_solution_as_solve_does(self):
        variant = ["checkin-full", "--variant", "AUTH=AUPS"]
        solved = json.loads(run(["solve", *variant, "--k", "3",
                                 "--format", "json"]).stdout)
        assert len(solved["solutions"]) == 3
        for solution in solved["solutions"]:
            del solution["rank"]
            explained = run(["explain", *variant, "--format", "json",
                             "--ordering", ",".join(solution["ordering"])])
            assert explained == (0, json.dumps(solution, indent=2) + "\n", "")


    @pytest.mark.parametrize("args", [
        ["checkin-validation", "--ordering", "paper_pessimal"],
        ["checkin-validation", "--ordering", "paper_optimal"],
        ["checkin-validation", "--ordering", "paper_expert_consensus"],
        ["checkin-full", "--variant", "AUTH=AUPS",
         "--ordering", "paper_optimal_aups"],
    ], ids=lambda args: args[-1])
    def test_table_running_column_sums_the_steps(self, args):
        result = run(["explain", *args])
        assert result.exit_code == 0
        lines = result.stdout.splitlines()
        codes = lines[0].split()[1:]
        assert lines[1].split() == ["from", "to", "resource", "step",
                                    "running", "rules"]
        rows = [line.split() for line in lines[2:-1]]
        assert [(row[0], row[1]) for row in rows] == list(zip(codes,
                                                              codes[1:]))
        running = Decimal(0)
        for row in rows:
            running += Decimal(row[3])
            assert Decimal(row[4]) == running
        assert lines[-1] == f"total: {rows[-1][4]}"


class TestDistance:
    def test_zero(self):
        result = run(["distance", "--a", "A,B,C", "--b", "A,B,C"])
        assert result.stdout.strip() == "0.0000"

    def test_adjacent_swap(self):
        result = run(["distance", "--a", "A,B,C", "--b", "A,C,B"])
        assert result.stdout.strip() == "1.4142"

    def test_mismatched_sets(self):
        result = run(["distance", "--a", "A,B", "--b", "A,C"])
        assert result.exit_code == 1
        assert "different task sets" in result.stderr


class TestConsensus:
    def test_file(self, tmp_path):
        votes = tmp_path / "votes.txt"
        votes.write_text("A,B,C\nA,B,C\nB,A,C\n", encoding="utf-8")
        result = run(["consensus", str(votes)])
        assert result.exit_code == 0
        assert result.stdout.strip() == "A, B, C"

    def test_empty_file(self, tmp_path):
        votes = tmp_path / "votes.txt"
        votes.write_text("# nothing here\n", encoding="utf-8")
        result = run(["consensus", str(votes)])
        assert result.exit_code == 1


class TestExportDot:
    def test_full_fixture(self):
        result = run(["export-dot", "checkin-full"])
        assert result.exit_code == 0
        assert result.stdout.startswith("digraph workflow {")
        assert result.stdout.count("->") == 28
        assert result.stdout.endswith("}\n")

    def test_variant_resolution_drops_group_node(self):
        result = run([
            "export-dot", "checkin-full", "--variant", "AUTH=AUCC",
        ])
        assert result.exit_code == 0
        assert "AUTH" not in result.stdout
        assert '"AUCC"' in result.stdout


class TestImports:
    def test_solve_loads_no_module_it_does_not_use(self):
        # Only distance, consensus and the WCSP helpers use these modules,
        # and only cost-model documents need decimal.
        src = Path(cogseq.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "cogseq.cli", "solve",
             "checkin-full", "--variant", "AUTH=AUPS", "--k", "3"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("objective: minimize   solutions: 3\n")
        imported = {line.rsplit("|", 1)[1].strip()
                    for line in proc.stderr.splitlines()
                    if line.startswith("import time:")}
        assert "cogseq.solver" in imported
        assert not imported & {"cogseq.wcsp", "cogseq.analysis", "decimal"}

    @pytest.mark.parametrize("module,unwanted", [
        ("cogseq", {"dataclasses", "inspect"}),
        ("cogseq.cli", {"dataclasses", "inspect", "click"}),
    ])
    def test_import_generates_no_dataclass(self, module, unwanted):
        # Every record is a named tuple; dataclasses costs milliseconds to
        # import and more per class, in every CLI process.  The command line
        # is argparse: click, and the inspect it imports, cost tens of
        # milliseconds more.
        src = Path(cogseq.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; before = set(sys.modules); import " + module
             + "; print(*sorted(set(sys.modules) - before))"],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        added = set(proc.stdout.split())
        assert module in added
        assert not added & unwanted

    def test_every_exported_name_resolves(self):
        for name in cogseq.__all__:
            assert getattr(cogseq, name) is not None, name
        with pytest.raises(AttributeError, match="no_such_name"):
            cogseq.no_such_name


class TestCliFuzz:
    """A workflow document with any JSON value at any path ends every
    command with exit 0, 1 or 2, never with a traceback."""

    @given(path=st.sampled_from(list(json_paths(FUZZ_WORKFLOW))),
           value=json_values,
           variant=st.sampled_from([(), ("--variant", "G=C"),
                                    ("--variant", "G=D")]),
           by_name=st.booleans())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_no_traceback(self, tmp_path, path, value, variant,
                          by_name):
        document = substituted(FUZZ_WORKFLOW, path, value)
        doc = tmp_path / "fuzzed.json"
        doc.write_text(json.dumps(document), encoding="utf-8")
        tasks = document.get("tasks") if isinstance(document, dict) else None
        codes = [task.get("code") for task in tasks if isinstance(task, dict)
                 ] if isinstance(tasks, list) else []
        # The known ordering "ref", or the document's own task codes.
        ordering = "ref" if by_name else " ".join(
            code for code in codes if isinstance(code, str)) or "A"
        for args in (["validate", str(doc)],
                     ["solve", str(doc), *variant, "--format", "json"],
                     ["explain", str(doc), *variant, "--ordering", ordering]):
            result = run(args)
            assert result.exit_code in (0, 1, 2), (args, result.stdout)


#: The grammar the command line accepts: each command's required arguments
#: (upper case for a positional) and its options.
GRAMMAR = {
    "validate": (("WORKFLOW",), ()),
    "solve": (("WORKFLOW",), ("--variant", "--cost-model", "--format",
                              "--objective", "--k")),
    "compare-variants": (("WORKFLOW",), ("--variant", "--cost-model",
                                         "--format")),
    "explain": (("WORKFLOW", "--ordering"), ("--variant", "--cost-model",
                                            "--format")),
    "distance": (("--a", "--b"), ()),
    "consensus": (("FILE",), ()),
    "export-dot": (("WORKFLOW",), ("--variant",)),
    "show-model": ((), ("--cost-model",)),
}

#: Files written by ``TestGrammarFuzz.fuzz_dir`` (``{dir}`` stands for it),
#: the directory itself, a missing file, and names no system opens.
FUZZ_FILES = ["{dir}/fuzz.json", "{dir}/model.json", "{dir}/cyclic.json",
              "{dir}/not-utf8.json", "{dir}/malformed.json",
              "{dir}/empty.json", "{dir}/unknown-key.json",
              "{dir}/orderings.txt", "{dir}/missing.json", "{dir}",
              LONG_NAME, "bad\0name"]

#: The values each argument or option is drawn from, good and bad.
FUZZ_VALUES = {
    "WORKFLOW": ["checkin-full", "checkin-validation.json", *FUZZ_FILES],
    "FILE": FUZZ_FILES,
    "--variant": ["AUTH=AUPS", "AUTH=AUCC", "AUTH=NOPE", "G=C", "G=D", "G",
                  "=C", "G=C=D"],
    "--cost-model": ["calibrated", "literal", *FUZZ_FILES],
    "--format": ["table", "json", "yaml"],
    "--objective": ["min", "max", "both"],
    "--k": ["1", "3", "0", "-1", "two", "1.5"],
    "--ordering": ["ref", "paper_optimal", "A,C,B", "A B", "", "AIRL LIQH"],
    "--a": ["A,B,C", "C B A", "A,B", ""],
    "--b": ["A,B,C", "C B A", "A,B", ""],
}


@st.composite
def argvs(draw):
    """An argv spelled from ``GRAMMAR``.  A required argument is left out
    one time in ten, the command's options appear at most once each, and
    one argv in five has a stray word: an argument of another command,
    ``--help`` or an unknown option.  Each option has a value from
    ``FUZZ_VALUES`` or none, and the words come in any order."""
    command = draw(st.sampled_from([*GRAMMAR, "transmogrify"]))
    required, options = GRAMMAR.get(command, ((), ()))
    names = [name for name in required if draw(st.integers(0, 9))]
    if options:
        names += draw(st.lists(st.sampled_from(options), unique=True))
    if not draw(st.integers(0, 4)):
        names.append(draw(st.sampled_from([*FUZZ_VALUES, "--help",
                                           "--nope"])))
    words = []
    for name in names:
        values = FUZZ_VALUES.get(name, [])
        if not name.startswith("--"):
            words.append([draw(st.sampled_from(values))])
            continue
        value = draw(st.sampled_from([*values, None]))
        words.append([name] if value is None else [name, value])
    return [command, *(word for group in draw(st.permutations(words))
                       for word in group)]


class TestGrammarFuzz:
    """Every argv the grammar spells, over the fixtures, bad and malformed
    files, a directory, an over-long name and bad option values, returns 0,
    1 or 2 from ``main``: nothing escapes it, and stderr holds no
    traceback."""

    @pytest.fixture(scope="class")
    def fuzz_dir(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("grammar")
        for name, text in {
            "fuzz.json": json.dumps(FUZZ_WORKFLOW),
            "model.json": json.dumps(FUZZ_COST_MODEL),
            "cyclic.json": CYCLIC_DOC,
            "malformed.json": '{"tasks": [',
            "empty.json": "",
            "unknown-key.json": '{"tasks": [], "steps": []}',
            "orderings.txt": "A, C, B\nB C A  # reversed\n",
        }.items():
            (root / name).write_text(text, encoding="utf-8")
        (root / "not-utf8.json").write_bytes(b"\xff\xfe\x00bad")
        return root

    @given(argv=argvs())
    @example(argv=["validate", LONG_NAME])
    @settings(max_examples=300, deadline=None)
    def test_every_argv_ends_with_a_status(self, fuzz_dir, argv):
        argv = [word.replace("{dir}", str(fuzz_dir)) for word in argv]
        try:
            result = run(argv)
        except (Exception, SystemExit) as exc:
            raise AssertionError(f"{exc!r} escaped main") from exc
        assert result.exit_code in (0, 1, 2)
        assert "Traceback" not in result.stderr
