"""Document parsing, fixtures, round trips, DOT export."""

from __future__ import annotations

import copy
import hashlib
import json
from functools import reduce
from operator import getitem

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogseq import (
    CostModel,
    DocumentError,
    Resource,
    Rule,
    Scope,
    export_dot,
    fixture_text,
    load_cost_model,
    load_document,
    parse_cost_model_document,
    parse_ordering_text,
    parse_resource,
    parse_workflow_document,
    read_orderings_file,
    resolve_workflow_path,
)


MINIMAL_TASK = {
    "code": "A", "name": "Alpha", "resource": "VWM", "modality": "touch",
    "voluntary": False, "familiarity": 3, "complexity": 3,
}


def make_doc(**overrides):
    doc = {"tasks": [dict(MINIMAL_TASK)]}
    doc.update(overrides)
    return doc


def matrix_with(cell):
    """A 5x5 zero matrix whose row 0, column 1 cell is ``cell``."""
    rows = [[0] * 5 for _ in range(5)]
    rows[0][1] = cell
    return rows


class TestFixtures:
    def test_full_checkin_shape(self, full_document):
        wf = full_document.workflow
        assert len(wf.tasks) == 16
        assert len(wf.variant_groups) == 1
        grp = wf.variant_groups[0]
        assert grp.code == "AUTH"
        assert grp.members == frozenset({"AUPS", "AUPI", "AUCC", "AUPW"})
        assert set(full_document.known_orderings) == {
            "paper_optimal_aups", "paper_optimal_aucc",
            "paper_optimal_aupi", "paper_optimal_aupw",
        }

    def test_validation_fixture_shape(self, validation_document):
        wf = validation_document.workflow
        assert len(wf.tasks) == 10
        assert wf.is_concrete
        assert set(validation_document.known_orderings) == {
            "paper_optimal", "paper_pessimal", "paper_expert_consensus",
        }

    def test_resource_labels_normalize(self, full_document):
        tasks = full_document.workflow.tasks
        assert tasks["LIQH"].resource is Resource.ER
        assert tasks["AIRL"].resource is Resource.ER
        assert tasks["BKRF"].resource is Resource.VWM

    def test_fixture_text_unknown_name(self):
        with pytest.raises(DocumentError, match="no bundled fixture"):
            fixture_text("nonexistent.json")

    def test_fixture_text_is_json(self):
        data = json.loads(fixture_text("checkin-validation.json"))
        assert "tasks" in data


class TestWorkflowParsing:
    def test_minimal_document(self):
        doc = parse_workflow_document(make_doc())
        assert doc.workflow.codes() == ("A",)
        assert doc.known_orderings == {}

    def test_unknown_top_level_key_strict(self):
        with pytest.raises(DocumentError, match="unknown keys"):
            parse_workflow_document(make_doc(banana=1))

    def test_unknown_task_key(self):
        task = dict(MINIMAL_TASK, color="red")
        with pytest.raises(DocumentError, match=r"tasks\[0\]"):
            parse_workflow_document({"tasks": [task]})

    def test_missing_task_keys_reported(self):
        task = {"code": "A", "name": "Alpha"}
        with pytest.raises(DocumentError, match="missing keys") as err:
            parse_workflow_document({"tasks": [task]})
        message = str(err.value)
        for key in ("resource", "modality", "voluntary", "familiarity",
                    "complexity"):
            assert key in message
        assert "prerequisites" not in message  # optional

    def test_bad_resource(self):
        task = dict(MINIMAL_TASK, resource="telepathy")
        with pytest.raises(DocumentError, match="unknown resource"):
            parse_workflow_document({"tasks": [task]})

    @pytest.mark.parametrize("value,expected", [
        ("Yes", True), ("no", False), ("TRUE", True), ("False", False),
        (True, True), (False, False),
    ])
    def test_voluntary_forms(self, value, expected):
        task = dict(MINIMAL_TASK, voluntary=value)
        doc = parse_workflow_document({"tasks": [task]})
        assert doc.workflow.tasks["A"].voluntary is expected

    def test_bad_voluntary(self):
        task = dict(MINIMAL_TASK, voluntary="maybe")
        with pytest.raises(DocumentError, match="voluntary"):
            parse_workflow_document({"tasks": [task]})

    def test_bad_int(self):
        task = dict(MINIMAL_TASK, familiarity="high")
        with pytest.raises(DocumentError, match="familiarity"):
            parse_workflow_document({"tasks": [task]})

    def test_bool_is_not_int(self):
        task = dict(MINIMAL_TASK, complexity=True)
        with pytest.raises(DocumentError, match="complexity"):
            parse_workflow_document({"tasks": [task]})

    def test_tasks_must_be_array(self):
        with pytest.raises(DocumentError, match="`tasks` must be an array"):
            parse_workflow_document({"tasks": {"A": {}}})

    def test_top_level_must_be_object(self):
        with pytest.raises(DocumentError, match="top level"):
            parse_workflow_document([MINIMAL_TASK])

    def test_duplicate_codes_rejected(self):
        with pytest.raises(DocumentError, match="duplicate task code"):
            parse_workflow_document(
                {"tasks": [dict(MINIMAL_TASK), dict(MINIMAL_TASK)]})

    def test_duplicate_group_codes_rejected(self):
        tasks = [dict(MINIMAL_TASK, code=code) for code in ("A", "B", "C")]
        groups = [{"code": "G", "members": ["A"]},
                  {"code": "G", "members": ["B"]}]
        with pytest.raises(DocumentError,
                           match="duplicate variant-group code 'G'"):
            parse_workflow_document(
                {"tasks": tasks, "variant_groups": groups})

    def test_known_ordering_with_unknown_code(self):
        doc = make_doc(known_orderings={"ref": ["A", "Z"]})
        with pytest.raises(DocumentError, match="unknown task 'Z'"):
            parse_workflow_document(doc)

    def test_known_ordering_must_be_array(self):
        doc = make_doc(known_orderings={"ref": "A"})
        with pytest.raises(DocumentError, match="array of codes"):
            parse_workflow_document(doc)

    @pytest.mark.parametrize("value", [5, None, "x", {"a": 1}])
    def test_variant_groups_must_be_array(self, value):
        with pytest.raises(DocumentError,
                           match="`variant_groups` must be an array") as err:
            parse_workflow_document(make_doc(variant_groups=value))
        assert err.value.field == "variant_groups"

    def test_variant_group_needs_members(self):
        doc = make_doc(variant_groups=[{"code": "G", "members": []}])
        with pytest.raises(DocumentError, match="non-empty array"):
            parse_workflow_document(doc)

    @pytest.mark.parametrize("doc,field", [
        ({"tasks": [dict(MINIMAL_TASK, code=" ")]}, "tasks[0].code"),
        (make_doc(variant_groups=[{"code": "", "members": ["A"]}]),
         "variant_groups[0].code"),
    ], ids=["task", "group"])
    def test_blank_code_names_its_field(self, doc, field):
        with pytest.raises(DocumentError, match="non-empty") as err:
            parse_workflow_document(doc, path="doc.json")
        assert (err.value.path, err.value.field) == ("doc.json", field)


class TestFileErrors:
    def test_missing_file(self, tmp_path):
        target = tmp_path / "nope.json"
        with pytest.raises(DocumentError, match="nope.json"):
            load_document(target)

    def test_malformed_json_reports_location(self, tmp_path):
        target = tmp_path / "bad.json"
        target.write_text('{"tasks": [\n  {"code": }\n]}', encoding="utf-8")
        with pytest.raises(DocumentError, match="line 2"):
            load_document(target)

    def test_overlong_integer_literal(self, tmp_path):
        # json refuses to convert integers of more than 4300 digits.
        target = tmp_path / "long.json"
        target.write_text('{"rules": {"Familiarity": 1' + "0" * 5000 + "}}",
                          encoding="utf-8")
        with pytest.raises(DocumentError, match="unreadable JSON"):
            load_cost_model(target)


class TestCostModelDocuments:
    def test_empty_document_is_published_model(self):
        assert parse_cost_model_document({}) == CostModel()

    def test_file_round_trip(self, tmp_path):
        target = tmp_path / "model.json"
        target.write_text("{}", encoding="utf-8")
        assert load_cost_model(target) == CostModel()

    def test_matrix_override_nested(self):
        rows = [[0 if i == j else "0.1" for j in range(5)] for i in range(5)]
        model = parse_cost_model_document({"matrix": rows})
        assert model.matrix[0][1] == 100
        assert model.matrix[2][2] == 0

    def test_matrix_wrong_shape(self):
        # A flat list of 25 is one of the wrong shapes: rows are the only
        # spelling.
        flat = [0 if i % 6 == 0 else 50 for i in range(25)]
        for matrix in ([[0, 1], [1, 0]], flat):
            with pytest.raises(DocumentError, match="5 rows of 5 values$"):
                parse_cost_model_document({"matrix": matrix})

    def test_matrix_too_precise(self):
        rows = [[0] * 5 for _ in range(5)]
        rows[0][1] = 0.1234
        with pytest.raises(DocumentError, match="fractional digits"):
            parse_cost_model_document({"matrix": rows})

    def test_matrix_nonzero_diagonal_rejected(self):
        rows = [[1] * 5 for _ in range(5)]
        with pytest.raises(DocumentError, match="diagonal"):
            parse_cost_model_document({"matrix": rows})

    def test_rule_cost_override(self):
        model = parse_cost_model_document({"rules": {"Modality": "0.5"}})
        assert model.rule_cost(Rule.MODALITY) == 500
        assert model.rule_cost(Rule.FAMILIARITY) == 420

    def test_null_disables_rule(self):
        model = parse_cost_model_document({"rules": {"RecentPractice": None}})
        assert model.rule_cost(Rule.RECENT_PRACTICE) is None
        assert model == CostModel.calibrated()

    def test_non_finite_rule_cost(self):
        # json accepts the NaN literal, so documents can carry one.
        data = json.loads('{"rules": {"Familiarity": NaN}}')
        with pytest.raises(DocumentError, match="finite"):
            parse_cost_model_document(data)

    @pytest.mark.parametrize("data,field", [
        ({"rules": {"Familiarity": [0, [4, 2], -2]}}, "rules.Familiarity"),
        ({"rules": {"Familiarity": {}}}, "rules.Familiarity"),
        ({"matrix": matrix_with([0, [4, 2], -2])}, "matrix"),
        ({"matrix": matrix_with(None)}, "matrix"),
        ({"matrix": matrix_with([1])}, "matrix"),
    ])
    def test_non_numeric_effect_size(self, data, field):
        # Decimal would read [0, [4, 2], -2] as (sign, digits, exponent).
        with pytest.raises(DocumentError, match="must be numeric") as err:
            parse_cost_model_document(data)
        assert err.value.field == field

    @pytest.mark.parametrize("data,field", [
        ({"rules": {"Familiarity": "1e5000"}}, "rules.Familiarity"),
        ({"rules": {"Modality": 1000000.001}}, "rules.Modality"),
        ({"matrix": matrix_with(1e7)}, "matrix"),
    ])
    def test_effect_size_above_maximum(self, data, field):
        with pytest.raises(DocumentError, match="exceeds the maximum") as err:
            parse_cost_model_document(data)
        assert err.value.field == field

    def test_effect_size_at_maximum(self):
        model = parse_cost_model_document({"rules": {"Familiarity": 1e6}})
        assert model.rule_cost(Rule.FAMILIARITY) == 10 ** 9

    def test_unknown_rule(self):
        with pytest.raises(DocumentError, match="unknown rule"):
            parse_cost_model_document({"rules": {"Sleepiness": 1}})

    @pytest.mark.parametrize("rules,field", [
        ({"Modality": 1, "modality": 2}, "rules.modality"),
        ({"RecentPractice": None, "recent_practice": 1},
         "rules.recent_practice"),
    ])
    def test_two_labels_for_one_rule(self, rules, field):
        with pytest.raises(DocumentError, match="both name rule") as err:
            parse_cost_model_document({"rules": rules})
        assert err.value.field == field

    def test_digit_grouping_rejected(self):
        # Decimal reads "1_000" as 1000 (PEP 515); documents hold plain
        # decimals.
        with pytest.raises(DocumentError, match="invalid effect size") as err:
            parse_cost_model_document({"rules": {"Familiarity": "1_000"}})
        assert err.value.field == "rules.Familiarity"

    def test_scope_override(self):
        model = parse_cost_model_document(
            {"recent_practice_scope": "full-history"})
        assert model.recent_practice_scope is Scope.FULL_HISTORY

    def test_bad_scope(self):
        with pytest.raises(DocumentError, match="unknown scope"):
            parse_cost_model_document({"recent_practice_scope": "psychic"})

    def test_rules_enabled_must_be_bool(self):
        with pytest.raises(DocumentError, match="true or false"):
            parse_cost_model_document({"rules_enabled": "yes"})

    def test_rules_disabled(self):
        model = parse_cost_model_document({"rules_enabled": False})
        assert model == CostModel(rules={})
        assert model.active_rule_costs() == {}

    def test_rules_disabled_overrides_rules(self):
        model = parse_cost_model_document(
            {"rules": {"Modality": 1}, "rules_enabled": False})
        assert model == CostModel(rules={})
        # The listed costs are still checked.
        with pytest.raises(DocumentError, match="negative"):
            parse_cost_model_document(
                {"rules": {"Modality": -1}, "rules_enabled": False})

    def test_rules_enabled_true_changes_nothing(self):
        model = parse_cost_model_document(
            {"rules": {"RecentPractice": None}, "rules_enabled": True})
        assert model == CostModel.calibrated()

    def test_unknown_key_strict(self):
        with pytest.raises(DocumentError, match="unknown keys"):
            parse_cost_model_document({"matrxi": []})


class TestResolution:
    def test_filesystem_path_wins(self, tmp_path):
        target = tmp_path / "checkin-full.json"  # shadows the fixture name
        target.write_text(fixture_text("checkin-validation.json"),
                          encoding="utf-8")
        doc = resolve_workflow_path(str(target))
        assert len(doc.workflow.tasks) == 10

    def test_fixture_name_fallback(self):
        assert len(resolve_workflow_path("checkin-full").workflow.tasks) == 16
        assert len(resolve_workflow_path("checkin-full.json").workflow.tasks) == 16

    def test_unresolvable_spec(self):
        with pytest.raises(DocumentError, match="bundled"):
            resolve_workflow_path("no-such-thing")


class TestOrderingText:
    @pytest.mark.parametrize("text,expected", [
        ("A,B,C", ("A", "B", "C")),
        ("A B C", ("A", "B", "C")),
        ("A, B,  C", ("A", "B", "C")),
        (" A ", ("A",)),
        ("", ()),
    ])
    def test_parse(self, text, expected):
        assert parse_ordering_text(text) == expected

    def test_orderings_file(self, tmp_path):
        target = tmp_path / "orders.txt"
        target.write_text(
            "# reference runs\n"
            "A, B, C\n"
            "\n"
            "C B A  # reversed\n",
            encoding="utf-8",
        )
        assert read_orderings_file(target) == [
            ("A", "B", "C"), ("C", "B", "A"),
        ]

    def test_orderings_file_missing(self, tmp_path):
        with pytest.raises(DocumentError):
            read_orderings_file(tmp_path / "void.txt")


class TestDotExport:
    def test_edge_count_matches_prerequisites(self, full_document):
        wf = full_document.workflow
        dot = export_dot(wf)
        arrow_lines = [l for l in dot.splitlines() if "->" in l]
        assert len(arrow_lines) == len(wf.precedence_edges()) == 28

    def test_no_transitive_reduction(self, full_document):
        # LANG precedes CFRM directly in the data even though a longer
        # path exists; the edge must still be drawn.
        dot = export_dot(full_document.workflow)
        assert '"LANG" -> "CFRM";' in dot

    def test_group_node_style(self, full_document):
        dot = export_dot(full_document.workflow)
        assert '"AUTH" [shape=box, style=dashed,' in dot
        assert "one of: AUCC, AUPI, AUPS, AUPW" in dot

    def test_membership_is_not_an_edge(self, full_document):
        dot = export_dot(full_document.workflow)
        assert '"AUPS" -> "AUTH"' not in dot
        assert '"AUTH" -> "AUPS"' not in dot

    def test_trailing_newline_and_structure(self, validation_document):
        dot = export_dot(validation_document.workflow)
        assert dot.startswith("digraph workflow {")
        assert dot.endswith("}\n")
        assert "rankdir=LR;" in dot

    def test_quotes_and_backslashes_are_escaped(self):
        doc = parse_workflow_document({
            "tasks": [
                dict(MINIMAL_TASK, code='A"B', name="ends in \\"),
                dict(MINIMAL_TASK, code="C", name='say "hi"',
                     prerequisites=['A"B']),
                dict(MINIMAL_TASK, code="D", name="", prerequisites=["G\\"]),
            ],
            "variant_groups": [{"code": "G\\", "members": ['A"B']}],
        })
        assert export_dot(doc.workflow) == (
            'digraph workflow {\n'
            '  rankdir=LR;\n'
            '  "A\\"B" [label="A\\"B\\nends in \\\\"];\n'
            '  "C" [label="C\\nsay \\"hi\\""];\n'
            '  "D" [label="D"];\n'
            '  "G\\\\" [shape=box, style=dashed, '
            'label="G\\\\\\none of: A\\"B"];\n'
            '  "A\\"B" -> "C";\n'
            '  "G\\\\" -> "D";\n'
            '}\n'
        )

    @pytest.mark.parametrize("fixture,digest", [
        ("checkin-full",
         "2952d8f4cf3f20ba13dbea4cc7eb04dd078e45fc52a9d5944f4514d678b41c1d"),
        ("checkin-validation",
         "cf7f504dc40636e178e04e12f55d9e9e63df531b7d5c03d10efcc0cda89e9c97"),
    ])
    def test_fixture_output_is_unchanged_by_escaping(self, fixture, digest):
        # The SHA-256 of each fixture's DOT text before escaping existed:
        # no fixture code or name holds a quote or a backslash.
        dot = export_dot(resolve_workflow_path(fixture).workflow)
        assert hashlib.sha256(dot.encode("utf-8")).hexdigest() == digest

    def test_parse_resource_aliases(self):
        assert parse_resource("Episodic") is Resource.ER
        assert parse_resource("procedural memory") is Resource.PM
        assert parse_resource(" SR ") is Resource.SR
        with pytest.raises(DocumentError):
            parse_resource("psychokinesis")


FUZZ_WORKFLOW = {
    "tasks": [
        dict(MINIMAL_TASK),
        dict(MINIMAL_TASK, code="B", resource="procedural memory",
             voluntary="yes", prerequisites=["A", "G"]),
        dict(MINIMAL_TASK, code="C", familiarity=5),
        dict(MINIMAL_TASK, code="D", complexity=1),
    ],
    "variant_groups": [{"code": "G", "members": ["C", "D"]}],
    "known_orderings": {"ref": ["A", "C", "B"]},
}

FUZZ_COST_MODEL = {
    "matrix": [[0 if i == j else "0.5" for j in range(5)] for i in range(5)],
    "rules": {"Modality": 0.16, "RecentPractice": None, "familiarity": "1"},
    "recent_practice_scope": "full-history",
    "rules_enabled": True,
}

#: Short strings that codes, labels and effect sizes treat specially,
#: drawn as often as the rest of the JSON values together.
json_values = st.sampled_from(["", " ", "A", "G", "-1", "1e9"]) | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=8,
)


def json_paths(value, prefix=()):
    """Every path into a JSON value, the root included."""
    yield prefix
    if isinstance(value, dict):
        for key, child in value.items():
            yield from json_paths(child, prefix + (key,))
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield from json_paths(child, prefix + (i,))


def substituted(document, path, value):
    if not path:
        return value
    document = copy.deepcopy(document)
    target = document
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    return document


FUZZ_CASES = [
    pytest.param(document, parse, path,
                 id=kind + ":" + ".".join(map(str, path)))
    for kind, document, parse in (
        ("workflow", FUZZ_WORKFLOW, parse_workflow_document),
        ("cost-model", FUZZ_COST_MODEL, parse_cost_model_document),
    )
    for path in json_paths(document)
]


class TestDocumentFuzz:
    """Any JSON value at any path of a valid document parses or is a
    DocumentError: never another exception."""

    @pytest.mark.parametrize("document,parse,path", FUZZ_CASES)
    @given(value=json_values)
    @settings(max_examples=15, deadline=None)
    def test_substitution_parses_or_is_document_error(self, document, parse,
                                                      path, value):
        try:
            parse(substituted(document, path, value))
        except DocumentError:
            pass

    @pytest.mark.parametrize("path", [
        pytest.param(path, id=".".join(map(str, path)))
        for path in json_paths(FUZZ_WORKFLOW)
        if isinstance(reduce(getitem, path, FUZZ_WORKFLOW), str)
    ])
    def test_lone_surrogate_is_document_error(self, path):
        # json.loads accepts "\ud800", which no output stream can encode.
        with pytest.raises(DocumentError, match=r"'A\\ud800'") as err:
            parse_workflow_document(
                substituted(FUZZ_WORKFLOW, path, "A\ud800"))
        assert err.value.field is not None

    def test_fuzz_documents_are_valid(self):
        doc = parse_workflow_document(FUZZ_WORKFLOW)
        assert len(doc.workflow.tasks) == 4
        model = parse_cost_model_document(FUZZ_COST_MODEL)
        assert model.history_dependent is False
        assert model.rule_cost(Rule.FAMILIARITY) == 1000
