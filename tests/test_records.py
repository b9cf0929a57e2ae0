"""The public records: every one keeps the contract it had as a frozen
dataclass, and the checks of the validated ones run on every build path."""

from __future__ import annotations

import copy
import pickle

import pytest

from cogseq import (
    CogseqError,
    CostModel,
    CostModelError,
    Objective,
    Resource,
    Rule,
    Scope,
    SearchStats,
    Solution,
    SolveRequest,
    Task,
    ValidationReport,
    VariantComparison,
    VariantGroup,
    VariantRow,
    Violation,
    Workflow,
    WorkflowDocument,
    WorkflowError,
)
from cogseq.costs import DEFAULT_MATRIX, DEFAULT_RULE_COSTS, RESOURCE_INDEX


def task() -> Task:
    return Task(code="A", name="Alpha", resource=Resource.VWM,
                modality="touch", voluntary=True, familiarity=2,
                complexity=3)


def workflow() -> Workflow:
    return Workflow(tasks={"A": task()})


def stats() -> SearchStats:
    return SearchStats(nodes=3, prunes=1, elapsed=0.5)


def solution() -> Solution:
    return Solution(ordering=("A",), total=0, breakdowns=(), stats=stats())


TASK = ("Task(code='A', name='Alpha', resource=<Resource.VWM: 'VWM'>, "
        "modality='touch', voluntary=True, familiarity=2, complexity=3, "
        "prerequisites=frozenset())")
WORKFLOW = f"Workflow(tasks={{'A': {TASK}}}, variant_groups=())"
STATS = "SearchStats(nodes=3, prunes=1, elapsed=0.5)"
SOLUTION = f"Solution(ordering=('A',), total=0, breakdowns=(), stats={STATS})"
CALIBRATED = (
    f"CostModel(matrix={DEFAULT_MATRIX!r}, "
    "rules=((<Rule.MODALITY: 'Modality'>, 160), "
    "(<Rule.FAMILIARITY: 'Familiarity'>, 420), "
    "(<Rule.VOLUNTARY_COMPLEXITY_DROP: 'VoluntaryComplexityDrop'>, 2920), "
    "(<Rule.INVOLUNTARY_COMPLEXITY_DROP: 'InvoluntaryComplexityDrop'>, "
    "1630)), recent_practice_scope=<Scope.ADJACENT: 'adjacent-only'>)")

# (build, field names in order, hashable, exact repr)
RECORDS = {
    "Task": (task, (
        "code", "name", "resource", "modality", "voluntary", "familiarity",
        "complexity", "prerequisites"), True, TASK),
    "VariantGroup": (
        lambda: VariantGroup("G", {"A"}), ("code", "members"), True,
        "VariantGroup(code='G', members=frozenset({'A'}))"),
    # A workflow holds a dict, so it has no hash, as before.
    "Workflow": (workflow, ("tasks", "variant_groups"), False, WORKFLOW),
    "Violation": (
        lambda: Violation("cycle", "precedence cycle: A -> A", ("A",)),
        ("kind", "message", "codes"), True,
        "Violation(kind='cycle', message='precedence cycle: A -> A', "
        "codes=('A',))"),
    "ValidationReport": (
        lambda: ValidationReport((Violation("cycle", "c", ("A",)),)),
        ("violations", "graph"), True,
        "ValidationReport(violations=(Violation(kind='cycle', message='c', "
        "codes=('A',)),))"),
    "ValidationReport-empty": (
        ValidationReport, ("violations", "graph"), True,
        "ValidationReport(violations=())"),
    "CostModel": (
        CostModel.calibrated, ("matrix", "rules", "recent_practice_scope"),
        True, CALIBRATED),
    "CostModel-full-history": (
        lambda: CostModel(rules={Rule.MODALITY: 160},
                          recent_practice_scope=Scope.FULL_HISTORY),
        ("matrix", "rules", "recent_practice_scope"), True,
        f"CostModel(matrix={DEFAULT_MATRIX!r}, "
        "rules=((<Rule.MODALITY: 'Modality'>, 160),), "
        "recent_practice_scope=<Scope.FULL_HISTORY: 'full-history'>)"),
    "WorkflowDocument": (
        lambda: WorkflowDocument(workflow=workflow(),
                                 known_orderings={"best": ("A",)}),
        ("workflow", "known_orderings"), False,
        f"WorkflowDocument(workflow={WORKFLOW}, "
        "known_orderings={'best': ('A',)})"),
    "SearchStats": (stats, ("nodes", "prunes", "elapsed"), True, STATS),
    "Solution": (
        solution, ("ordering", "total", "breakdowns", "stats"), True,
        SOLUTION),
    "SolveRequest": (
        lambda: SolveRequest(workflow(), k=2),
        ("workflow", "model", "objective", "k"), False,
        f"SolveRequest(workflow={WORKFLOW}, model={CALIBRATED}, "
        "objective=<Objective.MINIMIZE: 'minimize'>, k=2)"),
    "VariantRow": (
        lambda: VariantRow(member="A", solution=solution()),
        ("member", "solution"), True,
        f"VariantRow(member='A', solution={SOLUTION})"),
    "VariantComparison": (
        lambda: VariantComparison(
            group="G", rows=(VariantRow("A", solution()),), delta=0),
        ("group", "rows", "delta"), True,
        f"VariantComparison(group='G', rows=(VariantRow(member='A', "
        f"solution={SOLUTION}),), delta=0)"),
}


CLONES = pytest.mark.parametrize("clone", [
    lambda a: pickle.loads(pickle.dumps(a)), copy.copy, copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])


@pytest.fixture(params=sorted(RECORDS))
def record(request):
    return RECORDS[request.param]


class TestRecordContract:
    def test_equal_instances_compare_and_hash_equal(self, record):
        build, _, hashable, _ = record
        a, b = build(), build()
        assert a is not b
        assert a == b and not a != b
        if hashable:
            assert hash(a) == hash(b)
        else:
            with pytest.raises(TypeError):
                hash(a)

    def test_fields_and_keyword_constructor(self, record):
        build, fields, _, _ = record
        a = build()
        if isinstance(a, tuple):
            assert type(a)._fields == fields
        assert type(a)(**{name: getattr(a, name) for name in fields}) == a

    def test_repr(self, record):
        build, _, _, text = record
        assert repr(build()) == text

    def test_assignment_raises(self, record):
        build, fields, _, _ = record
        a = build()
        for name in fields + ("not_a_field",):
            with pytest.raises(AttributeError):
                setattr(a, name, None)

    def test_deletion_raises(self, record):
        build, fields, _, _ = record
        a = build()
        for name in fields:
            with pytest.raises(AttributeError):
                delattr(a, name)

    def test_unequal_to_another_type(self, record):
        build, _, _, _ = record
        a, other = build(), object()
        assert (a == other) is False and (a != other) is True

    @CLONES
    def test_round_trips(self, record, clone):
        build, fields, _, _ = record
        a = build()
        b = clone(a)
        assert type(b) is type(a) and b == a
        assert [getattr(b, name) for name in fields] == [
            getattr(a, name) for name in fields]


class TestEnumKeys:
    """``Resource`` and ``Rule`` members hash by identity: a copy is the
    member itself, so it finds its table entries and hashes alike."""

    @CLONES
    @pytest.mark.parametrize("member", [*Resource, *Rule], ids=str)
    def test_copied_member_finds_its_entries(self, member, clone):
        copied = clone(member)
        assert hash(copied) == hash(member)
        if isinstance(member, Resource):
            assert RESOURCE_INDEX[copied] == RESOURCE_INDEX[member]
        else:
            assert DEFAULT_RULE_COSTS[copied] == DEFAULT_RULE_COSTS[member]
            assert CostModel().rule_cost(copied) == DEFAULT_RULE_COSTS[member]

    @CLONES
    @pytest.mark.parametrize("build", [task, CostModel.calibrated, CostModel],
                             ids=["Task", "CostModel", "CostModel-literal"])
    def test_copied_records_hash_equal(self, build, clone):
        assert hash(clone(build())) == hash(build())


class TestReplaceChecks:
    """``_replace`` builds through the same checks as the constructor."""

    def test_task(self):
        with pytest.raises(WorkflowError, match="task code must be non-empty"):
            task()._replace(code=" ")
        moved = task()._replace(code=" B ", modality=" Speech ",
                                prerequisites=["A"])
        assert (moved.code, moved.modality, moved.prerequisites) == (
            "B", "speech", frozenset({"A"}))

    def test_variant_group(self):
        with pytest.raises(WorkflowError, match="must be non-empty"):
            VariantGroup("G", {"A"})._replace(code=" ")
        assert VariantGroup("G", {"A"})._replace(members=["B"]).members == (
            frozenset({"B"}))

    def test_workflow(self):
        group = VariantGroup("G", {"A"})
        widened = workflow()._replace(variant_groups=[group])
        assert type(widened) is Workflow
        assert widened.variant_groups == (group,)

    def test_cost_model(self):
        literal = CostModel.calibrated()._replace(rules=DEFAULT_RULE_COSTS)
        assert literal == CostModel()
        assert literal.rules == CostModel().rules
        with pytest.raises(CogseqError, match="diagonal must be zero"):
            CostModel()._replace(matrix=[[1] * 5] * 5)

    def test_solve_request(self):
        with pytest.raises(CogseqError, match="k must be at least 1"):
            SolveRequest(workflow())._replace(k=0)
        assert SolveRequest(workflow())._replace(k=3).k == 3

    def test_unknown_field(self):
        with pytest.raises(ValueError, match="unexpected field names"):
            task()._replace(colour="red")

    def test_asdict(self):
        assert CostModel()._asdict() == {
            "matrix": DEFAULT_MATRIX,
            "rules": tuple(DEFAULT_RULE_COSTS.items()),
            "recent_practice_scope": Scope.ADJACENT,
        }


class TestFieldTypes:
    """A field of the wrong type is refused where the record is built,
    naming the field, not read wrongly later: ``"BC"`` is no pair of
    prerequisites, ``"no"`` is no voluntary flag and ``True`` no
    familiarity.  Ranges stay with ``validate_workflow``."""

    @pytest.mark.parametrize("field,value", [
        ("code", 3),
        ("name", None),
        ("resource", "VWM"),
        ("modality", 3),
        ("voluntary", "no"),
        ("voluntary", 1),
        ("familiarity", True),
        ("familiarity", "3"),
        ("complexity", 2.0),
        ("complexity", False),
        ("prerequisites", "BC"),
        ("prerequisites", ["B", 3]),
        ("prerequisites", [["B"]]),
        ("prerequisites", 3),
    ], ids=lambda value: repr(value))
    def test_task(self, field, value):
        with pytest.raises(WorkflowError, match=f"{field} must be"):
            task()._replace(**{field: value})
        with pytest.raises(WorkflowError, match=f"{field} must be"):
            Task(**{**task()._asdict(), field: value})

    @pytest.mark.parametrize("field,value", [
        ("code", 3), ("members", "AB"), ("members", ["A", None]),
    ], ids=lambda value: repr(value))
    def test_variant_group(self, field, value):
        group = VariantGroup("G", {"A"})
        with pytest.raises(WorkflowError, match=f"{field} must be"):
            group._replace(**{field: value})
        with pytest.raises(WorkflowError, match=f"{field} must be"):
            VariantGroup(**{**group._asdict(), field: value})

    @pytest.mark.parametrize("field,value", [
        ("matrix", None), ("matrix", [1, 2, 3, 4, 5]),
        ("matrix", [[0] * 5] * 4), ("matrix", [[0] * 4] * 5),
        ("rules", None), ("rules", 5), ("rules", [1]),
    ], ids=lambda value: repr(value))
    def test_cost_model(self, field, value):
        with pytest.raises(CostModelError, match=f"{field} must be"):
            CostModel()._replace(**{field: value})
        with pytest.raises(CostModelError, match=f"{field} must be"):
            CostModel(**{field: value})

    @pytest.mark.parametrize("fields,message", [
        (({"B": task()}, ()), r"tasks\['B'\] must be the task of that code"),
        (({"A": 3}, ()), r"tasks\['A'\] must be a Task, got 3"),
        (([task()], ()), "tasks must be a mapping of codes to Task records"),
        (({"A": task()}, ["AB"]), "variant_groups must hold VariantGroup"),
        (({"A": task()}, 3), "variant_groups must be a collection"),
    ], ids=["task-under-another-code", "not-a-task", "task-list",
            "group-string", "groups-not-iterable"])
    @pytest.mark.parametrize("build", [
        lambda bad: Workflow(*bad),
        lambda bad: workflow()._replace(**bad._asdict()),
        lambda bad: pickle.loads(pickle.dumps(bad)),
        copy.copy,
    ], ids=["constructor", "replace", "pickle", "copy"])
    def test_workflow(self, fields, message, build):
        # solve would order a task under another code, or end in an
        # AttributeError, as validate_workflow would.
        bad = tuple.__new__(Workflow, fields)
        with pytest.raises(WorkflowError, match=message):
            build(bad)

    @pytest.mark.parametrize("args,message", [
        (([3],), "tasks must hold Task records, got 3"),
        (([], [3]), "variant_groups must hold VariantGroup records, got 3"),
    ], ids=["task", "group"])
    def test_workflow_from_tasks(self, args, message):
        # Checked before a code is read, so no AttributeError.
        with pytest.raises(WorkflowError, match=message):
            Workflow.from_tasks(*args)


def test_default_model_is_one_shared_calibrated_model():
    a, b = SolveRequest(workflow()), SolveRequest(workflow())
    assert a.model is b.model
    assert a.model == CostModel.calibrated()
    assert a.objective is Objective.MINIMIZE and a.k == 1
