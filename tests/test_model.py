"""Workflow structure: validation, variant instantiation, linear extensions."""

from __future__ import annotations

import random
import re
from itertools import islice, permutations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cogseq import (
    BudgetExceededError,
    CogseqError,
    CostModel,
    OrderingError,
    Task,
    ValidationReport,
    VariantGroup,
    Workflow,
    WorkflowError,
    count_linear_extensions,
    enumerate_linear_extensions,
    instantiate_variant,
    is_linear_extension,
    sequence_cost,
    validate_workflow,
)
from cogseq.model import extension_violation

from conftest import (
    permutation_extensions,
    random_workflow,
    reference_validate_workflow,
    simple_task,
)


def chain(*codes: str) -> Workflow:
    tasks = []
    for i, code in enumerate(codes):
        prereqs = (codes[i - 1],) if i else ()
        tasks.append(simple_task(code, prerequisites=prereqs))
    return Workflow.from_tasks(tasks)


def positional_violation(ordering, workflow: Workflow) -> str | None:
    """``extension_violation`` as it was before its one-pass rewrite, for a
    workflow whose prerequisites are all tasks."""
    codes = set(workflow.tasks)
    seen: set[str] = set()
    for code in ordering:
        if code not in codes:
            return f"unknown task {code!r}"
        if code in seen:
            return f"task {code!r} appears more than once"
        seen.add(code)
    missing = codes - seen
    if missing:
        return "missing tasks: " + ", ".join(sorted(missing))
    position = {code: i for i, code in enumerate(ordering)}
    for code in ordering:
        for pre in sorted(workflow.tasks[code].prerequisites):
            if position[pre] >= position[code]:
                return f"{pre!r} must precede {code!r}"
    return None


def rebuilt_every_task(workflow: Workflow, choices: dict) -> Workflow:
    """Resolving each group with ``choices`` by the rename-only rule, with
    every kept task rebuilt: the group code becomes the chosen member and
    no other prerequisite changes."""
    for grp in workflow.variant_groups:
        member = choices[grp.code]
        dropped = grp.members - {member}
        tasks = {
            code: Task(
                code=task.code, name=task.name, resource=task.resource,
                modality=task.modality, voluntary=task.voluntary,
                familiarity=task.familiarity, complexity=task.complexity,
                prerequisites=frozenset(
                    member if pre == grp.code else pre
                    for pre in task.prerequisites),
            )
            for code, task in workflow.tasks.items() if code not in dropped
        }
        workflow = Workflow(tasks=tasks, variant_groups=tuple(
            g for g in workflow.variant_groups if g.code != grp.code))
    return workflow


def antichain(*codes: str) -> Workflow:
    return Workflow.from_tasks(simple_task(c) for c in codes)


class TestTask:
    def test_code_and_modality_are_normalized(self):
        task = simple_task("  A1 ", modality="  Touchscreen QWERTY ")
        assert task.code == "A1"
        assert task.modality == "touchscreen qwerty"

    def test_empty_code_rejected(self):
        with pytest.raises(WorkflowError):
            simple_task("   ")

    def test_duplicate_codes_rejected(self):
        with pytest.raises(WorkflowError, match="duplicate task code"):
            Workflow.from_tasks([simple_task("A"), simple_task("A")])

    def test_duplicate_group_codes_rejected(self):
        with pytest.raises(WorkflowError,
                           match="duplicate variant-group code 'G'"):
            Workflow.from_tasks(
                [simple_task("A"), simple_task("B"), simple_task("C")],
                [VariantGroup("G", frozenset({"A"})),
                 VariantGroup("G", frozenset({"B"}))])


class TestValidation:
    def test_clean_workflow_is_ok(self):
        report = validate_workflow(chain("A", "B", "C"))
        assert report.ok
        assert report.summary() == "valid"

    def test_clean_report_carries_the_checked_graph(self):
        report = validate_workflow(chain("B", "A", "C"))
        assert report.graph == (("A", "B", "C"), (0b010, 0, 0b001),
                                ((2,), (0,), ()))
        # The graph is not part of the report's value.
        assert report == ValidationReport()
        assert hash(report) == hash(ValidationReport())
        assert repr(report) == "ValidationReport(violations=())"

    def test_unknown_prerequisite(self):
        wf = Workflow.from_tasks([simple_task("A", prerequisites=("Z",))])
        kinds = {v.kind for v in validate_workflow(wf)}
        assert "unknown-prerequisite" in kinds

    def test_self_prerequisite(self):
        wf = Workflow.from_tasks([simple_task("A", prerequisites=("A",))])
        kinds = {v.kind for v in validate_workflow(wf)}
        assert "self-prerequisite" in kinds

    @pytest.mark.parametrize("familiarity,complexity", [(0, 3), (6, 3), (3, 0), (3, 9)])
    def test_out_of_range_properties(self, familiarity, complexity):
        wf = Workflow.from_tasks([
            simple_task("A", familiarity=familiarity, complexity=complexity)
        ])
        kinds = [v.kind for v in validate_workflow(wf)]
        assert "out-of-range" in kinds

    def test_cycle_reported_with_path(self):
        wf = Workflow.from_tasks([
            simple_task("A", prerequisites=("C",)),
            simple_task("B", prerequisites=("A",)),
            simple_task("C", prerequisites=("B",)),
        ])
        cycles = [v for v in validate_workflow(wf) if v.kind == "cycle"]
        assert len(cycles) == 1
        assert set(cycles[0].codes) == {"A", "B", "C"}

    def test_long_chain_validates(self):
        # Deeper than the default recursion limit.
        codes = [f"T{i:04d}" for i in range(1500)]
        assert validate_workflow(chain(*codes)).ok

    def test_long_cycle_reported_with_path(self):
        codes = [f"T{i:04d}" for i in range(1500)]
        tasks = [simple_task(code, prerequisites=(codes[i - 1],))
                 for i, code in enumerate(codes)]
        cycles = [v for v in validate_workflow(Workflow.from_tasks(tasks))
                  if v.kind == "cycle"]
        assert [v.codes for v in cycles] == [tuple(codes)]

    def test_cycle_through_variant_group(self):
        # M requires A, A requires the group containing M: cyclic for the
        # M choice, which the member->group edges make visible.
        wf = Workflow.from_tasks(
            [
                simple_task("A", prerequisites=("G",)),
                simple_task("M", prerequisites=("A",)),
            ],
            [VariantGroup("G", frozenset({"M"}))],
        )
        kinds = {v.kind for v in validate_workflow(wf)}
        assert "cycle" in kinds

    def test_group_code_collision_and_unknown_member(self):
        wf = Workflow.from_tasks(
            [simple_task("A")],
            [VariantGroup("A", frozenset({"ZZ"}))],
        )
        kinds = {v.kind for v in validate_workflow(wf)}
        assert "group-code-collision" in kinds
        assert "unknown-member" in kinds

    def test_direct_member_reference_flagged(self):
        wf = Workflow.from_tasks(
            [
                simple_task("M1"),
                simple_task("M2"),
                simple_task("B", prerequisites=("M1",)),
            ],
            [VariantGroup("G", frozenset({"M1", "M2"}))],
        )
        kinds = {v.kind for v in validate_workflow(wf)}
        assert "direct-member-reference" in kinds

    def test_repeated_group_code(self):
        # The constructor, unlike Workflow.from_tasks, takes the groups as
        # given, so validation must find the repeat.
        tasks = {code: simple_task(code) for code in "ABC"}
        wf = Workflow(tasks=tasks, variant_groups=(
            VariantGroup("G", {"A"}), VariantGroup("G", {"B"})))
        report = validate_workflow(wf)
        assert [(v.kind, v.message, v.codes) for v in report] == [
            ("duplicate-group", "duplicate variant-group code 'G'", ("G",))]
        assert report == reference_validate_workflow(wf)
        assert report.summary() == (
            "[duplicate-group] duplicate variant-group code 'G'")

    def test_group_code_used_three_times_is_reported_once(self):
        tasks = {code: simple_task(code) for code in "ABC"}
        wf = Workflow(tasks=tasks, variant_groups=tuple(
            VariantGroup("G", {code}) for code in "ABC"))
        assert [v.kind for v in validate_workflow(wf)] == ["duplicate-group"]

    def test_fixtures_validate(self, full_document, validation_document):
        assert validate_workflow(full_document.workflow).ok
        assert validate_workflow(validation_document.workflow).ok


# Task codes, group codes (two can collide with a task) and codes that name
# nothing, spelt so that code order, case order and insertion order differ.
TASK_CODES = ("A", "B", "C", "D", "E", "b", "C1")
GROUP_CODES = ("G", "H", "A", "C")
UNKNOWN_CODES = ("Q", "R")
any_level = st.one_of(st.integers(1, 5), st.integers(-1, 7))


@st.composite
def checked_workflows(draw):
    """A workflow and the same workflow with its tasks added in another
    order, drawn to reach every kind of validation finding.

    Half the draws are acyclic: each task requires only tasks drawn before
    it, or unknown codes, and never a group.  The rest may also require
    themselves, any task or any group, so cycles, self-loops and cycles
    through a group's member -> group edge all occur.
    """
    codes = draw(st.lists(st.sampled_from(TASK_CODES), min_size=1,
                          max_size=7, unique=True))
    groups = draw(st.lists(st.builds(
        VariantGroup,
        code=st.sampled_from(GROUP_CODES),
        members=st.frozensets(st.sampled_from(codes + list(UNKNOWN_CODES)),
                              max_size=3),
    ), max_size=2, unique_by=lambda grp: grp.code))
    acyclic = draw(st.booleans())
    tasks = []
    for i, code in enumerate(codes):
        if acyclic:
            named = codes[:i] + list(UNKNOWN_CODES)
        else:
            named = codes + [g.code for g in groups] + list(UNKNOWN_CODES)
        tasks.append(simple_task(
            code, familiarity=draw(any_level), complexity=draw(any_level),
            prerequisites=draw(st.frozensets(st.sampled_from(named),
                                             max_size=3)),
        ))
    shuffled = draw(st.permutations(tasks))
    return (Workflow.from_tasks(tasks, groups),
            Workflow.from_tasks(shuffled, groups))


class TestValidationOracle:
    """``validate_workflow`` against the sort-everything reference copy in
    ``conftest.py``: same violations, same order, same cycle path."""

    @given(case=checked_workflows())
    @settings(max_examples=300, deadline=None)
    def test_report_equals_reference(self, case):
        workflow, shuffled = case
        expected = reference_validate_workflow(workflow)
        assert validate_workflow(workflow) == expected
        assert validate_workflow(shuffled) == expected

    @given(case=checked_workflows(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_repeated_group_codes_equal_reference(self, case, data):
        workflow, _ = case
        codes = [g.code for g in workflow.variant_groups] or ["G"]
        repeat = data.draw(st.builds(
            VariantGroup, code=st.sampled_from(codes),
            members=st.frozensets(st.sampled_from(sorted(workflow.tasks)),
                                  max_size=2)))
        groups = data.draw(st.permutations(
            workflow.variant_groups + (repeat, repeat)))
        repeated = Workflow(tasks=workflow.tasks, variant_groups=groups)
        report = validate_workflow(repeated)
        assert report == reference_validate_workflow(repeated)
        assert "duplicate-group" in {v.kind for v in report}


class TestValidationGraph:
    """The graph a clean report carries is the one the enumerators and the
    search run on."""

    @given(case=checked_workflows())
    @settings(max_examples=300, deadline=None)
    def test_graph_equals_a_rebuild_from_prerequisites(self, case):
        workflow, shuffled = case
        report = validate_workflow(workflow)
        if report.violations or workflow.variant_groups:
            expected = None
        else:
            codes = tuple(sorted(workflow.tasks))
            index = {code: i for i, code in enumerate(codes)}
            prereqs = [workflow.tasks[code].prerequisites for code in codes]
            expected = (
                codes,
                tuple(sum(1 << index[pre] for pre in pres)
                      for pres in prereqs),
                tuple(tuple(j for j, pres in enumerate(prereqs)
                            if code in pres) for code in codes),
            )
        assert report.graph == expected
        assert validate_workflow(shuffled).graph == expected


class TestVariants:
    def build(self) -> Workflow:
        return Workflow.from_tasks(
            [
                simple_task("S"),
                simple_task("M1", prerequisites=("S",)),
                simple_task("M2", prerequisites=("S",)),
                simple_task("E", prerequisites=("G",)),
            ],
            [VariantGroup("G", frozenset({"M1", "M2"}))],
        )

    def test_instantiate_rewrites_and_drops(self):
        wf = instantiate_variant(self.build(), "G", "M1")
        assert wf.is_concrete
        assert set(wf.tasks) == {"S", "M1", "E"}
        assert wf.tasks["E"].prerequisites == frozenset({"M1"})

    def test_instantiate_shares_untouched_tasks(self):
        # X names the group beside a task, so it is rebuilt like E, and
        # only the group code in it changes.
        wf = Workflow.from_tasks(
            list(self.build().tasks.values())
            + [simple_task("X", prerequisites=("S", "G"))],
            self.build().variant_groups,
        )
        before = dict(wf.tasks)
        out = instantiate_variant(wf, "G", "M1")
        assert out.tasks["S"] is wf.tasks["S"]
        assert out.tasks["M1"] is wf.tasks["M1"]
        assert out.tasks["E"] == wf.tasks["E"]._replace(
            prerequisites=frozenset({"M1"}))
        assert out.tasks["X"] == wf.tasks["X"]._replace(
            prerequisites=frozenset({"S", "M1"}))
        assert list(out.tasks) == ["S", "M1", "E", "X"]
        assert out.variant_groups == ()
        # The input is unchanged, down to the identity of each task.
        assert list(wf.tasks) == list(before)
        assert all(wf.tasks[code] is task for code, task in before.items())
        assert wf.tasks["E"].prerequisites == frozenset({"G"})
        assert wf.variant_groups == self.build().variant_groups

    def test_fixture_shares_all_but_the_group_dependents(self, full_document):
        wf = full_document.workflow
        out = instantiate_variant(wf, "AUTH", "AUPS")
        rebuilt = [code for code, task in out.tasks.items()
                   if task is not wf.tasks[code]]
        assert rebuilt == ["CFRM"]
        assert out.tasks["CFRM"].prerequisites == (
            wf.tasks["CFRM"].prerequisites - {"AUTH"} | {"AUPS"})

    @pytest.mark.parametrize("member", ["AUCC", "AUPI", "AUPS", "AUPW"])
    def test_instantiate_all_matches_rebuilding_every_task(
            self, full_document, member):
        wf = full_document.workflow
        out = instantiate_variant(wf, "AUTH", member)
        old = rebuilt_every_task(wf, {"AUTH": member})
        assert list(out.tasks) == list(old.tasks)
        for code in old.tasks:
            assert out.tasks[code] == old.tasks[code]
        assert out.variant_groups == old.variant_groups

    def test_unknown_group_and_member(self):
        with pytest.raises(WorkflowError, match="unknown variant group"):
            instantiate_variant(self.build(), "NOPE", "M1")
        with pytest.raises(WorkflowError, match="not a member"):
            instantiate_variant(self.build(), "G", "E")

    def test_member_that_is_no_task_is_refused(self):
        # validate_workflow reports Y as [unknown-member]; resolving the
        # group to it would drop the slot and keep no task in its place.
        wf = Workflow.from_tasks([simple_task("A"), simple_task("X")],
                                 [VariantGroup("G", ["X", "Y"])])
        assert [v.kind for v in validate_workflow(wf)] == ["unknown-member"]
        with pytest.raises(WorkflowError,
                           match="variant group 'G' lists unknown member 'Y'"):
            instantiate_variant(wf, "G", "Y")
        assert set(instantiate_variant(wf, "G", "X").tasks) == {"A", "X"}

    @pytest.mark.parametrize("tasks,member,message", [
        # Z requires member X, refused whichever member is chosen.
        ([("A", ()), ("X", ("A",)), ("Y", ("A",)), ("Z", ("X",))], "Y",
         "task 'Z' requires 'X' directly; use its group 'G' instead"),
        ([("A", ()), ("X", ("A",)), ("Y", ("A",)), ("Z", ("X",))], "X",
         "task 'Z' requires 'X' directly; use its group 'G' instead"),
        # A member that requires another member.
        ([("A", ()), ("X", ("Y",)), ("Y", ())], "X",
         "task 'X' requires 'Y' directly; use its group 'G' instead"),
        # The smallest offending task, then its smallest offending member.
        ([("A", ()), ("X", ()), ("Y", ()), ("W", ("Y", "X", "A")),
          ("V", ("Y",))], "X",
         "task 'V' requires 'Y' directly; use its group 'G' instead"),
        ([("A", ()), ("X", ()), ("Y", ()), ("V", ("Y", "X", "A"))], "Y",
         "task 'V' requires 'X' directly; use its group 'G' instead"),
    ])
    def test_direct_member_reference_is_refused(self, tasks, member,
                                                 message):
        wf = Workflow.from_tasks(
            [simple_task(code, prerequisites=pres) for code, pres in tasks],
            [VariantGroup("G", ["X", "Y"])])
        assert message in [v.message for v in validate_workflow(wf)]
        with pytest.raises(WorkflowError, match=f"^{re.escape(message)}$"):
            instantiate_variant(wf, "G", member)

    def test_task_listed_by_two_groups_is_refused_in_either_order(self):
        # Resolving either group would drop X from the other, or keep it in
        # both slots; validate_workflow reports it in the same words.
        wf = Workflow.from_tasks(
            [simple_task("A"), simple_task("X"), simple_task("Y"),
             simple_task("Z", prerequisites=("G", "H"))],
            [VariantGroup("G", ["X", "Y"]), VariantGroup("H", ["X", "A"])])
        message = "task 'X' belongs to variant groups 'G' and 'H'"
        assert [(v.kind, v.message, v.codes)
                for v in validate_workflow(wf)] == [
            ("shared-member", message, ("X", "G", "H"))]
        for group, member in [("G", "X"), ("G", "Y"), ("H", "X"),
                              ("H", "A")]:
            with pytest.raises(WorkflowError,
                               match=f"^{re.escape(message)}$"):
                instantiate_variant(wf, group, member)

    @pytest.mark.parametrize("member", ["X", "Y"])
    def test_group_code_that_is_a_task_code_is_refused(self, member):
        # Resolving would keep task G beside the chosen member.
        wf = Workflow.from_tasks(
            [simple_task(code) for code in ("A", "X", "Y", "G")],
            [VariantGroup("G", ["X", "Y"])])
        assert [v.message for v in validate_workflow(wf)] == [
            "variant group 'G' collides with a task code"]
        with pytest.raises(WorkflowError, match=(
                "^variant group 'G' collides with a task code$")):
            instantiate_variant(wf, "G", member)

    def test_concrete_required_for_sequencing(self):
        with pytest.raises(WorkflowError, match="unresolved variant groups"):
            is_linear_extension(("S",), self.build())

    def test_fixture_instantiation_counts(self, full_document):
        wf = instantiate_variant(full_document.workflow, "AUTH", "AUPS")
        assert len(wf.tasks) == 13
        assert len(wf.precedence_edges()) == 25
        assert wf.tasks["CFRM"].prerequisites >= {"AUPS"}


@st.composite
def variant_workflows(draw):
    """A workflow with one or two variant groups of at least one member
    each, drawn to reach every way resolution and validation could
    disagree: a group code may be a task code, a member may be no task or a
    member of the other group too, and each task may require a group, a
    member, an unknown code or itself.  Half the draws keep every level in
    range, so that more of them validate."""
    codes = draw(st.lists(st.sampled_from(TASK_CODES), min_size=1,
                          max_size=7, unique=True))
    groups = draw(st.lists(st.builds(
        VariantGroup,
        code=st.sampled_from(GROUP_CODES),
        members=st.frozensets(st.sampled_from(codes + list(UNKNOWN_CODES)),
                              min_size=1, max_size=3),
    ), min_size=1, max_size=2, unique_by=lambda grp: grp.code))
    level = st.integers(1, 5) if draw(st.booleans()) else any_level
    named = codes + [g.code for g in groups] + list(UNKNOWN_CODES)
    return Workflow.from_tasks([
        simple_task(code, familiarity=draw(level), complexity=draw(level),
                    prerequisites=draw(st.frozensets(st.sampled_from(named),
                                                     max_size=3)))
        for code in codes], groups)


class TestResolutionAgreesWithValidation:
    """A workflow with one or two variant groups validates exactly when
    every choice of members resolves, with the groups in either order, and
    each resolved workflow validates, so resolution neither hides a fault
    that validation reports nor refuses a valid workflow."""

    @given(workflow=variant_workflows())
    # Resolving group A to its member A would keep task A in its place.
    @example(Workflow.from_tasks([simple_task("A")],
                                 [VariantGroup("A", ["A"])]))
    # With one member, resolution drops no task, so B's direct reference
    # to A would survive it.
    @example(Workflow.from_tasks(
        [simple_task("A"), simple_task("B", prerequisites=["A"])],
        [VariantGroup("G", ["A"])]))
    # X is a member of both groups: resolving H to A would drop it from G,
    # and resolving G to X would leave Z a direct reference to H's member X.
    @example(Workflow.from_tasks(
        [simple_task("A"), simple_task("X"), simple_task("Y"),
         simple_task("Z", prerequisites=["G", "H"])],
        [VariantGroup("G", ["X", "Y"]), VariantGroup("H", ["X", "A"])]))
    @settings(max_examples=300, deadline=None)
    def test_valid_exactly_when_every_resolution_is(self, workflow):
        def resolves_valid(choices) -> bool:
            resolved = workflow
            try:
                for group, member in choices:
                    resolved = instantiate_variant(resolved, group, member)
            except WorkflowError:
                return False
            return validate_workflow(resolved).ok

        every_choice = [
            choices
            for groups in permutations(workflow.variant_groups)
            for choices in product(*(
                [(grp.code, member) for member in sorted(grp.members)]
                for grp in groups))
        ]
        assert validate_workflow(workflow).ok == all(
            resolves_valid(choices) for choices in every_choice)


class TestExtensions:
    def test_chain_has_single_extension(self):
        wf = chain("A", "B", "C")
        assert list(enumerate_linear_extensions(wf)) == [("A", "B", "C")]
        assert count_linear_extensions(wf) == 1

    def test_antichain_enumerates_lexicographically(self):
        wf = antichain("A", "B", "C")
        exts = list(enumerate_linear_extensions(wf))
        assert len(exts) == 6
        assert exts == sorted(exts)
        assert exts[0] == ("A", "B", "C")

    def test_cyclic_rejected(self):
        wf = Workflow.from_tasks([
            simple_task("A", prerequisites=("B",)),
            simple_task("B", prerequisites=("A",)),
        ])
        with pytest.raises(WorkflowError):
            list(enumerate_linear_extensions(wf))
        with pytest.raises(WorkflowError):
            count_linear_extensions(wf)

    def test_is_linear_extension(self):
        wf = chain("A", "B", "C")
        assert is_linear_extension(("A", "B", "C"), wf)
        assert not is_linear_extension(("B", "A", "C"), wf)
        assert not is_linear_extension(("A", "B"), wf)
        assert not is_linear_extension(("A", "A", "B"), wf)

    def test_violation_messages(self):
        wf = chain("A", "B")
        assert extension_violation(("A", "B"), wf) is None
        assert "unknown task" in extension_violation(("A", "Z"), wf)
        assert "more than once" in extension_violation(("A", "A"), wf)
        assert "missing tasks" in extension_violation(("A",), wf)
        assert "'A' must precede 'B'" in extension_violation(("B", "A"), wf)

    def test_violation_names_first_late_task_and_smallest_prerequisite(self):
        wf = Workflow.from_tasks([
            simple_task("A"), simple_task("B"),
            simple_task("C", prerequisites=("A", "B")),
            simple_task("D", prerequisites=("C",)),
        ])
        assert extension_violation(("D", "C", "B", "A"), wf) == \
            "'C' must precede 'D'"
        assert extension_violation(("A", "C", "D", "B"), wf) == \
            "'B' must precede 'C'"
        assert extension_violation(("C", "B", "A", "D"), wf) == \
            "'A' must precede 'C'"
        # Every other reason outranks a late prerequisite.
        assert extension_violation(("D", "C", "Z"), wf) == \
            "unknown task 'Z'"
        assert extension_violation(("D", "D"), wf) == \
            "task 'D' appears more than once"
        assert extension_violation(("D", "C"), wf) == "missing tasks: A, B"

    @pytest.mark.parametrize("seed", range(40))
    def test_violation_matches_position_definition(self, seed):
        rng = random.Random(6000 + seed)
        wf = random_workflow(rng, n_max=6)
        codes = list(wf.codes())
        for _ in range(30):
            ordering = rng.sample(codes, len(codes))
            if rng.random() < 0.3:
                ordering = ordering[:rng.randint(0, len(ordering))]
            if rng.random() < 0.2:
                ordering.insert(rng.randint(0, len(ordering)),
                                rng.choice(codes + ["Z"]))
            assert extension_violation(ordering, wf) == \
                positional_violation(ordering, wf)
            assert is_linear_extension(ordering, wf) == \
                (positional_violation(ordering, wf) is None)

    def test_unknown_prerequisite(self):
        wf = Workflow.from_tasks([
            simple_task("A", prerequisites=("Z",)), simple_task("B"),
        ])
        assert extension_violation(("A", "B"), wf) == \
            "task 'A' requires unknown code 'Z'"
        assert extension_violation(("B", "A"), wf) == \
            "task 'A' requires unknown code 'Z'"
        assert not is_linear_extension(("A", "B"), wf)
        with pytest.raises(OrderingError, match="unknown code 'Z'"):
            sequence_cost(("A", "B"), wf, CostModel())
        with pytest.raises(WorkflowError, match="unknown code 'Z'"):
            list(enumerate_linear_extensions(wf))
        with pytest.raises(WorkflowError, match="unknown code 'Z'"):
            count_linear_extensions(wf)
        assert issubclass(OrderingError, CogseqError)
        assert issubclass(WorkflowError, CogseqError)

    def test_helpers_refuse_any_invalid_workflow(self):
        # Not a cycle: one task outside the 1-5 familiarity range.
        wf = Workflow.from_tasks([simple_task("A", familiarity=9),
                                  simple_task("B")])
        with pytest.raises(WorkflowError, match="out-of-range"):
            list(enumerate_linear_extensions(wf))
        with pytest.raises(WorkflowError, match="out-of-range"):
            count_linear_extensions(wf)

    def test_empty_workflow(self):
        wf = Workflow.from_tasks([])
        assert list(enumerate_linear_extensions(wf)) == [()]
        assert count_linear_extensions(wf) == 1
        assert is_linear_extension((), wf)

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_permutation_oracle(self, seed):
        rng = random.Random(seed)
        wf = random_workflow(rng, n_max=6)
        expected = permutation_extensions(wf)
        produced = list(enumerate_linear_extensions(wf))
        assert produced == expected
        assert count_linear_extensions(wf) == len(expected)
        assert all(is_linear_extension(e, wf) for e in produced)
        for stop in (1, 3):
            assert list(islice(enumerate_linear_extensions(wf), stop)) == \
                expected[:stop]

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_count_agrees_with_enumeration(self, seed):
        rng = random.Random(seed)
        wf = random_workflow(rng, n_max=7)
        assert count_linear_extensions(wf) == sum(
            1 for _ in enumerate_linear_extensions(wf)
        )

    def test_long_chain_count_needs_no_recursion(self):
        # Deeper than the default recursion limit.
        codes = [f"T{i:04d}" for i in range(1500)]
        assert count_linear_extensions(chain(*codes)) == 1

    def test_long_chain_enumeration_needs_no_recursion(self):
        codes = [f"T{i:04d}" for i in range(1500)]
        assert list(enumerate_linear_extensions(chain(*codes))) == [
            tuple(codes)]

    def test_count_refuses_past_ideal_limit(self, monkeypatch):
        # Four unordered tasks have 15 order ideals short of the full set.
        wf = antichain("A", "B", "C", "D")
        monkeypatch.setattr("cogseq.model.MAX_COUNTED_IDEALS", 15)
        assert count_linear_extensions(wf) == 24
        monkeypatch.setattr("cogseq.model.MAX_COUNTED_IDEALS", 14)
        with pytest.raises(BudgetExceededError) as err:
            count_linear_extensions(wf)
        assert (err.value.count, err.value.budget) == (15, 14)
        assert "15 order ideals or more" in str(err.value)

    def test_fixture_extension_count(self, full_document):
        wf = instantiate_variant(full_document.workflow, "AUTH", "AUPW")
        assert count_linear_extensions(wf) == 114_624
