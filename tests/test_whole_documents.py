"""Whole generated documents: every workflow and cost-model document parses
or raises DocumentError, and on the concrete ones every route to the top k
agrees under both objectives, ties included.

The routes are ``solve`` (a minimizing search that maximizes on negated
prices), the permutation oracle ``reference_top_k``, ``brute_force`` (its
own objective handling) and the WCSP evaluator's prices of every extension.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
from test_io import json_values

from cogseq import (
    DocumentError,
    Objective,
    SolveRequest,
    brute_force,
    instantiate_variant,
    parse_cost_model_document,
    parse_workflow_document,
    solve,
    validate_workflow,
)
from cogseq import wcsp

from conftest import permutation_extensions, reference_top_k

CODES = ("A", "B", "C", "D", "E", "F")
RESOURCES = ("VWM", "pm", " DR ", "semantic recognition", "episodic", "ER")
MODALITIES = ("touch", " Touch", "speech", "card reader")
EFFECTS = st.sampled_from((0, 1, "0.16", "0.5", 0.25, "1.078", "2.92"))
SCOPES = ("adjacent", "adjacent-only", "full", "full-history")
RULE_LABELS = ("Modality", "recent_practice", "RecentPractice",
               "Familiarity", "voluntary-complexity-drop",
               "InvoluntaryComplexityDrop")


def _or_junk(draw, valid, junk: bool):
    """A value of ``valid``; when ``junk`` is on, one time in 25 any JSON
    value instead, so that about one field of a document is junk."""
    if junk and draw(st.integers(0, 24)) == 0:
        return draw(json_values)
    return draw(valid)


@st.composite
def workflow_documents(draw, junk: bool = False):
    """Up to six tasks and at most one variant group.

    Without ``junk`` the document is valid, and concrete once its group is
    resolved: each task's prerequisites come before it, and only a task
    after every member of the group names the group.  With ``junk`` any
    field may hold any JSON value, any key may be missing, and a
    prerequisite may be later, unknown or the task itself."""
    n = draw(st.integers(1, 6))
    codes = CODES[:n]
    tasks = []
    for i, code in enumerate(codes):
        earlier = list(codes[:i])
        if junk and draw(st.integers(0, 4)) == 0:
            earlier += [*codes[i:], "Z", "G"]
        task = {
            "code": code,
            "name": f"Step {code}",
            "resource": _or_junk(draw, st.sampled_from(RESOURCES), junk),
            "modality": _or_junk(draw, st.sampled_from(MODALITIES), junk),
            "voluntary": _or_junk(
                draw, st.sampled_from((True, False, "yes", "no")), junk),
            "familiarity": _or_junk(draw, st.integers(1, 5), junk),
            "complexity": _or_junk(draw, st.integers(1, 5), junk),
            "prerequisites": _or_junk(
                draw,
                st.lists(st.sampled_from(earlier), max_size=3, unique=True)
                if earlier else st.just([]), junk),
        }
        if junk and draw(st.integers(0, 9)) == 0:
            del task[draw(st.sampled_from(sorted(task)))]
        tasks.append(task)
    document = {"tasks": tasks}
    if n > 1 and draw(st.booleans()):
        members = draw(st.lists(st.sampled_from(codes), min_size=1,
                                max_size=3, unique=True))
        document["variant_groups"] = [{"code": "G", "members": members}]
        last = max(map(codes.index, members))
        for i, task in enumerate(tasks):
            prerequisites = task.get("prerequisites")
            if junk or not isinstance(prerequisites, list):
                continue
            # Only the group names its members; what follows every member
            # may follow the group.
            task["prerequisites"] = [code for code in prerequisites
                                     if code not in members]
            if i > last and draw(st.booleans()):
                task["prerequisites"].append("G")
    if draw(st.booleans()):
        document["known_orderings"] = {"ref": _or_junk(
            draw, st.permutations(list(codes)), junk)}
    return document


@st.composite
def cost_model_documents(draw, junk: bool = False):
    """Any subset of the four keys; ``junk`` as in workflow_documents."""
    document = {}
    if draw(st.booleans()):
        cells = draw(st.lists(EFFECTS, min_size=25, max_size=25))
        document["matrix"] = [[0 if i == j else cells[5 * i + j]
                               for j in range(5)] for i in range(5)]
    if draw(st.booleans()):
        labels = draw(st.lists(st.sampled_from(RULE_LABELS), max_size=3,
                               unique_by=lambda label: label.lower()
                               .replace("_", "").replace("-", "")))
        document["rules"] = {label: draw(st.none() | EFFECTS)
                             for label in labels}
    if draw(st.booleans()):
        document["recent_practice_scope"] = draw(st.sampled_from(SCOPES))
    if draw(st.integers(0, 4)) == 0:
        document["rules_enabled"] = draw(st.booleans())
    if junk:
        for key in document:
            document[key] = _or_junk(draw, st.just(document[key]), True)
    return document


class TestWholeDocuments:
    @given(document=workflow_documents(junk=True))
    @settings(max_examples=150, deadline=None)
    def test_workflow_document_parses_or_is_document_error(self, document):
        try:
            parsed = parse_workflow_document(document)
        except DocumentError:
            return
        # A parsed workflow holds well-typed records, so validation reports
        # its faults as data.
        validate_workflow(parsed.workflow)

    @given(document=cost_model_documents(junk=True))
    @settings(max_examples=150, deadline=None)
    def test_cost_model_document_parses_or_is_document_error(self,
                                                              document):
        try:
            parse_cost_model_document(document)
        except DocumentError:
            pass

    @given(document=workflow_documents(),
           model_document=cost_model_documents(), k=st.integers(1, 8),
           data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_every_route_gives_the_same_top_k(self, document, model_document,
                                              k, data):
        workflow = parse_workflow_document(document).workflow
        model = parse_cost_model_document(model_document)
        assert validate_workflow(workflow).ok
        for group in workflow.variant_groups:
            member = data.draw(st.sampled_from(sorted(group.members)))
            workflow = instantiate_variant(workflow, group.code, member)
        # A full-history model has no adjacent cost table to encode.
        priced = None
        if not model.history_dependent:
            instance = wcsp.encode_workflow(workflow, model)
            priced = [(wcsp.evaluate_assignment(
                          instance,
                          wcsp.ordering_to_assignment(instance, ordering)),
                       ordering)
                      for ordering in permutation_extensions(workflow)]
        for objective in Objective:
            maximize = objective is Objective.MAXIMIZE
            expected = reference_top_k(workflow, model, maximize, k)
            found = solve(SolveRequest(workflow=workflow, model=model,
                                       objective=objective, k=k))
            assert [(s.total, s.ordering) for s in found] == expected
            best = brute_force(workflow, model, objective)
            assert (best.total, best.ordering) == expected[0]
            if priced is not None:
                # A stable sort of the lexicographic list keeps ties in
                # lexicographic order.
                ranked = sorted(priced, key=lambda pair: -pair[0] if maximize
                                else pair[0])
                assert ranked[:k] == expected

