"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single pass/fail
line (plus, for the variant ranking, the calibration report it calls for).
Run with `pytest tests/test_acceptance.py -v` to see the lines.
"""

from __future__ import annotations

import json
import math
import random
import re
from contextlib import contextmanager
from time import perf_counter

import pytest

from cogseq import (
    CostModel,
    Objective,
    Scope,
    SolveRequest,
    Workflow,
    brute_force,
    compare_variants,
    encode_workflow,
    enumerate_linear_extensions,
    evaluate_assignment,
    export_dot,
    fixture_text,
    instantiate_variant,
    is_linear_extension,
    load_fixture,
    ordering_distance,
    ordering_to_assignment,
    sequence_cost,
    solve,
)

from conftest import random_model, random_workflow, run

AUTH_MEMBERS = ("AUPS", "AUPI", "AUCC", "AUPW")

# Totals reported for the study instance this fixture reproduces, in
# integer thousandths of an effect size.
REPORTED_TOTALS = {"AUPS": 5530, "AUCC": 5880, "AUPI": 8180, "AUPW": 8420}


@contextmanager
def criterion(capsys, number: int, title: str):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"criterion {number} ({title}): FAIL")
        raise
    else:
        with capsys.disabled():
            print(f"criterion {number} ({title}): PASS")


@pytest.fixture(scope="module")
def variants(full_document):
    return {
        member: instantiate_variant(full_document.workflow, "AUTH", member)
        for member in AUTH_MEMBERS
    }


def test_criterion_01_oracle_optimality(capsys, variants):
    with criterion(capsys, 1, "oracle optimality"):
        model = CostModel.calibrated()
        for member, workflow in variants.items():
            start = perf_counter()
            (sol,) = solve(SolveRequest(workflow=workflow, model=model))
            elapsed = perf_counter() - start
            assert elapsed < 10.0, f"{member}: solve took {elapsed:.1f}s"
            oracle = brute_force(workflow, model)
            assert sol.total == oracle.total, (
                f"{member}: solve said {sol.total}, "
                f"brute force said {oracle.total}"
            )


def test_criterion_02_variant_ranking(capsys, full_document):
    with criterion(capsys, 2, "variant ranking"):
        model = CostModel.calibrated()
        (comparison,) = compare_variants(full_document.workflow, model)
        ranked = [row.member for row in comparison.rows]
        assert ranked == ["AUPS", "AUCC", "AUPI", "AUPW"], (
            f"rank order is {ranked}"
        )
        with capsys.disabled():
            for row in comparison.rows:
                reported = REPORTED_TOTALS[row.member]
                deviation = abs(row.solution.total - reported) / reported
                flag = "  <-- above 25%" if deviation > 0.25 else ""
                print(
                    f"  {row.member}: computed {row.solution.total / 1000:.3f}"
                    f"  reported {reported / 1000:.2f}"
                    f"  deviation {deviation:.1%}{flag}"
                )
        for row in comparison.rows:
            reported = REPORTED_TOTALS[row.member]
            deviation = abs(row.solution.total - reported) / reported
            assert deviation <= 0.25, (
                f"{row.member}: {deviation:.1%} deviation from {reported}"
            )


def test_criterion_03_mean_switch_cost(capsys, variants):
    with criterion(capsys, 3, "mean switch cost"):
        model = CostModel.calibrated()
        for member, workflow in variants.items():
            (sol,) = solve(SolveRequest(workflow=workflow, model=model))
            assert len(sol.breakdowns) == 12, (
                f"{member}: {len(sol.breakdowns)} transitions"
            )
            mean = sol.total / len(sol.breakdowns) / 1000
            assert 0.3 <= mean <= 0.7, f"{member}: mean {mean:.3f}"


def test_criterion_04_backend_equivalence(capsys):
    with criterion(capsys, 4, "WCSP equals sequence cost"):
        for seed in range(200):
            rng = random.Random(seed)
            workflow = random_workflow(rng, n_max=8, max_extensions=300)
            model = (CostModel() if seed % 2
                     else random_model(rng, scope=Scope.ADJACENT))
            instance = encode_workflow(workflow, model)
            for ordering in enumerate_linear_extensions(workflow):
                assignment = ordering_to_assignment(instance, ordering)
                assert evaluate_assignment(instance, assignment) == \
                    sequence_cost(ordering, workflow, model)[0]


def _with_extra_edge(workflow: Workflow, rng: random.Random) -> Workflow:
    codes = workflow.codes()
    i = rng.randrange(len(codes) - 1)
    j = rng.randrange(i + 1, len(codes))
    # Generated edges only ever point up the code order, so this stays acyclic.
    dependent = workflow.tasks[codes[j]]
    widened = dependent._replace(
        prerequisites=dependent.prerequisites | {codes[i]})
    tasks = [widened if c == codes[j] else workflow.tasks[c] for c in codes]
    return Workflow.from_tasks(tasks)


def test_criterion_05_property_suite(capsys):
    with criterion(capsys, 5, "property suite over 500 workflows"):
        models = (
            CostModel.calibrated(),
            CostModel(),
            None,  # fresh random adjacent model per workflow
            CostModel(recent_practice_scope=Scope.FULL_HISTORY),
        )
        for seed in range(500):
            rng = random.Random(10_000 + seed)
            workflow = random_workflow(rng, n_max=8, max_extensions=250)
            model = models[seed % 4] or random_model(rng, scope=Scope.ADJACENT)
            low = solve(SolveRequest(workflow=workflow, model=model, k=3))
            high = solve(SolveRequest(workflow=workflow, model=model, k=3,
                                      objective=Objective.MAXIMIZE))
            for sol in (*low, *high):
                assert is_linear_extension(sol.ordering, workflow)
            totals = [sequence_cost(o, workflow, model)[0]
                      for o in enumerate_linear_extensions(workflow)]
            assert low[0].total <= min(totals)
            assert high[0].total >= max(totals)
            if len(workflow.tasks) >= 2:
                tighter = _with_extra_edge(workflow, rng)
                (constrained,) = solve(SolveRequest(workflow=tighter,
                                                    model=model))
                assert constrained.total >= low[0].total, (
                    f"seed {seed}: adding an edge lowered the optimum"
                )


def test_criterion_06_pessimal_dominance(capsys, validation_document):
    with criterion(capsys, 6, "pessimal and optimal dominance"):
        workflow = validation_document.workflow
        model = CostModel.calibrated()
        known = validation_document.known_orderings
        optimal_cost = sequence_cost(known["paper_optimal"], workflow, model)[0]
        pessimal_cost = sequence_cost(known["paper_pessimal"], workflow,
                                      model)[0]
        (low,) = solve(SolveRequest(workflow=workflow, model=model))
        (high,) = solve(SolveRequest(workflow=workflow, model=model,
                                     objective=Objective.MAXIMIZE))
        assert low.total <= optimal_cost
        assert high.total >= pessimal_cost


def test_criterion_07_determinism(capsys):
    with criterion(capsys, 7, "byte-identical output across runs"):
        outputs = set()
        for _ in range(20):
            result = run([
                "solve", "checkin-full", "--variant", "AUTH=AUPS",
                "--k", "5", "--format", "json",
            ])
            assert result.exit_code == 0
            outputs.add(result.stdout)
        assert len(outputs) == 1, f"{len(outputs)} distinct outputs"
        payload = json.loads(next(iter(outputs)))
        assert len(payload["solutions"]) == 5


def test_criterion_08_metric_axioms(capsys):
    with criterion(capsys, 8, "metric axioms"):
        rng = random.Random(99)
        for _ in range(1000):
            n = rng.randint(2, 12)
            codes = [f"T{i:02d}" for i in range(n)]
            a, b, c = (tuple(rng.sample(codes, n)) for _ in range(3))
            assert ordering_distance(a, a) == 0.0
            assert (ordering_distance(a, b) == 0.0) == (a == b)
            assert abs(ordering_distance(a, b) - ordering_distance(b, a)) \
                <= 1e-9
            assert ordering_distance(a, c) <= (
                ordering_distance(a, b) + ordering_distance(b, c) + 1e-9)
        swap = ordering_distance(("A", "B", "C"), ("A", "C", "B"))
        assert round(swap, 4) == round(math.sqrt(2), 4) == 1.4142


# Verbatim transcription of the bundled check-in instance: every task row
# exactly as the fixture must store it.
EXPECTED_ROWS = [
    {"code": "LANG", "name": "Select language",
     "resource": "Semantic recognition", "modality": "Touchscreen",
     "voluntary": "No", "familiarity": 5, "complexity": 1,
     "prerequisites": []},
    {"code": "AIRL", "name": "Select airline",
     "resource": "Episodic recognition", "modality": "Touchscreen",
     "voluntary": "No", "familiarity": 5, "complexity": 1,
     "prerequisites": ["LANG"]},
    {"code": "BKRF", "name": "Booking reference",
     "resource": "Visual working memory", "modality": "Touchscreen QWERTY",
     "voluntary": "No", "familiarity": 3, "complexity": 3,
     "prerequisites": ["LANG", "AIRL"]},
    {"code": "AUPS", "name": "Passport scan",
     "resource": "Procedural memory", "modality": "Passport scanner",
     "voluntary": "No", "familiarity": 2, "complexity": 2,
     "prerequisites": ["LANG"]},
    {"code": "AUPI", "name": "Passport information",
     "resource": "Procedural memory", "modality": "Touchscreen QWERTY",
     "voluntary": "No", "familiarity": 2, "complexity": 3,
     "prerequisites": ["LANG"]},
    {"code": "AUCC", "name": "Insert payment card",
     "resource": "Procedural memory", "modality": "Credit card reader",
     "voluntary": "No", "familiarity": 3, "complexity": 2,
     "prerequisites": ["LANG"]},
    {"code": "AUPW", "name": "Password",
     "resource": "Declarative recall", "modality": "Touchscreen QWERTY",
     "voluntary": "No", "familiarity": 4, "complexity": 3,
     "prerequisites": ["LANG"]},
    {"code": "FRBN", "name": "Check forbidden items",
     "resource": "Semantic recognition", "modality": "Touchscreen",
     "voluntary": "No", "familiarity": 2, "complexity": 3,
     "prerequisites": ["LANG"]},
    {"code": "LIQH", "name": "Check liquids",
     "resource": "Episodic", "modality": "Touchscreen",
     "voluntary": "No", "familiarity": 3, "complexity": 3,
     "prerequisites": ["LANG"]},
    {"code": "DIMH", "name": "Check luggage size",
     "resource": "Visual working memory", "modality": "Touchscreen",
     "voluntary": "No", "familiarity": 2, "complexity": 4,
     "prerequisites": ["LANG", "AIRL"]},
    {"code": "STSO", "name": "Select outbound seat",
     "resource": "Visual working memory", "modality": "Touchscreen",
     "voluntary": "Yes", "familiarity": 2, "complexity": 4,
     "prerequisites": ["LANG", "BKRF"]},
    {"code": "STSR", "name": "Select return seat",
     "resource": "Visual working memory", "modality": "Touchscreen",
     "voluntary": "Yes", "familiarity": 2, "complexity": 4,
     "prerequisites": ["LANG", "BKRF"]},
    {"code": "EXBG", "name": "Buy extra bag",
     "resource": "Episodic", "modality": "Touchscreen",
     "voluntary": "Yes", "familiarity": 2, "complexity": 2,
     "prerequisites": ["LANG", "BKRF"]},
    {"code": "CFRM", "name": "Confirm",
     "resource": "Episodic", "modality": "Touchscreen",
     "voluntary": "No", "familiarity": 4, "complexity": 2,
     "prerequisites": ["LANG", "BKRF", "AUTH", "LIQH", "DIMH", "EXBG"]},
    {"code": "PRLT", "name": "Print luggage tag",
     "resource": "Procedural memory", "modality": "Luggage tag",
     "voluntary": "No", "familiarity": 1, "complexity": 5,
     "prerequisites": ["LANG", "EXBG", "CFRM"]},
    {"code": "PRBP", "name": "Print boarding pass",
     "resource": "Episodic", "modality": "Touchscreen",
     "voluntary": "Yes", "familiarity": 4, "complexity": 2,
     "prerequisites": ["LANG", "CFRM"]},
]


def test_criterion_09_fixture_fidelity(capsys):
    with criterion(capsys, 9, "fixture fidelity"):
        raw = json.loads(fixture_text("checkin-full.json"))
        assert raw["tasks"] == EXPECTED_ROWS
        assert raw["variant_groups"] == [
            {"code": "AUTH", "members": ["AUPS", "AUPI", "AUCC", "AUPW"]}
        ]
        expected_edges = {
            (pre, row["code"])
            for row in EXPECTED_ROWS
            for pre in row["prerequisites"]
        }
        assert len(expected_edges) == 28
        dot = export_dot(load_fixture("checkin-full.json").workflow)
        drawn = set(re.findall(r'"(\w+)" -> "(\w+)"', dot))
        assert drawn == expected_edges
