"""Solver: optimality against oracles, determinism, tie-breaks, comparisons."""

from __future__ import annotations

import gc
import math
import random
from itertools import islice, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cogseq
from cogseq import _backend, _search, solver
from cogseq import (
    BudgetExceededError,
    CogseqError,
    CostModel,
    Objective,
    Resource,
    Scope,
    SolveRequest,
    VariantGroup,
    Workflow,
    WorkflowError,
    brute_force,
    compare_variants,
    count_linear_extensions,
    enumerate_linear_extensions,
    instantiate_variant,
    pair_cost,
    sequence_cost,
    solve,
    transition_cost,
    validate_workflow,
)
from cogseq.costs import RULE_ORDER, Rule
from cogseq.model import RESOURCE_ORDER

from conftest import (
    MODALITIES,
    random_model,
    random_workflow,
    reference_optimum,
    reference_top_k,
    simple_task,
)


def _totals(solutions):
    return [(sol.total, sol.ordering) for sol in solutions]


class TestParsing:
    @pytest.mark.parametrize("label,member", [
        ("min", Objective.MINIMIZE), ("MAX", Objective.MAXIMIZE),
        ("minimise", Objective.MINIMIZE), ("maximize", Objective.MAXIMIZE),
    ])
    def test_objective(self, label, member):
        assert Objective.parse(label) is member

    def test_parse_failures(self):
        with pytest.raises(CogseqError, match="unknown objective"):
            Objective.parse("median")
        with pytest.raises(CogseqError, match="unknown objective 3"):
            Objective.parse(3)


class TestRequestValidation:
    def test_k_must_be_positive(self):
        wf = Workflow.from_tasks([simple_task("A")])
        with pytest.raises(CogseqError, match="k must be"):
            SolveRequest(workflow=wf, k=0)

    @pytest.mark.parametrize("k", [1.5, "3", None, True],
                             ids=["float", "str", "none", "bool"])
    def test_k_must_be_an_int(self, k):
        wf = Workflow.from_tasks([simple_task("A")])
        with pytest.raises(CogseqError, match="k must be"):
            SolveRequest(workflow=wf, k=k)

    def test_objective_must_be_an_objective(self):
        wf = Workflow.from_tasks([simple_task("A")])
        with pytest.raises(CogseqError, match="objective must be"):
            SolveRequest(workflow=wf, objective="max")
        with pytest.raises(CogseqError, match="objective must be"):
            SolveRequest(workflow=wf)._replace(objective="max")

    def test_brute_force_objective_must_be_an_objective(self):
        wf = Workflow.from_tasks([simple_task("A")])
        with pytest.raises(CogseqError, match="objective must be"):
            brute_force(wf, CostModel(), "max")

    @pytest.mark.parametrize("call", [
        lambda wf: SolveRequest(workflow=wf, model="literal"),
        lambda wf: SolveRequest(workflow=None),
        lambda wf: SolveRequest(workflow=wf)._replace(model="literal"),
        lambda wf: brute_force(wf, "literal"),
        lambda wf: brute_force(None, CostModel()),
        lambda wf: compare_variants(wf, "x"),
        lambda wf: compare_variants(None, CostModel()),
    ], ids=["request-model", "request-workflow", "replace-model",
            "brute-force-model", "brute-force-workflow", "compare-model",
            "compare-workflow"])
    def test_inputs_must_be_a_workflow_and_a_cost_model(self, call):
        wf = Workflow.from_tasks([simple_task("A")])
        with pytest.raises(CogseqError,
                           match="must be a (Workflow|CostModel)"):
            call(wf)

    def test_grouped_workflow_rejected(self, full_document):
        with pytest.raises(WorkflowError, match="concrete"):
            solve(SolveRequest(workflow=full_document.workflow))

    def test_invalid_workflow_rejected(self):
        wf = Workflow.from_tasks([
            simple_task("A", prerequisites=("B",)),
            simple_task("B", prerequisites=("A",)),
        ])
        with pytest.raises(WorkflowError, match="invalid workflow"):
            solve(SolveRequest(workflow=wf))


class TestBasics:
    def test_chain_has_single_answer(self):
        wf = Workflow.from_tasks([
            simple_task("A"),
            simple_task("B", prerequisites=("A",)),
            simple_task("C", prerequisites=("B",)),
        ])
        model = CostModel.calibrated()
        (sol,) = solve(SolveRequest(workflow=wf, model=model))
        assert sol.ordering == ("A", "B", "C")
        assert sol.total == sequence_cost(sol.ordering, wf, model)[0]
        assert len(sol.breakdowns) == 2

    def test_single_task(self):
        wf = Workflow.from_tasks([simple_task("A")])
        (sol,) = solve(SolveRequest(workflow=wf))
        assert sol.ordering == ("A",)
        assert sol.total == 0
        assert sol.breakdowns == ()

    def test_stats_are_populated(self, validation_document):
        (sol,) = solve(SolveRequest(workflow=validation_document.workflow))
        assert sol.stats.nodes > 0
        assert sol.stats.elapsed >= 0.0

    def test_k_beyond_extension_count_returns_all(self):
        wf = Workflow.from_tasks([simple_task(c) for c in "AB"])
        solutions = solve(SolveRequest(workflow=wf, k=10))
        assert len(solutions) == 2
        assert {s.ordering for s in solutions} == {("A", "B"), ("B", "A")}

    def test_seventy_task_chain(self):
        # Task sets are Python-int bitmasks, so more than 64 tasks take the
        # same path as any other workflow.
        tasks = [simple_task("T00")]
        for i in range(1, 70):
            tasks.append(simple_task(f"T{i:02d}", prerequisites=(f"T{i-1:02d}",)))
        wf = Workflow.from_tasks(tasks)
        (sol,) = solve(SolveRequest(workflow=wf))
        assert sol.ordering == tuple(sorted(wf.tasks))
        assert (sol.stats.nodes, sol.stats.prunes) == (70, 0)

    def test_empty_workflow(self):
        (sol,) = solve(SolveRequest(workflow=Workflow.from_tasks([])))
        assert (sol.ordering, sol.total, sol.stats.nodes) == ((), 0, 0)


class TestTieBreaks:
    def test_identical_antichain_prefers_lex_order(self):
        wf = Workflow.from_tasks([simple_task(c) for c in "ABCD"])
        solutions = solve(SolveRequest(workflow=wf, k=5))
        orderings = [sol.ordering for sol in solutions]
        assert orderings == [
            ("A", "B", "C", "D"),
            ("A", "B", "D", "C"),
            ("A", "C", "B", "D"),
            ("A", "C", "D", "B"),
            ("A", "D", "B", "C"),
        ]
        assert len({sol.total for sol in solutions}) == 1

    @pytest.mark.parametrize("objective", list(Objective))
    def test_all_ties_follow_enumeration_order(self, objective):
        # Rules off and one resource: every ordering costs 0, so the
        # tie-break alone decides which k come back and in what order.
        wf = Workflow.from_tasks([
            simple_task("A"),
            simple_task("B"),
            simple_task("C", prerequisites=("A",)),
            simple_task("D"),
            simple_task("E", prerequisites=("B",)),
        ])
        model = CostModel(rules={})
        k = 7
        solutions = solve(SolveRequest(workflow=wf, model=model,
                                       objective=objective, k=k))
        expected = list(islice(enumerate_linear_extensions(wf), k))
        assert [sol.ordering for sol in solutions] == expected
        assert {sol.total for sol in solutions} == {0}
        oracle = brute_force(wf, model, objective=objective)
        assert (oracle.ordering, oracle.total) == (expected[0], 0)

    def test_brute_force_picks_cheaper_direction(self):
        a = simple_task("A", resource=Resource.SR)
        b = simple_task("B", resource=Resource.ER)
        wf = Workflow.from_tasks([a, b])
        model = CostModel(rules={})
        low = brute_force(wf, model)
        high = brute_force(wf, model, objective=Objective.MAXIMIZE)
        assert (low.ordering, low.total) == (("B", "A"), 354)
        assert (high.ordering, high.total) == (("A", "B"), 433)


class TestDeterminism:
    def test_repeated_solves_are_identical(self, validation_document):
        wf = validation_document.workflow
        request = SolveRequest(workflow=wf, k=5)
        first = _totals(solve(request))
        for _ in range(9):
            assert _totals(solve(request)) == first


#: The calibrated, literal and full-history configurations.
MODELS = (
    CostModel.calibrated(),
    CostModel(),
    CostModel(recent_practice_scope=Scope.FULL_HISTORY),
)


class TestBackendAgreement:
    @pytest.mark.parametrize("seed", range(60))
    def test_top_k_lists_match_exhaustive(self, seed):
        # Whole ranked lists, orderings included, for every k up to 6.
        rng = random.Random(3000 + seed)
        wf = random_workflow(rng, n_max=7)
        for model in MODELS:
            for objective in Objective:
                oracle = reference_top_k(
                    wf, model, objective is Objective.MAXIMIZE, 6)
                for k in range(1, 7):
                    fast = solve(SolveRequest(workflow=wf, model=model,
                                              objective=objective, k=k))
                    assert _totals(fast) == oracle[:k]

    @pytest.mark.parametrize("seed", range(25))
    def test_bnb_matches_exhaustive(self, seed):
        rng = random.Random(seed)
        wf = random_workflow(rng, n_max=7)
        scope = Scope.FULL_HISTORY if seed % 3 == 0 else Scope.ADJACENT
        model = random_model(rng, scope=scope)
        objective = Objective.MAXIMIZE if seed % 2 else Objective.MINIMIZE
        k = rng.choice((1, 3))
        fast = solve(SolveRequest(workflow=wf, model=model,
                                  objective=objective, k=k))
        assert _totals(fast) == reference_top_k(
            wf, model, objective is Objective.MAXIMIZE, k)

    @pytest.mark.parametrize("seed", range(10))
    def test_brute_force_agrees_with_solve(self, seed):
        rng = random.Random(500 + seed)
        wf = random_workflow(rng, n_max=7)
        model = random_model(rng)
        for objective in (Objective.MINIMIZE, Objective.MAXIMIZE):
            (sol,) = solve(SolveRequest(workflow=wf, model=model,
                                        objective=objective))
            oracle = brute_force(wf, model, objective=objective)
            assert (sol.total, sol.ordering) == (oracle.total, oracle.ordering)

    @pytest.mark.parametrize("seed", range(6))
    def test_full_history_solve_is_optimal(self, seed):
        rng = random.Random(900 + seed)
        wf = random_workflow(rng, n_max=6)
        model = CostModel(recent_practice_scope=Scope.FULL_HISTORY)
        (low,) = solve(SolveRequest(workflow=wf, model=model))
        (high,) = solve(SolveRequest(workflow=wf, model=model,
                                     objective=Objective.MAXIMIZE))
        totals = [sequence_cost(o, wf, model)[0]
                  for o in enumerate_linear_extensions(wf)]
        assert low.total == min(totals)
        assert high.total == max(totals)


def _add_copies(wf: Workflow, original: str, codes) -> Workflow:
    """``wf`` plus exact copies of ``original`` under ``codes``: the same
    properties and prerequisites, and each of its dependents made to depend
    on every copy."""
    tasks = dict(wf.tasks)
    for code in codes:
        tasks[code] = tasks[original]._replace(code=code, name=code)
    for code, task in tasks.items():
        if original in task.prerequisites:
            tasks[code] = task._replace(
                prerequisites=task.prerequisites | set(codes))
    return Workflow.from_tasks(tasks.values())


def _with_copies(wf: Workflow, rng: random.Random) -> Workflow:
    original = rng.choice(sorted(wf.tasks))
    return _add_copies(wf, original,
                       [f"C{j}" for j in range(rng.randint(1, 2))])


def _ancestors(wf: Workflow, code: str) -> set[str]:
    found: set[str] = set()
    todo = list(wf.tasks[code].prerequisites)
    while todo:
        pre = todo.pop()
        if pre not in found:
            found.add(pre)
            todo.extend(wf.tasks[pre].prerequisites)
    return found


def _descendants(wf: Workflow, code: str) -> set[str]:
    return {c for c in wf.tasks if code in _ancestors(wf, c)}


#: What tells a near-twin from its original: one property, or one descendant.
NEAR_KINDS = ("resource", "modality", "voluntary", "familiarity",
              "complexity", "dependent")


@st.composite
def twin_workflows(draw):
    """(workflow, original, copies, near): a random workflow of 1-4 tasks
    plus 1-2 exact copies of its task ``original``, one of which may have a
    redundant edge (to an ancestor or descendant that is not a neighbour),
    and with ``near`` not None a copy that differs from it in one property
    or one descendant.  Codes are shuffled, so twins sit anywhere in index
    order."""
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from((None,) + NEAR_KINDS))
    n_copies = draw(st.integers(1, min(2, 6 - n - (kind is not None))))
    labels = draw(st.permutations("ABCDEFG"))
    tasks = [simple_task(
        labels[i], resource=draw(st.sampled_from(list(Resource))),
        modality=draw(st.sampled_from(MODALITIES[:2])),
        voluntary=draw(st.booleans()), familiarity=draw(st.integers(1, 5)),
        complexity=draw(st.integers(1, 5)),
        prerequisites=[labels[j] for j in range(i) if draw(st.booleans())])
        for i in range(n)]
    original = labels[draw(st.integers(0, n - 1))]
    copies = labels[n:n + n_copies]
    wf = _add_copies(Workflow.from_tasks(tasks), original, copies)
    redundant = (
        [(a, copies[0]) for a in sorted(_ancestors(wf, original)
                                        - wf.tasks[original].prerequisites)]
        + [(copies[0], d) for d in sorted(_descendants(wf, original))
           if original not in wf.tasks[d].prerequisites])
    if redundant and draw(st.booleans()):
        pre, code = draw(st.sampled_from(redundant))
        task = wf.tasks[code]
        wf = Workflow.from_tasks({**wf.tasks, code: task._replace(
            prerequisites=task.prerequisites | {pre})}.values())
    if kind is None:
        return wf, original, copies, None
    near = labels[n + n_copies]
    wf = _add_copies(wf, original, [near])
    tasks = dict(wf.tasks)
    task = tasks[near]
    if kind == "dependent":
        # A dependent no other dependent leads to, so dropping its edge
        # drops it from the descendants.
        dependents = sorted(
            d for d, t in tasks.items() if near in t.prerequisites
            and not any(near in u.prerequisites and d in _descendants(wf, c)
                        for c, u in tasks.items()))
        # A new dependent must be no descendant yet and must not lead back
        # to the near-twin's ancestors.
        others = sorted(set(tasks) - _descendants(wf, original)
                        - {original, near} - set(copies)
                        - _ancestors(wf, original))
        if dependents and (not others or draw(st.booleans())):
            code = draw(st.sampled_from(dependents))
            tasks[code] = tasks[code]._replace(
                prerequisites=tasks[code].prerequisites - {near})
        elif others:
            code = draw(st.sampled_from(others))
            tasks[code] = tasks[code]._replace(
                prerequisites=tasks[code].prerequisites | {near})
        else:
            kind = "familiarity"
    if kind == "resource":
        task = task._replace(resource=draw(st.sampled_from(
            [r for r in Resource if r is not task.resource])))
    elif kind == "modality":
        task = task._replace(modality="speech")
    elif kind == "voluntary":
        task = task._replace(voluntary=not task.voluntary)
    elif kind in ("familiarity", "complexity"):
        value = getattr(task, kind)
        task = task._replace(**{kind: draw(st.sampled_from(
            [v for v in range(1, 6) if v != value]))})
    tasks[near] = task
    return Workflow.from_tasks(tasks.values()), original, copies, near


def _expected_twins(wf: Workflow) -> list[tuple[str, ...]]:
    """Oracle: codes grouped by properties, ancestors and descendants."""
    groups: dict[tuple, list[str]] = {}
    for code in sorted(wf.tasks):
        task = wf.tasks[code]
        groups.setdefault((task.resource, task.modality, task.voluntary,
                           task.familiarity, task.complexity,
                           frozenset(_ancestors(wf, code)),
                           frozenset(_descendants(wf, code))),
                          []).append(code)
    return sorted(tuple(g) for g in groups.values() if len(g) > 1)


class TestTwins:
    """Interchangeable tasks share one state of the dynamic program."""

    FUZZ_MODELS = (*MODELS, CostModel(rules={}))

    def test_checkin_seat_steps_are_twins(self, full_document):
        for member in sorted(full_document.workflow.variant_groups[0].members):
            wf = instantiate_variant(full_document.workflow, "AUTH", member)
            codes, *_, twins = _kernel_inputs(wf, CostModel())
            assert [tuple(codes[t] for t in c) for c in twins] == [
                ("STSO", "STSR")]

    def test_redundant_edge_hides_no_twins(self, full_document):
        # LANG precedes BKRF, so STSO's own LANG prerequisite is redundant:
        # without it the seat steps are still twins, and nothing changes.
        wf = instantiate_variant(full_document.workflow, "AUTH", "AUPS")
        stso = wf.tasks["STSO"]
        trimmed = Workflow.from_tasks({**wf.tasks, "STSO": stso._replace(
            prerequisites=stso.prerequisites - {"LANG"})}.values())
        codes, *_, twins = _kernel_inputs(trimmed, CostModel())
        assert [tuple(codes[t] for t in c) for c in twins] == [
            ("STSO", "STSR")]
        for objective in Objective:
            request = SolveRequest(workflow=wf, objective=objective, k=10)
            before = solve(request)
            after = solve(request._replace(workflow=trimmed))
            assert _totals(after) == _totals(before)
            assert after[0].stats[:2] == before[0].stats[:2]

    def test_chain_has_no_twins(self):
        *_, twins = _kernel_inputs(_random_chain(70, seed=4), CostModel())
        assert twins == ()

    @given(case=twin_workflows())
    @settings(max_examples=120, deadline=None)
    def test_top_k_lists_match_oracle(self, case):
        wf, original, copies, near = case
        for model in self.FUZZ_MODELS:
            codes, *_, twins = _kernel_inputs(wf, model)
            named = [tuple(codes[t] for t in c) for c in twins]
            assert named == _expected_twins(wf)
            (mine,) = [c for c in named if original in c]
            assert set(copies) <= set(mine) and near not in mine
            for maximize in (False, True):
                oracle = reference_top_k(wf, model, maximize, 7)
                _, *graph, pair, shares, rp_cost, twins = _kernel_inputs(
                    wf, model, -1 if maximize else 1)
                for k in (1, 3, 7):
                    found = solve(SolveRequest(
                        workflow=wf, model=model, k=k,
                        objective=(Objective.MAXIMIZE if maximize
                                   else Objective.MINIMIZE)))
                    assert _totals(found) == oracle[:k]
                    args = (pair, shares, rp_cost, k)
                    assert (_search.search(_search.lattice(*graph, twins),
                                           *args)
                            == _search.search(_search.lattice(*graph, ()),
                                              *args))


class TestReferenceOptimum:
    """``solve`` against ``reference_optimum``, a dynamic program on (placed
    codes, last code), on 10-13 tasks: past enumeration, since 12 unordered
    tasks have 479,001,600 orderings.  Half the workflows hold a class of
    2-6 twins, which the search chains and the program does not."""

    KINDS = ("calibrated", "literal", "full-history", "random-adjacent",
             "random-full")

    @pytest.mark.parametrize("edge_p", [0.0, 0.1], ids=["edgeless", "sparse"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_solve_attains_the_optimum(self, kind, edge_p):
        rng = random.Random(f"{kind} {edge_p}")
        index = self.KINDS.index(kind)
        # The first three kinds are MODELS; the last two are random, one
        # under each scope.
        model = MODELS[index] if index < 3 else random_model(
            rng, (Scope.ADJACENT, Scope.FULL_HISTORY)[index - 3])
        # A 13-task antichain takes the program about 2 s per objective.
        n = rng.randint(10, 12 if edge_p == 0 else 13)
        # Twins in alternate cases: five of the ten.
        copies = rng.randint(1, 5) if (index + (edge_p > 0)) % 2 else 0
        wf = random_workflow(rng, n_min=n - copies, n_max=n - copies,
                             edge_p=edge_p, max_extensions=math.inf)
        if copies:
            wf = _add_copies(wf, rng.choice(sorted(wf.tasks)),
                             [f"C{j}" for j in range(copies)])
        for objective in Objective:
            (best,) = solve(SolveRequest(workflow=wf, model=model,
                                         objective=objective))
            # The program's ordering is a linear extension priced at its
            # total by construction, and the lexicographically smallest one.
            assert (best.total, best.ordering) == reference_optimum(
                wf, model, objective is Objective.MAXIMIZE)


class TestBudget:
    def test_exhaustive_budget_is_enforced(self):
        wf = Workflow.from_tasks([simple_task(f"T{i:02d}") for i in range(11)])
        with pytest.raises(BudgetExceededError) as err:
            brute_force(wf, CostModel())
        assert err.value.count == 39_916_800
        assert "39916800" in str(err.value) or "39,916,800" in str(err.value)

    def test_brute_force_budget(self, monkeypatch):
        def no_enumeration(graph):
            raise AssertionError("enumerated past the budget")

        monkeypatch.setattr("cogseq.solver._linear_extensions",
                            no_enumeration)
        wf = Workflow.from_tasks([simple_task(f"T{i:02d}") for i in range(11)])
        with pytest.raises(BudgetExceededError) as err:
            brute_force(wf, CostModel())
        assert (err.value.budget, err.value.what) == (
            10_000_000, "linear extensions")

    def test_brute_force_counting_budget(self, monkeypatch):
        # Four unordered tasks have 15 order ideals short of the full set.
        monkeypatch.setattr("cogseq.model.MAX_COUNTED_IDEALS", 14)
        wf = Workflow.from_tasks([simple_task(c) for c in "ABCD"])
        with pytest.raises(BudgetExceededError) as err:
            brute_force(wf, CostModel())
        assert (err.value.count, err.value.budget, err.value.what) == (
            15, 14, "order ideals or more")

    def test_brute_force_validates_once(self, monkeypatch):
        calls = []

        def counting(workflow):
            calls.append(workflow)
            return validate_workflow(workflow)

        # The solver's name and the model's, which the public enumerator
        # and counter call.
        monkeypatch.setattr("cogseq.solver.validate_workflow", counting)
        monkeypatch.setattr("cogseq.model.validate_workflow", counting)
        wf = Workflow.from_tasks([simple_task("A"), simple_task("B"),
                                  simple_task("C", prerequisites=("A",))])
        best = brute_force(wf, CostModel())
        assert best.stats.nodes == 3
        assert calls == [wf]

    def test_bnb_solves_within_ideal_budget(self):
        # The same workflow has only 2**11 = 2048 order ideals.
        wf = Workflow.from_tasks([simple_task(f"T{i:02d}") for i in range(11)])
        (sol,) = solve(SolveRequest(workflow=wf))
        assert len(sol.ordering) == 11

    def test_bnb_ideal_budget_is_enforced(self, monkeypatch):
        # Ten unordered tasks of distinct profiles: no twins, so 1024 ideals.
        monkeypatch.setattr("cogseq._search.MAX_IDEALS", 100)
        wf = Workflow.from_tasks([simple_task(f"T{i:02d}", modality=f"m{i}")
                                  for i in range(10)])
        with pytest.raises(BudgetExceededError) as err:
            solve(SolveRequest(workflow=wf))
        assert (err.value.count, err.value.budget) == (101, 100)
        assert "101 order ideals" in str(err.value)

    def test_step_budget_ends_many_passes(self, monkeypatch, full_document):
        # A huge k on check-in asks for all 114,624 orderings, whose
        # search takes 343,698 steps: far past this budget.
        monkeypatch.setattr("cogseq._search.MAX_STEPS", 5000)
        wf = instantiate_variant(full_document.workflow, "AUTH", "AUPS")
        with pytest.raises(BudgetExceededError) as err:
            solve(SolveRequest(workflow=wf, k=10 ** 20))
        assert (err.value.budget, err.value.what) == (
            5000, "search steps or more")
        assert err.value.count > 5000
        assert str(err.value) == (
            f"request takes {err.value.count} search steps or more, "
            "exceeding the budget of 5000")

    def test_step_budget_ends_one_pass(self, monkeypatch):
        # Eight identical tasks: all 40,320 orderings tie, so the search
        # would collect every one of them; the budget stops it midway.
        monkeypatch.setattr("cogseq._search.MAX_STEPS", 1000)
        wf = Workflow.from_tasks([simple_task(f"T{i}") for i in range(8)])
        with pytest.raises(BudgetExceededError) as err:
            solve(SolveRequest(workflow=wf, k=10 ** 6))
        assert err.value.what == "search steps or more"
        assert 1000 < err.value.count < 2000

    @pytest.mark.parametrize("objective", list(Objective))
    def test_identical_tasks_solve_past_eighteen(self, objective):
        # Thirty unordered twins form one class of 31 canonical ideals, far
        # under the cap that 2**30 plain ideals would pass.  Every ordering
        # costs the same, so the top k are the first k in code order.
        wf = Workflow.from_tasks([simple_task(f"T{i:02d}") for i in range(30)])
        model = CostModel(recent_practice_scope=Scope.FULL_HISTORY)
        solutions = solve(SolveRequest(workflow=wf, model=model,
                                       objective=objective, k=5))
        expected = list(islice(permutations(sorted(wf.tasks)), 5))
        assert [sol.ordering for sol in solutions] == expected
        assert len({sol.total for sol in solutions}) == 1


class TestThresholdPasses:
    """The top-k lists of the search's best-first pass: ties, k past the
    extension count, several totals, and the steps it tries."""

    @pytest.mark.parametrize("objective", list(Objective))
    def test_zero_effect_ties_keep_extension_order(self, objective):
        # Every effect size 0: every prefix has key 0, and the first k
        # leaves reached must be the first k extensions.
        zero = CostModel(
            matrix=((0,) * 5,) * 5,
            rules=dict.fromkeys(RULE_ORDER, 0),
            recent_practice_scope=Scope.FULL_HISTORY)
        wf = Workflow.from_tasks([
            simple_task("A", resource=Resource.SR),
            simple_task("B", resource=Resource.ER, voluntary=True),
            simple_task("C", prerequisites=("A",), modality="speech"),
            simple_task("D", resource=Resource.PM, familiarity=5),
            simple_task("E", prerequisites=("B",), complexity=1),
        ])
        expected = list(islice(enumerate_linear_extensions(wf), 6))
        for k in range(1, 7):
            solutions = solve(SolveRequest(workflow=wf, model=zero,
                                           objective=objective, k=k))
            assert [sol.ordering for sol in solutions] == expected[:k]
            assert {sol.total for sol in solutions} == {0}

    @pytest.mark.parametrize("objective", list(Objective))
    def test_k_beyond_extension_count_returns_every_extension(self, objective):
        # The search runs until no deferred step is left.
        wf = Workflow.from_tasks([
            simple_task("A", resource=Resource.SR),
            simple_task("B", resource=Resource.ER, voluntary=True),
            simple_task("C", prerequisites=("A",), modality="speech"),
            simple_task("D", resource=Resource.PM, familiarity=5),
        ])
        model = CostModel(recent_practice_scope=Scope.FULL_HISTORY)
        maximize = objective is Objective.MAXIMIZE
        solutions = solve(SolveRequest(workflow=wf, model=model,
                                       objective=objective, k=100))
        assert len(solutions) == count_linear_extensions(wf) == 12
        assert _totals(solutions) == reference_top_k(wf, model, maximize, 100)

    @pytest.mark.parametrize("seed", range(20))
    def test_multi_pass_lists_match_oracle(self, seed):
        rng = random.Random(7000 + seed)
        wf = random_workflow(rng, n_min=5, n_max=7)
        model = CostModel(recent_practice_scope=Scope.FULL_HISTORY)
        for objective in Objective:
            oracle = reference_top_k(
                wf, model, objective is Objective.MAXIMIZE, 12)
            # Two totals or more: the list goes on past the first total
            # only through steps the search deferred to its heap.
            assert len({total for total, _ in oracle}) > 1
            for k in (2, 5, 12):
                solutions = solve(SolveRequest(workflow=wf, model=model,
                                               objective=objective, k=k))
                assert _totals(solutions) == oracle[:k]

    def test_checkin_optimum_takes_few_nodes(self, full_document):
        # The search follows only steps on optimal orderings and defers
        # the others unexplored; a branch and bound that prunes nothing
        # until it holds k leaves tried 295 steps here.
        wf = instantiate_variant(full_document.workflow, "AUTH", "AUPS")
        (sol,) = solve(SolveRequest(workflow=wf, model=CostModel.calibrated()))
        assert sol.stats.nodes <= 42

    @pytest.mark.parametrize("objective,k,counts", [
        (Objective.MINIMIZE, 1, (42, 29)),
        (Objective.MINIMIZE, 10, (195, 124)),
        (Objective.MAXIMIZE, 10, (176, 106)),
    ])
    def test_checkin_search_counts(self, full_document, objective, k, counts):
        # Pinned so that a change to the search's loops that alters which
        # steps it tries, and not only how fast, shows here.
        wf = instantiate_variant(full_document.workflow, "AUTH", "AUPS")
        solutions = solve(SolveRequest(workflow=wf, model=CostModel.calibrated(),
                                       objective=objective, k=k))
        assert len(solutions) == k
        assert (solutions[0].stats.nodes, solutions[0].stats.prunes) == counts

    @pytest.mark.parametrize("objective", list(Objective))
    def test_last_dive_defers_nothing(self, full_document, monkeypatch,
                                      objective):
        # At k = 1 the only dive is the last, so no step reaches the heap;
        # the deferred steps are still counted as prunes.
        def refuse(heap, entry):
            raise AssertionError("k = 1 pushed a deferred step")

        monkeypatch.setattr(_search, "heappush", refuse)
        wf = instantiate_variant(full_document.workflow, "AUTH", "AUPS")
        (solution,) = solve(SolveRequest(workflow=wf, objective=objective))
        assert solution.stats.prunes > 0

    def test_every_validation_ordering_without_rewalks(self,
                                                       validation_document):
        # 1,860 orderings over many totals: a search that walked every
        # earlier ordering again before each new total took 2,233,638
        # steps here.
        wf = validation_document.workflow
        model = CostModel.calibrated()
        solutions = solve(SolveRequest(workflow=wf, model=model, k=2000))
        expected = sorted((sequence_cost(ordering, wf, model)[0], ordering)
                          for ordering in enumerate_linear_extensions(wf))
        assert len(expected) == 1860
        assert _totals(solutions) == expected
        assert solutions[0].stats.nodes <= 10_000


class TestSearchEngine:
    def test_long_chain_needs_no_recursion(self):
        # Deeper than the default recursion limit.
        n = 1500
        preds = [0] + [1 << (i - 1) for i in range(1, n)]
        succ = [(i + 1,) for i in range(n - 1)] + [()]
        pair = [[0] * n for _ in range(n)]
        solutions, nodes, prunes = _search.search(
            _search.lattice(preds, succ, ()), pair, [0] * n, 0, 1)
        assert solutions == [(0, tuple(range(n)))]
        assert (nodes, prunes) == (n, 0)

    @pytest.mark.parametrize("model", MODELS,
                             ids=["calibrated", "literal", "full-history"])
    def test_maximize_negates_every_price(self, model):
        # A maximizing solve is the same minimizing search on negated prices.
        wf = random_workflow(random.Random(72), n_min=7, n_max=7)
        *_, pair, shares, rp_cost, _ = _searched_inputs(wf, model)
        *_, negated, negated_shares, negated_rp, _ = _searched_inputs(
            wf, model, maximize=True)
        assert _priced_pairs(negated)
        for a, row in enumerate(negated):
            for b, cost in row.items():
                assert cost == -pair[a][b]
        assert (negated_shares, negated_rp) == (shares, -rp_cost)

    def test_twin_chaining_leaves_the_graph_alone(self):
        wf = Workflow.from_tasks([simple_task(code) for code in "ABCD"])
        _, preds, succ, pair, shares, rp_cost, twins = _kernel_inputs(
            wf, CostModel())
        assert twins == ((0, 1, 2, 3),)
        preds, succ = list(preds), [list(row) for row in succ]
        solutions, _, _ = _search.search(_search.lattice(preds, succ, twins),
                                         pair, shares, rp_cost, 30)
        assert len(solutions) == 24
        assert (preds, succ) == ([0] * 4, [[]] * 4)

    @pytest.mark.parametrize("seed", range(30))
    def test_ideals_are_the_prerequisite_closed_subsets(self, seed):
        rng = random.Random(7000 + seed)
        wf = random_workflow(rng, n_max=9, edge_p=rng.choice((0.0, 0.2, 0.5)),
                             max_extensions=math.factorial(9))
        codes = sorted(wf.tasks)
        n = len(codes)
        prereqs = [{codes.index(p) for p in wf.tasks[code].prerequisites}
                   for code in codes]

        def eligible(placed):
            return [t for t in range(n)
                    if t not in placed and prereqs[t] <= placed]

        closed = {}
        for mask in range(1 << n):
            placed = {t for t in range(n) if mask >> t & 1}
            if all(prereqs[t] <= placed for t in placed):
                closed[mask] = eligible(placed)
        _, preds, succ = validate_workflow(wf).graph
        elig = _search._ideals(preds, succ)
        assert elig == closed
        sizes = [mask.bit_count() for mask in elig]
        assert sizes == sorted(sizes)

    def test_a_finished_search_leaves_no_reference_cycle(self,
                                                          full_document):
        # Reference counting alone frees the search's tables, twin rows
        # included: no collector pass is needed after a solve.
        twinned = instantiate_variant(full_document.workflow, "AUTH", "AUPS")
        plain = random_workflow(random.Random(74), n_min=7, n_max=7)
        assert _kernel_inputs(twinned, CostModel.calibrated())[-1]
        assert not _kernel_inputs(plain, CostModel.calibrated())[-1]
        gc.collect()
        gc.disable()
        try:
            for wf in (twinned, plain):
                for objective in Objective:
                    for k in (1, 10):
                        solve(SolveRequest(workflow=wf, k=k,
                                           objective=objective))
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("seed", range(30))
    def test_rows_hold_the_least_cost_to_go(self, monkeypatch, seed):
        # After a search, every canonical row and every row _RealRows built
        # pairs each eligible task with the least signed cost of finishing
        # after placing it there, found by enumerating every extension.
        rng = random.Random(9500 + seed)
        if seed % 2:
            wf = _with_copies(random_workflow(rng, n_max=5), rng)
        else:
            wf = random_workflow(rng, n_max=7)
        seen = {}
        cost_to_go, top_k = _search._cost_to_go, _search._top_k

        def canonical(pair, shares, rp_cost, rows, ideals):
            seen["canonical"] = rows
            return cost_to_go(pair, shares, rp_cost, rows, ideals)

        def real(*args):
            seen["real"] = args[-1]
            return top_k(*args)

        monkeypatch.setattr(_search, "_cost_to_go", canonical)
        monkeypatch.setattr(_search, "_top_k", real)
        for model in MODELS:
            for sign in (1, -1):
                codes, preds, succ, pair, shares, rp_cost, twins = (
                    _kernel_inputs(wf, model, sign))
                assert bool(twins) == bool(seed % 2)
                index = {code: i for i, code in enumerate(codes)}
                best: dict[tuple[int, int], int] = {}
                for ordering in enumerate_linear_extensions(wf):
                    _, steps = sequence_cost(ordering, wf, model)
                    rest = 0
                    placed = (1 << len(codes)) - 1
                    for j in range(len(ordering) - 1, -1, -1):
                        t = index[ordering[j]]
                        placed &= ~(1 << t)
                        lifted = 0
                        if j and model.history_dependent:
                            lifted = dict(steps[j - 1].fired).get(
                                Rule.RECENT_PRACTICE, 0)
                        cell = (placed, t)
                        best[cell] = min(best.get(cell, math.inf),
                                         sign * (rest + lifted))
                        if j:
                            rest += steps[j - 1].total
                seen.clear()
                _search.search(_search.lattice(preds, succ, twins), pair,
                               shares, rp_cost, 4)
                tables = [seen["canonical"]]
                if twins:
                    assert seen["real"] is not seen["canonical"]
                    tables.append(seen["real"])
                eligible: dict[int, list[int]] = {}
                for placed, t in sorted(best):
                    eligible.setdefault(placed, []).append(t)
                for rows in tables:
                    assert 0 in rows
                    for placed, (tasks, rests) in rows.items():
                        if rows is seen["canonical"] and twins:
                            # One member stands for each eligible class.
                            assert set(tasks) <= set(eligible.get(placed, ()))
                        else:
                            assert list(tasks) == eligible.get(placed, [])
                        for t, rest in zip(tasks, rests, strict=True):
                            assert rest == best[placed, t]


def _random_chain(n: int, seed: int) -> Workflow:
    rng = random.Random(seed)
    return Workflow.from_tasks([
        simple_task(f"T{i:04d}", resource=rng.choice(list(Resource)),
                    modality=rng.choice(MODALITIES),
                    voluntary=rng.random() < 0.5,
                    familiarity=rng.randint(1, 5),
                    complexity=rng.randint(1, 5),
                    prerequisites=(f"T{i - 1:04d}",) if i else ())
        for i in range(n)
    ])


def _without_practice(model: CostModel) -> CostModel:
    return model._replace(rules={rule: cost for rule, cost in model.rules
                                if rule is not Rule.RECENT_PRACTICE})


def _priced_pairs(pair) -> set[tuple[int, int]]:
    return {(a, b) for a, row in enumerate(pair) for b in row}


def _kernel_inputs(wf, model, sign=1):
    """The graph that validation checked, then ``solver._kernel_inputs`` on
    it: ``(codes, preds, succ, pair, shares, rp_cost, twins)``."""
    graph = validate_workflow(wf).graph
    return (*graph, *solver._kernel_inputs(wf, model, graph, sign))


def _searched_inputs(wf, model, maximize=False, k=1):
    """``_kernel_inputs`` after a search has read (and so priced) its rows."""
    inputs = _kernel_inputs(wf, model, -1 if maximize else 1)
    _, preds, succ, pair, shares, rp_cost, twins = inputs
    _search.search(_search.lattice(preds, succ, twins), pair, shares,
                   rp_cost, k)
    return inputs


tasks_strategy = st.lists(
    st.builds(
        simple_task,
        code=st.just("X"),
        resource=st.sampled_from(list(Resource)),
        modality=st.sampled_from(MODALITIES),
        voluntary=st.booleans(),
        familiarity=st.integers(1, 5),
        complexity=st.integers(1, 5),
    ),
    min_size=2, max_size=6,
)

cost_strategy = st.one_of(st.just(0), st.integers(0, 3000))

model_strategy = st.builds(
    CostModel,
    matrix=st.lists(st.lists(cost_strategy, min_size=5, max_size=5),
                    min_size=5, max_size=5).map(
        lambda rows: tuple(tuple(0 if i == j else cell
                                 for j, cell in enumerate(row))
                           for i, row in enumerate(rows))),
    rules=st.dictionaries(st.sampled_from(RULE_ORDER), cost_strategy),
    recent_practice_scope=st.sampled_from(list(Scope)),
)


class TestPairPricer:
    """The pair rows that solve() builds, which price themselves as the
    search reads the adjacent pairs."""

    @staticmethod
    def _assert_prices_like_pair_cost(tasks, model):
        # Full history lifts RecentPractice out of the rows into shares.
        base = _without_practice(model) if model.history_dependent else model
        # Codes T0, T1, ... keep the tasks' order as indices; prices read no
        # edges.
        wf = Workflow.from_tasks([
            task._replace(code=f"T{i}", prerequisites=())
            for i, task in enumerate(tasks)])
        for sign in (1, -1):
            *_, pair, _, _, _ = _kernel_inputs(wf, model, sign)
            for a, prev in enumerate(tasks):
                for b, cur in enumerate(tasks):
                    if a != b:
                        assert pair[a][b] == sign * pair_cost(prev, cur, base)

    @pytest.mark.parametrize("model", [
        CostModel.calibrated(),
        CostModel(),
        CostModel(recent_practice_scope=Scope.FULL_HISTORY),
        CostModel(rules={}),
    ], ids=["calibrated", "literal", "full-history-lifted", "rules-off"])
    @pytest.mark.parametrize("seed", range(5))
    def test_named_models_match_pair_cost(self, model, seed):
        wf = random_workflow(random.Random(7000 + seed), n_min=6, n_max=8)
        tasks = [wf.tasks[code] for code in wf.codes()]
        self._assert_prices_like_pair_cost(tasks, model)

    @given(tasks=tasks_strategy, model=model_strategy)
    @settings(max_examples=200, deadline=None)
    def test_random_models_match_pair_cost(self, tasks, model):
        self._assert_prices_like_pair_cost(tasks, model)

    @pytest.mark.parametrize("model", MODELS,
                             ids=["calibrated", "literal", "full-history"])
    def test_rows_hold_pair_cost_and_shares(self, model):
        # Full history lifts RecentPractice out of the rows into shares.
        wf = random_workflow(random.Random(71), n_min=7, n_max=7)
        tasks = [wf.tasks[code] for code in wf.codes()]
        *_, pair, shares, rp_cost, _ = _searched_inputs(wf, model)
        assert _priced_pairs(pair)
        lifted = model.recent_practice_scope is Scope.FULL_HISTORY
        base = _without_practice(model) if lifted else model
        for a, row in enumerate(pair):
            for b, cost in row.items():
                assert cost == pair_cost(tasks[a], tasks[b], base)
        for j, tj in enumerate(tasks):
            alike = sum(1 << i for i, ti in enumerate(tasks)
                        if i != j and (ti.modality == tj.modality
                                       or ti.resource is tj.resource))
            assert shares[j] == (alike if lifted else 0)
        assert rp_cost == (310 if lifted else 0)

    @staticmethod
    def _adjacent_pairs(wf) -> set[tuple[int, int]]:
        index = {code: i for i, code in enumerate(wf.codes())}
        return {
            (index[ordering[i]], index[ordering[i + 1]])
            for ordering in enumerate_linear_extensions(wf)
            for i in range(len(ordering) - 1)
        }

    @pytest.mark.parametrize("seed", range(200))
    def test_priced_pairs_are_the_adjacent_ones(self, seed):
        # Without twins the backward pass reads every adjacent pair.
        wf = random_workflow(random.Random(8000 + seed), n_max=7,
                             edge_p=(0.1, 0.35, 0.6)[seed % 3])
        adjacent = self._adjacent_pairs(wf)
        for model in MODELS:
            for maximize in (False, True):
                for k in (1, 4):
                    *_, pair, _, _, twins = _searched_inputs(wf, model,
                                                             maximize, k)
                    assert twins == ()
                    assert _priced_pairs(pair) == adjacent

    @pytest.mark.parametrize("seed", range(30))
    def test_twins_price_only_adjacent_pairs(self, seed):
        # With twins the tables read the canonical orderings' pairs, and the
        # best-first pass prices a twin's pair on first read: a subset.
        rng = random.Random(8500 + seed)
        wf = _with_copies(random_workflow(rng, n_max=5), rng)
        adjacent = self._adjacent_pairs(wf)
        for model in MODELS:
            for maximize in (False, True):
                for k in (1, 4):
                    *_, pair, _, _, twins = _searched_inputs(wf, model,
                                                             maximize, k)
                    assert twins
                    assert _priced_pairs(pair) <= adjacent

    @pytest.mark.parametrize("seed", range(20))
    def test_rows_start_empty_and_price_each_pair_once(self, monkeypatch,
                                                       seed):
        wf = random_workflow(random.Random(9000 + seed), n_max=7)
        calls = []
        missing = solver._PairRow.__missing__

        def counting(row, b):
            calls.append((row._a, b))
            return missing(row, b)

        monkeypatch.setattr(solver._PairRow, "__missing__", counting)
        for model in MODELS:
            for maximize in (False, True):
                calls.clear()
                _, preds, succ, pair, shares, rp_cost, twins = _kernel_inputs(
                    wf, model, -1 if maximize else 1)
                assert not calls and not any(pair)
                _search.search(_search.lattice(preds, succ, twins), pair,
                               shares, rp_cost, 4)
                assert len(calls) == len(set(calls))
                assert set(calls) == _priced_pairs(pair)

    def test_long_chain_prices_only_its_links(self, monkeypatch):
        n = 1500
        wf = _random_chain(n, seed=2)
        model = CostModel.calibrated()
        built = []

        def recording(workflow, model, graph, sign):
            inputs = kernel_inputs(workflow, model, graph, sign)
            built.append(inputs)
            return inputs

        def refuse(prev, cur, model):
            raise AssertionError("solve called pair_cost")

        kernel_inputs = solver._kernel_inputs
        monkeypatch.setattr("cogseq.solver._kernel_inputs", recording)
        monkeypatch.setattr("cogseq.solver.pair_cost", refuse)
        (sol,) = solve(SolveRequest(workflow=wf, model=model))
        [(pair, _, _, _)] = built
        assert _priced_pairs(pair) == {(i, i + 1) for i in range(n - 1)}
        monkeypatch.undo()
        oracle = brute_force(wf, model)
        assert (sol.total, sol.ordering) == (oracle.total, oracle.ordering)


class TestBruteForcePricing:
    @pytest.mark.parametrize("n", [1, 2, 600])
    def test_chain_prices_each_link_once(self, monkeypatch, n):
        calls = []

        def counting(prev, cur, model):
            calls.append((prev.code, cur.code))
            return pair_cost(prev, cur, model)

        monkeypatch.setattr("cogseq.solver.pair_cost", counting)
        wf = _random_chain(n, seed=3)
        sol = brute_force(wf, CostModel())
        assert len(calls) == n - 1
        assert sol.total == sequence_cost(sol.ordering, wf, CostModel())[0]

    def test_antichain_prices_each_pair_at_most_once(self, monkeypatch):
        calls = []

        def counting(prev, cur, model):
            calls.append((prev.code, cur.code))
            return pair_cost(prev, cur, model)

        monkeypatch.setattr("cogseq.solver.pair_cost", counting)
        wf = Workflow.from_tasks([simple_task(c) for c in "ABCDE"])
        brute_force(wf, CostModel())
        assert len(calls) == len(set(calls)) == 5 * 4


class TestInternalConsistency:
    def test_wrong_kernel_total_is_caught(self, monkeypatch):
        wf = Workflow.from_tasks([
            simple_task("A"),
            simple_task("B", prerequisites=("A",)),
        ])

        def lying_kernel(lattice, pair, shares, rp_cost, k, keep=0):
            return [(999_999, (0, 1))], 1, 0

        monkeypatch.setattr("cogseq._backend.search", lying_kernel)
        with pytest.raises(CogseqError, match="internal error"):
            solve(SolveRequest(workflow=wf))


class TestSolutionBreakdowns:
    @pytest.mark.parametrize("seed", range(20))
    def test_breakdowns_match_per_step_definition(self, seed):
        # The oracles compare totals and orderings; this checks the terms.
        rng = random.Random(7000 + seed)
        wf = random_workflow(rng, n_max=7)
        models = (
            CostModel.calibrated(),
            CostModel(),
            CostModel(recent_practice_scope=Scope.FULL_HISTORY),
            CostModel(rules={}),
            random_model(rng),
            random_model(rng, scope=Scope.FULL_HISTORY),
        )
        for model in models:
            for objective in Objective:
                for k in (1, 3):
                    for sol in solve(SolveRequest(workflow=wf, model=model,
                                                  objective=objective, k=k)):
                        tasks = [wf.tasks[code] for code in sol.ordering]
                        assert sol.breakdowns == tuple(
                            transition_cost(tasks[i - 1], tasks[i],
                                            tasks[:i], model)
                            for i in range(1, len(tasks)))
                        assert sum(b.total for b in sol.breakdowns) \
                            == sol.total


def _oracle_fired(prev, cur, history, model):
    """The README's rule table, one line per rule, in RULE_ORDER."""
    if model.recent_practice_scope is Scope.FULL_HISTORY:
        window = history
    else:
        window = history[-1:]
    fires = {
        # same resource, different modality
        Rule.MODALITY: (prev.resource is cur.resource
                        and prev.modality != cur.modality),
        # B shares modality or resource with a recent task
        Rule.RECENT_PRACTICE: any(t.modality == cur.modality
                                  or t.resource is cur.resource
                                  for t in window),
        # B is more familiar than A
        Rule.FAMILIARITY: cur.familiarity > prev.familiarity,
        # B is simpler and voluntary
        Rule.VOLUNTARY_COMPLEXITY_DROP: (cur.complexity < prev.complexity
                                         and cur.voluntary),
        # B is simpler and involuntary
        Rule.INVOLUNTARY_COMPLEXITY_DROP: (cur.complexity < prev.complexity
                                           and not cur.voluntary),
    }
    costs = dict(model.rules)
    return tuple((rule, costs[rule]) for rule in RULE_ORDER
                 if rule in costs and fires[rule])


class TestRuleOracle:
    """Every breakdown against the rule table itself.  ``sequence_cost``,
    ``transition_cost`` and the search's recheck share ``costs._fired``, so
    comparing them with each other says nothing about the rules."""

    @given(tasks=tasks_strategy, model=model_strategy, data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_breakdowns_follow_the_rule_table(self, tasks, model, data):
        tasks = [task._replace(code=f"T{i}") for i, task in enumerate(tasks)]
        wf = Workflow.from_tasks(tasks)
        ordering = data.draw(st.permutations(tasks))

        def check(breakdowns, placed):
            assert len(breakdowns) == len(placed) - 1
            for i, step in enumerate(breakdowns, 1):
                prev, cur = placed[i - 1], placed[i]
                base = model.matrix[RESOURCE_ORDER.index(prev.resource)][
                    RESOURCE_ORDER.index(cur.resource)]
                fired = _oracle_fired(prev, cur, placed[:i], model)
                assert step == (prev.code, cur.code, base, fired,
                                base + sum(cost for _, cost in fired))

        total, breakdowns = sequence_cost([t.code for t in ordering], wf,
                                          model)
        check(breakdowns, ordering)
        assert total == sum(step.total for step in breakdowns)
        check([transition_cost(ordering[i - 1], ordering[i], ordering[:i],
                               model) for i in range(1, len(ordering))],
              ordering)
        for sol in solve(SolveRequest(workflow=wf, model=model, k=2)):
            check(sol.breakdowns, [wf.tasks[code] for code in sol.ordering])


def _solve_request(workflow):
    concrete = cogseq.instantiate_variant(workflow, "AUTH", "AUPS")
    return cogseq.solve(cogseq.SolveRequest(workflow=concrete, k=2))


def _compare_request(workflow):
    return cogseq.compare_variants(workflow, cogseq.CostModel.calibrated())


def _brute_force_request(_):
    # solve prices through its pair rows; only brute_force calls
    # pair_cost.
    chain = Workflow.from_tasks([
        simple_task("A"), simple_task("B", prerequisites=("A",)),
    ])
    return cogseq.brute_force(chain, cogseq.CostModel.calibrated())


class TestCallTimeSeams:
    """The traced benchmark (``perfbench/layers.py``) wraps these module
    attributes; a layer that stops looking its name up at call time drops
    out of the traced result without an error."""

    @pytest.mark.parametrize("module,attr,request_kind", [
        (_backend, "search", _solve_request),
        (solver, "instantiate_variant", _compare_request),
        (solver, "validate_workflow", _solve_request),
        (solver, "_kernel_inputs", _solve_request),
        (solver, "sequence_cost", _solve_request),
        (solver, "pair_cost", _brute_force_request),
        (cogseq, "solve", _solve_request),
        (cogseq, "compare_variants", _compare_request),
        (cogseq, "instantiate_variant", _solve_request),
    ], ids=lambda value: getattr(value, "__name__", value))
    def test_request_calls_the_module_attribute(self, monkeypatch,
                                                full_document, module, attr,
                                                request_kind):
        original = getattr(module, attr)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, attr, counting)
        assert request_kind(full_document.workflow)
        assert calls

    def test_compare_searches_each_member_through_the_backend(
            self, monkeypatch, full_document):
        # compare_variants reaches the kernel without solver.solve: one
        # _backend.search per member of the swept group.
        original = _backend.search
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(_backend, "search", counting)
        (comparison,) = _compare_request(full_document.workflow)
        assert len(calls) == len(comparison.rows) == 4

    def test_kernel_name_is_exported(self):
        assert cogseq.KERNEL_NAME == _backend.KERNEL_NAME == "pure"


class TestCompareVariants:
    def test_concrete_workflow_rejected(self, validation_document):
        with pytest.raises(WorkflowError, match="use solve"):
            compare_variants(validation_document.workflow, CostModel())

    def test_member_that_is_no_task_rejected(self):
        wf = Workflow.from_tasks([simple_task("A"), simple_task("X")],
                                 [VariantGroup("G", ["X", "Y"])])
        with pytest.raises(WorkflowError, match="unknown member 'Y'"):
            compare_variants(wf, CostModel())

    def test_group_without_members_rejected(self):
        wf = Workflow.from_tasks([simple_task("A")], [VariantGroup("G", [])])
        with pytest.raises(WorkflowError,
                           match="variant group 'G' has no members"):
            compare_variants(wf, CostModel())

    def test_checkin_sweep_matches_plain_solves(self, full_document):
        model = CostModel.calibrated()
        (comparison,) = compare_variants(full_document.workflow, model)
        assert comparison.group == "AUTH"
        totals = [row.solution.total for row in comparison.rows]
        assert totals == sorted(totals)
        assert {row.member for row in comparison.rows} == {
            "AUPS", "AUPI", "AUCC", "AUPW",
        }
        for row in comparison.rows:
            concrete = instantiate_variant(full_document.workflow, "AUTH",
                                           row.member)
            (sol,) = solve(SolveRequest(workflow=concrete, model=model))
            assert row.solution.total == sol.total
            assert row.solution.ordering == sol.ordering
        assert comparison.delta == totals[-1] - totals[0]

    @pytest.fixture()
    def two_group_workflow(self):
        tasks = [
            simple_task("BASE"),
            simple_task("A1", resource=Resource.PM, prerequisites=("BASE",)),
            simple_task("A2", resource=Resource.SR, prerequisites=("BASE",)),
            simple_task("B1", resource=Resource.DR, prerequisites=("BASE",)),
            simple_task("B2", resource=Resource.ER, prerequisites=("BASE",)),
            simple_task("END", prerequisites=("GRPA", "GRPB")),
        ]
        groups = [
            VariantGroup(code="GRPA", members=frozenset({"A1", "A2"})),
            VariantGroup(code="GRPB", members=frozenset({"B1", "B2"})),
        ]
        return Workflow.from_tasks(tasks, variant_groups=groups)

    def test_multi_group_requires_baseline(self, two_group_workflow):
        # Every group but the swept one must be resolved beforehand.
        model = CostModel.calibrated()
        with pytest.raises(WorkflowError,
                           match=r"unresolved \(GRPA, GRPB\).*"
                                 r"instantiate_variant"):
            compare_variants(two_group_workflow, model)
        resolved = instantiate_variant(two_group_workflow, "GRPB", "B2")
        (swept,) = compare_variants(resolved, model)
        assert swept.group == "GRPA"
        assert {row.member for row in swept.rows} == {"A1", "A2"}
        for row in swept.rows:
            concrete = instantiate_variant(resolved, "GRPA", row.member)
            (sol,) = solve(SolveRequest(workflow=concrete, model=model))
            assert row.solution.total == sol.total

    @pytest.mark.parametrize("seed", range(40))
    def test_sweep_matches_per_member_solves_and_brute_force(self, seed):
        # Members that share an index share one lattice; the others and the
        # history-dependent model exercise the rebuilt and the fully
        # re-priced lattice.
        wf, twin = _swept_workflow(random.Random(12_000 + seed))
        for model in MODELS:
            (comparison,) = compare_variants(wf, model)
            assert len(comparison.rows) == len(wf.variant_groups[0].members)
            for row in comparison.rows:
                concrete = instantiate_variant(wf, "G", row.member)
                if row.member == twin:
                    codes, *_, twins = _kernel_inputs(concrete, model)
                    assert any(codes.index(twin) in c for c in twins)
                (sol,) = solve(SolveRequest(workflow=concrete, model=model))
                assert row.solution.ordering == sol.ordering
                assert row.solution.total == sol.total
                assert row.solution.breakdowns == sol.breakdowns
                assert row.solution.stats[:2] == sol.stats[:2]
                best = brute_force(concrete, model)
                assert (row.solution.total, row.solution.ordering) == (
                    best.total, best.ordering)

    def test_checkin_sweep_builds_one_lattice(self, monkeypatch,
                                              full_document):
        lattice = _search.lattice
        built = []

        def counting(*args):
            built.append(args)
            return lattice(*args)

        monkeypatch.setattr(_search, "lattice", counting)
        for model in MODELS:
            built.clear()
            (comparison,) = compare_variants(full_document.workflow, model)
            assert len(comparison.rows) == 4
            assert len(built) == 1


def _swept_workflow(rng: random.Random) -> tuple[Workflow, str | None]:
    """A random workflow of 3-9 tasks plus one group ``G`` of 2-4 members,
    and the member that is a twin of a task outside the group, or None.

    The members' codes sort to one index or to several; they share their
    prerequisites or not; and one of them may copy the task at the cut, its
    dependents then requiring ``G`` as well.  Members require tasks before
    the cut and only tasks after it require ``G``, so there is no cycle.
    """
    base = random_workflow(rng, n_min=3, n_max=9)
    codes = sorted(base.tasks)
    cut = rng.randrange(len(codes))
    pivot = codes[cut]
    size = rng.randint(2, 4)
    if rng.random() < 0.5:
        members = [f"A{j}" for j in range(size)]
    else:
        members = rng.sample(["A", "B", "T00x", f"{pivot}y", "U", "Z"], size)
    shared = rng.sample(codes[:cut], rng.randint(0, cut))
    tasks = dict(base.tasks)
    for code in members:
        prereqs = (shared if rng.random() < 0.8
                   else rng.sample(codes[:cut], rng.randint(0, cut)))
        tasks[code] = simple_task(
            code, resource=rng.choice(list(Resource)),
            modality=rng.choice(MODALITIES), voluntary=rng.random() < 0.5,
            familiarity=rng.randint(1, 5), complexity=rng.randint(1, 5),
            prerequisites=prereqs)
    twin = None
    if rng.random() < 0.4:
        twin = rng.choice(members)
        tasks[twin] = tasks[pivot]._replace(code=twin, name=twin)
        dependents = [code for code in codes
                      if pivot in tasks[code].prerequisites]
    else:
        dependents = [code for code in codes[cut + 1:] if rng.random() < 0.4]
    for code in dependents:
        tasks[code] = tasks[code]._replace(
            prerequisites=tasks[code].prerequisites | {"G"})
    return (Workflow.from_tasks(tasks.values(), [VariantGroup("G", members)]),
            twin)
