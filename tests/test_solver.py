"""Solver: optimality against oracles, determinism, tie-breaks, comparisons."""

from __future__ import annotations

import random
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogseq import _search, solver
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
    enumerate_linear_extensions,
    instantiate_variant,
    pair_cost,
    sequence_cost,
    solve,
)
from cogseq.costs import RULE_ORDER, Rule, TransitionRule

from conftest import (
    MODALITIES,
    random_model,
    random_workflow,
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


class TestRequestValidation:
    def test_k_must_be_positive(self):
        wf = Workflow.from_tasks([simple_task("A")])
        with pytest.raises(CogseqError, match="k must be"):
            SolveRequest(workflow=wf, k=0)

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
        model = CostModel(rules=frozenset())
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
        model = CostModel(rules=frozenset())
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


class TestBudget:
    def test_exhaustive_budget_is_enforced(self):
        wf = Workflow.from_tasks([simple_task(f"T{i:02d}") for i in range(11)])
        with pytest.raises(BudgetExceededError) as err:
            brute_force(wf, CostModel())
        assert err.value.count == 39_916_800
        assert "39916800" in str(err.value) or "39,916,800" in str(err.value)

    def test_brute_force_budget(self, monkeypatch):
        def no_enumeration(workflow):
            raise AssertionError("enumerated past the budget")

        monkeypatch.setattr("cogseq.solver.enumerate_linear_extensions",
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

    def test_bnb_solves_within_ideal_budget(self):
        # The same workflow has only 2**11 = 2048 order ideals.
        wf = Workflow.from_tasks([simple_task(f"T{i:02d}") for i in range(11)])
        (sol,) = solve(SolveRequest(workflow=wf))
        assert len(sol.ordering) == 11

    def test_bnb_ideal_budget_is_enforced(self, monkeypatch):
        monkeypatch.setattr("cogseq._search.MAX_IDEALS", 100)
        wf = Workflow.from_tasks([simple_task(f"T{i:02d}") for i in range(10)])
        with pytest.raises(BudgetExceededError) as err:
            solve(SolveRequest(workflow=wf))
        assert (err.value.count, err.value.budget) == (101, 100)
        assert "101 order ideals" in str(err.value)


class TestSearchEngine:
    def test_long_chain_needs_no_recursion(self):
        # Deeper than the default recursion limit.
        n = 1500
        preds = [0] + [1 << (i - 1) for i in range(1, n)]
        pair = [[0] * n for _ in range(n)]
        solutions, nodes, prunes = _search.search(
            n, preds, pair, [0] * n, 0, False, 1)
        assert solutions == [(0, tuple(range(n)))]
        assert (nodes, prunes) == (n, 0)


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


def _priced_pairs(pair) -> set[tuple[int, int]]:
    return {(a, b) for a, row in enumerate(pair) for b in row}


def _searched_inputs(wf, model, maximize=False, k=1):
    """``_kernel_inputs`` after a search has read (and so priced) its rows."""
    codes, preds, pair, shares, rp_cost = solver._kernel_inputs(wf, model)
    _search.search(len(codes), preds, pair, shares, rp_cost, maximize, k)
    return codes, preds, pair, shares, rp_cost


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
    rules=st.dictionaries(st.sampled_from(RULE_ORDER), cost_strategy).map(
        lambda costs: frozenset(TransitionRule(rule, cost)
                                for rule, cost in costs.items())),
    recent_practice_scope=st.sampled_from(list(Scope)),
)


class TestPairPricer:
    """The integer pricer and the pair rows that solve() builds, which the
    search fills with the adjacent pairs as it reads them."""

    @staticmethod
    def _assert_prices_like_pair_cost(tasks, model):
        price = solver._pair_pricer(tasks, model)
        for a, prev in enumerate(tasks):
            for b, cur in enumerate(tasks):
                if a != b:
                    assert price(a, b) == pair_cost(prev, cur, model)

    @pytest.mark.parametrize("model", [
        CostModel.calibrated(),
        CostModel(),
        CostModel().without_rule(Rule.RECENT_PRACTICE),
        CostModel(rules=frozenset()),
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
        codes, _, pair, shares, rp_cost = _searched_inputs(wf, model)
        assert _priced_pairs(pair)
        lifted = model.recent_practice_scope is Scope.FULL_HISTORY
        base = model.without_rule(Rule.RECENT_PRACTICE) if lifted else model
        for a, row in enumerate(pair):
            for b, cost in row.items():
                assert cost == pair_cost(tasks[a], tasks[b], base)
        for j, tj in enumerate(tasks):
            alike = sum(1 << i for i, ti in enumerate(tasks)
                        if i != j and (ti.modality == tj.modality
                                       or ti.resource is tj.resource))
            assert shares[j] == (alike if lifted else 0)
        assert rp_cost == (310 if lifted else 0)

    @pytest.mark.parametrize("seed", range(200))
    def test_priced_pairs_are_the_adjacent_ones(self, seed):
        wf = random_workflow(random.Random(8000 + seed), n_max=7,
                             edge_p=(0.1, 0.35, 0.6)[seed % 3])
        index = {code: i for i, code in enumerate(wf.codes())}
        adjacent = {
            (index[ordering[i]], index[ordering[i + 1]])
            for ordering in enumerate_linear_extensions(wf)
            for i in range(len(ordering) - 1)
        }
        for model in MODELS:
            for maximize in (False, True):
                for k in (1, 4):
                    _, _, pair, _, _ = _searched_inputs(wf, model,
                                                        maximize, k)
                    assert _priced_pairs(pair) == adjacent

    @pytest.mark.parametrize("seed", range(20))
    def test_rows_start_empty_and_price_each_pair_once(self, monkeypatch,
                                                       seed):
        wf = random_workflow(random.Random(9000 + seed), n_max=7)
        calls = []

        def counting(tasks, model):
            price = pair_pricer(tasks, model)

            def recorded(a, b):
                calls.append((a, b))
                return price(a, b)

            return recorded

        pair_pricer = solver._pair_pricer
        monkeypatch.setattr("cogseq.solver._pair_pricer", counting)
        for model in MODELS:
            for maximize in (False, True):
                calls.clear()
                codes, preds, pair, shares, rp_cost = solver._kernel_inputs(
                    wf, model)
                assert not calls and not any(pair)
                _search.search(len(codes), preds, pair, shares, rp_cost,
                               maximize, 4)
                assert len(calls) == len(set(calls))
                assert set(calls) == _priced_pairs(pair)

    def test_long_chain_prices_only_its_links(self, monkeypatch):
        n = 1500
        wf = _random_chain(n, seed=2)
        model = CostModel.calibrated()
        built = []

        def recording(workflow, model):
            inputs = kernel_inputs(workflow, model)
            built.append(inputs)
            return inputs

        def refuse(prev, cur, model):
            raise AssertionError("solve called pair_cost")

        kernel_inputs = solver._kernel_inputs
        monkeypatch.setattr("cogseq.solver._kernel_inputs", recording)
        monkeypatch.setattr("cogseq.solver.pair_cost", refuse)
        (sol,) = solve(SolveRequest(workflow=wf, model=model))
        [(_, _, pair, _, _)] = built
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

        def lying_kernel(n, preds, pair, shares, rp_cost, maximize, k):
            return [(999_999, (0, 1))], 1, 0

        monkeypatch.setattr("cogseq._backend.search", lying_kernel)
        with pytest.raises(CogseqError, match="internal error"):
            solve(SolveRequest(workflow=wf))


class TestCompareVariants:
    def test_concrete_workflow_rejected(self, validation_document):
        with pytest.raises(WorkflowError, match="use solve"):
            compare_variants(validation_document.workflow, CostModel())

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

    def test_unknown_baseline_group(self, full_document):
        with pytest.raises(WorkflowError, match="unknown variant group"):
            compare_variants(full_document.workflow, CostModel.calibrated(),
                             baseline={"NOPE": "AUPS"})

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
        with pytest.raises(WorkflowError, match="baseline"):
            compare_variants(two_group_workflow, CostModel.calibrated())

    def test_multi_group_with_baseline(self, two_group_workflow):
        model = CostModel.calibrated()
        baseline = {"GRPA": "A1", "GRPB": "B2"}
        comparisons = compare_variants(two_group_workflow, model,
                                       baseline=baseline)
        assert [c.group for c in comparisons] == ["GRPA", "GRPB"]
        swept = comparisons[0]
        assert {row.member for row in swept.rows} == {"A1", "A2"}
        for row in swept.rows:
            concrete = instantiate_variant(two_group_workflow, "GRPA",
                                           row.member)
            concrete = instantiate_variant(concrete, "GRPB", "B2")
            (sol,) = solve(SolveRequest(workflow=concrete, model=model))
            assert row.solution.total == sol.total
