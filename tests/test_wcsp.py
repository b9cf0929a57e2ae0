"""WCSP encoding: constraint shape, evaluation semantics, equivalence."""

from __future__ import annotations

import random
from itertools import islice, permutations

import pytest

from cogseq import (
    AllDifferent,
    CostModel,
    CostModelError,
    OrderingError,
    OrderPair,
    Scope,
    Workflow,
    WorkflowError,
    assignment_to_ordering,
    dump_instance,
    encode_workflow,
    enumerate_linear_extensions,
    evaluate_assignment,
    instantiate_variant,
    is_linear_extension,
    ordering_to_assignment,
    sequence_cost,
)

from conftest import random_model, random_workflow, simple_task


@pytest.fixture(scope="module")
def aups_instance(full_document):
    wf = instantiate_variant(full_document.workflow, "AUTH", "AUPS")
    return wf, encode_workflow(wf, CostModel.calibrated())


@pytest.fixture(scope="module")
def chain_instance():
    wf = Workflow.from_tasks([
        simple_task("A"),
        simple_task("B", prerequisites=("A",)),
        simple_task("C", prerequisites=("B",)),
    ])
    return encode_workflow(wf, CostModel())


class TestEncoding:
    def test_checkin_shape(self, aups_instance):
        wf, inst = aups_instance
        assert inst.n == 13
        assert len(inst.codes) == 13
        assert inst.codes == wf.codes()
        alldiff = [c for c in inst.hard_constraints if isinstance(c, AllDifferent)]
        assert len(alldiff) == 1
        assert len(inst.order_pairs()) == 25

    def test_order_pairs_match_precedence_edges(self, aups_instance):
        wf, inst = aups_instance
        expected = {
            (inst.value_of(pre), inst.value_of(dep))
            for pre, dep in wf.precedence_edges()
        }
        assert {(p.before, p.after) for p in inst.order_pairs()} == expected

    def test_single_task(self):
        wf = Workflow.from_tasks([simple_task("A")])
        inst = encode_workflow(wf, CostModel())
        assert inst.n == 1
        assert inst.order_pairs() == ()
        assert evaluate_assignment(inst, (0,)) == 0

    def test_binary_cost_cell(self, full_document):
        wf = instantiate_variant(full_document.workflow, "AUTH", "AUPS")
        inst = encode_workflow(wf, CostModel())
        lang, airl = inst.value_of("LANG"), inst.value_of("AIRL")
        assert inst.binary_costs[lang][airl] == 743
        assert all(inst.binary_costs[v][v] == 0 for v in range(inst.n))

    def test_full_history_rejected(self, full_document):
        wf = instantiate_variant(full_document.workflow, "AUTH", "AUPS")
        model = CostModel(recent_practice_scope=Scope.FULL_HISTORY)
        with pytest.raises(CostModelError, match="sequence-search solver"):
            encode_workflow(wf, model)
        # Without RecentPractice the scope is inert, so the encoding is
        # allowed and prices like the adjacent-scope model.
        for rules in (CostModel.calibrated().rules, frozenset()):
            inert = CostModel(rules=rules,
                              recent_practice_scope=Scope.FULL_HISTORY)
            adjacent = CostModel(rules=rules)
            assert encode_workflow(wf, inert) == encode_workflow(wf, adjacent)

    def test_grouped_workflow_rejected(self, full_document):
        with pytest.raises(WorkflowError, match="variant"):
            encode_workflow(full_document.workflow, CostModel())

    def test_invalid_workflow_rejected(self):
        wf = Workflow.from_tasks([simple_task("A", prerequisites=("Z",))])
        with pytest.raises(WorkflowError, match="invalid workflow"):
            encode_workflow(wf, CostModel())

    def test_value_of_unknown(self, aups_instance):
        _, inst = aups_instance
        with pytest.raises(WorkflowError, match="unknown task code"):
            inst.value_of("ZZZZ")

    def test_order_pair_requires_distinct_values(self):
        with pytest.raises(WorkflowError, match="distinct"):
            OrderPair(before=2, after=2)


class TestEvaluation:
    def test_repeated_value_is_infeasible(self, chain_instance):
        assert evaluate_assignment(chain_instance, (0, 0, 2)) is None

    def test_precedence_violation_is_infeasible(self, aups_instance):
        wf, inst = aups_instance
        good = next(enumerate_linear_extensions(wf))
        assignment = list(ordering_to_assignment(inst, good))
        cfrm, bkrf = inst.value_of("CFRM"), inst.value_of("BKRF")
        i, j = assignment.index(bkrf), assignment.index(cfrm)
        assignment[i], assignment[j] = assignment[j], assignment[i]
        assert evaluate_assignment(inst, assignment) is None

    def test_incomplete_assignment_raises(self, chain_instance):
        with pytest.raises(OrderingError, match="incomplete"):
            evaluate_assignment(chain_instance, (0, 1))

    def test_out_of_domain_raises(self, chain_instance):
        with pytest.raises(OrderingError, match="outside"):
            evaluate_assignment(chain_instance, (0, 1, 3))
        with pytest.raises(OrderingError, match="non-value"):
            evaluate_assignment(chain_instance, (0, 1, "C"))

    def test_feasible_chain_cost(self, chain_instance):
        total = evaluate_assignment(chain_instance, (0, 1, 2))
        assert total == (chain_instance.binary_costs[0][1]
                         + chain_instance.binary_costs[1][2])


class TestEquivalence:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_sequence_cost_on_extensions(self, seed):
        rng = random.Random(seed)
        wf = random_workflow(rng, n_max=6)
        model = random_model(rng, scope=Scope.ADJACENT)
        inst = encode_workflow(wf, model)
        for ordering in islice(enumerate_linear_extensions(wf), 60):
            assignment = ordering_to_assignment(inst, ordering)
            assert evaluate_assignment(inst, assignment) == \
                sequence_cost(ordering, wf, model)[0]

    @pytest.mark.parametrize("seed", range(10))
    def test_infeasible_iff_not_extension(self, seed):
        rng = random.Random(100 + seed)
        wf = random_workflow(rng, n_max=5, n_min=2)
        inst = encode_workflow(wf, CostModel.calibrated())
        codes = wf.codes()
        for perm in permutations(range(len(codes))):
            ordering = assignment_to_ordering(inst, perm)
            cost = evaluate_assignment(inst, perm)
            if is_linear_extension(ordering, wf):
                assert cost is not None
            else:
                assert cost is None


class TestConverters:
    def test_round_trip(self, aups_instance):
        wf, inst = aups_instance
        ordering = next(enumerate_linear_extensions(wf))
        assignment = ordering_to_assignment(inst, ordering)
        assert assignment_to_ordering(inst, assignment) == ordering

    def test_assignment_indexing_semantics(self, aups_instance):
        # assignment[i] names the task performed at step i+1.
        wf, inst = aups_instance
        ordering = next(enumerate_linear_extensions(wf))
        assignment = ordering_to_assignment(inst, ordering)
        assert inst.codes[assignment[0]] == ordering[0]


class TestDump:
    def test_dump_mentions_structure(self, aups_instance):
        _, inst = aups_instance
        text = dump_instance(inst)
        assert "variables: x1..x13 over values 0..12" in text
        assert "alldifferent(x1..x13)" in text
        assert "order(BKRF before CFRM)" in text
        assert text.count("order(") == 25
