"""Cost model: exact arithmetic, rule firing, transition and sequence totals."""

from __future__ import annotations

import copy
import pickle
import random
from dataclasses import replace
from decimal import Decimal
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cogseq import (
    CostModel,
    CostModelError,
    OrderingError,
    Resource,
    Rule,
    Scope,
    TransitionRule,
    Workflow,
    fired_rules,
    pair_cost,
    render_effect,
    resource_switch_cost,
    sequence_cost,
    to_thousandths,
    transition_cost,
)
from cogseq import enumerate_linear_extensions, instantiate_variant
from cogseq.costs import DEFAULT_RULE_COSTS, DEFAULT_RULES, MAX_EFFECT

from conftest import random_model, random_workflow, simple_task


class TestThousandths:
    @pytest.mark.parametrize("value,expected", [
        (0, 0), (2, 2000), ("0.157", 157), ("1.078", 1078),
        (0.31, 310), (Decimal("2.92"), 2920), ("5.53", 5530),
    ])
    def test_conversion(self, value, expected):
        assert to_thousandths(value) == expected

    @pytest.mark.parametrize("bad", [
        "0.1234", 0.0001, "-1", -3, True, "abc",
        "Infinity", float("inf"), "NaN", "sNaN", "1e999999999",
        None, [1], {}, [0, [4, 2], -2], (0, (4, 2), -2),
    ])
    def test_rejections(self, bad):
        with pytest.raises(CostModelError):
            to_thousandths(bad)

    def test_bound(self):
        assert to_thousandths("1000000") == MAX_EFFECT
        with pytest.raises(CostModelError, match="exceeds the maximum"):
            to_thousandths("1000000.001")
        with pytest.raises(CostModelError, match="exceeds the maximum"):
            to_thousandths(10 ** 5000)

    @pytest.mark.parametrize("thousandths,text", [
        (0, "0"), (743, "0.743"), (5530, "5.53"), (1000, "1"),
        (160, "0.16"), (2920, "2.92"), (-354, "-0.354"),
    ])
    def test_render(self, thousandths, text):
        assert render_effect(thousandths) == text

    @given(st.integers(min_value=0, max_value=10**7))
    @settings(max_examples=200, deadline=None)
    def test_render_round_trips(self, value):
        assert to_thousandths(render_effect(value)) == value


class TestMatrix:
    def test_published_entries(self):
        assert resource_switch_cost(Resource.VWM, Resource.VWM) == 0
        assert resource_switch_cost(Resource.SR, Resource.DR) == 1078
        assert resource_switch_cost(Resource.VWM, Resource.ER) == 157
        assert resource_switch_cost(Resource.ER, Resource.VWM) == 307

    def test_asymmetry_is_representable(self):
        assert resource_switch_cost(Resource.SR, Resource.PM) == 842
        assert resource_switch_cost(Resource.PM, Resource.SR) == 699


class TestCostModel:
    def test_default_is_published_model(self):
        model = CostModel()
        assert model.matrix[3][2] == 1078
        assert model.recent_practice_scope is Scope.ADJACENT
        assert model.active_rule_costs() == {
            Rule.MODALITY: 160,
            Rule.RECENT_PRACTICE: 310,
            Rule.FAMILIARITY: 420,
            Rule.VOLUNTARY_COMPLEXITY_DROP: 2920,
            Rule.INVOLUNTARY_COMPLEXITY_DROP: 1630,
        }

    def test_calibrated_withholds_recent_practice_only(self):
        model = CostModel.calibrated()
        assert model.rule_cost(Rule.RECENT_PRACTICE) is None
        assert model.rule_cost(Rule.FAMILIARITY) == 420
        assert model.matrix == CostModel().matrix

    def test_nonzero_diagonal_rejected(self):
        bad = [list(row) for row in CostModel().matrix]
        bad[2][2] = 5
        with pytest.raises(CostModelError, match="diagonal"):
            CostModel(matrix=tuple(tuple(r) for r in bad))

    def test_negative_cell_rejected(self):
        bad = [list(row) for row in CostModel().matrix]
        bad[0][1] = -1
        with pytest.raises(CostModelError, match="negative"):
            CostModel(matrix=tuple(tuple(r) for r in bad))

    def test_cell_above_maximum_rejected(self):
        bad = [list(row) for row in CostModel().matrix]
        bad[0][1] = MAX_EFFECT + 1
        with pytest.raises(CostModelError, match=r"matrix\[0\]\[1\] exceeds"):
            CostModel(matrix=tuple(tuple(r) for r in bad))

    def test_rule_cost_above_maximum_rejected(self):
        assert TransitionRule(Rule.MODALITY, MAX_EFFECT).cost == MAX_EFFECT
        with pytest.raises(CostModelError, match="Modality cost exceeds"):
            TransitionRule(Rule.MODALITY, MAX_EFFECT + 1)

    def test_duplicate_rule_rejected(self):
        rules = frozenset({
            TransitionRule(Rule.MODALITY, 100),
            TransitionRule(Rule.MODALITY, 200),
        })
        with pytest.raises(CostModelError, match="more than once"):
            CostModel(rules=rules)

    def test_withholding_every_rule(self):
        model = CostModel(rules=frozenset())
        assert all(model.rule_cost(rule) is None for rule in Rule)
        assert model.active_rule_costs() == {}

    @pytest.mark.parametrize("model,expected", [
        (CostModel(), False),
        (CostModel(recent_practice_scope=Scope.FULL_HISTORY), True),
        (CostModel.calibrated(), False),
        (replace(CostModel.calibrated(),
                 recent_practice_scope=Scope.FULL_HISTORY), False),
        (CostModel(rules=frozenset(),
                   recent_practice_scope=Scope.FULL_HISTORY), False),
    ], ids=["literal", "literal-full", "calibrated", "calibrated-full",
            "no-rules-full"])
    def test_history_dependent(self, model, expected):
        assert model.history_dependent is expected

    @pytest.mark.parametrize("model", [
        CostModel(), CostModel.calibrated(), CostModel(rules=frozenset()),
        CostModel(recent_practice_scope=Scope.FULL_HISTORY),
    ], ids=["literal", "calibrated", "no-rules", "full-history"])
    def test_resolved_rules_survive_copies(self, model):
        twin = CostModel(matrix=model.matrix, rules=model.rules,
                         recent_practice_scope=model.recent_practice_scope)
        assert twin == model and hash(twin) == hash(model)
        assert "_rule_costs" not in repr(model)
        for copied in (replace(model), copy.copy(model),
                       copy.deepcopy(model),
                       pickle.loads(pickle.dumps(model))):
            assert copied == model and hash(copied) == hash(model)
            assert copied.active_rule_costs() == model.active_rule_costs()
            assert copied._rule_costs == model._rule_costs
        literal = replace(model, rules=DEFAULT_RULES)
        assert literal.active_rule_costs() == DEFAULT_RULE_COSTS
        with pytest.raises(ValueError):
            replace(model, _rule_costs=())

    def test_rule_parse_aliases(self):
        assert Rule.parse("RecentPractice") is Rule.RECENT_PRACTICE
        assert Rule.parse("recent_practice") is Rule.RECENT_PRACTICE
        assert Rule.parse("voluntary-complexity-drop") is Rule.VOLUNTARY_COMPLEXITY_DROP
        with pytest.raises(CostModelError, match="unknown rule"):
            Rule.parse("Bogus")

    def test_scope_parse(self):
        assert Scope.parse("adjacent") is Scope.ADJACENT
        assert Scope.parse("full-history") is Scope.FULL_HISTORY
        assert Scope.parse("full_history") is Scope.FULL_HISTORY
        with pytest.raises(CostModelError):
            Scope.parse("medium")


@pytest.fixture(scope="module")
def checkin_tasks(full_document):
    wf = instantiate_variant(full_document.workflow, "AUTH", "AUPW")
    return wf.tasks


class TestFiredRules:
    def test_shared_modality_triggers_recent_practice(self, checkin_tasks):
        lang, airl = checkin_tasks["LANG"], checkin_tasks["AIRL"]
        assert fired_rules(lang, airl, [lang], CostModel()) == (
            (Rule.RECENT_PRACTICE, 310),
        )

    def test_familiarity_gain_and_practice(self, checkin_tasks):
        bkrf, aupw = checkin_tasks["BKRF"], checkin_tasks["AUPW"]
        assert fired_rules(bkrf, aupw, [bkrf], CostModel()) == (
            (Rule.RECENT_PRACTICE, 310),
            (Rule.FAMILIARITY, 420),
        )

    def test_rules_disabled_fires_nothing(self, checkin_tasks):
        lang, airl = checkin_tasks["LANG"], checkin_tasks["AIRL"]
        model = CostModel(rules=frozenset())
        assert fired_rules(lang, airl, [lang], model) == ()

    def test_modality_needs_same_resource(self):
        a = simple_task("A", resource=Resource.PM, modality="touch")
        b = simple_task("B", resource=Resource.PM, modality="keys")
        c = simple_task("C", resource=Resource.DR, modality="keys")
        model = CostModel.calibrated()
        assert (Rule.MODALITY, 160) in fired_rules(a, b, [a], model)
        assert fired_rules(a, c, [a], model) == ()

    def test_complexity_drop_split_by_voluntary(self):
        hard = simple_task("H", complexity=5)
        easy_vol = simple_task("V", complexity=2, voluntary=True, modality="keys")
        easy_invol = simple_task("I", complexity=2, modality="keys")
        model = CostModel.calibrated()
        fired_v = dict(fired_rules(hard, easy_vol, [hard], model))
        fired_i = dict(fired_rules(hard, easy_invol, [hard], model))
        assert fired_v.get(Rule.VOLUNTARY_COMPLEXITY_DROP) == 2920
        assert Rule.INVOLUNTARY_COMPLEXITY_DROP not in fired_v
        assert fired_i.get(Rule.INVOLUNTARY_COMPLEXITY_DROP) == 1630
        assert Rule.VOLUNTARY_COMPLEXITY_DROP not in fired_i

    def test_ties_fire_nothing(self):
        a = simple_task("A", familiarity=3, complexity=3, modality="touch")
        b = simple_task("B", familiarity=3, complexity=3, modality="keys",
                        resource=Resource.PM)
        assert fired_rules(a, b, [a], CostModel.calibrated()) == ()

    def test_full_history_scope_sees_older_tasks(self):
        first = simple_task("A", resource=Resource.PM, modality="scan")
        mid = simple_task("B", resource=Resource.DR, modality="keys")
        last = simple_task("C", resource=Resource.PM, modality="card reader")
        adjacent = CostModel()
        full = CostModel(recent_practice_scope=Scope.FULL_HISTORY)
        history = [first, mid]
        # C shares PM with A only; the adjacent window cannot see A.
        assert (Rule.RECENT_PRACTICE, 310) not in fired_rules(
            mid, last, history, adjacent)
        assert (Rule.RECENT_PRACTICE, 310) in fired_rules(
            mid, last, history, full)

    def test_history_must_end_with_prev(self, checkin_tasks):
        lang, airl = checkin_tasks["LANG"], checkin_tasks["AIRL"]
        with pytest.raises(CostModelError, match="history"):
            fired_rules(lang, airl, [airl], CostModel())
        with pytest.raises(CostModelError, match="history"):
            fired_rules(lang, airl, [], CostModel())
        with pytest.raises(CostModelError, match="history"):
            fired_rules(lang, airl, [lang, airl], CostModel())


class TestTransitionCost:
    def test_published_examples(self, checkin_tasks):
        model = CostModel()
        lang, airl = checkin_tasks["LANG"], checkin_tasks["AIRL"]
        breakdown = transition_cost(lang, airl, [lang], model)
        assert breakdown.resource_cost == 433
        assert breakdown.total == 743
        bkrf, aupw = checkin_tasks["BKRF"], checkin_tasks["AUPW"]
        assert transition_cost(bkrf, aupw, [bkrf], model).total == 1225

    def test_seat_swap_is_free(self, full_document):
        wf = instantiate_variant(full_document.workflow, "AUTH", "AUPS")
        stso, stsr = wf.tasks["STSO"], wf.tasks["STSR"]
        assert transition_cost(stso, stsr, [stso], CostModel.calibrated()).total == 0
        no_rules = CostModel(rules=frozenset())
        assert transition_cost(stso, stsr, [stso], no_rules).total == 0

    def test_total_never_below_matrix_entry(self):
        rng = random.Random(4)
        for _ in range(50):
            wf = random_workflow(rng, n_max=2, n_min=2)
            model = random_model(rng)
            a, b = (wf.tasks[c] for c in wf.codes())
            breakdown = transition_cost(a, b, [a], model)
            assert breakdown.total >= breakdown.resource_cost
            assert breakdown.resource_cost == resource_switch_cost(
                a.resource, b.resource, model.matrix)


class TestSequenceCost:
    def test_single_task_costs_nothing(self):
        wf = Workflow.from_tasks([simple_task("A")])
        assert sequence_cost(("A",), wf, CostModel()) == (0, ())

    def test_non_extension_rejected(self):
        wf = Workflow.from_tasks([
            simple_task("A"),
            simple_task("B", prerequisites=("A",)),
        ])
        with pytest.raises(OrderingError, match="'A' must precede 'B'"):
            sequence_cost(("B", "A"), wf, CostModel())
        with pytest.raises(OrderingError, match="missing tasks"):
            sequence_cost(("A",), wf, CostModel())
        with pytest.raises(OrderingError, match="more than once"):
            sequence_cost(("A", "A"), wf, CostModel())

    def test_purity(self, full_document):
        wf = instantiate_variant(full_document.workflow, "AUTH", "AUPS")
        ordering = full_document.known_orderings["paper_optimal_aups"]
        model = CostModel.calibrated()
        assert sequence_cost(ordering, wf, model) == sequence_cost(
            ordering, wf, model)

    def test_breakdown_lengths_and_sum(self, full_document):
        wf = instantiate_variant(full_document.workflow, "AUTH", "AUPS")
        ordering = full_document.known_orderings["paper_optimal_aups"]
        total, breakdowns = sequence_cost(ordering, wf, CostModel.calibrated())
        assert len(breakdowns) == len(ordering) - 1
        assert sum(b.total for b in breakdowns) == total

    @pytest.mark.parametrize("seed", range(24))
    def test_one_pass_matches_per_step_definition(self, seed):
        # Three workflows of each size n = 0..7.
        rng = random.Random(3000 + seed)
        n = seed % 8
        wf = random_workflow(rng, n_max=n, n_min=n)
        models = [
            CostModel.calibrated(),
            CostModel(),
            CostModel(recent_practice_scope=Scope.FULL_HISTORY),
            CostModel(rules=frozenset()),
            random_model(rng),
            random_model(rng, scope=Scope.FULL_HISTORY),
        ]
        extensions = list(enumerate_linear_extensions(wf))
        for ordering in rng.sample(extensions, min(6, len(extensions))):
            tasks = [wf.tasks[code] for code in ordering]
            for model in models:
                steps = tuple(
                    transition_cost(tasks[i - 1], tasks[i], tasks[:i], model)
                    for i in range(1, len(tasks))
                )
                assert sequence_cost(ordering, wf, model) == (
                    sum(step.total for step in steps), steps)

    @pytest.mark.parametrize("seed", range(15))
    def test_adjacent_scope_decomposes_over_pairs(self, seed):
        rng = random.Random(seed)
        wf = random_workflow(rng, n_max=6)
        model = random_model(rng, scope=Scope.ADJACENT)
        for ordering in islice(enumerate_linear_extensions(wf), 40):
            total, _ = sequence_cost(ordering, wf, model)
            pair_sum = sum(
                pair_cost(wf.tasks[ordering[i]], wf.tasks[ordering[i + 1]], model)
                for i in range(len(ordering) - 1)
            )
            assert total == pair_sum

    @pytest.mark.parametrize("seed", range(15))
    def test_full_history_never_cheaper_than_adjacent(self, seed):
        # Deeper history can only add RecentPractice firings.
        rng = random.Random(1000 + seed)
        wf = random_workflow(rng, n_max=6)
        adjacent = CostModel()
        full = CostModel(recent_practice_scope=Scope.FULL_HISTORY)
        for ordering in islice(enumerate_linear_extensions(wf), 40):
            total_adj, _ = sequence_cost(ordering, wf, adjacent)
            total_full, _ = sequence_cost(ordering, wf, full)
            assert total_full >= total_adj

    def test_prepending_history_only_adds_firings(self):
        rng = random.Random(7)
        model = CostModel(recent_practice_scope=Scope.FULL_HISTORY)
        for _ in range(80):
            wf = random_workflow(rng, n_max=5, n_min=3)
            tasks = [wf.tasks[c] for c in wf.codes()]
            prev, cur = tasks[-2], tasks[-1]
            history_short = tasks[1:-2] + [prev]
            history_long = tasks[:1] + history_short
            short = set(fired_rules(prev, cur, history_short, model))
            long = set(fired_rules(prev, cur, history_long, model))
            assert short <= long

    def test_rules_disabled_depends_only_on_resources(self):
        a1 = simple_task("A", resource=Resource.SR, modality="touch",
                         familiarity=5, complexity=1)
        b1 = simple_task("B", resource=Resource.ER, modality="scan",
                         familiarity=1, complexity=5, voluntary=True)
        a2 = simple_task("A", resource=Resource.SR, modality="card reader",
                         familiarity=2, complexity=4)
        b2 = simple_task("B", resource=Resource.ER, modality="card reader",
                         familiarity=4, complexity=2)
        model = CostModel(rules=frozenset())
        wf1 = Workflow.from_tasks([a1, b1])
        wf2 = Workflow.from_tasks([a2, b2])
        assert sequence_cost(("A", "B"), wf1, model)[0] == \
            sequence_cost(("A", "B"), wf2, model)[0] == 433
