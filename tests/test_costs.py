"""Cost model: exact arithmetic, rule firing, transition and sequence totals."""

from __future__ import annotations

import copy
import pickle
import random
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
    TransitionBreakdown,
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
from cogseq.costs import DEFAULT_MATRIX, DEFAULT_RULE_COSTS, MAX_EFFECT

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
        None, [1], {}, [0, [4, 2], -2], (0, (4, 2), -2), "1_000",
        "\u0661\u0662", "\uff11.\uff15",
    ])
    def test_rejections(self, bad):
        with pytest.raises(CostModelError):
            to_thousandths(bad)

    @pytest.mark.parametrize("value", [
        "0.7430000000000000000000000000009", "1e-1000030", "-1e-1000030",
        Decimal("0.1600000000000000000000000000001"), Decimal("1e-1000030"),
    ], ids=repr)
    def test_excess_digits_are_refused_not_rounded(self, value):
        # Past Decimal's default 28 digits of precision, or below its
        # smallest exponent, scaling would round these to 743, 0 and 160.
        with pytest.raises(CostModelError,
                           match="has more than 3 fractional digits"):
            to_thousandths(value)

    def test_exact_past_default_precision(self):
        assert to_thousandths("0.7430000000000000000000000000000") == 743
        assert to_thousandths("0e-1000030") == 0
        with pytest.raises(CostModelError, match="is too large"):
            to_thousandths("1e999999999999")
        # A 31-digit integer is refused for its size, not for its digits.
        with pytest.raises(CostModelError, match="exceeds the maximum"):
            to_thousandths(10 ** 30 + 1)

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
        model = CostModel(rules={Rule.MODALITY: MAX_EFFECT})
        assert model.rule_cost(Rule.MODALITY) == MAX_EFFECT
        with pytest.raises(CostModelError, match="Modality cost exceeds"):
            CostModel(rules={Rule.MODALITY: MAX_EFFECT + 1})

    @pytest.mark.parametrize("rules,message", [
        ({Rule.MODALITY: "1"}, "Modality cost must be integer thousandths"),
        ({Rule.MODALITY: 1.5}, "Modality cost must be integer thousandths"),
        ({Rule.MODALITY: True}, "Modality cost must be integer thousandths"),
        ({Rule.FAMILIARITY: -1}, "Familiarity cost is negative"),
        ({Rule.FAMILIARITY: MAX_EFFECT + 1}, "Familiarity cost exceeds"),
        ({"Modality": 160}, "keyed by Rule, got 'Modality'"),
    ], ids=["str", "float", "bool", "negative", "above-max", "label-key"])
    def test_bad_rule_cost_rejected(self, rules, message):
        with pytest.raises(CostModelError, match=message):
            CostModel(rules=rules)

    def test_rule_table_order_is_canonical(self):
        a = CostModel(rules={Rule.FAMILIARITY: 1, Rule.MODALITY: 2})
        b = CostModel(rules={Rule.MODALITY: 2, Rule.FAMILIARITY: 1})
        assert a == b and hash(a) == hash(b)
        assert a.rules == ((Rule.MODALITY, 2), (Rule.FAMILIARITY, 1))
        assert list(a.active_rule_costs()) == [Rule.MODALITY, Rule.FAMILIARITY]
        for copied in (pickle.loads(pickle.dumps(a)), a._replace(),
                       a._replace(rules=a.rules),
                       a._replace(rules=a.active_rule_costs())):
            assert copied == a and hash(copied) == hash(a)
            assert copied.rules == a.rules

    def test_withholding_every_rule(self):
        model = CostModel(rules={})
        assert all(model.rule_cost(rule) is None for rule in Rule)
        assert model.active_rule_costs() == {}

    @pytest.mark.parametrize("model,expected", [
        (CostModel(), False),
        (CostModel(recent_practice_scope=Scope.FULL_HISTORY), True),
        (CostModel.calibrated(), False),
        (CostModel.calibrated()._replace(
            recent_practice_scope=Scope.FULL_HISTORY), False),
        (CostModel(rules={},
                   recent_practice_scope=Scope.FULL_HISTORY), False),
    ], ids=["literal", "literal-full", "calibrated", "calibrated-full",
            "no-rules-full"])
    def test_history_dependent(self, model, expected):
        assert model.history_dependent is expected

    @pytest.mark.parametrize("model", [
        CostModel(), CostModel.calibrated(), CostModel(rules={}),
        CostModel(recent_practice_scope=Scope.FULL_HISTORY),
    ], ids=["literal", "calibrated", "no-rules", "full-history"])
    def test_resolved_rules_survive_copies(self, model):
        twin = CostModel(matrix=model.matrix, rules=model.rules,
                         recent_practice_scope=model.recent_practice_scope)
        assert twin == model and hash(twin) == hash(model)
        for copied in (model._replace(), copy.copy(model),
                       copy.deepcopy(model),
                       pickle.loads(pickle.dumps(model))):
            assert copied == model and hash(copied) == hash(model)
            assert copied.active_rule_costs() == model.active_rule_costs()
            assert copied.rules == model.rules
        literal = model._replace(rules=DEFAULT_RULE_COSTS)
        assert literal.active_rule_costs() == DEFAULT_RULE_COSTS
        assert literal == CostModel(
            recent_practice_scope=model.recent_practice_scope)

    @pytest.mark.parametrize("build", [
        lambda bad: CostModel(recent_practice_scope=bad.recent_practice_scope),
        lambda bad: CostModel()._replace(
            recent_practice_scope=bad.recent_practice_scope),
        lambda bad: pickle.loads(pickle.dumps(bad)),
        copy.copy,
    ], ids=["constructor", "replace", "pickle", "copy"])
    def test_scope_must_be_a_scope(self, build):
        # A label is no scope: history_dependent read it as adjacent-only,
        # and fired_rules, which tests for adjacent-only, as full history.
        bad = tuple.__new__(CostModel, (DEFAULT_MATRIX, (), "full-history"))
        with pytest.raises(CostModelError,
                           match="recent_practice_scope must be a Scope"):
            build(bad)

    def test_rule_parse_aliases(self):
        assert Rule.parse("RecentPractice") is Rule.RECENT_PRACTICE
        assert Rule.parse("recent_practice") is Rule.RECENT_PRACTICE
        assert Rule.parse("voluntary-complexity-drop") is Rule.VOLUNTARY_COMPLEXITY_DROP
        with pytest.raises(CostModelError, match="unknown rule"):
            Rule.parse("Bogus")
        with pytest.raises(CostModelError, match="unknown rule 3"):
            Rule.parse(3)

    def test_scope_parse(self):
        assert Scope.parse("adjacent") is Scope.ADJACENT
        assert Scope.parse("full-history") is Scope.FULL_HISTORY
        assert Scope.parse("full_history") is Scope.FULL_HISTORY
        with pytest.raises(CostModelError):
            Scope.parse("medium")
        with pytest.raises(CostModelError, match="unknown scope 3"):
            Scope.parse(3)


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
        model = CostModel(rules={})
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
        no_rules = CostModel(rules={})
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
            CostModel(rules={}),
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
        model = CostModel(rules={})
        wf1 = Workflow.from_tasks([a1, b1])
        wf2 = Workflow.from_tasks([a2, b2])
        assert sequence_cost(("A", "B"), wf1, model)[0] == \
            sequence_cost(("A", "B"), wf2, model)[0] == 433


class TestTransitionBreakdown:
    """The record ``sequence_cost`` and ``transition_cost`` return."""

    @pytest.fixture()
    def aups(self, full_document):
        wf = instantiate_variant(full_document.workflow, "AUTH", "AUPS")
        ordering = full_document.known_orderings["paper_optimal_aups"]
        return wf, ordering, CostModel.calibrated()

    def test_fields_are_read_only(self, aups):
        wf, ordering, model = aups
        step = sequence_cost(ordering, wf, model)[1][0]
        for name in TransitionBreakdown._fields:
            with pytest.raises(AttributeError):
                setattr(step, name, 0)

    def test_field_order(self):
        assert TransitionBreakdown._fields == (
            "previous", "current", "resource_cost", "fired", "total")

    def test_repr(self, aups):
        wf, ordering, model = aups
        step = sequence_cost(ordering, wf, model)[1][0]
        assert repr(step) == (
            "TransitionBreakdown(previous='LANG', current='AIRL', "
            "resource_cost=433, fired=(), total=433)")

    def test_both_builders_agree(self, aups):
        wf, ordering, model = aups
        tasks = [wf.tasks[code] for code in ordering]
        _, steps = sequence_cost(ordering, wf, model)
        for i, step in enumerate(steps, start=1):
            single = transition_cost(tasks[i - 1], tasks[i], tasks[:i], model)
            assert step == single
            assert hash(step) == hash(single)
