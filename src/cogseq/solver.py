"""Optimal, pessimal, and top-k orderings of a workflow under a cost model.

Two routes are provided on purpose.  ``solve`` runs the exact search in
``_search``: a dynamic program over the order ideals of the precedence
order gives the exact cost of finishing from every prefix, and a
lexicographic branch and bound pruned by it collects the top k.
``brute_force`` is the reference: it enumerates every extension in
lexicographic order and prices each one, sharing no code with the search.
Agreement between the two is part of the test contract.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cache
from time import perf_counter

from . import _backend
from .costs import (
    RESOURCE_INDEX,
    CostModel,
    Rule,
    TransitionBreakdown,
    pair_cost,
    sequence_cost,
)
from .errors import BudgetExceededError, CogseqError, WorkflowError
from .model import (
    Ordering,
    Resource,
    Task,
    Workflow,
    _precedence,
    count_linear_extensions,
    enumerate_linear_extensions,
    instantiate_variant,
    validate_workflow,
)

DEFAULT_BUDGET = 10_000_000


class Objective(enum.Enum):
    MINIMIZE = "minimize"
    MAXIMIZE = "maximize"

    @classmethod
    def parse(cls, label: str) -> Objective:
        folded = label.strip().lower()
        if folded in ("min", "minimize", "minimise"):
            return cls.MINIMIZE
        if folded in ("max", "maximize", "maximise"):
            return cls.MAXIMIZE
        raise CogseqError(f"unknown objective {label!r} (expected min or max)")


@dataclass(frozen=True, slots=True)
class SearchStats:
    """Informational counters, excluded from machine-readable output.

    For ``solve``, ``nodes`` and ``prunes`` count the depth-first steps
    tried and cut off, not the order ideals of its dynamic program.
    ``brute_force`` counts each priced extension as a node and never prunes.
    """

    nodes: int
    prunes: int
    elapsed: float


@dataclass(frozen=True)
class Solution:
    ordering: Ordering
    total: int
    breakdowns: tuple[TransitionBreakdown, ...]
    stats: SearchStats


@dataclass(frozen=True)
class SolveRequest:
    workflow: Workflow
    model: CostModel = field(default_factory=CostModel.calibrated)
    objective: Objective = Objective.MINIMIZE
    k: int = 1

    def __post_init__(self):
        if self.k < 1:
            raise CogseqError(f"k must be at least 1, got {self.k}")


def _checked(workflow: Workflow, operation: str) -> None:
    workflow.require_concrete(operation)
    report = validate_workflow(workflow)
    if not report.ok:
        raise WorkflowError(f"invalid workflow:\n{report.summary()}")


class _PairRow(dict):
    """``pair[a]``: b -> cost of a immediately before b, priced on first read."""

    __slots__ = ("_a", "_price")

    def __init__(self, a: int, price):
        self._a = a
        self._price = price

    def __missing__(self, b: int) -> int:
        cost = self[b] = self._price(self._a, b)
        return cost


def _kernel_inputs(workflow: Workflow, model: CostModel):
    """Index-space inputs for the search engine, with pair rows priced on
    first read.

    Codes and prerequisite masks come from :func:`model._precedence`, in
    ascending code order, so index tuples compare exactly like code
    sequences.  Each ``pair[a]`` starts empty and prices ``pair[a][b]`` the
    first time the search reads it.  The search reads only the b that can
    follow a immediately in some linear extension, so those transitions are
    the only ones priced, each once.  Under full-history scope the
    history-dependent RecentPractice term is lifted out of the pair rows
    into (shares, rp_cost); otherwise it stays folded into them.
    """
    codes, preds, _ = _precedence(workflow)
    tasks = [workflow.tasks[code] for code in codes]
    n = len(codes)

    if model.history_dependent:
        rp_cost = model.rule_cost(Rule.RECENT_PRACTICE)
        base_model = model.without_rule(Rule.RECENT_PRACTICE)
        # shares[j]: the other tasks with j's modality or j's resource.
        by_modality: dict[str, int] = {}
        by_resource: dict[Resource, int] = {}
        for i, task in enumerate(tasks):
            by_modality[task.modality] = (by_modality.get(task.modality, 0)
                                          | 1 << i)
            by_resource[task.resource] = (by_resource.get(task.resource, 0)
                                          | 1 << i)
        shares = [(by_modality[task.modality] | by_resource[task.resource])
                  & ~(1 << j) for j, task in enumerate(tasks)]
    else:
        rp_cost = 0
        base_model = model
        shares = [0] * n

    price = _pair_pricer(tasks, base_model)
    pair = [_PairRow(a, price) for a in range(n)]
    return codes, preds, pair, shares, rp_cost


def _pair_pricer(tasks: list[Task], model: CostModel):
    """``price(a, b)``: ``pair_cost(tasks[a], tasks[b], model)`` from
    per-task integer arrays, without building a breakdown per pair."""
    costs = dict(model._rule_costs)
    modality = costs.get(Rule.MODALITY, 0)
    practice = costs.get(Rule.RECENT_PRACTICE, 0)
    familiarity = costs.get(Rule.FAMILIARITY, 0)
    matrix = model.matrix
    modality_ids: dict[str, int] = {}
    res = [RESOURCE_INDEX[task.resource] for task in tasks]
    mod = [modality_ids.setdefault(task.modality, len(modality_ids))
           for task in tasks]
    fam = [task.familiarity for task in tasks]
    cx = [task.complexity for task in tasks]
    # The complexity-drop rule that fires on entering each task.
    drop = [costs.get(Rule.VOLUNTARY_COMPLEXITY_DROP if task.voluntary
                      else Rule.INVOLUNTARY_COMPLEXITY_DROP, 0)
            for task in tasks]

    def price(a: int, b: int) -> int:
        cost = matrix[res[a]][res[b]]
        if res[a] == res[b]:
            # RecentPractice's window is a alone: same resource, or same
            # modality, fires it.
            cost += practice
            if mod[a] != mod[b]:
                cost += modality
        elif mod[a] == mod[b]:
            cost += practice
        if fam[b] > fam[a]:
            cost += familiarity
        if cx[b] < cx[a]:
            cost += drop[b]
        return cost

    return price


def _pair_memo(workflow: Workflow, model: CostModel):
    """``price(a, b)`` by code: ``pair_cost``, called once per pair asked."""
    tasks = workflow.tasks

    @cache
    def price(a: str, b: str) -> int:
        return pair_cost(tasks[a], tasks[b], model)

    return price


def _ordering_total(ordering: Ordering, workflow: Workflow, model: CostModel,
                    price) -> int:
    if price is not None:
        return sum(
            price(ordering[i], ordering[i + 1])
            for i in range(len(ordering) - 1)
        )
    total, _ = sequence_cost(ordering, workflow, model)
    return total


def _finish(workflow: Workflow, model: CostModel, ordering: Ordering,
            total: int, stats: SearchStats) -> Solution:
    check, breakdowns = sequence_cost(ordering, workflow, model)
    if check != total:
        raise CogseqError(
            f"internal error: search total {total} disagrees with "
            f"recomputed sequence cost {check} for {ordering}"
        )
    return Solution(ordering=ordering, total=total, breakdowns=breakdowns,
                    stats=stats)


def solve(request: SolveRequest) -> list[Solution]:
    """Best-first list of at most k extremal orderings.

    Deterministic: ties are broken by lexicographically smallest code
    sequence.  Raises :class:`BudgetExceededError` when the workflow has
    more than ``_search.MAX_IDEALS`` order ideals.
    """
    workflow, model = request.workflow, request.model
    _checked(workflow, "solve")
    start = perf_counter()
    codes, preds, pair, shares, rp_cost = _kernel_inputs(workflow, model)
    solutions, nodes, prunes = _backend.search(
        len(codes), preds, pair, shares, rp_cost,
        request.objective is Objective.MAXIMIZE, request.k)
    stats = SearchStats(nodes=nodes, prunes=prunes,
                        elapsed=perf_counter() - start)
    return [
        _finish(workflow, model, tuple(codes[i] for i in seq), total, stats)
        for total, seq in solutions
    ]


def brute_force(workflow: Workflow, model: CostModel,
                objective: Objective = Objective.MINIMIZE) -> Solution:
    """Extremal ordering by pricing every linear extension, no search tree.

    Refuses to start when the workflow has more than ``DEFAULT_BUDGET``
    linear extensions.  Shares the tie-break with solve: among equal totals,
    the lexicographically smallest code sequence wins (enumeration order
    makes that the first one seen, and ``min`` keeps the first of equal
    keys).
    """
    _checked(workflow, "brute_force")
    start = perf_counter()
    count = count_linear_extensions(workflow)
    if count > DEFAULT_BUDGET:
        raise BudgetExceededError(count, DEFAULT_BUDGET)

    # Unless the model is history-dependent, a total is a sum over
    # consecutive pairs, so orderings are priced pair by pair.
    price = None if model.history_dependent else _pair_memo(workflow, model)
    sign = -1 if objective is Objective.MAXIMIZE else 1
    best = min(
        enumerate_linear_extensions(workflow),
        key=lambda ordering: sign * _ordering_total(ordering, workflow,
                                                    model, price),
    )
    total = _ordering_total(best, workflow, model, price)
    stats = SearchStats(nodes=count, prunes=0,
                        elapsed=perf_counter() - start)
    return _finish(workflow, model, best, total, stats)


@dataclass(frozen=True)
class VariantRow:
    member: str
    solution: Solution


@dataclass(frozen=True)
class VariantComparison:
    """Optimal solution per member of one variant group, cheapest first."""

    group: str
    rows: tuple[VariantRow, ...]
    delta: int


def compare_variants(workflow: Workflow, model: CostModel,
                     baseline: Mapping[str, str] | None = None
                     ) -> tuple[VariantComparison, ...]:
    """Sweep each variant group, solving minimize/k=1 per member.

    With several groups, the groups not being swept are pinned to
    ``baseline`` choices; a missing baseline entry is an error rather than a
    silent guess.
    """
    if workflow.is_concrete:
        raise WorkflowError(
            "workflow has no variant groups; use solve for a plain optimum"
        )
    baseline = dict(baseline or {})
    group_codes = {g.code for g in workflow.variant_groups}
    for code in baseline:
        if code not in group_codes:
            raise WorkflowError(f"baseline names unknown variant group {code!r}")

    comparisons: list[VariantComparison] = []
    for grp in workflow.variant_groups:
        rows: list[VariantRow] = []
        for member in sorted(grp.members):
            candidate = instantiate_variant(workflow, grp.code, member)
            for other in tuple(candidate.variant_groups):
                if other.code not in baseline:
                    raise WorkflowError(
                        f"several variant groups are unresolved; pick a "
                        f"baseline member for {other.code!r} while sweeping "
                        f"{grp.code!r}"
                    )
                candidate = instantiate_variant(candidate, other.code,
                                                baseline[other.code])
            solution = solve(SolveRequest(
                workflow=candidate, model=model,
                objective=Objective.MINIMIZE, k=1,
            ))[0]
            rows.append(VariantRow(member=member, solution=solution))
        rows.sort(key=lambda row: (row.solution.total, row.member))
        delta = rows[-1].solution.total - rows[0].solution.total
        comparisons.append(VariantComparison(
            group=grp.code, rows=tuple(rows), delta=delta,
        ))
    return tuple(comparisons)
