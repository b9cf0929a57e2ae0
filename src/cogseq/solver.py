"""Optimal, pessimal, and top-k orderings of a workflow under a cost model.

Two routes are provided on purpose.  ``solve`` runs the exact search in
``_search``: a dynamic program over the order ideals of the precedence
order gives the exact cost of finishing from every prefix, and one
best-first pass keyed by that cost collects the top k.
``brute_force`` is the reference: it enumerates every extension in
lexicographic order and prices each one, sharing no code with the search.
Agreement between the two is part of the test contract.
"""

from __future__ import annotations

import enum
from functools import cache
from time import perf_counter
from typing import NamedTuple

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
    Graph,
    Ordering,
    Task,
    Workflow,
    _checked_make,
    _count_extensions,
    _linear_extensions,
    instantiate_variant,
    validate_workflow,
)

DEFAULT_BUDGET = 10_000_000


class Objective(enum.Enum):
    MINIMIZE = "minimize"
    MAXIMIZE = "maximize"

    @classmethod
    def parse(cls, label: str) -> Objective:
        if isinstance(label, str):
            folded = label.strip().lower()
            if folded in ("min", "minimize", "minimise"):
                return cls.MINIMIZE
            if folded in ("max", "maximize", "maximise"):
                return cls.MAXIMIZE
        raise CogseqError(f"unknown objective {label!r} (expected min or max)")


class SearchStats(NamedTuple):
    """Informational counters, excluded from machine-readable output.

    For ``solve``, ``nodes`` counts the steps the search's best-first pass
    tries, followed or deferred, and ``prunes`` the steps it defers to its
    heap; neither counts the order ideals of its dynamic program.
    ``brute_force`` counts each priced extension as a node and never prunes.
    """

    nodes: int
    prunes: int
    elapsed: float


class Solution(NamedTuple):
    ordering: Ordering
    total: int
    breakdowns: tuple[TransitionBreakdown, ...]
    stats: SearchStats


#: The default model of a request, shared: a cost model is immutable.
_CALIBRATED = CostModel.calibrated()


class _SolveRequestFields(NamedTuple):
    workflow: Workflow
    model: CostModel = _CALIBRATED
    objective: Objective = Objective.MINIMIZE
    k: int = 1


def _require_objective(objective: Objective) -> None:
    if not isinstance(objective, Objective):
        raise CogseqError(
            f"objective must be an Objective, got {objective!r}")


def _require_inputs(workflow: Workflow, model: CostModel) -> None:
    if not isinstance(workflow, Workflow):
        raise CogseqError(f"workflow must be a Workflow, got {workflow!r}")
    if not isinstance(model, CostModel):
        raise CogseqError(f"model must be a CostModel, got {model!r}")


class SolveRequest(_SolveRequestFields):
    """One ``solve`` call; the field types and ``k`` are checked on every
    path that builds a request: the constructor, ``_replace``, pickle and
    copy."""

    __slots__ = ()

    def __new__(cls, workflow: Workflow, model: CostModel = _CALIBRATED,
                objective: Objective = Objective.MINIMIZE,
                k: int = 1) -> SolveRequest:
        _require_inputs(workflow, model)
        _require_objective(objective)
        # A bool is an int, but True is no count of orderings.
        if isinstance(k, bool) or not isinstance(k, int) or k < 1:
            raise CogseqError(f"k must be at least 1 and an int, got {k!r}")
        return tuple.__new__(cls, (workflow, model, objective, k))

    _make = classmethod(_checked_make)


# Not model._require_valid: traced runs wrap this module's validate_workflow.
def _checked(workflow: Workflow, operation: str) -> Graph:
    workflow.require_concrete(operation)
    report = validate_workflow(workflow)
    if not report.ok:
        raise WorkflowError(f"invalid workflow:\n{report.summary()}")
    return report.graph


class _PairRow(dict):
    """``pair[a]``: b -> sign * cost of a immediately before b, priced on
    first read and stored.

    ``__missing__`` prices from ``_inputs``, the one tuple that
    :func:`_kernel_inputs` builds per request for all rows: the
    :func:`_cost_profile` columns a price reads, the model's rule costs,
    ``practice`` in place of the model's RecentPractice cost, and ``sign``.
    Its arithmetic is :func:`~cogseq.costs.pair_cost`'s, without building a
    breakdown per pair.  Rows set their two slots after ``dict`` builds
    them: the class has no ``__init__`` of its own.
    """

    __slots__ = ("_a", "_inputs")

    def __missing__(self, b: int) -> int:
        a = self._a
        (res, mod, fam, cx, drop, matrix, practice, modality, familiarity,
         sign) = self._inputs
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
        cost = self[b] = sign * cost
        return cost


def _kernel_inputs(workflow: Workflow, model: CostModel, graph: Graph,
                   sign: int):
    """Index-space prices of the validated ``graph``'s tasks for the search
    engine, each times ``sign``: 1, or -1 to maximize with a minimizing search.

    Each ``pair[a]`` is a :class:`_PairRow` that starts empty and prices
    ``pair[a][b]`` the first time the search reads it, from one tuple of
    profile columns, rule costs, ``practice`` and ``sign`` built here once
    and shared by every row.  The search reads only the b that can follow
    a immediately in some linear extension, so only those transitions are
    priced, each once.  Under full-history scope the history-dependent
    RecentPractice term is lifted out of the pair rows into (shares,
    rp_cost); otherwise it stays folded into them.  ``twins`` are the
    classes of interchangeable tasks (:func:`_twin_classes`).
    """
    codes, preds, succ = graph
    n = len(codes)
    profile = _cost_profile([workflow.tasks[code] for code in codes])
    res, mod, vol, fam, cx = profile
    costs = dict(model.rules)

    practice = costs.get(Rule.RECENT_PRACTICE, 0)
    if model.history_dependent:
        rp_cost, practice = practice, 0
        # shares[j]: the other tasks with j's resource or j's modality.
        by_resource = [0] * len(RESOURCE_INDEX)
        by_modality = [0] * n
        for i in range(n):
            by_resource[res[i]] |= 1 << i
            by_modality[mod[i]] |= 1 << i
        shares = [(by_resource[res[j]] | by_modality[mod[j]]) & ~(1 << j)
                  for j in range(n)]
    else:
        rp_cost = 0
        shares = [0] * n

    # The complexity-drop rule that fires on entering each task.
    voluntary_drop = costs.get(Rule.VOLUNTARY_COMPLEXITY_DROP, 0)
    involuntary_drop = costs.get(Rule.INVOLUNTARY_COMPLEXITY_DROP, 0)
    inputs = (res, mod, fam, cx,
              [voluntary_drop if v else involuntary_drop for v in vol],
              model.matrix, practice, costs.get(Rule.MODALITY, 0),
              costs.get(Rule.FAMILIARITY, 0), sign)
    pair = []
    for a in range(n):
        row = _PairRow()
        row._a = a
        row._inputs = inputs
        pair.append(row)
    return pair, shares, sign * rp_cost, _twin_classes(profile, preds, succ)


def _cost_profile(tasks: list[Task]) -> tuple[list[int], ...]:
    """Every property a cost reads, as five integer columns: resource index,
    modality id (by first use), voluntary, familiarity and complexity."""
    modality_ids: dict[str, int] = {}
    return ([RESOURCE_INDEX[task.resource] for task in tasks],
            [modality_ids.setdefault(task.modality, len(modality_ids))
             for task in tasks],
            [task.voluntary for task in tasks],
            [task.familiarity for task in tasks],
            [task.complexity for task in tasks])


def _twin_classes(profile: tuple[list[int], ...], preds: tuple[int, ...],
                  succ: tuple[tuple[int, ...], ...]
                  ) -> tuple[tuple[int, ...], ...]:
    """Classes of two or more twins, each ascending, ordered by first index.

    Twins have equal cost profiles, ancestors and descendants (not direct
    edges, which a redundant one would tell apart), so swapping two of them
    turns a linear extension into another of the same cost.
    """
    # Twins are two roots or share their maximal ancestor as a direct
    # prerequisite, so a chain (one root, one dependent at most) has none.
    if preds.count(0) < 2 and max(map(len, succ), default=0) < 2:
        return ()
    # Ancestors in a topological order, descendants in its reverse.
    ancestors = [0] * len(preds)
    waiting = [mask.bit_count() for mask in preds]
    order = [t for t, mask in enumerate(preds) if not mask]
    for t in order:
        below = ancestors[t] | 1 << t
        for s in succ[t]:
            ancestors[s] |= below
            waiting[s] -= 1
            if not waiting[s]:
                order.append(s)
    descendants = [0] * len(preds)
    for t in reversed(order):
        for s in succ[t]:
            descendants[t] |= descendants[s] | 1 << s
    groups: dict[tuple, list[int]] = {}
    for t, key in enumerate(zip(*profile, ancestors, descendants)):
        groups.setdefault(key, []).append(t)
    return tuple(tuple(members) for members in groups.values()
                 if len(members) > 1)


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
    more than ``_search.MAX_IDEALS`` order ideals once twins are chained,
    or when the request takes more than ``_search.MAX_STEPS`` search steps.
    """
    workflow, model = request.workflow, request.model
    graph = _checked(workflow, "solve")
    start = perf_counter()
    codes, preds, succ = graph
    # The search minimizes, so a maximizing request searches negated prices.
    sign = -1 if request.objective is Objective.MAXIMIZE else 1
    pair, shares, rp_cost, twins = _kernel_inputs(workflow, model, graph,
                                                  sign)
    solutions, nodes, prunes = _backend.search(
        preds, succ, pair, shares, rp_cost, request.k, twins)
    stats = SearchStats(nodes=nodes, prunes=prunes,
                        elapsed=perf_counter() - start)
    return [
        _finish(workflow, model, tuple(map(codes.__getitem__, seq)),
                sign * total, stats)
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
    _require_inputs(workflow, model)
    _require_objective(objective)
    graph = _checked(workflow, "brute_force")
    start = perf_counter()
    count = _count_extensions(graph)
    if count > DEFAULT_BUDGET:
        raise BudgetExceededError(count, DEFAULT_BUDGET)

    # Unless the model is history-dependent, a total is a sum over
    # consecutive pairs, so orderings are priced pair by pair.
    price = None if model.history_dependent else _pair_memo(workflow, model)
    sign = -1 if objective is Objective.MAXIMIZE else 1
    best = min(
        _linear_extensions(graph),
        key=lambda ordering: sign * _ordering_total(ordering, workflow,
                                                    model, price),
    )
    total = _ordering_total(best, workflow, model, price)
    stats = SearchStats(nodes=count, prunes=0,
                        elapsed=perf_counter() - start)
    return _finish(workflow, model, best, total, stats)


class VariantRow(NamedTuple):
    member: str
    solution: Solution


class VariantComparison(NamedTuple):
    """Optimal solution per member of one variant group, cheapest first."""

    group: str
    rows: tuple[VariantRow, ...]
    delta: int


def compare_variants(workflow: Workflow, model: CostModel
                     ) -> tuple[VariantComparison, ...]:
    """Sweep the workflow's one variant group, solving minimize/k=1 per
    member.

    A workflow with several unresolved groups is refused rather than
    resolved by a guess: resolve all but one first.  A group with no
    members, or with a member that is no task, raises :class:`WorkflowError`.
    """
    _require_inputs(workflow, model)
    if workflow.is_concrete:
        raise WorkflowError(
            "workflow has no variant groups; use solve for a plain optimum"
        )
    if len(workflow.variant_groups) > 1:
        groups = ", ".join(g.code for g in workflow.variant_groups)
        raise WorkflowError(
            f"several variant groups are unresolved ({groups}); "
            f"compare_variants sweeps one: resolve the others with "
            f"instantiate_variant or --variant GROUP=MEMBER"
        )
    (grp,) = workflow.variant_groups
    if not grp.members:
        raise WorkflowError(f"variant group {grp.code!r} has no members")
    rows: list[VariantRow] = []
    for member in sorted(grp.members):
        candidate = instantiate_variant(workflow, grp.code, member)
        solution = solve(SolveRequest(
            workflow=candidate, model=model,
            objective=Objective.MINIMIZE, k=1,
        ))[0]
        rows.append(VariantRow(member=member, solution=solution))
    rows.sort(key=lambda row: (row.solution.total, row.member))
    delta = rows[-1].solution.total - rows[0].solution.total
    return (VariantComparison(group=grp.code, rows=tuple(rows), delta=delta),)
