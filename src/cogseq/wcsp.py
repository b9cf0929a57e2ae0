"""Weighted-CSP view of a workflow: one variable per step, one value per task.

The encoding mirrors the standard step/task formulation: variables x_1..x_n
are the sequence positions, domain values 0..d-1 name the tasks (ascending
task code), an AllDifferent spans all variables, each precedence edge becomes
an OrderPair over values, and switching costs sit in a d-by-d table applied
to every adjacent variable pair.  Hard constraints act as infinite cost, so
evaluation returns None for infeasible assignments.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .costs import CostModel, pair_cost, render_effect
from .errors import CostModelError, OrderingError, WorkflowError
from .model import Ordering, Workflow, _require_valid


@dataclass(frozen=True, slots=True)
class AllDifferent:
    """Every domain value is used exactly once (scope: all variables)."""


@dataclass(frozen=True, slots=True)
class OrderPair:
    """Value ``before`` may never be assigned later than value ``after``."""

    before: int
    after: int

    def __post_init__(self):
        if self.before == self.after:
            raise WorkflowError("OrderPair values must be distinct")


HardConstraint = AllDifferent | OrderPair


@dataclass(frozen=True)
class WcspInstance:
    """Immutable encoded problem; ``codes`` is the value -> task-code table."""

    codes: tuple[str, ...]
    hard_constraints: tuple[HardConstraint, ...]
    binary_costs: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        """Variable count; equals the domain size (one step per task)."""
        return len(self.codes)

    def value_of(self, code: str) -> int:
        try:
            return self.codes.index(code)
        except ValueError:
            raise WorkflowError(f"unknown task code {code!r}") from None

    def order_pairs(self) -> tuple[OrderPair, ...]:
        return tuple(c for c in self.hard_constraints if isinstance(c, OrderPair))


def encode_workflow(workflow: Workflow, model: CostModel) -> WcspInstance:
    """Encode a concrete, valid workflow under a pairwise cost model.

    binary_costs[a][b] prices task a immediately before task b, so the table
    only sees one step of history; a history-dependent model (RecentPractice
    present under full-history scope) cannot be expressed this way and is
    rejected.
    """
    _require_valid(workflow, "WCSP encoding")
    if model.history_dependent:
        raise CostModelError(
            "full-history recent-practice scope cannot be encoded as "
            "adjacent binary costs; use the sequence-search solver instead"
        )

    codes = workflow.codes()
    value = {code: i for i, code in enumerate(codes)}
    constraints: list[HardConstraint] = [AllDifferent()]
    for pre, dependent in workflow.precedence_edges():
        constraints.append(OrderPair(before=value[pre], after=value[dependent]))

    tasks = [workflow.tasks[code] for code in codes]
    costs = tuple(
        tuple(
            0 if a == b else pair_cost(tasks[a], tasks[b], model)
            for b in range(len(codes))
        )
        for a in range(len(codes))
    )
    return WcspInstance(codes=codes, hard_constraints=tuple(constraints),
                        binary_costs=costs)


Assignment = Sequence[int]


def _require_complete(instance: WcspInstance, assignment: Assignment) -> None:
    if len(assignment) != instance.n:
        raise OrderingError(
            f"assignment is incomplete: {len(assignment)} of "
            f"{instance.n} variables assigned"
        )
    for step, val in enumerate(assignment):
        if not isinstance(val, int) or isinstance(val, bool):
            raise OrderingError(f"variable x{step + 1} has non-value {val!r}")
        if not 0 <= val < instance.n:
            raise OrderingError(
                f"variable x{step + 1} assigned {val}, outside 0..{instance.n - 1}"
            )


def evaluate_assignment(instance: WcspInstance,
                        assignment: Assignment) -> int | None:
    """Cost of a complete assignment, or None if a hard constraint fails.

    OrderPair is checked pairwise over every earlier/later variable pair,
    matching its decomposed definition rather than a positional shortcut.
    """
    _require_complete(instance, assignment)
    n = instance.n
    for constraint in instance.hard_constraints:
        if isinstance(constraint, AllDifferent):
            if len(set(assignment)) != n:
                return None
        else:
            for i in range(n):
                if assignment[i] != constraint.after:
                    continue
                for j in range(i + 1, n):
                    if assignment[j] == constraint.before:
                        return None
    return sum(
        instance.binary_costs[assignment[i]][assignment[i + 1]]
        for i in range(n - 1)
    )


def ordering_to_assignment(instance: WcspInstance,
                           ordering: Ordering | Sequence[str]) -> tuple[int, ...]:
    """Step-indexed values for an ordering (assignment[i] = value at step i+1)."""
    return tuple(instance.value_of(code) for code in ordering)


def assignment_to_ordering(instance: WcspInstance,
                           assignment: Assignment) -> Ordering:
    _require_complete(instance, assignment)
    return tuple(instance.codes[val] for val in assignment)


def dump_instance(instance: WcspInstance) -> str:
    """Human-readable listing for debugging; not a stable format."""
    n = instance.n
    lines = [f"variables: x1..x{n} over values 0..{n - 1}", "values:"]
    for val, code in enumerate(instance.codes):
        lines.append(f"  {val} = {code}")
    lines.append("hard constraints:")
    for constraint in instance.hard_constraints:
        if isinstance(constraint, AllDifferent):
            lines.append(f"  alldifferent(x1..x{n})")
        else:
            lines.append(
                f"  order({instance.codes[constraint.before]} before "
                f"{instance.codes[constraint.after]})"
            )
    lines.append("binary costs (adjacent pairs, from row to column):")
    lines.append(" " * 9 + " ".join(f"{code:>6}" for code in instance.codes))
    for a, code in enumerate(instance.codes):
        cells = " ".join(
            f"{render_effect(instance.binary_costs[a][b]):>6}" for b in range(n)
        )
        lines.append(f"  {code:>6} {cells}")
    return "\n".join(lines)
