"""Task-switch cost model: resource-transition matrix plus property rules.

All costs are Cohen's d effect sizes held as exact integer thousandths, so
sequence totals are sums of nonnegative integers with no floating drift.
``render_effect`` converts back to a decimal string for display.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from decimal import Decimal, InvalidOperation, Overflow

from .errors import CostModelError, OrderingError
from .model import (
    RESOURCE_ORDER,
    Ordering,
    Resource,
    Task,
    Workflow,
    extension_violation,
)

RESOURCE_INDEX = {resource: i for i, resource in enumerate(RESOURCE_ORDER)}

#: Largest accepted effect size, in thousandths: d = 1,000,000, far above
#: any published switch cost (the largest, a voluntary complexity drop, is
#: d = 2.92).  Bounding costs keeps every total printable as a decimal.
MAX_EFFECT = 10 ** 9


def _above_max(what: str) -> CostModelError:
    return CostModelError(
        f"{what} exceeds the maximum effect size {render_effect(MAX_EFFECT)}"
    )


def to_thousandths(value: int | float | str | Decimal) -> int:
    """Convert an effect size to integer thousandths, exactly.

    Accepts ints, decimal strings, Decimal, and floats (read back through
    their shortest decimal form); any other type, bool included, is
    rejected.  Values with more than three fractional digits, below zero or
    above :data:`MAX_EFFECT` are rejected rather than rounded or clamped,
    and so are infinities and NaNs.
    """
    if (isinstance(value, bool)
            or not isinstance(value, (int, float, str, Decimal))):
        # The type, not the value: a list holding a huge int has no repr.
        raise CostModelError(
            f"effect size must be numeric, got {type(value).__name__}"
        )
    try:
        if isinstance(value, float):
            dec = Decimal(str(value))
        else:
            dec = Decimal(value)
    except InvalidOperation:
        raise CostModelError(f"invalid effect size {value!r}") from None
    if not dec.is_finite():
        raise CostModelError(f"effect size {value!r} is not finite")
    try:
        scaled = dec.scaleb(3)
    except Overflow:
        raise CostModelError(f"effect size {value!r} is too large") from None
    if scaled != scaled.to_integral_value():
        raise CostModelError(
            f"effect size {value!r} has more than 3 fractional digits"
        )
    if scaled < 0:
        raise CostModelError(f"effect size {value!r} is negative")
    if scaled > MAX_EFFECT:
        # Not the value itself: a huge int cannot be converted to a string.
        raise _above_max("value")
    return int(scaled)


def render_effect(thousandths: int) -> str:
    """Render integer thousandths as a minimal decimal string (743 -> '0.743')."""
    sign = "-" if thousandths < 0 else ""
    whole, frac = divmod(abs(thousandths), 1000)
    if frac == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}." + f"{frac:03d}".rstrip("0")


class Rule(enum.Enum):
    """The five property-transition rules; values are the external rule ids."""

    MODALITY = "Modality"
    RECENT_PRACTICE = "RecentPractice"
    FAMILIARITY = "Familiarity"
    VOLUNTARY_COMPLEXITY_DROP = "VoluntaryComplexityDrop"
    INVOLUNTARY_COMPLEXITY_DROP = "InvoluntaryComplexityDrop"

    @classmethod
    def parse(cls, label: str) -> Rule:
        """Accept the canonical id, the enum name, or snake_case spelling."""
        folded = label.strip().replace("-", "_").replace(" ", "_").lower()
        for rule in cls:
            if folded in (rule.value.lower(), rule.name.lower()):
                return rule
        raise CostModelError(
            f"unknown rule {label!r} (expected one of: "
            + ", ".join(rule.value for rule in cls) + ")"
        )


#: Canonical evaluation and reporting order for rules.
RULE_ORDER: tuple[Rule, ...] = (
    Rule.MODALITY,
    Rule.RECENT_PRACTICE,
    Rule.FAMILIARITY,
    Rule.VOLUNTARY_COMPLEXITY_DROP,
    Rule.INVOLUNTARY_COMPLEXITY_DROP,
)

# The rules as module globals for ``_fired``, which runs once per priced
# transition: reading a member off an Enum class costs about ten times as
# much as reading a global.
_MODALITY, _RECENT_PRACTICE, _FAMILIARITY, _VOLUNTARY_DROP = RULE_ORDER[:4]


class Scope(enum.Enum):
    """How far back the RecentPractice rule looks."""

    ADJACENT = "adjacent-only"
    FULL_HISTORY = "full-history"

    @classmethod
    def parse(cls, label: str) -> Scope:
        folded = label.strip().replace("_", "-").lower()
        aliases = {
            "adjacent": cls.ADJACENT,
            "adjacent-only": cls.ADJACENT,
            "full": cls.FULL_HISTORY,
            "full-history": cls.FULL_HISTORY,
        }
        try:
            return aliases[folded]
        except KeyError:
            raise CostModelError(
                f"unknown scope {label!r} (expected adjacent-only or full-history)"
            ) from None


@dataclass(frozen=True, slots=True)
class TransitionRule:
    """One property rule with its flat cost in thousandths."""

    rule: Rule
    cost: int

    def __post_init__(self):
        if self.cost < 0:
            raise CostModelError(
                f"rule {self.rule.value} has negative cost {self.cost}"
            )
        if self.cost > MAX_EFFECT:
            raise _above_max(f"rule {self.rule.value} cost")


# Resource-transition costs in thousandths; rows = from, cols = to, both in
# RESOURCE_ORDER (VWM, PM, DR, SR, ER).
DEFAULT_MATRIX: tuple[tuple[int, ...], ...] = (
    (0, 495, 495, 495, 157),
    (495, 0, 495, 699, 699),
    (495, 495, 0, 482, 482),
    (495, 842, 1078, 0, 433),
    (307, 842, 1078, 354, 0),
)

DEFAULT_RULE_COSTS: dict[Rule, int] = {
    Rule.MODALITY: 160,
    Rule.RECENT_PRACTICE: 310,
    Rule.FAMILIARITY: 420,
    Rule.VOLUNTARY_COMPLEXITY_DROP: 2920,
    Rule.INVOLUNTARY_COMPLEXITY_DROP: 1630,
}

DEFAULT_RULES: frozenset[TransitionRule] = frozenset(
    TransitionRule(rule, cost) for rule, cost in DEFAULT_RULE_COSTS.items()
)


@dataclass(frozen=True)
class CostModel:
    """Immutable cost configuration; all evaluation functions are pure.

    A rule participates iff present in ``rules``, so removing an entry
    withholds that rule entirely and ``rules=frozenset()`` withholds them
    all.  The bare constructor is the literal published model.
    :meth:`calibrated` is the recommended configuration for the bundled
    check-in workflows: identical except that RecentPractice is withheld,
    which keeps the cost of swapping the two interchangeable seat-selection
    tasks at exactly zero and tracks the published benchmark totals far more
    closely (see README).
    """

    matrix: tuple[tuple[int, ...], ...] = DEFAULT_MATRIX
    rules: frozenset[TransitionRule] = DEFAULT_RULES
    recent_practice_scope: Scope = Scope.ADJACENT
    #: The present rules' (rule, cost) pairs in :data:`RULE_ORDER`, resolved
    #: once here because every priced transition reads them.
    _rule_costs: tuple[tuple[Rule, int], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        matrix = tuple(tuple(row) for row in self.matrix)
        n = len(RESOURCE_ORDER)
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise CostModelError(f"matrix must be {n}x{n}")
        for i, row in enumerate(matrix):
            for j, cell in enumerate(row):
                if not isinstance(cell, int) or isinstance(cell, bool):
                    raise CostModelError(
                        f"matrix[{i}][{j}] must be integer thousandths, got {cell!r}"
                    )
                if cell < 0:
                    raise CostModelError(f"matrix[{i}][{j}] is negative")
                if cell > MAX_EFFECT:
                    raise _above_max(f"matrix[{i}][{j}]")
            if row[i] != 0:
                raise CostModelError(
                    f"matrix diagonal must be zero, got {row[i]} at "
                    f"{RESOURCE_ORDER[i].value}"
                )
        object.__setattr__(self, "matrix", matrix)
        rules = frozenset(self.rules)
        seen: set[Rule] = set()
        for entry in rules:
            if entry.rule in seen:
                raise CostModelError(
                    f"rule {entry.rule.value} configured more than once"
                )
            seen.add(entry.rule)
        object.__setattr__(self, "rules", rules)
        present = {entry.rule: entry.cost for entry in rules}
        object.__setattr__(self, "_rule_costs", tuple(
            (rule, present[rule]) for rule in RULE_ORDER if rule in present))

    @classmethod
    def calibrated(cls) -> CostModel:
        """The default configuration used by the command-line tools."""
        kept = frozenset(
            entry for entry in DEFAULT_RULES
            if entry.rule is not Rule.RECENT_PRACTICE
        )
        return cls(rules=kept)

    def rule_cost(self, rule: Rule) -> int | None:
        """Cost of a present rule in thousandths, or None if withheld."""
        for present, cost in self._rule_costs:
            if present is rule:
                return cost
        return None

    @property
    def history_dependent(self) -> bool:
        """True iff RecentPractice is present under full-history scope.

        That is the one setting in which a transition's cost depends on
        more than the task before it, so only then is an ordering's total
        not a sum of adjacent-pair costs.
        """
        return (self.recent_practice_scope is Scope.FULL_HISTORY
                and self.rule_cost(Rule.RECENT_PRACTICE) is not None)

    def without_rule(self, rule: Rule) -> CostModel:
        kept = frozenset(e for e in self.rules if e.rule is not rule)
        return replace(self, rules=kept)

    def active_rule_costs(self) -> dict[Rule, int]:
        """Present rules and costs, in canonical rule order."""
        return dict(self._rule_costs)


def resource_switch_cost(frm: Resource, to: Resource,
                         matrix: Sequence[Sequence[int]] = DEFAULT_MATRIX) -> int:
    return matrix[RESOURCE_INDEX[frm]][RESOURCE_INDEX[to]]


@dataclass(frozen=True, slots=True)
class TransitionBreakdown:
    """One priced transition: matrix term plus every rule that fired."""

    previous: str
    current: str
    resource_cost: int
    fired: tuple[tuple[Rule, int], ...]
    total: int


def _check_history(prev: Task, history: Sequence[Task]) -> None:
    if not history or history[-1] != prev:
        raise CostModelError(
            "history must end with the previous task "
            f"(prev={prev.code!r}, history={[t.code for t in history]!r})"
        )


def fired_rules(prev: Task, cur: Task, history: Sequence[Task],
                model: CostModel) -> tuple[tuple[Rule, int], ...]:
    """Evaluate every present rule for the prev -> cur transition.

    ``history`` is the full sequence placed strictly before ``cur``; only
    RecentPractice looks past its last element, and only under full-history
    scope.  Each rule fires at most once, contributing its flat cost.
    """
    _check_history(prev, history)
    if model.recent_practice_scope is Scope.ADJACENT:
        scope: Sequence[Task] = (prev,)
    else:
        scope = history
    practiced = any(
        earlier.modality == cur.modality or earlier.resource is cur.resource
        for earlier in scope
    )
    return _fired(prev, cur, practiced, model._rule_costs)


def _fired(prev: Task, cur: Task, practiced: bool,
           rule_costs: tuple[tuple[Rule, int], ...]
           ) -> tuple[tuple[Rule, int], ...]:
    """The rules of ``rule_costs`` that fire for prev -> cur.

    ``practiced`` says whether RecentPractice's window holds a task sharing
    cur's modality or resource, which is all that rule needs of the history.
    """
    fired: list[tuple[Rule, int]] = []
    for rule, cost in rule_costs:
        if rule is _MODALITY:
            hit = prev.resource is cur.resource and prev.modality != cur.modality
        elif rule is _RECENT_PRACTICE:
            hit = practiced
        elif rule is _FAMILIARITY:
            hit = cur.familiarity > prev.familiarity
        elif rule is _VOLUNTARY_DROP:
            hit = cur.voluntary and cur.complexity < prev.complexity
        else:
            hit = not cur.voluntary and cur.complexity < prev.complexity
        if hit:
            fired.append((rule, cost))
    return tuple(fired)


def transition_cost(prev: Task, cur: Task, history: Sequence[Task],
                    model: CostModel) -> TransitionBreakdown:
    base = resource_switch_cost(prev.resource, cur.resource, model.matrix)
    fired = fired_rules(prev, cur, history, model)
    return TransitionBreakdown(
        previous=prev.code,
        current=cur.code,
        resource_cost=base,
        fired=fired,
        total=base + sum(cost for _, cost in fired),
    )


def sequence_cost(ordering: Ordering | Sequence[str], workflow: Workflow,
                  model: CostModel) -> tuple[int, tuple[TransitionBreakdown, ...]]:
    """Total switching cost of a linear extension, with per-transition terms.

    The first task is free: only transitions are priced.  Orderings that are
    not linear extensions of the workflow are rejected.  Step i is
    ``transition_cost(tasks[i - 1], tasks[i], tasks[:i], model)``, computed
    in one pass that is linear in the length of the ordering: full-history
    RecentPractice reads running sets of the modalities and resources
    placed so far instead of rescanning the prefix.
    """
    problem = extension_violation(ordering, workflow)
    if problem is not None:
        raise OrderingError(f"not a linear extension: {problem}")
    tasks = [workflow.tasks[code] for code in ordering]
    res = [RESOURCE_INDEX[task.resource] for task in tasks]
    matrix = model.matrix
    rule_costs = model._rule_costs
    full_history = model.recent_practice_scope is Scope.FULL_HISTORY
    modalities: set[str] = set()
    resources: set[int] = set()
    breakdowns: list[TransitionBreakdown] = []
    total = 0
    for i in range(1, len(tasks)):
        prev, cur = tasks[i - 1], tasks[i]
        if full_history:
            modalities.add(prev.modality)
            resources.add(res[i - 1])
            practiced = cur.modality in modalities or res[i] in resources
        else:
            practiced = prev.modality == cur.modality or res[i - 1] == res[i]
        base = matrix[res[i - 1]][res[i]]
        fired = _fired(prev, cur, practiced, rule_costs)
        step = base + sum(cost for _, cost in fired)
        breakdowns.append(TransitionBreakdown(
            previous=prev.code, current=cur.code, resource_cost=base,
            fired=fired, total=step,
        ))
        total += step
    return total, tuple(breakdowns)


def pair_cost(prev: Task, cur: Task, model: CostModel) -> int:
    """Transition cost seen through an adjacent-pair window (history = [prev])."""
    return transition_cost(prev, cur, (prev,), model).total
