"""Task-switch cost model: resource-transition matrix plus property rules.

All costs are Cohen's d effect sizes held as exact integer thousandths, so
sequence totals are sums of nonnegative integers with no floating drift.
``render_effect`` converts back to a decimal string for display.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Mapping, Sequence
from typing import TYPE_CHECKING, NamedTuple

from .errors import CostModelError, OrderingError, _shown
from .model import (
    RESOURCE_ORDER,
    Ordering,
    Resource,
    Task,
    Workflow,
    _checked_make,
    extension_violation,
)

if TYPE_CHECKING:
    from decimal import Decimal

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

    Accepts ints, plain ASCII decimal strings, Decimal, and floats (read
    back through their shortest decimal form); any other type, bool
    included, is rejected.  Values with more than three fractional digits, below zero or
    above :data:`MAX_EFFECT` are rejected rather than rounded or clamped,
    and so are infinities and NaNs.
    """
    # Imported here: only cost-model documents reach this, not solve().
    from decimal import Context, Decimal, Inexact, InvalidOperation, Overflow

    if (isinstance(value, bool)
            or not isinstance(value, (int, float, str, Decimal))):
        # The type, not the value: a list holding a huge int has no repr.
        raise CostModelError(
            f"effect size must be numeric, got {type(value).__name__}"
        )
    if isinstance(value, str) and ("_" in value or not value.isascii()):
        # Decimal accepts PEP 515 digit grouping and any Unicode decimal
        # digit ("١٢", "１.５"); cost models hold plain ASCII decimals only.
        raise CostModelError(f"invalid effect size {_shown(value)}")
    try:
        if isinstance(value, float):
            dec = Decimal(str(value))
        else:
            dec = Decimal(value)
    except InvalidOperation:
        raise CostModelError(f"invalid effect size {_shown(value)}") from None
    if not dec.is_finite():
        raise CostModelError(f"effect size {_shown(value)} is not finite")
    # A precision that holds every digit, so scaling never rounds; a value
    # too small to scale without rounding (Inexact) has excess digits too.
    exact = Context(prec=len(dec.as_tuple().digits), traps=[Overflow, Inexact])
    try:
        scaled = dec.scaleb(3, exact)
    except Overflow:
        raise CostModelError(f"effect size {_shown(value)} is too large") from None
    except Inexact:
        scaled = None
    if scaled is None or scaled != scaled.to_integral_value():
        raise CostModelError(
            f"effect size {_shown(value)} has more than 3 fractional digits"
        )
    if scaled < 0:
        raise CostModelError(f"effect size {_shown(value)} is negative")
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

    # Members are singletons compared by identity, so dicts keyed by them
    # need no Python-level Enum.__hash__ per lookup.
    __hash__ = object.__hash__

    @classmethod
    def parse(cls, label: str) -> Rule:
        """Accept the canonical id, the enum name, or snake_case spelling."""
        if isinstance(label, str):
            folded = label.strip().replace("-", "_").replace(" ", "_").lower()
            for rule in cls:
                if folded in (rule.value.lower(), rule.name.lower()):
                    return rule
        raise CostModelError(
            f"unknown rule {label!r} (expected one of: "
            + ", ".join(rule.value for rule in cls) + ")"
        )


#: Canonical evaluation and reporting order for rules: declaration order.
RULE_ORDER: tuple[Rule, ...] = tuple(Rule)


class Scope(enum.Enum):
    """How far back the RecentPractice rule looks."""

    ADJACENT = "adjacent-only"
    FULL_HISTORY = "full-history"

    @classmethod
    def parse(cls, label: str) -> Scope:
        aliases = {
            "adjacent": cls.ADJACENT,
            "adjacent-only": cls.ADJACENT,
            "full": cls.FULL_HISTORY,
            "full-history": cls.FULL_HISTORY,
        }
        try:
            return aliases[label.strip().replace("_", "-").lower()]
        except (KeyError, AttributeError):
            raise CostModelError(
                f"unknown scope {label!r} (expected adjacent-only or full-history)"
            ) from None


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


def _check_cost(what: str, cost) -> None:
    """Refuse a configured cost that is not integer thousandths in range."""
    if not isinstance(cost, int) or isinstance(cost, bool):
        raise CostModelError(
            f"{what} must be integer thousandths, got {cost!r}"
        )
    if cost < 0:
        raise CostModelError(f"{what} is negative")
    if cost > MAX_EFFECT:
        raise _above_max(what)


#: The literal model's rule table as (rule, cost) pairs in :data:`RULE_ORDER`.
_LITERAL_RULES = tuple(DEFAULT_RULE_COSTS.items())


class _CostModelFields(NamedTuple):
    matrix: tuple[tuple[int, ...], ...] = DEFAULT_MATRIX
    rules: tuple[tuple[Rule, int], ...] = _LITERAL_RULES
    recent_practice_scope: Scope = Scope.ADJACENT


class CostModel(_CostModelFields):
    """Immutable cost configuration; all evaluation functions are pure.

    ``rules`` maps each participating rule to its flat cost in thousandths,
    so leaving a rule out withholds it entirely and ``rules={}`` withholds
    them all.  It is held as (rule, cost) pairs in :data:`RULE_ORDER`, and
    those pairs are accepted back, so ``model._replace(rules=model.rules)``
    round-trips.  The matrix, the rules and the scope are checked on every
    path that builds a model: the constructor, ``_replace``, pickle and
    copy.  The bare constructor is the literal published model.
    :meth:`calibrated` is the recommended configuration for the bundled
    check-in workflows: identical except that RecentPractice is withheld,
    which keeps the cost of swapping the two interchangeable seat-selection
    tasks at exactly zero and tracks the published benchmark totals far more
    closely (see README).
    """

    __slots__ = ()

    def __new__(cls, matrix: Sequence[Sequence[int]] = DEFAULT_MATRIX,
                rules: Mapping[Rule, int] | Iterable[tuple[Rule, int]] = (
                    _LITERAL_RULES),
                recent_practice_scope: Scope = Scope.ADJACENT) -> CostModel:
        n = len(RESOURCE_ORDER)
        try:
            matrix = tuple(tuple(row) for row in matrix)
        except TypeError:
            raise CostModelError(
                f"matrix must be {n} rows of {n} costs, got {matrix!r}"
            ) from None
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise CostModelError(f"matrix must be {n}x{n}")
        for i, row in enumerate(matrix):
            for j, cell in enumerate(row):
                _check_cost(f"matrix[{i}][{j}]", cell)
            if row[i] != 0:
                raise CostModelError(
                    f"matrix diagonal must be zero, got {row[i]} at "
                    f"{RESOURCE_ORDER[i].value}"
                )
        try:
            table = dict(rules)
        except (TypeError, ValueError):
            raise CostModelError(
                f"rules must be a mapping of Rule to cost or (Rule, cost) "
                f"pairs, got {rules!r}"
            ) from None
        for rule, cost in table.items():
            if not isinstance(rule, Rule):
                raise CostModelError(
                    f"rules must be keyed by Rule, got {rule!r}")
            _check_cost(f"rule {rule.value} cost", cost)
        rules = tuple((rule, table[rule]) for rule in RULE_ORDER
                      if rule in table)
        if not isinstance(recent_practice_scope, Scope):
            raise CostModelError(f"recent_practice_scope must be a Scope, "
                                 f"got {recent_practice_scope!r}")
        return tuple.__new__(cls, (matrix, rules, recent_practice_scope))

    _make = classmethod(_checked_make)

    @classmethod
    def calibrated(cls) -> CostModel:
        """The default configuration used by the command-line tools."""
        return cls(rules={rule: cost
                          for rule, cost in DEFAULT_RULE_COSTS.items()
                          if rule is not Rule.RECENT_PRACTICE})

    def rule_cost(self, rule: Rule) -> int | None:
        """Cost of a present rule in thousandths, or None if withheld."""
        for present, cost in self.rules:
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

    def active_rule_costs(self) -> dict[Rule, int]:
        """Present rules and costs, in canonical rule order."""
        return dict(self.rules)


def resource_switch_cost(frm: Resource, to: Resource,
                         matrix: Sequence[Sequence[int]] = DEFAULT_MATRIX) -> int:
    return matrix[RESOURCE_INDEX[frm]][RESOURCE_INDEX[to]]


class TransitionBreakdown(NamedTuple):
    """One priced transition: matrix term plus every rule that fired.

    An immutable named tuple, like every public record of the package:
    ``sequence_cost`` builds one per transition of every ordering ``solve``
    returns.
    """

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
    return _fired(prev, cur, practiced, _rule_pairs(model))


def _rule_pairs(model: CostModel) -> tuple[tuple[Rule, int] | None, ...]:
    """Each rule's (rule, cost) pair in :data:`RULE_ORDER`, None if withheld."""
    pairs: dict[Rule, tuple[Rule, int] | None] = dict.fromkeys(RULE_ORDER)
    for pair in model.rules:
        pairs[pair[0]] = pair
    return tuple(pairs.values())


def _fired(prev: Task, cur: Task, practiced: bool,
           rules: tuple[tuple[Rule, int] | None, ...]
           ) -> tuple[tuple[Rule, int], ...]:
    """The rules that fire for prev -> cur, in :data:`RULE_ORDER`.

    ``rules`` is :func:`_rule_pairs` of the model, read once by the caller:
    a present rule's pair is what its firing adds to the result.
    ``practiced`` says whether RecentPractice's window holds a task sharing
    cur's modality or resource, which is all that rule needs of the history.
    """
    modality, recent, familiarity, voluntary_drop, involuntary_drop = rules
    fired: tuple[tuple[Rule, int], ...] = ()
    if (modality and prev.resource is cur.resource
            and prev.modality != cur.modality):
        fired += (modality,)
    if recent and practiced:
        fired += (recent,)
    if familiarity and cur.familiarity > prev.familiarity:
        fired += (familiarity,)
    if cur.complexity < prev.complexity:
        drop = voluntary_drop if cur.voluntary else involuntary_drop
        if drop:
            fired += (drop,)
    return fired


def transition_cost(prev: Task, cur: Task, history: Sequence[Task],
                    model: CostModel) -> TransitionBreakdown:
    base = resource_switch_cost(prev.resource, cur.resource, model.matrix)
    fired = fired_rules(prev, cur, history, model)
    return TransitionBreakdown(prev.code, cur.code, base, fired,
                               base + sum(cost for _, cost in fired))


def sequence_cost(ordering: Ordering | Sequence[str], workflow: Workflow,
                  model: CostModel) -> tuple[int, tuple[TransitionBreakdown, ...]]:
    """Total switching cost of a linear extension, with per-transition terms.

    The first task is free: only transitions are priced.  Orderings that are
    not linear extensions of the workflow are rejected.  Step i is
    ``transition_cost(tasks[i - 1], tasks[i], tasks[:i], model)``, computed
    in one pass that is linear in the length of the ordering: full-history
    RecentPractice reads running sets of the modalities and resources
    placed so far instead of rescanning the prefix.  The rule costs are read
    from the model once per call, not once per transition.
    """
    problem = extension_violation(ordering, workflow)
    if problem is not None:
        raise OrderingError(f"not a linear extension: {problem}")
    if not ordering:
        return 0, ()
    tasks = workflow.tasks
    matrix, rules = model.matrix, _rule_pairs(model)
    full_history = model.recent_practice_scope is Scope.FULL_HISTORY
    modalities: set[str] = set()
    resources: set[int] = set()
    breakdowns: list[TransitionBreakdown] = []
    # What the named tuple's own constructor calls, minus a Python frame.
    new_breakdown = tuple.__new__
    total = 0
    codes = iter(ordering)
    prev = tasks[next(codes)]
    prev_res = RESOURCE_INDEX[prev.resource]
    for code in codes:
        cur = tasks[code]
        cur_res = RESOURCE_INDEX[cur.resource]
        if full_history:
            modalities.add(prev.modality)
            resources.add(prev_res)
            practiced = cur.modality in modalities or cur_res in resources
        else:
            practiced = prev.modality == cur.modality or prev_res == cur_res
        base = step = matrix[prev_res][cur_res]
        fired = _fired(prev, cur, practiced, rules)
        for _, cost in fired:
            step += cost
        breakdowns.append(new_breakdown(
            TransitionBreakdown, (prev.code, cur.code, base, fired, step)))
        total += step
        prev, prev_res = cur, cur_res
    return total, tuple(breakdowns)


def pair_cost(prev: Task, cur: Task, model: CostModel) -> int:
    """Transition cost seen through an adjacent-pair window (history = [prev])."""
    return transition_cost(prev, cur, (prev,), model).total
