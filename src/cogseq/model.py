"""Workflow model: tasks, precedence, variant groups, and linear extensions.

A workflow is a set of tasks with a partial order given by per-task
prerequisite lists, plus optional variant groups: named slots (such as an
authentication step) that stand for exactly one of several interchangeable
member tasks.  A workflow is *concrete* once every variant group has been
resolved to a single member; only concrete workflows can be sequenced.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, replace

from .errors import BudgetExceededError, WorkflowError

Ordering = tuple[str, ...]


class Resource(enum.Enum):
    """The dominant cognitive subsystem a task engages."""

    VWM = "VWM"  # visual working memory
    PM = "PM"    # procedural memory
    DR = "DR"    # declarative recall
    SR = "SR"    # semantic recognition
    ER = "ER"    # episodic recognition


#: Canonical row/column order used everywhere a resource index is needed.
RESOURCE_ORDER: tuple[Resource, ...] = (
    Resource.VWM, Resource.PM, Resource.DR, Resource.SR, Resource.ER,
)


def normalize_modality(label: str) -> str:
    """Intern a response-modality label: compare after lowercasing and trimming."""
    return label.strip().lower()


@dataclass(frozen=True, slots=True)
class Task:
    """One workflow step and its cognitive/physical properties.

    ``familiarity`` and ``complexity`` are 1 (low) to 5 (high).  Range and
    reference problems are reported by :func:`validate_workflow` rather than
    raised here, so that malformed inputs can be described as data.
    """

    code: str
    name: str
    resource: Resource
    modality: str
    voluntary: bool
    familiarity: int
    complexity: int
    prerequisites: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "code", self.code.strip())
        object.__setattr__(self, "modality", normalize_modality(self.modality))
        object.__setattr__(self, "prerequisites", frozenset(self.prerequisites))
        if not self.code:
            raise WorkflowError("task code must be non-empty")


@dataclass(frozen=True, slots=True)
class VariantGroup:
    """A named slot with interchangeable member tasks (exactly one is kept)."""

    code: str
    members: frozenset[str]

    def __post_init__(self):
        object.__setattr__(self, "code", self.code.strip())
        object.__setattr__(self, "members", frozenset(self.members))
        if not self.code:
            raise WorkflowError("variant-group code must be non-empty")


@dataclass(frozen=True)
class Workflow:
    """An immutable task set plus precedence constraints and variant groups.

    ``tasks`` maps task code to :class:`Task`.  Instances are safe to share
    across concurrent solver runs.
    """

    tasks: Mapping[str, Task]
    variant_groups: tuple[VariantGroup, ...] = ()

    @classmethod
    def from_tasks(cls, tasks: Iterable[Task],
                   variant_groups: Iterable[VariantGroup] = ()) -> Workflow:
        table: dict[str, Task] = {}
        for task in tasks:
            if task.code in table:
                raise WorkflowError(f"duplicate task code {task.code!r}")
            table[task.code] = task
        return cls(tasks=table, variant_groups=tuple(variant_groups))

    @property
    def is_concrete(self) -> bool:
        return not self.variant_groups

    def codes(self) -> tuple[str, ...]:
        """Task codes in ascending order (the canonical enumeration order)."""
        return tuple(sorted(self.tasks))

    def group(self, code: str) -> VariantGroup | None:
        for grp in self.variant_groups:
            if grp.code == code:
                return grp
        return None

    def precedence_edges(self) -> tuple[tuple[str, str], ...]:
        """(prerequisite, dependent) pairs, one per prerequisite entry."""
        edges = []
        for code in self.codes():
            for pre in sorted(self.tasks[code].prerequisites):
                edges.append((pre, code))
        return tuple(edges)

    def require_concrete(self, operation: str) -> None:
        if not self.is_concrete:
            groups = ", ".join(g.code for g in self.variant_groups)
            raise WorkflowError(
                f"{operation} requires a concrete workflow; "
                f"unresolved variant groups: {groups}"
            )


@dataclass(frozen=True, slots=True)
class Violation:
    """One validation finding; ``codes`` names the offending tasks/groups."""

    kind: str
    message: str
    codes: tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __iter__(self) -> Iterator[Violation]:
        return iter(self.violations)

    def summary(self) -> str:
        if self.ok:
            return "valid"
        return "\n".join(f"[{v.kind}] {v.message}" for v in self.violations)


def validate_workflow(workflow: Workflow) -> ValidationReport:
    """Check every structural invariant; violations are data, not failures."""
    found: list[Violation] = []
    tasks = workflow.tasks
    group_codes = {g.code for g in workflow.variant_groups}
    member_of: dict[str, str] = {}

    for grp in workflow.variant_groups:
        if grp.code in tasks:
            found.append(Violation(
                "group-code-collision",
                f"variant group {grp.code!r} collides with a task code",
                (grp.code,),
            ))
        if not grp.members:
            found.append(Violation(
                "empty-group", f"variant group {grp.code!r} has no members", (grp.code,),
            ))
        for member in sorted(grp.members):
            if member not in tasks:
                found.append(Violation(
                    "unknown-member",
                    f"variant group {grp.code!r} lists unknown member {member!r}",
                    (grp.code, member),
                ))
            member_of[member] = grp.code

    for code in workflow.codes():
        task = tasks[code]
        for prop, value in (("familiarity", task.familiarity),
                            ("complexity", task.complexity)):
            if not 1 <= value <= 5:
                found.append(Violation(
                    "out-of-range",
                    f"task {code!r} has {prop}={value}, outside [1, 5]",
                    (code,),
                ))
        for pre in sorted(task.prerequisites):
            if pre == code:
                found.append(Violation(
                    "self-prerequisite", f"task {code!r} lists itself as a prerequisite",
                    (code,),
                ))
            elif pre not in tasks and pre not in group_codes:
                found.append(Violation(
                    "unknown-prerequisite",
                    f"task {code!r} requires unknown code {pre!r}",
                    (code, pre),
                ))
            elif pre in member_of:
                found.append(Violation(
                    "direct-member-reference",
                    f"task {code!r} requires {pre!r} directly; use its group "
                    f"{member_of[pre]!r} instead",
                    (code, pre),
                ))

    cycle = _find_cycle(workflow)
    if cycle:
        found.append(Violation(
            "cycle",
            "precedence cycle: " + " -> ".join(cycle + (cycle[0],)),
            cycle,
        ))
    return ValidationReport(tuple(found))


def _find_cycle(workflow: Workflow) -> tuple[str, ...] | None:
    """Find one precedence cycle, if any, over tasks and group codes.

    Group resolution is modelled conservatively by adding member -> group
    edges: a cycle here exists iff some single choice of members yields a
    cyclic concrete workflow (a simple cycle passes through a group node at
    most once, entering via exactly one member).
    """
    succ: dict[str, list[str]] = {}
    nodes = set(workflow.tasks) | {g.code for g in workflow.variant_groups}
    for code, task in workflow.tasks.items():
        for pre in task.prerequisites:
            if pre in nodes:
                succ.setdefault(pre, []).append(code)
    for grp in workflow.variant_groups:
        for member in grp.members:
            if member in nodes:
                succ.setdefault(member, []).append(grp.code)

    # Depth-first search on an explicit stack, so that long chains cannot
    # reach the recursion limit: ``path`` holds the grey nodes and
    # ``pending`` the successors each of them has yet to try.
    WHITE, GREY, BLACK = 0, 1, 2
    color = dict.fromkeys(nodes, WHITE)
    for start in sorted(nodes):
        if color[start] != WHITE:
            continue
        color[start] = GREY
        path = [start]
        pending = [iter(sorted(succ.get(start, ())))]
        while path:
            for nxt in pending[-1]:
                if color[nxt] == GREY:
                    return tuple(path[path.index(nxt):])
                if color[nxt] == WHITE:
                    color[nxt] = GREY
                    path.append(nxt)
                    pending.append(iter(sorted(succ.get(nxt, ()))))
                    break
            else:
                color[path.pop()] = BLACK
                pending.pop()
    return None


def instantiate_variant(workflow: Workflow, group: str, member: str) -> Workflow:
    """Resolve one variant group to a single member.

    Non-chosen members are removed and every prerequisite reference to the
    group code is rewritten to the chosen member's code.  Only the tasks
    whose prerequisites name the group or a removed member are rebuilt;
    every other :class:`Task` is immutable and is shared with the input,
    which is left unchanged.
    """
    grp = workflow.group(group)
    if grp is None:
        known = ", ".join(g.code for g in workflow.variant_groups) or "none"
        raise WorkflowError(
            f"unknown variant group {group!r} (available: {known})"
        )
    if member not in grp.members:
        raise WorkflowError(
            f"{member!r} is not a member of group {group!r} "
            f"(members: {', '.join(sorted(grp.members))})"
        )

    dropped = grp.members - {member}
    stale = dropped | {group}
    tasks: dict[str, Task] = {}
    for code, task in workflow.tasks.items():
        if code in dropped:
            continue
        if stale.isdisjoint(task.prerequisites):
            tasks[code] = task
            continue
        prereqs = frozenset(
            member if pre == group else pre
            for pre in task.prerequisites
            if pre not in dropped
        )
        tasks[code] = replace(task, prerequisites=prereqs)
    remaining = tuple(g for g in workflow.variant_groups if g.code != group)
    return Workflow(tasks=tasks, variant_groups=remaining)


def instantiate_all(workflow: Workflow, choices: Mapping[str, str]) -> Workflow:
    """Resolve every variant group using ``choices`` (group code -> member)."""
    current = workflow
    for grp in workflow.variant_groups:
        if grp.code not in choices:
            raise WorkflowError(
                f"no member chosen for variant group {grp.code!r}"
            )
        current = instantiate_variant(current, grp.code, choices[grp.code])
    for group in choices:
        if workflow.group(group) is None:
            raise WorkflowError(f"unknown variant group {group!r}")
    return current


def is_linear_extension(ordering: Sequence[str], workflow: Workflow) -> bool:
    """True iff ``ordering`` permutes the task set and respects every prerequisite."""
    workflow.require_concrete("is_linear_extension")
    return extension_violation(ordering, workflow) is None


def extension_violation(ordering: Sequence[str], workflow: Workflow) -> str | None:
    """Describe the first reason ``ordering`` is not a linear extension, or None.

    Reasons rank unknown task, duplicate, missing tasks, then the first task
    placed before one of its prerequisites (the smallest such prerequisite
    is named, and one that is not a task is reported as unknown).
    """
    workflow.require_concrete("sequencing")
    tasks = workflow.tasks
    placed: set[str] = set()
    early = None  # the first (prerequisite, task) placed out of order
    for code in ordering:
        task = tasks.get(code)
        if task is None:
            return f"unknown task {code!r}"
        if code in placed:
            return f"task {code!r} appears more than once"
        if early is None and not task.prerequisites <= placed:
            early = (min(task.prerequisites - placed), code)
        placed.add(code)
    if len(placed) < len(tasks):
        return "missing tasks: " + ", ".join(sorted(tasks.keys() - placed))
    if early is None:
        return None
    pre, code = early
    if pre not in tasks:
        return f"task {code!r} requires unknown code {pre!r}"
    return f"{pre!r} must precede {code!r}"


#: Most order ideals ``count_linear_extensions`` keeps before refusing, to
#: bound memory on very wide posets.
MAX_COUNTED_IDEALS = 4_000_000


def _require_valid(workflow: Workflow, operation: str) -> None:
    workflow.require_concrete(operation)
    report = validate_workflow(workflow)
    if not report.ok:
        raise WorkflowError(f"invalid workflow:\n{report.summary()}")


def _precedence(workflow: Workflow
                ) -> tuple[tuple[str, ...], list[int], list[list[int]]]:
    """Codes in ascending order; each task's prerequisites as a bitmask over
    those indices; and each task's dependents as a list of indices."""
    codes = workflow.codes()
    index = {code: i for i, code in enumerate(codes)}
    preds = [0] * len(codes)
    succ: list[list[int]] = [[] for _ in codes]
    for code, task in workflow.tasks.items():
        i = index[code]
        for pre in task.prerequisites:
            preds[i] |= 1 << index[pre]
            succ[index[pre]].append(i)
    return codes, preds, succ


def _freed(i: int, placed: int, preds: list[int],
           succ: list[list[int]]) -> int:
    """Bitmask of i's dependents that ``placed``, which holds i, makes ready."""
    ready = 0
    for s in succ[i]:
        if preds[s] & ~placed == 0:
            ready |= 1 << s
    return ready


def enumerate_linear_extensions(workflow: Workflow) -> Iterator[Ordering]:
    """Yield every linear extension, lexicographically by task code.

    At each step the eligible tasks are tried in ascending code order, so the
    stream is deterministic and each extension appears exactly once.  The
    stream is lazy and single-consumer: take a prefix with
    :func:`itertools.islice`.  Raises :class:`WorkflowError` on an invalid
    workflow.
    """
    _require_valid(workflow, "enumeration")

    codes, preds, succ = _precedence(workflow)
    n = len(codes)
    # Tasks not placed whose prerequisites all are: placing a task touches
    # only its dependents, and unplacing it makes them all unready again.
    dependents = [sum(1 << s for s in succ[i]) for i in range(n)]
    ready = sum(1 << i for i in range(n) if not preds[i])
    placed: list[int] = []  # explicit stack: the indices placed so far
    done = 0
    first = 0  # lowest index still to try at the current depth
    while True:
        if len(placed) == n:
            yield tuple(codes[i] for i in placed)
        candidates = ready >> first << first
        if candidates:
            low = candidates & -candidates
            i = low.bit_length() - 1
            placed.append(i)
            done |= low
            ready ^= low
            ready |= _freed(i, done, preds, succ)
            first = 0
        elif not placed:
            return
        else:
            i = placed.pop()
            done &= ~(1 << i)
            ready = ready & ~dependents[i] | 1 << i
            first = i + 1


def count_linear_extensions(workflow: Workflow) -> int:
    """Count linear extensions without enumerating them (count-only mode).

    Dynamic programming over downsets of the precedence order, one level of
    placed tasks at a time: each downset holds the number of ways to reach
    it and its ready tasks.  Raises :class:`BudgetExceededError` on a
    workflow with more than ``MAX_COUNTED_IDEALS`` downsets short of the
    full set, and :class:`WorkflowError` on an invalid workflow.
    """
    _require_valid(workflow, "counting")

    codes, preds, succ = _precedence(workflow)
    n = len(codes)
    level = {0: (1, sum(1 << i for i in range(n) if not preds[i]))}
    seen = 0
    for _ in range(n):
        seen += len(level)
        if seen > MAX_COUNTED_IDEALS:
            raise BudgetExceededError(seen, MAX_COUNTED_IDEALS,
                                      "order ideals or more")
        below = level
        level = {}
        for placed, (ways, ready) in below.items():
            mask = ready
            while mask:
                low = mask & -mask
                mask ^= low
                child = placed | low
                entry = level.get(child)
                if entry is None:
                    i = low.bit_length() - 1
                    level[child] = (ways,
                                    ready ^ low | _freed(i, child, preds, succ))
                else:
                    level[child] = (entry[0] + ways, entry[1])
    return level[(1 << n) - 1][0]
