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
from typing import NamedTuple

from .errors import BudgetExceededError, WorkflowError

Ordering = tuple[str, ...]
#: Precedence in index space: the task codes ascending, then per task its
#: prerequisites as a bitmask over those indices and its dependents ascending.
Graph = tuple[tuple[str, ...], tuple[int, ...], tuple[tuple[int, ...], ...]]


class Resource(enum.Enum):
    """The dominant cognitive subsystem a task engages."""

    VWM = "VWM"  # visual working memory
    PM = "PM"    # procedural memory
    DR = "DR"    # declarative recall
    SR = "SR"    # semantic recognition
    ER = "ER"    # episodic recognition

    # Members are singletons compared by identity, so dicts keyed by them
    # need no Python-level Enum.__hash__ per lookup.
    __hash__ = object.__hash__


#: Canonical row/column order used everywhere a resource index is needed:
#: declaration order.
RESOURCE_ORDER: tuple[Resource, ...] = tuple(Resource)


def normalize_modality(label: str) -> str:
    """Intern a response-modality label: compare after lowercasing and trimming."""
    return label.strip().lower()


def _wrong_type(record: str, code: str, field: str, kind: str,
                value) -> WorkflowError:
    return WorkflowError(
        f"{record} {code!r} {field} must be {kind}, got {value!r}")


def _code(what: str, code) -> str:
    """``code`` stripped, unless it is no str, is blank or cannot be printed
    as given: codes are written to the terminal and into DOT ids as data."""
    if not isinstance(code, str):
        raise WorkflowError(f"{what} must be a str, got {code!r}")
    if not code.strip():
        raise WorkflowError(f"{what} must be non-empty")
    if not code.isprintable():
        raise WorkflowError(f"{what} must be printable, got {code!r}")
    return code.strip()


def _codes(record: str, code: str, field: str,
           codes: Iterable[str]) -> frozenset[str]:
    """``codes`` frozen; a lone string, which would split into characters,
    and anything but strings are refused."""
    kind = "a collection of str codes"
    if isinstance(codes, str):
        raise _wrong_type(record, code, field, kind, codes)
    try:
        frozen = frozenset(codes)
    except TypeError:  # not iterable, or holding something unhashable
        raise _wrong_type(record, code, field, kind, codes) from None
    for item in frozen:
        if not isinstance(item, str):
            raise _wrong_type(record, code, field, kind, codes)
    return frozen


def _checked_make(cls, iterable):
    """``_make`` for a named tuple whose ``__new__`` normalises and checks
    its fields.  The generated ``_make``, which ``_replace`` calls, builds
    the tuple directly; this one goes through ``__new__``."""
    return cls(*iterable)


class _TaskFields(NamedTuple):
    code: str
    name: str
    resource: Resource
    modality: str
    voluntary: bool
    familiarity: int
    complexity: int
    prerequisites: frozenset[str] = frozenset()


class Task(_TaskFields):
    """One workflow step and its cognitive/physical properties.

    ``familiarity`` and ``complexity`` are 1 (low) to 5 (high).  Range and
    reference problems are reported by :func:`validate_workflow` rather than
    raised here, so that malformed inputs can be described as data.  The
    code is checked by :func:`_code`, the modality normalised and the
    prerequisites frozen on every path that builds a task: the constructor,
    ``_replace``, pickle and copy.  Each of those paths raises
    :class:`WorkflowError`, naming the field, for a field of the wrong type.
    """

    __slots__ = ()

    def __new__(cls, code: str, name: str, resource: Resource, modality: str,
                voluntary: bool, familiarity: int, complexity: int,
                prerequisites: Iterable[str] = frozenset()) -> Task:
        code = _code("task code", code)
        if not isinstance(name, str):
            raise _wrong_type("task", code, "name", "a str", name)
        if not isinstance(resource, Resource):
            raise _wrong_type("task", code, "resource", "a Resource", resource)
        if not isinstance(modality, str):
            raise _wrong_type("task", code, "modality", "a str", modality)
        if not isinstance(voluntary, bool):
            raise _wrong_type("task", code, "voluntary", "a bool", voluntary)
        # A bool is an int, but True is no familiarity.
        if isinstance(familiarity, bool) or not isinstance(familiarity, int):
            raise _wrong_type("task", code, "familiarity", "an int",
                              familiarity)
        if isinstance(complexity, bool) or not isinstance(complexity, int):
            raise _wrong_type("task", code, "complexity", "an int",
                              complexity)
        modality = normalize_modality(modality)
        prerequisites = _codes("task", code, "prerequisites", prerequisites)
        return tuple.__new__(cls, (code, name, resource, modality, voluntary,
                                   familiarity, complexity, prerequisites))

    _make = classmethod(_checked_make)


class _VariantGroupFields(NamedTuple):
    code: str
    members: frozenset[str]


class VariantGroup(_VariantGroupFields):
    """A named slot with interchangeable member tasks (exactly one is kept).

    The code is checked by :func:`_code` and the members frozen on every
    path that builds a group, and each raises :class:`WorkflowError` for a
    field of the wrong type.
    """

    __slots__ = ()

    def __new__(cls, code: str, members: Iterable[str]) -> VariantGroup:
        code = _code("variant-group code", code)
        members = _codes("variant group", code, "members", members)
        return tuple.__new__(cls, (code, members))

    _make = classmethod(_checked_make)


class _WorkflowFields(NamedTuple):
    tasks: Mapping[str, Task]
    variant_groups: tuple[VariantGroup, ...] = ()


class Workflow(_WorkflowFields):
    """An immutable task set plus precedence constraints and variant groups.

    ``tasks`` maps task code to :class:`Task`.  Instances are safe to share
    across concurrent solver runs.  Every path that builds a workflow (the
    constructor, ``_replace``, pickle and copy) raises :class:`WorkflowError`
    unless ``tasks`` is a mapping that holds each :class:`Task` under its own
    code and ``variant_groups`` holds :class:`VariantGroup` records, which
    are stored as a tuple.  A repeated group code is left to
    :func:`validate_workflow`, which reports it as data.
    """

    __slots__ = ()

    def __new__(cls, tasks: Mapping[str, Task],
                variant_groups: Iterable[VariantGroup] = ()) -> Workflow:
        if not isinstance(tasks, Mapping):
            raise WorkflowError(
                f"workflow tasks must be a mapping of codes to Task records, "
                f"got {type(tasks).__name__}")
        for code, task in tasks.items():
            if not isinstance(task, Task):
                raise WorkflowError(
                    f"workflow tasks[{code!r}] must be a Task, got {task!r}")
            if task.code != code:
                raise WorkflowError(
                    f"workflow tasks[{code!r}] must be the task of that "
                    f"code, got task {task.code!r}")
        try:
            groups = tuple(variant_groups)
        except TypeError:
            raise WorkflowError(
                f"workflow variant_groups must be a collection of "
                f"VariantGroup records, got {type(variant_groups).__name__}"
            ) from None
        for grp in groups:
            if not isinstance(grp, VariantGroup):
                raise WorkflowError(
                    f"workflow variant_groups must hold VariantGroup "
                    f"records, got {grp!r}")
        return tuple.__new__(cls, (tasks, groups))

    _make = classmethod(_checked_make)

    @classmethod
    def from_tasks(cls, tasks: Iterable[Task],
                   variant_groups: Iterable[VariantGroup] = ()) -> Workflow:
        table: dict[str, Task] = {}
        for task in tasks:
            if not isinstance(task, Task):
                raise WorkflowError(
                    f"workflow tasks must hold Task records, got {task!r}")
            if task.code in table:
                raise WorkflowError(f"duplicate task code {task.code!r}")
            table[task.code] = task
        groups: dict[str, VariantGroup] = {}
        for grp in variant_groups:
            if not isinstance(grp, VariantGroup):
                raise WorkflowError(
                    f"workflow variant_groups must hold VariantGroup "
                    f"records, got {grp!r}")
            if grp.code in groups:
                raise _refusal("duplicate-group", grp.code)
            groups[grp.code] = grp
        return cls(tasks=table, variant_groups=tuple(groups.values()))

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


class Violation(NamedTuple):
    """One validation finding; ``codes`` names the offending tasks/groups."""

    kind: str
    message: str
    codes: tuple[str, ...] = ()


#: The words of each violation kind but ``cycle``: the violation's codes
#: fill the first fields, then any other value (a property and its value,
#: or the group a direct reference should use).
_WORDS = {
    "duplicate-group": "duplicate variant-group code {0!r}",
    "group-code-collision": "variant group {0!r} collides with a task code",
    "empty-group": "variant group {0!r} has no members",
    "unknown-member": "variant group {0!r} lists unknown member {1!r}",
    "shared-member": "task {0!r} belongs to variant groups {1!r} and {2!r}",
    "out-of-range": "task {0!r} has {1}={2}, outside [1, 5]",
    "self-prerequisite": "task {0!r} lists itself as a prerequisite",
    "unknown-prerequisite": "task {0!r} requires unknown code {1!r}",
    "direct-member-reference":
        "task {0!r} requires {1!r} directly; use its group {2!r} instead",
}


def _fault(kind: str, *codes: str, more: tuple = ()) -> Violation:
    """The violation of ``kind`` naming ``codes``, in its words."""
    return Violation(kind, _WORDS[kind].format(*codes, *more), codes)


def _refusal(kind: str, *words) -> WorkflowError:
    """A :class:`WorkflowError` in the words of a fault of ``kind``."""
    return WorkflowError(_WORDS[kind].format(*words))


class ValidationReport:
    """Findings of :func:`validate_workflow`; ``graph`` is the :data:`Graph`
    it checked, or None when there are violations or variant groups.

    Immutable.  Iterating a report iterates its violations, and the graph
    takes no part in equality, hashing or ``repr``, so this is a slotted
    class rather than a named tuple.
    """

    __slots__ = ("violations", "graph")

    def __init__(self, violations: tuple[Violation, ...] = (),
                 graph: Graph | None = None):
        object.__setattr__(self, "violations", violations)
        object.__setattr__(self, "graph", graph)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.violations == other.violations

    def __hash__(self) -> int:
        return hash((self.violations,))

    def __repr__(self) -> str:
        return f"ValidationReport(violations={self.violations!r})"

    def __reduce__(self):
        return type(self), (self.violations, self.graph)

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
    """Check every structural invariant; violations are data, not failures.

    One sort of the node set (task codes and group codes), then linear
    work: the nodes are visited once in that order, and each appends itself
    to the successor lists of its prerequisites (and a group to those of its
    members), so every list is built already ascending.  Prerequisite sets
    are not sorted; only the faulty prerequisites a task has are.
    A variant-group code used twice is reported once, at its second use.  A
    task that groups of different codes list is reported at each later one
    of them, with the first group that lists it, which is also the group a
    direct reference to that task is told to use.
    Violations come group by group, then task by task in code order (each
    task's prerequisite findings by prerequisite code), then the one cycle
    that :func:`_find_cycle` picks.  A clean report of a concrete workflow
    returns the graph it checked, with prerequisite masks, as ``graph``.
    """
    found: list[Violation] = []
    tasks = workflow.tasks
    groups: dict[str, list[VariantGroup]] = {}
    member_of: dict[str, str] = {}

    for grp in workflow.variant_groups:
        same_code = groups.setdefault(grp.code, [])
        same_code.append(grp)
        if len(same_code) == 2:
            found.append(_fault("duplicate-group", grp.code))
        if grp.code in tasks:
            found.append(_fault("group-code-collision", grp.code))
        if not grp.members:
            found.append(_fault("empty-group", grp.code))
        for member in sorted(grp.members.difference(tasks)):
            found.append(_fault("unknown-member", grp.code, member))
        for member in sorted(grp.members.intersection(member_of)):
            first = member_of[member]
            if first != grp.code and member in tasks:
                found.append(_fault("shared-member", member, first, grp.code))
        for member in grp.members:
            member_of.setdefault(member, grp.code)

    nodes = sorted(tasks.keys() | groups.keys())
    index = {code: i for i, code in enumerate(nodes)}
    succ: list[list[int]] = [[] for _ in nodes]
    preds = [0] * len(nodes)
    faulty: list[str] = []  # the prerequisites of this task to report
    for i, code in enumerate(nodes):
        task = tasks.get(code)
        if task is not None:
            if not 1 <= task.familiarity <= 5:
                found.append(_fault("out-of-range", code, more=(
                    "familiarity", task.familiarity)))
            if not 1 <= task.complexity <= 5:
                found.append(_fault("out-of-range", code, more=(
                    "complexity", task.complexity)))
            for pre in task.prerequisites:
                j = index.get(pre)
                if j is None or j == i or pre in member_of:
                    faulty.append(pre)
                if j is not None:
                    succ[j].append(i)
                    preds[i] |= 1 << j
            if faulty:
                faulty.sort()
                found.extend(_prerequisite_fault(code, pre, index, member_of)
                             for pre in faulty)
                faulty.clear()
        for grp in groups.get(code, ()):
            for member in grp.members:
                j = index.get(member)
                if j is not None:
                    succ[j].append(i)

    cycle = _find_cycle(nodes, succ)
    if cycle:
        found.append(Violation(
            "cycle",
            "precedence cycle: " + " -> ".join(cycle + (cycle[0],)),
            cycle,
        ))
    if found or groups:
        return ValidationReport(tuple(found))
    return ValidationReport((), (tuple(nodes), tuple(preds),
                                 tuple(map(tuple, succ))))


def _prerequisite_fault(code: str, pre: str, index: Mapping[str, int],
                        member_of: Mapping[str, str]) -> Violation:
    """The violation of task ``code`` naming ``pre``: itself, a code that is
    neither a task nor a group, or a group member named directly."""
    if pre == code:
        return _fault("self-prerequisite", code)
    if pre not in index:
        return _fault("unknown-prerequisite", code, pre)
    return _fault("direct-member-reference", code, pre,
                  more=(member_of[pre],))


def _find_cycle(nodes: list[str], succ: list[list[int]]
                ) -> tuple[str, ...] | None:
    """Find one precedence cycle, if any, over tasks and group codes.

    ``nodes`` are the codes in ascending order and ``succ[i]`` the indices
    of node i's successors, ascending, so the search is linear in the size
    of the graph.  Group resolution is modelled conservatively by member ->
    group edges: a cycle here exists iff some single choice of members
    yields a cyclic concrete workflow (a simple cycle passes through a group
    node at most once, entering via exactly one member).  The depth-first
    search starts from each unvisited node in code order and tries
    successors in code order; the first back edge it meets picks the cycle
    that is reported.
    """
    # Depth-first search on an explicit stack, so that long chains cannot
    # reach the recursion limit: ``path`` holds the grey nodes and
    # ``pending`` the successors each of them has yet to try.
    WHITE, GREY, BLACK = 0, 1, 2
    color = [WHITE] * len(nodes)
    for start in range(len(nodes)):
        if color[start] != WHITE:
            continue
        color[start] = GREY
        path = [start]
        pending = [iter(succ[start])]
        while path:
            for nxt in pending[-1]:
                seen = color[nxt]
                if seen == GREY:
                    return tuple(nodes[i] for i in path[path.index(nxt):])
                if seen == WHITE:
                    color[nxt] = GREY
                    path.append(nxt)
                    pending.append(iter(succ[nxt]))
                    break
            else:
                color[path.pop()] = BLACK
                pending.pop()
    return None


def instantiate_variant(workflow: Workflow, group: str, member: str) -> Workflow:
    """Resolve one variant group to a single member.

    Resolution only renames: the other members' tasks are removed and every
    prerequisite naming the group code names the chosen member instead;
    nothing else changes.  Only the tasks whose prerequisites name the group
    are rebuilt; every other :class:`Task` is immutable and is shared with
    the input, which is left unchanged.  The chosen member must be a task of
    the workflow.  A group code that is also a task code, a member that
    another group lists too, and a task that requires a member of the group
    directly, raise :class:`WorkflowError` in :func:`validate_workflow`'s
    words; a shared member is named with the first two groups that list it,
    whichever of them is resolved.
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
    if member not in workflow.tasks:
        raise _refusal("unknown-member", group, member)
    if group in workflow.tasks:
        raise _refusal("group-code-collision", group)
    members = grp.members
    shared = members.intersection(workflow.tasks, frozenset().union(
        *(g.members for g in workflow.variant_groups if g.code != group)))
    if shared:
        code = min(shared)
        first, second = list(dict.fromkeys(
            g.code for g in workflow.variant_groups if code in g.members))[:2]
        raise _refusal("shared-member", code, first, second)
    direct = [code for code, task in workflow.tasks.items()
              if not members.isdisjoint(task.prerequisites)]
    if direct:
        code = min(direct)
        pre = min(members.intersection(workflow.tasks[code].prerequisites))
        raise _refusal("direct-member-reference", code, pre, group)

    dropped = members - {member}
    tasks: dict[str, Task] = {}
    for code, task in workflow.tasks.items():
        if code in dropped:
            continue
        if group in task.prerequisites:
            task = task._replace(
                prerequisites=task.prerequisites - {group} | {member})
        tasks[code] = task
    remaining = tuple(g for g in workflow.variant_groups if g.code != group)
    return Workflow(tasks=tasks, variant_groups=remaining)


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
        return _WORDS["unknown-prerequisite"].format(code, pre)
    return f"{pre!r} must precede {code!r}"


#: Most order ideals ``count_linear_extensions`` keeps before refusing, to
#: bound memory on very wide posets.
MAX_COUNTED_IDEALS = 4_000_000


def _require_valid(workflow: Workflow, operation: str) -> Graph:
    workflow.require_concrete(operation)
    report = validate_workflow(workflow)
    if not report.ok:
        raise WorkflowError(f"invalid workflow:\n{report.summary()}")
    return report.graph


def _freed(i: int, placed: int, preds: Sequence[int],
           succ: Sequence[Sequence[int]]) -> int:
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
    yield from _linear_extensions(_require_valid(workflow, "enumeration"))


def _linear_extensions(graph: Graph) -> Iterator[Ordering]:
    """:func:`enumerate_linear_extensions` of the checked ``graph``."""
    codes, preds, succ = graph
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
    return _count_extensions(_require_valid(workflow, "counting"))


def _count_extensions(graph: Graph) -> int:
    """:func:`count_linear_extensions` of the checked ``graph``."""
    codes, preds, succ = graph
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
