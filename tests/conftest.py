"""Shared generators, independent oracles and the in-process CLI runner
for the test suite.

The oracles here deliberately avoid the library's own enumeration, pair
tables and search: extensions are found by filtering raw permutations and
priced whole by ``sequence_cost``, or, past enumeration, built step by step
and priced by ``transition_cost``, so agreement with the production code is
evidence, not tautology.
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from itertools import permutations
from typing import NamedTuple

import pytest

from cogseq import (
    CostModel,
    Resource,
    Scope,
    Task,
    Workflow,
    load_fixture,
    sequence_cost,
    transition_cost,
)
from cogseq.cli import main
from cogseq.costs import RULE_ORDER
from cogseq.model import ValidationReport, Violation

MODALITIES = ("touch", "keys", "scan", "card reader")


class CliResult(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str


def run(args: list[str]) -> CliResult:
    """``cogseq ARGS`` in this process: ``cogseq.cli.main`` with both streams
    captured.  An exception that escapes ``main`` fails the calling test."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        exit_code = main(args)
    return CliResult(exit_code, stdout.getvalue(), stderr.getvalue())


def random_workflow(rng: random.Random, n_max: int = 8, n_min: int = 1,
                    edge_p: float = 0.35, max_extensions: int = 1500) -> Workflow:
    """Random concrete workflow; edges only point forward, so always acyclic.

    Regenerates with denser edges when the extension count would make
    exhaustive checks slow.
    """
    from cogseq import count_linear_extensions

    p = edge_p
    while True:
        n = rng.randint(n_min, n_max)
        codes = [f"T{i:02d}" for i in range(n)]
        tasks = []
        for i, code in enumerate(codes):
            prereqs = frozenset(c for c in codes[:i] if rng.random() < p)
            tasks.append(Task(
                code=code,
                name=f"Task {i}",
                resource=rng.choice(list(Resource)),
                modality=rng.choice(MODALITIES),
                voluntary=rng.random() < 0.5,
                familiarity=rng.randint(1, 5),
                complexity=rng.randint(1, 5),
                prerequisites=prereqs,
            ))
        workflow = Workflow.from_tasks(tasks)
        if count_linear_extensions(workflow) <= max_extensions:
            return workflow
        p = min(0.9, p + 0.15)


def random_model(rng: random.Random,
                 scope: Scope = Scope.ADJACENT) -> CostModel:
    matrix = tuple(
        tuple(0 if i == j else rng.randrange(0, 2000) for j in range(5))
        for i in range(5)
    )
    rules = {rule: rng.randrange(0, 1500)
             for rule in RULE_ORDER
             if rng.random() < 0.8}
    # One model in ten withholds every rule.
    if rng.random() >= 0.9:
        rules = {}
    return CostModel(matrix=matrix, rules=rules, recent_practice_scope=scope)


def permutation_extensions(workflow: Workflow) -> list[tuple[str, ...]]:
    """Oracle: filter every permutation against the raw prerequisite sets."""
    codes = sorted(workflow.tasks)
    prereqs = {c: set(workflow.tasks[c].prerequisites) for c in codes}
    found = []
    for perm in permutations(codes):
        position = {code: i for i, code in enumerate(perm)}
        if all(position[p] < position[c] for c in codes for p in prereqs[c]):
            found.append(perm)
    return found


def reference_top_k(workflow: Workflow, model: CostModel, maximize: bool,
                    k: int) -> list[tuple[int, tuple[str, ...]]]:
    """Oracle: the best k ``(total, ordering)`` pairs among all extensions.

    ``permutation_extensions`` yields orderings lexicographically and the
    sort is stable, so equal totals keep lexicographic order.
    """
    sign = -1 if maximize else 1
    priced = [(sequence_cost(ordering, workflow, model)[0], ordering)
              for ordering in permutation_extensions(workflow)]
    priced.sort(key=lambda pair: sign * pair[0])
    return priced[:k]


def reference_optimum(workflow: Workflow, model: CostModel, maximize: bool
                      ) -> tuple[int, tuple[str, ...]]:
    """Oracle past enumeration: the extremal ``(total, ordering)`` over the
    linear extensions, by a dynamic program on (placed codes, last code)
    (Held & Karp 1962).  Among equal totals the lexicographically smallest
    ordering wins.

    Each step is priced by ``transition_cost`` on the ``Task`` records, with
    the placed tasks as its history, the last one at its end: full-history
    RecentPractice asks only which tasks were placed, not in what order.
    """
    tasks = workflow.tasks
    sign = -1 if maximize else 1

    @cache
    def rest(placed: frozenset[str], last: str | None
             ) -> tuple[int, tuple[str, ...]]:
        # The best cost of placing the other tasks after ``placed``, which
        # ends with ``last``, and those codes in the order that attains it.
        if len(placed) == len(tasks):
            return 0, ()
        if last is not None:
            history = (*(tasks[c] for c in sorted(placed - {last})),
                       tasks[last])
        options = []
        for code in sorted(tasks.keys() - placed):
            if tasks[code].prerequisites <= placed:
                # The first task is free: only transitions are priced.
                step = 0 if last is None else transition_cost(
                    tasks[last], tasks[code], history, model).total
                cost, tail = rest(placed | {code}, code)
                options.append((step + cost, (code, *tail)))
        return min(options, key=lambda option: (sign * option[0], option[1]))

    return rest(frozenset(), None)


# Oracle: ``validate_workflow`` and ``_find_cycle`` as they were before
# validation built its successor lists in code order, kept verbatim but for
# their names.  They sort every prerequisite set and successor list on the
# spot, so a report that matches theirs shows that building the lists
# pre-sorted changed no finding, no order and no cycle path.
def reference_validate_workflow(workflow: Workflow) -> ValidationReport:
    """Check every structural invariant; violations are data, not failures."""
    found: list[Violation] = []
    tasks = workflow.tasks
    group_codes = {g.code for g in workflow.variant_groups}
    member_of: dict[str, str] = {}
    seen: list[str] = []

    for grp in workflow.variant_groups:
        if seen.count(grp.code) == 1:
            found.append(Violation(
                "duplicate-group",
                f"duplicate variant-group code {grp.code!r}",
                (grp.code,),
            ))
        seen.append(grp.code)
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
        for member in sorted(grp.members):
            first = member_of.setdefault(member, grp.code)
            if first != grp.code and member in tasks:
                found.append(Violation(
                    "shared-member",
                    f"task {member!r} belongs to variant groups "
                    f"{first!r} and {grp.code!r}",
                    (member, first, grp.code),
                ))

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

    cycle = _reference_find_cycle(workflow)
    if cycle:
        found.append(Violation(
            "cycle",
            "precedence cycle: " + " -> ".join(cycle + (cycle[0],)),
            cycle,
        ))
    return ValidationReport(tuple(found))


def _reference_find_cycle(workflow: Workflow) -> tuple[str, ...] | None:
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


def simple_task(code: str, resource: Resource = Resource.VWM,
                modality: str = "touch", voluntary: bool = False,
                familiarity: int = 3, complexity: int = 3,
                prerequisites=()) -> Task:
    return Task(code=code, name=code.title(), resource=resource,
                modality=modality, voluntary=voluntary,
                familiarity=familiarity, complexity=complexity,
                prerequisites=frozenset(prerequisites))


@pytest.fixture(scope="session")
def full_document():
    return load_fixture("checkin-full.json")


@pytest.fixture(scope="session")
def validation_document():
    return load_fixture("checkin-validation.json")
