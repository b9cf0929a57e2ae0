"""Shared generators and independent oracles for the test suite.

The oracles here deliberately avoid the library's own enumeration, pair
tables and search: extensions are found by filtering raw permutations and
priced whole by ``sequence_cost``, so agreement with the production code is
evidence, not tautology.
"""

from __future__ import annotations

import random
from itertools import permutations

import pytest

from cogseq import (
    CostModel,
    Resource,
    Scope,
    Task,
    TransitionRule,
    Workflow,
    load_fixture,
    sequence_cost,
)
from cogseq.costs import RULE_ORDER

MODALITIES = ("touch", "keys", "scan", "card reader")


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
    rules = frozenset(
        TransitionRule(rule, rng.randrange(0, 1500))
        for rule in RULE_ORDER
        if rng.random() < 0.8
    )
    # One model in ten withholds every rule.
    if rng.random() >= 0.9:
        rules = frozenset()
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
