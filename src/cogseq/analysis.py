"""Ordering comparison and consensus utilities."""

from __future__ import annotations

import math
from collections.abc import Sequence

from .errors import OrderingError
from .model import Ordering


def _position_vector(ordering: Sequence[str]) -> dict[str, int]:
    positions: dict[str, int] = {}
    dupes: set[str] = set()
    for i, code in enumerate(ordering):
        if code in positions:
            dupes.add(code)
        else:
            positions[code] = i
    if dupes:
        raise OrderingError(
            "ordering repeats tasks: " + ", ".join(sorted(dupes))
        )
    return positions


def _require_same_tasks(a: Sequence[str], b: Sequence[str]) -> None:
    extra_a = sorted(set(a) - set(b))
    extra_b = sorted(set(b) - set(a))
    if extra_a or extra_b:
        parts = []
        if extra_a:
            parts.append("only in first: " + ", ".join(extra_a))
        if extra_b:
            parts.append("only in second: " + ", ".join(extra_b))
        raise OrderingError(
            "orderings cover different task sets (" + "; ".join(parts) + ")"
        )


def ordering_distance(a: Sequence[str], b: Sequence[str]) -> float:
    """Euclidean distance on task indices; the square stays exact internally."""
    pos_a = _position_vector(a)
    pos_b = _position_vector(b)
    _require_same_tasks(a, b)
    return math.sqrt(sum((pos_a[code] - pos_b[code]) ** 2 for code in pos_a))


def consensus_ordering(orderings: Sequence[Sequence[str]]) -> Ordering:
    """Least-squares consensus over orderings of one task set.

    Returns the ordering with the least sum, over the inputs, of squared
    :func:`ordering_distance`; ties break toward the lexicographically
    smaller ordering.  Every permutation has the same sum of squared
    positions, so the sum is least where sum(p(t) * S(t)) is greatest, S(t)
    being the sum of t's positions over the inputs.  By the rearrangement
    inequality that is the tasks sorted by S, then by code.  If every input
    puts E before F then S(E) < S(F), so the result keeps every precedence
    that all inputs keep: valid orderings of a workflow give a valid one.
    """
    if not orderings:
        raise OrderingError("consensus requires at least one ordering")
    first = tuple(orderings[0])
    _position_vector(first)
    for other in orderings[1:]:
        _position_vector(other)
        _require_same_tasks(first, other)

    sums = dict.fromkeys(first, 0)
    for ordering in orderings:
        for i, code in enumerate(ordering):
            sums[code] += i
    return tuple(sorted(first, key=lambda code: (sums[code], code)))
