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
    """Greedy positional-mode consensus over orderings of one task set.

    Positions are filled in ascending order with the unused task appearing
    most often at that position (ties: ascending code).  A position where no
    unused task ever appeared is deferred; the leftover tasks fill deferred
    positions by ascending mean index, then code.  The tie policy is this
    implementation's choice; it exists to make the result deterministic.
    """
    if not orderings:
        raise OrderingError("consensus requires at least one ordering")
    first = tuple(orderings[0])
    _position_vector(first)
    for other in orderings[1:]:
        _position_vector(other)
        _require_same_tasks(first, other)

    n = len(first)
    codes = sorted(first)
    counts = {code: [0] * n for code in codes}
    index_sums = dict.fromkeys(codes, 0)
    for ordering in orderings:
        for i, code in enumerate(ordering):
            counts[code][i] += 1
            index_sums[code] += i

    result: list[str | None] = [None] * n
    unused = set(codes)
    deferred: list[int] = []
    for position in range(n):
        best_code: str | None = None
        best_count = 0
        for code in sorted(unused):
            count = counts[code][position]
            if count > best_count:
                best_count = count
                best_code = code
        if best_code is None:
            deferred.append(position)
        else:
            result[position] = best_code
            unused.remove(best_code)

    leftovers = sorted(unused, key=lambda c: (index_sums[c] / len(orderings), c))
    for position, code in zip(deferred, leftovers):
        result[position] = code
    return tuple(result)  # type: ignore[arg-type]

