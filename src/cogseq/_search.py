"""Exact search over prefixes of linear extensions.

The cost of finishing a sequence depends only on the set of tasks already
placed and the last one of them: the pair rows price adjacent transitions,
and the lifted full-history RecentPractice term depends only on the placed
set.  Those sets are the order ideals (prerequisite-closed subsets) of the
precedence order, so one forward pass enumerates the ideals reachable from
the empty set and one backward pass computes the exact cost-to-go of every
(ideal, next task) step (Held & Karp 1962; Lawler 1978).  One best-first
pass then collects the top k (A*, Hart, Nilsson & Raphael 1968, with that
exact cost-to-go as its heuristic).  A prefix's key is the least total of
the orderings that extend it, and deferred prefixes leave a heap in (key,
index sequence) order, so the orderings come out cheapest first and ties
keep breaking toward the smaller index sequence.  No step is tried twice.

The search only minimizes: minimizing negated prices, with the same
lexicographic tie-break, is how a caller maximizes.

One table maps each ideal's bitmask to its row ``(tasks, rests)``: the
forward pass lists ``tasks`` eligible there, inserting ideals by size, so
reverse insertion order puts children first, and the backward pass adds
each step's cost-to-go, ``rests``.

Twins (tasks with equal properties, ancestors and descendants) are
interchangeable: swapping two of them changes no cost (Freuder 1991, value
interchangeability).  So the dynamic program places the members of a twin
class in index order only, by chaining each member to the one before it,
and a class of c twins takes c + 1 states instead of 2^c.  The best-first
pass still places real tasks in any order: each real prefix reads the row
of its canonical ideal, the one that places as many members of every class,
lowest indices first, with the class's next member standing for every
unplaced one.

Tasks are dense indices 0..n-1 in ascending-code order, so index-tuple
comparison is exactly lexicographic code comparison.  Nothing here recurses,
so no workflow size can reach the interpreter's recursion limit.
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Sequence
from heapq import heappop, heappush
from operator import add

from .errors import BudgetExceededError

#: Most order ideals the forward pass may build before giving up: the count
#: of an 18-task antichain of distinct tasks, whose every subset is an ideal.
#: Twin classes are chained first, so this counts canonical ideals.
MAX_IDEALS = 2 ** 18

#: Most steps the best-first pass may try before giving up.  Every step
#: it defers stays on its heap, so this bounds the search's memory as well.
MAX_STEPS = 1_000_000


def search(preds: Sequence[int],
           succ: Sequence[Sequence[int]],
           pair: list,
           shares: list[int],
           rp_cost: int,
           k: int,
           twins: tuple[tuple[int, ...], ...]):
    """Find the k cheapest extensions; returns (solutions, nodes, prunes).

    ``preds[t]``: bitmask of direct predecessors; ``succ[t]``: the direct
    successors of t, the same edges, in any order.  ``pair[a][b]``: cost of a
    immediately before b, excluding any history-dependent RecentPractice term;
    that term is ``rp_cost`` added whenever an already-placed task is in
    ``shares[t]`` (callers fold the rule into ``pair`` and zero these out for
    adjacent scope).  ``twins``: classes of two or more interchangeable
    tasks, each in ascending index; every cost must be symmetric in the
    members of a class, and ``()`` is always correct.  ``pair[a][b]`` is read
    only for b that can follow a immediately in some linear extension.  With
    no twins the backward pass reads every such pair before the best-first
    pass starts; with twins it reads those of the canonical orderings
    only, and the best-first pass may read a twin's pair first.  So a row
    may price on first read: a dict per row whose ``__missing__`` prices b
    and stores it will do.  Costs may be negative.  Solutions are (total,
    index-tuple), cheapest first, ties lexicographic.  The best-first pass
    follows each prefix's cheapest step and defers the others, until k
    orderings are collected or none are left, reading the rows through
    :class:`_RealRows` when there are twins.
    ``nodes`` counts the steps it tries, followed or deferred, and
    ``prunes`` the deferred ones; neither counts order ideals.  Raises
    :class:`BudgetExceededError` when the order has more than
    ``MAX_IDEALS`` canonical ideals, or when the pass tries more than
    ``MAX_STEPS`` steps, a bound checked as each ordering is collected.
    """
    n = len(preds)
    if n == 0:
        return [(0, ())], 0, 0
    if twins:
        # Each member after the first waits for the one before it, in the
        # tables only: the chained graph is a copy.
        preds = list(preds)
        succ = list(succ)
        for members in twins:
            for prev, t in zip(members, members[1:]):
                preds[t] |= 1 << prev
                succ[prev] = (*succ[prev], t)
    rows = _ideals(preds, succ)
    _cost_to_go(pair, shares, rp_cost, rows)
    if twins:
        rows = _RealRows(n, twins, rows)
    return _top_k(n, pair, shares, rp_cost, k, rows)


def _ideals(preds: Sequence[int], succ: Sequence[Sequence[int]]
            ) -> dict[int, list[int]]:
    """Order ideals reachable from the empty set, keyed by bitmask.

    Maps each ideal to its eligible tasks in ascending index.  Keys are
    inserted level by level (every ideal of s tasks precedes every ideal of
    s + 1), each level expanded from a list because the dict keeps growing.
    """
    elig = {0: [t for t, mask in enumerate(preds) if not mask]}
    level = [0]
    while level:
        nxt: list[int] = []
        for placed in level:
            el = elig[placed]
            i = 0
            for t in el:
                child = placed | 1 << t
                if child not in elig:
                    if len(elig) >= MAX_IDEALS:
                        raise BudgetExceededError(MAX_IDEALS + 1, MAX_IDEALS,
                                                  "order ideals or more")
                    # Concatenation sizes the list exactly; += would not.
                    # Only an opened dependent grows it, in place.
                    rest = el[:i] + el[i + 1:]
                    dependents = succ[t]
                    if dependents:
                        for s in dependents:
                            if not preds[s] & ~child:
                                insort(rest, s)
                    elig[child] = rest
                    nxt.append(child)
                i += 1
        level = nxt
    return elig


def _cost_to_go(pair, shares, rp_cost, rows):
    """Make each row ``(tasks, rests)`` in place, children first, keeping
    :func:`_ideals`' list as ``tasks``: ``rests[i]`` is the exact least cost
    of finishing after placing ``tasks[i]`` on that ideal, including that
    step's lifted RecentPractice term but not its pair cost.  Only ``rests``
    depends on the prices: pricing the lattice again rewrites them alone."""
    # One bound method per row, not one per (ideal, task) cell; a dict's
    # __getitem__ still falls back to the row's __missing__.
    gets = [row.__getitem__ for row in pair]
    full = next(reversed(rows))
    for placed, el in reversed(rows.items()):
        rests: list[int] = []
        for t in el:
            child = placed | 1 << t
            if child == full:
                rest = 0
            else:
                tasks, after = rows[child]
                rest = min(map(add, map(gets[t], tasks), after))
            if rp_cost and placed & shares[t]:
                rest += rp_cost
            rests.append(rest)
        # A tuple is sized exactly; the appended list is not.
        rows[placed] = el, tuple(rests)


class _RealRows(dict):
    """The ``(tasks, rests)`` row of each real prefix, built on first read
    from the canonical rows.

    A real prefix's canonical ideal places as many members of each class,
    the lowest first.  Its row names one member of each eligible class, and
    every unplaced member of that class is eligible in the real prefix and
    finishes at the same cost.  Prefixes that place the same tasks in other
    orders share a row.
    """

    __slots__ = ("_rows", "_classmask", "_twinned", "_firsts")

    def __init__(self, n, twins, rows):
        classmask = [1 << t for t in range(n)]
        twinned = 0
        # (class mask, masks of its first 0, 1, ..., c members)
        firsts = []
        for members in twins:
            prefixes = [0]
            for t in members:
                prefixes.append(prefixes[-1] | 1 << t)
            mask = prefixes[-1]
            for t in members:
                classmask[t] = mask
            twinned |= mask
            firsts.append((mask, prefixes))
        self._rows = rows
        self._classmask = classmask
        self._twinned = twinned
        self._firsts = firsts

    def __missing__(self, placed: int):
        canonical = placed & ~self._twinned
        for mask, prefixes in self._firsts:
            canonical |= prefixes[(placed & mask).bit_count()]
        classmask = self._classmask
        steps = []
        for u, rest in zip(*self._rows[canonical]):
            free = classmask[u] & ~placed
            while free:
                low = free & -free
                steps.append((low.bit_length() - 1, rest))
                free ^= low
        steps.sort()
        # The search reads only prefixes with a task left to place.  Rows of
        # tuples leave the garbage collector no reference cycle.
        row = self[placed] = tuple(zip(*steps))
        return row


def _top_k(n, pair, shares, rp_cost, k, rows):
    """One best-first pass (A*) keyed by each prefix's exact least total.

    A prefix that places ``placed`` reads its steps from ``rows[placed]``.
    From the current prefix the search dives: it follows the first step, in
    ascending index, whose key equals the prefix's own, and defers every
    other step to a heap of ``(key, prefix, placed, total)``.  A dive always
    ends at a leaf of its key, and then the smallest deferred ``(key,
    prefix)`` is popped and dived from.  No deferred prefix extends another,
    and a prefix's key is the least total of its orderings, so the leaves
    come out in (total, index sequence) order: ties still break toward the
    lexicographically smaller ordering.  The dive that collects the k-th
    ordering counts its deferred steps but pushes none, since nothing will
    pop them: at k = 1 the heap stays empty.
    """
    solutions: list[tuple[int, tuple[int, ...]]] = []
    heap: list = []
    nodes = 0
    prunes = 0
    key = min(rows[0][1])
    prefix: tuple[int, ...] = ()
    placed = 0
    total = 0
    prow = [0] * n
    while True:
        deferring = len(solutions) < k - 1
        seq = list(prefix)
        for _ in range(n - len(seq)):
            follow = -1
            for t, rest in zip(*rows[placed]):
                nodes += 1
                base = total + prow[t]
                step = base + rest
                if rp_cost and placed & shares[t]:
                    base += rp_cost
                if step == key and follow < 0:
                    follow = t
                    follow_total = base
                else:
                    prunes += 1
                    if deferring:
                        heappush(heap,
                                 (step, (*seq, t), placed | 1 << t, base))
            seq.append(follow)
            placed |= 1 << follow
            total = follow_total
            prow = pair[follow]
        # The key of a whole ordering is its cost.
        solutions.append((key, tuple(seq)))
        if len(solutions) == k or not heap:
            return solutions, nodes, prunes
        if nodes > MAX_STEPS:
            raise BudgetExceededError(nodes, MAX_STEPS,
                                      "search steps or more")
        key, prefix, placed, total = heappop(heap)
        prow = pair[prefix[-1]]
