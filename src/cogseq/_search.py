"""Exact search over prefixes of linear extensions.

The cost of finishing a sequence depends only on the set of tasks already
placed and the last one of them: the pair rows price adjacent transitions,
and the lifted full-history RecentPractice term depends only on the placed
set.  Those sets are the order ideals (prerequisite-closed subsets) of the
precedence order, so one forward pass enumerates the ideals reachable from
the empty set and one backward pass computes the exact cost-to-go of every
(ideal, next task) step (Held & Karp 1962; Lawler 1978).  A lexicographic
depth-first branch and bound then collects the top k, pruned by that exact
bound, so ties keep breaking toward the smaller index sequence.

An ideal's only name is its bitmask of placed tasks, and the forward pass
inserts ideals by size, so reverse insertion order puts children first.

Tasks are dense indices 0..n-1 in ascending-code order, so index-tuple
comparison is exactly lexicographic code comparison.  Nothing here recurses,
so no workflow size can reach the interpreter's recursion limit.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import add

from .errors import BudgetExceededError

#: Most order ideals the forward pass may build before giving up: the count
#: of an 18-task antichain, whose every subset is an ideal.
MAX_IDEALS = 2 ** 18


def search(n: int,
           preds: list[int],
           pair: list,
           shares: list[int],
           rp_cost: int,
           maximize: bool,
           k: int):
    """Find the k extremal linear extensions; returns (solutions, nodes, prunes).

    ``preds[t]``: bitmask of direct predecessors.  ``pair[a][b]``: cost of a
    immediately before b, excluding any history-dependent RecentPractice term;
    that term is ``rp_cost`` added whenever an already-placed task is in
    ``shares[t]`` (callers fold the rule into ``pair`` and zero these out for
    adjacent scope).  ``pair[a][b]`` is read only for b that can follow a
    immediately in some linear extension, and the backward pass reads every
    such pair before the depth-first search starts.  So a row may price on
    first read: a dict per row whose ``__missing__`` prices b and stores it
    will do.  Solutions are (total, index-tuple), best-first, ties
    lexicographic.  ``nodes`` and ``prunes`` count depth-first steps tried
    and cut off, not order ideals.  Raises :class:`BudgetExceededError`
    when the order has more than ``MAX_IDEALS`` ideals.
    """
    if n == 0:
        return [(0, ())], 0, 0
    elig = _ideals(n, preds)
    go = _cost_to_go(pair, shares, rp_cost, maximize, elig)
    return _top_k(n, pair, shares, rp_cost, maximize, k, elig, go)


def _ideals(n: int, preds: list[int]) -> dict[int, list[int]]:
    """Order ideals reachable from the empty set, keyed by bitmask.

    Maps each ideal to its eligible tasks in ascending index.  Keys are
    inserted level by level (every ideal of s tasks precedes every ideal of
    s + 1), each level expanded from a list because the dict keeps growing.
    """
    succ: list[list[int]] = [[] for _ in range(n)]
    for s in range(n):
        mask = preds[s]
        while mask:
            low = mask & -mask
            succ[low.bit_length() - 1].append(s)
            mask ^= low

    elig = {0: [t for t in range(n) if not preds[t]]}
    level = [0]
    while level:
        nxt: list[int] = []
        for placed in level:
            el = elig[placed]
            for i, t in enumerate(el):
                child = placed | 1 << t
                if child not in elig:
                    if len(elig) >= MAX_IDEALS:
                        raise BudgetExceededError(MAX_IDEALS + 1, MAX_IDEALS,
                                                  "order ideals or more")
                    rest = el[:i] + el[i + 1:]
                    opened = [s for s in succ[t] if not preds[s] & ~child]
                    elig[child] = sorted(rest + opened) if opened else rest
                    nxt.append(child)
        level = nxt
    return elig


def _cost_to_go(pair, shares, rp_cost, maximize, elig):
    """``go[placed][i]``: the exact best cost of finishing after placing
    ``elig[placed][i]`` on ideal ``placed``, including that step's lifted
    RecentPractice term but not its pair cost."""
    best = max if maximize else min
    full = next(reversed(elig))
    go: dict[int, list[int]] = {}
    for placed, el in reversed(elig.items()):
        row: list[int] = []
        for t in el:
            child = placed | 1 << t
            if child == full:
                rest = 0
            else:
                rest = best(map(add, map(pair[t].__getitem__, elig[child]),
                                go[child]))
            if rp_cost and placed & shares[t]:
                rest += rp_cost
            row.append(rest)
        go[placed] = row
    return go


def _top_k(n, pair, shares, rp_cost, maximize, k, elig, go):
    """Lexicographic depth-first branch and bound on an explicit stack.

    A step is pruned when even its exact best completion cannot enter the
    running top k; equal keys lose, because every ordering seen later is
    lexicographically larger.
    """
    sign = -1 if maximize else 1
    keys: list[int] = []
    seqs: list[tuple[int, ...]] = []
    seq = [0] * n
    nodes = 0
    prunes = 0
    leaf_depth = n - 1
    # Per depth: placed mask, running total, and an iterator over the
    # remaining (task, cost-to-go) steps.
    placed_at = [0] * n
    total_at = [0] * n
    steps_at: list = [None] * n
    steps_at[0] = zip(elig[0], go[0])
    no_pair = [0] * n
    depth = 0
    while depth >= 0:
        placed = placed_at[depth]
        total = total_at[depth]
        prow = pair[seq[depth - 1]] if depth else no_pair
        for t, rest in steps_at[depth]:
            nodes += 1
            base = total + prow[t]
            if depth == leaf_depth:
                # rest is this step's RecentPractice term alone.
                key = sign * (base + rest)
                if len(keys) < k or key < keys[-1]:
                    seq[depth] = t
                    pos = bisect_right(keys, key)
                    keys.insert(pos, key)
                    seqs.insert(pos, tuple(seq))
                    if len(keys) > k:
                        keys.pop()
                        seqs.pop()
                continue
            if len(keys) == k and sign * (base + rest) >= keys[-1]:
                prunes += 1
                continue
            if rp_cost and placed & shares[t]:
                base += rp_cost
            seq[depth] = t
            depth += 1
            child = placed | 1 << t
            placed_at[depth] = child
            total_at[depth] = base
            steps_at[depth] = zip(elig[child], go[child])
            break
        else:
            depth -= 1
    solutions = [(sign * key, seqs[i]) for i, key in enumerate(keys)]
    return solutions, nodes, prunes
