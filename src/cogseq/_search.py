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
    elig, kids, masks = _ideals(n, preds)
    go = _cost_to_go(pair, shares, rp_cost, maximize, elig, kids, masks)
    return _top_k(n, pair, shares, rp_cost, maximize, k, elig, kids, go)


def _ideals(n: int, preds: list[int]):
    """Order ideals reachable from the empty set, in breadth-first order.

    Returns per ideal id: its eligible tasks in ascending index, the id of
    the ideal each of them leads to, and the ideal's bitmask.  Id 0 is the
    empty set; a child always has a larger id than its parent.
    """
    succ: list[list[int]] = [[] for _ in range(n)]
    for s in range(n):
        mask = preds[s]
        while mask:
            low = mask & -mask
            succ[low.bit_length() - 1].append(s)
            mask ^= low

    roots = [t for t in range(n) if not preds[t]]
    index = {0: 0}
    masks = [0]
    elig = [roots]
    kids: list[list[int]] = []
    for ideal, placed in enumerate(masks):
        row: list[int] = []
        el = elig[ideal]
        for i, t in enumerate(el):
            child = placed | 1 << t
            cid = index.get(child)
            if cid is None:
                cid = len(masks)
                if cid >= MAX_IDEALS:
                    raise BudgetExceededError(cid + 1, MAX_IDEALS,
                                              "order ideals or more")
                index[child] = cid
                masks.append(child)
                rest = el[:i] + el[i + 1:]
                opened = [s for s in succ[t] if not preds[s] & ~child]
                elig.append(sorted(rest + opened) if opened else rest)
            row.append(cid)
        kids.append(row)
    return elig, kids, masks


def _cost_to_go(pair, shares, rp_cost, maximize, elig, kids, masks):
    """``go[d][i]``: the exact best cost of finishing after placing
    ``elig[d][i]`` on ideal d, including that step's lifted RecentPractice
    term but not its pair cost."""
    best = max if maximize else min
    full = len(masks) - 1
    go: list[list[int]] = [[]] * len(masks)
    for ideal in range(full - 1, -1, -1):
        placed = masks[ideal]
        row: list[int] = []
        for t, cid in zip(elig[ideal], kids[ideal]):
            if cid == full:
                rest = 0
            else:
                rest = best(map(add, map(pair[t].__getitem__, elig[cid]),
                                go[cid]))
            if rp_cost and placed & shares[t]:
                rest += rp_cost
            row.append(rest)
        go[ideal] = row
    return go


def _top_k(n, pair, shares, rp_cost, maximize, k, elig, kids, go):
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
    # remaining (task, child ideal, cost-to-go) steps.
    placed_at = [0] * n
    total_at = [0] * n
    steps_at: list = [None] * n
    steps_at[0] = zip(elig[0], kids[0], go[0])
    no_pair = [0] * n
    depth = 0
    while depth >= 0:
        placed = placed_at[depth]
        total = total_at[depth]
        prow = pair[seq[depth - 1]] if depth else no_pair
        for t, cid, rest in steps_at[depth]:
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
            placed_at[depth] = placed | 1 << t
            total_at[depth] = base
            steps_at[depth] = zip(elig[cid], kids[cid], go[cid])
            break
        else:
            depth -= 1
    solutions = [(sign * key, seqs[i]) for i, key in enumerate(keys)]
    return solutions, nodes, prunes
