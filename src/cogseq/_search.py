"""Pure-Python branch-and-bound kernel over prefixes of linear extensions.

Twin of the compiled kernel in ``_kernel.pyx``: identical signature and
identical outputs, selected at import time by ``_backend``.  Tasks are dense
indices 0..n-1 in ascending-code order, so index-tuple comparison is exactly
lexicographic code comparison.
"""

from __future__ import annotations

from bisect import bisect_right

KERNEL_NAME = "pure"


def search(n: int,
           preds: list[int],
           pair: list[list[int]],
           shares: list[int],
           rp_cost: int,
           bound_in: list[int],
           maximize: bool,
           k: int):
    """Find the k extremal linear extensions; returns (solutions, nodes, prunes).

    ``preds[t]``: bitmask of direct predecessors.  ``pair[a][b]``: cost of a
    immediately before b, excluding any history-dependent RecentPractice term;
    that term is ``rp_cost`` added whenever an already-placed task is in
    ``shares[t]`` (callers fold the rule into ``pair`` and zero these out for
    adjacent scope).  ``bound_in[t]`` is a static per-task bound on t's
    incoming transition (lower for minimize, upper for maximize), used for an
    admissible prefix bound.  Solutions are (total, index-tuple), best-first,
    ties lexicographic.
    """
    if n == 0:
        return [(0, ())], 0, 0
    sign = -1 if maximize else 1
    keys: list[int] = []
    seqs: list[tuple[int, ...]] = []
    seq = [0] * n
    nodes = 0
    prunes = 0

    def rec(depth: int, placed: int, last: int, total: int,
            rem_bound: int) -> None:
        nonlocal nodes, prunes
        for t in range(n):
            bit = 1 << t
            if placed & bit or preds[t] & ~placed:
                continue
            if depth == 0:
                step = 0
            else:
                step = pair[last][t]
                if rp_cost and placed & shares[t]:
                    step += rp_cost
            nodes += 1
            new_total = total + step
            seq[depth] = t
            if depth + 1 == n:
                key = sign * new_total
                if len(keys) < k or key < keys[-1]:
                    pos = bisect_right(keys, key)
                    keys.insert(pos, key)
                    seqs.insert(pos, tuple(seq))
                    if len(keys) > k:
                        keys.pop()
                        seqs.pop()
                continue
            new_rem = rem_bound - bound_in[t]
            if len(keys) == k and sign * (new_total + new_rem) >= keys[-1]:
                prunes += 1
                continue
            rec(depth + 1, placed | bit, t, new_total, new_rem)

    rec(0, 0, -1, 0, sum(bound_in))
    solutions = [(sign * key, seqs[i]) for i, key in enumerate(keys)]
    return solutions, nodes, prunes
