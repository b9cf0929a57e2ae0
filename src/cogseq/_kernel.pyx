# cython: language_level=3, boundscheck=False, wraparound=False
"""Compiled branch-and-bound kernel; ``_search.py`` is the reference twin.

Same contract as cogseq._search.search, restricted to n <= 64 so prefixes
and predecessor sets fit in single machine words.  The DFS runs on explicit
C stacks; the Python layer is touched only when a completed sequence enters
the running top-k.
"""

from bisect import bisect_right

KERNEL_NAME = "compiled"


def search(int n,
           preds_list,
           pair_list,
           shares_list,
           long long rp_cost,
           bound_list,
           bint maximize,
           long long k):
    """Mirror of cogseq._search.search; see that docstring for the contract."""
    if n > 64:
        raise ValueError("compiled kernel supports at most 64 tasks")
    if n == 0:
        return [(0, ())], 0, 0

    cdef unsigned long long preds[64]
    cdef unsigned long long shares[64]
    cdef long long pair[64][64]
    cdef long long bound_in[64]
    cdef unsigned long long placed_stack[65]
    cdef long long totals[65]
    cdef long long rems[65]
    cdef int last_stack[65]
    cdef int nextt[65]
    cdef int seq[64]
    cdef int i, j, t, depth, pos
    cdef unsigned long long bit, placed
    cdef long long step, new_total, new_rem, key, total_bound
    cdef long long nodes = 0, prunes = 0
    cdef long long sign = -1 if maximize else 1
    cdef long long worst_key = 0
    cdef Py_ssize_t count = 0

    for i in range(n):
        preds[i] = preds_list[i]
        shares[i] = shares_list[i]
        bound_in[i] = bound_list[i]
        row = pair_list[i]
        for j in range(n):
            pair[i][j] = row[j]
    total_bound = 0
    for i in range(n):
        total_bound += bound_in[i]

    keys = []
    seqs = []
    depth = 0
    placed_stack[0] = 0
    totals[0] = 0
    rems[0] = total_bound
    last_stack[0] = -1
    nextt[0] = 0

    while depth >= 0:
        placed = placed_stack[depth]
        t = nextt[depth]
        while t < n:
            bit = (<unsigned long long> 1) << t
            if not (placed & bit) and (preds[t] & ~placed) == 0:
                break
            t += 1
        if t == n:
            depth -= 1
            continue
        nextt[depth] = t + 1
        bit = (<unsigned long long> 1) << t
        if depth == 0:
            step = 0
        else:
            step = pair[last_stack[depth]][t]
            if rp_cost != 0 and (placed & shares[t]) != 0:
                step += rp_cost
        nodes += 1
        new_total = totals[depth] + step
        seq[depth] = t
        if depth + 1 == n:
            key = sign * new_total
            if count < k or key < worst_key:
                pos = bisect_right(keys, key)
                keys.insert(pos, key)
                seqs.insert(pos, tuple([seq[i] for i in range(n)]))
                if count == k:
                    keys.pop()
                    seqs.pop()
                else:
                    count += 1
                worst_key = keys[count - 1]
            continue
        new_rem = rems[depth] - bound_in[t]
        if count == k and sign * (new_total + new_rem) >= worst_key:
            prunes += 1
            continue
        depth += 1
        placed_stack[depth] = placed | bit
        last_stack[depth] = t
        totals[depth] = new_total
        rems[depth] = new_rem
        nextt[depth] = 0

    solutions = [(sign * <long long> keys[i], seqs[i]) for i in range(count)]
    return solutions, nodes, prunes
