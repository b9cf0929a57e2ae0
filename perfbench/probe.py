"""Host-speed probes: fixed work timed beside every sample.

The benchmark host is shared.  Over a run its speed for identical work swings
by up to a factor of two within seconds (CPU time tracks wall time, so the
loss is not visible as stolen time).  Wall times taken seconds apart are then
not comparable, and no run length makes their medians steady.

The end-to-end metrics therefore time each sample between two runs of a
probe and report the sample's wall time divided by the geometric mean of the
two probe times: the sample's latency in probe units.  No probe runs cogseq
code, so a change to the program moves the ratio while a change in host
speed cancels out of it.

In-process requests are measured against ``probe_s``, an exact subset dynamic
program in plain Python (the best order of ten weighted jobs), the same kind
of interpreter work as the pure search kernel.  CLI processes are measured
against the start of a bare interpreter (``python -c pass``): process start
and module loading respond to the host differently from interpreter work,
and measured against ``probe_s`` their spread between runs grew instead of
shrinking.
"""

from __future__ import annotations

import gc
import math
from time import perf_counter

SIZE = 10
WEIGHTS = tuple((i * 7919) % 13 for i in range(SIZE))
#: Least total weighted completion position of the jobs above.
EXPECTED = 175


def _best_order_cost() -> int:
    full = (1 << SIZE) - 1
    best = [1 << 60] * (full + 1)
    best[0] = 0
    for mask in range(full):
        base = best[mask]
        position = mask.bit_count() + 1
        for i in range(SIZE):
            bit = 1 << i
            if not mask & bit:
                cost = base + WEIGHTS[i] * position
                if cost < best[mask | bit]:
                    best[mask | bit] = cost
    return best[full]


def probe_s() -> float:
    """Wall time of one probe run in seconds, with the collector held off so
    that a collection the program's garbage made due is not charged to it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        value = _best_order_cost()
        elapsed = perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if value != EXPECTED:
        raise RuntimeError(f"probe computed {value}, expected {EXPECTED}")
    return elapsed


class ProbeChain:
    """Probes between consecutive samples: each probe closes one sample and
    opens the next, so every sample has a probe on both sides of it.
    ``probe`` returns the wall time of one probe run in seconds."""

    def __init__(self, probe=probe_s):
        self.probe = probe
        self.last = probe()
        self.probes = [self.last]

    def restart(self) -> None:
        """Open the next sample afresh after work that is not a sample."""
        self.last = self.probe()
        self.probes.append(self.last)

    def relative(self, seconds: float) -> float:
        """A sample that just ended, in units of the probes around it."""
        after = self.probe()
        ratio = seconds / math.sqrt(self.last * after)
        self.last = after
        self.probes.append(after)
        return ratio
