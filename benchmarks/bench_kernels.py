"""Time the compiled search kernel against its pure-Python twin.

Runs the bundled check-in benchmark (all four authentication variants)
through both kernels' branch-and-bound search and prints a speedup table.  Usage:

    python3 benchmarks/bench_kernels.py [--repeat N] [--k N]
"""

from __future__ import annotations

import argparse
import time

from cogseq import CostModel, instantiate_variant, load_fixture
from cogseq import _search
from cogseq.solver import Objective, _kernel_inputs

try:
    from cogseq import _kernel
except ImportError:
    _kernel = None

MEMBERS = ("AUPS", "AUPI", "AUCC", "AUPW")


def time_kernel(kernel, args, repeat: int) -> tuple[float, object]:
    best = float("inf")
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = kernel.search(*args)
        best = min(best, time.perf_counter() - t0)
    return best, result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=3,
                        help="timing repetitions per cell (best is kept)")
    parser.add_argument("--k", type=int, default=1,
                        help="solutions to collect per search")
    opts = parser.parse_args()

    if _kernel is None:
        print("compiled kernel not available; showing pure timings only")

    document = load_fixture("checkin-full.json")
    model = CostModel.calibrated()

    header = f"{'variant':<8} {'pure':>9} {'compiled':>9} {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for member in MEMBERS:
        workflow = instantiate_variant(document.workflow, "AUTH", member)
        codes, preds, pair, shares, rp, bound_in = _kernel_inputs(
            workflow, model, Objective.MINIMIZE)
        args = (len(codes), preds, pair, shares, rp, bound_in, False, opts.k)
        pure_t, pure_res = time_kernel(_search, args, opts.repeat)
        if _kernel is None:
            print(f"{member:<8} {pure_t * 1e3:>8.2f}ms {'-':>9} {'-':>8}")
            continue
        comp_t, comp_res = time_kernel(_kernel, args, opts.repeat)
        if pure_res[0] != comp_res[0]:
            raise SystemExit(
                f"kernel disagreement on {member}: "
                f"{pure_res[0]} vs {comp_res[0]}"
            )
        print(f"{member:<8} {pure_t * 1e3:>8.2f}ms "
              f"{comp_t * 1e3:>8.2f}ms {pure_t / comp_t:>7.1f}x")


if __name__ == "__main__":
    main()
