"""Record the benchmark's goldens: every pool request's orderings and totals.

Run from the repository root, only when a workload definition changes:

    python3 perfbench/make_goldens.py [WORKLOAD ...]

Each answer is cross-checked with ``brute_force`` wherever the workflow's
linear-extension count fits the budget below, and the check-in optima are
checked against the totals published in the README.  The recorded search
node counts order the pool into strata for sampling.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import cogseq as api  # noqa: E402

#: Largest extension count that brute force enumerates per cross-check;
#: full-history pricing walks the history, so it gets a smaller budget.
BRUTE_BUDGET = {"adjacent": 120_000, "full-history": 10_000}


def cross_check(request: dict, workflow, models: dict,
                solutions: list) -> bool:
    """True when brute force ran and agreed; raises when it disagrees."""
    resolved = api.instantiate_variant(workflow, request["group"],
                                       request["variant"])
    budget = BRUTE_BUDGET["full-history" if request["model"] == "full-history"
                          else "adjacent"]
    if api.count_linear_extensions(resolved) > budget:
        return False
    best = api.brute_force(resolved, models[request["model"]],
                           api.Objective.parse(request["objective"]))
    if [best.total, " ".join(best.ordering)] != solutions[0]:
        raise SystemExit(f"{request['id']}: solve {solutions[0]} disagrees "
                         f"with brute force {best.total} {best.ordering}")
    return True


def record(request: dict, text: str, models: dict) -> dict:
    workflow = api.parse_workflow_document(json.loads(text)).workflow
    result = wl.execute(api, request, workflow, models)
    solutions = wl.plain(request, result)
    entry = {"request": request, "doc_sha256": wl.sha256(text),
             "n": len(workflow.tasks), "solutions": solutions}
    if request["kind"] == "compare":
        entry["nodes"] = sum(row.solution.stats.nodes
                             for comp in result for row in comp.rows)
        entry["brute_force"] = False
    else:
        entry["nodes"] = result[0].stats.nodes
        entry["brute_force"] = cross_check(request, workflow, models,
                                           solutions)
    return entry


def checkin_cli() -> list[dict]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    recorded = []
    for args in wl.CHECKIN_CLI:
        proc = subprocess.run([sys.executable, "-m", "cogseq.cli", *args],
                              cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        recorded.append({"args": list(args), "stdout": proc.stdout})
    return recorded


def build(workload: str) -> dict:
    models = wl.make_models(api)
    if workload == "checkin":
        text = api.fixture_text(wl.CHECKIN_FIXTURE)
        entries = [record(r, text, models) for r in wl.checkin_requests()]
        compare = next(e for e in entries
                       if e["request"]["id"] == "checkin-compare-calibrated")
        totals = {member: total for _, _, rows in compare["solutions"]
                  for member, total, _ in rows}
        if totals != wl.CHECKIN_TOTALS:
            raise SystemExit(f"check-in totals {totals} differ from README")
        extra = {"cli": checkin_cli()}
    else:
        spec = wl.GENERATED[workload]
        entries = []
        i = 0
        while len(entries) < spec["pool"]:
            text, request = wl.pool_entry(workload, i)
            entry = record(request, text, models)
            if entry["nodes"] <= spec["max_nodes"]:
                entries.append(entry)
            i += 1
        extra = {"generator": spec, "generated": i}
    checked = sum(e["brute_force"] for e in entries)
    print(f"{workload}: {len(entries)} entries, {checked} cross-checked "
          f"by brute force", file=sys.stderr)
    return {"workload": workload, "kernel": api.KERNEL_NAME,
            "python": platform.python_version(),
            "brute_force_checked": checked, **extra, "entries": entries}


def main() -> None:
    for workload in sys.argv[1:] or wl.WORKLOADS:
        goldens = build(workload)
        path = wl.GOLDENS / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(goldens, indent=1) + "\n", "utf-8")


if __name__ == "__main__":
    main()
