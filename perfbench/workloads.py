"""Workloads of the cogseq benchmark: inputs, requests and their goldens.

A request is one call a user makes through the public API: resolve a variant
group and ``solve()``, or ``compare_variants()``.  Every request is a plain
JSON-able dict so that it can be stored next to its recorded answer in
``goldens/<workload>.json``.

``checkin`` runs every request on the bundled fixture.  The generated
workloads draw from a fixed pool whose answers were recorded once: pool entry
``i`` is generated from ``random.Random(f"{workload}:{i}")``.  Every run
sends the whole pool; its ``--seed`` sets the order of the requests and
which of them also go through the CLI.  Request cost has a steep tail (the
slowest tenth of ``sparse`` costs two to seven times its 80th percentile), so
the p90 of a seeded half of a pool moved by 10% between seeds on inputs
alone.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

GOLDENS = Path(__file__).resolve().parent / "goldens"

MODELS = ("calibrated", "literal", "full-history")
FULL_HISTORY_MODEL = {"recent_practice_scope": "full-history"}
MODALITIES = ("touch", "keys", "scan", "card reader")
RESOURCES = ("VWM", "PM", "DR", "SR", "ER")
GROUP = "VAR"

#: Published optimal totals (calibrated model, thousandths) of the check-in
#: fixture, as stated in the README.
CHECKIN_TOTALS = {"AUPS": 5340, "AUCC": 5760, "AUPI": 6423, "AUPW": 6843}
CHECKIN_FIXTURE = "checkin-full.json"
CHECKIN_CLI = (
    ("solve", "checkin-full", "--variant", "AUTH=AUPS", "--k", "3"),
    ("solve", "checkin-full", "--variant", "AUTH=AUPW", "--format", "json",
     "--objective", "max", "--k", "10"),
    ("compare-variants", "checkin-full"),
)

#: Generated workloads: task count range (after the variant group is
#: resolved), edge probability, chain shape, pool size, and the largest
#: search-node count (at the recording commit) a pool entry may take.  Sizes
#: are set by run length: a run repeats its whole sample a few times, and the
#: node cap keeps one rare slow search from deciding a run's throughput.
GENERATED = {
    "sparse": {"n": [12, 14], "edge_p": 0.25, "chain": False, "pool": 70,
               "max_nodes": 500_000},
    "antichain": {"n": [8, 10], "edge_p": 0.0, "chain": False, "pool": 75,
                  "max_nodes": 500_000},
    "chain": {"n": [65, 88], "edge_p": 1.0, "chain": True, "pool": 30,
              "max_nodes": 500_000},
}
WORKLOADS = ("checkin", *GENERATED)

#: Three CLI requests per generated workload, one drawn from each of these
#: bands of the pool sorted by difficulty, so CLI wall time is not dominated
#: by one slow search.
CLI_BANDS = ((0.05, 0.15), (0.15, 0.25), (0.25, 0.35))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_goldens(workload: str) -> dict:
    return json.loads((GOLDENS / f"{workload}.json").read_text("utf-8"))


def generate_document(rng: random.Random, n: int, edge_p: float,
                      chain: bool) -> dict:
    """Workflow document with n tasks once its variant group is resolved.

    Task ``T{slot}`` is replaced by a two-member variant group ``VAR`` whose
    members ``T{slot}A``/``T{slot}B`` share its prerequisites; successors
    name the group.  Edges follow a random topological order, so code order
    and precedence order differ.  A chain links consecutive positions.
    """
    position = list(range(n))
    rng.shuffle(position)
    slot = rng.randrange(n)
    preds: list[set[int]] = [set() for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            if (b == a + 1) if chain else rng.random() < edge_p:
                preds[position[b]].add(position[a])

    def ref(i: int) -> str:
        return GROUP if i == slot else f"T{i:02d}"

    def task(code: str, i: int) -> dict:
        return {
            "code": code,
            "name": f"Task {code}",
            "resource": rng.choice(RESOURCES),
            "modality": rng.choice(MODALITIES),
            "voluntary": "yes" if rng.random() < 0.5 else "no",
            "familiarity": rng.randint(1, 5),
            "complexity": rng.randint(1, 5),
            "prerequisites": sorted(ref(p) for p in preds[i]),
        }

    tasks = []
    for i in range(n):
        if i == slot:
            tasks += [task(f"T{i:02d}A", i), task(f"T{i:02d}B", i)]
        else:
            tasks.append(task(f"T{i:02d}", i))
    members = [f"T{slot:02d}A", f"T{slot:02d}B"]
    return {"tasks": tasks,
            "variant_groups": [{"code": GROUP, "members": members}]}


def pool_entry(workload: str, i: int) -> tuple[str, dict]:
    """Document text and request of one pool entry of a generated workload."""
    spec = GENERATED[workload]
    rng = random.Random(f"{workload}:{i}")
    n = rng.randint(*spec["n"])
    document = generate_document(rng, n, spec["edge_p"], spec["chain"])
    members = document["variant_groups"][0]["members"]
    request = {
        "id": f"{workload}-{i:03d}",
        "kind": "solve",
        "doc": f"{workload}-{i:03d}",
        "group": GROUP,
        "variant": rng.choice(members),
        "model": rng.choice(MODELS),
        "objective": rng.choice(("min", "max")),
        "k": rng.choice((1, 3, 10)),
    }
    return json.dumps(document), request


def pool_index(request: dict) -> int:
    return int(request["id"].rsplit("-", 1)[1])


def checkin_requests() -> list[dict]:
    requests = []
    for member in sorted(CHECKIN_TOTALS):
        for objective in ("min", "max"):
            for k in (1, 10):
                for model in MODELS:
                    requests.append({
                        "id": f"checkin-{member}-{objective}-k{k}-{model}",
                        "kind": "solve", "doc": "checkin", "group": "AUTH",
                        "variant": member, "model": model,
                        "objective": objective, "k": k,
                    })
    for model in MODELS:
        requests.append({"id": f"checkin-compare-{model}", "kind": "compare",
                         "doc": "checkin", "model": model})
    return requests


def sample(goldens: dict, seed: int) -> list[dict]:
    """Every golden entry, in the seed's order."""
    picked = list(goldens["entries"])
    random.Random(f"sample:{seed}").shuffle(picked)
    return picked


def cli_requests(picked: list[dict], seed: int) -> list[dict]:
    """Requests of a generated workload that also go through the CLI."""
    rng = random.Random(f"cli:{seed}")
    ranked = sorted(picked, key=lambda e: (e["nodes"], e["n"],
                                           e["request"]["id"]))
    return [rng.choice(ranked[int(lo * len(ranked)):int(hi * len(ranked))])
            ["request"] for lo, hi in CLI_BANDS]


def make_models(api) -> dict:
    return {
        "calibrated": api.CostModel.calibrated(),
        "literal": api.CostModel(),
        "full-history": api.parse_cost_model_document(FULL_HISTORY_MODEL),
    }


def execute(api, request: dict, workflow, models: dict):
    """Run one request through the public API; returns the raw result."""
    model = models[request["model"]]
    if request["kind"] == "compare":
        return api.compare_variants(workflow, model)
    resolved = api.instantiate_variant(workflow, request["group"],
                                       request["variant"])
    return api.solve(api.SolveRequest(
        workflow=resolved, model=model,
        objective=api.Objective.parse(request["objective"]), k=request["k"],
    ))


def plain(request: dict, result) -> list:
    """Comparable form of a result: totals in thousandths and orderings."""
    if request["kind"] == "compare":
        return [[comp.group, comp.delta,
                 [[row.member, row.solution.total,
                   " ".join(row.solution.ordering)] for row in comp.rows]]
                for comp in result]
    return [[s.total, " ".join(s.ordering)] for s in result]


def cli_args(request: dict, document_path: Path, model_path: Path) -> list:
    """``cogseq`` arguments that make the same request as ``execute``."""
    model = (str(model_path) if request["model"] == "full-history"
             else request["model"])
    return ["solve", str(document_path),
            "--variant", f"{request['group']}={request['variant']}",
            "--objective", request["objective"], "--k", str(request["k"]),
            "--cost-model", model, "--format", "json"]


def cli_json_solutions(stdout: str) -> list:
    return [[s["total_thousandths"], " ".join(s["ordering"])]
            for s in json.loads(stdout)["solutions"]]
