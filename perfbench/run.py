"""cogseq benchmark: one workload in one process, one closed-loop client.

    python3 perfbench/run.py --workload checkin --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
untraced run (``--trace 0``) measures what users see: in-process request
latency through the public API, and the wall time of fresh
``python -m cogseq.cli`` processes, one at a time.  Both are reported in
units of a probe timed next to each sample (see ``probe.py``), because the
host's speed swings too much for raw wall times to compare between runs;
the raw wall times are printed in the stamp.  The traced run
(``--trace 1``) wraps the layers solve() calls into (see ``layers.py``) and
reports per-layer medians instead.  Every answer is compared with the
recorded goldens.

The last line of stdout is the JSON result.  The line before it stamps the
run with the active kernel, COGSEQ_PURE, the interpreter, the CPU count, the
seed and the source digest: a built extension swaps the kernel silently, so
results with different stamps must not be compared.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import layers
import workloads as wl
from layers import metric
from probe import ProbeChain

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / "_work"

#: setup_s is the median of this many complete set-ups: one before the run
#: and the rest spread over it, so that the median spans the run's spells of
#: host speed rather than one second of them.
SETUP_REPEATS = 9
#: Share of the run given to CLI processes; requests get the rest.  A CLI
#: sample and its probe cost ~0.35 s, so MIN_CLI usually adds CLI samples
#: after the loop; a larger share would only take time from the requests.
CLI_SHARE = 0.3
#: Sample floors so that p90 and p75 each have ten samples beyond them.
MIN_REQUESTS = 100
MIN_CLI = 40
#: Requests run in whole passes over the sample, so that every sampled
#: request weighs the same.  The loop ends at a pass boundary once it has
#: had --seconds and its sample floors, or at this multiple of --seconds.
OVERRUN = 3.0
#: Subprocess samples per CLI layer metric in the traced run.
PROBES = 15
PYTHON_PROBES = {"interp": "pass", "import": "import cogseq.cli"}
#: Every process of a run, CLI ones included, hashes strings alike.
HASH_SEED = "0"


class Bench:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.goldens = wl.load_goldens(workload)
        self.seed = seed
        self.picked = wl.sample(self.goldens, seed)
        self.rng = random.Random(f"order:{seed}")
        self.attempted = 0
        self.failed = 0
        self.absent: list[str] = []
        self.wall: dict = {}
        self.parse_s: list[float] = []
        self.env = dict(os.environ)
        self.env.pop("COGSEQ_COST_MODEL", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])

    # -- set-up ----------------------------------------------------------

    def setup(self, keep: bool = True) -> float:
        """Import cogseq, generate and parse the inputs, run one request.
        Unless ``keep``, the requests go on with the modules and objects
        they had, and ``sys.modules`` holds those modules again."""
        start = perf_counter()
        kept = self._take_modules()
        api = importlib.import_module("cogseq")
        if self.workload == "checkin":
            texts = {"checkin": api.fixture_text(wl.CHECKIN_FIXTURE)}
        else:
            texts = {e["request"]["doc"]: wl.pool_entry(
                         self.workload, wl.pool_index(e["request"]))[0]
                     for e in self.picked}
        docs = {}
        for doc_id, text in texts.items():
            t0 = perf_counter()
            docs[doc_id] = api.parse_workflow_document(json.loads(text))
            self.parse_s.append(perf_counter() - t0)
        models = wl.make_models(api)
        cheapest = min(self.picked, key=lambda e: e["nodes"])["request"]
        wl.execute(api, cheapest, docs[cheapest["doc"]].workflow, models)
        elapsed = perf_counter() - start
        if keep:
            self.api, self.texts, self.models = api, texts, models
            self.workflows = {k: d.workflow for k, d in docs.items()}
        else:
            self._take_modules()
            sys.modules.update(kept)
            # The discarded modules hold reference cycles; freeing them now
            # keeps peak_rss_mb from depending on when a collection falls.
            gc.collect()
        return elapsed

    @staticmethod
    def _take_modules() -> dict:
        """Remove the cogseq modules from ``sys.modules``; returns them."""
        names = [m for m in sys.modules
                 if m == "cogseq" or m.startswith("cogseq.")]
        return {name: sys.modules.pop(name) for name in names}

    def check_inputs(self) -> None:
        where = Path(self.api.__file__).resolve()
        if SRC.resolve() not in where.parents:
            raise SystemExit(f"error: imported cogseq from {where}, "
                             f"not from {SRC}")
        for entry in self.picked:
            text = self.texts[entry["request"]["doc"]]
            if wl.sha256(text) != entry["doc_sha256"]:
                raise SystemExit(f"error: input of {entry['request']['id']} "
                                 f"differs from the goldens' input")

    def fail(self, what: str, detail: str) -> None:
        self.failed += 1
        if self.failed <= 3:
            print(f"FAILED {what}: {detail}", file=sys.stderr)

    # -- requests --------------------------------------------------------

    def request(self, entry: dict) -> tuple[float, bool]:
        """Run and check one request; returns its latency and whether it
        matched the goldens."""
        req = entry["request"]
        self.attempted += 1
        start = perf_counter()
        try:
            result = wl.execute(self.api, req, self.workflows[req["doc"]],
                                self.models)
        except Exception:
            latency = perf_counter() - start
            self.fail(req["id"], traceback.format_exc())
            return latency, False
        latency = perf_counter() - start
        got = wl.plain(req, result)
        if got != entry["solutions"]:
            self.fail(req["id"], f"got {got}, golden {entry['solutions']}")
            return latency, False
        return latency, True

    def passes(self):
        """Endless shuffled passes over the sample."""
        while True:
            order = list(self.picked)
            self.rng.shuffle(order)
            yield order

    # -- command line ----------------------------------------------------

    def cli_commands(self) -> list[tuple[list[str], object]]:
        """(arguments, stdout check) for each CLI request of the workload."""
        if self.workload == "checkin":
            return [(c["args"], lambda out, want=c["stdout"]: out == want)
                    for c in self.goldens["cli"]]
        WORK.mkdir(parents=True, exist_ok=True)
        model_path = WORK / "full-history.json"
        model_path.write_text(json.dumps(wl.FULL_HISTORY_MODEL), "utf-8")
        golden = {e["request"]["id"]: e["solutions"] for e in self.picked}
        commands = []
        for req in wl.cli_requests(self.picked, self.seed):
            path = WORK / f"{req['doc']}.json"
            path.write_text(self.texts[req["doc"]], "utf-8")

            def check(out, want=golden[req["id"]]):
                try:
                    return wl.cli_json_solutions(out) == want
                except (ValueError, KeyError, TypeError):
                    return False
            commands.append((wl.cli_args(req, path, model_path), check))
        return commands

    def subprocess_ms(self, argv: list[str]) -> tuple[float, object]:
        start = perf_counter()
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=self.env,
                              capture_output=True, text=True, timeout=120)
        return (perf_counter() - start) * 1e3, proc

    def interp_s(self) -> float:
        """Wall time of a bare interpreter start: the CLI samples' probe."""
        ms, proc = self.subprocess_ms(["-c", "pass"])
        if proc.returncode != 0:
            raise RuntimeError(f"python -c pass failed: {proc.stderr[-500:]}")
        return ms / 1e3

    def cli(self, command) -> float:
        args, check = command
        self.attempted += 1
        ms, proc = self.subprocess_ms(["-m", "cogseq.cli", *args])
        if proc.returncode != 0 or not check(proc.stdout):
            self.fail("cli " + " ".join(args),
                      f"exit {proc.returncode}: {proc.stderr[-500:]}")
        return ms

    # -- runs ------------------------------------------------------------

    def untraced(self, seconds: float, setups: list[float]) -> dict:
        """Whole passes over the requests, with CLI processes interleaved so
        that they take CLI_SHARE of the run.  Every request and CLI process
        sits between two probe runs (see ``probe.py``); the metrics are in
        probe units, the wall times go to the stamp."""
        commands = self.cli_commands()
        for command in commands:
            self.cli(command)  # warm-up, writes bytecode caches
        self.rng.shuffle(commands)
        latencies: list[float] = []
        request_rel: list[float] = []
        cli_ms: list[float] = []
        cli_rel: list[float] = []
        completed = 0
        chain = ProbeChain()
        cli_chain = ProbeChain(self.interp_s)
        start = perf_counter()

        def run_cli():
            """One CLI sample and the probe after it; returns their time."""
            began = perf_counter()
            cli_ms.append(self.cli(commands[len(cli_ms) % len(commands)]))
            cli_rel.append(cli_chain.relative(cli_ms[-1] / 1e3))
            return perf_counter() - began

        def setup_due():
            slot = seconds / (SETUP_REPEATS - 1)
            return (len(setups) < SETUP_REPEATS and perf_counter() - start
                    >= (len(setups) - 0.5) * slot)

        cli_s = 0.0
        for order in self.passes():
            for entry in order:
                latency, ok = self.request(entry)
                request_rel.append(chain.relative(latency))
                latencies.append(latency)
                completed += ok
                if cli_s < CLI_SHARE * (perf_counter() - start):
                    while cli_s < CLI_SHARE * (perf_counter() - start):
                        cli_s += run_cli()
                    chain.restart()
                if setup_due():
                    setups.append(self.setup(keep=False))
                    chain.restart()
            now = perf_counter() - start
            if (now >= seconds and len(latencies) >= MIN_REQUESTS
                    or now >= OVERRUN * seconds):
                break
        while len(cli_ms) < MIN_CLI and perf_counter() - start < (
                OVERRUN * seconds):
            run_cli()
        while len(setups) < SETUP_REPEATS:
            setups.append(self.setup(keep=False))
        self.samples = {"requests": len(latencies), "cli": len(cli_ms),
                        "probes": len(chain.probes),
                        "interp_probes": len(cli_chain.probes)}
        # Wall-clock figures, for reading only: on a shared host they are
        # not comparable between runs.
        self.wall = {
            "request_ms.p50": statistics.median(latencies) * 1e3,
            "throughput_rps": completed / sum(latencies),
            "cli_ms.p50": statistics.median(cli_ms),
            "probe_ms.p50": statistics.median(chain.probes) * 1e3,
            "interp_ms.p50": statistics.median(cli_chain.probes) * 1e3,
        }
        return {
            "request_rel.p50": metric(statistics.median(request_rel),
                                      "probe"),
            "request_rel.p90": metric(
                statistics.quantiles(request_rel, n=10)[8], "probe"),
            "request_rel.mean": metric(statistics.fmean(request_rel),
                                       "probe"),
            "cli_rel.p50": metric(statistics.median(cli_rel), "interp"),
            "cli_rel.p75": metric(statistics.quantiles(cli_rel, n=4)[2],
                                  "interp"),
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "MB"),
        }

    def traced(self, seconds: float) -> dict:
        """Each request runs untraced and then traced, back to back, so the
        overhead compares neighbours in time; at least two passes, so that
        every request's counts can be compared with its repeat."""
        for _ in range(SETUP_REPEATS - 1):
            self.setup(keep=False)  # parse samples for io.parse_ms
        tracer = layers.Tracer()
        walls: dict = {}
        plain_s: dict = {}
        counts: dict = {}
        start = perf_counter()
        for number, order in enumerate(self.passes()):
            if number >= 2 and perf_counter() - start >= seconds * (
                    1 - CLI_SHARE):
                break
            for entry in order:
                rid = entry["request"]["id"]
                plain_s[(number, rid)] = self.request(entry)[0]
                tracer.install()
                tracer.begin((number, rid))
                wall, _ = self.request(entry)
                nodes, prunes, calls = tracer.end()
                tracer.remove()
                walls[(number, rid)] = (wall, calls)
                counts.setdefault(rid, set()).add((nodes, prunes, calls))
        for rid, seen in counts.items():
            if len(seen) != 1:
                self.fail(rid, f"counts differ between passes: {seen}")

        metrics = layers.layer_metrics(tracer, walls)
        metrics["trace.overhead_pct"] = metric(100.0 * (
            sum(wall for wall, _ in walls.values()) / sum(plain_s.values())
            - 1), "%")
        metrics["io.parse_ms"] = metric(
            statistics.median(self.parse_s) * 1e3, "ms")
        metrics.update(self.cli_layers())
        self.absent = tracer.absent
        self.samples = {"traced_requests": len(walls),
                        "untraced_requests": len(plain_s)}
        return metrics

    def cli_layers(self) -> dict:
        """Interpreter start, import cost and in-process command time."""
        from click.testing import CliRunner
        cli = importlib.import_module("cogseq.cli")
        medians = {}
        for name, code in PYTHON_PROBES.items():
            ms = []
            for _ in range(PROBES):
                self.attempted += 1
                wall, proc = self.subprocess_ms(["-c", code])
                if proc.returncode != 0:
                    self.fail(f"python -c {code!r}", proc.stderr[-500:])
                ms.append(wall)
            medians[name] = statistics.median(ms)
        runner = CliRunner()
        commands = self.cli_commands()
        invoke = []
        for i in range(PROBES):
            args, check = commands[i % len(commands)]
            self.attempted += 1
            start = perf_counter()
            result = runner.invoke(cli.cli, args,
                                   env={"COGSEQ_COST_MODEL": None})
            invoke.append((perf_counter() - start) * 1e3)
            if result.exit_code != 0 or not check(result.output):
                self.fail("in-process cli " + " ".join(args),
                          f"exit {result.exit_code}")
        return {
            "cli.interp_ms": metric(medians["interp"], "ms"),
            "cli.import_ms": metric(medians["import"] - medians["interp"],
                                    "ms"),
            "cli.invoke_ms": metric(statistics.median(invoke), "ms"),
        }


def source_digest() -> str:
    digest = hashlib.sha256()
    package = SRC / "cogseq"
    for path in sorted(package.rglob("*")):
        if path.suffix in (".py", ".pyx", ".json") and path.is_file():
            digest.update(str(path.relative_to(package)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()
    if not (SRC / "cogseq" / "__init__.py").is_file():
        print(f"error: no cogseq package under {SRC}; run from the "
              f"repository root", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # String hashing decides dict and set layouts; a random seed per
        # process moved request latency by up to ~8% between runs.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    sys.path.insert(0, str(SRC))

    bench = Bench(opts.workload, opts.seed)
    setups = [bench.setup()]
    bench.check_inputs()
    if opts.trace:
        metrics = bench.traced(opts.seconds)
    else:
        metrics = bench.untraced(opts.seconds, setups)
    stamp = {
        "workload": opts.workload, "seed": opts.seed, "trace": opts.trace,
        "kernel": bench.api.KERNEL_NAME,
        "COGSEQ_PURE": os.environ.get("COGSEQ_PURE", ""),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": commit(), "source_sha256": source_digest(),
        "samples": bench.samples, "wall": bench.wall, "absent": bench.absent,
        "error_rate": bench.failed / max(bench.attempted, 1),
    }
    print("stamp " + json.dumps(stamp))
    print(json.dumps({"correct": bench.failed == 0,
                      "attempted": bench.attempted, "failed": bench.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
