"""Per-layer tracing from outside the program.

The traced run replaces module attributes that cogseq looks up at call time
with wrappers that record one span per call: name, start, end, parent span
and request.  Spans stay in memory; per-layer metrics are computed from them
when the run ends.  An attribute that no longer exists is reported as absent
and its metrics are left out; the untraced run never installs a wrapper.
"""

from __future__ import annotations

import importlib
import statistics
from time import perf_counter

#: (module, attribute, span name).  ``cogseq.solve`` and friends are what the
#: benchmark's requests call; the ``cogseq.solver`` names are what solve()
#: and compare_variants() call internally.  solve() sends n <= 64 to
#: ``_backend.search`` and larger workflows to ``_backend.pure_search``.
SPANS = (
    ("cogseq", "solve", "solver.solve"),
    ("cogseq.solver", "solve", "solver.solve"),
    ("cogseq", "compare_variants", "solver.compare"),
    ("cogseq", "instantiate_variant", "model.instantiate"),
    ("cogseq.solver", "instantiate_variant", "model.instantiate"),
    ("cogseq.solver", "validate_workflow", "model.validate"),
    ("cogseq.solver", "_kernel_inputs", "solver.kernel_inputs"),
    ("cogseq.solver", "sequence_cost", "costs.sequence_cost"),
    ("cogseq._backend", "search", "search"),
    ("cogseq._backend", "pure_search", "search"),
)
#: Counted without a span: one call per ordered task pair.
COUNTED = ("cogseq.solver", "pair_cost")
SELF_TIMED = ("solver.solve", "solver.compare")


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "children",
                 "nodes", "prunes")

    def __init__(self, name, start, parent, request):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.children = 0.0
        self.nodes = None
        self.prunes = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.request = None
        self.counted_calls = 0
        self._first = 0
        self.absent: list[str] = []
        self.search_counts = True
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, name in SPANS:
            original = self._lookup(module_name, attr)
            if original is not None:
                self._patch(module_name, attr, self._spanned(original, name))
        original = self._lookup(*COUNTED)
        if original is not None:
            self._patch(*COUNTED, self._counted(original))

    def remove(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def begin(self, key) -> None:
        """Attribute the following spans and counted calls to request key."""
        self.request = key
        self.counted_calls = 0
        self._first = len(self.spans)

    def end(self) -> tuple[int, int, int]:
        """Search nodes, prunes and counted calls of the request just run."""
        spans = self.spans[self._first:]
        nodes = sum(s.nodes or 0 for s in spans)
        prunes = sum(s.prunes or 0 for s in spans)
        self.request = None
        return nodes, prunes, self.counted_calls

    def _lookup(self, module_name: str, attr: str):
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        original = getattr(module, attr, None)
        name = f"{module_name}.{attr}"
        if original is None and name not in self.absent:
            self.absent.append(name)
        return original

    def _patch(self, module_name: str, attr: str, wrapper) -> None:
        module = importlib.import_module(module_name)
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _spanned(self, original, name: str):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            span = Span(name, perf_counter(),
                        stack[-1] if stack else None, tracer.request)
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.children += span.end - span.start
                tracer.spans.append(span)
            if name == "search":
                tracer._search_counts(span, result)
            return result
        return wrapper

    def _counted(self, original):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.counted_calls += 1
            return original(*args, **kwargs)
        return wrapper

    def _search_counts(self, span: Span, result) -> None:
        try:
            _, nodes, prunes = result
            span.nodes, span.prunes = int(nodes), int(prunes)
        except (TypeError, ValueError):
            self.search_counts = False


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_metrics(tracer: Tracer, requests: dict) -> dict:
    """Per-request medians of each layer from the recorded spans.

    ``requests`` maps a traced request execution to its wall time in seconds
    and its pair_cost call count.
    """
    per: dict = {key: {} for key in requests}
    for span in tracer.spans:
        row = per[span.request]
        duration = span.end - span.start
        row[span.name] = row.get(span.name, 0.0) + duration
        if span.name in SELF_TIMED:
            row["self"] = row.get("self", 0.0) + duration - span.children
        if span.nodes is not None:
            row["nodes"] = row.get("nodes", 0) + span.nodes
            row["prunes"] = row.get("prunes", 0) + span.prunes

    def column(key, scale=1e3):
        return [row.get(key, 0.0) * scale for row in per.values()]

    names = {span.name for span in tracer.spans}
    metrics: dict = {}

    def put(name, unit, values):
        if values:
            metrics[name] = metric(statistics.median(values), unit)

    for name, timed in (("model.validate", "model.validate_ms"),
                        ("model.instantiate", "model.instantiate_ms"),
                        ("costs.sequence_cost", "costs.sequence_cost_ms"),
                        ("solver.kernel_inputs", "solver.kernel_inputs_ms"),
                        ("search", "search.ms")):
        if name in names:
            put(timed, "ms", column(name))
    if names & set(SELF_TIMED):
        put("solver.self_ms", "ms", column("self"))
    # Shares are time-weighted over all traced requests: the most that
    # making the layer free could save of the workload's request time.
    total = sum(wall for wall, _ in requests.values())
    for name, share in (("solver.kernel_inputs",
                         "solver.kernel_inputs_share_pct"),
                        ("search", "search.share_pct")):
        if name in names:
            metrics[share] = metric(100.0 * sum(column(name, 1.0)) / total,
                                    "%")
    if COUNTED[0] + "." + COUNTED[1] not in tracer.absent:
        put("costs.pair_cost_calls", "count",
            [calls for _, calls in requests.values()])
    searched = [row for row in per.values() if row.get("nodes")]
    if "search" in names and tracer.search_counts and searched:
        put("search.nodes", "count", [row["nodes"] for row in searched])
        put("search.prunes", "count", [row["prunes"] for row in searched])
        put("search.prune_ratio", "ratio",
            [row["prunes"] / row["nodes"] for row in searched])
        put("search.ns_per_node", "ns",
            [row["search"] * 1e9 / row["nodes"] for row in searched])
    return metrics

