"""Spans around the program's layer calls, installed by patching at runtime.

Nothing inside the program is instrumented: :func:`install` replaces each
traced name, where its caller looks it up, with a wrapper that records a
span (layer, start, end, parent) and hands back the original's return
value or exception untouched. :meth:`Patches.restore` puts every original
back. Spans stay in memory until the run writes them out.

Self time is a span's duration minus the time of its child spans. A child
is the span open on the same thread when it started; the one cross-thread
edge that matters — the front door's batch coroutine handing its batch to
``CompileService.submit_batch`` in an executor thread — is linked
explicitly. Solves on the service's worker pool have no parent, so
``executor`` self time includes waiting for its workers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from accbench.client import Tally, percentile


@dataclass
class Span:
    layer: str
    start: float
    parent: Optional["Span"] = None
    end: float = 0.0
    child_s: float = 0.0
    attrs: Dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def outermost(self) -> bool:
        """No ancestor belongs to the same layer (nested calls of one layer
        are counted once)."""
        node = self.parent
        while node is not None:
            if node.layer == self.layer:
                return False
            node = node.parent
        return True


class Tracer:
    """In-memory span recorder shared by every wrapper of one run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._handoff: Dict[object, Span] = {}

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        with self._lock:
            self.spans.append(span)
            if span.parent is not None:
                span.parent.child_s += span.duration

    def wrap(
        self,
        layer: str,
        fn: Callable,
        attrs: Optional[Dict] = None,
        after: Optional[Callable] = None,
        publish: Optional[Callable] = None,
        adopt: Optional[Callable] = None,
    ) -> Callable:
        """A wrapper of ``fn`` that records one span per call.

        ``after(span, args, kwargs, result)`` stores extra counts on the
        span; ``publish(args)`` names a coroutine span that a call in
        another thread may ``adopt(args)`` as its parent.
        """
        base = dict(attrs or {})
        tracer = self

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                # Coroutines interleave on the loop thread: never on the stack.
                span = Span(layer, time.perf_counter(), attrs=dict(base))
                key = publish(args) if publish else None
                if key is not None:
                    tracer._handoff[key] = span
                try:
                    result = await fn(*args, **kwargs)
                    if after:
                        after(span, args, kwargs, result)
                    return result
                finally:
                    if key is not None:
                        tracer._handoff.pop(key, None)
                    tracer._finish(span)

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            if parent is None and adopt is not None:
                parent = tracer._handoff.get(adopt(args))
            span = Span(layer, time.perf_counter(), parent, attrs=dict(base))
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
                if after:
                    after(span, args, kwargs, result)
                return result
            finally:
                stack.pop()
                tracer._finish(span)

        return traced


class Patches:
    """Replaced attributes and how to put each original back."""

    _ABSENT = object()

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def replace(self, owner, name: str, value) -> None:
        previous = vars(owner).get(name, self._ABSENT)
        setattr(owner, name, value)
        self._undo.append((owner, name, previous))

    def restore(self) -> None:
        while self._undo:
            owner, name, previous = self._undo.pop()
            if previous is self._ABSENT:
                delattr(owner, name)  # the original was inherited
            else:
                setattr(owner, name, previous)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def _resolve(path: str):
    """``"pkg.module:Class"`` or ``"pkg.module"`` -> the object."""
    module, _, qualname = path.partition(":")
    owner = importlib.import_module(module)
    for part in filter(None, qualname.split(".")):
        owner = getattr(owner, part)
    return owner


# ------------------------------------------------------------------ probes
def _batch_after(span, args, kwargs, result):
    span.attrs["n"] = len(args[1])
    span.attrs["ids"] = [pending.request.id for pending in args[1]]


def _dedup_after(span, args, kwargs, result):
    span.attrs["groups_in"] = sum(len(g) for g in args[0])
    span.attrs["unique"] = result.merged.n_unique


def _run_indices_after(span, args, kwargs, result):
    plan, wanted = args[1], set(args[3])
    span.attrs["parts"] = sum(1 for p in plan.worker_plans if wanted & set(p.indices))


def _run_grape_after(span, args, kwargs, result):
    span.attrs["iters"] = result.iterations
    span.attrs["converged"] = bool(result.converged)


class Probe(NamedTuple):
    """Names to wrap on ``owner`` (``"module:Class"`` or ``"module"``),
    patched where the caller looks them up — e.g. the planner's own
    reference to ``dedupe_batch``, not ``repro.grouping.dedup``'s. ``kind``
    tells apart calls of one layer (default: the name); ``after``,
    ``publish`` and ``adopt`` are :meth:`Tracer.wrap`'s hooks."""

    layer: str
    owner: str
    names: Tuple[str, ...]
    kind: Optional[str] = None
    after: Optional[Callable] = None
    publish: Optional[Callable] = None
    adopt: Optional[Callable] = None


PROBES = (
    Probe("asyncserve", "repro.service.asyncserve:AsyncCompileServer", ("_run_batch",),
          after=_batch_after, publish=lambda args: id(args[1][0].circuit) if args[1] else None),
    Probe("service", "repro.service.service:CompileService", ("submit_batch",),
          adopt=lambda args: id(args[1][0]) if args[1] else None),
    Probe("mapping", "repro.mapping.astar:AStarMapper", ("map_circuit",)),
    Probe("grouping", "repro.core.pipeline", ("group_circuit", "prepare_circuit")),
    Probe("front_end", "repro.core.pipeline:AccQOC", ("groups_of",)),
    Probe("dedup", "repro.service.planner", ("dedupe_batch",), after=_dedup_after),
    Probe("simgraph", "repro.service.planner", ("build_similarity_graph",),
          after=lambda s, a, k, r: s.attrs.update(groups=len(a[0]))),
    Probe("simgraph", "repro.service.planner", ("prim_compile_sequence",)),
    Probe("partition", "repro.service.planner", ("partition_tree",),
          after=lambda s, a, k, r: s.attrs.update(parts=r.n_parts)),
    Probe("seeds", "repro.service.executor", ("best_library_seeds",),
          after=lambda s, a, k, r: s.attrs.update(library=len(a[1]))),
    Probe("executor", "repro.service.executor:WorkerPoolExecutor", ("run_indices",),
          after=_run_indices_after),
    Probe("grape", "repro.core.engines", ("binary_search_latency",), kind="search"),
    Probe("grape", "repro.qoc.binary_search", ("run_grape",), kind="solve", after=_run_grape_after),
    Probe("grape", "repro.qoc.grape", ("infidelity_and_gradient",), kind="eval"),
    Probe("latency", "repro.service.service", ("program_latencies",)),
    Probe("remote", "repro.service.remote:RemoteStore",
          ("fetch_keys", "fetch_keys_digest", "fetch_snapshot", "fetch_key", "fetch_many",
           "send_put", "send_many", "send_flush")),
    Probe("fabric", "repro.service.remote:RemoteExecutor", ("map_parts",),
          after=lambda s, a, k, r: s.attrs.update(parts=len(a[2]))),
)

STORE_METHODS = ("snapshot", "get_many", "put", "put_many", "flush")


def _store_after(span, args, kwargs, result):
    if span.attrs["kind"] == "get_many":
        span.attrs["keys"] = len(args[1])


def install(tracer: Tracer, store_class: type) -> Patches:
    """Patch every probe plus ``store_class``'s StoreBackend methods."""
    patches = Patches()
    try:
        for probe in PROBES:
            owner = _resolve(probe.owner)
            for name in probe.names:
                wrapped = tracer.wrap(
                    probe.layer, getattr(owner, name), {"kind": probe.kind or name},
                    probe.after, probe.publish, probe.adopt,
                )
                patches.replace(owner, name, wrapped)
        for name in STORE_METHODS:
            wrapped = tracer.wrap("store", getattr(store_class, name), {"kind": name}, _store_after)
            patches.replace(store_class, name, wrapped)
    except BaseException:
        patches.restore()
        raise
    return patches


# ----------------------------------------------------------------- metrics
LAYERS = (
    "asyncserve", "service", "mapping", "grouping", "front_end", "dedup",
    "simgraph", "partition", "seeds", "executor", "grape", "latency",
    "store", "remote", "fabric",
)

#: Extra metrics per layer: name -> (unit, better).
EXTRA = {
    "asyncserve": {"batches": ("count", "lower"), "requests_per_batch": ("count", "higher"),
                   "wait_ms_p50": ("ms", "lower"), "wait_ms_p95": ("ms", "lower")},
    "service": {"batch_ms_p50": ("ms", "lower"), "batch_ms_p95": ("ms", "lower")},
    "dedup": {"groups_in": ("count", "lower"), "unique_ratio": ("ratio", "lower")},
    "simgraph": {"groups": ("count", "lower")},
    "partition": {"parts": ("count", "lower")},
    "seeds": {"library_size_mean": ("count", "lower")},
    "executor": {"parts": ("count", "lower")},
    "grape": {"searches": ("count", "lower"), "solves": ("count", "lower"),
              "evals": ("count", "lower"), "eval_ms_mean": ("ms", "lower"),
              "solve_s": ("s", "lower"), "optimizer_overhead_s": ("s", "lower"),
              "iters": ("count", "lower"), "converged_ratio": ("ratio", "higher"),
              "probes_per_search": ("count", "lower")},
    "store": {"snapshot_s": ("s", "lower"), "get_many_s": ("s", "lower"),
              "keys_read": ("count", "lower"), "hit_ratio": ("ratio", "higher"),
              "put_calls": ("count", "lower"), "put_s": ("s", "lower"),
              "flush_s": ("s", "lower"), "entries_end": ("count", "lower")},
    "remote": {"rpcs": ("count", "lower"), "rpc_s": ("s", "lower"),
               "snapshot_ms_p50": ("ms", "lower")},
    "fabric": {"parts": ("count", "lower"), "reassigned": ("count", "lower"),
               "local_fallback": ("count", "lower")},
}

#: Run-level figures reported with the layers: the end-to-end metrics that
#: are zero on some workload (so they cannot carry a regression bound),
#: plus the trace's own overhead and coverage.
RUN_LEVEL = {
    "pulses_per_s": ("1/s", "higher"),
    "grape_iters": ("count", "lower"),
    "failed_frac": ("ratio", "lower"),
    "trace.overhead_wall_pct": ("%", "lower"),
    "trace.overhead_cpu_pct": ("%", "lower"),
    "trace.span_coverage": ("ratio", "higher"),
}


def per_layer_catalog() -> Dict[str, tuple]:
    """Every per-layer metric name -> (unit, better), in report order."""
    out: Dict[str, tuple] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = ("count", "lower")
        out[f"{layer}.s"] = ("s", "lower")
        out[f"{layer}.self_s"] = ("s", "lower")
        for name, spec in EXTRA.get(layer, {}).items():
            out[f"{layer}.{name}"] = spec
    out.update(RUN_LEVEL)
    return out


def _p(values: Sequence[float], q: float) -> float:
    return percentile(values, q) if values else 0.0


def layer_metrics(spans: Sequence[Span], tallies: Sequence[Tally], rig_stats: Dict) -> Dict[str, float]:
    """Per-layer figures from the spans, the client's replies and the
    counters read off the rigs (``hits``, ``misses``, ``entries_end``,
    ``reassigned``, ``local_fallback``)."""
    by_layer: Dict[str, List[Span]] = {layer: [] for layer in LAYERS}
    for span in spans:
        by_layer[span.layer].append(span)
    out: Dict[str, float] = {}
    for layer, items in by_layer.items():
        outer = [s for s in items if s.outermost()]
        out[f"{layer}.calls"] = len(outer)
        out[f"{layer}.s"] = sum(s.duration for s in outer)
        out[f"{layer}.self_s"] = sum(s.duration - s.child_s for s in items)

    def kind(layer: str, name: str) -> List[Span]:
        return [s for s in by_layer[layer] if s.attrs.get("kind") == name]

    batches = by_layer["asyncserve"]
    waits = [
        r.latency_s * 1e3 - float(r.payload.get("wall_ms", 0.0))
        for t in tallies for r in t.answered()
    ]
    out["asyncserve.batches"] = len(batches)
    out["asyncserve.requests_per_batch"] = (
        sum(s.attrs.get("n", 0) for s in batches) / len(batches) if batches else 0.0
    )
    out["asyncserve.wait_ms_p50"] = _p(waits, 50)
    out["asyncserve.wait_ms_p95"] = _p(waits, 95)
    batch_ms = [s.duration * 1e3 for s in by_layer["service"]]
    out["service.batch_ms_p50"] = _p(batch_ms, 50)
    out["service.batch_ms_p95"] = _p(batch_ms, 95)

    groups_in = sum(s.attrs.get("groups_in", 0) for s in by_layer["dedup"])
    unique = sum(s.attrs.get("unique", 0) for s in by_layer["dedup"])
    out["dedup.groups_in"] = groups_in
    out["dedup.unique_ratio"] = unique / groups_in if groups_in else 0.0
    out["simgraph.groups"] = sum(s.attrs.get("groups", 0) for s in by_layer["simgraph"])
    out["partition.parts"] = sum(s.attrs.get("parts", 0) for s in by_layer["partition"])
    seeds = by_layer["seeds"]
    out["seeds.library_size_mean"] = (
        sum(s.attrs["library"] for s in seeds) / len(seeds) if seeds else 0.0
    )
    out["executor.parts"] = sum(s.attrs.get("parts", 0) for s in by_layer["executor"])

    searches, solves, evals = kind("grape", "search"), kind("grape", "solve"), kind("grape", "eval")
    eval_s = sum(s.duration for s in evals)
    solve_s = sum(s.duration for s in solves)
    out["grape.searches"] = len(searches)
    out["grape.solves"] = len(solves)
    out["grape.evals"] = len(evals)
    out["grape.eval_ms_mean"] = eval_s * 1e3 / len(evals) if evals else 0.0
    out["grape.solve_s"] = solve_s
    out["grape.optimizer_overhead_s"] = solve_s - eval_s
    out["grape.iters"] = sum(s.attrs.get("iters", 0) for s in solves)
    out["grape.converged_ratio"] = (
        sum(1 for s in solves if s.attrs.get("converged")) / len(solves) if solves else 0.0
    )
    out["grape.probes_per_search"] = len(solves) / len(searches) if searches else 0.0

    out["store.snapshot_s"] = sum(s.duration for s in kind("store", "snapshot"))
    out["store.get_many_s"] = sum(s.duration for s in kind("store", "get_many"))
    out["store.keys_read"] = sum(s.attrs.get("keys", 0) for s in kind("store", "get_many"))
    looked_up = rig_stats.get("hits", 0) + rig_stats.get("misses", 0)
    out["store.hit_ratio"] = rig_stats.get("hits", 0) / looked_up if looked_up else 0.0
    out["store.put_calls"] = len(kind("store", "put"))
    out["store.put_s"] = sum(s.duration for s in kind("store", "put"))
    out["store.flush_s"] = sum(s.duration for s in kind("store", "flush"))
    out["store.entries_end"] = rig_stats.get("entries_end", 0)

    out["remote.rpcs"] = out["remote.calls"]
    out["remote.rpc_s"] = out["remote.s"]
    out["remote.snapshot_ms_p50"] = _p([s.duration * 1e3 for s in kind("remote", "fetch_snapshot")], 50)
    out["fabric.parts"] = sum(s.attrs.get("parts", 0) for s in by_layer["fabric"])
    out["fabric.reassigned"] = rig_stats.get("reassigned", 0)
    out["fabric.local_fallback"] = rig_stats.get("local_fallback", 0)
    return out


def span_coverage(spans: Sequence[Span], tallies: Sequence[Tally]) -> float:
    """Share of client-observed request time covered by the front door's
    batch span that answered each request."""
    by_request: Dict[str, float] = {}
    for span in spans:
        for request_id in span.attrs.get("ids", ()):
            by_request[request_id] = span.duration
    covered = observed = 0.0
    for tally in tallies:
        for reply in tally.answered():
            observed += reply.latency_s
            covered += min(by_request.get(str(reply.payload.get("id")), 0.0), reply.latency_s)
    return covered / observed if observed else 0.0


def span_records(spans: Sequence[Span]) -> List[Dict]:
    """Spans as JSON-ready rows (ids are positions in the list)."""
    index = {id(s): i for i, s in enumerate(spans)}
    rows = []
    for i, s in enumerate(spans):
        rows.append({
            "id": i,
            "layer": s.layer,
            "kind": s.attrs.get("kind"),
            "start": s.start,
            "end": s.end,
            "parent": index.get(id(s.parent)) if s.parent is not None else None,
            "self_s": s.duration - s.child_s,
        })
    return rows
