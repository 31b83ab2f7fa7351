"""Worker-pool execution of a batch plan, plus in-flight coalescing.

Three local backends behind one interface (mirroring the ``GrapeEngine`` /
``ModelEngine`` split): ``serial`` runs parts in the calling thread,
``thread`` uses a ``ThreadPoolExecutor``, ``process`` uses a
``ProcessPoolExecutor`` (module-level worker function; the engine, tasks
and records travel by pickle). ``ProcessBackend`` is the only pickling
path in ``repro.service``, and its bytes go only to and from the pool's
own child processes.

Threads do not overlap GRAPE solves. For these 2- and 4-dimensional
problems a cost/gradient evaluation is bound by numpy call overhead, not by
BLAS, so it holds the GIL. On a 2-vCPU box with OpenBLAS at 1 thread,
twelve solves of random 2-qubit targets (24 slices, a 300-iteration
budget, 3,196 iterations in all) took, over six rounds, 1.5–2.4 s
serially (median 2.3), 2.1–3.3 s on 2 threads (median 2.8) and 1.3–1.4 s
on 2 processes. ROADMAP item 1 chooses the default backend by
measurement.

The same ``map_parts`` seam also crosses hosts:
:class:`repro.service.remote.RemoteExecutor` dispatches the parts to
connected ``repro worker`` processes — any object with ``map_parts``
passes straight through :func:`make_backend`, so the service never knows
where its solves ran. Parts and outcomes cross the fabric as JSON
(:func:`encode_part`, :func:`run_part_payload`, :func:`decode_outcome`).
Because every :class:`GroupTask` carries its warm seed resolved from the
batch snapshot (see below), where a part runs can never change what it
produces.

A worker runs its part through :func:`repro.core.dynamic.compile_in_order`,
the compile walk static pre-compilation and dynamic compilation use too.

Warm-start modes
----------------
``warm="store"`` (service default): every group is seeded from the *store
snapshot* the batch takes just before its solves — the most similar
persisted pulse below the similarity threshold, else a deterministic cold
start keyed by the group's canonical key. Pulse content is then a pure
function of (group, snapshot, run config): independent of the partition,
the worker count, and the rest of the batch. That invariant is what keeps
a content-addressed store coherent — the same key stores the same pulse no
matter which batch compiled it first — and it is what the throughput
bench's bit-identity assertion checks.

``warm="chain"`` (paper Sec V-D semantics): within a part, each group warm
starts from its MST parent's freshly compiled pulse; a cut edge is a "soft
dependency" — the part root falls back to the store seed / cold start.
Maximal iteration savings, but pulse content then depends on where the
partition cut the tree, so results vary across worker counts. Use it for
experiments, not for populating a shared store.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cache import PulseLibrary, group_from_dict, group_to_dict
from repro.core.dynamic import Seed, best_library_seeds, compile_in_order
from repro.core.engines import CompileRecord, engine_from_spec
from repro.grouping.group import GateGroup
from repro.perf.instrument import PerfRecorder, recorder_or_null
from repro.qoc.pulse import Pulse
from repro.service.planner import BatchPlan

WARM_MODES = ("store", "chain")


@dataclass
class GroupTask:
    """One group's compile order within a part (crosses the worker fabric
    as JSON, see :func:`encode_part`)."""

    group: GateGroup
    seed_tag: str  # deterministic: derived from the canonical key
    parent_local: Optional[int] = None  # chain mode: index within the part
    seed_pulse: Optional[Pulse] = None  # store-snapshot warm seed
    seed_source: Optional[GateGroup] = None


@dataclass
class PartOutcome:
    """What one worker hands back for its part."""

    worker: int
    records: List[CompileRecord]
    wall_s: float
    perf_stages: Dict[str, float]
    perf_counters: Dict[str, int]
    queue_wait_s: float = 0.0  # submission -> first instruction on a worker


def seed_tag_for(group: GateGroup) -> str:
    """Deterministic per-group RNG tag: canonical key, nothing positional."""
    from repro.service.store import key_digest

    return f"svc:{key_digest(group.key())[:24]}"


def run_part(
    engine,
    worker: int,
    tasks: Sequence[GroupTask],
    submitted_at: Optional[float] = None,
) -> PartOutcome:
    """Compile one part (module-level so process pools can run it).

    The tasks go through :func:`repro.core.dynamic.compile_in_order` in
    part order: a task with ``parent_local`` set (chain mode) warm-starts
    from its parent's fresh record, every other task from its store seed,
    each with its canonical-key RNG tag. The ``probes_skipped`` counter
    sums the search probes recorded as failed below the speed limit
    without a solve.

    ``submitted_at`` is a ``time.perf_counter`` reading taken when the part
    was handed to the pool; the gap to the part's first instruction is the
    pool queue wait (how long the part sat behind other parts), reported
    per worker as ``execute.worker<k>.queue_wait``. On Linux
    ``perf_counter`` is CLOCK_MONOTONIC, comparable across the processes
    of a process pool; elsewhere treat cross-process waits as approximate.
    """
    start = time.perf_counter()
    queue_wait = max(0.0, start - submitted_at) if submitted_at is not None else 0.0
    perf = PerfRecorder()
    records = compile_in_order(
        engine,
        [task.group for task in tasks],
        [task.parent_local for task in tasks],
        [(task.seed_pulse, task.seed_source) for task in tasks],
        [task.seed_tag for task in tasks],
        perf,
        "solve",
    )
    stages = {name: stat.total_s for name, stat in perf.stages.items()}
    counters = dict(perf.counters)
    counters["groups"] = len(tasks)
    counters["iterations"] = sum(record.iterations for record in records)
    counters["probes_skipped"] = sum(record.probes_skipped for record in records)
    return PartOutcome(
        worker=worker,
        records=records,
        wall_s=time.perf_counter() - start,
        perf_stages=stages,
        perf_counters=counters,
        queue_wait_s=queue_wait,
    )


# --------------------------------------------------------------- wire schema
# The worker fabric (repro.service.remote) ships parts and outcomes as JSON
# built from the store's codecs: groups by group_to_dict plus their wire
# order, pulses by Pulse.to_dict, engines by engine_spec. json writes each
# float as its shortest repr, which reads back exactly, so pulses and
# latencies cross bit for bit.
_NUMBER = (int, float)


def _group_to_wire(group: GateGroup) -> Dict:
    return {**group_to_dict(group), "qubits": list(group.qubits)}


def _optional(value, codec):
    return None if value is None else codec(value)


def encode_part(spec: Dict, worker: int, tasks: Sequence[GroupTask]) -> Dict:
    """The payload of a fabric ``part`` frame: the engine's ``spec``
    (:func:`~repro.core.engines.engine_spec`), the worker label and the
    tasks, warm seeds included."""
    return {
        "engine": spec,
        "worker": worker,
        "tasks": [
            {
                "group": _group_to_wire(task.group),
                "seed_tag": task.seed_tag,
                "parent_local": task.parent_local,
                "seed_pulse": _optional(task.seed_pulse, Pulse.to_dict),
                "seed_source": _optional(task.seed_source, _group_to_wire),
            }
            for task in tasks
        ],
    }


def run_part_payload(payload: Dict) -> Dict:
    """The worker side of the fabric: a ``part`` payload in, the payload of
    its ``outcome`` frame out. The outcome carries no queue wait; the
    dispatcher measures that itself."""
    tasks = [
        GroupTask(
            group=group_from_dict(raw["group"]),
            seed_tag=raw["seed_tag"],
            parent_local=raw["parent_local"],
            seed_pulse=_optional(raw["seed_pulse"], Pulse.from_dict),
            seed_source=_optional(raw["seed_source"], group_from_dict),
        )
        for raw in payload["tasks"]
    ]
    outcome = run_part(
        engine_from_spec(payload["engine"]), payload["worker"], tasks
    )
    return {
        "worker": outcome.worker,
        "records": [
            {
                "latency": record.latency,
                "iterations": record.iterations,
                "converged": record.converged,
                "pulse": _optional(record.pulse, Pulse.to_dict),
                "probes": record.probes,
                "warm_started": record.warm_started,
                "probes_skipped": record.probes_skipped,
            }
            for record in outcome.records
        ],
        "wall_s": outcome.wall_s,
        "perf_stages": outcome.perf_stages,
        "perf_counters": outcome.perf_counters,
    }


def decode_outcome(payload, n_tasks: int) -> PartOutcome:
    """An ``outcome`` payload from a worker, which the dispatcher does not
    trust: every field is type-checked, and the part's ``n_tasks`` tasks
    must each have a record. Anything malformed (not an object, a missing
    key, a wrong type) raises ``ValueError``."""
    try:
        records = [
            _decode_record(raw) for raw in _field(payload, "records", list)
        ]
        if len(records) != n_tasks:
            raise ValueError(
                f"{len(records)} records for a part of {n_tasks} tasks"
            )
        stages = _field(payload, "perf_stages", dict)
        counters = _field(payload, "perf_counters", dict)
        return PartOutcome(
            worker=_field(payload, "worker", int),
            records=records,
            wall_s=float(_field(payload, "wall_s", _NUMBER)),
            perf_stages={
                name: float(_field(stages, name, _NUMBER)) for name in stages
            },
            perf_counters={name: _field(counters, name, int) for name in counters},
        )
    except (KeyError, OverflowError) as exc:  # a missing key; float() of a huge int
        raise ValueError(f"malformed outcome payload: {exc!r}") from None


def _field(raw, name: str, kind):
    """``raw[name]`` when ``raw`` is a JSON object and the value has type
    ``kind`` (a bool is no number), else ``ValueError``."""
    if not isinstance(raw, dict):
        raise ValueError(f"expected a JSON object, got {type(raw).__name__}")
    value = raw[name]
    if not isinstance(value, kind) or (
        isinstance(value, bool) and kind is not bool
    ):
        raise ValueError(f"{name!r} has type {type(value).__name__}")
    return value


def _decode_record(raw) -> CompileRecord:
    return CompileRecord(
        latency=float(_field(raw, "latency", _NUMBER)),
        iterations=_field(raw, "iterations", int),
        converged=_field(raw, "converged", bool),
        pulse=_optional(_field(raw, "pulse", (dict, type(None))), _decode_pulse),
        probes=_field(raw, "probes", int),
        warm_started=_field(raw, "warm_started", bool),
        probes_skipped=_field(raw, "probes_skipped", int),
    )


def _decode_pulse(raw: Dict) -> Pulse:
    amplitudes = np.asarray(_field(raw, "amplitudes", list))
    if amplitudes.ndim != 2 or amplitudes.dtype.kind not in "fi":
        raise ValueError("pulse amplitudes are not a matrix of numbers")
    labels = _field(raw, "control_labels", list)
    if not all(isinstance(label, str) for label in labels):
        raise ValueError("pulse control labels are not strings")
    _field(raw, "dt", _NUMBER)
    _field(raw, "n_qubits", int)
    _field(raw, "infidelity", _NUMBER)
    return Pulse.from_dict(raw)


# ------------------------------------------------------------------ backends
class SerialBackend:
    """Parts run one after another in the calling thread."""

    name = "serial"

    def map_parts(
        self,
        engine,
        parts: Sequence[Tuple[int, List[GroupTask]]],
        weights: Optional[Sequence[float]] = None,
    ) -> List[PartOutcome]:
        submitted = time.perf_counter()
        return [
            run_part(engine, worker, tasks, submitted)
            for worker, tasks in parts
        ]


class ThreadBackend:
    """One OS thread per part. GRAPE solves hold the GIL, so threads do
    not run them in parallel (measured in the module docstring)."""

    name = "thread"

    def __init__(self, n_workers: int):
        self.n_workers = max(1, int(n_workers))

    def map_parts(
        self,
        engine,
        parts: Sequence[Tuple[int, List[GroupTask]]],
        weights: Optional[Sequence[float]] = None,
    ) -> List[PartOutcome]:
        with ThreadPoolExecutor(max_workers=self.n_workers) as pool:
            futures = [
                pool.submit(run_part, engine, worker, tasks, time.perf_counter())
                for worker, tasks in parts
            ]
            return [f.result() for f in futures]


class ProcessBackend:
    """One OS process per part; payloads and records travel by pickle to
    and from the pool's own children."""

    name = "process"

    def __init__(self, n_workers: int):
        self.n_workers = max(1, int(n_workers))

    def map_parts(
        self,
        engine,
        parts: Sequence[Tuple[int, List[GroupTask]]],
        weights: Optional[Sequence[float]] = None,
    ) -> List[PartOutcome]:
        if len(parts) <= 1:  # don't pay process startup for a serial plan
            return SerialBackend().map_parts(engine, parts)
        with ProcessPoolExecutor(max_workers=self.n_workers) as pool:
            futures = [
                pool.submit(run_part, engine, worker, tasks, time.perf_counter())
                for worker, tasks in parts
            ]
            return [f.result() for f in futures]


def make_backend(spec, n_workers: int):
    """'serial' | 'thread' | 'process' | an object with ``map_parts``.

    A remote fabric is passed as the object itself (one long-lived
    :class:`~repro.service.remote.RemoteExecutor` serves every batch — a
    string spec here would leak a fresh listener per batch).
    """
    if hasattr(spec, "map_parts"):
        return spec
    if spec == "serial":
        return SerialBackend()
    if spec == "thread":
        return ThreadBackend(n_workers)
    if spec == "process":
        return ProcessBackend(n_workers)
    raise ValueError(
        f"unknown backend {spec!r}; have serial/thread/process, or pass "
        f"an object with map_parts (e.g. a RemoteExecutor)"
    )


# ------------------------------------------------------------ pool executor
class WorkerPoolExecutor:
    """Runs a :class:`BatchPlan`'s worker plans on a backend.

    Returns records aligned with ``plan.uncovered``; wires per-worker wall
    clock, solve time, and iteration counts into the supplied
    :class:`PerfRecorder` under ``execute.worker<k>.*`` names.
    """

    def __init__(
        self,
        engine,
        backend="thread",
        n_workers: int = 4,
        similarity: str = "fidelity1",
        warm: str = "store",
        seed_threshold: float = 0.5,
        perf: Optional[PerfRecorder] = None,
    ) -> None:
        if warm not in WARM_MODES:
            raise ValueError(f"warm must be one of {WARM_MODES}, got {warm!r}")
        self.engine = engine
        self.n_workers = max(1, int(n_workers))
        self.backend = make_backend(backend, self.n_workers)
        self.similarity = similarity
        self.warm = warm
        self.seed_threshold = seed_threshold
        self.perf = recorder_or_null(perf)

    def run(
        self, plan: BatchPlan, snapshot: PulseLibrary
    ) -> List[CompileRecord]:
        """Compile ``plan.uncovered``; result index i belongs to vertex i."""
        return self.run_indices(
            plan, snapshot, [i for p in plan.worker_plans for i in p.indices]
        )

    def run_indices(
        self,
        plan: BatchPlan,
        snapshot: PulseLibrary,
        wanted: Sequence[int],
    ) -> List[CompileRecord]:
        """Compile only the ``wanted`` vertices.

        Returns a dense list aligned with ``plan.uncovered``; vertices not in
        ``wanted`` get ``None`` slots. ``snapshot`` is the frozen warm-seed
        source.
        """
        wanted_set = set(wanted)
        parts: List[Tuple[int, List[GroupTask]]] = []
        part_weights: List[float] = []
        index_map: List[List[int]] = []
        with self.perf.stage("execute.seed"):
            # Heaviest parts first (LPT): the pool drains submissions in
            # order, and this is the schedule BatchPlan.makespan models.
            ordered = sorted(plan.worker_plans, key=lambda p: -p.weight)
            part_indices: List[Tuple[int, List[int]]] = []
            chain_parent: Dict[int, Optional[int]] = {}
            for worker_plan in ordered:
                indices = [i for i in worker_plan.indices if i in wanted_set]
                if not indices:
                    continue
                part_indices.append((worker_plan.worker, indices))
                local_of = {vertex: i for i, vertex in enumerate(indices)}
                for vertex in indices:
                    parent = plan.sequence.parent.get(vertex, -1)
                    chain_parent[vertex] = (
                        local_of[parent]
                        if self.warm == "chain" and parent in local_of
                        else None
                    )
            # Store seeds only for vertices that will consume one — in chain
            # mode that is just the part roots, not the whole batch.
            seeds = self._snapshot_seeds(
                plan,
                snapshot,
                {v for v, p in chain_parent.items() if p is None},
            )
            for worker, indices in part_indices:
                tasks = self._tasks_for_part(plan, indices, chain_parent, seeds)
                parts.append((worker, tasks))
                part_weights.append(
                    sum(plan.weights.get(v, 1.0) for v in indices)
                )
                index_map.append(indices)
        with self.perf.stage("execute.solve"):
            # Modelled part weights: the remote fabric's EWMA placement
            # schedules by them; the local pools ignore them.
            outcomes = self.backend.map_parts(
                self.engine, parts, weights=part_weights
            )
        records: List[Optional[CompileRecord]] = [None] * len(plan.uncovered)
        for indices, outcome in zip(index_map, outcomes):
            for local, vertex in enumerate(indices):
                records[vertex] = outcome.records[local]
            prefix = f"execute.worker{outcome.worker}."
            self.perf.record(prefix + "wall", outcome.wall_s)
            self.perf.record(prefix + "queue_wait", outcome.queue_wait_s)
            for name, seconds in outcome.perf_stages.items():
                self.perf.record(prefix + name, seconds)
            for name, value in outcome.perf_counters.items():
                self.perf.count(prefix + name, value)
        self.perf.count("execute.parts", len(parts))
        return records

    # ----------------------------------------------------------------- impl
    def _snapshot_seeds(
        self,
        plan: BatchPlan,
        snapshot: PulseLibrary,
        wanted: "set[int]",
    ) -> Dict[int, Seed]:
        """Store-snapshot warm seeds for every wanted vertex, batched.

        One Gram-matrix distance block per dimension class (via
        :func:`best_library_seeds`) instead of a serial per-pair scan — with
        a grown store the scan would dominate ``execute.seed`` and cap the
        parallel speedup the partition exists to deliver.
        """
        vertices = sorted(wanted)
        seeds = best_library_seeds(
            [plan.uncovered[v] for v in vertices],
            snapshot,
            self.similarity,
            self.seed_threshold,
        )
        return dict(zip(vertices, seeds))

    def _tasks_for_part(
        self,
        plan: BatchPlan,
        indices: Sequence[int],
        chain_parent: Dict[int, Optional[int]],
        seeds: Dict[int, Seed],
    ) -> List[GroupTask]:
        tasks: List[GroupTask] = []
        for vertex in indices:
            group = plan.uncovered[vertex]
            parent_local = chain_parent[vertex]
            seed_pulse = seed_source = None
            if parent_local is None:
                seed_pulse, seed_source = seeds[vertex]
            tasks.append(
                GroupTask(
                    group=group,
                    seed_tag=seed_tag_for(group),
                    parent_local=parent_local,
                    seed_pulse=seed_pulse,
                    seed_source=seed_source,
                )
            )
        return tasks


# -------------------------------------------------------------- coalescing
class GroupCoalescer:
    """In-flight dedup across concurrent batches: one compile per key.

    The first caller to :meth:`claim` a key owns its compilation and must
    :meth:`resolve` (or :meth:`fail`) it; later callers get a
    :class:`~concurrent.futures.Future` that yields the owner's record.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._in_flight: Dict[bytes, Future] = {}
        self.coalesced = 0

    def claim(self, key: bytes) -> Tuple[bool, Future]:
        """(owned, future): owned=True means the caller must compile+resolve."""
        with self._lock:
            future = self._in_flight.get(key)
            if future is not None:
                self.coalesced += 1
                return False, future
            future = Future()
            self._in_flight[key] = future
            return True, future

    def in_flight_keys(self) -> "set[bytes]":
        """Keys currently claimed — the store's eviction no-touch list.

        A claimed key is being read or solved by its batch; the entry a
        solve writes stays resident at least until its claim resolves.
        """
        with self._lock:
            return set(self._in_flight)

    def resolve(self, key: bytes, record: CompileRecord) -> None:
        with self._lock:
            future = self._in_flight.pop(key, None)
        if future is not None:
            future.set_result(record)

    def fail(self, key: bytes, error: BaseException) -> None:
        with self._lock:
            future = self._in_flight.pop(key, None)
        if future is not None:
            future.set_exception(error)
