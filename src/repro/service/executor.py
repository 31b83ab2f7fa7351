"""Worker-pool execution of a batch plan, plus in-flight coalescing.

Three local backends behind one interface (mirroring the ``GrapeEngine`` /
``ModelEngine`` split): ``serial`` runs parts in the calling thread,
``thread`` uses a ``ThreadPoolExecutor``, ``process`` uses a
``ProcessPoolExecutor`` with picklable per-part payloads (module-level
worker function, engine shipped by pickle, records shipped back).

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
where its solves ran. Because every :class:`GroupTask` carries its warm
seed resolved from the batch snapshot (see below), where a part runs can
never change what it produces.

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

from repro.core.cache import PulseLibrary
from repro.core.dynamic import Seed, best_library_seeds, compile_in_order
from repro.core.engines import CompileRecord
from repro.grouping.group import GateGroup
from repro.perf.instrument import PerfRecorder, recorder_or_null
from repro.qoc.pulse import Pulse
from repro.service.planner import BatchPlan

WARM_MODES = ("store", "chain")


@dataclass
class GroupTask:
    """One group's compile order within a part (picklable)."""

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
    """One OS process per part; payloads and records travel by pickle."""

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
