"""Worker-pool execution of a batch plan, plus in-flight coalescing.

Two local backends behind one interface: ``serial`` runs parts one after
another in the calling thread, and is the oracle every other path must
match; :class:`PoolBackend` (``"thread"`` and ``"process"`` both name it)
is one persistent pool of worker processes per owner, forked by the first
batch that has two or more jobs for it, reused by every later batch and
released by ``close()``. Inside the pool a part whose tasks have no chain
parent (every store-mode part) is split into single tasks, dispatched
heaviest first by their modelled weight; a chain-mode part stays whole.
Each part's records are put back together, so callers see one
:class:`PartOutcome` per part whatever ran where. Tasks, engines and
records travel by pickle, only to and from the pool's own children.

Why processes. For these 2- and 4-dimensional problems a GRAPE cost and
gradient evaluation is bound by numpy call overhead, not by BLAS, so it
holds the GIL and threads cannot overlap solves. On a 2-vCPU box with
OpenBLAS at 1 thread, twelve solves of random 2-qubit targets (24
slices, a 300-iteration budget, 3,196 iterations in all) took 1.5–2.4 s
serially (median 2.3 over six rounds), 2.1–3.3 s on 2 threads (median
2.8) and 1.3–1.4 s on 2 processes. accbench's cold pass (12 programs, one
batch each, 12,123 iterations, 2 workers) took, over two rounds on the
same box, 6.0–6.7 s serially, 6.8–7.1 s on the thread backend this pool
replaced (8.3–8.8 s of CPU) and 4.0–4.3 s on the pool (6.6–7.1 s of CPU,
workers included); every run wrote the same store.

Why ``fork``. Starting a 2-worker pool with ``repro`` loaded and running
one call on each worker took 11–12 ms with ``fork``, against 0.68–1.04
s with ``forkserver`` and 0.71–0.76 s with ``spawn``, which re-import
numpy and scipy in every child; ``forkserver`` also leaves its server
and resource-tracker processes running after the interpreter exits. A
forked child inherits the parent's memory, so the pool guards
what that brings along: each worker ignores SIGINT (the parent's graceful
drain finishes the batch), restores the default SIGTERM, swaps every
inherited socket for ``/dev/null`` (so a closed connection still reaches
its peer as EOF, and a listener is not held open), and pins OpenBLAS to
one thread whatever the parent was started with. A child also gets fresh
standard streams at fork, because another thread of the parent may hold
the lock of one (a reader blocked on stdin does), and ``multiprocessing``
closes stdin as a child starts.

Why a ``ModelEngine`` batch stays inline. Its solves are closed-form and
take microseconds; a pool round trip (pickle, pipe, unpickle, and back)
costs more than the solve, so a batch of them, subclasses included, runs
in the calling thread on any backend. So does a batch with fewer than two
jobs, which a pool cannot overlap.

A worker that dies mid-batch (a SIGKILL, the OOM killer) breaks the pool:
the batch fails with ``BrokenProcessPool``, the service releases its
claims, and the next batch forks a fresh pool.

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
matter which batch compiled it first — and it is what lets the pool split
store-mode parts into single tasks.

``warm="chain"`` (paper Sec V-D semantics): within a part, each group warm
starts from its MST parent's freshly compiled pulse; a cut edge is a "soft
dependency" — the part root falls back to the store seed / cold start.
Maximal iteration savings, but pulse content then depends on where the
partition cut the tree, so results vary across worker counts. Use it for
experiments, not for populating a shared store.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import signal
import stat
import sys
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.cache import PulseLibrary, group_from_dict, group_to_dict
from repro.core.dynamic import Seed, best_library_seeds, compile_in_order
from repro.core.engines import CompileRecord, ModelEngine, engine_from_spec
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
    # Modelled iterations (the planner's node weight): the local pool's
    # dispatch order. It does not cross the fabric.
    weight: float = 1.0


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


class _Job(NamedTuple):
    """What one pool submission runs: some tasks of one part."""

    part: int  # index into the batch's parts
    local: List[int]  # the tasks' positions within their part
    weight: float


def _pool_jobs(parts: Sequence[Tuple[int, List[GroupTask]]]) -> List[_Job]:
    """One job per task of a part without chain parents; a chain-mode part
    is one job, because a child needs its parent's fresh pulse."""
    jobs: List[_Job] = []
    for index, (_, tasks) in enumerate(parts):
        if all(task.parent_local is None for task in tasks):
            jobs += [_Job(index, [i], task.weight) for i, task in enumerate(tasks)]
        elif tasks:
            jobs.append(
                _Job(index, list(range(len(tasks))), sum(t.weight for t in tasks))
            )
    return jobs


def _merge(worker: int, pieces: List[PartOutcome]) -> PartOutcome:
    """One part's outcome from its jobs' outcomes, in task order: the part
    worked for the sum of their walls and started at the earliest one."""
    stages: Dict[str, float] = {}
    counters: Dict[str, int] = {}
    for piece in pieces:
        for name, seconds in piece.perf_stages.items():
            stages[name] = stages.get(name, 0.0) + seconds
        for name, value in piece.perf_counters.items():
            counters[name] = counters.get(name, 0) + value
    return PartOutcome(
        worker=worker,
        records=[record for piece in pieces for record in piece.records],
        wall_s=sum(piece.wall_s for piece in pieces),
        perf_stages=stages,
        perf_counters=counters,
        queue_wait_s=min((piece.queue_wait_s for piece in pieces), default=0.0),
    )


class PoolBackend:
    """One persistent pool of ``n_workers`` forked worker processes.

    The pool is forked by the first batch with two or more jobs for it
    and serves every later batch; :meth:`close` shuts it down, and a batch
    after that forks a new one. A batch on a ``ModelEngine`` (subclasses
    included) or with fewer than two jobs runs in the calling thread. A
    worker that dies mid-batch fails the batch with ``BrokenProcessPool``
    and the broken pool is dropped, so the next batch forks afresh.
    """

    name = "process"

    def __init__(self, n_workers: int):
        self.n_workers = max(1, int(n_workers))
        self._lock = threading.Lock()
        self._pool: Optional[ProcessPoolExecutor] = None

    def map_parts(
        self,
        engine,
        parts: Sequence[Tuple[int, List[GroupTask]]],
        weights: Optional[Sequence[float]] = None,
    ) -> List[PartOutcome]:
        jobs = _pool_jobs(parts)
        if isinstance(engine, ModelEngine) or len(jobs) < 2:
            return SerialBackend().map_parts(engine, parts)
        jobs.sort(key=lambda job: -job.weight)  # heaviest first
        pool = self._forked()
        futures = []
        try:
            for job in jobs:
                worker, tasks = parts[job.part]
                futures.append(
                    pool.submit(
                        run_part,
                        engine,
                        worker,
                        [tasks[i] for i in job.local],
                        time.perf_counter(),
                    )
                )
            done = [future.result() for future in futures]
        except BrokenProcessPool:
            self._drop(pool)
            raise
        finally:
            for future in futures:
                future.cancel()  # a failed batch leaves nothing queued
        pieces: List[Dict[int, PartOutcome]] = [{} for _ in parts]
        for job, outcome in zip(jobs, done):
            pieces[job.part][job.local[0]] = outcome
        return [
            _merge(worker, [piece[i] for i in sorted(piece)])
            for (worker, _), piece in zip(parts, pieces)
        ]

    def close(self) -> None:
        """Shut the pool down and reap its workers."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def _forked(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._pool is None:
                _fresh_streams_after_fork()
                self._pool = ProcessPoolExecutor(
                    max_workers=self.n_workers,
                    mp_context=multiprocessing.get_context("fork"),
                    initializer=_worker_start,
                )
            return self._pool

    def _drop(self, pool: ProcessPoolExecutor) -> None:
        with self._lock:
            if self._pool is pool:
                self._pool = None
        pool.shutdown(wait=True)  # reaps what the breakage left


_inherited_streams: List = []  # a child's old std streams, never finalized
_after_fork_registered = False


def _fresh_streams_after_fork() -> None:
    """From now on, a child forked from this process gets new standard
    streams: another thread may hold the lock of an inherited one (a
    reader blocked on stdin does), and ``multiprocessing`` closes stdin as
    a child starts, so the old objects are kept but never touched."""
    global _after_fork_registered
    if not _after_fork_registered:
        os.register_at_fork(after_in_child=_fresh_streams)
        _after_fork_registered = True


def _fresh_streams() -> None:
    _inherited_streams.append((sys.stdin, sys.stdout, sys.stderr))
    sys.stdin = open(os.devnull)
    for name, fd in (("stdout", 1), ("stderr", 2)):
        try:
            stream = open(fd, "w", buffering=1, closefd=False)
        except OSError:
            stream = open(os.devnull, "w")
        setattr(sys, name, stream)


def _worker_start() -> None:
    """Start-up of each pool worker, in the child right after fork."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent drains
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.set_wakeup_fd(-1)  # the parent's event loop, not ours
    _release_inherited_sockets()
    _one_blas_thread()


def _release_inherited_sockets() -> None:
    """Point every inherited socket descriptor at ``/dev/null``: the
    parent's connections then close when the parent closes them, and its
    listeners stop when it stops. The numbers stay taken, so a stale
    socket object's finalizer cannot close something else."""
    devnull = os.open(os.devnull, os.O_RDWR)
    try:
        for name in os.listdir("/dev/fd"):
            try:
                if stat.S_ISSOCK(os.fstat(int(name)).st_mode):
                    os.dup2(devnull, int(name))
            except OSError:
                pass  # the listing's own descriptor, already closed
    except OSError:
        pass  # no /dev/fd on this platform
    finally:
        os.close(devnull)


_BLAS_THREAD_SETTERS = (
    "openblas_set_num_threads",
    "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads",
    "scipy_openblas_set_num_threads64_",
)


def _one_blas_thread() -> None:
    """One thread for every OpenBLAS this process has loaded (numpy and
    scipy each bundle one). Otherwise each worker would start as many BLAS
    threads as the parent was allowed, and the workers' threads would
    contend for the same cores."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return  # no /proc: leave BLAS as it is
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_SETTERS:
            setter = getattr(library, symbol, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)


def make_backend(spec, n_workers: int):
    """'serial' | 'thread' | 'process' | an object with ``map_parts``.

    ``"thread"`` and ``"process"`` both make a :class:`PoolBackend`; the
    caller owns it and closes it. A remote fabric is passed as the object
    itself (one long-lived
    :class:`~repro.service.remote.RemoteExecutor` serves every batch — a
    string spec here would leak a fresh listener per batch).
    """
    if hasattr(spec, "map_parts"):
        return spec
    if spec == "serial":
        return SerialBackend()
    if spec in ("thread", "process"):
        return PoolBackend(n_workers)
    raise ValueError(
        f"unknown backend {spec!r}; have serial/thread/process, or pass "
        f"an object with map_parts (e.g. a RemoteExecutor)"
    )


# ------------------------------------------------------------ pool executor
class WorkerPoolExecutor:
    """Runs a :class:`BatchPlan`'s worker plans on a backend.

    Returns records aligned with ``plan.uncovered``; wires per-worker wall
    clock, solve time, and iteration counts into the supplied
    :class:`PerfRecorder` under ``execute.worker<k>.*`` names. A backend
    made here from a spec string is this executor's to release with
    :meth:`close` (or a ``with`` block); a backend object passed in is
    left to its owner.
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
        self._owns_backend = self.backend is not backend
        self.similarity = similarity
        self.warm = warm
        self.seed_threshold = seed_threshold
        self.perf = recorder_or_null(perf)

    def close(self) -> None:
        """Release the worker pool this executor made, if it made one."""
        close = getattr(self.backend, "close", None)
        if self._owns_backend and close is not None:
            close()

    def __enter__(self) -> "WorkerPoolExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

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
            # Heaviest parts first (LPT), the schedule BatchPlan.makespan
            # models; the local pool re-sorts store-mode tasks by weight.
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
                part_weights.append(sum(task.weight for task in tasks))
                index_map.append(indices)
        with self.perf.stage("execute.solve"):
            # Modelled part weights: the remote fabric's EWMA placement
            # schedules by them; the local pool orders by task weights.
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
                    weight=plan.weights.get(vertex, 1.0),
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
