"""The batch compilation service façade.

``CompileService`` ties the pieces together: the :class:`AccQOC` front end
(mapping + grouping, shared with the one-shot pipeline), the
:class:`CompilePlanner` (batch-wide dedup + shared MST + worker cuts), the
:class:`WorkerPoolExecutor` (serial, or one persistent pool of worker
processes per service, locally; or a
:class:`~repro.service.remote.RemoteExecutor` fabric of ``repro worker``
processes), the :class:`GroupCoalescer` (concurrent batches compile a key
once), and a :class:`StoreBackend` — a local :class:`PulseStore`, a
:class:`~repro.service.sharding.ShardedStore` (local shards or a
``remote://`` routing table), or a single
:class:`~repro.service.remote.RemoteStore` — where every solve is
persisted before the batch returns, so the next request — or the next
process, or the next host — starts warm.

One ``submit_batch`` call is the unit of work: plan, claim and read each
unique key once, solve the misses on the pool, persist, price every
program with
:func:`repro.core.pipeline.program_latencies`, and return a
:class:`BatchReport` whose ``perf`` carries the full stage breakdown
(planning, per-worker solve time, store I/O) in ``repro perf`` format.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, fields
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.circuits.circuit import Circuit
from repro.core.cache import LibraryEntry
from repro.core.engines import CompileRecord, IterationModel, compile_with_engine
from repro.core.pipeline import AccQOC, program_latencies
from repro.grouping.group import GateGroup
from repro.perf.instrument import PerfRecorder
from repro.perf.report import PerfReport
from repro.qoc.estimator import LatencyEstimator
from repro.service.executor import (
    GroupCoalescer,
    WorkerPoolExecutor,
    make_backend,
    seed_tag_for,
)
from repro.service.planner import BatchPlan, CompilePlanner
from repro.service.store import StoreBackend
from repro.utils.config import PipelineConfig, RunConfig


@dataclass
class RequestReport:
    """Per-program outcome: what a ``repro serve`` response is built from."""

    name: str
    n_groups: int
    n_unique: int
    coverage_rate: float  # share of its groups the claim read found stored
    overall_latency: float  # ns, Algorithm 3 over the group DAG
    gate_based_latency: float  # ns, gate-by-gate baseline
    compile_iterations: int  # iterations charged to this request's groups

    @property
    def latency_reduction(self) -> float:
        if self.overall_latency <= 0:
            return float("inf")
        return self.gate_based_latency / self.overall_latency


@dataclass
class BatchReport:
    """Outcome of one ``submit_batch`` call."""

    requests: List[RequestReport]
    n_unique: int  # distinct groups across the batch
    n_shared: int  # unique groups referenced by >1 program
    n_covered: int  # served straight from the store
    n_compiled: int  # solved by this batch's workers
    n_trivial: int  # virtual-diagonal, priced at zero
    n_coalesced: int  # served by another in-flight batch
    total_iterations: int
    modelled_speedup: float  # serial weight / LPT makespan on the pool
    wall_time: float
    store_stats: Dict[str, float]
    perf: Optional[PerfReport] = None

    @property
    def coverage_rate(self) -> float:
        if self.n_unique == 0:
            return 1.0
        return self.n_covered / self.n_unique


def _record_from_entry(entry: LibraryEntry) -> CompileRecord:
    """A stored entry replayed as the record its solve produced — what a
    covered claim hands to every batch waiting on the key."""
    return CompileRecord(
        latency=entry.latency,
        iterations=entry.iterations,
        converged=entry.converged,
        pulse=entry.pulse,
    )


class _ClaimPass(NamedTuple):
    """What one :meth:`CompileService._claim_and_solve` pass resolved."""

    records: List[CompileRecord]  # aligned with the pass's groups
    covered: Set[bytes]  # keys the claim read found in the store
    n_solved: int  # misses solved by this batch
    n_coalesced: int  # served by another in-flight batch


def engine_fingerprint(engine) -> str:
    """Identity of the results an engine produces (stamped on the store).

    Stored latencies/pulses are only valid for the engine and budget that
    produced them — a model-engine store must not silently serve a GRAPE
    client (and vice versa). Covers the engine kind, the physics that sets
    slice length and drive bounds, and (for real optimizers) the run budget
    and seed that make solves reproducible. Every other field of the run
    budget, the latency estimator and the iteration model is appended as
    ``<part>.<field>=<repr>`` where it differs from its default, so a
    default engine keeps the stamp it always had and its stores still open.
    Attributes are looked up by name, so engine-shaped objects stamp too.
    """
    parts = [getattr(engine, "name", type(engine).__name__)]
    physics = getattr(engine, "physics", None)
    if physics is not None:
        parts.append(f"dt={physics.dt:g}")
        parts.append(f"drive={physics.drive_max:.6g}")
        parts.append(f"coupling={physics.coupling_max:.6g}")
    run = getattr(engine, "run", None)
    if run is not None:  # GrapeEngine-shaped: solves depend on the budget
        parts.append(f"tol={run.target_infidelity:g}")
        parts.append(f"iters={run.max_iterations}")
        parts.append(f"probes={run.binary_search_max_probes}")
        parts.append(f"seed={run.seed}")
        parts += _changed_fields(
            "run",
            run,
            RunConfig(),
            ("target_infidelity", "max_iterations", "binary_search_max_probes", "seed"),
        )
    estimator = getattr(engine, "estimator", None)
    if estimator is not None:
        parts += _changed_fields("estimator", estimator, LatencyEstimator(physics))
    iterations = getattr(engine, "iterations", None)
    if iterations is not None:
        parts += _changed_fields("iterations", iterations, IterationModel())
    return ";".join(parts)


def _changed_fields(label: str, value, default, stamped=()) -> List[str]:
    """``label.field=repr`` for each dataclass field of ``default`` (but
    the ``stamped`` ones) that ``value`` sets differently."""
    return [
        f"{label}.{field.name}={getattr(value, field.name)!r}"
        for field in fields(default)
        if field.name not in stamped
        and getattr(value, field.name) != getattr(default, field.name)
    ]


class CompileService:
    """Long-lived batch compilation service over a persistent pulse store.

    A ``backend`` spec string becomes one solve backend on the first batch
    that solves, kept for every later batch: for ``"thread"`` and
    ``"process"`` that is a pool of worker processes, forked by the first
    batch that can use it. :meth:`close` releases it. A backend object
    (a :class:`~repro.service.remote.RemoteExecutor`) stays the caller's.
    """

    def __init__(
        self,
        store: StoreBackend,
        config: Optional[PipelineConfig] = None,
        engine=None,
        backend="thread",
        n_workers: Optional[int] = None,
        warm: str = "store",
    ) -> None:
        self.store = store
        self.config = config or PipelineConfig()
        self.pipeline = AccQOC(self.config, engine=engine)
        self.engine = self.pipeline.engine
        # Refuse a store populated under a different engine/run identity.
        self.store.claim_fingerprint(engine_fingerprint(self.engine))
        self.n_workers = n_workers if n_workers is not None else self.config.n_workers
        self.backend = backend
        self._solver = None  # made from a spec string by the first solve
        self._solver_lock = threading.Lock()
        self.warm = warm
        self.coalescer = GroupCoalescer()
        # A bounded store must not LRU-evict a key some in-flight batch
        # claimed: what a batch writes stays resident until it resolves.
        # Guards compose, so services sharing a store all stay protected.
        self.store.add_eviction_guard(self.coalescer.in_flight_keys)
        self.n_batches = 0

    def close(self) -> None:
        """Release the worker pool this service made (a later batch forks a
        new one); a backend object passed in is left open."""
        with self._solver_lock:
            solver, self._solver = self._solver, None
        close = getattr(solver, "close", None)
        if solver is not self.backend and close is not None:
            close()

    def _solve_backend(self):
        with self._solver_lock:
            if self._solver is None:
                self._solver = make_backend(self.backend, self.n_workers)
            return self._solver

    # ------------------------------------------------------------- requests
    def handle_request(self, circuit: Circuit) -> Tuple[RequestReport, BatchReport]:
        """One-program convenience wrapper around :meth:`submit_batch`."""
        batch = self.submit_batch([circuit])
        return batch.requests[0], batch

    def submit_batch(self, circuits: Sequence[Circuit]) -> BatchReport:
        start = time.monotonic()
        perf = PerfRecorder()
        planner = CompilePlanner(
            self.pipeline, similarity=self.config.similarity, perf=perf
        )
        with perf.stage("service.plan"):
            plan = planner.plan(circuits)

        pool, trivial, cut = self._execute(plan, planner, perf)

        with perf.stage("service.latency"):
            latencies = {
                group.key(): record.latency
                for group, record in zip(
                    plan.uncovered + plan.trivial,
                    pool.records + trivial.records,
                )
            }
            iteration_of = {
                group.key(): record.iterations
                for group, record in zip(plan.uncovered, pool.records)
                if group.key() not in pool.covered
            }
            covered = pool.covered | trivial.covered
            requests = [
                self._request_report(plan, p, latencies, iteration_of, covered)
                for p in range(plan.n_programs)
            ]
        self.n_batches += 1
        return BatchReport(
            requests=requests,
            n_unique=plan.batch.merged.n_unique,
            n_shared=plan.batch.n_shared,
            n_covered=len(covered),
            n_compiled=pool.n_solved,
            n_trivial=len(plan.trivial) - len(trivial.covered),
            n_coalesced=pool.n_coalesced,
            total_iterations=sum(iteration_of.values()),
            modelled_speedup=cut.modelled_speedup if cut else 1.0,
            wall_time=time.monotonic() - start,
            store_stats=self.store.stats.to_dict(),
            perf=perf.report(f"batch#{self.n_batches}"),
        )

    # ----------------------------------------------------------------- impl
    def _execute(
        self, plan: BatchPlan, planner: CompilePlanner, perf: PerfRecorder
    ) -> Tuple[_ClaimPass, _ClaimPass, Optional[BatchPlan]]:
        """Look up and solve the pool's groups, then the trivial ones.

        Two passes of :meth:`_claim_and_solve`, then one manifest flush
        when either pass wrote. The trivial pass claims its keys only after
        the pool's solves are persisted, so a concurrent batch needing an
        instant group never waits on this batch's GRAPE solve. A read-only
        batch writes nothing: its recency bumps stay in the store's memory
        until the next writing batch, or the server's close, flushes them
        (see :mod:`repro.service.store`). So it costs no manifest rewrite
        and, on a replicated route, needs no write quorum. Returns both
        passes and the plan cut over the pool's misses (None when nothing
        missed).
        """
        cut: Optional[BatchPlan] = None

        def solve_on_pool(groups: List[GateGroup]) -> List[CompileRecord]:
            nonlocal cut
            # Constructed inside the protected region: an invalid backend or
            # warm spec must fail the claims too, not strand them.
            executor = WorkerPoolExecutor(
                self.engine,
                backend=self._solve_backend(),
                n_workers=self.n_workers,
                similarity=self.config.similarity,
                warm=self.warm,
                perf=perf,
            )
            with perf.stage("service.plan"):
                cut = planner.cut(plan, groups, self.n_workers)
            with perf.stage("service.store"):
                snapshot = self.store.snapshot()  # the warm-seed source
            with perf.stage("service.execute"):
                return executor.run_indices(cut, snapshot, range(len(groups)))

        def solve_trivial(groups: List[GateGroup]) -> List[CompileRecord]:
            with perf.stage("service.execute"):
                return [
                    compile_with_engine(
                        self.engine, group, seed_tag=seed_tag_for(group)
                    )
                    for group in groups
                ]

        pool = self._claim_and_solve(plan.uncovered, solve_on_pool, perf)
        trivial = self._claim_and_solve(plan.trivial, solve_trivial, perf)
        if pool.n_solved or trivial.n_solved:
            with perf.stage("service.store"):
                self.store.flush()  # one manifest rewrite per writing batch
        perf.count("service.coalesced", pool.n_coalesced)
        return pool, trivial, cut

    def _claim_and_solve(
        self,
        groups: Sequence[GateGroup],
        solve: Callable[[List[GateGroup]], List[CompileRecord]],
        perf: PerfRecorder,
    ) -> _ClaimPass:
        """Claim → one ``get_many`` → solve the misses → ``put_many`` → resolve.

        Every key is claimed in the coalescer first; a key another batch
        already claimed is waited on instead. The owned keys are then read
        from the store exactly once, with one ``get_many``: a hit is a
        covered group, served by its stored entry, and its claim resolves
        at once. Only the misses reach ``solve(missing)``, which returns
        one record per group, in order, and they are written back with
        one ``put_many(flush=False)`` — one read and one write RPC per
        remote shard, not one per key.

        What follows from reading each key once, at claim time:

        * the warm-seed snapshot is ``solve``'s to take, so a batch that
          solves nothing makes no snapshot RPC;
        * under concurrency, a key another batch wrote before this
          batch's read counts as covered here;
        * on a store bounded below one batch's unique groups, answers are
          unchanged but coverage and eviction counts can differ from an
          unbounded store (this pass's writes can evict a key the next
          pass would have found).

        Never strands a claim: on any failure every owned key that was not
        served from the store fails, or each batch waiting on it would
        deadlock. That is also how a store-layer ``QuorumError``
        propagates loudly out of ``submit_batch`` without wedging the
        batches coalesced onto it.
        """
        records: List[Optional[CompileRecord]] = [None] * len(groups)
        owned: List[int] = []
        waiting: Dict[int, "Future"] = {}
        for index, group in enumerate(groups):
            is_owner, future = self.coalescer.claim(group.key())
            if is_owner:
                owned.append(index)
            else:
                waiting[index] = future
        covered: Set[bytes] = set()
        missing: List[int] = []
        solved: List[CompileRecord] = []
        try:
            with perf.stage("service.store"):
                stored = self.store.get_many([groups[i].key() for i in owned])
            for index, entry in zip(owned, stored):
                if entry is None:
                    missing.append(index)
                    continue
                key = groups[index].key()
                records[index] = _record_from_entry(entry)
                covered.add(key)
                self.coalescer.resolve(key, records[index])
            if missing:
                solved = solve([groups[index] for index in missing])
                with perf.stage("service.store"):
                    # flush=False: the entry files are durable now; the
                    # manifest rewrite is paid once per writing batch, by
                    # _execute after both passes.
                    self.store.put_many(
                        [
                            LibraryEntry(
                                group=groups[index],
                                pulse=record.pulse,
                                latency=record.latency,
                                iterations=record.iterations,
                                converged=record.converged,
                            )
                            for index, record in zip(missing, solved)
                        ],
                        flush=False,
                    )
        except BaseException as error:
            for index in owned:
                if records[index] is None:
                    self.coalescer.fail(groups[index].key(), error)
            raise
        for index, record in zip(missing, solved):
            records[index] = record
            self.coalescer.resolve(groups[index].key(), record)
        for index, future in waiting.items():
            records[index] = future.result()
        return _ClaimPass(records, covered, len(missing), len(waiting))

    def _request_report(
        self,
        plan: BatchPlan,
        program: int,
        latencies: Dict[bytes, float],
        iteration_of: Dict[bytes, int],
        covered: Set[bytes],
    ) -> RequestReport:
        groups = plan.groups_per_program[program]
        dedup = plan.batch.per_program[program]
        overall, gate_based = program_latencies(
            plan.fronts[program], groups, latencies, self.engine
        )
        n_covered = sum(1 for g in groups if g.key() in covered)
        # Iterations charged to this request: every uncovered unique group it
        # references (a shared group shows up in each referencing request).
        iterations = sum(
            iteration_of.get(key, 0) for key in dedup.index_of
        )
        circuit = plan.circuits[program]
        return RequestReport(
            name=circuit.name or "<unnamed>",
            n_groups=len(groups),
            n_unique=dedup.n_unique,
            coverage_rate=n_covered / len(groups) if groups else 1.0,
            overall_latency=overall,
            gate_based_latency=gate_based,
            compile_iterations=iterations,
        )
