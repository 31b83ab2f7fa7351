"""Batch compile planner: cross-request dedup, shared MST, worker cuts.

Planning is two steps, and neither reads the store. :meth:`CompilePlanner.
plan` runs every program of a batch through the shared front end,
de-duplicates groups *across* the batch
(:func:`repro.grouping.dedup.dedupe_batch`) and splits off the
virtual-diagonal groups (pure frame changes, zero-latency by convention),
which never reach a worker. The caller then looks the unique groups up in
its store; :meth:`CompilePlanner.cut` takes the ones that missed, builds
one shared similarity MST over them and cuts its Prim sequence into
balanced connected parts — one per worker — with
:func:`repro.core.partition.partition_tree` under the modelled
iteration-cost node weights (paper Sec V-D).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from repro.circuits.circuit import Circuit
from repro.core.partition import (
    TreePartition,
    modelled_node_weights,
    partition_tree,
)
from repro.core.simgraph import (
    CompileSequence,
    build_similarity_graph,
    prim_compile_sequence,
)
from repro.grouping.dedup import BatchDedup, dedupe_batch
from repro.grouping.group import GateGroup
from repro.perf.instrument import PerfRecorder, recorder_or_null
from repro.qoc.estimator import LatencyEstimator


@dataclass
class WorkerPlan:
    """One worker's share of the batch: vertices in compile order."""

    worker: int
    indices: List[int]  # into BatchPlan.uncovered, MST compile order
    weight: float  # modelled iteration cost of the part


@dataclass
class BatchPlan:
    """Everything the executor and the latency assembly need for one batch.

    From :meth:`CompilePlanner.plan`, ``uncovered`` lists every unique
    non-virtual group and the MST fields are empty; from
    :meth:`CompilePlanner.cut`, ``uncovered`` is the subset to solve and
    the MST fields cover exactly it.
    """

    circuits: List[Circuit]
    fronts: List  # FrontEndResult per program
    groups_per_program: List[List[GateGroup]]
    batch: BatchDedup
    uncovered: List[GateGroup]  # unique, non-virtual, not known to be stored
    trivial: List[GateGroup]  # unique, virtual-diagonal
    sequence: CompileSequence  # shared MST over `uncovered`
    weights: Dict[int, float]  # modelled iterations per MST vertex
    partition: TreePartition
    worker_plans: List[WorkerPlan]
    n_workers: int = 1

    @property
    def n_programs(self) -> int:
        return len(self.circuits)

    @property
    def serial_weight(self) -> float:
        """Modelled one-worker cost of the uncovered set."""
        return sum(self.weights.values())

    @property
    def bottleneck(self) -> float:
        """Heaviest single part (lower bound on any schedule's makespan)."""
        return self.partition.bottleneck

    @property
    def makespan(self) -> float:
        """Modelled wall cost of running the parts on ``n_workers`` workers.

        The tree cut can produce more parts than workers (one part per MST
        root at minimum), so the makespan is a longest-processing-time
        assignment of part weights onto the pool, which is exactly how the
        executor's pool drains the parts.
        """
        if not self.worker_plans:
            return 0.0
        loads = [0.0] * max(1, self.n_workers)
        for part in sorted(self.worker_plans, key=lambda p: -p.weight):
            loads[loads.index(min(loads))] += part.weight
        return max(loads)

    @property
    def modelled_speedup(self) -> float:
        """serial/makespan — machine-independent parallel speedup proxy."""
        makespan = self.makespan
        if makespan <= 0:
            return 1.0
        return self.serial_weight / makespan


class CompilePlanner:
    """Plans a batch on a pipeline front end, then cuts its misses' MST.

    ``pipeline`` is duck-typed: it provides ``groups_of(circuit, perf=)``
    (the :class:`repro.core.pipeline.AccQOC` front end, which counts its
    memo hits and misses into ``perf``) and an ``engine`` whose
    optional ``iterations`` attribute is the cost model for partition
    balancing (absent — e.g. a bare ``GrapeEngine`` — a unit-cost
    :class:`~repro.core.engines.IterationModel` is used).
    """

    def __init__(
        self,
        pipeline,
        similarity: str = "fidelity1",
        perf: Optional[PerfRecorder] = None,
        class_aware: Optional[bool] = None,
    ) -> None:
        self.pipeline = pipeline
        self.similarity = similarity
        self.perf = recorder_or_null(perf)
        if class_aware is None:
            # Follow the engine's run config (``--class-parts``); engines
            # without one (bare ModelEngine) default to weight-only cuts.
            run = getattr(pipeline.engine, "run", None)
            class_aware = bool(getattr(run, "class_partition", False))
        self.class_aware = bool(class_aware)

    def plan(self, circuits: Sequence[Circuit]) -> BatchPlan:
        """Front end, batch-wide dedup and the trivial split; no MST yet."""
        circuits = list(circuits)
        fronts = []
        groups_per_program: List[List[GateGroup]] = []
        lookups = PerfRecorder()  # front_end.hits / front_end.misses
        with self.perf.stage("plan.front_end"):
            for circuit in circuits:
                front, groups = self.pipeline.groups_of(circuit, perf=lookups)
                fronts.append(front)
                groups_per_program.append(groups)
        self.perf.merge_report(lookups.report(), prefix="plan.")
        with self.perf.stage("plan.dedup"):
            batch = dedupe_batch(groups_per_program)
        trivial: List[GateGroup] = []
        uncovered: List[GateGroup] = []
        for group in batch.merged.unique:
            virtual = LatencyEstimator.is_virtual_diagonal(group.matrix())
            (trivial if virtual else uncovered).append(group)
        self.perf.count("plan.programs", len(circuits))
        self.perf.count("plan.unique", batch.merged.n_unique)
        self.perf.count("plan.shared", batch.n_shared)
        return BatchPlan(
            circuits=circuits,
            fronts=fronts,
            groups_per_program=groups_per_program,
            batch=batch,
            uncovered=uncovered,
            trivial=trivial,
            **self._cut([], 1),
        )

    def cut(
        self, plan: BatchPlan, groups: Sequence[GateGroup], n_workers: int
    ) -> BatchPlan:
        """``plan`` narrowed to ``groups`` (the ones to solve), with their
        shared similarity MST cut into balanced parts for ``n_workers``."""
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        groups = list(groups)
        self.perf.count("plan.uncovered", len(groups))
        return replace(plan, uncovered=groups, **self._cut(groups, n_workers))

    # ----------------------------------------------------------------- impl
    def _iteration_model(self):
        model = getattr(self.pipeline.engine, "iterations", None)
        if model is not None:
            return model
        from repro.core.engines import IterationModel

        return IterationModel()

    def _cut(self, uncovered: List[GateGroup], n_workers: int) -> Dict:
        """The MST fields of a :class:`BatchPlan` over ``uncovered``."""
        if not uncovered:
            empty = CompileSequence(order=[], parent={}, parent_weight={}, total_weight=0.0)
            return dict(
                sequence=empty,
                weights={},
                partition=TreePartition(parts=[], part_weights=[], bottleneck=0.0),
                worker_plans=[],
                n_workers=n_workers,
            )
        with self.perf.stage("plan.simgraph"):
            graph = build_similarity_graph(uncovered, self.similarity)
            sequence = prim_compile_sequence(graph)
        with self.perf.stage("plan.partition"):
            weights = modelled_node_weights(
                sequence, uncovered, self._iteration_model()
            )
            class_of = None
            solve_class = getattr(self.pipeline.engine, "solve_class", None)
            if self.class_aware and callable(solve_class):
                # Same-class vertices pack into the same part so the
                # batched-GRAPE kernels see wide buckets (PR 8 follow-on);
                # virtual-diagonal groups class as None and never attract.
                class_of = {
                    v: solve_class(uncovered[v]) for v in sequence.order
                }
            partition = partition_tree(
                sequence, weights, n_workers, class_of=class_of
            )
        worker_plans = [
            WorkerPlan(worker=w, indices=list(part), weight=weight)
            for w, (part, weight) in enumerate(
                zip(partition.parts, partition.part_weights)
            )
        ]
        return dict(
            sequence=sequence,
            weights=weights,
            partition=partition,
            worker_plans=worker_plans,
            n_workers=n_workers,
        )
