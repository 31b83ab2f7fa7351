"""Hot-path micro-timings behind the ``repro perf`` CLI entry point.

Times the two compilation hot paths this reproduction optimizes — the
fused GRAPE cost/gradient evaluation and the Gram-matrix similarity-graph
build (against the per-pair reference) — plus one end-to-end pipeline
compile with its stage breakdown. Numbers are wall-clock on the current
machine; the committed baselines live in PERF.md.
"""

from __future__ import annotations

import time
from typing import List

from repro.circuits import Circuit
from repro.circuits.gates import Gate
from repro.grouping.group import GateGroup
from repro.perf.instrument import PerfRecorder
from repro.perf.report import PerfReport
from repro.qoc.fidelity import infidelity_and_gradient
from repro.qoc.hamiltonian import ControlModel
from repro.utils.rng import derive_rng


def random_cx_rz_groups(n: int, tag: str = "perf-groups") -> List[GateGroup]:
    """The canonical similarity-bench workload: n four-dim cx+rz groups.

    Shared with ``benchmarks/bench_simgraph.py`` so the PERF.md acceptance
    point ("64 four-dim groups") always measures one and the same workload.
    Matrices are pre-warmed so timings cover graph construction only.
    """
    rng = derive_rng(tag)
    groups = []
    for i in range(n):
        angle = float(rng.uniform(0, 3))
        group = GateGroup(
            gates=[Gate("cx", (0, 1)), Gate("rz", (1,), (angle,))],
            node_indices=(2 * i, 2 * i + 1),
        )
        group.matrix()
        groups.append(group)
    return groups


def _time(fn, repeats: int) -> float:
    fn()  # warm-up
    start = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - start) / repeats


def gradient_report(
    n_qubits: int = 2, n_slices: int = 24, repeats: int = 20
) -> PerfReport:
    """Time one fused cost+gradient evaluation."""
    model = ControlModel(n_qubits)
    rng = derive_rng("perf-grad")
    amps = rng.uniform(-0.05, 0.05, size=(n_slices, model.n_controls))
    target = Circuit(2).add("cx", 0, 1).unitary() if n_qubits == 2 else (
        Circuit(n_qubits).add("h", 0).unitary()
    )
    dt = model.physics.dt
    recorder = PerfRecorder()
    seconds = _time(
        lambda: infidelity_and_gradient(amps, model, target, dt), repeats
    )
    recorder.record("qoc.gradient", seconds)
    recorder.count("qoc.gradient.slices", n_slices)
    return recorder.report(f"infidelity_and_gradient {n_qubits}q/{n_slices} slices")


def simgraph_report(
    n_groups: int = 64, similarity: str = "fidelity1", repeats: int = 5
) -> PerfReport:
    """Time the batched similarity-graph build against the per-pair oracle."""
    from repro.core.simgraph import (
        build_similarity_graph,
        build_similarity_graph_pairwise,
    )

    groups = random_cx_rz_groups(n_groups)
    recorder = PerfRecorder()
    recorder.record(
        "simgraph.batched",
        _time(lambda: build_similarity_graph(groups, similarity), repeats),
    )
    recorder.record(
        "simgraph.pairwise",
        _time(
            lambda: build_similarity_graph_pairwise(groups, similarity),
            max(1, repeats // 2),
        ),
    )
    recorder.count("simgraph.groups", n_groups)
    return recorder.report(f"build_similarity_graph {n_groups} groups ({similarity})")


def pipeline_report() -> PerfReport:
    """Stage breakdown of one real compile (small QFT program)."""
    from repro.core.pipeline import AccQOC
    from repro.workloads import qft

    pipeline = AccQOC()
    compiled = pipeline.compile(qft(4))
    report = compiled.perf or PerfReport(label="pipeline (no perf recorded)")
    return report


def service_report() -> PerfReport:
    """Batch-service breakdown: plan / per-worker solve / per-shard store I/O.

    Runs a two-program batch against a throwaway *2-shard* store in a temp
    directory — the same stages a production ``repro serve`` loop spends
    its time in (``service.plan``, ``execute.worker<k>.wall/solve/
    queue_wait``, and per-shard ``store.shard<i>.read``/``write``/``hits``/
    ``misses``/``puts``/``evictions``).
    """
    import os
    import tempfile

    from repro.service import CompileService, open_store
    from repro.workloads import qft

    with tempfile.TemporaryDirectory() as root:
        store_perf = PerfRecorder()
        store = open_store(os.path.join(root, "s"), shards=2, perf=store_perf)
        service = CompileService(store, backend="thread", n_workers=2)
        try:
            batch = service.submit_batch([qft(4), qft(5)])
        finally:
            service.close()
        report = batch.perf or PerfReport(label="service (no perf recorded)")
        merged = PerfRecorder()
        merged.merge_report(report)
        merged.merge_report(store_perf.report())
        return merged.report(
            "service batch: qft_4 + qft_5, 2 parts, model engine solved "
            "in the calling thread, 2 store shards"
        )


def remote_report() -> PerfReport:
    """Per-hop wire timings of the distributed fabric, loopback edition.

    Stands up the whole remote path in one process — a
    :class:`~repro.service.storeserver.StoreServer` over a temp store, a
    :class:`~repro.service.remote.RemoteStore` client, a
    :class:`~repro.service.remote.RemoteExecutor` with one in-process
    worker — and runs a two-program batch through it. The interesting
    stages: ``store.remote.rpc`` (client-observed per-key store round
    trips), ``store.remote.batched_rpc`` (one ``get_many`` frame per
    claim pass and one ``put_many`` frame per pass that solved, so reads
    and writes are O(shards), not O(keys); the
    ``store.remote.ops.<verb>`` counters show the split) and
    ``execute.worker<k>.wire`` (part round trip minus worker compute,
    i.e. serialization + transport). Loopback TCP, so the numbers are the
    protocol floor — a real deployment adds its network on top.
    """
    import threading

    from repro.service import (
        CompileService,
        PulseStore,
        RemoteExecutor,
        RemoteStore,
        StoreServer,
        worker_loop,
    )
    from repro.workloads import qft

    import tempfile

    with tempfile.TemporaryDirectory() as root:
        server = StoreServer(PulseStore(root)).start()
        executor = RemoteExecutor()
        worker = threading.Thread(
            target=worker_loop,
            args=(f"remote://127.0.0.1:{executor.port}",),
            daemon=True,
        )
        worker.start()
        try:
            store_perf = PerfRecorder()
            store = RemoteStore(f"remote://{server.address}", perf=store_perf)
            service = CompileService(store, backend=executor, n_workers=2)
            batch = service.submit_batch([qft(4), qft(5)])
            report = batch.perf or PerfReport(label="remote (no perf recorded)")
            merged = PerfRecorder()
            merged.merge_report(report)
            merged.merge_report(store_perf.report())
            return merged.report(
                "remote fabric: qft_4 + qft_5, store server + 1 worker "
                "over loopback TCP"
            )
        finally:
            executor.close()
            server.stop()


def run_perf(as_json: bool = False) -> str:
    """The ``repro perf`` entry point: all hot-path reports, rendered."""
    reports = [
        gradient_report(),
        simgraph_report(),
        pipeline_report(),
        service_report(),
        remote_report(),
    ]
    if as_json:
        import json

        return json.dumps([r.to_dict() for r in reports], indent=2)
    blocks = []
    for report in reports:
        blocks.append(report.format_table())
        batched = pairwise = None
        for stat in report.stages:
            if stat.name == "simgraph.batched":
                batched = stat.total_s
            if stat.name == "simgraph.pairwise":
                pairwise = stat.total_s
        if batched and pairwise:
            blocks.append(f"  speedup (pairwise/batched) = {pairwise / batched:.1f}x")
    return "\n\n".join(blocks)
