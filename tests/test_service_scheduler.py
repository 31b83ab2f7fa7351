"""Fabric scheduler: capability-aware placement, stealing, backpressure.

Three layers under test. The :class:`FabricScheduler` unit contract
(EWMA-weighted placement, tail stealing, the requeue-before-reassign
invariant, job purging); fabric elasticity end-to-end (workers joining
late and dying mid-part, a stalled worker losing its queued parts to
steals — always byte-identical to a serial run); and the async front
door's admission control (typed ``overloaded`` sheds past ``--max-queue``
while every admitted request is answered, per-client fairness).
"""

import asyncio
import json
import socket
import threading
import time

import pytest

from repro.core.engines import GrapeEngine, ModelEngine
from repro.core.pipeline import AccQOC
from repro.service import (
    CLOSE_FABRIC,
    CompileService,
    FabricScheduler,
    PulseStore,
    RemoteExecutor,
    ScheduledPart,
    worker_loop,
)
from repro.service.asyncserve import AsyncCompileServer
from repro.service.planner import CompilePlanner
from repro.service.store import key_digest
from repro.utils.config import PipelineConfig
from repro.workloads import build_named, qft

CONFIG = dict(policy_name="map2b4l")


@pytest.fixture
def config():
    return PipelineConfig(**CONFIG)


class _StubJob:
    """Duck-typed job: the scheduler only calls ``done()``."""

    def __init__(self):
        self.finished = False

    def done(self):
        return self.finished


def _parts(job, n, weight=1.0):
    return [
        ScheduledPart(job=job, index=i, payload=f"p{i}", weight=weight)
        for i in range(n)
    ]


def _stored_pulses(store):
    return {
        key_digest(key): store.peek_key(key).pulse.amplitudes.tobytes()
        for key in store.keys()
        if store.peek_key(key).pulse is not None
    }


def _start_worker(executor: RemoteExecutor) -> threading.Thread:
    thread = threading.Thread(
        target=worker_loop,
        args=(f"remote://127.0.0.1:{executor.port}",),
        daemon=True,
    )
    thread.start()
    return thread


# ------------------------------------------------------------ unit: basics
def test_scheduler_rejects_bad_parameters():
    with pytest.raises(ValueError):
        FabricScheduler(policy="round_robin")
    with pytest.raises(ValueError):
        FabricScheduler(parts_per_worker=0)
    with pytest.raises(ValueError):
        FabricScheduler(ewma_alpha=0.0)
    with pytest.raises(ValueError):
        FabricScheduler(ewma_alpha=1.5)
    FabricScheduler(ewma_alpha=1.0)  # inclusive upper bound


def test_static_policy_is_lpt_and_never_steals():
    sched = FabricScheduler(policy="static")
    a = sched.register()
    b = sched.register()
    job = _StubJob()
    weights = [5.0, 4.0, 3.0, 2.0, 1.0]  # callers submit heaviest-first
    sched.submit(
        [
            ScheduledPart(job=job, index=i, payload="", weight=w)
            for i, w in enumerate(weights)
        ]
    )
    # classic LPT: 5 -> A, 4 -> B, 3 -> B(4<5)? no: 4<5 so B; then loads
    # A=5 B=7 -> 2 on A, loads 7/7 -> 1 on A.
    assert sched._slots[a].queued_weight == pytest.approx(8.0)
    assert sched._slots[b].queued_weight == pytest.approx(7.0)
    # drain B's own queue; with A's queue still full, B may NOT steal
    assert sched.next_part(b, timeout_s=0.01) is not None
    assert sched.next_part(b, timeout_s=0.01) is not None
    assert sched.next_part(b, timeout_s=0.05) is None
    assert sched.n_steals == 0
    assert len(sched._slots[a].queue) == 3


def test_measured_fast_worker_attracts_the_work():
    sched = FabricScheduler(parts_per_worker=4)
    a = sched.register()
    b = sched.register()
    job = _StubJob()
    first = _parts(job, 2)
    sched.submit(first)
    pa = sched.next_part(a, timeout_s=0.5)
    pb = sched.next_part(b, timeout_s=0.5)
    assert pa is not None and pb is not None
    sched.complete(a, pa, wall_s=0.1)  # rate 10 weight-units/s
    sched.complete(b, pb, wall_s=1.0)  # rate 1
    assert sched._slots[a].rate == pytest.approx(10.0)
    assert sched._slots[b].rate == pytest.approx(1.0)
    # earliest-finish-time placement: A's estimated finish stays ahead of
    # B's for four more unit parts, so the 10x-slower B is handed nothing
    sched.submit(_parts(job, 4))
    assert len(sched._slots[a].queue) == 4
    assert len(sched._slots[b].queue) == 0


def test_cold_worker_starts_at_fleet_median():
    sched = FabricScheduler(parts_per_worker=4)
    a = sched.register()
    job = _StubJob()
    sched.submit(_parts(job, 1))
    part = sched.next_part(a, timeout_s=0.5)
    sched.complete(a, part, wall_s=0.1)  # A measured at rate 10
    b = sched.register()  # cold: no sample yet
    assert sched._slots[b].rate is None
    # the cold worker is assumed median-fast, so two unit parts split 1/1
    # (neither starved nor flooded)
    sched.submit(_parts(job, 2))
    assert len(sched._slots[a].queue) == 1
    assert len(sched._slots[b].queue) == 1


def test_steal_takes_the_straggler_tail():
    sched = FabricScheduler(parts_per_worker=2)
    a = sched.register()
    job = _StubJob()
    sched.submit(_parts(job, 3))  # A's queue [0, 1], pending [2]
    b = sched.register()
    got = sched.next_part(b, timeout_s=0.5)
    assert got.index == 2  # pending pool first
    stolen = sched.next_part(b, timeout_s=0.5)
    # the tail of A's queue — the part A would have reached last
    assert stolen.index == 1
    assert sched.n_steals == 1
    assert sched._slots[a].steals_lost == 1
    assert sched._slots[b].steals_won == 1
    assert sched.next_part(a, timeout_s=0.5).index == 0


def test_release_requeues_front_and_drops_done_jobs():
    sched = FabricScheduler()
    a = sched.register()
    job = _StubJob()
    sched.submit(_parts(job, 1))
    part = sched.next_part(a, timeout_s=0.5)
    sched.release(a, part)  # wire failure: requeue before retiring
    assert sched.n_reassigned == 1
    again = sched.next_part(a, timeout_s=0.5)
    assert again is part and sched.n_dispatched == 2
    job.finished = True
    sched.release(a, again)  # batch already done: dropped, not requeued
    assert sched.n_reassigned == 1
    assert sched.stats()["parts_queued"] == 0
    assert sched.stats()["parts_in_flight"] == 0


def test_unregister_requeues_in_order_for_survivors():
    sched = FabricScheduler(parts_per_worker=2)
    a = sched.register()
    job = _StubJob()
    sched.submit(_parts(job, 2))
    sched.unregister(a)
    assert sched.connected_count() == 0
    b = sched.register()
    assert sched.next_part(b, timeout_s=0.5).index == 0  # order preserved
    assert sched.next_part(b, timeout_s=0.5).index == 1


def test_take_job_purges_only_that_job_sorted():
    sched = FabricScheduler(parts_per_worker=2)
    sched.register()
    job1, job2 = _StubJob(), _StubJob()
    sched.submit(_parts(job1, 3))  # queue [0,1], pending [2]
    sched.submit(_parts(job2, 2))  # pending [2(j1), 0(j2), 1(j2)]
    taken = sched.take_job(job1)
    assert [p.index for p in taken] == [0, 1, 2]
    assert all(p.job is job1 for p in taken)
    rest = sched.take_job(None)
    assert [p.index for p in rest] == [0, 1]
    assert all(p.job is job2 for p in rest)
    assert sched.stats()["parts_queued"] == 0


def test_stale_parts_of_done_jobs_never_dispatch():
    sched = FabricScheduler()
    a = sched.register()
    job = _StubJob()
    sched.submit(_parts(job, 2))
    job.finished = True  # batch failed / drained locally
    assert sched.next_part(a, timeout_s=0.05) is None
    assert sched.n_dispatched == 0


def test_close_returns_sentinel_and_error_keeps_rate_clean():
    sched = FabricScheduler()
    a = sched.register()
    job = _StubJob()
    sched.submit(_parts(job, 1))
    part = sched.next_part(a, timeout_s=0.5)
    sched.complete(a, part, wall_s=None)  # worker answered with an error
    assert sched._slots[a].rate is None  # failure never poisons the EWMA
    assert sched._slots[a].parts == 0
    sched.close()
    assert sched.next_part(a, timeout_s=10.0) is CLOSE_FABRIC


def test_stats_shape_and_shed_counter():
    sched = FabricScheduler(parts_per_worker=3, policy="steal")
    sched.register()
    sched.note_shed(3)
    stats = sched.stats()
    assert stats["policy"] == "steal"
    assert stats["parts_per_worker"] == 3
    assert stats["n_shed"] == 3
    for key in (
        "workers_connected",
        "parts_in_flight",
        "parts_queued",
        "n_dispatched",
        "n_steals",
        "n_reassigned",
        "workers",
    ):
        assert key in stats
    (row,) = stats["workers"].values()
    for key in (
        "connected",
        "parts",
        "solve_s",
        "wire_s",
        "queued",
        "in_flight",
        "rate",
        "steals_won",
        "steals_lost",
    ):
        assert key in row


# ----------------------------------------------------- fabric elasticity
def test_worker_joining_late_serves_the_batch(tmp_path, config):
    """Elasticity: no worker at submit time — one dials in inside the
    wait window and the batch lands on it, identical to a serial run."""
    reference = CompileService(
        PulseStore(str(tmp_path / "ref")), config, backend="serial",
        n_workers=2,
    ).submit_batch([qft(5)])

    executor = RemoteExecutor(wait_workers_s=15.0)

    def late_join():
        time.sleep(0.4)  # the batch is already waiting on the fabric
        _start_worker(executor)

    threading.Thread(target=late_join, daemon=True).start()
    service = CompileService(
        PulseStore(str(tmp_path / "fabric")), config, backend=executor,
        n_workers=2,
    )
    try:
        batch = service.submit_batch([qft(5)])
    finally:
        executor.close()
    assert executor.n_dispatched > 0
    assert executor.n_local_fallback == 0
    assert batch.n_compiled == reference.n_compiled
    assert batch.total_iterations == reference.total_iterations
    assert (
        batch.requests[0].overall_latency
        == reference.requests[0].overall_latency
    )


def test_stalled_worker_loses_queued_parts_to_steals(tmp_path, config):
    """ISSUE acceptance core: a worker that accepts a part and stalls has
    its *queued* reservation stolen by a healthy worker, then dies and has
    its in-flight part reassigned — and the pulses are byte-identical to
    the serial run. Nothing is stranded."""
    program = build_named("4gt4-v0")
    # precondition: the plan really cuts into >= 2 parts, else there is
    # nothing to steal
    planner = CompilePlanner(
        AccQOC(config, engine=GrapeEngine(config.physics, config.run.fast()))
    )
    plan = planner.plan([program])
    plan = planner.cut(plan, plan.uncovered, 4)
    assert len(plan.worker_plans) >= 2

    serial = CompileService(
        PulseStore(str(tmp_path / "ref")),
        config,
        engine=GrapeEngine(config.physics, config.run.fast()),
        backend="serial",
        n_workers=4,
    )
    reference = serial.submit_batch([program])
    assert reference.n_compiled > 0

    executor = RemoteExecutor(wait_workers_s=15.0, parts_per_worker=2)
    got_part = threading.Event()
    release = threading.Event()

    def stalled():
        sock = socket.create_connection(("127.0.0.1", executor.port))
        with sock, sock.makefile("rwb") as stream:
            stream.write(b'{"op": "hello"}\n')
            stream.flush()
            stream.readline()  # accept one part...
            got_part.set()
            release.wait(60)  # ...and sit on it, never answering

    def orchestrate():
        if not got_part.wait(30):
            release.set()
            return
        _start_worker(executor)  # the healthy worker dials in mid-batch
        deadline = time.monotonic() + 30
        while executor.n_steals < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        release.set()  # stalled worker dies; its in-flight part requeues

    threading.Thread(target=stalled, daemon=True).start()
    threading.Thread(target=orchestrate, daemon=True).start()

    service = CompileService(
        PulseStore(str(tmp_path / "fabric")),
        config,
        engine=GrapeEngine(config.physics, config.run.fast()),
        backend=executor,
        n_workers=4,
    )
    try:
        batch = service.submit_batch([program])
        stats = executor.stats()
    finally:
        executor.close()
    assert got_part.is_set()
    assert executor.n_steals >= 1  # the queued reservation moved
    assert executor.n_reassigned >= 1  # the in-flight part was rescued
    assert executor.n_local_fallback == 0
    assert batch.n_compiled == reference.n_compiled
    assert batch.total_iterations == reference.total_iterations
    assert _stored_pulses(service.store) == _stored_pulses(serial.store)
    # the stats verb tells the same story, per worker
    assert stats["n_steals"] == executor.n_steals
    assert stats["parts_queued"] == 0  # nothing stranded
    assert stats["parts_in_flight"] == 0
    assert sum(r["steals_lost"] for r in stats["workers"].values()) >= 1
    assert sum(r["steals_won"] for r in stats["workers"].values()) >= 1


# -------------------------------------------------- admission control
class GatedModelEngine(ModelEngine):
    """Blocks every solve until the test opens the gate."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.started = threading.Event()
        self.release = threading.Event()

    def compile_group(self, group, **kwargs):
        self.started.set()
        if not self.release.wait(timeout=60):
            raise RuntimeError("test gate never opened")
        return super().compile_group(group, **kwargs)


def _gated_server(tmp_path, name, **server_kwargs):
    config = PipelineConfig(**CONFIG)
    engine = GatedModelEngine(config.physics)
    service = CompileService(
        PulseStore(str(tmp_path / name)),
        config,
        engine=engine,
        backend="serial",
        n_workers=2,
    )
    return engine, AsyncCompileServer(service, **server_kwargs)


async def _send(writer, payload):
    writer.write((json.dumps(payload) + "\n").encode())
    await writer.drain()


async def _read_by_id(reader, n):
    responses = {}
    for _ in range(n):
        line = await reader.readline()
        assert line, "server closed before answering"
        payload = json.loads(line)
        responses[payload["id"]] = payload
    return responses


def _run(coro, timeout=60):
    return asyncio.run(asyncio.wait_for(coro, timeout))


def test_flood_past_max_queue_sheds_typed_and_answers_admitted(tmp_path):
    """Satellite acceptance: a flood past ``--max-queue`` is refused with
    typed ``overloaded`` responses carrying a retry-after hint, while every
    admitted request is still answered."""

    async def main():
        engine, server = _gated_server(
            tmp_path, "shed",
            window_s=0.0, max_batch=1, max_inflight=1, max_queue=2,
        )
        tcp = await server.start_tcp("127.0.0.1", 0)
        port = tcp.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        loop = asyncio.get_running_loop()

        await _send(writer, {"id": "r0", "name": "qft_4"})
        # r0's batch is solving (gated) and holds the only batch slot
        await loop.run_in_executor(None, engine.started.wait, 20)
        for i in range(1, 6):  # r1, r2 admitted; r3..r5 over the bound
            await _send(writer, {"id": f"r{i}", "name": "qft_4"})
        engine.release.set()
        responses = await _read_by_id(reader, 6)
        stats = None
        try:
            await _send(writer, {"id": "s", "cmd": "stats"})
            stats = (await _read_by_id(reader, 1))["s"]
        finally:
            writer.close()
            tcp.close()
            await tcp.wait_closed()
            await server.close()

        admitted = [r for r in responses.values() if r.get("ok")]
        shed = [r for r in responses.values() if r.get("overloaded")]
        assert len(shed) == 3 and len(admitted) == 3
        assert {r["id"] for r in shed} == {"r3", "r4", "r5"}
        for refusal in shed:
            assert refusal["ok"] is False
            assert refusal["error"] == "overloaded"
            assert refusal["retry_after_s"] > 0
            assert refusal["queued"] == 2  # the backlog it bounced off
        for answer in admitted:
            assert answer["program"] == "qft_4"
        assert server.n_shed == 3
        assert stats["shed"] == 3
        assert stats["max_queue"] == 2
        assert stats["queued"] == 0  # everything admitted was drained

    _run(main(), timeout=120)


def test_flooding_client_cannot_starve_light_client(tmp_path):
    """Per-client fairness: window assembly round-robins across clients,
    so a single request rides the first batch after the flood's head —
    not the last one."""

    async def main():
        engine, server = _gated_server(
            tmp_path, "fair", window_s=0.0, max_batch=2, max_inflight=1,
        )
        tcp = await server.start_tcp("127.0.0.1", 0)
        port = tcp.sockets[0].getsockname()[1]
        loop = asyncio.get_running_loop()

        reader_a, writer_a = await asyncio.open_connection("127.0.0.1", port)
        await _send(writer_a, {"id": "a1", "name": "qft_4"})
        await loop.run_in_executor(None, engine.started.wait, 20)
        for name in ("a2", "a3", "a4"):  # the flood queues behind a1
            await _send(writer_a, {"id": name, "name": "qft_4"})
        for _ in range(2000):
            if server._pending_count == 3:
                break
            await asyncio.sleep(0.005)
        assert server._pending_count == 3
        reader_b, writer_b = await asyncio.open_connection("127.0.0.1", port)
        await _send(writer_b, {"id": "b1", "name": "qft_4"})
        engine.release.set()

        a_responses = await _read_by_id(reader_a, 4)
        b_responses = await _read_by_id(reader_b, 1)
        writer_a.close()
        writer_b.close()
        tcp.close()
        await tcp.wait_closed()
        await server.close()

        assert all(r["ok"] for r in a_responses.values())
        assert b_responses["b1"]["ok"]
        # b1 arrived after a2..a4 yet is batched before the flood's tail
        assert b_responses["b1"]["batch"] < a_responses["a4"]["batch"]

    _run(main(), timeout=120)
