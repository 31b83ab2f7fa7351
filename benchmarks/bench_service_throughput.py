"""Batch-service throughput: cold vs warm store, shards, async, workers.

Regression points. Each test prints its numbers under ``-s``; none is
copied into PERF.md, whose "Design notes behind the service benches" say
what they establish. End-to-end before/after numbers are accbench pairs,
committed as ``BENCH_pr<N>.json``.

* ``small_suite`` batch through the full service — cold store (every group
  solved + persisted) vs warm store (pure store reads, zero solves) — on a
  single-directory store and on a sharded one (``--shards N``, default 4);
  plus a warm repeat on the same service, which also skips the front end.
* the same suite served to N concurrent asyncio clients (one request per
  program) against the line-at-a-time baseline: total solves must match a
  single deduped batch, i.e. micro-batching + coalescing does its job.
* qft_16's uncovered groups on the process backend at 1/2/4/8 workers with
  the real GRAPE engine — the paper's Sec V-D parallel-compilation claim.
  Pulses must be bit-identical across worker counts (the service's
  store-seeded determinism invariant); the wall-clock assertion only fires
  on machines with >= 4 cores, the modelled (machine-independent) speedup
  is asserted everywhere.
* ``--remote``: the same suite through the full distributed fabric — a
  ``StoreServer`` + ``RemoteStore`` for persistence and a
  ``RemoteExecutor`` + two workers for solving, all over loopback TCP —
  against the all-local baseline. Quantifies the wire tax and asserts
  the warm remote run is a 100% remote-store hit with pulses
  bit-identical to the local run. Also under ``--remote``: batched
  ``get_many`` vs per-key reads, a first vs a repeated ``snapshot`` (the
  repeat must encode and decode no entry), a warm batch after a snapshot
  (no flush, no entry coded), replicated failover reads, and the
  anti-entropy idle-round cost / heal throughput.

* ``--loadgen``: the clients x shards x workers scaling sweep through the
  load harness (``repro.service.loadgen``): each cell drives an in-process
  async server with N closed-loop clients for a fixed window and reports
  ``throughput_rps`` / ``p95_latency_ms`` as a scaling table. The
  harness's wrong-answer detector runs in every cell (zero tolerated).

Run:  pytest benchmarks/bench_service_throughput.py --benchmark-only -s
      pytest benchmarks/bench_service_throughput.py --benchmark-only -s --shards 8
      pytest benchmarks/bench_service_throughput.py --benchmark-only -s --remote
      pytest benchmarks/bench_service_throughput.py --benchmark-only -s --loadgen
"""

import asyncio
import itertools
import json
import os
import time

from conftest import run_once

from repro.core.cache import PulseLibrary
from repro.core.engines import GrapeEngine
from repro.service import (
    AsyncCompileServer,
    CompilePlanner,
    CompileService,
    PulseStore,
    WorkerPoolExecutor,
    open_store,
)
from repro.utils.config import PipelineConfig
from repro.workloads import build_named, small_suite


def _suite_programs():
    # the named, non-random half of small_suite: stable workload identity
    return small_suite(6)


def test_service_batch_cold_store(benchmark, tmp_path):
    """Cold path: plan + solve + persist a 6-program batch (ModelEngine)."""
    programs = _suite_programs()

    def cold():
        service = CompileService(
            PulseStore(str(tmp_path / "cold")),
            PipelineConfig(policy_name="map2b4l"),
            backend="thread",
            n_workers=4,
        )
        return service.submit_batch(programs)

    batch = run_once(benchmark, cold)
    assert batch.n_compiled > 0
    assert batch.coverage_rate == 0.0
    print(
        f"\ncold: {batch.n_unique} unique, {batch.n_compiled} compiled, "
        f"{batch.n_shared} shared across programs, wall {batch.wall_time:.2f}s"
    )


def test_service_batch_warm_store(benchmark, tmp_path):
    """Warm path: identical batch against the store the cold run left."""
    programs = _suite_programs()
    root = str(tmp_path / "warm")
    config = PipelineConfig(policy_name="map2b4l")
    CompileService(
        PulseStore(root), config, backend="thread", n_workers=4
    ).submit_batch(programs)

    def warm():
        service = CompileService(
            PulseStore(root), config, backend="thread", n_workers=4
        )
        return service.submit_batch(programs)

    batch = run_once(benchmark, warm)
    assert batch.n_compiled == 0
    assert batch.coverage_rate == 1.0
    assert batch.store_stats["puts"] == 0
    print(
        f"\nwarm: {batch.n_unique} unique, 100% store hits, "
        f"wall {batch.wall_time:.2f}s"
    )


def test_service_batch_warm_repeat(benchmark, tmp_path):
    """Warm repeat on one service: fresh circuit objects for programs the
    service has already seen skip the front end (memo hits) and the solver
    (store hits). Counts are asserted; the wall time is only printed."""
    service = CompileService(
        PulseStore(str(tmp_path / "repeat")),
        PipelineConfig(policy_name="map2b4l"),
        backend="thread",
        n_workers=4,
    )
    service.submit_batch(_suite_programs())
    programs = _suite_programs()  # same content, new objects

    batch = run_once(benchmark, service.submit_batch, programs)
    counters = batch.perf.counters
    assert batch.n_compiled == 0
    assert counters.get("plan.front_end.hits", 0) == len(programs)
    assert counters.get("plan.front_end.misses", 0) == 0
    print(
        f"\nwarm repeat: {batch.n_unique} unique, {len(programs)} front-end "
        f"memo hits, wall {batch.wall_time * 1e3:.1f} ms"
    )


def test_service_batch_sharded_store(benchmark, tmp_path, shards):
    """Cold + warm through a sharded store: same dedup/coverage contract as
    the single directory, entries spread across the shards."""
    programs = _suite_programs()
    root = str(tmp_path / "sharded")
    config = PipelineConfig(policy_name="map2b4l")

    def cold():
        service = CompileService(
            open_store(root, shards=shards),
            config,
            backend="thread",
            n_workers=4,
        )
        return service.submit_batch(programs)

    batch = run_once(benchmark, cold)
    assert batch.n_compiled > 0
    store = open_store(root)  # auto-detects the sharded layout
    assert getattr(store, "n_shards", 1) == shards
    per_shard = [len(s) for s in getattr(store, "shards", [store])]
    assert sum(per_shard) == len(store)
    warm = CompileService(
        store, config, backend="thread", n_workers=4
    ).submit_batch(programs)
    assert warm.n_compiled == 0
    assert warm.coverage_rate == 1.0
    print(
        f"\nsharded({shards}): {batch.n_unique} unique cold-compiled, "
        f"per-shard entries {per_shard}, warm run 100% hits, "
        f"cold wall {batch.wall_time:.2f}s / warm {warm.wall_time:.2f}s"
    )


def test_service_async_clients(benchmark, tmp_path, shards):
    """Async front door: the suite as concurrent clients vs line-at-a-time.

    N clients connect at once, micro-batching folds their requests into
    few batches, and the total solve count equals one deduped batch —
    strictly fewer than the same requests served sequentially against
    per-request cold stores (no amortization).
    """
    programs = _suite_programs()
    config = PipelineConfig(policy_name="map2b4l")

    # line-at-a-time baseline: each request pays its own cold compile
    sequential_solves = 0
    t0 = time.perf_counter()
    for index, program in enumerate(programs):
        service = CompileService(
            PulseStore(str(tmp_path / f"cold{index}")),
            config,
            backend="thread",
            n_workers=4,
        )
        batch = service.submit_batch([program])
        sequential_solves += batch.n_compiled + batch.n_trivial
    sequential_wall = time.perf_counter() - t0

    async def serve_all():
        service = CompileService(
            open_store(str(tmp_path / "async"), shards=shards),
            config,
            backend="thread",
            n_workers=4,
        )
        server = AsyncCompileServer(
            service, window_s=0.05, max_batch=16, max_inflight=2
        )
        tcp = await server.start_tcp("127.0.0.1", 0)
        port = tcp.sockets[0].getsockname()[1]

        async def one_client(program):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(
                (json.dumps({"id": program.name, "name": program.name}) + "\n").encode()
            )
            await writer.drain()
            line = await reader.readline()
            writer.close()
            await writer.wait_closed()
            return json.loads(line)

        responses = await asyncio.gather(*[one_client(p) for p in programs])
        tcp.close()
        await tcp.wait_closed()
        await server.close()
        return responses, service

    t0 = time.perf_counter()
    responses, service = run_once(
        benchmark, lambda: asyncio.run(asyncio.wait_for(serve_all(), 300))
    )
    async_wall = time.perf_counter() - t0
    assert all(r["ok"] for r in responses)
    async_solves = service.store.stats.puts
    assert async_solves < sequential_solves
    print(
        f"\nasync({len(programs)} clients, {shards} shards): "
        f"{async_solves} solves vs {sequential_solves} sequential-cold, "
        f"{len({r['batch'] for r in responses})} batches, "
        f"wall {async_wall:.2f}s vs {sequential_wall:.2f}s line-at-a-time"
    )


def test_service_remote_fabric(benchmark, tmp_path, remote_mode):
    """--remote: suite batch through store server + worker fabric (loopback).

    The regression point for the distributed path: cold batch via
    RemoteStore + RemoteExecutor (2 workers) vs the all-local thread
    baseline, plus the warm remote pass (pure wire reads). The wire tax is
    the cold overhead over local; correctness gates are bit-identical
    stored pulses and a zero-solve warm run.
    """
    import threading

    from repro.service import RemoteExecutor, RemoteStore, StoreServer, worker_loop

    programs = _suite_programs()
    config = PipelineConfig(policy_name="map2b4l")

    t0 = time.perf_counter()
    local = CompileService(
        PulseStore(str(tmp_path / "local")), config, backend="thread",
        n_workers=2,
    )
    local_batch = local.submit_batch(programs)
    local_wall = time.perf_counter() - t0

    served = PulseStore(str(tmp_path / "served"))
    server = StoreServer(served).start()
    executor = RemoteExecutor()
    for _ in range(2):
        threading.Thread(
            target=worker_loop,
            args=(f"remote://127.0.0.1:{executor.port}",),
            daemon=True,
        ).start()

    def remote_cold():
        service = CompileService(
            RemoteStore(f"remote://{server.address}"),
            config,
            backend=executor,
            n_workers=2,
        )
        return service.submit_batch(programs)

    try:
        t0 = time.perf_counter()
        cold = run_once(benchmark, remote_cold)
        cold_wall = time.perf_counter() - t0
        assert cold.n_compiled == local_batch.n_compiled
        assert executor.n_local_fallback == 0

        t0 = time.perf_counter()
        warm = CompileService(
            RemoteStore(f"remote://{server.address}"),
            config,
            backend=executor,
            n_workers=2,
        ).submit_batch(programs)
        warm_wall = time.perf_counter() - t0
        assert warm.n_compiled == 0
        assert warm.coverage_rate == 1.0
        assert warm.store_stats["puts"] == 0
        assert warm.store_stats["degraded"] == 0

        # distribution never changes bytes
        local_pulses = {
            k: e.pulse.amplitudes.tobytes()
            for k in local.store.keys()
            for e in [local.store.peek_key(k)]
            if e.pulse is not None
        }
        remote_pulses = {
            k: e.pulse.amplitudes.tobytes()
            for k in served.keys()
            for e in [served.peek_key(k)]
            if e.pulse is not None
        }
        assert remote_pulses == local_pulses
    finally:
        executor.close()
        server.stop()
    print(
        f"\nremote fabric ({len(programs)} programs, 2 workers, loopback): "
        f"cold {cold_wall:.2f}s vs local {local_wall:.2f}s "
        f"(wire tax {cold_wall - local_wall:+.2f}s), "
        f"warm-remote {warm_wall:.2f}s, "
        f"{cold.n_compiled} solves dispatched over {executor.n_dispatched} parts"
    )


def test_remote_batched_reads(benchmark, tmp_path, remote_mode):
    """--remote: batched get_many vs per-key get round trips.

    The per-key ``store.remote.rpc`` round trip is the dominant wire tax of
    the remote store; ``get_many`` answers a whole key list in one
    ``store.remote.batched_rpc`` frame. This bench reads every stored key
    both ways against the same loopback server and reports wall clock and
    RPC counts — the 'before' column is what every read used to cost."""
    from repro.perf.instrument import PerfRecorder
    from repro.service import RemoteStore, StoreServer

    programs = _suite_programs()
    config = PipelineConfig(policy_name="map2b4l")
    served = PulseStore(str(tmp_path / "served"))
    server = StoreServer(served).start()
    try:
        CompileService(
            RemoteStore(f"remote://{server.address}"), config,
            backend="thread", n_workers=4,
        ).submit_batch(programs)
        keys = served.keys()
        assert keys

        perf_per_key = PerfRecorder()
        per_key_store = RemoteStore(
            f"remote://{server.address}", perf=perf_per_key
        )
        t0 = time.perf_counter()
        per_key = [per_key_store.get_key(k) for k in keys]
        per_key_wall = time.perf_counter() - t0

        perf_batched = PerfRecorder()
        batched_store = RemoteStore(
            f"remote://{server.address}", perf=perf_batched
        )
        t0 = time.perf_counter()
        batched = run_once(benchmark, batched_store.get_many, keys)
        batched_wall = time.perf_counter() - t0

        assert len(batched) == len(per_key)
        for mine, ref in zip(batched, per_key):
            assert mine is not None and ref is not None
            assert mine.group.key() == ref.group.key()
            assert mine.latency == ref.latency
        n_get = perf_per_key.counters.get("store.remote.ops.get", 0)
        n_frames = perf_batched.counters.get("store.remote.ops.get_many", 0)
        assert n_get == len(keys)
        assert n_frames == 1  # O(shards)==1 here, not O(keys)
        assert perf_batched.counters.get("store.remote.ops.get", 0) == 0
    finally:
        server.stop()
    print(
        f"\nbatched reads ({len(keys)} keys, loopback): "
        f"per-key {per_key_wall * 1e3:.1f} ms over {n_get} RPCs vs "
        f"get_many {batched_wall * 1e3:.1f} ms over {n_frames} RPC "
        f"({per_key_wall / max(batched_wall, 1e-9):.1f}x)"
    )


def _codec_calls(monkeypatch):
    """Counts the server's ``encode_entry`` and the client's
    ``decode_entry`` calls."""
    from repro.service import remote, storeserver

    calls = {"encode": 0, "decode": 0}
    real_encode, real_decode = storeserver.encode_entry, remote.decode_entry

    def encode(entry):
        calls["encode"] += 1
        return real_encode(entry)

    def decode(payload):
        calls["decode"] += 1
        return real_decode(payload)

    monkeypatch.setattr(storeserver, "encode_entry", encode)
    monkeypatch.setattr(remote, "decode_entry", decode)
    return calls


def test_remote_snapshot_memo(benchmark, tmp_path, remote_mode, monkeypatch):
    """--remote: a first and a repeated ``snapshot`` of an unchanged store.

    Every fresh batch on a remote store takes a full snapshot for its warm
    seeds. The server encodes each entry once and the client decodes each
    payload once, so a repeated snapshot of an unchanged store re-codes
    nothing and pays only the wire. Codec calls are asserted; the wall
    times are only printed."""
    from repro.service import RemoteStore, StoreServer

    calls = _codec_calls(monkeypatch)
    served = PulseStore(str(tmp_path / "served"))
    CompileService(
        served, PipelineConfig(policy_name="map2b4l"), backend="thread",
        n_workers=4,
    ).submit_batch(_suite_programs())
    server = StoreServer(served).start()  # a new server: nothing encoded yet
    client = RemoteStore(f"remote://{server.address}")
    try:
        t0 = time.perf_counter()
        first = client.snapshot()
        first_wall = time.perf_counter() - t0
        first_calls = dict(calls)
        t0 = time.perf_counter()
        repeated = run_once(benchmark, client.snapshot)
        repeated_wall = time.perf_counter() - t0
        repeated_calls = {k: calls[k] - first_calls[k] for k in calls}
    finally:
        client.close()
        server.stop()
    n_entries = len(served)
    assert len(first) == len(repeated) == n_entries > 0
    assert first_calls == {"encode": n_entries, "decode": n_entries}
    assert repeated_calls == {"encode": 0, "decode": 0}
    print(
        f"\nremote snapshot ({n_entries} entries, loopback): first "
        f"{first_wall * 1e3:.1f} ms, {first_calls['decode']} decoded; "
        f"repeated {repeated_wall * 1e3:.1f} ms, "
        f"{repeated_calls['decode']} decoded"
    )


def test_remote_warm_batch_after_snapshot(
    benchmark, tmp_path, remote_mode, monkeypatch
):
    """--remote: a warm batch over a remote store that just served a
    snapshot, as a warm read follows a fresh one under churn.

    The batch reads every group with one ``get_many`` per claim pass and
    writes nothing, so it sends no ``flush``; every hit is served from the
    snapshot memos, so no entry is encoded or decoded. Counts are
    asserted; the wall time is only printed."""
    from repro.perf.instrument import PerfRecorder
    from repro.service import RemoteStore, StoreServer

    calls = _codec_calls(monkeypatch)
    programs = _suite_programs()
    config = PipelineConfig(policy_name="map2b4l")
    served = PulseStore(str(tmp_path / "served"))
    CompileService(served, config, backend="thread", n_workers=4).submit_batch(
        programs
    )
    server = StoreServer(served).start()
    perf = PerfRecorder()
    client = RemoteStore(f"remote://{server.address}", perf=perf)
    try:
        service = CompileService(client, config, backend="serial")
        service.submit_batch(programs)  # fills the front-end memo
        client.snapshot()
        before, ops_before = dict(calls), dict(perf.counters)
        t0 = time.perf_counter()
        warm = run_once(benchmark, service.submit_batch, programs)
        wall = time.perf_counter() - t0
        coded = {name: calls[name] - before[name] for name in calls}
    finally:
        client.close()
        server.stop()
    names = {
        op: f"store.remote.ops.{op}" for op in ("get_many", "flush", "snapshot")
    }
    ops = {
        op: perf.counters.get(name, 0) - ops_before.get(name, 0)
        for op, name in names.items()
    }
    assert warm.n_compiled == warm.n_trivial == 0
    assert warm.coverage_rate == 1.0
    assert 1 <= ops["get_many"] <= 2  # one per claim pass
    assert ops["flush"] == ops["snapshot"] == 0
    assert coded == {"encode": 0, "decode": 0}
    print(
        f"\nwarm remote batch after a snapshot ({len(programs)} programs, "
        f"{warm.n_unique} groups, loopback): {wall * 1e3:.1f} ms, "
        f"{ops['get_many']} get_many, {ops['flush']} flush, "
        f"{coded['encode']} encoded, {coded['decode']} decoded"
    )


def test_replicated_store_failover_reads(benchmark, tmp_path, remote_mode):
    """--remote: 2-replica store, primary killed, warm batch from survivor.

    The failover-read regression point: a cold suite batch
    fans writes to both replicas bit-identically; with the primary dead the
    same batch is still a 100% hit — every read costs one counted failover
    probe against the dead primary plus the survivor's answer."""
    from repro.service import ReplicatedStore, StoreServer

    programs = _suite_programs()
    config = PipelineConfig(policy_name="map2b4l")
    locals_ = [PulseStore(str(tmp_path / f"replica{i}")) for i in range(2)]
    servers = [StoreServer(store).start() for store in locals_]
    spec = f"remote://{servers[0].address}|{servers[1].address}"
    try:
        t0 = time.perf_counter()
        cold = CompileService(
            ReplicatedStore(spec), config, backend="thread", n_workers=4
        ).submit_batch(programs)
        cold_wall = time.perf_counter() - t0
        assert cold.n_compiled > 0
        assert set(locals_[0].keys()) == set(locals_[1].keys())

        servers[0].stop()  # kill the primary

        def warm_failover():
            service = CompileService(
                ReplicatedStore(spec, timeout_s=2.0), config,
                backend="thread", n_workers=4,
            )
            return service.submit_batch(programs), service

        t0 = time.perf_counter()
        (warm, service) = run_once(benchmark, warm_failover)
        warm_wall = time.perf_counter() - t0
        assert warm.n_compiled == 0
        assert warm.coverage_rate == 1.0
        stats = service.store.stats
        assert stats.hits > 0
        assert stats.failovers > 0
    finally:
        for server in servers:
            server.stop()
    print(
        f"\nreplicated failover ({len(programs)} programs, 2 replicas): "
        f"cold fan-out {cold_wall:.2f}s, warm-with-dead-primary "
        f"{warm_wall:.2f}s, {stats.failovers} failover probes, "
        f"{stats.hits:.0f} hits from the survivor"
    )


def test_antientropy_idle_and_heal(benchmark, tmp_path, remote_mode):
    """--remote: anti-entropy idle cost and heal throughput.

    Two numbers an operator sizes ``--anti-entropy-interval`` with: what a
    round costs once the fleet has converged (one constant-size
    ``keys_digest`` probe per peer per interval — the steady-state tax;
    the pre-digest full ``keys`` exchange is measured alongside for the
    payload comparison), and how fast a freshly revived empty replica
    pulls a full store over loopback (the recovery rate)."""
    from repro.service import AntiEntropyLoop, StoreServer

    programs = _suite_programs()
    config = PipelineConfig(policy_name="map2b4l")
    source = PulseStore(str(tmp_path / "source"))
    CompileService(
        source, config, backend="thread", n_workers=4
    ).submit_batch(programs)
    n_entries = len(source)
    assert n_entries > 0

    server = StoreServer(source).start()
    loop = None
    try:
        # heal throughput: an empty replica pulls the whole store in one
        # round (the kill -9 recovery path, minus the compile time it saves)
        healer = PulseStore(str(tmp_path / "healer"))
        loop = AntiEntropyLoop(
            healer, f"127.0.0.1:{server.port}", interval_s=3600.0
        )
        t0 = time.perf_counter()
        summary = run_once(benchmark, loop.run_round)
        heal_wall = time.perf_counter() - t0
        assert summary["keys_healed"] == n_entries
        assert summary["skipped_unreachable"] == 0
        healed_bytes = summary["bytes"]

        # idle cost: converged fleet, a round is one constant-size
        # keys_digest probe per peer (the digest fast path)
        idle_rounds = 20
        t0 = time.perf_counter()
        for _ in range(idle_rounds):
            assert loop.run_round()["keys_healed"] == 0
        idle_wall = time.perf_counter() - t0
        assert loop.counters["keys_healed"] == n_entries
        assert loop.counters["digest_skips"] == idle_rounds

        # the pre-digest baseline: what an idle round used to ship — the
        # full key list per peer per interval
        from repro.service import RemoteStore

        probe = RemoteStore(f"remote://127.0.0.1:{server.port}")
        t0 = time.perf_counter()
        for _ in range(idle_rounds):
            assert len(probe.fetch_keys()) == n_entries
        full_wall = time.perf_counter() - t0
        probe.close()
    finally:
        if loop is not None:
            loop.stop()
        server.stop()
    print(
        f"\nanti-entropy (loopback, {n_entries} entries, "
        f"{healed_bytes / 1e3:.0f} kB): heal {heal_wall * 1e3:.1f} ms "
        f"({n_entries / max(heal_wall, 1e-9):.0f} entries/s), idle round "
        f"{idle_wall / idle_rounds * 1e3:.2f} ms via keys_digest vs "
        f"{full_wall / idle_rounds * 1e3:.2f} ms full keys exchange "
        f"(x{idle_rounds})"
    )


def test_fleet_audit_probe_cost(benchmark, tmp_path, remote_mode):
    """--remote: one full read-only audit pass over a 2-replica fleet.

    The auditor's promise is two RPCs per replica (``keys_digest`` +
    ``stats``) regardless of store size — this times a whole
    ``repro store audit`` pass against a converged loopback pair, the
    number an operator compares against their CI budget."""
    from repro.service import FleetAuditor, StoreServer, exit_code_for

    programs = _suite_programs()
    config = PipelineConfig(policy_name="map2b4l")
    locals_ = [PulseStore(str(tmp_path / f"replica{i}")) for i in range(2)]
    servers = [StoreServer(store).start() for store in locals_]
    spec = f"remote://{servers[0].address}|{servers[1].address}"
    try:
        from repro.service import ReplicatedStore

        CompileService(
            ReplicatedStore(spec), config, backend="thread", n_workers=4
        ).submit_batch(programs)
        n_entries = len(locals_[0])
        assert n_entries > 0

        auditor = FleetAuditor(spec, timeout_s=5.0)
        t0 = time.perf_counter()
        findings = run_once(benchmark, auditor.run)
        audit_wall = time.perf_counter() - t0
        assert findings == []
        assert exit_code_for(findings) == 0
    finally:
        for server in servers:
            server.stop()
    print(
        f"\nfleet audit (loopback, 2 replicas, {n_entries} entries): "
        f"clean pass {audit_wall * 1e3:.1f} ms"
    )


def test_loadgen_scaling_sweep(benchmark, tmp_path, loadgen_mode):
    """--loadgen: clients x shards x workers through the load harness.

    Every cell is one short closed-loop run of the ``qft-small`` traffic
    mix against a fresh in-process async server — cold at the start of
    the window, warm by the end, the way real traffic ramps. The printed
    table is the scaling curve; the correctness gates are the
    harness's own (every request answered, zero wrong answers)."""
    from repro.service.loadgen import InProcessServer, Scenario, drive, percentile
    from repro.service import open_store

    config = PipelineConfig(policy_name="map2b4l")
    WINDOW_S = 3.5
    rows = []
    cells = [
        (clients, shards, workers)
        for clients in (1, 2, 4)
        for shards in (1, 2)
        for workers in (1, 2)
    ]
    for index, (clients, shards, workers) in enumerate(cells):
        scenario = Scenario(
            name=f"sweep-c{clients}s{shards}w{workers}", mix="qft-small",
            arrival="closed", clients=clients, duration_s=WINDOW_S,
            shards=shards, workers=workers,
        )
        service = CompileService(
            open_store(str(tmp_path / f"cell{index}"), shards=shards),
            config, backend="thread", n_workers=workers,
        )
        server = InProcessServer(service, window_s=0.01)
        port = server.start()
        runner = (
            (lambda: run_once(benchmark, drive, "127.0.0.1", port, scenario))
            if (clients, shards, workers) == (4, 2, 2)  # the headline cell
            else (lambda: drive("127.0.0.1", port, scenario))
        )
        try:
            result = runner()
        finally:
            server.stop()
        assert result.requests > 0
        assert result.errors == 0 and result.sheds == 0
        assert result.wrong_answers == 0
        rows.append((
            clients, shards, workers,
            result.ok / max(result.duration_s, 1e-9),
            percentile(result.latencies_ms, 50),
            percentile(result.latencies_ms, 95),
        ))

    print(
        f"\n{'clients':>8} | {'shards':>6} | {'workers':>7} | "
        f"{'rps':>7} | {'p50 ms':>7} | {'p95 ms':>7}"
    )
    print("-" * 58)
    for clients, shards, workers, rps, p50, p95 in rows:
        print(
            f"{clients:8d} | {shards:6d} | {workers:7d} | "
            f"{rps:7.1f} | {p50:7.1f} | {p95:7.1f}"
        )


def _store_snapshot(store):
    """{key: (latency, iterations)} — the scheduling-invariant result."""
    return {
        key: (entry.latency, entry.iterations)
        for key in store.keys()
        for entry in [store.peek_key(key)]
    }


def _simulated_worker(spec, per_task_s, stop):
    """A solver worker on simulated hardware: the real wire protocol and
    the real solves, plus ``per_task_s`` of sleep per task — reported
    honestly in the outcome's ``wall_s`` so the scheduler's capability
    EWMA sees the machine the fleet actually has. A 10x ``per_task_s``
    is the bench's reproducible straggler."""
    import socket as socket_mod

    from repro.service.executor import run_part_payload
    from repro.service.remote import parse_remote_spec

    host, port = parse_remote_spec(spec)
    deadline = time.monotonic() + 30
    while True:
        try:
            sock = socket_mod.create_connection((host, port), timeout=5.0)
            break
        except OSError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.05)
    sock.settimeout(None)
    with sock, sock.makefile("rwb") as stream:
        stream.write(b'{"op": "hello"}\n')
        stream.flush()
        for line in stream:
            message = json.loads(line)
            if message.get("op") == "close" or stop.is_set():
                break
            if message.get("op") != "part":
                continue
            started = time.perf_counter()
            outcome = run_part_payload(message["payload"])
            time.sleep(per_task_s * len(message["payload"]["tasks"]))
            outcome["wall_s"] = time.perf_counter() - started
            reply = {
                "op": "outcome",
                "job": message.get("job"),
                "payload": outcome,
            }
            stream.write((json.dumps(reply) + "\n").encode())
            stream.flush()


def test_scheduler_worker_sweep(benchmark, tmp_path, scheduler_mode):
    """--scheduler: the suite batch over the fabric at 1/2/4 workers x
    parts-per-worker 1/2 (printed as a table). Every cell must produce the
    serial result — the scheduler moves parts, never bytes — with zero
    local fallbacks; the wall column shows what reservation depth buys
    once dispatch latency can hide behind compute."""
    import threading

    from repro.service import RemoteExecutor, worker_loop

    programs = _suite_programs()
    config = PipelineConfig(policy_name="map2b4l")
    serial = CompileService(
        PulseStore(str(tmp_path / "serial")), config, backend="serial",
        n_workers=8,
    )
    reference = serial.submit_batch(programs)
    expected = _store_snapshot(serial.store)

    rows = []
    for n_workers in (1, 2, 4):
        for ppw in (1, 2):
            executor = RemoteExecutor(
                wait_workers_s=30.0, parts_per_worker=ppw
            )
            for _ in range(n_workers):
                threading.Thread(
                    target=worker_loop,
                    args=(f"remote://127.0.0.1:{executor.port}",),
                    daemon=True,
                ).start()
            service = CompileService(
                PulseStore(str(tmp_path / f"w{n_workers}p{ppw}")),
                config,
                backend=executor,
                n_workers=8,
            )
            runner = (
                (lambda: run_once(benchmark, service.submit_batch, programs))
                if (n_workers, ppw) == (4, 2)
                else (lambda: service.submit_batch(programs))
            )
            try:
                t0 = time.perf_counter()
                batch = runner()
                wall = time.perf_counter() - t0
                stats = executor.stats()
            finally:
                executor.close()
            assert batch.n_compiled == reference.n_compiled
            assert batch.total_iterations == reference.total_iterations
            assert _store_snapshot(service.store) == expected
            assert executor.n_local_fallback == 0
            assert stats["parts_queued"] == 0
            rows.append((n_workers, ppw, wall, stats["n_dispatched"]))

    print(f"\n{'workers':>8} | {'parts/worker':>12} | {'wall s':>8} | parts")
    print("-" * 46)
    for n_workers, ppw, wall, parts in rows:
        print(f"{n_workers:8d} | {ppw:12d} | {wall:8.2f} | {parts}")


def _static_lpt_makespan(plan, fleet):
    """Modelled wall of ``plan``'s parts under static LPT placement.

    Heaviest part first, each onto the least-loaded worker by modelled
    weight, never rebalanced: the schedule the fabric used before it
    stole work. A part costs its task count times its worker's per-task
    sleep (``fleet``, one entry per worker); solve time is left out. The
    fleet's workers take the placement's shares in the order that ends
    soonest, so the straggler gets its luckiest share.
    """
    loads = [0.0] * len(fleet)
    tasks = [0] * len(fleet)
    for part in sorted(plan.worker_plans, key=lambda p: -p.weight):
        k = loads.index(min(loads))
        loads[k] += part.weight
        tasks[k] += len(part.indices)
    return min(
        max(n * per_task_s for n, per_task_s in zip(tasks, order))
        for order in itertools.permutations(fleet)
    )


def test_scheduler_straggler_steal_vs_static(tmp_path, scheduler_mode):
    """--scheduler: 3 workers, one 10x slower. Work stealing must finish
    the batch >= 1.3x sooner than static LPT placement would, with steals
    observed and results identical to the serial run. The static baseline
    is computed by :func:`_static_lpt_makespan`, not run: the fabric has
    no static policy."""
    import threading

    from repro.service import RemoteExecutor

    programs = _suite_programs()
    config = PipelineConfig(policy_name="map2b4l")
    # n_workers=16 cuts fine-grained parts: the scenario's contrast is the
    # schedule, and coarse parts would hide it behind one giant in-flight
    # part no policy can preempt.
    serial = CompileService(
        PulseStore(str(tmp_path / "serial")), config, backend="serial",
        n_workers=16,
    )
    reference = serial.submit_batch(programs)
    expected = _store_snapshot(serial.store)

    PER_TASK_S = 0.03  # simulated healthy-machine cost per task
    fleet = (PER_TASK_S, PER_TASK_S, 10 * PER_TASK_S)
    planner = CompilePlanner(serial.pipeline, similarity=config.similarity)
    plan = planner.plan(programs)
    static_s = _static_lpt_makespan(
        planner.cut(plan, plan.uncovered, 16), fleet
    )

    executor = RemoteExecutor(wait_workers_s=30.0, parts_per_worker=2)
    stop = threading.Event()
    spec = f"remote://127.0.0.1:{executor.port}"
    for per_task in fleet:
        threading.Thread(
            target=_simulated_worker,
            args=(spec, per_task, stop),
            daemon=True,
        ).start()
    deadline = time.monotonic() + 30
    while executor.live_workers() < len(fleet):
        assert time.monotonic() < deadline, "fleet never assembled"
        time.sleep(0.05)
    service = CompileService(
        PulseStore(str(tmp_path / "steal")), config, backend=executor,
        n_workers=16,
    )
    try:
        t0 = time.perf_counter()
        batch = service.submit_batch(programs)
        steal_s = time.perf_counter() - t0
    finally:
        stop.set()
        executor.close()
    assert batch.n_compiled == reference.n_compiled
    assert batch.total_iterations == reference.total_iterations
    assert _store_snapshot(service.store) == expected
    assert executor.n_local_fallback == 0

    speedup = static_s / steal_s
    print(
        f"\nstraggler (3 workers, one 10x slower): static LPT "
        f"{static_s:.2f}s (computed) vs steal {steal_s:.2f}s "
        f"({speedup:.2f}x, {executor.n_steals} steal(s))"
    )
    assert executor.n_steals > 0
    assert speedup >= 1.3, (
        f"steal policy only {speedup:.2f}x over static LPT"
    )


def test_service_worker_scaling_qft16(benchmark):
    """Acceptance: qft_16 uncovered groups, GRAPE, process pools of 1->8
    workers. Bit-identical pulses at every worker count; >= 2x speedup at
    4 workers — modelled everywhere, wall-clock where the cores exist.
    Each pool is closed before the next is built, so none outlives it."""
    config = PipelineConfig(policy_name="map2b4l")
    engine = GrapeEngine(config.physics, config.run.fast())
    from repro.core.pipeline import AccQOC

    pipeline = AccQOC(config, engine=engine)
    planner = CompilePlanner(pipeline)
    empty = PulseLibrary()
    program = build_named("qft_16")
    whole = planner.plan([program])

    walls = {}
    pulses = {}
    plans = {}
    for k in (1, 2, 4, 8):
        plan = planner.cut(whole, whole.uncovered, k)
        plans[k] = plan
        with WorkerPoolExecutor(engine, backend="process", n_workers=k) as executor:
            start = time.perf_counter()
            if k == 4:  # the acceptance point carries the benchmark timing
                records = run_once(benchmark, executor.run, plan, empty)
            else:
                records = executor.run(plan, empty)
            walls[k] = time.perf_counter() - start
        pulses[k] = {
            plan.uncovered[i].key(): r.pulse.amplitudes.tobytes()
            for i, r in enumerate(records)
        }

    print(f"\n{'workers':>8} | {'wall s':>8} | {'modelled speedup':>16}")
    print("-" * 40)
    for k in (1, 2, 4, 8):
        print(
            f"{k:8d} | {walls[k]:8.2f} | {plans[k].modelled_speedup:15.2f}x"
        )

    # bit-identical across every worker count (store-seeded determinism)
    for k in (2, 4, 8):
        assert pulses[k] == pulses[1], f"results diverge at {k} workers"

    # >= 2x at 4 workers: modelled always; wall-clock where cores exist
    assert plans[4].modelled_speedup >= 2.0
    if (os.cpu_count() or 1) >= 4:
        assert walls[1] / walls[4] >= 2.0, (
            f"wall speedup {walls[1] / walls[4]:.2f}x < 2x on "
            f"{os.cpu_count()} cores"
        )
