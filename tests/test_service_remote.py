"""Remote store + remote worker fabric: protocol, degradation, bit-identity.

The contract under test: distribution never changes bytes. A batch through
``RemoteStore`` + ``RemoteExecutor`` persists pulses bit-identical to the
same batch on a local store with the serial executor; a dead store server
degrades to misses (slower, never wrong, never a crash); a worker
disconnect reassigns its part; a fingerprint mismatch is refused loudly
across the wire.
"""

import ast
import base64
import json
import os
import pickle
import socket
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.circuits.gates import Gate
from repro.core.cache import LibraryEntry, entry_to_dict
from repro.core.engines import GrapeEngine, ModelEngine, engine_spec
from repro.grouping.group import GateGroup
from repro.qoc.pulse import Pulse
from repro.service import (
    CompileService,
    PulseStore,
    RemoteExecutor,
    RemoteStore,
    RetryPolicy,
    ShardedStore,
    StoreServer,
    StoreVersionError,
    open_store,
    parse_route,
    worker_loop,
)
from repro.service.executor import (
    GroupTask,
    decode_outcome,
    encode_part,
    seed_tag_for,
)
from repro.service.remote import parse_route_params, retry_from_params
from repro.service.sharding import shard_of
from repro.service.store import key_digest
from repro.utils.config import PipelineConfig
from repro.workloads import build_named, qft

CONFIG = dict(policy_name="map2b4l")


@pytest.fixture
def config():
    return PipelineConfig(**CONFIG)


def _serve(tmp_path, name="served", **store_kwargs):
    """A StoreServer over a fresh local PulseStore; caller stops it."""
    store = PulseStore(str(tmp_path / name), **store_kwargs)
    server = StoreServer(store).start()
    return server, store


def _start_worker(executor: RemoteExecutor) -> threading.Thread:
    thread = threading.Thread(
        target=worker_loop,
        args=(f"remote://127.0.0.1:{executor.port}",),
        daemon=True,
    )
    thread.start()
    return thread


def _stored_pulses(store):
    """{digest: amplitude bytes} for every pulse-carrying entry."""
    return {
        key_digest(key): store.peek_key(key).pulse.amplitudes.tobytes()
        for key in store.keys()
        if store.peek_key(key).pulse is not None
    }


# ------------------------------------------------------------ accounting
@pytest.mark.parametrize("kind", ["local", "sharded", "remote"])
def test_each_unique_key_counts_one_hit_or_miss_per_batch(
    tmp_path, config, kind
):
    """The claim read is a batch's only store read: per batch, hits equal
    the covered groups and misses the solved ones (pool plus trivial),
    cold and then warm."""
    server = None
    if kind == "local":
        store = PulseStore(str(tmp_path / "s"))
    elif kind == "sharded":
        store = open_store(str(tmp_path / "s"), shards=2)
    else:
        server, _ = _serve(tmp_path)
        store = RemoteStore(f"remote://{server.address}")
    try:
        service = CompileService(store, config, backend="serial")
        for warm in (False, True):
            before = store.stats
            batch = service.submit_batch([qft(4), qft(5)])
            after = store.stats
            assert after.hits - before.hits == batch.n_covered
            assert (
                after.misses - before.misses
                == batch.n_compiled + batch.n_trivial
            )
            assert (batch.n_compiled == 0) == warm
        assert batch.n_covered == batch.n_unique
    finally:
        if server is not None:
            server.stop()


# ------------------------------------------------------------ retry policy
def test_retry_policy_bounds_and_backoff():
    policy = RetryPolicy(attempts=3, base_s=0.1, cap_s=0.3, jitter=False)
    assert policy.should_retry(1, deadline=None)
    assert policy.should_retry(2, deadline=None)
    assert not policy.should_retry(3, deadline=None)  # attempts exhausted
    assert not policy.should_retry(1, deadline=time.monotonic() - 1)
    # exponential growth, capped
    assert policy.delay_s(0) == pytest.approx(0.1)
    assert policy.delay_s(1) == pytest.approx(0.2)
    assert policy.delay_s(2) == pytest.approx(0.3)  # capped, not 0.4
    assert policy.delay_s(10) == pytest.approx(0.3)
    # jitter stays within 50-100% of the nominal delay
    jittered = RetryPolicy(attempts=3, base_s=0.1, cap_s=0.3)
    for k in range(3):
        nominal = policy.delay_s(k)
        for _ in range(20):
            assert 0.5 * nominal <= jittered.delay_s(k) <= nominal
    # a nearly-spent deadline truncates the sleep
    assert policy.delay_s(2, deadline=time.monotonic() + 0.01) <= 0.01
    with pytest.raises(ValueError):
        RetryPolicy(attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(base_s=0.0)


def test_retry_policy_call_retries_then_raises():
    calls = []
    torn_down = []

    def flaky():
        calls.append(1)
        if len(calls) < 3:
            raise ConnectionError("still down")
        return "up"

    policy = RetryPolicy(attempts=3, base_s=0.001, cap_s=0.002)
    assert policy.call(flaky, on_failure=lambda: torn_down.append(1)) == "up"
    assert len(calls) == 3
    assert len(torn_down) == 2  # every failed attempt tore the socket down

    def dead():
        raise ConnectionError("always down")

    started = time.monotonic()
    with pytest.raises(ConnectionError):
        policy.call(dead)
    assert time.monotonic() - started < 1.0  # bounded, not a stall


def test_parse_route_params_and_specs():
    replicas, params = parse_route("remote://h1:1|h2:2?w=majority&retries=4")
    assert replicas == ["remote://h1:1", "h2:2"]
    assert params == {"w": "majority", "retries": "4"}
    assert parse_route("remote://h1:1") == (["remote://h1:1"], {})
    policy = retry_from_params(
        parse_route_params("retries=5&backoff=0.1&cap=2")
    )
    assert policy.attempts == 5
    assert policy.base_s == pytest.approx(0.1)
    assert policy.cap_s == pytest.approx(2.0)
    assert retry_from_params({"w": "majority"}) is None  # default policy
    # the cap can never undercut the base
    assert retry_from_params({"backoff": "3", "cap": "1"}).cap_s == 3.0
    for garbage in (
        "w=sometimes",      # unknown write concern
        "w=majority&w=all",  # duplicate
        "quorum=2",          # unknown param
        "retries=0",         # non-positive
        "retries=soon",
        "backoff=-1",
        "backoff=fast",
        "cap=0",
        "w=",                # missing value
        "majority",          # missing '='
    ):
        with pytest.raises(ValueError):
            parse_route_params(garbage)
    # RemoteStore accepts retry params but refuses replica lists and
    # write concerns (those belong to open_store / ReplicatedStore)
    tuned = RemoteStore("remote://127.0.0.1:9?retries=2&backoff=0.01")
    assert tuned.retry.attempts == 2
    with pytest.raises(ValueError):
        RemoteStore("remote://h1:1|h2:2?retries=2")
    with pytest.raises(ValueError):
        RemoteStore("remote://127.0.0.1:9?w=majority")


# ------------------------------------------------------------------- store
def test_remote_store_roundtrip(tmp_path, config):
    server, local = _serve(tmp_path)
    try:
        remote = RemoteStore(f"remote://{server.address}")
        service = CompileService(
            PulseStore(str(tmp_path / "feed")), config, backend="serial"
        )
        service.submit_batch([qft(4)])  # some entries to copy over
        entries = [
            service.store.peek_key(k) for k in service.store.keys()
        ]
        for entry in entries:
            remote.put(entry, flush=False)
        remote.flush()
        assert len(remote) == len(entries)
        assert remote.stats.puts == len(entries)
        for entry in entries:
            key = entry.group.key()
            assert entry.group in remote
            got = remote.get_key(key)
            assert got is not None
            assert got.latency == entry.latency
            if entry.pulse is not None:
                assert (
                    got.pulse.amplitudes.tobytes()
                    == entry.pulse.amplitudes.tobytes()
                )
        assert remote.stats.hits == len(entries)
        assert remote.get_key(b"\x00" * 8) is None
        assert remote.stats.misses == 1
        # the server's store really holds the bytes (durable, reloadable)
        assert _stored_pulses(local) == _stored_pulses(
            PulseStore(str(tmp_path / "served"))
        )
        snapshot = remote.snapshot()
        assert set(snapshot.keys()) == set(local.keys())
        stats = remote.server_stats()
        assert stats is not None and stats["entries"] == len(entries)
    finally:
        server.stop()


def test_remote_store_reconnects_after_server_restart(tmp_path, config):
    """Reconnect-and-retry-once: a bounced server is invisible to the
    client beyond the one retried request."""
    server, _ = _serve(tmp_path)
    port = server.port
    remote = RemoteStore(f"remote://127.0.0.1:{port}")
    assert remote.get_key(b"missing!") is None  # connection established
    server.stop()
    # Same store directory, same port: a restarted server. (The old
    # connection's teardown can hold the port for a beat; retry briefly.)
    store = PulseStore(str(tmp_path / "served"))
    revived = None
    for _ in range(50):
        try:
            revived = StoreServer(store, port=port).start()
            break
        except OSError:
            time.sleep(0.1)
    assert revived is not None, "could not rebind the server port"
    try:
        assert remote.get_key(b"missing!") is None  # retried, not crashed
        assert remote.stats.degraded == 0
    finally:
        revived.stop()


def test_remote_store_degrades_to_miss_when_server_dead(tmp_path, config):
    server, _ = _serve(tmp_path)
    remote = RemoteStore(f"remote://{server.address}", timeout_s=2.0)
    remote.flush()  # touch the live server once
    server.stop()
    assert remote.get_key(b"anything") is None
    assert len(remote.snapshot()) == 0
    assert remote.keys() == []
    from repro.core.cache import LibraryEntry
    from repro.grouping.group import GateGroup
    from repro.circuits.gates import Gate

    entry = LibraryEntry(
        group=GateGroup(gates=[Gate("h", (0,))], node_indices=(0,)),
        pulse=None,
        latency=1.0,
        iterations=1,
    )
    remote.put(entry)  # dropped, not raised
    remote.flush()
    assert remote.stats.degraded >= 4
    assert remote.stats.puts == 0


def test_remote_fingerprint_mismatch_is_loud(tmp_path, config):
    """The engine-identity guard holds across the wire: the server's store
    carries the stamp, and a mismatching remote client is refused."""
    server, _ = _serve(tmp_path)
    try:
        RemoteStore(f"remote://{server.address}").claim_fingerprint("model-a")
        again = RemoteStore(f"remote://{server.address}")
        again.claim_fingerprint("model-a")  # same identity: fine
        with pytest.raises(StoreVersionError):
            again.claim_fingerprint("grape-b")
        # ... and through the service front: a GRAPE client on a store a
        # model engine populated must fail at construction.
        with pytest.raises(StoreVersionError):
            CompileService(
                RemoteStore(f"remote://{server.address}"),
                config,
                engine=GrapeEngine(config.physics, config.run.fast()),
                backend="serial",
            )
    finally:
        server.stop()


# -------------------------------------------------------------- acceptance
def test_remote_fabric_bit_identical_to_local_serial(tmp_path, config):
    """ISSUE acceptance: RemoteStore + RemoteExecutor persist pulses
    bit-identical to a local-store serial run, and a second remote batch
    is a 100% remote-store hit."""
    program = build_named("4gt4-v0")

    local = CompileService(
        PulseStore(str(tmp_path / "local")),
        config,
        engine=GrapeEngine(config.physics, config.run.fast()),
        backend="serial",
        n_workers=2,
    )
    local_batch = local.submit_batch([program])
    assert local_batch.n_compiled > 0

    server, served = _serve(tmp_path)
    executor = RemoteExecutor()
    _start_worker(executor)
    try:
        remote_service = CompileService(
            RemoteStore(f"remote://{server.address}"),
            config,
            engine=GrapeEngine(config.physics, config.run.fast()),
            backend=executor,
            n_workers=2,
        )
        batch = remote_service.submit_batch([program])
        assert batch.n_compiled == local_batch.n_compiled
        assert executor.n_dispatched > 0
        assert executor.n_local_fallback == 0
        assert _stored_pulses(served) == _stored_pulses(local.store)

        warm = CompileService(
            RemoteStore(f"remote://{server.address}"),
            config,
            engine=GrapeEngine(config.physics, config.run.fast()),
            backend=executor,
            n_workers=2,
        ).submit_batch([program])
        assert warm.n_compiled == 0
        assert warm.n_trivial == 0
        assert warm.coverage_rate == 1.0
    finally:
        executor.close()
        server.stop()


class _ServerKillingEngine(ModelEngine):
    """Stops the store server the moment the first solve starts — the
    deterministic 'store dies mid-batch' scenario."""

    def __init__(self, physics):
        super().__init__(physics)
        self.server = None
        self.killed = False

    def compile_group(self, group, **kwargs):
        if not self.killed and self.server is not None:
            self.killed = True
            self.server.stop()
        return super().compile_group(group, **kwargs)


def test_store_server_killed_mid_batch_degrades_and_completes(
    tmp_path, config
):
    """Satellite: the store dying mid-batch costs cache writes, nothing
    else — the batch completes with results identical to a cold local run."""
    programs = [qft(4), qft(5)]
    reference = CompileService(
        PulseStore(str(tmp_path / "ref")), config, backend="serial"
    ).submit_batch(programs)

    server, served = _serve(tmp_path)
    engine = _ServerKillingEngine(config.physics)
    engine.server = server
    service = CompileService(
        RemoteStore(f"remote://{server.address}", timeout_s=2.0),
        config,
        engine=engine,
        backend="serial",
    )
    batch = service.submit_batch(programs)
    assert engine.killed
    assert service.store.stats.degraded > 0
    assert batch.n_compiled == reference.n_compiled
    assert batch.total_iterations == reference.total_iterations
    for mine, ref in zip(batch.requests, reference.requests):
        assert mine.overall_latency == ref.overall_latency
        assert mine.gate_based_latency == ref.gate_based_latency
        assert mine.compile_iterations == ref.compile_iterations
    # every cache write was dropped on the floor, loudly counted
    assert len(PulseStore(str(tmp_path / "served"))) == 0


# ------------------------------------------------------------------ fabric
def test_worker_disconnect_mid_part_reassigns(tmp_path, config):
    """Satellite: a worker dying with a part in flight strands nothing —
    the part is requeued and another worker (or the local fallback)
    finishes the batch, with results identical to a serial run."""
    reference = CompileService(
        PulseStore(str(tmp_path / "ref")), config, backend="serial",
        n_workers=2,
    ).submit_batch([qft(5)])

    executor = RemoteExecutor(wait_workers_s=10.0)
    got_part = threading.Event()
    release = threading.Event()

    def flaky():
        sock = socket.create_connection(("127.0.0.1", executor.port))
        with sock, sock.makefile("rwb") as stream:
            stream.write(b'{"op": "hello"}\n')
            stream.flush()
            stream.readline()  # receive one part...
            got_part.set()
            release.wait(30)
        # ...and die without ever answering it

    def orchestrate():
        if not got_part.wait(30):
            release.set()
            return
        _start_worker(executor)  # a healthy replacement dials in
        deadline = time.monotonic() + 20
        while executor.live_workers() < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        release.set()

    threading.Thread(target=flaky, daemon=True).start()
    threading.Thread(target=orchestrate, daemon=True).start()

    service = CompileService(
        PulseStore(str(tmp_path / "fabric")),
        config,
        backend=executor,
        n_workers=2,
    )
    try:
        batch = service.submit_batch([qft(5)])
    finally:
        executor.close()
    assert got_part.is_set()
    assert executor.n_reassigned >= 1
    assert batch.n_compiled == reference.n_compiled
    assert batch.total_iterations == reference.total_iterations
    assert (
        batch.requests[0].overall_latency
        == reference.requests[0].overall_latency
    )


def test_worker_survives_idle_gaps_between_batches(tmp_path, config):
    """A worker must block indefinitely between parts: a lingering connect
    timeout would crash idle workers out of the fabric (regression)."""
    executor = RemoteExecutor(wait_workers_s=10.0)
    service = CompileService(
        PulseStore(str(tmp_path / "s")), config, backend=executor,
        n_workers=2,
    )
    try:
        _start_worker(executor)
        first = service.submit_batch([qft(4)])
        assert first.n_compiled > 0
        time.sleep(5.6)  # longer than the 5s connect timeout
        assert executor.live_workers() == 1, "worker died while idle"
        second = service.submit_batch([qft(5)])
        assert second.n_compiled > 0
        assert executor.n_local_fallback == 0
    finally:
        executor.close()


def test_worker_dials_in_when_fabric_comes_up_late(tmp_path, config):
    """Satellite: scripted deployments start workers and fabric at once,
    so the dial-in loop must keep retrying (jittered backoff, not a fixed
    spin) until the fabric's listener appears — and then serve batches."""
    # Reserve a port, start the worker against it *before* any listener
    # exists, then bring the fabric up on that port.
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()

    handled = {}

    def late_dialer():
        handled["parts"] = worker_loop(
            f"remote://127.0.0.1:{port}", connect_timeout_s=30.0
        )

    thread = threading.Thread(target=late_dialer, daemon=True)
    thread.start()
    time.sleep(0.5)  # the worker is already dialing a dead address
    executor = RemoteExecutor(port=port, wait_workers_s=15.0)
    service = CompileService(
        PulseStore(str(tmp_path / "s")), config, backend=executor,
        n_workers=2,
    )
    try:
        batch = service.submit_batch([qft(4)])
        assert batch.n_compiled > 0
        assert executor.n_dispatched > 0
        assert executor.n_local_fallback == 0
    finally:
        executor.close()
    thread.join(timeout=10)
    assert handled.get("parts", 0) > 0

    # ... and a bounded dial gives up loudly once its budget is spent
    with pytest.raises(OSError):
        worker_loop(
            f"remote://127.0.0.1:{port}",
            connect_timeout_s=0.3,
            retry=RetryPolicy(attempts=2, base_s=0.01, cap_s=0.05),
        )


def test_remote_executor_runs_locally_when_no_worker_connects(
    tmp_path, config
):
    """An empty fabric must not strand a batch: after the wait window the
    dispatcher runs the parts in-process."""
    executor = RemoteExecutor(wait_workers_s=0.2)
    service = CompileService(
        PulseStore(str(tmp_path / "s")), config, backend=executor,
        n_workers=2,
    )
    try:
        batch = service.submit_batch([qft(4)])
    finally:
        executor.close()
    assert batch.n_compiled > 0
    assert executor.n_local_fallback > 0
    assert executor.n_dispatched == 0


def test_fabric_stats_verb_reports_occupancy(tmp_path, config):
    """Satellite: the ``stats`` op answers an occupancy snapshot without
    enrolling as a solver — worker head-count, parts in flight/queued,
    and per-worker part/solve-time tallies that add up to the dispatch
    counters."""
    from repro.service import fabric_stats

    executor = RemoteExecutor(wait_workers_s=10.0)
    spec = f"remote://127.0.0.1:{executor.port}"
    try:
        # an idle, empty fabric reports zeros...
        idle = fabric_stats(spec)
        assert idle["workers_connected"] == 0
        assert idle["parts_in_flight"] == 0
        assert idle["parts_queued"] == 0
        assert idle["n_dispatched"] == 0
        assert idle["workers"] == {}
        # ...and the probe itself never enrolled as a worker
        assert executor.live_workers() == 0

        _start_worker(executor)
        _start_worker(executor)
        deadline = time.monotonic() + 10
        while executor.live_workers() < 2 and time.monotonic() < deadline:
            time.sleep(0.01)

        service = CompileService(
            PulseStore(str(tmp_path / "s")), config, backend=executor,
            n_workers=2,
        )
        batch = service.submit_batch([qft(5)])
        assert batch.n_compiled > 0

        stats = fabric_stats(spec)
        assert stats["workers_connected"] == 2
        assert stats["parts_in_flight"] == 0  # batch done, nothing live
        assert stats["parts_queued"] == 0
        assert stats["n_dispatched"] == executor.n_dispatched > 0
        assert stats["n_local_fallback"] == 0
        assert stats["uptime_s"] > 0
        rows = stats["workers"]
        assert set(rows) == {"worker1", "worker2"}
        assert sum(row["parts"] for row in rows.values()) == stats[
            "n_dispatched"
        ]
        for row in rows.values():
            assert row["connected"] is True
            if row["parts"]:
                assert row["solve_s"] > 0
                assert row["wire_s"] >= 0
    finally:
        executor.close()

    # a dead fabric refuses the probe loudly rather than hanging
    from repro.service.remote import RemoteUnavailable

    with pytest.raises(RemoteUnavailable):
        fabric_stats(spec, timeout_s=1.0)


def test_fabric_stats_reply_keys_are_pinned():
    """The dashboard, the fleet auditor, loadgen's run table and accbench
    read the fabric ``stats`` reply by key: a dropped or renamed key must
    fail here, not in one of them."""
    from repro.service import fabric_stats

    executor = RemoteExecutor(wait_workers_s=10.0)
    try:
        _start_worker(executor)
        deadline = time.monotonic() + 10
        while executor.live_workers() < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        stats = executor.stats()
        wire = fabric_stats(f"remote://127.0.0.1:{executor.port}")
    finally:
        executor.close()
    top = {
        "parts_per_worker", "workers_connected", "parts_in_flight",
        "parts_queued", "n_dispatched", "n_steals", "n_reassigned",
        "n_shed", "n_local_fallback", "uptime_s", "workers",
    }
    row = {
        "connected", "parts", "solve_s", "wire_s", "queued", "in_flight",
        "rate", "steals_won", "steals_lost",
    }
    for reply in (stats, wire):
        assert set(reply) == top
        assert list(reply["workers"]) == ["worker1"]
        assert set(reply["workers"]["worker1"]) == row


@pytest.mark.parametrize(
    "first_line",
    [b"[]", b'"x"', b"42", b"null", b"not json", b'{"op": "bogus"}'],
)
def test_fabric_closes_a_connection_whose_first_line_is_no_role(first_line):
    """A first line that is neither a hello nor a stats object closes the
    connection, and the fabric keeps answering. A JSON line that is not
    an object used to kill the handler thread and leave the peer
    waiting on an open connection."""
    from repro.service import fabric_stats

    executor = RemoteExecutor(wait_workers_s=0.1)
    try:
        with socket.create_connection(
            ("127.0.0.1", executor.port), timeout=5.0
        ) as sock:
            sock.sendall(first_line + b"\n")
            assert sock.recv(1) == b""
        stats = fabric_stats(f"remote://127.0.0.1:{executor.port}")
        assert stats["workers_connected"] == 0
    finally:
        executor.close()


def test_worker_skips_lines_that_are_not_json_objects():
    """``repro worker`` skips a fabric line that is not a JSON object, like
    one that does not parse, instead of dying on it."""
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen()
    port = listener.getsockname()[1]

    def fake_fabric():
        conn, _ = listener.accept()
        with conn, conn.makefile("rwb") as stream:
            stream.readline()  # the worker's hello
            stream.write(b'[]\n"x"\n42\nnull\nnot json\n{"op": "close"}\n')
            stream.flush()
            stream.readline()  # until the worker hangs up

    thread = threading.Thread(target=fake_fabric, daemon=True)
    thread.start()
    try:
        assert worker_loop(f"remote://127.0.0.1:{port}") == 0
    finally:
        listener.close()
    thread.join(timeout=10)
    assert not thread.is_alive()


def test_fabric_requeues_a_part_whose_reply_is_not_a_json_object(
    tmp_path, config
):
    """A worker that answers a part with a JSON line that is not an object
    is retired like a disconnect: the part is requeued first, and the
    batch completes with the serial run's results."""
    reference = CompileService(
        PulseStore(str(tmp_path / "ref")), config, backend="serial",
        n_workers=2,
    ).submit_batch([qft(4)])
    executor = RemoteExecutor(wait_workers_s=10.0)

    def garbling_worker():
        with socket.create_connection(("127.0.0.1", executor.port)) as sock:
            with sock.makefile("rwb") as stream:
                stream.write(b'{"op": "hello"}\n')
                stream.flush()
                stream.readline()  # one part...
                stream.write(b"[]\n")  # ...answered with a non-object
                stream.flush()
                stream.readline()  # until the fabric hangs up

    threading.Thread(target=garbling_worker, daemon=True).start()
    deadline = time.monotonic() + 10
    while executor.live_workers() < 1 and time.monotonic() < deadline:
        time.sleep(0.01)
    service = CompileService(
        PulseStore(str(tmp_path / "fabric")), config, backend=executor,
        n_workers=2,
    )
    try:
        batch = service.submit_batch([qft(4)])
    finally:
        executor.close()
    assert executor.n_reassigned >= 1
    assert executor.n_local_fallback >= 1
    assert batch.n_compiled == reference.n_compiled
    assert batch.total_iterations == reference.total_iterations
    assert (
        batch.requests[0].overall_latency
        == reference.requests[0].overall_latency
    )


# ----------------------------------------------------------- routed shards
def test_routed_sharded_store_batches_and_routes_disjointly(tmp_path, config):
    """Shard -> host is a routing decision: two store servers behind one
    routing table behave exactly like a local 2-shard store, and each
    host holds only its own digest range."""
    locals_ = [PulseStore(str(tmp_path / f"host{i}")) for i in range(2)]
    servers = [StoreServer(store).start() for store in locals_]
    try:
        routes = [f"remote://{server.address}" for server in servers]
        spec = ",".join(routes)
        store = open_store(spec)
        assert isinstance(store, ShardedStore)
        assert store.n_shards == 2
        cold = CompileService(
            store, config, backend="serial", n_workers=2
        ).submit_batch([qft(5), build_named("4gt4-v0")])
        assert cold.n_compiled > 0
        # each host holds exactly its digest range, and only that
        for index, local in enumerate(locals_):
            assert len(local) > 0
            for key in local.keys():
                assert shard_of(key_digest(key), 2) == index
        warm = CompileService(
            open_store(spec), config, backend="serial", n_workers=2
        ).submit_batch([qft(5), build_named("4gt4-v0")])
        assert warm.n_compiled == 0
        assert warm.coverage_rate == 1.0
        assert warm.store_stats["puts"] == 0
    finally:
        for server in servers:
            server.stop()


def test_open_store_remote_spec_validation(tmp_path):
    with pytest.raises(StoreVersionError):
        open_store("remote://127.0.0.1:1", max_entries=10)
    with pytest.raises(StoreVersionError):
        open_store("remote://127.0.0.1:1,remote://127.0.0.1:2", shards=3)
    with pytest.raises(StoreVersionError):
        open_store(f"remote://127.0.0.1:1,{tmp_path}")
    with pytest.raises(StoreVersionError):
        # a mixed spec must be refused even when the local path comes
        # first (it must not open a literal local directory of that name)
        open_store(f"{tmp_path}/p,remote://127.0.0.1:1")
    with pytest.raises(StoreVersionError):
        ShardedStore(routes=["remote://127.0.0.1:1"], root=str(tmp_path))


def test_fingerprint_claimed_offline_is_enforced_on_reconnect(tmp_path):
    """A claim absorbed while the server was down must be re-asserted by
    the reconnect handshake — a mismatched client cannot slip data into
    the store just because it claimed during an outage."""
    server, _ = _serve(tmp_path)
    port = server.port
    RemoteStore(f"remote://127.0.0.1:{port}").claim_fingerprint("model-a")
    server.stop()

    offline = RemoteStore(f"remote://127.0.0.1:{port}", timeout_s=2.0)
    offline.claim_fingerprint("grape-b")  # absorbed: server unreachable
    assert offline.stats.degraded >= 1

    store = PulseStore(str(tmp_path / "served"))
    revived = None
    for _ in range(50):
        try:
            revived = StoreServer(store, port=port).start()
            break
        except OSError:
            time.sleep(0.1)
    assert revived is not None, "could not rebind the server port"
    try:
        with pytest.raises(StoreVersionError):
            offline.get_key(b"anything")  # handshake replays the claim
    finally:
        revived.stop()


# ----------------------------------------------------------- snapshot memo
def _pulse_entry(angle, latency=40.0, scale=1.0):
    """A 2-qubit entry whose key depends on ``angle`` only."""
    group = GateGroup(gates=[Gate("cx", (0, 1)), Gate("rz", (1,), (angle,))])
    pulse = Pulse(
        scale * np.linspace(0.0, angle + 0.1, 35).reshape(7, 5),
        dt=2.0,
        control_labels=["X0", "Y0", "X1", "Y1", "XX01"],
        n_qubits=2,
    )
    return LibraryEntry(group=group, pulse=pulse, latency=latency, iterations=9)


@pytest.fixture
def codec_calls(monkeypatch):
    """Counts the server's ``encode_entry`` and the client's
    ``decode_entry`` calls."""
    from repro.service import remote, storeserver

    counts = {"encode": 0, "decode": 0}
    real_encode, real_decode = storeserver.encode_entry, remote.decode_entry

    def encode(entry):
        counts["encode"] += 1
        return real_encode(entry)

    def decode(payload):
        counts["decode"] += 1
        return real_decode(payload)

    monkeypatch.setattr(storeserver, "encode_entry", encode)
    monkeypatch.setattr(remote, "decode_entry", decode)
    return counts


def _memo_snapshot(client, server, counts):
    """One snapshot and the codec calls it made; each memo then holds
    exactly the snapshot's entries."""
    before = dict(counts)
    snapshot = client.snapshot()
    assert len(server._encoded) == len(snapshot) == len(client._decoded)
    assert set(server._encoded) == set(snapshot.keys())
    assert {e.group.key() for e in client._decoded.values()} == set(
        snapshot.keys()
    )
    return snapshot, {name: counts[name] - before[name] for name in counts}


def _entry_text(entry):
    return json.dumps(entry_to_dict(entry))


def _entry_texts(library):
    """{key: the entry's entry_to_dict JSON} over a library."""
    return {key: _entry_text(library.lookup_key(key)) for key in library.keys()}


def test_repeated_snapshot_decodes_and_encodes_nothing(tmp_path, codec_calls):
    """A second snapshot of an unchanged store encodes and decodes no
    entry, and serves what a fresh decode gives, key and matrix cached."""
    server, local = _serve(tmp_path)
    try:
        for i in range(6):
            local.put(_pulse_entry(0.1 * (i + 1)), flush=False)
        local.flush()
        client = RemoteStore(f"remote://{server.address}")
        first, counts = _memo_snapshot(client, server, codec_calls)
        assert counts == {"encode": 6, "decode": 6}
        second, counts = _memo_snapshot(client, server, codec_calls)
        assert counts == {"encode": 0, "decode": 0}
        for key in second.keys():
            entry = second.lookup_key(key)
            assert entry is first.lookup_key(key)
            assert entry.group._key == key
            assert entry.group._matrix is not None
        fresh = RemoteStore(f"remote://{server.address}").snapshot()
        assert _entry_texts(second) == _entry_texts(fresh)
        assert _entry_texts(second) == _entry_texts(local.snapshot())
    finally:
        server.stop()


def test_snapshot_after_a_reput_serves_the_new_entry(tmp_path, codec_calls):
    """A key re-put with another pulse and latency comes back new from the
    next snapshot; a re-put of the same bytes is re-encoded on the server
    but not decoded again on the client."""
    server, local = _serve(tmp_path)
    try:
        old, other = _pulse_entry(0.4), _pulse_entry(0.7)
        local.put(old)
        local.put(other)
        client = RemoteStore(f"remote://{server.address}")
        _memo_snapshot(client, server, codec_calls)

        client.put(old)  # the server now holds a new object, same bytes
        snapshot, counts = _memo_snapshot(client, server, codec_calls)
        assert counts == {"encode": 1, "decode": 0}

        new = _pulse_entry(0.4, latency=28.0, scale=0.5)
        key = old.group.key()
        assert new.group.key() == key
        client.put(new)
        snapshot, counts = _memo_snapshot(client, server, codec_calls)
        assert counts == {"encode": 1, "decode": 1}
        got = snapshot.lookup_key(key)
        assert got.latency == 28.0
        assert got.pulse.amplitudes.tobytes() == new.pulse.amplitudes.tobytes()
        assert _entry_texts(snapshot) == _entry_texts(local.snapshot())
    finally:
        server.stop()


def test_evicted_key_leaves_the_snapshot_and_both_memos(tmp_path, codec_calls):
    server, local = _serve(tmp_path, max_entries=3)
    try:
        entries = [_pulse_entry(0.1 * (i + 1)) for i in range(4)]
        for entry in entries[:3]:
            local.put(entry)
        client = RemoteStore(f"remote://{server.address}")
        snapshot, _ = _memo_snapshot(client, server, codec_calls)
        assert len(snapshot) == 3
        client.put(entries[3])  # evicts the least recently used, entries[0]
        snapshot, counts = _memo_snapshot(client, server, codec_calls)
        evicted = entries[0].group.key()
        assert len(snapshot) == 3
        assert evicted not in set(snapshot.keys())
        assert evicted not in server._encoded
        assert evicted not in {e.group.key() for e in client._decoded.values()}
        assert counts == {"encode": 1, "decode": 1}
    finally:
        server.stop()


def _codec_delta(counts, before):
    return {name: counts[name] - before[name] for name in counts}


def test_get_many_after_a_snapshot_codes_nothing(tmp_path, codec_calls):
    """A warm read of keys the last snapshot held is served by both memos:
    no encode on the server, no decode on the client, and the entries are
    the snapshot's own objects. ``get`` and ``peek`` read the same way."""
    server, local = _serve(tmp_path)
    try:
        for i in range(5):
            local.put(_pulse_entry(0.1 * (i + 1)), flush=False)
        client = RemoteStore(f"remote://{server.address}")
        snapshot, _ = _memo_snapshot(client, server, codec_calls)
        keys = local.keys()
        before = dict(codec_calls)
        entries = client.get_many(keys)
        one, peeked = client.get_key(keys[0]), client.peek_key(keys[1])
        assert _codec_delta(codec_calls, before) == {"encode": 0, "decode": 0}
        for key, entry in zip(keys, entries):
            assert entry is snapshot.lookup_key(key)
        assert one is snapshot.lookup_key(keys[0])
        assert peeked is snapshot.lookup_key(keys[1])
        assert client.stats.hits == len(keys) + 1
    finally:
        server.stop()


def test_reads_after_a_reput_serve_the_new_entry(tmp_path, codec_calls):
    """A key re-put with another pulse and latency since the last
    snapshot: ``get_many``, ``get`` and ``peek`` all return the new entry,
    never the one both memos still hold, and code only that key."""
    server, local = _serve(tmp_path)
    try:
        old, other = _pulse_entry(0.4), _pulse_entry(0.7)
        local.put(old)
        local.put(other)
        client = RemoteStore(f"remote://{server.address}")
        _memo_snapshot(client, server, codec_calls)
        new = _pulse_entry(0.4, latency=28.0, scale=0.5)
        key = old.group.key()
        client.put(new)
        before = dict(codec_calls)
        got, unchanged = client.get_many([key, other.group.key()])
        assert _codec_delta(codec_calls, before) == {"encode": 1, "decode": 1}
        for entry in (got, client.get_key(key), client.peek_key(key)):
            assert entry.latency == 28.0
            assert _entry_text(entry) == _entry_text(new)
        assert _entry_text(unchanged) == _entry_text(other)
        assert server._encoded[key][0] is not local.peek_key(key)
    finally:
        server.stop()


def test_get_many_before_any_snapshot_codes_each_hit_once(
    tmp_path, codec_calls
):
    """With both memos empty, a ``get_many`` encodes and decodes each hit
    once, and only a snapshot fills the memos."""
    server, local = _serve(tmp_path)
    try:
        for i in range(4):
            local.put(_pulse_entry(0.1 * (i + 1)), flush=False)
        client = RemoteStore(f"remote://{server.address}")
        keys = local.keys() + [b"absent"]
        entries = client.get_many(keys)
        assert codec_calls == {"encode": 4, "decode": 4}
        assert entries[-1] is None
        assert [_entry_text(e) for e in entries[:-1]] == [
            _entry_text(local.peek_key(k)) for k in keys[:-1]
        ]
        assert server._encoded == {} and client._decoded == {}
    finally:
        server.stop()


def test_concurrent_snapshots_during_reputs_serve_whole_entries(tmp_path):
    """Four clients snapshot and ``get_many`` while the server's store
    re-puts every key between two versions: each reply carries, per key,
    one whole version, and once the writes stop every client reads the
    store's contents."""
    server, local = _serve(tmp_path)
    versions = [
        (_pulse_entry(angle), _pulse_entry(angle, latency=20.0, scale=0.5))
        for angle in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
    ]
    allowed = {}
    for pair in versions:
        local.put(pair[0], flush=False)
        for version in pair:
            allowed.setdefault(version.group.key(), set()).add(
                _entry_text(version)
            )
    clients = [RemoteStore(f"remote://{server.address}") for _ in range(4)]
    stop = threading.Event()
    bad = []

    def reader(client):
        keys = list(allowed)
        while not stop.is_set():
            for key, text in _entry_texts(client.snapshot()).items():
                if text not in allowed[key]:
                    bad.append(key)
            for key, entry in zip(keys, client.get_many(keys)):
                if _entry_text(entry) not in allowed[key]:
                    bad.append(key)

    def writer():
        for round_ in range(30):
            for pair in versions:
                local.put(pair[round_ % 2], flush=False)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        readers = [
            threading.Thread(target=reader, args=(c,), daemon=True)
            for c in clients
        ]
        for thread in readers:
            thread.start()
        write = threading.Thread(target=writer, daemon=True)
        write.start()
        write.join(timeout=60)
        stop.set()
        for thread in readers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    try:
        assert not write.is_alive()
        assert not any(thread.is_alive() for thread in readers)
        assert bad == []
        for client in clients:
            assert _entry_texts(client.snapshot()) == _entry_texts(
                local.snapshot()
            )
    finally:
        server.stop()


def test_remote_store_bit_identical_over_consecutive_batches(
    tmp_path, config, monkeypatch
):
    """Three GRAPE batches in a row, serial on both sides: the last one
    seeds from entries the snapshot memo served, and the remote store
    still holds the local store's bytes."""
    from repro.service import remote

    programs = [qft(4), qft(5), qft(6)]

    def service_on(store):
        return CompileService(
            store,
            config,
            engine=GrapeEngine(config.physics, config.run.fast()),
            backend="serial",
            n_workers=2,
        )

    local = service_on(PulseStore(str(tmp_path / "local")))
    local_batches = [local.submit_batch([program]) for program in programs]

    decoded = [0]
    real_decode, real_fetch = remote.decode_entry, RemoteStore.fetch_snapshot
    snapshots = []  # (entries decoded, entries returned) per snapshot

    def counting_decode(payload):
        decoded[0] += 1
        return real_decode(payload)

    def counted_fetch(self):
        before = decoded[0]
        library = real_fetch(self)
        snapshots.append((decoded[0] - before, len(library)))
        return library

    monkeypatch.setattr(remote, "decode_entry", counting_decode)
    monkeypatch.setattr(RemoteStore, "fetch_snapshot", counted_fetch)
    server, served = _serve(tmp_path)
    try:
        service = service_on(RemoteStore(f"remote://{server.address}"))
        for program, reference in zip(programs, local_batches):
            batch = service.submit_batch([program])
            assert batch.n_compiled == reference.n_compiled > 0
            assert batch.total_iterations == reference.total_iterations
    finally:
        server.stop()
    assert len(snapshots) == len(programs)
    last_decoded, last_returned = snapshots[-1]
    assert last_decoded < last_returned
    assert _stored_pulses(served) == _stored_pulses(local.store)


def _pickle_that_makes(path) -> str:
    """A base64 pickle, the fabric's old frame, whose unpickling would
    create the directory ``path``: a peer's code running on our side."""

    class MakesDirectory:
        def __reduce__(self):
            return (os.mkdir, (str(path),))

    return base64.b64encode(pickle.dumps(MakesDirectory())).decode("ascii")


def test_fabric_requeues_a_part_whose_outcome_payload_is_no_outcome(
    tmp_path, config
):
    """A worker reply with no ``payload``, with one that is no outcome, or
    with a base64 pickle is a wire failure: the part is requeued first,
    then the worker retires, and the batch stores the serial run's
    pulses. The first two used to kill the handler thread; the pickle used
    to be unpickled, running the peer's call."""
    def service_on(store, backend):
        return CompileService(
            store,
            config,
            engine=GrapeEngine(config.physics, config.run.fast()),
            backend=backend,
            n_workers=2,
        )

    reference = service_on(PulseStore(str(tmp_path / "ref")), "serial")
    reference.submit_batch([qft(4)])
    executor = RemoteExecutor(wait_workers_s=10.0)
    unpickled = tmp_path / "unpickled"
    replies = [
        {"op": "outcome", "job": 0},
        {"op": "outcome", "job": 0, "payload": {"not": "an outcome"}},
        {"op": "outcome", "job": 0, "payload": _pickle_that_makes(unpickled)},
    ]

    def bad_worker(reply):
        with socket.create_connection(("127.0.0.1", executor.port)) as sock:
            with sock.makefile("rwb") as stream:
                stream.write(b'{"op": "hello"}\n')
                stream.flush()
                stream.readline()  # one part...
                stream.write((json.dumps(reply) + "\n").encode())
                stream.flush()
                stream.readline()  # until the fabric hangs up

    workers = [
        threading.Thread(target=bad_worker, args=(reply,), daemon=True)
        for reply in replies
    ]
    for worker in workers:
        worker.start()
    deadline = time.monotonic() + 10
    while (
        executor.live_workers() < len(replies)
        and time.monotonic() < deadline
    ):
        time.sleep(0.01)
    service = service_on(PulseStore(str(tmp_path / "fabric")), executor)
    try:
        batch = service.submit_batch([qft(4)])
    finally:
        executor.close()
    for worker in workers:
        worker.join(timeout=10)
    assert not unpickled.exists()
    assert executor.n_reassigned == len(replies)
    assert executor.n_local_fallback >= 1
    assert batch.n_compiled > 0
    assert _stored_pulses(service.store) == _stored_pulses(reference.store)


def test_worker_answers_a_pickled_part_with_an_error_and_serves_on(tmp_path):
    """``repro worker`` never unpickles a part: a base64 pickle is answered
    with ``error`` without running the peer's call, and the next, valid
    part still gets its outcome."""
    unpickled = tmp_path / "unpickled"
    engine = ModelEngine()
    group = GateGroup(gates=[Gate("cx", (0, 1)), Gate("rz", (1,), (0.3,))])
    tasks = [GroupTask(group=group, seed_tag=seed_tag_for(group))]
    parts = [
        _pickle_that_makes(unpickled),
        encode_part(engine_spec(engine), 0, tasks),
    ]
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen()
    port = listener.getsockname()[1]
    replies = []

    def fake_fabric():
        conn, _ = listener.accept()
        with conn, conn.makefile("rwb") as stream:
            stream.readline()  # the worker's hello
            for job, payload in enumerate(parts):
                frame = {"op": "part", "job": job, "payload": payload}
                stream.write((json.dumps(frame) + "\n").encode())
                stream.flush()
                replies.append(json.loads(stream.readline()))
            stream.write(b'{"op": "close"}\n')
            stream.flush()
            stream.readline()  # until the worker hangs up

    thread = threading.Thread(target=fake_fabric, daemon=True)
    thread.start()
    try:
        assert worker_loop(f"remote://127.0.0.1:{port}") == len(parts)
    finally:
        listener.close()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert not unpickled.exists()
    assert [reply["op"] for reply in replies] == ["error", "outcome"]
    assert [reply["job"] for reply in replies] == [0, 1]
    outcome = decode_outcome(replies[1]["payload"], len(tasks))
    assert outcome.records == [engine.compile_group(group)]


def test_no_service_module_imports_pickle():
    """Nothing under ``repro.service`` can unpickle bytes: no module there
    imports ``pickle`` (the local ``PoolBackend`` pickles by itself, to
    its own children only)."""
    import repro.service

    offenders = []
    for path in sorted(Path(repro.service.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] in ("pickle", "_pickle") for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_map_parts_refuses_an_engine_with_no_spec_before_queueing():
    """Only exact GrapeEngine/ModelEngine instances cross the fabric: a
    subclass is refused with TypeError and nothing is queued."""

    class CustomEngine(ModelEngine):
        pass

    group = GateGroup(gates=[Gate("h", (0,))])
    parts = [(0, [GroupTask(group=group, seed_tag=seed_tag_for(group))])]
    executor = RemoteExecutor(wait_workers_s=0.1)
    try:
        with pytest.raises(TypeError, match="CustomEngine"):
            executor.map_parts(CustomEngine(), parts)
        stats = executor.stats()
    finally:
        executor.close()
    assert stats["parts_queued"] == 0 and stats["n_dispatched"] == 0
    assert executor.n_local_fallback == 0
