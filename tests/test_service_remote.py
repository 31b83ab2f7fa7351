"""Remote store + remote worker fabric: protocol, degradation, bit-identity.

The contract under test: distribution never changes bytes. A batch through
``RemoteStore`` + ``RemoteExecutor`` persists pulses bit-identical to the
same batch on a local store with the serial executor; a dead store server
degrades to misses (slower, never wrong, never a crash); a worker
disconnect reassigns its part; a fingerprint mismatch is refused loudly
across the wire.
"""

import socket
import threading
import time

import pytest

from repro.core.engines import GrapeEngine, ModelEngine
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
