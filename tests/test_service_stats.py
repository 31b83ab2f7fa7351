"""Store stats shape: the counter JSON every client reads, pinned per backend.

``repro store stats``, the dashboard, the fleet audit and loadgen's run table
all read ``stats.to_dict()``, ``stats_by_shard()`` and ``stats_by_replica()``
keys by name. Five backends run the same two batches here; each payload's
exact ordered key list is asserted, and every counter a store keeps for
itself is checked against its perf recorder's ``<stat_prefix><field>``
counter.
"""

import pytest

from repro.perf.instrument import PerfRecorder
from repro.service import (
    CompileService,
    PulseStore,
    RemoteStore,
    ReplicatedStore,
    StoreServer,
    open_store,
)
from repro.service.frontdoor import store_stats_summary
from repro.utils.config import PipelineConfig
from repro.workloads import qft

LOCAL_KEYS = ["hits", "misses", "puts", "evictions", "hit_rate"]
REMOTE_KEYS = LOCAL_KEYS + ["degraded", "retry_exhausted"]
REPLICATED_KEYS = REMOTE_KEYS + ["failovers", "acked", "quorum_failures"]
REPLICA_ROW_KEYS = REMOTE_KEYS + ["failovers", "address"]
# The counters a replica set keeps under its own prefix; the rest fold in
# its replicas' counters.
REPLICA_SET_OWN = LOCAL_KEYS[:4] + ["acked", "quorum_failures"]

BACKENDS = [
    "pulse",
    "sharded",
    "remote",
    "replicated",
    "replicated-one-dead",
    "routed",
]


@pytest.fixture
def config():
    return PipelineConfig(policy_name="map2b4l")


def _serve(tmp_path, name):
    return StoreServer(PulseStore(str(tmp_path / name))).start()


def _open_backend(kind, tmp_path, servers):
    """The store under test; every server it needs is appended to ``servers``."""
    if kind == "pulse":
        return PulseStore(str(tmp_path / "pulse"))
    if kind == "sharded":
        return open_store(str(tmp_path / "sharded"), shards=2)
    servers.extend(_serve(tmp_path, f"host{i}") for i in range(3))
    a, b, c = (server.address for server in servers)
    if kind == "remote":
        return RemoteStore(f"remote://{a}")
    if kind.startswith("replicated"):
        # One attempt per RPC: the dead replica fails over without backoff.
        return open_store(f"remote://{a}|{b}?retries=1")
    return open_store(f"remote://{a}|{b}?retries=1,remote://{c}")


def _close(store):
    for part in getattr(store, "shards", [store]):
        if hasattr(part, "close"):
            part.close()


def _run_batches(store, config):
    service = CompileService(store, config, backend="serial")
    service.submit_batch([qft(4)])
    service.submit_batch([qft(4), qft(5)])


def _counter(part, field):
    return part.perf.counters.get(part.stat_prefix + field, 0)


def _assert_counters_match_recorder(store):
    """Each part's own counters equal its recorder's exact names; merged
    views equal the sum of their parts."""
    parts = getattr(store, "shards", [store])
    if len(parts) > 1:
        merged = store.stats.to_dict()
        for field in merged:
            if field != "hit_rate":
                assert merged[field] == sum(
                    part.stats.to_dict().get(field, 0) for part in parts
                ), field
    for part in parts:
        stats = part.stats.to_dict()
        if not isinstance(part, ReplicatedStore):
            for field in stats:
                if field != "hit_rate":
                    assert stats[field] == _counter(part, field), field
            continue
        replicas = part.replicas
        for replica in replicas:
            _assert_counters_match_recorder(replica)
        for field in REPLICA_SET_OWN:
            assert stats[field] == _counter(part, field), field
        assert stats["degraded"] == _counter(part, "degraded") + sum(
            _counter(replica, "degraded") for replica in replicas
        )
        assert stats["retry_exhausted"] == sum(
            _counter(replica, "retry_exhausted") for replica in replicas
        )
        per_replica = [
            _counter(part, f"failover.r{i}") for i in range(len(replicas))
        ]
        assert stats["failovers"] == sum(per_replica)
        rows = part.stats_by_replica()
        assert [row["failovers"] for row in rows] == per_replica


def _assert_shapes(kind, store):
    by_shard = [list(row) for row in store.stats_by_shard()]
    by_replica = [list(row) for row in store.stats_by_replica()]
    merged = list(store.stats.to_dict())
    if kind == "pulse":
        assert merged == LOCAL_KEYS
        assert by_shard == [LOCAL_KEYS]
        assert by_replica == []
    elif kind == "sharded":
        assert merged == LOCAL_KEYS
        assert by_shard == [LOCAL_KEYS, LOCAL_KEYS]
        assert by_replica == []
    elif kind == "remote":
        assert merged == REMOTE_KEYS
        assert by_shard == [REMOTE_KEYS]
        assert by_replica == []
    elif kind.startswith("replicated"):
        assert merged == REPLICATED_KEYS
        assert by_shard == [REPLICATED_KEYS]
        assert by_replica == [REPLICA_ROW_KEYS, REPLICA_ROW_KEYS]
    else:  # routed: shard 0 a replica pair, shard 1 a single host
        assert merged == REPLICATED_KEYS
        assert by_shard == [REPLICATED_KEYS, REMOTE_KEYS]
        assert by_replica == [REPLICA_ROW_KEYS + ["shard"]] * 2
    _assert_counters_match_recorder(store)


@pytest.mark.parametrize("kind", BACKENDS)
def test_stats_json_shape_per_backend(kind, tmp_path, config):
    servers = []
    store = None
    try:
        store = _open_backend(kind, tmp_path, servers)
        _run_batches(store, config)
        stats = store.stats
        assert stats.puts > 0 and stats.hits > 0 and stats.misses > 0
        _assert_shapes(kind, store)
        if kind == "replicated-one-dead":
            servers[0].stop()
            _run_batches(store, config)
            _assert_shapes(kind, store)
            stats = store.stats
            assert stats.failovers > 0
            assert stats.degraded > 0 and stats.retry_exhausted > 0
            assert store.stats_by_replica()[0]["failovers"] == stats.failovers
    finally:
        if store is not None:
            _close(store)
        for server in servers:
            server.stop()


# ------------------------------------------------------- repro store stats
def _expected_summary(store):
    """(entries, non_converged), read key by key."""
    entries = [store.peek_key(key) for key in store.keys()]
    return len(entries), sum(1 for e in entries if not e.converged)


def test_store_stats_summary_reads_one_snapshot_per_shard(tmp_path, config):
    """``repro store stats`` reads every entry from one ``snapshot`` frame
    per shard, never a ``peek`` per entry, and reports the same totals."""
    local = open_store(str(tmp_path / "local"), shards=3)
    CompileService(local, config, backend="serial").submit_batch(
        [qft(4), qft(5)]
    )
    expected = _expected_summary(local)
    assert expected[0] > 3
    summary = store_stats_summary(local)
    assert (summary["entries"], summary["non_converged"]) == expected
    assert summary["n_shards"] == 3
    assert [row["entries"] for row in summary["shards"]] == [
        len(shard) for shard in local.shards
    ]
    assert sum(row["entries"] for row in summary["shards"]) == expected[0]

    servers = [_serve(tmp_path, f"host{i}") for i in range(3)]
    a, b, c = (server.address for server in servers)
    spec = f"remote://{a}|{b},remote://{c}"
    try:
        feed = open_store(spec)
        feed.put_many(local.snapshot().entries())
        _close(feed)
        perf = PerfRecorder()
        routed = open_store(spec, perf=perf)
        summary = store_stats_summary(routed)
        _close(routed)
        assert (summary["entries"], summary["non_converged"]) == expected
        for shard in range(2):
            # a replicated shard's frames are counted per replica
            def ops(verb):
                return sum(
                    value
                    for name, value in perf.counters.items()
                    if name.startswith(f"store.shard{shard}.")
                    and name.endswith(f".ops.{verb}")
                )

            assert ops("peek") == 0, perf.counters
            assert ops("snapshot") == 1, perf.counters
    finally:
        for server in servers:
            server.stop()
