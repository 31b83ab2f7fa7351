"""Sharded store: map round-trip, routing, reshard bit-identity, parity."""

import json
import os

import numpy as np
import pytest

from repro.circuits.gates import Gate
from repro.core.cache import LibraryEntry
from repro.core.engines import GrapeEngine
from repro.grouping.group import GateGroup
from repro.qoc.pulse import Pulse
from repro.service.service import CompileService
from repro.service.sharding import (
    SHARD_MAP_NAME,
    ShardedStore,
    is_sharded,
    open_store,
    reshard,
    shard_of,
)
from repro.service.store import PulseStore, StoreVersionError, key_digest
from repro.utils.config import PipelineConfig
from repro.workloads import build_named, qft


def _group(angle: float) -> GateGroup:
    return GateGroup(gates=[Gate("cx", (0, 1)), Gate("rz", (1,), (angle,))])


def _entry(angle: float, converged: bool = True) -> LibraryEntry:
    pulse = Pulse(
        np.linspace(0, angle + 0.1, 35).reshape(7, 5),
        dt=2.0,
        control_labels=["X0", "Y0", "X1", "Y1", "XX01"],
        n_qubits=2,
    )
    return LibraryEntry(
        group=_group(angle), pulse=pulse, latency=40.0, iterations=11,
        converged=converged,
    )


ANGLES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)


def _entry_files(root: str) -> dict:
    """{filename: bytes} of every entry file anywhere under ``root``."""
    out = {}
    for dirpath, _, names in os.walk(root):
        if not dirpath.endswith("entries"):
            continue
        for name in names:
            if name.endswith(".json"):
                with open(os.path.join(dirpath, name), "rb") as handle:
                    out[name] = handle.read()
    return out


# ---------------------------------------------------------------- shard map
def test_shard_map_roundtrip(tmp_path):
    root = str(tmp_path / "s")
    store = open_store(root, shards=4)
    assert isinstance(store, ShardedStore)
    assert store.n_shards == 4
    # reopen: auto-detect, and explicit matching count
    assert open_store(root).n_shards == 4
    assert open_store(root, shards=4).n_shards == 4


def test_open_with_wrong_shard_count_fails_loudly(tmp_path):
    root = str(tmp_path / "s")
    open_store(root, shards=4)
    with pytest.raises(StoreVersionError, match="sharded 4 ways"):
        open_store(root, shards=2)
    # the direct constructor validates n_shards against the map too
    with pytest.raises(StoreVersionError, match="sharded 4 ways"):
        ShardedStore(root, n_shards=8)


def test_corrupt_shard_map_fails_loudly(tmp_path):
    root = str(tmp_path / "s")
    open_store(root, shards=2)
    with open(os.path.join(root, SHARD_MAP_NAME), "w") as handle:
        handle.write("{ nope")
    with pytest.raises(StoreVersionError, match="unreadable shard map"):
        open_store(root)


def test_unknown_shard_map_version_refused(tmp_path):
    root = str(tmp_path / "s")
    open_store(root, shards=2)
    path = os.path.join(root, SHARD_MAP_NAME)
    raw = json.load(open(path))
    raw["version"] = 99
    with open(path, "w") as handle:
        json.dump(raw, handle)
    with pytest.raises(StoreVersionError, match="version 99"):
        open_store(root)


def test_legacy_store_with_shards_flag_points_at_reshard(tmp_path):
    root = str(tmp_path / "s")
    PulseStore(root).put(_entry(0.1))
    with pytest.raises(StoreVersionError, match="reshard"):
        open_store(root, shards=4)
    # without the flag the legacy layout still opens fine
    assert isinstance(open_store(root), PulseStore)
    assert len(open_store(root)) == 1


# ------------------------------------------------------------------ routing
def test_routing_is_total_and_disjoint(tmp_path):
    store = open_store(str(tmp_path / "s"), shards=4)
    for angle in ANGLES:
        store.put(_entry(angle))
    assert len(store) == len(ANGLES)
    assert sum(len(shard) for shard in store.shards) == len(ANGLES)
    for angle in ANGLES:
        key = _group(angle).key()
        owner = shard_of(key_digest(key), 4)
        homes = [i for i, shard in enumerate(store.shards) if shard.peek_key(key)]
        assert homes == [owner]


def test_reload_and_permuted_lookup_through_shards(tmp_path):
    root = str(tmp_path / "s")
    store = open_store(root, shards=4)
    for angle in ANGLES:
        store.put(_entry(angle))
    again = open_store(root)
    assert len(again) == len(ANGLES)
    # canonical addressing survives routing: a wire-permuted occurrence
    # hashes to the same shard and hits
    permuted = GateGroup(gates=[Gate("cx", (1, 0)), Gate("rz", (0,), (0.3,))])
    assert permuted.key() == _group(0.3).key()
    assert again.get(permuted) is not None
    assert again.stats.hits == 1


def test_stats_merge_and_per_shard_split(tmp_path):
    store = open_store(str(tmp_path / "s"), shards=4)
    for angle in ANGLES:
        store.put(_entry(angle))
    for angle in ANGLES:
        assert store.get(_group(angle)) is not None
    assert store.get(_group(9.9)) is None
    merged = store.stats
    assert merged.puts == len(ANGLES)
    assert merged.hits == len(ANGLES)
    assert merged.misses == 1
    per_shard = store.stats_by_shard()
    assert len(per_shard) == 4
    assert sum(s["hits"] for s in per_shard) == len(ANGLES)


def test_lru_bound_is_split_across_shards(tmp_path):
    store = open_store(str(tmp_path / "s"), shards=2, max_entries=4)
    assert all(shard.max_entries == 2 for shard in store.shards)
    for angle in np.linspace(0.1, 2.4, 12):
        store.put(_entry(float(angle)))
    assert len(store) <= 4
    assert store.stats.evictions >= 8


def test_snapshot_merges_all_shards(tmp_path):
    store = open_store(str(tmp_path / "s"), shards=4)
    for angle in ANGLES:
        store.put(_entry(angle))
    snap = store.snapshot()
    assert len(snap) == len(ANGLES)
    store.put(_entry(3.0))
    assert len(snap) == len(ANGLES)  # independent copy


def test_fingerprint_claims_apply_to_every_shard(tmp_path):
    root = str(tmp_path / "s")
    store = open_store(root, shards=2)
    store.claim_fingerprint("engineA")
    store.flush()
    again = open_store(root)
    with pytest.raises(StoreVersionError):
        again.claim_fingerprint("engineB")


# ------------------------------------------------------------------ reshard
def test_reshard_roundtrip_preserves_every_entry_bit_identically(tmp_path):
    root = str(tmp_path / "s")
    store = PulseStore(root)
    for angle in ANGLES:
        store.put(_entry(angle))
    store.get(_group(0.2))  # bump recency so the manifest carries real order
    store.claim_fingerprint("fp-test")
    store.flush()
    before_files = _entry_files(root)
    before_manifest = json.load(open(os.path.join(root, "manifest.json")))

    summary = reshard(root, 4)
    assert summary == {"entries": len(ANGLES), "n_shards": 4, "from_shards": 1}
    assert is_sharded(root)
    assert _entry_files(root) == before_files  # copied, never re-encoded

    sharded = open_store(root)
    assert isinstance(sharded, ShardedStore)
    assert len(sharded) == len(ANGLES)
    for angle in ANGLES:
        got = sharded.get(_group(angle))
        assert got is not None and got.latency == 40.0

    summary = reshard(root, 1)
    assert summary["from_shards"] == 4 and summary["n_shards"] == 1
    assert not is_sharded(root)
    assert _entry_files(root) == before_files
    after_manifest = json.load(open(os.path.join(root, "manifest.json")))
    assert after_manifest["entries"] == before_manifest["entries"]
    assert after_manifest["fingerprint"] == "fp-test"
    assert len(PulseStore(root)) == len(ANGLES)


def test_interrupted_inplace_reshard_detected_on_open(tmp_path):
    """A crash between the reshard's two renames leaves the data in a
    sibling; open_store must refuse to silently start an empty store."""
    root = str(tmp_path / "s")
    store = PulseStore(root)
    store.put(_entry(0.1))
    os.rename(root, root + ".reshard-old")  # the mid-swap crash state
    with pytest.raises(StoreVersionError, match="interrupted reshard"):
        open_store(root)
    os.rename(root + ".reshard-old", root)  # the documented recovery
    assert len(open_store(root)) == 1


def test_reshard_to_dest_leaves_source_untouched(tmp_path):
    root = str(tmp_path / "s")
    dest = str(tmp_path / "d")
    store = PulseStore(root)
    for angle in ANGLES[:4]:
        store.put(_entry(angle))
    before = _entry_files(root)
    reshard(root, 2, dest=dest)
    assert _entry_files(root) == before
    assert not is_sharded(root)
    assert open_store(dest).n_shards == 2
    assert len(open_store(dest)) == 4
    with pytest.raises(FileExistsError):
        reshard(root, 2, dest=dest)
    # refused before any copying: no staging dir stranded next to dest
    assert not os.path.exists(dest + ".reshard-new")


# ----------------------------------------------------- service equivalence
def test_sharded_and_single_store_produce_bit_identical_pulses(tmp_path):
    """Acceptance: same batch, same snapshot-seeded determinism — the
    pulses persisted by a 4-shard store equal the 1-shard store's bit for
    bit, because routing never feeds the solver."""
    config = PipelineConfig(policy_name="map2b4l")
    program = build_named("4gt4-v0")
    pulses = {}
    for shards in (1, 4):
        engine = GrapeEngine(config.physics, config.run.fast())
        store = open_store(str(tmp_path / f"s{shards}"), shards=shards)
        service = CompileService(
            store, config, engine=engine, backend="serial", n_workers=2
        )
        batch = service.submit_batch([program])
        assert batch.n_compiled > 0
        pulses[shards] = {
            key_digest(key): store.peek_key(key).pulse.amplitudes.tobytes()
            for key in store.keys()
            if store.peek_key(key).pulse is not None
        }
    assert pulses[1] == pulses[4]


def test_service_batch_twice_on_sharded_store_full_hit(tmp_path):
    """The warm-store contract, sharded: run two, second is 100% store hits."""
    root = str(tmp_path / "s")
    config = PipelineConfig(policy_name="map2b4l")
    programs = [qft(5), build_named("4gt4-v0")]
    cold = CompileService(
        open_store(root, shards=4), config, backend="serial", n_workers=2
    ).submit_batch(programs)
    assert cold.n_compiled > 0
    assert cold.n_compiled + cold.n_trivial == cold.n_unique
    assert os.path.isfile(os.path.join(root, SHARD_MAP_NAME))
    warm_store = open_store(root)
    warm = CompileService(
        warm_store, config, backend="serial", n_workers=2
    ).submit_batch(programs)
    assert warm.n_compiled == 0
    assert warm.n_trivial == 0
    assert warm.coverage_rate == 1.0
    assert warm_store.stats.hit_rate == 1.0
    assert warm_store.stats.puts == 0
    assert len(warm_store) == cold.n_unique


# ---------------------------------------------------------------- hygiene
class _StubEngine:
    """ModelEngine-shaped engine whose solves always converge."""

    name = "stub"
    iterations = None  # compile_with_engine dispatches on this attribute

    def __init__(self, iterations_per_solve: int = 7):
        self.iterations_per_solve = iterations_per_solve
        self.solved = []

    def compile_group(self, group, warm_pulse=None, warm_source=None, seed_tag=""):
        from repro.core.engines import CompileRecord

        self.solved.append(group.key())
        return CompileRecord(
            latency=41.0,
            iterations=self.iterations_per_solve,
            converged=True,
            pulse=warm_pulse,
        )


def test_revalidate_spans_shards_within_budget(tmp_path):
    store = open_store(str(tmp_path / "s"), shards=4)
    for index, angle in enumerate(ANGLES):
        store.put(_entry(angle, converged=index % 2 == 0))
    engine = _StubEngine(iterations_per_solve=7)
    # budget admits exactly three retrains: spending stops once >= 21
    summary = store.revalidate(engine, budget=21)
    assert summary["retrained"] == 3
    assert summary["converged"] == 3
    assert summary["iterations"] == 21
    assert summary["remaining"] == 1
    # a second, ample pass finishes the rest and then finds nothing to do
    summary = store.revalidate(engine, budget=1000)
    assert summary["retrained"] == 1
    assert summary["remaining"] == 0
    assert store.revalidate(engine, budget=1000)["retrained"] == 0
    # retrained entries are durable: a reload sees converged everywhere
    again = open_store(str(tmp_path / "s"))
    assert all(
        again.peek_key(key).converged for key in again.keys()
    )
