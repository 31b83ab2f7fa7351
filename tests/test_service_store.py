"""Persistent pulse store: layout, atomicity, stats, eviction, reload."""

import json
import os

import numpy as np
import pytest

from repro.circuits.gates import Gate
from repro.core.cache import LibraryEntry, entry_to_dict
from repro.grouping.group import GateGroup
from repro.qoc.pulse import Pulse
from repro.service.store import (
    MANIFEST_VERSION,
    PulseStore,
    StoreVersionError,
    key_digest,
)


def _group(angle: float) -> GateGroup:
    return GateGroup(gates=[Gate("cx", (0, 1)), Gate("rz", (1,), (angle,))])


def _entry(angle: float, latency: float = 40.0, pulse: bool = True) -> LibraryEntry:
    group = _group(angle)
    p = None
    if pulse:
        p = Pulse(
            np.linspace(0, angle + 0.1, 35).reshape(7, 5),
            dt=2.0,
            control_labels=["X0", "Y0", "X1", "Y1", "XX01"],
            n_qubits=2,
        )
    return LibraryEntry(group=group, pulse=p, latency=latency, iterations=11)


def test_put_get_roundtrip(tmp_path):
    store = PulseStore(str(tmp_path / "s"))
    entry = _entry(0.3)
    store.put(entry)
    got = store.get(_group(0.3))
    assert got is not None
    assert got.latency == 40.0
    assert np.array_equal(got.pulse.amplitudes, entry.pulse.amplitudes)
    assert store.stats.hits == 1 and store.stats.puts == 1


def test_miss_counts(tmp_path):
    store = PulseStore(str(tmp_path / "s"))
    assert store.get(_group(0.9)) is None
    assert store.stats.misses == 1
    assert store.stats.hit_rate == 0.0


def test_disk_layout_and_reload(tmp_path):
    root = str(tmp_path / "s")
    store = PulseStore(root)
    entry = _entry(0.5)
    store.put(entry)
    digest = key_digest(entry.group.key())
    assert os.path.exists(os.path.join(root, "entries", f"{digest}.json"))
    manifest = json.loads(open(os.path.join(root, "manifest.json")).read())
    assert manifest["version"] == MANIFEST_VERSION
    assert digest in manifest["entries"]

    again = PulseStore(root)
    assert len(again) == 1
    got = again.get(_group(0.5))
    assert got is not None
    assert np.array_equal(got.pulse.amplitudes, entry.pulse.amplitudes)
    # a fresh instance starts with fresh stats
    assert again.stats.puts == 0 and again.stats.hits == 1


def test_corrupt_manifest_recovers_from_entry_files(tmp_path):
    """A truncated/garbage manifest must not brick the store: the entry
    files are the durable source, and the index rebuilds from them."""
    root = str(tmp_path / "s")
    store = PulseStore(root)
    store.put(_entry(0.1))
    store.put(_entry(0.2))
    open(os.path.join(root, "manifest.json"), "w").write("{ trunca")
    recovered = PulseStore(root)
    assert len(recovered) == 2
    assert recovered.get(_group(0.1)) is not None
    # the rebuilt manifest is valid again for the next load
    assert len(PulseStore(root)) == 2


def test_version_mismatch_refused(tmp_path):
    root = str(tmp_path / "s")
    PulseStore(root).put(_entry(0.1))
    manifest_path = os.path.join(root, "manifest.json")
    raw = json.loads(open(manifest_path).read())
    raw["version"] = 99
    open(manifest_path, "w").write(json.dumps(raw))
    with pytest.raises(StoreVersionError):
        PulseStore(root)


def test_orphan_entry_and_missing_file_tolerated(tmp_path):
    root = str(tmp_path / "s")
    store = PulseStore(root)
    a, b = _entry(0.1), _entry(0.2)
    store.put(a)
    store.put(b)
    # simulate a torn put: entry file vanished after the manifest was written
    os.unlink(os.path.join(root, "entries", f"{key_digest(a.group.key())}.json"))
    again = PulseStore(root)
    assert len(again) == 1
    assert again.get(_group(0.2)) is not None


def test_corrupt_entry_skipped(tmp_path):
    root = str(tmp_path / "s")
    store = PulseStore(root)
    entry = _entry(0.4)
    store.put(entry)
    path = os.path.join(root, "entries", f"{key_digest(entry.group.key())}.json")
    other = _entry(0.9)
    open(path, "w").write(json.dumps(entry_to_dict(other)))
    # digest no longer matches the content -> entry refused on load
    assert len(PulseStore(root)) == 0


def test_lru_eviction(tmp_path):
    store = PulseStore(str(tmp_path / "s"), max_entries=2)
    store.put(_entry(0.1))
    store.put(_entry(0.2))
    store.get(_group(0.1))  # 0.2 is now the coldest
    store.put(_entry(0.3))
    assert store.stats.evictions == 1
    assert len(store) == 2
    assert store.get(_group(0.2)) is None
    assert store.get(_group(0.1)) is not None
    assert store.get(_group(0.3)) is not None
    # the evicted entry file is gone from disk too
    evicted = key_digest(_group(0.2).key())
    assert not os.path.exists(
        os.path.join(str(tmp_path / "s"), "entries", f"{evicted}.json")
    )


def test_lru_order_survives_reload(tmp_path):
    root = str(tmp_path / "s")
    store = PulseStore(root, max_entries=3)
    store.put(_entry(0.1))
    store.put(_entry(0.2))
    store.put(_entry(0.3))
    store.get(_group(0.1))  # recency: 0.2 < 0.3 < 0.1
    store.flush()  # get() bumps recency in memory; flush persists it
    again = PulseStore(root, max_entries=3)
    again.put(_entry(0.4))
    assert again.get(_group(0.2)) is None  # coldest across the restart
    assert again.get(_group(0.3)) is not None


def test_tombstone_spent_after_flush(tmp_path):
    """An eviction recorded once must not keep deleting a concurrent
    writer's later re-put of the same key from the merged manifest."""
    root = str(tmp_path / "s")
    a = PulseStore(root, max_entries=1)
    a.put(_entry(0.1))
    a.put(_entry(0.2))  # evicts 0.1, tombstone recorded + flushed
    assert a.stats.evictions == 1
    b = PulseStore(root)
    b.put(_entry(0.1))  # concurrent writer restores the evicted key
    a.flush()  # must NOT re-delete 0.1: the tombstone was spent
    reloaded = PulseStore(root)
    assert reloaded.get(_group(0.1)) is not None


def test_wire_permuted_lookup_through_store(tmp_path):
    """Content addressing is canonical: a permuted occurrence hits the store,
    and the library view hands back a correctly relabelled pulse."""
    store = PulseStore(str(tmp_path / "s"))
    entry = _entry(0.7)
    store.put(entry)
    permuted = GateGroup(gates=[Gate("cx", (1, 0)), Gate("rz", (0,), (0.7,))])
    assert permuted.key() == entry.group.key()
    got = store.get(permuted)
    assert got is not None
    pulse = store.library().pulse_for(permuted)
    assert pulse is not None
    target = permuted.matrix()
    source = entry.group.matrix()
    assert not np.allclose(target, source)  # genuinely permuted pair
    assert store.stats.hits == 1


def test_snapshot_is_independent(tmp_path):
    store = PulseStore(str(tmp_path / "s"))
    store.put(_entry(0.1))
    snap = store.snapshot()
    store.put(_entry(0.2))
    assert len(snap) == 1
    assert len(store.library()) == 2


def test_eviction_guard_protects_in_flight_keys(tmp_path):
    """Bugfix: keys claimed in the coalescer (in-flight solves) must not be
    LRU-evicted mid-batch — their warm seed / salvaged entry is live."""
    protected = {_group(0.1).key()}
    store = PulseStore(str(tmp_path / "s"), max_entries=2)
    store.add_eviction_guard(lambda: protected)
    store.put(_entry(0.1))
    store.put(_entry(0.2))
    store.get(_group(0.1))  # 0.2 is the LRU candidate — but 0.1 is guarded
    protected.add(_group(0.2).key())
    store.put(_entry(0.3))  # nothing evictable: both residents are claimed
    assert store.stats.evictions == 0
    assert len(store) == 3  # temporarily over the bound, by design
    assert store.get(_group(0.1)) is not None
    assert store.get(_group(0.2)) is not None

    protected.clear()  # claims resolved: the next put evicts down again
    store.put(_entry(0.4))
    assert store.stats.evictions == 2
    assert len(store) == 2


def test_eviction_guard_falls_back_to_plain_lru(tmp_path):
    store = PulseStore(str(tmp_path / "s"), max_entries=2)
    store.add_eviction_guard(set)  # empty guard == previous behavior
    store.put(_entry(0.1))
    store.put(_entry(0.2))
    store.get(_group(0.1))
    store.put(_entry(0.3))
    assert store.stats.evictions == 1
    assert store.get(_group(0.2)) is None


def test_eviction_guards_compose(tmp_path):
    """Two services over one store object each register a guard; a victim
    must be clear of every guard, not just the latest one."""
    store = PulseStore(str(tmp_path / "s"), max_entries=2)
    store.add_eviction_guard(lambda: {_group(0.1).key()})
    store.add_eviction_guard(lambda: {_group(0.2).key()})  # must not replace
    store.put(_entry(0.1))
    store.put(_entry(0.2))
    store.put(_entry(0.3))
    assert store.stats.evictions == 0  # both residents guarded
    assert store.get(_group(0.1)) is not None
    assert store.get(_group(0.2)) is not None


def test_eviction_guard_from_dead_owner_expires(tmp_path):
    """A bound-method guard must not pin its owner forever: once the owner
    is garbage collected, eviction proceeds as if the guard were gone."""
    import gc

    class Owner:
        def keys(self):
            return {_group(0.1).key(), _group(0.2).key()}

    store = PulseStore(str(tmp_path / "s"), max_entries=2)
    owner = Owner()
    store.add_eviction_guard(owner.keys)
    store.put(_entry(0.1))
    store.put(_entry(0.2))
    store.put(_entry(0.3))
    assert store.stats.evictions == 0  # guard active while the owner lives
    del owner
    gc.collect()
    store.put(_entry(0.4))
    assert store.stats.evictions >= 2  # stale guard dropped, LRU resumes
    assert len(store) == 2


class _FlakyEngine:
    """ModelEngine-shaped; converges only when asked nicely."""

    name = "flaky"
    iterations = None  # compile_with_engine dispatches on this attribute

    def __init__(self, converge: bool, cost: int = 5):
        self.converge = converge
        self.cost = cost
        self.calls = 0

    def compile_group(self, group, warm_pulse=None, warm_source=None, seed_tag=""):
        from repro.core.engines import CompileRecord

        self.calls += 1
        assert warm_pulse is not None  # retrains warm-start from the store
        assert seed_tag.startswith("svc:")
        return CompileRecord(
            latency=33.0,
            iterations=self.cost,
            converged=self.converge,
            pulse=warm_pulse,
        )


def test_revalidate_retrains_only_nonconverged(tmp_path):
    root = str(tmp_path / "s")
    store = PulseStore(root)
    good = _entry(0.1)
    store.put(good)
    bad = _entry(0.2)
    bad.converged = False
    store.put(bad)
    engine = _FlakyEngine(converge=True)
    summary = store.revalidate(engine, budget=100)
    assert engine.calls == 1  # the converged entry is left alone
    assert summary == {
        "retrained": 1, "converged": 1, "iterations": 5, "remaining": 0,
    }
    # the retrain is durable and accumulates the extra compile cost
    reloaded = PulseStore(root)
    got = reloaded.get(_group(0.2))
    assert got.converged is True
    assert got.iterations == bad.iterations + 5
    assert got.latency == 33.0
    # untouched entry is untouched
    assert reloaded.get(_group(0.1)).latency == 40.0


def test_revalidate_budget_and_still_failing_entries(tmp_path):
    store = PulseStore(str(tmp_path / "s"))
    for angle in (0.1, 0.2, 0.3):
        entry = _entry(angle)
        entry.converged = False
        store.put(entry)
    engine = _FlakyEngine(converge=False, cost=5)
    summary = store.revalidate(engine, budget=10)
    assert summary["retrained"] == 2  # spending stops once >= budget
    assert summary["converged"] == 0
    assert summary["remaining"] == 1
    # entries stay non-converged, so a later pass retries them
    assert store.revalidate(engine, budget=1000)["retrained"] == 3


def test_store_writes_are_json_dump_bytes(tmp_path):
    """Entry files, manifests and saved libraries are written with one
    ``json.dumps`` call; the bytes are exactly ``json.dump``'s."""
    import io

    from repro.core.cache import PulseLibrary
    from repro.service.store import _atomic_write_json

    def dumped(payload):
        buffer = io.StringIO()
        json.dump(payload, buffer)
        return buffer.getvalue().encode()

    payload = {
        "nan": float("nan"),
        "inf": [float("inf"), -float("inf")],
        "text": "Grüße, 量子 ☃ \"quoted\"\n",
        "nested": [[1, 2.5, [0.1 + 0.2, [None, True]]], {"k": [[], {}]}],
    }
    path = tmp_path / "payload.json"
    _atomic_write_json(str(path), payload)
    assert path.read_bytes() == dumped(payload)

    store = PulseStore(str(tmp_path / "s"))
    entry = _entry(0.3)  # its pulse's infidelity is NaN
    store.put(entry)
    entry_file = tmp_path / "s" / "entries" / f"{key_digest(entry.group.key())}.json"
    assert entry_file.read_bytes() == dumped(entry_to_dict(entry))
    manifest = (tmp_path / "s" / "manifest.json").read_bytes()
    assert manifest == dumped(json.loads(manifest))

    library = PulseLibrary()
    library.add(entry)
    library.save(str(tmp_path / "library.json"))
    assert (tmp_path / "library.json").read_bytes() == dumped(library.to_dict())
