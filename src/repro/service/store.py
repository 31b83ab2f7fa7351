"""Persistent pulse store: disk-backed, content-addressed, crash-safe.

Layout (all JSON, one directory per store)::

    <root>/
      manifest.json          # {"version": 1, "entries": {<keyhex>: meta}}
      entries/<keyhex>.json  # one LibraryEntry per file (entry_to_dict)

Entries are addressed by the canonical group key (matrix modulo global phase
and wire permutation), so the store inherits every :class:`PulseLibrary`
semantics — a stored pulse serves wire-permuted occurrences too. Writes are
atomic (temp file + ``os.replace`` in the same directory), and the manifest
is rewritten atomically after every mutation, so a crash mid-``put`` leaves
either the previous manifest (orphan entry file, harmless) or the new one
(entry file already durable). The manifest is versioned; loading a store
written by an incompatible layout raises :class:`StoreVersionError`.

The store keeps the full library in memory (entries are small), counts
hits/misses/puts/evictions only in its :class:`PerfRecorder` (``stats`` is
a read-only :class:`StoreStats` snapshot of those counters), and
optionally bounds the entry count with least-recently-used eviction.
Recency (last ``get``/``put`` of the key) is bumped in memory and
persisted at the next ``flush``. Durability follows one rule:

* every ``put(flush=True)``, and every service batch that writes, flushes
  before it returns, so a completed write is in the manifest;
* a read-only service batch does not flush: its recency bumps stay in
  memory until the next writing batch's flush, the front door's close
  (``repro serve``, the in-process server), a store server's ``stop``
  (``repro store serve``) or ``repro batch``'s flush at exit.

So a crash (``kill -9``) loses at most the recency of the reads since the
last flush, and with it only the LRU order of a bounded store; never an
entry. Eviction reads the in-memory recency, so a live bounded store
evicts as if every read had been flushed.

A manifest may carry an *engine fingerprint*: pulse latencies and waveforms
are only meaningful for the engine/run configuration that produced them, so
:meth:`PulseStore.claim_fingerprint` stamps the first writer's identity and
refuses a mismatching one (``StoreVersionError``) instead of silently
serving, say, modelled latencies to a GRAPE client.

Multiple live writers on one directory are supported in the append-only
sense: ``flush`` merges with the manifest on disk (foreign rows it does not
know are carried over verbatim) under an exclusive ``flock`` on
``<root>/.lock``, so concurrent processes cannot lose each other's
completed puts. ``max_entries`` eviction is per-writer advisory — an
eviction can be resurrected by a concurrent writer's flush. (On platforms
without ``fcntl`` the lock degrades to best-effort, i.e. single-writer.)
"""

from __future__ import annotations

import abc
import hashlib
import json
import os
import tempfile
import threading
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Collection, Dict, Iterable, List, Optional, Sequence

try:
    import fcntl
except ImportError:  # non-POSIX: degrade to best-effort single-writer
    fcntl = None

from repro.core.cache import (
    LibraryEntry,
    PulseLibrary,
    entry_from_dict,
    entry_to_dict,
)
from repro.grouping.group import GateGroup
from repro.perf.instrument import PerfRecorder, recorder_or_null

MANIFEST_VERSION = 1
MANIFEST_NAME = "manifest.json"
ENTRIES_DIR = "entries"


class StoreVersionError(RuntimeError):
    """Manifest written by an incompatible store layout."""


# An eviction guard answers "which keys must not be evicted right now?" —
# the service wires the coalescer's in-flight claims in so an LRU eviction
# cannot delete the warm-start seed of a solve that is still running.
EvictionGuard = Callable[[], Collection[bytes]]


def key_digest(key: bytes) -> str:
    """Stable short address of a canonical group key.

    The canonical key is the full matrix byte string (hundreds of bytes), so
    files and manifest entries are addressed by its SHA-256 instead. The full
    key is recovered from the entry's gates on load.
    """
    return hashlib.sha256(key).hexdigest()


# The counters each backend kind reports, in ``to_dict`` order. A wire
# client adds ``degraded`` (operations absorbed after a failed
# reconnect-and-retry: a get served as a miss, a dropped write, an empty
# snapshot) and ``retry_exhausted`` (RPCs that burned their whole retry
# budget, even when the caller recovered elsewhere); a replica set adds
# read ``failovers`` and the write-quorum ``acked``/``quorum_failures``.
LOCAL_STATS = ("hits", "misses", "puts", "evictions")
REMOTE_STATS = LOCAL_STATS + ("degraded", "retry_exhausted")
REPLICATED_STATS = REMOTE_STATS + ("failovers", "acked", "quorum_failures")


@dataclass(frozen=True)
class StoreStats:
    """Read-only snapshot of one store instance's counters (not persisted).

    The counters live only in the store's :class:`PerfRecorder`, under
    ``<stat_prefix><field>``; ``store.stats`` reads them into a fresh
    snapshot. ``reported`` names the fields the backend reports (one of
    the tuples above); unreported fields read 0.
    """

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    degraded: int = 0
    retry_exhausted: int = 0
    failovers: int = 0
    acked: int = 0
    quorum_failures: int = 0
    reported: Sequence[str] = LOCAL_STATS

    @classmethod
    def read(
        cls, perf: PerfRecorder, prefix: str, fields: Sequence[str]
    ) -> "StoreStats":
        """``fields`` read from ``perf`` by their exact prefixed names."""
        return cls(reported=tuple(fields), **perf.read_counters(prefix, fields))

    @classmethod
    def total(
        cls, parts: Iterable["StoreStats"], fields: Sequence[str]
    ) -> "StoreStats":
        """Field-wise sum of ``parts`` (a sharded store's merged view)."""
        parts = list(parts)
        sums = {name: sum(getattr(p, name) for p in parts) for name in fields}
        return cls(reported=tuple(fields), **sums)

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    def to_dict(self) -> Dict[str, float]:
        payload: Dict[str, float] = {n: getattr(self, n) for n in LOCAL_STATS}
        payload["hit_rate"] = self.hit_rate
        for name in self.reported:
            payload.setdefault(name, getattr(self, name))
        return payload


def _atomic_write_json(path: str, payload: Dict) -> None:
    """Write JSON durably: temp file in the target directory + rename."""
    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            # One json.dumps: json.dump streams through the pure-Python
            # encoder; dumps runs the C one, with the same output.
            handle.write(json.dumps(payload))
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


class StoreBackend(abc.ABC):
    """What the service layer needs from a pulse store — and nothing more.

    ``CompileService``, the executors, and the front doors talk only to this
    interface, so one logical store can be a single directory
    (:class:`PulseStore`), N key-digest-range shards
    (:class:`repro.service.sharding.ShardedStore`), or a store on another
    host (:class:`repro.service.remote.RemoteStore` speaking the
    ``repro store serve`` protocol — including a ShardedStore whose
    shards are themselves remote, the digest-range routing table). The
    contract every backend honors:

    * content addressing by canonical group key (wire-permuted occurrences
      of a stored group hit);
    * ``snapshot()`` is an independent, internally consistent
      :class:`PulseLibrary` copy — the frozen warm-seed source a batch
      plans and solves against;
    * ``put`` is durable before it returns; ``flush`` makes deferred
      manifest state (and recency bumps) visible to future (re)loads;
    * ``get_many``/``put_many`` are the batched spellings with identical
      per-key semantics — the service reads through them so a backend on
      the far side of a wire pays one round trip per host, not per key;
    * ``stats`` is a read-only :class:`StoreStats` snapshot of this
      instance's counters, which live only in its ``perf`` recorder under
      ``<stat_prefix><field>`` (a sharded backend sums its shards');
    * ``claim_fingerprint`` refuses to serve results produced under a
      different engine/run identity;
    * ``add_eviction_guard`` lets each owner veto LRU victims (in-flight
      warm-start seeds must survive until their batch resolves); guards
      compose — two services over one store both stay protected.
    """

    perf: PerfRecorder
    stat_prefix: str
    stat_fields: Sequence[str] = LOCAL_STATS

    @property
    def stats(self) -> StoreStats:
        return StoreStats.read(self.perf, self.stat_prefix, self.stat_fields)

    def _count(self, field: str, n: int = 1) -> None:
        """Bump ``<stat_prefix><field>``, the counter's only copy."""
        if n > 0:
            self.perf.count(self.stat_prefix + field, n)

    @abc.abstractmethod
    def __len__(self) -> int: ...

    @abc.abstractmethod
    def __contains__(self, group: GateGroup) -> bool: ...

    @abc.abstractmethod
    def keys(self) -> List[bytes]: ...

    @abc.abstractmethod
    def snapshot(self) -> PulseLibrary: ...

    @abc.abstractmethod
    def get_key(self, key: bytes) -> Optional[LibraryEntry]: ...

    @abc.abstractmethod
    def peek_key(self, key: bytes) -> Optional[LibraryEntry]: ...

    @abc.abstractmethod
    def put(self, entry: LibraryEntry, flush: bool = True) -> None: ...

    @abc.abstractmethod
    def flush(self) -> None: ...

    @abc.abstractmethod
    def claim_fingerprint(self, fingerprint: str) -> None: ...

    @abc.abstractmethod
    def add_eviction_guard(self, guard: EvictionGuard) -> None: ...

    def get(self, group: GateGroup) -> Optional[LibraryEntry]:
        """Entry for ``group`` (hit/miss counted, recency bumped)."""
        return self.get_key(group.key())

    def get_many(self, keys: Sequence[bytes]) -> List[Optional[LibraryEntry]]:
        """Batched :meth:`get_key`: one result slot per key, in order.

        Accounting matches the per-key loop (each key counts a hit or a
        miss, hits bump recency). This default *is* that loop — local
        backends pay nothing for batching — but wire-crossing backends
        override it to answer the whole list in one round trip per host
        (``get_many`` on the store-server protocol), so a cold batch costs
        O(shards) read RPCs instead of O(keys).
        """
        return [self.get_key(key) for key in keys]

    def put_many(self, entries: Sequence[LibraryEntry], flush: bool = True) -> None:
        """Batched :meth:`put`: every entry durable before return.

        The default defers the manifest rewrite to one trailing
        :meth:`flush`; remote backends override it to ship the whole list
        in one ``put_many`` round trip per host.
        """
        for entry in entries:
            self.put(entry, flush=False)
        if flush:
            self.flush()

    def revalidate(self, engine, budget: int) -> Dict[str, int]:
        """Retrain non-converged entries until ``budget`` iterations are spent.

        The idle-time hygiene pass: entries whose solve never reached the
        target infidelity are re-run (warm-started from their own stored
        pulse, same deterministic seed tag as the original service solve)
        against ``engine`` — typically one configured with a bigger
        iteration budget than the serving path. Candidates come from one
        :meth:`snapshot`, in key-digest order (shard by shard, for a
        sharded store); ``budget`` caps the total iterations spent so the
        pass fits in an idle window. The retrained entries replace the
        stored ones in one :meth:`put_many` — one frame per host on the
        far side of a wire. Returns a summary dict
        (``retrained``/``converged``/``iterations``/``remaining``).
        """
        from repro.core.engines import compile_with_engine
        from repro.service.executor import seed_tag_for

        candidates = sorted(
            (e for e in self.snapshot().entries() if not e.converged),
            key=lambda e: key_digest(e.group.key()),
        )
        spent = converged = 0
        updated: List[LibraryEntry] = []
        for entry in candidates:
            if spent >= budget:
                break
            record = compile_with_engine(
                engine,
                entry.group,
                warm_pulse=entry.pulse,
                warm_source=entry.group,
                seed_tag=seed_tag_for(entry.group),
            )
            spent += record.iterations
            if record.converged:
                converged += 1
            updated.append(
                LibraryEntry(
                    group=entry.group,
                    pulse=record.pulse,
                    latency=record.latency,
                    iterations=entry.iterations + record.iterations,
                    converged=record.converged,
                )
            )
        if updated:
            self.put_many(updated)
        return {
            "retrained": len(updated),
            "converged": converged,
            "iterations": spent,
            "remaining": len(candidates) - len(updated),
        }

    def stats_by_shard(self) -> List[Dict[str, float]]:
        """Per-shard stats snapshots; a single directory is one 'shard'."""
        return [self.stats.to_dict()]

    def stats_by_replica(self) -> List[Dict[str, float]]:
        """Per-replica health rows; empty unless this backend replicates
        (see :meth:`repro.service.replication.ReplicatedStore.stats_by_replica`
        and the routed :class:`~repro.service.sharding.ShardedStore`, which
        annotates each row with its shard index)."""
        return []

    def fingerprints(self) -> List[str]:
        """Distinct engine-identity stamps this backend serves (sorted).

        A healthy store has at most one — every shard and replica was
        populated under the same engine/run configuration. More than one
        is *fingerprint drift* (mixed data that would serve wrong
        latencies), the critical finding the fleet auditor checks for.
        Unstamped parts contribute nothing; backends that cannot know
        (e.g. an unreachable remote) return what they can see.
        """
        return []


class PulseStore(StoreBackend):
    """Disk-backed :class:`PulseLibrary` with stats and bounded size.

    The in-memory library is the source of truth between ``put`` calls; disk
    is updated synchronously on every mutation (entry file first, manifest
    second), so two processes pointing at the same directory see each other's
    completed puts on (re)load but never a torn file.

    All public methods are thread-safe (one reentrant lock): concurrent
    batches share a service's store and put/flush/snapshot from different
    threads.
    """

    def __init__(
        self,
        root: str,
        max_entries: Optional[int] = None,
        perf: Optional[PerfRecorder] = None,
        stat_prefix: str = "store.",
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.root = str(root)
        self.max_entries = max_entries
        self.perf = recorder_or_null(perf)
        # Shards of one logical store namespace their perf names
        # ("store.shard3.hits") so `repro perf` shows the per-shard split.
        self.stat_prefix = stat_prefix
        # EvictionGuard callables, bound methods wrapped in WeakMethod
        self._eviction_guards: List[object] = []
        self._lock = threading.RLock()
        self._library = PulseLibrary()
        self._recency: Dict[bytes, int] = {}  # key -> logical clock of last use
        self._clock = 0
        self._fingerprint: Optional[str] = None  # engine identity stamp
        self._tombstones: set = set()  # digests this writer evicted
        self._disk_lock_depth = 0  # reentrancy for the cross-process flock
        self._disk_fd = -1
        os.makedirs(os.path.join(self.root, ENTRIES_DIR), exist_ok=True)
        self._load_manifest()

    @contextmanager
    def _disk_lock(self):
        """Exclusive cross-process lock over this store directory.

        Serializes the manifest's read-merge-write and entry file
        create/unlink against other processes — without it two concurrent
        flushes are a lost-update race. Reentrant per store instance; the
        callers all hold ``self._lock``, which makes the depth counter safe.
        """
        if fcntl is None:
            yield
            return
        if self._disk_lock_depth == 0:
            self._disk_fd = os.open(
                os.path.join(self.root, ".lock"), os.O_CREAT | os.O_RDWR
            )
            fcntl.flock(self._disk_fd, fcntl.LOCK_EX)
        self._disk_lock_depth += 1
        try:
            yield
        finally:
            self._disk_lock_depth -= 1
            if self._disk_lock_depth == 0:
                fcntl.flock(self._disk_fd, fcntl.LOCK_UN)
                os.close(self._disk_fd)
                self._disk_fd = -1

    # ----------------------------------------------------------------- disk
    @property
    def manifest_path(self) -> str:
        return os.path.join(self.root, MANIFEST_NAME)

    def _entry_path(self, key: bytes) -> str:
        return os.path.join(self.root, ENTRIES_DIR, f"{key_digest(key)}.json")

    def _load_manifest(self) -> None:
        if not os.path.exists(self.manifest_path):
            return
        with self.perf.stage(self.stat_prefix + "read"):
            try:
                with open(self.manifest_path) as handle:
                    manifest = json.load(handle)
                if not isinstance(manifest, dict):
                    raise ValueError("manifest is not an object")
            except ValueError:
                # Truncated/corrupt manifest: the entry files are the
                # durable source of truth — rebuild the index from them.
                self._recover_from_entries()
                return
            version = manifest.get("version")
            if version != MANIFEST_VERSION:
                raise StoreVersionError(
                    f"store at {self.root!r} has manifest version {version!r}; "
                    f"this build reads version {MANIFEST_VERSION}"
                )
            self._fingerprint = manifest.get("fingerprint")
            for digest, meta in manifest.get("entries", {}).items():
                path = os.path.join(self.root, ENTRIES_DIR, f"{digest}.json")
                entry = self._read_entry(path, digest)
                if entry is None:
                    continue  # torn put or corrupt/foreign file
                key = entry.group.key()
                self._library.add(entry)
                self._recency[key] = int(meta.get("recency", 0))
        if self._recency:
            self._clock = max(self._recency.values())

    def _read_entry(self, path: str, digest: str) -> Optional[LibraryEntry]:
        """One entry file, digest-verified; ``None`` when missing/corrupt."""
        if not os.path.exists(path):
            return None
        try:
            with open(path) as handle:
                entry = entry_from_dict(json.load(handle))
        except (ValueError, KeyError, TypeError):
            return None
        if key_digest(entry.group.key()) != digest:
            return None
        return entry

    def _recover_from_entries(self) -> None:
        """Rebuild the manifest by scanning ``entries/`` (corrupt manifest).

        Recency and the engine fingerprint are lost — the next service
        claim re-stamps the fingerprint, and LRU order restarts from zero.
        """
        entries_dir = os.path.join(self.root, ENTRIES_DIR)
        for name in sorted(os.listdir(entries_dir)):
            if not name.endswith(".json"):
                continue
            digest = name[: -len(".json")]
            entry = self._read_entry(os.path.join(entries_dir, name), digest)
            if entry is None:
                continue
            self._library.add(entry)
        self.flush()

    def flush(self) -> None:
        """Rewrite the manifest from in-memory state, merged with disk.

        Rows on disk for digests this writer does not know (a concurrent
        process's puts) are carried over verbatim — their entry files are
        already durable, so the union is always loadable. Atomic rewrite.
        """
        with self._lock, self._disk_lock():
            entries: Dict[str, Dict] = {}
            if os.path.exists(self.manifest_path):
                try:
                    with open(self.manifest_path) as handle:
                        on_disk = json.load(handle)
                    if on_disk.get("version") == MANIFEST_VERSION:
                        entries.update(on_disk.get("entries", {}))
                except (OSError, ValueError):
                    pass  # a torn/corrupt manifest is rebuilt from memory
            for key in list(self._library.keys()):
                entry = self._library.lookup_key(key)
                entries[key_digest(key)] = {
                    "latency": entry.latency,
                    "iterations": entry.iterations,
                    "converged": entry.converged,
                    "n_qubits": entry.group.n_qubits,
                    "recency": self._recency.get(key, 0),
                }
            for digest in self._tombstones:
                entries.pop(digest, None)
            payload = {"version": MANIFEST_VERSION, "entries": entries}
            if self._fingerprint is not None:
                payload["fingerprint"] = self._fingerprint
            with self.perf.stage(self.stat_prefix + "write"):
                _atomic_write_json(self.manifest_path, payload)
            # A tombstone is spent once recorded: keeping it would delete a
            # concurrent writer's later re-put of the same key on the next
            # merge, losing their completed work.
            self._tombstones.clear()

    def claim_fingerprint(self, fingerprint: str) -> None:
        """Stamp (or validate) the engine identity this store serves.

        The first claimant writes the stamp; a later claimant with a
        different fingerprint is refused — its latencies/pulses would be
        silently wrong for the engine that populated the store.
        """
        with self._lock:
            if self._fingerprint is None:
                self._fingerprint = str(fingerprint)
                self.flush()
                return
            if self._fingerprint != str(fingerprint):
                raise StoreVersionError(
                    f"store at {self.root!r} was populated under engine "
                    f"fingerprint {self._fingerprint!r}; refusing "
                    f"{fingerprint!r} — use a separate store directory "
                    f"per engine/run configuration"
                )

    # ------------------------------------------------------------------ api
    def __len__(self) -> int:
        with self._lock:
            return len(self._library)

    def __contains__(self, group: GateGroup) -> bool:
        with self._lock:
            return group in self._library

    def keys(self) -> List[bytes]:
        with self._lock:
            return list(self._library.keys())

    def fingerprints(self) -> List[str]:
        with self._lock:
            return [self._fingerprint] if self._fingerprint else []

    def library(self) -> PulseLibrary:
        """The live in-memory library view (shared, do not mutate)."""
        return self._library

    def snapshot(self) -> PulseLibrary:
        """An independent library copy (a batch's frozen warm-seed source)."""
        with self._lock:
            copy = PulseLibrary()
            copy.merge(self._library)
            return copy

    def add_eviction_guard(self, guard: EvictionGuard) -> None:
        """Protect a dynamic key set from LRU eviction (see module doc).

        Guards accumulate — every service sharing this store instance
        registers its own, and a victim must be clear of all of them. A
        bound method (the usual case: a coalescer's ``in_flight_keys``) is
        held through a weak reference, so a service that is garbage
        collected does not pin its coalescer or slow eviction forever;
        plain functions/lambdas are held strongly.
        """
        with self._lock:
            try:
                self._eviction_guards.append(weakref.WeakMethod(guard))
            except TypeError:  # not a bound method
                self._eviction_guards.append(guard)

    def peek_key(self, key: bytes) -> Optional[LibraryEntry]:
        """Lookup without hit/miss accounting or a recency bump (planning)."""
        with self._lock:
            return self._library.lookup_key(key)

    def get_key(self, key: bytes) -> Optional[LibraryEntry]:
        """Entry by raw canonical key (same stats accounting as ``get``)."""
        with self._lock:
            entry = self._library.lookup_key(key)
            if entry is None:
                self._count("misses")
                return None
            self._count("hits")
            self._touch(key)
            return entry

    def put(self, entry: LibraryEntry, flush: bool = True) -> None:
        """Persist one entry (atomic entry file, then manifest), maybe evict.

        ``flush=False`` defers the manifest rewrite — the entry file is
        still durable immediately, but the entry only becomes visible to a
        future (re)load after the next :meth:`flush`. Batch writers use this
        to pay one manifest rewrite per batch instead of one per entry; the
        recovery semantics are unchanged (an unflushed entry file is the
        same harmless orphan a crash mid-``put`` leaves).
        """
        key = entry.group.key()
        with self._lock, self._disk_lock():
            with self.perf.stage(self.stat_prefix + "write"):
                _atomic_write_json(self._entry_path(key), entry_to_dict(entry))
            self._library.add(entry)
            self._tombstones.discard(key_digest(key))
            self._touch(key)
            self._count("puts")
            if self.max_entries is not None:
                while len(self._library) > self.max_entries:
                    if not self._evict_lru(protect=key):
                        break  # everything left is in-flight; stay over bound
            if flush:
                self.flush()

    # ----------------------------------------------------------------- impl
    def _touch(self, key: bytes) -> None:
        self._clock += 1
        self._recency[key] = self._clock

    def _evict_lru(self, protect: bytes) -> bool:
        """Evict the coldest unprotected key; False when none is evictable.

        Protected means the entry being written *or* any key the eviction
        guard reports in flight: a batch's own writes must not evict the
        entries it has just written before its claims resolve.
        """
        protected = {protect}
        alive = []
        for item in self._eviction_guards:
            guard = item() if isinstance(item, weakref.WeakMethod) else item
            if guard is None:
                continue  # owner collected: drop the stale guard
            alive.append(item)
            protected.update(guard())
        self._eviction_guards = alive
        victims = [k for k in self._library.keys() if k not in protected]
        if not victims:
            return False
        victim = min(victims, key=lambda k: self._recency.get(k, 0))
        self._library.remove(victim)
        self._recency.pop(victim, None)
        self._tombstones.add(key_digest(victim))
        path = self._entry_path(victim)
        if os.path.exists(path):
            os.unlink(path)
        self._count("evictions")
        return True
