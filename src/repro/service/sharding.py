"""Sharded pulse store: one logical store, N key-digest-range shards.

Layout (a sharded root is recognizable by its shard map)::

    <root>/
      shardmap.json     # {"version": 1, "n_shards": N, "scheme": "sha256-range"}
      shard-00/         # a full PulseStore directory (manifest, entries/, .lock)
      shard-01/
      ...

Routing is memcached-style range sharding on the entry address: shard
``i`` owns the digests whose leading 32 bits fall in
``[i * 2^32 / N, (i+1) * 2^32 / N)``. SHA-256 output is uniform, so shards
stay balanced without rebalancing metadata, and the mapping is a pure
function of (digest, N) — no directory lookups, no hot shard map.

Each shard is an ordinary :class:`~repro.service.store.PulseStore`: its own
manifest, its own cross-process flock, its own LRU bound and counters
(``store.shard<i>.*`` in the shared perf recorder; ``stats`` sums the
shard snapshots). That is the point of the split —
writers to different key ranges never serialize on one global lock, and a
``snapshot()`` of the logical store reads per-shard snapshots (each under
its own shard lock) and merges them, so no global consistency point is
needed: the merge is keyed by canonical key and shards are disjoint by
construction.

Shard -> host is just a routing decision: ``ShardedStore(routes=[...])``
replaces the local per-shard directories with
:class:`~repro.service.remote.RemoteStore` clients, one ``remote://``
host per digest range, same ``shard_of`` arithmetic (``open_store`` takes
a comma-separated ``remote://`` list, parses it with
:func:`~repro.service.remote.parse_routes` and builds the routing table
in order). Each host runs ``repro store serve`` over its own ordinary store
directory, so the distributed layout is made of the same durable parts as
the local one. A route may list *replicas* —
``remote://h1a:p|h1b:p,remote://h2:p`` maps shard 0's digest range onto a
:class:`~repro.service.replication.ReplicatedStore` over hosts h1a/h1b
(ordered failover reads, fan-out writes, anti-entropy / ``repro store
repair`` re-syncing) and shard 1's onto the single host h2, so one dead
host is a few counted failovers, not a permanently cold key range. A
route may also carry query params (``remote://h1a:p|h1b:p?w=majority``
sets the write concern, ``?retries=5&backoff=0.1&cap=2`` tunes the wire
retry policy — see :func:`~repro.service.remote.parse_route`); a
single-host route asking for ``w=majority``/``w=all`` opens as a
one-replica :class:`ReplicatedStore` so the quorum contract (loud
:class:`~repro.service.replication.QuorumError` instead of silent
degradation) holds uniformly.

The shard map is written once at store creation and validated on every
open: opening with the wrong expected shard count — or pointing N-shard
code at an M-shard directory — fails loudly with
:class:`~repro.service.store.StoreVersionError` instead of silently
routing keys to the wrong shard (which would look like a 0% hit rate and
duplicate every pulse). Changing N is an explicit offline migration:
:func:`reshard` copies every entry file byte-for-byte into the new layout
(manifest metadata carried over verbatim), so a ``reshard 1 -> 4 -> 1``
round trip is bit-identical.
"""

from __future__ import annotations

import json
import os
import shutil
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.core.cache import LibraryEntry, PulseLibrary
from repro.grouping.group import GateGroup
from repro.perf.instrument import PerfRecorder, recorder_or_null
from repro.service.store import (
    ENTRIES_DIR,
    LOCAL_STATS,
    MANIFEST_NAME,
    MANIFEST_VERSION,
    REPLICATED_STATS,
    EvictionGuard,
    PulseStore,
    StoreBackend,
    StoreStats,
    StoreVersionError,
    _atomic_write_json,
    key_digest,
)

if TYPE_CHECKING:
    from repro.service.remote import Route

SHARD_MAP_VERSION = 1
SHARD_MAP_NAME = "shardmap.json"
SHARD_SCHEME = "sha256-range"


def shard_of(digest: str, n_shards: int) -> int:
    """Range shard for a hex digest: leading 32 bits scaled onto [0, N)."""
    return min(n_shards - 1, (int(digest[:8], 16) * n_shards) >> 32)


def shard_dir_name(index: int) -> str:
    return f"shard-{index:02d}"


def _shard_map_path(root: str) -> str:
    return os.path.join(str(root), SHARD_MAP_NAME)


def is_sharded(root: str) -> bool:
    return os.path.exists(_shard_map_path(root))


def write_shard_map(root: str, n_shards: int) -> None:
    _atomic_write_json(
        _shard_map_path(root),
        {
            "version": SHARD_MAP_VERSION,
            "n_shards": int(n_shards),
            "scheme": SHARD_SCHEME,
        },
    )


def load_shard_map(root: str) -> Dict:
    """Read + validate the shard map; loud failure on anything off."""
    path = _shard_map_path(root)
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except (OSError, ValueError) as exc:
        raise StoreVersionError(
            f"unreadable shard map at {path!r}: {exc}"
        ) from exc
    if not isinstance(raw, dict) or raw.get("version") != SHARD_MAP_VERSION:
        raise StoreVersionError(
            f"shard map at {path!r} has version {raw.get('version')!r}; "
            f"this build reads version {SHARD_MAP_VERSION}"
        )
    if raw.get("scheme") != SHARD_SCHEME:
        raise StoreVersionError(
            f"shard map at {path!r} uses scheme {raw.get('scheme')!r}; "
            f"this build routes with {SHARD_SCHEME!r}"
        )
    n_shards = raw.get("n_shards")
    if not isinstance(n_shards, int) or n_shards < 1:
        raise StoreVersionError(
            f"shard map at {path!r} has invalid n_shards {n_shards!r}"
        )
    return raw


class ShardedStore(StoreBackend):
    """N :class:`PulseStore` shards behind the one :class:`StoreBackend`.

    Every operation routes by :func:`shard_of` on the entry's
    :func:`~repro.service.store.key_digest`; aggregate views (``len``,
    ``keys``, ``snapshot``, ``stats``) fold over the shards. ``max_entries``
    is split evenly across shards (each shard enforces its own LRU bound,
    which is what keeps eviction lock-local); the logical bound is
    therefore approximate by up to one entry per shard, same as any
    hash-partitioned cache.
    """

    def __init__(
        self,
        root: Optional[str] = None,
        n_shards: Optional[int] = None,
        expected_shards: Optional[int] = None,
        max_entries: Optional[int] = None,
        perf: Optional[PerfRecorder] = None,
        routes: Optional[Sequence[Route]] = None,
    ) -> None:
        self.perf = recorder_or_null(perf)
        self.routes: Optional[List[str]] = None
        if routes is not None:
            # Routing table mode: shard i's digest range lives on host i.
            # Same shard_of arithmetic as local shards — shard -> host is
            # purely a routing decision, the key space never changes.
            self._init_routed(root, routes, n_shards, expected_shards)
            return
        if root is None:
            raise StoreVersionError("ShardedStore needs a root or routes")
        self.root = str(root)
        if is_sharded(self.root):
            shard_map = load_shard_map(self.root)
            self.n_shards = shard_map["n_shards"]
            # Both spellings of a requested count must match the map — a
            # silent mismatch would route keys to the wrong shard.
            requested = expected_shards if expected_shards is not None else n_shards
            if requested is not None and requested != self.n_shards:
                raise StoreVersionError(
                    f"store at {self.root!r} is sharded {self.n_shards} ways; "
                    f"{requested} shards were requested — run "
                    f"`repro store reshard --shards {requested}` to "
                    f"migrate, or drop the --shards flag to auto-detect"
                )
        else:
            n_shards = n_shards if n_shards is not None else expected_shards
            if n_shards is None or n_shards < 1:
                raise StoreVersionError(
                    f"no shard map at {self.root!r} and no shard count given"
                )
            os.makedirs(self.root, exist_ok=True)
            self.n_shards = int(n_shards)
            write_shard_map(self.root, self.n_shards)
        per_shard_bound = None
        if max_entries is not None:
            per_shard_bound = max(1, max_entries // self.n_shards)
        self.max_entries = max_entries
        self.shards: List[StoreBackend] = [
            PulseStore(
                os.path.join(self.root, shard_dir_name(i)),
                max_entries=per_shard_bound,
                perf=self.perf,
                stat_prefix=f"store.shard{i}.",
            )
            for i in range(self.n_shards)
        ]

    def _init_routed(
        self,
        root: Optional[str],
        routes: Sequence[Route],
        n_shards: Optional[int],
        expected_shards: Optional[int],
    ) -> None:
        """Build the store from a routing table as
        :func:`~repro.service.remote.parse_routes` returns it: one
        ``(route, replicas, params)`` per digest range, in shard order."""
        if root is not None:
            raise StoreVersionError(
                "a routed ShardedStore has no local root; the hosts own "
                "their own directories"
            )
        if not routes:
            raise StoreVersionError("a routed ShardedStore needs a route")
        requested = expected_shards if expected_shards is not None else n_shards
        if requested is not None and requested != len(routes):
            raise StoreVersionError(
                f"routing table lists {len(routes)} hosts; "
                f"{requested} shards were requested"
            )
        self.root = None
        self.routes = [spec for spec, _, _ in routes]
        self.n_shards = len(routes)
        self.max_entries = None  # bounds are each store server's policy
        self.shards = [
            _route_store(route, self.perf, stat_prefix=f"store.shard{i}.")
            for i, route in enumerate(routes)
        ]

    # -------------------------------------------------------------- routing
    def shard_for_key(self, key: bytes) -> StoreBackend:
        return self.shards[shard_of(key_digest(key), self.n_shards)]

    # ------------------------------------------------------------------ api
    @property
    def stats(self) -> StoreStats:
        """Sum of the shard snapshots; a routed store reports the
        replica-set fields whether or not any route replicates."""
        fields = LOCAL_STATS if self.routes is None else REPLICATED_STATS
        return StoreStats.total((shard.stats for shard in self.shards), fields)

    def stats_by_shard(self) -> List[Dict[str, float]]:
        return [shard.stats.to_dict() for shard in self.shards]

    def stats_by_replica(self) -> List[Dict[str, float]]:
        """Per-replica health rows from every replicated shard, each
        annotated with the shard index it serves (non-replicated shards
        contribute nothing — they have no replica set to diverge)."""
        rows: List[Dict[str, float]] = []
        for index, shard in enumerate(self.shards):
            for row in shard.stats_by_replica():
                row = dict(row)
                row["shard"] = index
                rows.append(row)
        return rows

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def __contains__(self, group: GateGroup) -> bool:
        key = group.key()
        return self.shard_for_key(key).peek_key(key) is not None

    def keys(self) -> List[bytes]:
        keys: List[bytes] = []
        for shard in self.shards:
            keys.extend(shard.keys())
        return keys

    def fingerprints(self) -> List[str]:
        """Union of per-shard stamps — more than one element means the
        shards disagree on engine identity (fingerprint drift)."""
        seen = set()
        for shard in self.shards:
            seen.update(shard.fingerprints())
        return sorted(seen)

    def snapshot(self) -> PulseLibrary:
        """Merged per-shard snapshots — each taken under its own shard lock.

        Shards own disjoint key ranges, so the merge cannot collide; there
        is deliberately no cross-shard consistency point (a concurrent put
        lands in exactly one shard and is either in that shard's snapshot
        or not — the same guarantee a single directory gives).
        """
        merged = PulseLibrary()
        for shard in self.shards:
            merged.merge(shard.snapshot())
        return merged

    def get_key(self, key: bytes) -> Optional[LibraryEntry]:
        return self.shard_for_key(key).get_key(key)

    def get_many(self, keys: Sequence[bytes]) -> List[Optional[LibraryEntry]]:
        """Batched reads, one ``get_many`` per *shard* touched.

        Keys are bucketed by digest range and each bucket is answered by
        its shard's own ``get_many`` — a remote shard answers its whole
        bucket in one round trip, so a cold batch costs O(shards) read
        RPCs, not O(keys). Results come back aligned with ``keys``.
        """
        if not keys:
            return []
        buckets: Dict[int, List[int]] = {}
        for position, key in enumerate(keys):
            index = shard_of(key_digest(key), self.n_shards)
            buckets.setdefault(index, []).append(position)
        results: List[Optional[LibraryEntry]] = [None] * len(keys)
        for index, positions in sorted(buckets.items()):
            entries = self.shards[index].get_many(
                [keys[p] for p in positions]
            )
            for position, entry in zip(positions, entries):
                results[position] = entry
        return results

    def peek_key(self, key: bytes) -> Optional[LibraryEntry]:
        return self.shard_for_key(key).peek_key(key)

    def put(self, entry: LibraryEntry, flush: bool = True) -> None:
        self.shard_for_key(entry.group.key()).put(entry, flush=flush)

    def put_many(self, entries: Sequence[LibraryEntry], flush: bool = True) -> None:
        """Batched writes: one ``put_many`` per shard touched."""
        buckets: Dict[int, List[LibraryEntry]] = {}
        for entry in entries:
            index = shard_of(key_digest(entry.group.key()), self.n_shards)
            buckets.setdefault(index, []).append(entry)
        for index, bucket in sorted(buckets.items()):
            self.shards[index].put_many(bucket, flush=flush)

    def flush(self) -> None:
        for shard in self.shards:
            shard.flush()

    def claim_fingerprint(self, fingerprint: str) -> None:
        for shard in self.shards:
            shard.claim_fingerprint(fingerprint)

    def repair(self) -> Dict:
        """Re-sync lagging replicas on every replicated shard.

        Shards without replicas (local directories, single remote hosts)
        have no peers to sync from and are skipped with a zero row. The
        summary aggregates :meth:`ReplicatedStore.repair` per shard.
        """
        per_shard: List[Dict] = []
        copied = 0
        for index, shard in enumerate(self.shards):
            if not hasattr(shard, "repair"):
                per_shard.append({"shard": index, "copied": 0, "replicas": 1})
                continue
            summary = shard.repair()
            summary["shard"] = index
            per_shard.append(summary)
            copied += summary["copied"]
        return {"copied": copied, "shards": per_shard}

    def add_eviction_guard(self, guard: EvictionGuard) -> None:
        for shard in self.shards:
            shard.add_eviction_guard(guard)


# ------------------------------------------------------------------ factory
def _route_store(
    route: Route,
    perf: Optional[PerfRecorder],
    stat_prefix: str = "store.remote.",
) -> StoreBackend:
    """One parsed route as a store. A replica set — or a single host asking
    for a write concern — gets the quorum machinery of
    :class:`~repro.service.replication.ReplicatedStore`, which re-parses
    the spec's params itself; a plain host is a
    :class:`~repro.service.remote.RemoteStore`."""
    from repro.service.remote import RemoteStore
    from repro.service.replication import ReplicatedStore

    spec, replicas, params = route
    if len(replicas) > 1 or "w" in params:
        return ReplicatedStore(spec, perf=perf, stat_prefix=stat_prefix)
    return RemoteStore(spec, perf=perf, stat_prefix=stat_prefix)


def open_store(
    root: str,
    shards: Optional[int] = None,
    max_entries: Optional[int] = None,
    perf: Optional[PerfRecorder] = None,
) -> StoreBackend:
    """Open (or create) the store at ``root``, sharded or not.

    * An existing sharded root (shard map present) opens as a
      :class:`ShardedStore`; ``shards`` — when given — must match the map.
    * An existing single-directory store opens as a :class:`PulseStore`;
      asking for ``shards > 1`` on it is refused with a pointer at the
      ``repro store reshard`` migration instead of silently re-routing.
    * A fresh path creates whichever layout ``shards`` asks for
      (``None``/1 -> single directory, N > 1 -> N shards).
    * A ``remote://host:port`` spec opens a
      :class:`~repro.service.remote.RemoteStore`; a comma-separated list
      of them opens a routed :class:`ShardedStore` whose digest ranges map
      onto the listed hosts in order (``shards`` — when given — must match
      the host count). Within a route, a ``|``-separated replica list
      (``remote://h1a:p|h1b:p``) opens a
      :class:`~repro.service.replication.ReplicatedStore` for that digest
      range: ordered failover reads, fan-out writes, ``repro store
      repair``. ``max_entries`` is refused for remote specs: the bound is
      each store server's policy.
    """
    root = str(root)
    if "remote://" in root:
        # Any remote:// element makes this a routing-table spec — matching
        # only a leading one would let `/local/dir,remote://h:p` fall
        # through and silently open a fresh local store at that literal
        # path, never touching the remote at all.
        from repro.service.remote import parse_routes

        try:
            routes = parse_routes(root)  # replicas and ?params both validate
        except ValueError as exc:
            raise StoreVersionError(f"bad store spec {root!r}: {exc}") from exc
        if max_entries is not None:
            raise StoreVersionError(
                "--max-entries applies to the store server's own store, "
                "not to a remote:// client"
            )
        if len(routes) == 1 and (shards is None or shards == 1):
            return _route_store(routes[0], perf)
        return ShardedStore(routes=routes, expected_shards=shards, perf=perf)
    if is_sharded(root):
        return ShardedStore(
            root, expected_shards=shards, max_entries=max_entries, perf=perf
        )
    legacy = os.path.exists(os.path.join(root, MANIFEST_NAME)) or os.path.isdir(
        os.path.join(root, ENTRIES_DIR)
    )
    if not legacy:
        # About to create a fresh store: refuse if an interrupted in-place
        # reshard left the data in a sibling directory — silently starting
        # empty here would look like losing every cached pulse.
        marker = _interrupted_reshard_marker(root)
        if marker is not None:
            raise StoreVersionError(
                f"no store at {root!r} but an interrupted reshard left "
                f"{marker!r}; recover the data by renaming it back to "
                f"{root!r} (use the -old copy if both exist), then re-run "
                f"`repro store reshard`"
            )
    if legacy and shards is not None and shards > 1:
        raise StoreVersionError(
            f"store at {root!r} is a single directory; migrate it with "
            f"`repro store reshard --store {root} --shards {shards}` "
            f"before opening it sharded"
        )
    if shards is not None and shards > 1:
        return ShardedStore(
            root, n_shards=shards, max_entries=max_entries, perf=perf
        )
    return PulseStore(root, max_entries=max_entries, perf=perf)


# ------------------------------------------------------------------ reshard
def _interrupted_reshard_marker(root: str) -> Optional[str]:
    """A sibling left behind by an in-place reshard that never finished."""
    for suffix in (".reshard-old", ".reshard-new"):
        candidate = root.rstrip(os.sep) + suffix
        if os.path.exists(candidate):
            return candidate
    return None


def _source_parts(root: str) -> List[str]:
    """The PulseStore directories the store at ``root`` is made of."""
    if is_sharded(root):
        shard_map = load_shard_map(root)
        return [
            os.path.join(root, shard_dir_name(i))
            for i in range(shard_map["n_shards"])
        ]
    return [root]


def _read_manifest_rows(part_dir: str):
    """(fingerprint, {digest: meta}) of one part; missing manifest is empty."""
    path = os.path.join(part_dir, MANIFEST_NAME)
    if not os.path.exists(path):
        return None, {}
    try:
        with open(path) as handle:
            manifest = json.load(handle)
        if not isinstance(manifest, dict):
            raise ValueError("manifest is not an object")
    except ValueError:
        # Corrupt manifest: let PulseStore's recovery rebuild it from the
        # durable entry files, then migrate the rebuilt index.
        PulseStore(part_dir)
        with open(path) as handle:
            manifest = json.load(handle)
    if manifest.get("version") != MANIFEST_VERSION:
        raise StoreVersionError(
            f"manifest at {path!r} has version {manifest.get('version')!r}; "
            f"this build migrates version {MANIFEST_VERSION}"
        )
    return manifest.get("fingerprint"), manifest.get("entries", {})


def reshard(
    root: str,
    n_shards: int,
    dest: Optional[str] = None,
) -> Dict[str, int]:
    """Migrate the store at ``root`` to ``n_shards`` shards (offline).

    Entry files are copied *byte for byte* (never decoded and re-encoded)
    and manifest rows are carried over verbatim — recency, convergence,
    and the engine fingerprint all survive, so a ``1 -> 4 -> 1`` round
    trip reproduces the original files bit-identically. ``n_shards == 1``
    produces a plain single-directory :class:`PulseStore` layout.

    With ``dest`` the new layout is built there and the source is left
    untouched. Without it the migration is in place: the new layout is
    staged in a sibling directory and swapped in with two renames — a
    crash never leaves a half-routed mix, and a crash in the brief window
    between the renames (root absent, data in the ``.reshard-old`` /
    ``.reshard-new`` siblings) is detected by :func:`open_store`, which
    refuses to create a fresh store next to the stranded data and names
    the recovery step. Run it offline — live writers flushing mid-copy
    are not merged.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    root = str(root)
    if dest is not None and os.path.exists(str(dest)):
        # Checked before any copying: failing afterwards would strand a
        # full <dest>.reshard-new staging copy next to the user's data.
        raise FileExistsError(f"reshard destination {str(dest)!r} exists")
    parts = _source_parts(root)

    fingerprint = None
    rows: Dict[str, Dict] = {}
    sources: Dict[str, str] = {}  # digest -> source entry file
    for part in parts:
        part_fp, part_rows = _read_manifest_rows(part)
        if fingerprint is None:
            fingerprint = part_fp
        elif part_fp is not None and part_fp != fingerprint:
            raise StoreVersionError(
                f"shards of {root!r} disagree on the engine fingerprint "
                f"({fingerprint!r} vs {part_fp!r}); refusing to merge them"
            )
        for digest, meta in part_rows.items():
            entry_file = os.path.join(part, ENTRIES_DIR, f"{digest}.json")
            if not os.path.exists(entry_file):
                continue  # torn put: same tolerance as PulseStore load
            rows[digest] = meta
            sources[digest] = entry_file

    # Stage the full new layout next to the destination, then swap.
    target = str(dest) if dest is not None else root
    staging = target.rstrip(os.sep) + ".reshard-new"
    if os.path.exists(staging):
        shutil.rmtree(staging)
    if n_shards == 1:
        part_dirs = [staging]
    else:
        part_dirs = [
            os.path.join(staging, shard_dir_name(i)) for i in range(n_shards)
        ]
    shard_rows: List[Dict[str, Dict]] = [dict() for _ in range(n_shards)]
    for index, part_dir in enumerate(part_dirs):
        os.makedirs(os.path.join(part_dir, ENTRIES_DIR), exist_ok=True)
    for digest, meta in rows.items():
        index = 0 if n_shards == 1 else shard_of(digest, n_shards)
        shard_rows[index][digest] = meta
        shutil.copyfile(
            sources[digest],
            os.path.join(part_dirs[index], ENTRIES_DIR, f"{digest}.json"),
        )
    for index, part_dir in enumerate(part_dirs):
        payload = {"version": MANIFEST_VERSION, "entries": shard_rows[index]}
        if fingerprint is not None:
            payload["fingerprint"] = fingerprint
        _atomic_write_json(os.path.join(part_dir, MANIFEST_NAME), payload)
    if n_shards > 1:
        write_shard_map(staging, n_shards)

    if dest is not None:
        os.rename(staging, target)
    else:
        backup = root.rstrip(os.sep) + ".reshard-old"
        if os.path.exists(backup):
            shutil.rmtree(backup)
        os.rename(root, backup)
        os.rename(staging, root)
        shutil.rmtree(backup)
    return {
        "entries": len(rows),
        "n_shards": n_shards,
        "from_shards": len(parts),
    }
