"""Replicated remote store: one digest range, N interchangeable hosts.

A production store cannot treat a dead shard host as a permanent 0%-hit
key range, so the routing table's unit is not a host but a *replica
list*: ``remote://h1a:p|h1b:p`` names one shard whose entries live on
every listed host. :class:`ReplicatedStore` is the
:class:`~repro.service.store.StoreBackend` over such a list, built from
the raising ``fetch_*``/``send_*`` wire primitives of
:class:`~repro.service.remote.RemoteStore`:

* **Reads fail over in order.** ``get``/``get_many``/``peek``/``keys``/
  ``snapshot`` try replica 0 first and walk down the list on a wire
  failure; each skip is counted per replica (``stats.failovers``,
  ``stats_by_replica``), so a limping primary is visible in every batch
  report. Only when *every* replica is unreachable does the read degrade
  to a miss (``stats.degraded``) — the service then plans cold, which is
  correct, just slower. Never wrong, never down while one replica lives.

* **Writes fan out to every replica, under a per-route write concern.**
  ``remote://h1a:p|h1b:p?w=majority`` sets the quorum a ``put``/
  ``put_many``/``flush`` must reach before it counts as acknowledged:

  - ``w=1`` (the default) keeps the original best-effort semantics — a
    write that reaches at least one live replica is durable, one that
    reaches none is absorbed as a degraded cache write (the caller keeps
    its record, the batch just plans colder next time);
  - ``w=majority`` requires ``ceil(n/2)`` replicas (1 of 2, 2 of 3 — the
    even-set floor is deliberate, so the canonical 2-replica pair
    survives a single failure);
  - ``w=all`` requires every replica.

  A write that cannot reach its quorum raises a typed
  :class:`QuorumError` — loud, never a silent degradation — and counts
  ``stats.quorum_failures``; one that does reach it counts ``stats.acked``
  (per entry), so every batch report shows the quorum outcome alongside
  the fan-out lag (replicas that missed an acked write still count their
  own ``degraded``, visible per replica and closable by anti-entropy or
  :meth:`ReplicatedStore.repair`). A service batch that solves nothing
  makes no write and no flush, so it needs no quorum: a fully covered
  batch is served by failover reads while one replica lives.

* **``repair()`` re-syncs lagging replicas from their peers.** It runs
  one :func:`reconcile` round, the same diff-and-copy the store servers'
  anti-entropy loops run: ``keys_digest`` probes first (a converged set
  stops there), then the key sets are unioned and the missing entries
  copied with ``get_many``/``put_many`` frames. Entries cross the wire as
  the same canonical ``entry_to_dict`` JSON the disk files hold, so a
  repaired replica's entry files are *bit-identical* to its peer's — the
  same guarantee ``repro store reshard`` gives locally. An unreachable
  replica is skipped (the next repair pass catches it up); repair after
  an outage is idempotent.

The engine-fingerprint guard fans out too: every replica is claimed, a
mismatch anywhere is raised loudly, and a claim absorbed while a replica
was down is replayed by that replica's reconnect handshake — an outage
never lets mismatched data slip into one copy of the shard.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

from repro.core.cache import LibraryEntry, PulseLibrary
from repro.grouping.group import GateGroup
from repro.perf.instrument import PerfRecorder, recorder_or_null
from repro.service.remote import (
    WRITE_CONCERNS,
    RemoteStore,
    RemoteUnavailable,
    RetryPolicy,
    parse_route,
    retry_from_params,
    split_replicas,
)
from repro.service.store import REPLICATED_STATS, StoreBackend, StoreStats
from repro.service.storeserver import digest_keys, encode_entry

T = TypeVar("T")


class QuorumError(ConnectionError):
    """A replicated write could not reach its required quorum.

    Deliberately *not* a :class:`~repro.service.remote.RemoteUnavailable`:
    that one is the wire layer's "degrade to a miss" signal and gets
    absorbed; a quorum failure is the caller's contract being broken and
    must surface — through :class:`~repro.service.sharding.ShardedStore`,
    through ``CompileService`` (which fails the batch's claims and
    re-raises), out of the front doors as a loud error.
    """

    def __init__(self, address: str, required: int, delivered: int, n: int) -> None:
        super().__init__(
            f"write to {address} reached {delivered} of {n} replicas; "
            f"the route's write concern requires {required}"
        )
        self.address = address
        self.required = required
        self.delivered = delivered
        self.n_replicas = n


def quorum_required(write_concern: str, n_replicas: int) -> int:
    """Acks ``write_concern`` demands from ``n_replicas`` (see module doc)."""
    if write_concern == "all":
        return n_replicas
    if write_concern == "majority":
        return (n_replicas + 1) // 2
    return 1  # w=1


class ReplicatedStore(StoreBackend):
    """:class:`StoreBackend` over an ordered list of replica hosts.

    Replica order is priority order: replica 0 serves every read while it
    is healthy, so put its closest/fastest copy first. All replicas are
    assumed to hold (eventually, via fan-out writes and :meth:`repair`)
    the same digest range — this class does no routing; a
    :class:`~repro.service.sharding.ShardedStore` routes digest ranges
    *onto* replica sets.
    """

    stat_fields = REPLICATED_STATS

    def __init__(
        self,
        spec,
        timeout_s: float = 30.0,
        perf: Optional[PerfRecorder] = None,
        stat_prefix: str = "store.remote.",
        write_concern: Optional[str] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if isinstance(spec, str):
            specs, params = parse_route(spec)
            if write_concern is None:
                write_concern = params.get("w")
            if retry is None:
                retry = retry_from_params(params)
        else:
            specs = [s for piece in spec for s in split_replicas(piece)]
        if not specs:
            raise ValueError("ReplicatedStore needs at least one replica spec")
        self.write_concern = write_concern if write_concern is not None else "1"
        if self.write_concern not in WRITE_CONCERNS:
            raise ValueError(
                f"bad write concern {self.write_concern!r}; expected one "
                f"of {'|'.join(WRITE_CONCERNS)}"
            )
        self.perf = recorder_or_null(perf)
        self.stat_prefix = stat_prefix
        self.replicas: List[RemoteStore] = [
            RemoteStore(
                s,
                timeout_s=timeout_s,
                perf=self.perf,
                stat_prefix=f"{stat_prefix}r{i}.",
                retry=retry,
            )
            for i, s in enumerate(specs)
        ]
        self.quorum = quorum_required(self.write_concern, len(self.replicas))

    @property
    def address(self) -> str:
        return "|".join(r.address for r in self.replicas)

    def close(self) -> None:
        for replica in self.replicas:
            replica.close()

    # ------------------------------------------------------------- counters
    @property
    def stats(self) -> StoreStats:
        """This store's logical read/write counters, with every replica's
        ``degraded`` and ``retry_exhausted`` folded in and ``failovers``
        summed over the per-replica ``failover.r<i>`` counters."""
        own = super().stats
        replicas = [replica.stats for replica in self.replicas]
        return replace(
            own,
            degraded=own.degraded + sum(r.degraded for r in replicas),
            retry_exhausted=sum(r.retry_exhausted for r in replicas),
            failovers=sum(self._failover_counts()),
        )

    def stats_by_replica(self) -> List[Dict[str, float]]:
        """Per-replica health: each replica's own wire counters plus the
        failovers *it* caused (reads that skipped it because it was down)."""
        rows = []
        for replica, failovers in zip(self.replicas, self._failover_counts()):
            row = replica.stats.to_dict()
            row["failovers"] = failovers
            row["address"] = replica.address
            rows.append(row)
        return rows

    def _failover_counts(self) -> List[int]:
        """Reads that skipped each replica (its ``failover.r<i>`` counter)."""
        names = [f"failover.r{i}" for i in range(len(self.replicas))]
        return list(self.perf.read_counters(self.stat_prefix, names).values())

    # ---------------------------------------------------------------- reads
    def _failover_read(self, op: Callable[[RemoteStore], T]) -> T:
        """``op`` against the first live replica, in priority order.

        A wire failure at replica ``i`` is counted under
        ``failover.r<i>`` (which ``stats.failovers`` sums) and the next
        replica is tried; raises :class:`RemoteUnavailable` only when the
        whole set is down.
        """
        last: Optional[RemoteUnavailable] = None
        for index, replica in enumerate(self.replicas):
            try:
                result = op(replica)
            except RemoteUnavailable as exc:
                self._count(f"failover.r{index}")
                last = exc
                continue
            return result
        raise RemoteUnavailable(
            f"all {len(self.replicas)} replicas of {self.address} "
            f"unreachable"
        ) from last

    def __len__(self) -> int:
        return len(self.keys())

    def __contains__(self, group: GateGroup) -> bool:
        return self.peek_key(group.key()) is not None

    def keys(self) -> List[bytes]:
        try:
            return self._failover_read(lambda r: r.fetch_keys())
        except RemoteUnavailable:
            self._degrade()
            return []

    def snapshot(self) -> PulseLibrary:
        try:
            return self._failover_read(lambda r: r.fetch_snapshot())
        except RemoteUnavailable:
            self._degrade()
            return PulseLibrary()

    def library(self) -> PulseLibrary:
        return self.snapshot()

    def get_key(self, key: bytes) -> Optional[LibraryEntry]:
        try:
            entry = self._failover_read(lambda r: r.fetch_key(key))
        except RemoteUnavailable:
            self._degrade()
            self._count("misses")
            return None
        self._count("hits" if entry is not None else "misses")
        return entry

    def get_many(self, keys: Sequence[bytes]) -> List[Optional[LibraryEntry]]:
        if not keys:
            return []
        try:
            entries = self._failover_read(lambda r: r.fetch_many(keys))
        except RemoteUnavailable:
            self._degrade()
            self._count("misses", len(keys))
            return [None] * len(keys)
        hits = sum(1 for e in entries if e is not None)
        self._count("hits", hits)
        self._count("misses", len(entries) - hits)
        return entries

    def peek_key(self, key: bytes) -> Optional[LibraryEntry]:
        try:
            return self._failover_read(lambda r: r.fetch_key(key, peek=True))
        except RemoteUnavailable:
            self._degrade()
            return None

    def fingerprints(self) -> List[str]:
        """Union of every *reachable* replica's engine stamps — unlike
        reads this deliberately does not stop at the first live replica:
        drift between replicas is exactly what the caller is looking for."""
        seen = set()
        for replica in self.replicas:
            seen.update(replica.fingerprints())
        return sorted(seen)

    def _degrade(self) -> None:
        self._count("degraded")

    # --------------------------------------------------------------- writes
    def _fan_out_write(
        self, send: Callable[[RemoteStore], None], puts_per_delivery: int
    ) -> int:
        """``send`` to every replica; returns how many accepted it.

        A replica that drops the write counts its own ``degraded`` (the
        lag is visible in ``stats_by_replica`` and closable by
        anti-entropy or :meth:`repair`); whether the delivery count is
        *enough* is the caller's write concern, checked by
        :meth:`_check_quorum`.
        """
        delivered = 0
        for replica in self.replicas:
            try:
                send(replica)
            except RemoteUnavailable:
                replica._degrade()  # dropped write at this replica
                continue
            replica._count("puts", puts_per_delivery)
            delivered += 1
        return delivered

    def _check_quorum(self, delivered: int, n_entries: int) -> None:
        """Account a fan-out outcome against the route's write concern.

        Quorum met: ``acked`` counts the entries (and ``puts`` keeps its
        logical meaning via the callers). Quorum missed under
        ``w=majority``/``w=all``: count ``quorum_failures`` and raise
        :class:`QuorumError` — loudly, so the caller knows its write is
        *not* durably replicated to spec. Under ``w=1`` a fully-lost
        write stays today's absorbed degradation: the pulse store is a
        cache, the caller keeps its record, and the miss is visible in
        ``stats.degraded`` rather than fatal.
        """
        if delivered >= self.quorum:
            self._count("acked", n_entries)
            return
        if self.write_concern == "1":
            self._degrade()  # fully lost cache write; caller keeps its record
            return
        self._count("quorum_failures")
        raise QuorumError(
            self.address, self.quorum, delivered, len(self.replicas)
        )

    def put(self, entry: LibraryEntry, flush: bool = True) -> None:
        delivered = self._fan_out_write(
            lambda r: r.send_put(entry, flush), puts_per_delivery=1
        )
        if delivered:
            self._count("puts")
        self._check_quorum(delivered, 1)

    def put_many(self, entries: Sequence[LibraryEntry], flush: bool = True) -> None:
        if not entries:
            return
        delivered = self._fan_out_write(
            lambda r: r.send_many(entries, flush),
            puts_per_delivery=len(entries),
        )
        if delivered:
            self._count("puts", len(entries))
        self._check_quorum(delivered, len(entries))

    def flush(self) -> None:
        """Flush every replica; the write concern applies here too — a
        flush that cannot reach quorum under ``w>=majority`` raises (the
        deferred manifest state it was meant to make durable is not)."""
        delivered = 0
        for replica in self.replicas:
            try:
                replica.send_flush()
            except RemoteUnavailable:
                replica._degrade()
                continue
            delivered += 1
        self._check_quorum(delivered, 0)

    def claim_fingerprint(self, fingerprint: str) -> None:
        """Every replica is claimed: a mismatch anywhere raises loudly; an
        unreachable replica absorbs the claim and replays it on its
        reconnect handshake (see :meth:`RemoteStore.claim_fingerprint`)."""
        for replica in self.replicas:
            replica.claim_fingerprint(fingerprint)

    def add_eviction_guard(self, guard) -> None:
        """No-op: eviction is each store server's policy."""

    # --------------------------------------------------------------- repair
    def repair(self) -> Dict:
        """Re-sync lagging replicas from their peers: one :func:`reconcile`
        round over every replica.

        Returns a summary (``reachable`` replicas, ``entries`` = union
        size, ``copied`` total, ``copied_by_replica``). Unreachable
        replicas are skipped — run repair again once they are back; only
        a route with no reachable replica at all raises.
        """
        result = reconcile(self.replicas)
        reachable = sum(result.reachable)
        if not reachable:
            raise RemoteUnavailable(
                f"no replica of {self.address} reachable; nothing to repair"
            )
        return {
            "replicas": len(self.replicas),
            "reachable": reachable,
            "entries": result.entries,
            "copied": sum(result.copied),
            "copied_by_replica": result.copied,
        }


# ---------------------------------------------------------------- reconcile
class LocalReplica:
    """A local :class:`StoreBackend` behind the raising wire primitives
    :func:`reconcile` calls, so an anti-entropy loop's own store takes part
    next to its :class:`RemoteStore` peers. Reads peek: reconciling never
    counts a local read as a hit or a miss."""

    def __init__(self, store: StoreBackend) -> None:
        self.store = store

    def fetch_keys_digest(self) -> Dict:
        keys = self.store.keys()
        return {"digest": digest_keys(keys), "n": len(keys)}

    def fetch_keys(self) -> List[bytes]:
        return self.store.keys()

    def fetch_many(self, keys: Sequence[bytes]) -> List[Optional[LibraryEntry]]:
        return [self.store.peek_key(key) for key in keys]

    def send_many(self, entries: Sequence[LibraryEntry]) -> None:
        self.store.put_many(entries)


@dataclass
class Reconciled:
    """What one :func:`reconcile` round did, per participant."""

    reachable: List[bool]  # False once the participant's wire failed
    copied: List[int]  # entries written to each participant
    entries: int = 0  # size of the reachable participants' key union
    bytes: int = 0  # encoded size of every copied entry
    digests_agree: bool = False  # settled by the keys_digest probes alone


def reconcile(participants: Sequence) -> Reconciled:
    """One diff-and-copy round: every reachable participant ends up holding
    the union of all their keys.

    Participants are :class:`RemoteStore` replicas or a
    :class:`LocalReplica`. The round probes each ``keys_digest`` first;
    when every reachable digest agrees it stops there, so a converged set
    costs one constant-size frame per participant. Otherwise it fetches
    each key set, unions them, and copies each missing key from its first
    holder (in participant order) in ``get_many``/``put_many`` frames. A
    participant whose wire fails at any step is skipped for the rest of
    the round; the next round catches it up.

    Entries travel as the canonical ``entry_to_dict`` JSON the entry files
    hold, so a copy is byte-identical to its source. Entries are immutable
    and content-addressed, so a write racing the round either fans out by
    itself or is copied here; both land the same bytes, and re-putting a
    key rewrites identical content. A round is therefore idempotent and
    never needs the fleet quiesced.
    """
    n = len(participants)
    reachable = [True] * n
    result = Reconciled(reachable=reachable, copied=[0] * n)
    probes: Dict[int, Dict] = {}
    for index, participant in enumerate(participants):
        try:
            probes[index] = participant.fetch_keys_digest()
        except RemoteUnavailable:
            reachable[index] = False
    if len({probe["digest"] for probe in probes.values()}) <= 1:
        result.digests_agree = True
        result.entries = max((p["n"] for p in probes.values()), default=0)
        return result
    views: Dict[int, set] = {}
    for index in probes:
        try:
            views[index] = set(participants[index].fetch_keys())
        except RemoteUnavailable:
            reachable[index] = False
    union = set().union(*views.values())
    result.entries = len(union)
    for index, view in views.items():
        if not reachable[index]:
            continue
        by_source: Dict[int, List[bytes]] = {}
        for key in sorted(union - view):
            source = next(
                (j for j in views if j != index and reachable[j] and key in views[j]),
                None,
            )
            if source is not None:
                by_source.setdefault(source, []).append(key)
        fetched: List[LibraryEntry] = []
        for source, keys in sorted(by_source.items()):
            try:
                entries = participants[source].fetch_many(keys)
            except RemoteUnavailable:
                reachable[source] = False
                continue
            fetched.extend(e for e in entries if e is not None)
        if not fetched:
            continue
        try:
            participants[index].send_many(fetched)
        except RemoteUnavailable:
            reachable[index] = False
            continue
        result.copied[index] = len(fetched)
        result.bytes += sum(len(encode_entry(e)) for e in fetched)
    return result
