"""Store server: any :class:`StoreBackend` exposed as a JSON-lines TCP service.

``repro store serve --root <dir> [--port N]`` wraps a local store (single
directory or sharded — :func:`~repro.service.sharding.open_store` detects
the layout) in a thread-per-connection TCP listener speaking one JSON
object per line. :class:`~repro.service.remote.RemoteStore` is the client
side; together they let ``repro serve``/``repro batch`` on one host keep
their pulses on another (``--store remote://host:port``).

Wire protocol (requests carry ``op``; responses carry ``ok``)::

    {"op": "get",  "key": "<hex canonical key>"}
        -> {"ok": true, "entry": "<b64>"|null}      # hit/miss counted
    {"op": "peek", "key": "<hex>"}                  # no accounting
        -> {"ok": true, "entry": "<b64>"|null}
    {"op": "put",  "entry": "<b64>", "flush": true} -> {"ok": true}
    {"op": "get_many", "keys": ["<hex>", ...]}      # 1..MAX_BATCH_KEYS keys
        -> {"ok": true, "entries": ["<b64>"|null, ...]}  # aligned with keys
    {"op": "put_many", "entries": ["<b64>", ...], "flush": true}
        -> {"ok": true, "n": N}
    {"op": "snapshot"} -> {"ok": true, "entries": ["<b64>", ...]}
        # every entry; the server caches each one's <b64>, see below
    {"op": "keys"}     -> {"ok": true, "keys": ["<hex>", ...]}
    {"op": "keys_digest"} -> {"ok": true, "digest": "<sha256 hex>", "n": N}
    {"op": "flush"}    -> {"ok": true}
    {"op": "stats"}    -> {"ok": true, "stats": {...}, "shards": [...],
                           "entries": N, "antientropy": {...}|null,
                           "uptime_s": S, "snapshot_seq": K,
                           "fingerprints": [...], "non_converged": N|null,
                           "orphans": N|null}
    {"op": "fingerprint", "fingerprint": "<id>"} -> {"ok": true}
    {"op": "antientropy", "action": "status"|"pause"|"resume"|"heal"}
        -> {"ok": true, "antientropy": {...}}       # loop status after action
    {"op": "ping"}     -> {"ok": true}
    {"op": "shutdown"} -> {"ok": true, "bye": true}  # stops the server

Entry payloads are the ``entry_to_dict`` JSON, base64-framed so a line can
never be split by embedded content, whatever the entry holds. A
``snapshot`` reply carries the whole store on every call, but the server
encodes each entry once: it keeps a memo from canonical key to (entry
object, payload), rebuilt from every snapshot so it holds exactly that
snapshot's entries. Every reply that carries an entry (``get``, ``peek``,
``get_many``, ``snapshot``) takes its payload from that memo when the memo
holds the very entry object the store returned for the key, and encodes
it otherwise (a key put or re-put since the last snapshot, a reload).
Only ``snapshot`` rebuilds the memo, which costs one encoded payload per
live entry. Errors come
back as ``{"ok": false, "error": msg, "kind": k, "op": <op>}`` with
``kind`` one of ``"fingerprint"`` (engine-identity mismatch — the client
re-raises it as a loud :class:`~repro.service.store.StoreVersionError`),
``"bad-request"`` (malformed line/op — including a ``get_many`` with an
empty or > ``MAX_BATCH_KEYS`` key list, and a truncated base64 frame), or
``"server"`` (the store raised); the echoed ``op`` keeps the error
correlatable on a pipelined connection. A protocol error is always an
*answered line*, never a dropped connection. The engine
fingerprint guard runs *server-side* against the server's persistent
store, so a mismatching client is refused no matter how it connects; the
stamp survives server restarts because ``claim_fingerprint`` flushes it
into the manifest.

A connection handler never crashes the server: bad lines are answered and
the loop continues; a disconnect just ends that handler. The underlying
stores are already thread-safe, so concurrent connections need no extra
locking here.

**Anti-entropy.** ``repro store serve --anti-entropy-interval S --peers
h1:p,h2:p`` attaches an :class:`AntiEntropyLoop`: a background daemon
thread that, every (jittered) interval, compares this store's key set
with each peer's and streams the difference both ways over the existing
``get_many``/``put_many`` frames — entries are immutable canonical JSON,
so a healed replica converges *bit-identically* with no operator
``repro store repair``. A ``kill -9``'d replica just restarts with the
loop enabled and converges within a round or two. The loop is pausable
over the wire (``{"op": "antientropy", "action": "pause"}``), skips
unreachable peers (counted, retried next round), and surfaces
``store.antientropy.*`` perf counters plus a ``status()`` payload in the
``stats`` response.

**Observability.** ``keys_digest`` answers one SHA-256 over the sorted
per-key digests (:func:`digest_keys`) — the one-RPC replica-divergence
probe the fleet auditor (:mod:`repro.service.audit`) and the anti-entropy
idle round both use: two converged replicas exchange ~100 bytes instead
of their full key lists. The ``stats`` reply is stamped with a monotonic
``uptime_s`` (seconds since ``start()``) and a ``snapshot_seq`` counter
(bumped per ``stats`` request), so a polling dashboard
(:mod:`repro.service.dashboard`) computes true rates from server-side
deltas and detects restarts, plus the store's engine ``fingerprints`` and
its ``non_converged`` entry count (``null`` when the backend has no live
library view to count from). ``orphans`` counts entry files on the
server's disk that no manifest row claims (``null`` for non-filesystem
backends) — the auditor reads it over the wire, so a *remote* audit still
surfaces disk-level debris it could never ``listdir`` itself.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import random
import socket
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.cache import LibraryEntry, entry_from_dict, entry_to_dict
from repro.perf.instrument import PerfRecorder, recorder_or_null
from repro.service.protocol import parse_json_line
from repro.service.store import (
    ENTRIES_DIR,
    StoreBackend,
    StoreVersionError,
    key_digest,
)

# Upper bound on one get_many/put_many frame. Far above any real batch
# (a batch's unique-group count is hundreds at most) but small enough
# that a malformed or hostile request cannot make the server materialize
# an unbounded response line.
MAX_BATCH_KEYS = 10000


def encode_entry(entry: LibraryEntry) -> str:
    """Base64-framed ``entry_to_dict`` JSON (one wire token per entry)."""
    raw = json.dumps(entry_to_dict(entry)).encode()
    return base64.b64encode(raw).decode("ascii")


def decode_entry(payload: str) -> LibraryEntry:
    """Inverse of :func:`encode_entry`; a payload that is not a string is
    refused with ``TypeError`` (a ``bad-request`` on the wire)."""
    if not isinstance(payload, str):
        raise TypeError(
            f"entry payload must be a base64 string, got "
            f"{type(payload).__name__}"
        )
    return entry_from_dict(
        parse_json_line(base64.b64decode(payload.encode("ascii")))
    )


def digest_keys(keys: Iterable[bytes]) -> str:
    """Order-independent SHA-256 over a key set's per-key digests.

    Two stores holding the same keys produce the same digest whatever
    order their ``keys()`` iterate in — the one-number answer to "are
    these replicas converged?" that the ``keys_digest`` protocol verb,
    the anti-entropy idle round, and the fleet auditor all compare.
    """
    hasher = hashlib.sha256()
    for digest in sorted(key_digest(key) for key in keys):
        hasher.update(digest.encode("ascii"))
    return hasher.hexdigest()


def non_converged_count(store: StoreBackend) -> Optional[int]:
    """Non-converged entries across a *local* backend's live libraries.

    Counted from the in-memory library views (no disk reads, no entry
    decode), shard by shard; ``None`` when any part lacks a live view
    (a remote-backed store has no cheap way to count without pulling the
    snapshot, which a stats poll must never do).
    """
    total = 0
    for part in getattr(store, "shards", [store]):
        # _library is the in-memory PulseLibrary; its presence is what
        # distinguishes a local part from a wire-backed one (whose
        # `library()` alias would pull a full snapshot RPC per poll).
        if getattr(part, "_library", None) is None:
            return None
        lock = getattr(part, "_lock", None)
        try:
            if lock is not None:
                with lock:
                    entries = list(part.library().entries())
            else:
                entries = list(part.library().entries())
        except Exception:
            return None
        total += sum(1 for entry in entries if not entry.converged)
    return total


def orphan_count(store: StoreBackend) -> Optional[int]:
    """Entry files with no manifest row, across a *local* backend's parts.

    A crash between the entry-file write and the manifest flush leaves an
    orphan (tolerated by design); the count is served in the ``stats``
    reply so a remote auditor can surface disk-level hygiene without
    disk access of its own. ``None`` when any part has no ``root``
    directory to walk (a wire-backed store has no local disk).
    """
    total = 0
    for part in getattr(store, "shards", [store]):
        root = getattr(part, "root", None)
        if root is None or not os.path.isdir(str(root)):
            return None
        entries_dir = os.path.join(str(root), ENTRIES_DIR)
        try:
            on_disk = {
                name[: -len(".json")]
                for name in os.listdir(entries_dir)
                if name.endswith(".json")
            }
            lock = getattr(part, "_lock", None)
            if lock is not None:
                with lock:
                    known = {key_digest(key) for key in part.keys()}
            else:
                known = {key_digest(key) for key in part.keys()}
        except Exception:
            return None
        total += len(on_disk - known)
    return total


def _error(message: str, kind: str = "server", op: Optional[str] = None) -> Dict:
    payload = {"ok": False, "error": message, "kind": kind}
    if op is not None:
        # Echo the op so a pipelined client can correlate the refusal
        # with the request that earned it (responses are in order, but a
        # batch script reading a log needs more than position).
        payload["op"] = str(op)
    return payload


def _batch_list(request: Dict, field: str) -> list:
    """Validate a get_many/put_many list: present, non-empty, bounded."""
    value = request.get(field)
    if not isinstance(value, list):
        raise ValueError(f"{field!r} must be a list")
    if not value:
        raise ValueError(f"{field!r} must not be empty (batch of nothing)")
    if len(value) > MAX_BATCH_KEYS:
        raise ValueError(
            f"{field!r} lists {len(value)} items; the server caps one "
            f"frame at {MAX_BATCH_KEYS} — split the batch"
        )
    return value


# An AntiEntropyLoop's cumulative counters, in ``status()`` order.
ANTIENTROPY_COUNTERS = (
    "rounds", "keys_healed", "bytes", "skipped_unreachable", "digest_skips"
)


def split_peers(peers: Union[str, Sequence[str]]) -> List[str]:
    """``h1:p,h2:p`` (comma or ``|`` separated, ``remote://`` optional)
    -> validated peer specs for an :class:`AntiEntropyLoop`. Loud on
    garbage at configure time, same policy as the route parsers."""
    from repro.service.remote import parse_remote_spec

    if isinstance(peers, str):
        pieces = [p for chunk in peers.split(",") for p in chunk.split("|")]
    else:
        pieces = list(peers)
    specs = [piece.strip() for piece in pieces if piece and piece.strip()]
    for spec in specs:
        parse_remote_spec(spec)  # raises ValueError on garbage
    return specs


class AntiEntropyLoop:
    """Background reconciliation of one server's store with its peers.

    Every (jittered) ``interval_s`` the loop runs a *round*: per peer, one
    :func:`~repro.service.replication.reconcile` of this store with that
    peer — the same routine ``repro store repair`` runs — so the symmetric
    difference streams both ways: keys the peer holds and we miss are
    pulled with ``get_many`` and written locally, keys we hold and the
    peer misses are pushed with ``put_many``. Entries are immutable,
    content-addressed canonical JSON, so healing in either direction lands
    byte-identical files and racing a live write is harmless (both paths
    write the same bytes); a replica revived after ``kill -9`` converges
    with *no* operator action.

    Unreachable peers are skipped and counted (``skipped_unreachable``),
    never retried in a tight loop — the next round catches them. A failed
    round never kills the daemon thread. ``pause()``/``resume()`` gate the
    background rounds (the ``antientropy`` protocol op drives them over
    the wire, plus ``action=heal`` for a synchronous on-demand round);
    :meth:`status` is the observable state; its cumulative counters live
    only in the perf recorder, as ``store.antientropy.rounds`` /
    ``.keys_healed`` / ``.bytes`` / ``.skipped_unreachable`` /
    ``.digest_skips``.

    Sizing note: every round opens with one ``keys_digest`` probe per
    peer (one hash, ~100 bytes); only a mismatch pays the O(union of key
    sets) full ``keys`` exchange plus O(difference) entry payloads — so a
    converged fleet's idle round is a constant-size frame per peer
    however many entries it holds (``digest_skips`` counts these
    short-circuits; ``bench_service_throughput.py --remote`` prints the
    idle cost and heal throughput).
    """

    def __init__(
        self,
        store: StoreBackend,
        peers: Union[str, Sequence[str]],
        interval_s: float = 5.0,
        timeout_s: float = 5.0,
        perf: Optional[PerfRecorder] = None,
        stat_prefix: str = "store.antientropy.",
    ) -> None:
        if interval_s <= 0:
            raise ValueError("anti-entropy interval must be positive")
        self.store = store
        self.peer_specs = split_peers(peers)
        if not self.peer_specs:
            raise ValueError("anti-entropy needs at least one peer")
        self.interval_s = float(interval_s)
        self.timeout_s = float(timeout_s)
        self.perf = recorder_or_null(perf)
        self.stat_prefix = stat_prefix
        self._clients = None  # built lazily; RemoteStore imports circularly
        self._round_lock = threading.Lock()  # one round at a time
        self._stop = threading.Event()
        self._paused = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------ lifecycle
    def start(self) -> "AntiEntropyLoop":
        if self._thread is None or not self._thread.is_alive():
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="anti-entropy", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=2.0)
        for client in self._clients or []:
            client.close()

    def pause(self) -> None:
        self._paused.set()

    def resume(self) -> None:
        self._paused.clear()

    def _delay_s(self) -> float:
        # Jittered to 50-100% of the interval so a fleet of replicas
        # started together never exchanges digests in lockstep.
        return self.interval_s * random.uniform(0.5, 1.0)

    def _run(self) -> None:
        while not self._stop.wait(self._delay_s()):
            if self._paused.is_set():
                continue
            try:
                self.run_round()
            except Exception:
                continue  # a bad round must not kill the daemon

    # ----------------------------------------------------------- one round
    def _peer_clients(self):
        if self._clients is None:
            # Function-level import: remote.py imports this module.
            from repro.service.remote import RemoteStore, RetryPolicy

            self._clients = [
                RemoteStore(
                    spec,
                    timeout_s=self.timeout_s,
                    stat_prefix=f"{self.stat_prefix}peer{i}.",
                    # A dead peer costs one quick probe per round, not a
                    # full client backoff ladder.
                    retry=RetryPolicy(attempts=2, base_s=0.05, cap_s=0.5),
                )
                for i, spec in enumerate(self.peer_specs)
            ]
        return self._clients

    @property
    def counters(self) -> Dict[str, int]:
        """Cumulative round counters, read from the recorder's
        ``<stat_prefix><name>`` counters (their only copy)."""
        return self.perf.read_counters(self.stat_prefix, ANTIENTROPY_COUNTERS)

    def run_round(self) -> Dict[str, int]:
        """One synchronous :func:`~repro.service.replication.reconcile`
        round between this store and each peer in turn.

        Serialized against the background thread (``action=heal`` over the
        wire shares this method), so two rounds never interleave.
        Returns this round's deltas; cumulative totals live in
        :attr:`counters`/:meth:`status`.
        """
        # Function-level import: replication.py imports this module.
        from repro.service.replication import LocalReplica, reconcile

        local = LocalReplica(self.store)
        healed = moved_bytes = skipped = digest_skips = 0
        with self._round_lock:
            for client in self._peer_clients():
                result = reconcile([local, client])
                healed += sum(result.copied)
                moved_bytes += result.bytes
                if not result.reachable[1]:
                    skipped += 1  # the next round catches it up
                elif result.digests_agree:
                    digest_skips += 1
        deltas = {
            "keys_healed": healed,
            "bytes": moved_bytes,
            "skipped_unreachable": skipped,
            "digest_skips": digest_skips,
        }
        self.perf.count(self.stat_prefix + "rounds")
        for name, n in deltas.items():
            if n > 0:
                self.perf.count(self.stat_prefix + name, n)
        return deltas

    # -------------------------------------------------------------- status
    def status(self) -> Dict:
        """Wire-shaped state: config, liveness, and cumulative counters."""
        payload = {
            "peers": list(self.peer_specs),
            "interval_s": self.interval_s,
            "paused": self._paused.is_set(),
            "running": self._thread is not None and self._thread.is_alive(),
        }
        payload.update(self.counters)
        return payload


class StoreServer:
    """Thread-per-connection TCP front for one :class:`StoreBackend`.

    ``start()`` binds and begins accepting (``port=0`` picks a free port,
    readable afterwards as :attr:`port`); ``stop()`` closes the listener
    and every live connection. Usable in-process (tests, ``repro perf``)
    or via the ``repro store serve`` CLI. An optional
    :class:`AntiEntropyLoop` rides the server's lifecycle: started by
    ``start()``, stopped (before the final flush) by ``stop()``.
    """

    def __init__(
        self,
        store: StoreBackend,
        host: str = "127.0.0.1",
        port: int = 0,
        antientropy: Optional[AntiEntropyLoop] = None,
    ) -> None:
        self.store = store
        self.host = host
        self.port = port
        self.antientropy = antientropy
        self.stopped = threading.Event()
        self._stop_lock = threading.Lock()
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._conn_lock = threading.Lock()
        self._conns: set = set()
        self._started_at: Optional[float] = None  # monotonic, set by start()
        self._stats_lock = threading.Lock()
        self._stats_seq = 0  # bumped per stats reply (restart detector)
        # key -> (entry object, its encode_entry payload) for exactly the
        # entries of the last snapshot reply; see _payload. Replaced whole,
        # never mutated, so readers need no lock.
        self._snapshot_lock = threading.Lock()
        self._encoded: Dict[bytes, Tuple[LibraryEntry, str]] = {}

    # ------------------------------------------------------------ lifecycle
    def start(self) -> "StoreServer":
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen()
        self.port = listener.getsockname()[1]
        self._started_at = time.monotonic()
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="store-accept", daemon=True
        )
        self._accept_thread.start()
        if self.antientropy is not None:
            self.antientropy.start()
        return self

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def stop(self) -> None:
        """Close the listener and every live connection, then flush.

        A second call returns only once the first has flushed: the
        ``shutdown`` op stops the server from a connection thread, and
        ``repro store serve`` must not exit before that flush lands.
        """
        with self._stop_lock:
            if self.stopped.is_set():
                return
            self.stopped.set()
            if self.antientropy is not None:
                self.antientropy.stop()  # no half-finished round past flush
            if self._listener is not None:
                # shutdown() before close(): close alone does not wake a
                # thread blocked in accept(), which would keep the port in
                # LISTEN and block a restart on the same address.
                try:
                    self._listener.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                try:
                    self._listener.close()
                except OSError:
                    pass
            with self._conn_lock:
                conns = list(self._conns)
            for conn in conns:
                try:
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                try:
                    conn.close()
                except OSError:
                    pass
            try:
                self.store.flush()
            except Exception:
                pass  # shutdown must not raise over a best-effort flush

    def serve_forever(self) -> None:
        """Block the calling thread until :meth:`stop` (or shutdown op)."""
        self.stopped.wait()

    # -------------------------------------------------------------- accept
    def _accept_loop(self) -> None:
        while not self.stopped.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            with self._conn_lock:
                self._conns.add(conn)
            threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name="store-conn",
                daemon=True,
            ).start()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            with conn, conn.makefile("rwb") as stream:
                for line in stream:
                    line = line.strip()
                    if not line:
                        continue
                    response, stop = self._respond(line)
                    stream.write((json.dumps(response) + "\n").encode())
                    stream.flush()
                    if stop:
                        self.stop()
                        return
        except (OSError, ValueError):
            pass  # client went away mid-line; nothing to answer
        finally:
            with self._conn_lock:
                self._conns.discard(conn)

    # ------------------------------------------------------------- requests
    def _payload(self, key: bytes, entry: Optional[LibraryEntry]) -> Optional[str]:
        """The wire payload of the entry the store returned for ``key``.

        Served from the snapshot memo when it holds this very object under
        ``key``; any other object (a put or re-put since the last
        snapshot, a reload) is encoded. Stored entries are never mutated
        in place, so one object always encodes to one payload.
        """
        if entry is None:
            return None
        cached = self._encoded.get(key)
        if cached is not None and cached[0] is entry:
            return cached[1]
        return encode_entry(entry)

    def _encode_snapshot(self, store: StoreBackend) -> List[str]:
        """The ``snapshot`` reply's payloads, encoding only what changed.

        Each reply rebuilds the memo, so it holds exactly the entries of
        the last snapshot.
        """
        with self._snapshot_lock:
            memo: Dict[bytes, Tuple[LibraryEntry, str]] = {}
            for entry in store.snapshot().entries():
                key = entry.group.key()
                memo[key] = (entry, self._payload(key, entry))
            self._encoded = memo
        return [payload for _, payload in memo.values()]

    def _respond(self, line: bytes) -> Tuple[Dict, bool]:
        """(response payload, stop server?) for one request line."""
        try:
            request = parse_json_line(line)
            if not isinstance(request, dict) or "op" not in request:
                raise ValueError("request must be an object with 'op'")
        except ValueError as exc:
            return _error(f"bad request: {exc}", kind="bad-request"), False
        op = request["op"]
        try:
            if op == "shutdown":
                return {"ok": True, "bye": True}, True
            return self._dispatch(op, request), False
        except StoreVersionError as exc:
            return _error(str(exc), kind="fingerprint", op=op), False
        except (KeyError, ValueError, TypeError) as exc:
            return (
                _error(f"bad {op!r} request: {exc}", kind="bad-request", op=op),
                False,
            )
        except Exception as exc:  # the store itself failed; keep serving
            return _error(f"{type(exc).__name__}: {exc}", op=op), False

    def _dispatch(self, op: str, request: Dict) -> Dict:
        store = self.store
        if op == "ping":
            return {"ok": True}
        if op in ("get", "peek"):
            key = bytes.fromhex(request["key"])
            read = store.get_key if op == "get" else store.peek_key
            return {"ok": True, "entry": self._payload(key, read(key))}
        if op == "put":
            store.put(
                decode_entry(request["entry"]),
                flush=bool(request.get("flush", True)),
            )
            return {"ok": True}
        if op == "get_many":
            keys = [bytes.fromhex(k) for k in _batch_list(request, "keys")]
            entries = store.get_many(keys)
            return {
                "ok": True,
                "entries": [
                    self._payload(key, entry)
                    for key, entry in zip(keys, entries)
                ],
            }
        if op == "put_many":
            entries = [
                decode_entry(p) for p in _batch_list(request, "entries")
            ]
            store.put_many(entries, flush=bool(request.get("flush", True)))
            return {"ok": True, "n": len(entries)}
        if op == "snapshot":
            return {"ok": True, "entries": self._encode_snapshot(store)}
        if op == "keys":
            return {"ok": True, "keys": [k.hex() for k in store.keys()]}
        if op == "keys_digest":
            keys = store.keys()
            return {"ok": True, "digest": digest_keys(keys), "n": len(keys)}
        if op == "flush":
            store.flush()
            return {"ok": True}
        if op == "stats":
            with self._stats_lock:
                self._stats_seq += 1
                seq = self._stats_seq
            # Server-side clock and sequence: a poller computes true rates
            # from uptime deltas (no client poll-jitter guessing) and
            # detects a restart as uptime running backwards.
            uptime = (
                time.monotonic() - self._started_at
                if self._started_at is not None
                else 0.0
            )
            return {
                "ok": True,
                "stats": store.stats.to_dict(),
                "shards": store.stats_by_shard(),
                "entries": len(store),
                "antientropy": (
                    self.antientropy.status() if self.antientropy else None
                ),
                "uptime_s": uptime,
                "snapshot_seq": seq,
                "fingerprints": store.fingerprints(),
                "non_converged": non_converged_count(store),
                "orphans": orphan_count(store),
            }
        if op == "fingerprint":
            store.claim_fingerprint(str(request["fingerprint"]))
            return {"ok": True}
        if op == "antientropy":
            loop = self.antientropy
            if loop is None:
                return _error(
                    "anti-entropy is not enabled on this server (serve "
                    "with --anti-entropy-interval and --peers)",
                    kind="bad-request",
                    op=op,
                )
            action = str(request.get("action", "status"))
            if action == "pause":
                loop.pause()
            elif action == "resume":
                loop.resume()
            elif action == "heal":
                loop.run_round()  # synchronous on-demand round
            elif action != "status":
                raise ValueError(f"unknown antientropy action {action!r}")
            return {"ok": True, "antientropy": loop.status()}
        return _error(f"unknown op {op!r}", kind="bad-request", op=op)
