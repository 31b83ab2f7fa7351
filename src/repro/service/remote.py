"""Remote store client and remote worker fabric.

Two halves, cashing in the two extension seams the service layer left:

* :class:`RemoteStore` — a :class:`~repro.service.store.StoreBackend` that
  speaks the :mod:`~repro.service.storeserver` JSON-lines protocol, so a
  ``CompileService`` on one host keeps its pulses on another
  (``--store remote://host:port``). Wire failures *degrade, never crash*:
  after a bounded, jittered exponential-backoff retry (see
  :class:`RetryPolicy` — reconnect between attempts, deadline-aware so one
  RPC can never stall a batch past its time budget), a ``get`` becomes a
  miss, a ``put`` is dropped (the solve's record is still returned to the
  client — only the cache write is lost), a ``snapshot`` comes back empty.
  Degradations are counted (``stats.degraded``) so an unhealthy store is
  visible in every batch report rather than silently slow. The engine-
  fingerprint guard is enforced server-side; an explicit mismatch is
  re-raised loudly as :class:`~repro.service.store.StoreVersionError`.
  The retry policy is configurable per spec via query params —
  ``remote://host:port?retries=5&backoff=0.1&cap=2`` — parsed once at spec
  time by :func:`parse_route` (which also carries the ``w=`` write-concern
  option one layer up to
  :class:`~repro.service.replication.ReplicatedStore`).

* :class:`RemoteExecutor` + :func:`worker_loop` — the executors'
  ``map_parts`` seam across processes/hosts. The executor listens; each
  ``repro worker --connect host:port`` process dials in, receives
  pickled :class:`~repro.service.executor.GroupTask` lists (warm seeds
  already resolved from the batch's store snapshot, so pulses stay
  bit-identical to the serial executor), runs
  :func:`~repro.service.executor.run_part`, and ships the
  :class:`~repro.service.executor.PartOutcome` back. *Which* worker runs
  *which* part is decided by the
  :class:`~repro.service.scheduler.FabricScheduler`: capability-weighted
  placement (an EWMA of each worker's measured solve throughput),
  ``parts_per_worker`` parts in flight per connection, and work stealing
  from stragglers — see :mod:`repro.service.scheduler`. A worker
  disconnect requeues its in-flight part before the connection retires
  (straggler reassignment), and if no worker is left the dispatcher
  drains the remaining parts locally — a batch never strands on the
  fabric. Scheduling only moves parts between workers; every part's
  tasks carry their own seeds, so the produced pulses are byte-identical
  to the serial executor no matter where or when a part lands.

Worker wire format: JSON lines carrying base64-framed pickles
(``{"op": "part", "job": n, "payload": <b64 pickle of (engine, worker,
tasks)>}`` answered by ``{"op": "outcome", ...}`` or ``{"op": "error",
"error": msg}``). Pickle over TCP means the fabric trusts its peers —
run it on a private network, exactly like the process-pool backend
trusts ``fork``.

Per-hop wire timings surface in ``repro perf``: every remote part outcome
carries a ``wire`` stage (round-trip minus worker compute, i.e. transport
+ serialization), reported as ``execute.worker<k>.wire`` in the batch
breakdown, and every :class:`RemoteStore` RPC is timed under
``<stat_prefix>rpc`` (per-key verbs) or ``<stat_prefix>batched_rpc``
(one ``get_many``/``put_many`` frame per host per batch read phase) in
its perf recorder, with per-verb ``<stat_prefix>ops.<op>`` counters.

Replication lives one layer up:
:class:`~repro.service.replication.ReplicatedStore` composes the
``fetch_*``/``send_*`` raising wire primitives defined here into ordered
failover reads and fan-out writes over several ``RemoteStore`` peers.
"""

from __future__ import annotations

import base64
import json
import pickle
import random
import socket
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")

from repro.core.cache import (
    LibraryEntry,
    PulseLibrary,
)
from repro.grouping.group import GateGroup
from repro.perf.instrument import PerfRecorder, recorder_or_null
from repro.service.executor import GroupTask, PartOutcome, run_part
from repro.service.scheduler import (
    CLOSE_FABRIC,
    FabricScheduler,
    ScheduledPart,
)
from repro.service.store import (
    REMOTE_STATS,
    StoreBackend,
    StoreVersionError,
    key_digest,
)
from repro.service.storeserver import MAX_BATCH_KEYS, decode_entry, encode_entry

REMOTE_SCHEME = "remote://"
REPLICA_SEP = "|"


class RemoteUnavailable(ConnectionError):
    """The remote peer could not be reached (after reconnect + retry)."""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded, jittered exponential backoff for one wire operation.

    ``attempts`` is the *total* number of tries (``None`` = unbounded, the
    deadline alone terminates — the worker dial-in loop uses this);
    failure ``k`` sleeps ``min(cap_s, base_s * 2**k)``, jittered down to
    50–100% of that so a fleet of clients retrying a flapped host never
    reconnects in lockstep. Every decision is deadline-aware: once the
    caller's time budget is spent, the policy refuses further retries and
    truncates the last sleep, so a batch can never stall unboundedly on a
    dead peer. One frozen policy is shared by :class:`RemoteStore` RPCs,
    :class:`~repro.service.replication.ReplicatedStore` replicas, the
    anti-entropy loop's peer exchanges, and :func:`worker_loop` dial-in.
    """

    attempts: Optional[int] = 3
    base_s: float = 0.05
    cap_s: float = 2.0
    jitter: bool = True

    def __post_init__(self) -> None:
        if self.attempts is not None and self.attempts < 1:
            raise ValueError("RetryPolicy needs at least one attempt")
        if self.base_s <= 0 or self.cap_s <= 0:
            raise ValueError("RetryPolicy delays must be positive")

    def should_retry(self, failures: int, deadline: Optional[float]) -> bool:
        """May try again after ``failures`` failed attempts?"""
        if self.attempts is not None and failures >= self.attempts:
            return False
        if deadline is not None and time.monotonic() >= deadline:
            return False
        return True

    def delay_s(self, failure_index: int, deadline: Optional[float] = None) -> float:
        """Sleep before retry number ``failure_index + 1`` (0-based)."""
        delay = min(self.cap_s, self.base_s * (2 ** failure_index))
        if self.jitter:
            delay *= random.uniform(0.5, 1.0)
        if deadline is not None:
            delay = min(delay, max(0.0, deadline - time.monotonic()))
        return delay

    def call(
        self,
        attempt: Callable[[], T],
        deadline: Optional[float] = None,
        on_failure: Optional[Callable[[], None]] = None,
    ):
        """Run ``attempt`` under this policy; re-raises the last ``OSError``/
        ``ValueError`` once retries are exhausted. ``on_failure`` runs after
        every failed attempt (the store client tears its socket down there
        so the next attempt reconnects from scratch)."""
        failures = 0
        while True:
            try:
                return attempt()
            except (OSError, ValueError):
                if on_failure is not None:
                    on_failure()
                failures += 1
                if not self.should_retry(failures, deadline):
                    raise
                time.sleep(self.delay_s(failures - 1, deadline))


# Route query params understood at spec time. `w` is consumed one layer up
# (ReplicatedStore's write concern); the rest configure the RetryPolicy.
_ROUTE_PARAMS = ("w", "retries", "backoff", "cap")
WRITE_CONCERNS = ("1", "majority", "all")


def parse_route_params(query: str) -> Dict[str, str]:
    """``w=majority&retries=4`` -> validated param dict (loud on garbage)."""
    params: Dict[str, str] = {}
    for piece in query.split("&"):
        name, sep, value = piece.partition("=")
        if not sep or not name or not value:
            raise ValueError(f"bad route param {piece!r}; expected name=value")
        if name not in _ROUTE_PARAMS:
            raise ValueError(
                f"unknown route param {name!r}; known: {', '.join(_ROUTE_PARAMS)}"
            )
        if name in params:
            raise ValueError(f"route param {name!r} given twice")
        params[name] = value
    if "w" in params and params["w"] not in WRITE_CONCERNS:
        raise ValueError(
            f"bad write concern w={params['w']!r}; "
            f"expected one of {'|'.join(WRITE_CONCERNS)}"
        )
    for name in ("backoff", "cap"):
        if name in params:
            try:
                if float(params[name]) <= 0:
                    raise ValueError
            except ValueError:
                raise ValueError(
                    f"route param {name}={params[name]!r} must be a "
                    f"positive number"
                ) from None
    if "retries" in params:
        try:
            if int(params["retries"]) < 1:
                raise ValueError
        except ValueError:
            raise ValueError(
                f"route param retries={params['retries']!r} must be a "
                f"positive integer"
            ) from None
    return params


def retry_from_params(params: Dict[str, str]) -> Optional[RetryPolicy]:
    """The :class:`RetryPolicy` a route's params ask for (None = default)."""
    if not any(name in params for name in ("retries", "backoff", "cap")):
        return None
    base = float(params.get("backoff", RetryPolicy.base_s))
    return RetryPolicy(
        attempts=int(params.get("retries", RetryPolicy.attempts)),
        base_s=base,
        cap_s=max(base, float(params.get("cap", RetryPolicy.cap_s))),
    )


def parse_route(spec: str) -> Tuple[List[str], Dict[str, str]]:
    """One route spec -> (ordered replica specs, validated params).

    ``remote://h1a:p|h1b:p?w=majority&retries=4`` splits into the replica
    list (see :func:`split_replicas`) and its query params; both halves
    fail at spec time, never on first failover.
    """
    head, sep, query = str(spec).partition("?")
    params = parse_route_params(query) if sep else {}
    return split_replicas(head), params


#: One routing-table entry: ``(route spec, ordered replica specs, params)``.
Route = Tuple[str, List[str], Dict[str, str]]


def parse_routes(spec: str) -> List[Route]:
    """A comma-separated routing table -> ``(route, replicas, params)`` per
    route, in shard order.

    Every route must be ``remote://`` and parse under :func:`parse_route`,
    so ``/local/dir,remote://h:p`` is refused rather than read as a local
    path. Raises ``ValueError`` naming the first bad route.
    """
    parsed = []
    for route in (part.strip() for part in str(spec).split(",")):
        if not route:
            continue
        if not is_remote_spec(route):
            raise ValueError(
                f"every route of a routing table must be "
                f"remote://host:port, got {route!r}"
            )
        try:
            replicas, params = parse_route(route)
        except ValueError as exc:
            raise ValueError(f"bad route {route!r}: {exc}") from exc
        parsed.append((route, replicas, params))
    return parsed


def is_remote_spec(spec: str) -> bool:
    """True for ``remote://host:port`` (or a comma list of them)."""
    return str(spec).startswith(REMOTE_SCHEME)


def parse_remote_spec(spec: str) -> Tuple[str, int]:
    """``remote://host:port`` (or bare ``host:port``) -> (host, port)."""
    spec = str(spec).strip()
    if spec.startswith(REMOTE_SCHEME):
        spec = spec[len(REMOTE_SCHEME):]
    host, sep, port = spec.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise ValueError(
            f"bad remote spec {spec!r}; expected remote://host:port"
        )
    return host, int(port)


def split_replicas(spec: str) -> List[str]:
    """``remote://h1a:p|h1b:p`` -> the ordered replica specs of one shard.

    The ``remote://`` scheme needs to appear only once, on the first
    replica (:func:`parse_remote_spec` accepts bare ``host:port``); every
    piece must parse and none may be empty (``remote://h:p|`` is a typo'd
    missing replica, not a request for an unreplicated store), so a bad
    replica list fails at spec time, not on first failover.
    """
    parts = [part.strip() for part in str(spec).split(REPLICA_SEP)]
    if not parts or any(not part for part in parts):
        raise ValueError(f"empty replica in spec {spec!r}")
    for part in parts:
        parse_remote_spec(part)  # raises ValueError on garbage
    return parts


class RemoteStore(StoreBackend):
    """:class:`StoreBackend` over a :class:`~repro.service.storeserver.StoreServer`.

    One socket, guarded by a lock (the service calls from several batch
    threads); requests are serialized per store instance, which matches the
    one-lock behavior of a local :class:`~repro.service.store.PulseStore`.
    ``stats`` counts *this client's* traffic — the server keeps its own —
    including wire ``degraded`` and ``retry_exhausted`` (both zero on a
    healthy fabric; ``retry_exhausted`` ticks even when a raising
    primitive's caller recovers elsewhere, so a flapping host shows up
    before anything degrades).

    ``add_eviction_guard`` is a local no-op: eviction policy (and any
    bound) lives with the server's store, which cannot see this client's
    in-flight claims. Run remote stores unbounded, or bound them knowing
    eviction is advisory across hosts — same caveat as two local writers.
    """

    stat_fields = REMOTE_STATS

    def __init__(
        self,
        spec: str,
        timeout_s: float = 30.0,
        perf: Optional[PerfRecorder] = None,
        stat_prefix: str = "store.remote.",
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        if "?" in str(spec):
            replicas, params = parse_route(spec)
            if len(replicas) != 1:
                raise ValueError(
                    f"spec {spec!r} lists {len(replicas)} replicas; a "
                    f"replica set is a ReplicatedStore (open it via "
                    f"open_store)"
                )
            if "w" in params:
                raise ValueError(
                    f"spec {spec!r} asks for a write concern; quorums live "
                    f"on replicated routes (open the spec via open_store)"
                )
            spec = replicas[0]
            if retry is None:
                retry = retry_from_params(params)
        self.retry = retry if retry is not None else RetryPolicy()
        self.host, self.port = parse_remote_spec(spec)
        self.timeout_s = float(timeout_s)
        self.perf = recorder_or_null(perf)
        self.stat_prefix = stat_prefix
        self._lock = threading.RLock()
        self._sock: Optional[socket.socket] = None
        self._stream = None
        self._fingerprint: Optional[str] = None  # replayed on every connect

    @property
    def address(self) -> str:
        return f"{REMOTE_SCHEME}{self.host}:{self.port}"

    # ---------------------------------------------------------------- wire
    def _connect(self) -> None:
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout_s
        )
        sock.settimeout(self.timeout_s)
        self._sock = sock
        self._stream = sock.makefile("rwb")
        if self._fingerprint is not None:
            # Re-assert the engine identity on every (re)connection: a
            # claim that was absorbed while the server was down must not
            # leave later puts unguarded — no data flows on a connection
            # whose handshake the server has not accepted.
            reply = self._roundtrip(
                {"op": "fingerprint", "fingerprint": self._fingerprint}
            )
            if not reply.get("ok"):
                message = reply.get("error", "fingerprint refused")
                self._disconnect()
                raise StoreVersionError(message)

    def _disconnect(self) -> None:
        for closer in (self._stream, self._sock):
            if closer is not None:
                try:
                    closer.close()
                except OSError:
                    pass
        self._stream = None
        self._sock = None

    def close(self) -> None:
        with self._lock:
            self._disconnect()

    def _roundtrip(self, payload: Dict) -> Dict:
        if self._stream is None:
            self._connect()
        line = (json.dumps(payload) + "\n").encode()
        self._stream.write(line)
        self._stream.flush()
        reply = self._stream.readline()
        if not reply:
            raise ConnectionError("store server closed the connection")
        return json.loads(reply)

    def _rpc(self, payload: Dict, stage: str = "rpc") -> Dict:
        """One request/response under the client's :class:`RetryPolicy`.

        Each failed attempt tears the socket down so the next one
        reconnects from scratch; between attempts the policy sleeps its
        jittered exponential backoff, bounded by both the attempt budget
        and a per-op deadline of ``timeout_s`` — a dead peer costs a
        bounded, predictable amount of wall clock, never an unbounded
        stall. Raises :class:`RemoteUnavailable` once the policy gives up
        (the public methods translate that into their degraded result),
        and :class:`StoreVersionError` on a server-side fingerprint
        refusal. Timed under ``<stat_prefix><stage>`` (``rpc`` for per-key
        ops, ``batched_rpc`` for get_many/put_many frames), with a per-op
        counter (``<stat_prefix>ops.<op>``) so a perf report shows *which*
        verbs crossed the wire and how often — the O(shards)-not-O(keys)
        claim for batched reads is asserted against exactly these names.
        """
        op = str(payload.get("op"))
        with self._lock, self.perf.stage(self.stat_prefix + stage):
            self.perf.count(self.stat_prefix + "ops." + op)
            deadline = time.monotonic() + self.timeout_s
            try:
                response = self.retry.call(
                    lambda: self._roundtrip(payload),
                    deadline=deadline,
                    on_failure=self._disconnect,
                )
            except (OSError, ValueError) as exc:
                self._count("retry_exhausted")
                raise RemoteUnavailable(
                    f"store at {self.address} unreachable after "
                    f"{self.retry.attempts} attempts: {exc}"
                ) from exc
        if response.get("ok"):
            return response
        message = response.get("error", "remote store error")
        if response.get("kind") == "fingerprint":
            raise StoreVersionError(message)
        raise RuntimeError(f"remote store at {self.address}: {message}")

    def _degrade(self) -> None:
        self._count("degraded")

    # ----------------------------------------------------- raising wire ops
    # fetch_*/send_* speak the protocol and RAISE RemoteUnavailable on a
    # dead wire — no degrade, no hit/miss accounting. They are the
    # building blocks the degrading StoreBackend methods below wrap, and
    # the primitives ReplicatedStore's failover reads / repair are built
    # from (a failover policy needs to *see* the wire failure, not a
    # silently absorbed miss).

    def fetch_keys(self) -> List[bytes]:
        response = self._rpc({"op": "keys"})
        return [bytes.fromhex(k) for k in response["keys"]]

    def fetch_keys_digest(self) -> Dict:
        """One ``keys_digest`` round trip: ``{"digest": hex, "n": N}``.

        The constant-size replica-convergence probe — compare against
        :func:`~repro.service.storeserver.digest_keys` of another key set
        instead of shipping full key lists."""
        response = self._rpc({"op": "keys_digest"})
        return {"digest": response["digest"], "n": int(response["n"])}

    def fetch_snapshot(self) -> PulseLibrary:
        response = self._rpc({"op": "snapshot"})
        library = PulseLibrary()
        for payload in response["entries"]:
            library.add(decode_entry(payload))
        return library

    def fetch_key(self, key: bytes, peek: bool = False) -> Optional[LibraryEntry]:
        op = "peek" if peek else "get"
        response = self._rpc({"op": op, "key": key.hex()})
        if response["entry"] is None:
            return None
        return decode_entry(response["entry"])

    def fetch_many(self, keys: Sequence[bytes]) -> List[Optional[LibraryEntry]]:
        """One ``get_many`` round trip (chunked at the server's frame cap)."""
        entries: List[Optional[LibraryEntry]] = []
        for start in range(0, len(keys), MAX_BATCH_KEYS):
            chunk = keys[start:start + MAX_BATCH_KEYS]
            response = self._rpc(
                {"op": "get_many", "keys": [k.hex() for k in chunk]},
                stage="batched_rpc",
            )
            entries.extend(
                decode_entry(p) if p is not None else None
                for p in response["entries"]
            )
        return entries

    def send_put(self, entry: LibraryEntry, flush: bool = True) -> None:
        self._rpc({"op": "put", "entry": encode_entry(entry), "flush": flush})

    def send_many(self, entries: Sequence[LibraryEntry], flush: bool = True) -> None:
        """One ``put_many`` round trip (chunked; the last chunk flushes)."""
        for start in range(0, len(entries), MAX_BATCH_KEYS):
            chunk = entries[start:start + MAX_BATCH_KEYS]
            self._rpc(
                {
                    "op": "put_many",
                    "entries": [encode_entry(e) for e in chunk],
                    "flush": flush and start + MAX_BATCH_KEYS >= len(entries),
                },
                stage="batched_rpc",
            )

    def send_flush(self) -> None:
        self._rpc({"op": "flush"})

    # ------------------------------------------------------------------ api
    def __len__(self) -> int:
        return len(self.keys())

    def __contains__(self, group: GateGroup) -> bool:
        return self.peek_key(group.key()) is not None

    def keys(self) -> List[bytes]:
        try:
            return self.fetch_keys()
        except RemoteUnavailable:
            self._degrade()
            return []

    def snapshot(self) -> PulseLibrary:
        """The server's full library; *empty* when the wire is down —
        the batch then plans cold, which is correct, just slower."""
        try:
            return self.fetch_snapshot()
        except RemoteUnavailable:
            self._degrade()
            return PulseLibrary()

    def library(self) -> PulseLibrary:
        """Alias for :meth:`snapshot` (remote has no live in-memory view)."""
        return self.snapshot()

    def get_key(self, key: bytes) -> Optional[LibraryEntry]:
        try:
            entry = self.fetch_key(key)
        except RemoteUnavailable:
            self._degrade()
            self._count("misses")
            return None
        self._count("hits" if entry is not None else "misses")
        return entry

    def get_many(self, keys: Sequence[bytes]) -> List[Optional[LibraryEntry]]:
        """Batched reads: one ``get_many`` RPC instead of ``len(keys)``
        ``get`` round trips, same per-key hit/miss accounting. A dead wire
        degrades the whole frame to misses (one ``degraded`` bump)."""
        if not keys:
            return []
        try:
            entries = self.fetch_many(keys)
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
            return self.fetch_key(key, peek=True)
        except RemoteUnavailable:
            self._degrade()
            return None

    def put(self, entry: LibraryEntry, flush: bool = True) -> None:
        try:
            self.send_put(entry, flush)
        except RemoteUnavailable:
            self._degrade()  # cache write lost; the caller keeps its record
            return
        self._count("puts")

    def put_many(self, entries: Sequence[LibraryEntry], flush: bool = True) -> None:
        if not entries:
            return
        try:
            self.send_many(entries, flush)
        except RemoteUnavailable:
            self._degrade()
            return
        self._count("puts", len(entries))

    def flush(self) -> None:
        try:
            self.send_flush()
        except RemoteUnavailable:
            self._degrade()

    def claim_fingerprint(self, fingerprint: str) -> None:
        """Server-side guard: mismatch raises loudly; an unreachable
        server degrades — but the identity is remembered and re-asserted
        by every subsequent (re)connection before any other traffic, so a
        claim absorbed while the server was down can never leave a later
        ``put`` unguarded."""
        with self._lock:
            self._fingerprint = str(fingerprint)
            try:
                self._rpc(
                    {"op": "fingerprint", "fingerprint": self._fingerprint}
                )
            except RemoteUnavailable:
                self._degrade()

    def add_eviction_guard(self, guard) -> None:
        """No-op: eviction is the server's policy (see class docstring)."""

    def fingerprints(self) -> List[str]:
        """The server store's engine stamps (empty when unreachable)."""
        stats = self.server_stats()
        return stats["fingerprints"] if stats is not None else []

    def server_stats(self) -> Optional[Dict]:
        """The server's ``stats`` reply without ``ok`` (None when
        unreachable): counter dicts, entry totals, the anti-entropy loop
        status, the monotonic ``uptime_s``/``snapshot_seq`` stamps a
        poller computes rates from, the engine ``fingerprints``, and the
        ``non_converged`` and ``orphans`` counts."""
        try:
            response = self._rpc({"op": "stats"})
        except RemoteUnavailable:
            self._degrade()
            return None
        response.pop("ok")
        return response


# ---------------------------------------------------------------- executor
def _pack(obj) -> str:
    return base64.b64encode(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)).decode("ascii")


def _unpack(payload: str):
    return pickle.loads(base64.b64decode(payload.encode("ascii")))


class _MapJob:
    """Bookkeeping for one ``map_parts`` call (outcomes land out of order)."""

    def __init__(self, n_parts: int) -> None:
        self.n_parts = n_parts
        self.outcomes: Dict[int, PartOutcome] = {}
        self.error: Optional[BaseException] = None
        self.started_at = time.perf_counter()
        self._cond = threading.Condition()

    def complete(self, index: int, outcome: PartOutcome) -> None:
        with self._cond:
            self.outcomes[index] = outcome
            self._cond.notify_all()

    def fail(self, error: BaseException) -> None:
        with self._cond:
            if self.error is None:
                self.error = error
            self._cond.notify_all()

    def done(self) -> bool:
        with self._cond:
            return self.error is not None or len(self.outcomes) >= self.n_parts

    def wait(self, timeout: float) -> None:
        with self._cond:
            if self.error is None and len(self.outcomes) < self.n_parts:
                self._cond.wait(timeout)


class RemoteExecutor:
    """``map_parts`` over TCP workers (``repro worker --connect``).

    The executor is the listening side: workers dial in, announce
    themselves, and then loop pulling parts from the
    :class:`~repro.service.scheduler.FabricScheduler` — capability-
    weighted placement, ``parts_per_worker`` reservations per connection
    and work stealing from stragglers. A disconnect requeues the
    in-flight part before the connection retires, and when the fabric is
    empty the dispatcher runs the remaining parts in-process so no batch
    ever strands. Long-lived: one instance serves every batch of a service
    (``hasattr(spec, "map_parts")`` in ``make_backend`` passes it through).
    """

    name = "remote"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        wait_workers_s: float = 10.0,
        parts_per_worker: int = 2,
    ) -> None:
        self.host = host
        self.wait_workers_s = float(wait_workers_s)
        self.stopped = threading.Event()
        self.scheduler = FabricScheduler(parts_per_worker=parts_per_worker)
        self.started_at = time.monotonic()
        self.n_local_fallback = 0
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen()
        self.port = listener.getsockname()[1]
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="fabric-accept", daemon=True
        )
        self._accept_thread.start()

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def n_dispatched(self) -> int:
        return self.scheduler.n_dispatched

    @property
    def n_reassigned(self) -> int:
        return self.scheduler.n_reassigned

    @property
    def n_steals(self) -> int:
        return self.scheduler.n_steals

    def live_workers(self) -> int:
        return self.scheduler.connected_count()

    def note_shed(self, n: int = 1) -> None:
        """Front-door admission control reports load-shed requests here,
        so shedding shows up in the fabric ``stats`` verb next to the
        occupancy it was shedding against."""
        self.scheduler.note_shed(n)

    def stats(self) -> Dict:
        """Fabric occupancy snapshot (the ``stats`` verb's payload).

        Workers connected, parts in flight / queued, dispatch + steal +
        shed counters, and one row per worker connection the fabric has
        ever seen — parts handled, accumulated
        solve seconds (the worker's reported ``wall_s``), wire seconds
        (round trip minus compute), current queue depth / in-flight
        occupancy, the EWMA throughput estimate, and how many parts it
        stole (``steals_won``) or lost to thieves (``steals_lost``).
        """
        payload = self.scheduler.stats()
        payload["n_local_fallback"] = self.n_local_fallback
        payload["uptime_s"] = time.monotonic() - self.started_at
        return payload

    def close(self) -> None:
        self.stopped.set()
        # shutdown() first: close alone does not wake the accept thread,
        # which would pin the port in LISTEN past this executor's life.
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._listener.close()
        except OSError:
            pass
        # Wake every idle handler; each forwards the close to its worker.
        self.scheduler.close()

    # -------------------------------------------------------------- fabric
    def _accept_loop(self) -> None:
        while not self.stopped.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            threading.Thread(
                target=self._worker_handler,
                args=(conn,),
                name="fabric-worker",
                daemon=True,
            ).start()

    def _worker_handler(self, conn: socket.socket) -> None:
        """One connected worker: pull a part, round-trip it, repeat.

        The first line picks the role: ``{"op": "hello"}`` enrolls a
        solver worker; ``{"op": "stats"}`` is the read-only occupancy
        verb — it gets one JSON :meth:`stats` snapshot back and the
        connection closes (``repro worker --connect host:port --stats``).
        Any other first line, JSON object or not, closes the connection.

        Which part this handler pulls next is the scheduler's decision
        (own reservation queue → pending pool → steal); the handler owns
        only the wire. On any wire failure the in-flight part goes *back
        on the scheduler before* the connection retires
        (:meth:`FabricScheduler.release`), so dispatch can never observe
        zero workers while a recoverable part is invisible.
        """
        try:
            stream = conn.makefile("rwb")
            hello = stream.readline()
            first = json.loads(hello) if hello else None
            first_op = first.get("op") if isinstance(first, dict) else None
            if first_op == "stats":
                stream.write(
                    (json.dumps({"ok": True, **self.stats()}) + "\n").encode()
                )
                stream.flush()
                conn.close()
                return
            if first_op != "hello":
                conn.close()
                return
        except (OSError, ValueError):
            conn.close()
            return
        label = self.scheduler.register()
        item: Optional[ScheduledPart] = None
        try:
            while not self.stopped.is_set():
                pulled = self.scheduler.next_part(label, timeout_s=0.25)
                if pulled is CLOSE_FABRIC:
                    try:
                        stream.write(b'{"op": "close"}\n')
                        stream.flush()
                    except OSError:
                        pass
                    return
                if pulled is None:  # timeout: re-check the stop flag
                    continue
                item = pulled
                dispatched_at = time.perf_counter()
                try:
                    stream.write(
                        (
                            json.dumps(
                                {
                                    "op": "part",
                                    "job": item.index,
                                    "payload": item.payload,
                                }
                            )
                            + "\n"
                        ).encode()
                    )
                    stream.flush()
                    reply = stream.readline()
                    if not reply:
                        raise ConnectionError("worker closed mid-part")
                    message = json.loads(reply)
                    if not isinstance(message, dict):
                        raise ValueError("worker reply is not a JSON object")
                except (OSError, ValueError):
                    # Disconnect or garbled reply mid-part: requeue first,
                    # then retire this worker. A part whose job already
                    # finished (failed batch, purged queue) is dropped by
                    # release().
                    self.scheduler.release(label, item)
                    item = None
                    return
                job = item.job
                if message.get("op") == "error":
                    # The failure is the batch's problem, not a capability
                    # signal: release the slot without feeding the EWMA.
                    self.scheduler.complete(label, item, wall_s=None)
                    item = None
                    job.fail(RuntimeError(message.get("error", "worker error")))
                    continue
                outcome: PartOutcome = _unpack(message["payload"])
                # Dispatcher-side queue wait (cross-host clocks do not
                # compare); wire = round trip minus the worker's compute.
                roundtrip = time.perf_counter() - dispatched_at
                outcome.queue_wait_s = max(
                    0.0, dispatched_at - job.started_at
                )
                outcome.perf_stages = dict(outcome.perf_stages)
                outcome.perf_stages["wire"] = max(
                    0.0, roundtrip - outcome.wall_s
                )
                self.scheduler.complete(
                    label,
                    item,
                    wall_s=outcome.wall_s,
                    wire_s=outcome.perf_stages["wire"],
                )
                job.complete(item.index, outcome)
                item = None
        finally:
            if item is not None:
                # Died holding a live part (e.g. stop flag mid-loop):
                # same requeue-before-retire contract as the wire failure.
                self.scheduler.release(label, item)
            self.scheduler.unregister(label)
            try:
                conn.close()
            except OSError:
                pass

    # ------------------------------------------------------------ dispatch
    def _drain_locally(self, engine, job: _MapJob) -> None:
        """No workers left: run whatever is still scheduled in-process."""
        for item in self.scheduler.take_job(job):
            _, worker, tasks = _unpack(item.payload)
            self.n_local_fallback += 1
            try:
                outcome = run_part(engine, worker, tasks, job.started_at)
            except BaseException as error:
                job.fail(error)
                return
            job.complete(item.index, outcome)

    def map_parts(
        self,
        engine,
        parts: Sequence[Tuple[int, List[GroupTask]]],
        weights: Optional[Sequence[float]] = None,
    ) -> List[PartOutcome]:
        """Run the parts on the fabric; ``weights`` are the plan's modelled
        per-part iteration costs (task counts when absent) — the unit the
        scheduler's placement and throughput EWMA are denominated in."""
        if not parts:
            return []
        have_worker = self.scheduler.wait_for_worker(self.wait_workers_s)
        job = _MapJob(len(parts))
        if weights is None:
            weights = [float(len(tasks)) for _, tasks in parts]
        items = [
            ScheduledPart(
                job=job,
                index=index,
                payload=_pack((engine, worker, tasks)),
                weight=max(float(weight), 1e-9),
            )
            for index, ((worker, tasks), weight) in enumerate(
                zip(parts, weights)
            )
        ]
        self.scheduler.submit(items)
        if not have_worker:
            self._drain_locally(engine, job)
        while not job.done():
            job.wait(0.05)
            if self.live_workers() == 0:
                self._drain_locally(engine, job)
        if job.error is not None:
            # A failed batch must not leave its undispatched parts queued
            # for workers to burn cycles on (and to delay the next batch).
            self.scheduler.take_job(job)
            raise job.error
        return [job.outcomes[i] for i in range(len(parts))]


def fabric_stats(spec: str, timeout_s: float = 5.0) -> Dict:
    """One ``stats`` round trip against a :class:`RemoteExecutor`.

    The read-only occupancy probe (``repro worker --connect host:port
    --stats``): connect, send ``{"op": "stats"}`` as the first line, read
    the JSON snapshot, hang up — the fabric never enrolls this connection
    as a solver. Raises :class:`RemoteUnavailable` on a dead fabric.
    """
    host, port = parse_remote_spec(spec)
    try:
        with socket.create_connection((host, port), timeout=timeout_s) as sock:
            sock.settimeout(timeout_s)
            with sock.makefile("rwb") as stream:
                stream.write(b'{"op": "stats"}\n')
                stream.flush()
                reply = stream.readline()
        if not reply:
            raise ConnectionError("fabric closed without answering stats")
        payload = json.loads(reply)
    except (OSError, ValueError) as exc:
        raise RemoteUnavailable(
            f"fabric at {host}:{port} unreachable: {exc}"
        ) from exc
    payload.pop("ok", None)
    return payload


# ------------------------------------------------------------------ worker
def worker_loop(
    spec: str,
    connect_timeout_s: float = 30.0,
    retry: Optional[RetryPolicy] = None,
) -> int:
    """One solver worker: dial the fabric, run parts until it hangs up.

    The counterpart of :class:`RemoteExecutor` (``repro worker --connect
    host:port``). Each ``part`` message carries (engine, worker label,
    tasks) — warm seeds included — so :func:`run_part` here produces the
    same bytes the serial executor would. A solve failure is reported as
    an ``error`` message (the dispatcher fails the batch; a *crash* of
    this process instead triggers reassignment). A line that is not a
    JSON object is skipped. Returns the number of parts handled.

    The fabric may come up *after* its workers (scripted deployments
    start both at once), so the dial-in keeps retrying under the same
    jittered exponential-backoff :class:`RetryPolicy` as the store
    client — unbounded attempts, ``connect_timeout_s`` as the deadline,
    each attempt's connect timeout clipped to the budget left — instead
    of hammering the address on a fixed 0.1 s spin.
    """
    host, port = parse_remote_spec(spec)
    dial = retry if retry is not None else RetryPolicy(attempts=None)
    deadline = time.monotonic() + connect_timeout_s
    failures = 0
    while True:  # the fabric may still be starting up
        try:
            attempt_budget = max(0.1, min(5.0, deadline - time.monotonic()))
            sock = socket.create_connection((host, port), timeout=attempt_budget)
            break
        except OSError:
            failures += 1
            if not dial.should_retry(failures, deadline):
                raise
            time.sleep(dial.delay_s(failures - 1, deadline))
    # Drop the connect timeout: an idle worker blocks in readline between
    # parts, and a lingering 5s timeout would crash it out of the fabric.
    sock.settimeout(None)
    handled = 0
    with sock, sock.makefile("rwb") as stream:
        stream.write(b'{"op": "hello"}\n')
        stream.flush()
        for line in stream:
            try:
                message = json.loads(line)
            except ValueError:
                continue
            op = message.get("op") if isinstance(message, dict) else None
            if op == "close":
                break
            if op != "part":
                continue
            try:
                engine, worker, tasks = _unpack(message["payload"])
                outcome = run_part(engine, worker, tasks)
                reply = {
                    "op": "outcome",
                    "job": message.get("job"),
                    "payload": _pack(outcome),
                }
            except Exception as exc:
                reply = {
                    "op": "error",
                    "job": message.get("job"),
                    "error": f"{type(exc).__name__}: {exc}",
                }
            stream.write((json.dumps(reply) + "\n").encode())
            stream.flush()
            handled += 1
    return handled
