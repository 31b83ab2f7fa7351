"""Asyncio front door: many clients, micro-batched planning, overlapped solves.

``repro serve`` runs this server, over stdin/stdout or TCP. It lets the
service's cross-request machinery (batch-wide dedup, ``GroupCoalescer``)
see many requests and clients at once:

* **Concurrent parsing** — every connection (TCP) or the stdin pipe feeds
  request lines into one queue as they arrive; protocol errors answer
  immediately without touching the compile path.
* **Micro-batching** — a batcher task submits queued requests, up to
  ``max_batch``, as one :meth:`~repro.service.service.CompileService.
  submit_batch` call: requests that arrive together dedupe against each
  other at the planner, exactly like a ``repro batch`` workload list. An
  idle server dispatches what is queued at once; only while another batch
  is in flight does it gather arrivals for a short *planning window*
  (``window_s``, default 25 ms) first, since only then can more requests
  join. (PostgreSQL's ``commit_delay`` follows the same rule: it sleeps
  only when ``commit_siblings`` other transactions are active.) So a lone
  request never waits for the window, and two requests share an idle
  server's batch only if both are queued when it dispatches, e.g. two
  lines in one write.
* **Overlap** — each batch runs in a worker thread
  (``loop.run_in_executor``), so the event loop keeps parsing and the next
  batch keeps filling while prior solves are still running. Up to
  ``max_inflight`` batches execute concurrently; concurrent batches racing
  for the same key coalesce through the service's shared
  :class:`~repro.service.executor.GroupCoalescer` — one solve, every
  waiter reuses the record.
* **Out-of-order responses** — whichever batch finishes first answers
  first. Responses are correlated by request id (auto-assigned when the
  client sent none) and stamped with the batch sequence number; see
  :mod:`repro.service.protocol`.
* **Admission control** — the planning queue is bounded (``--max-queue``):
  a request arriving while ``max_queue`` compiles are already waiting is
  refused with a typed ``overloaded`` response carrying a drain-time
  ``retry_after_s`` hint (batch-wall EWMA × batches ahead, scaled up when
  the remote fabric reports a deep part queue), instead of buffering
  without bound until the planner OOMs. Sheds are counted here
  (``n_shed``) and reported to the solve backend's ``note_shed`` when it
  has one, so the fabric ``stats`` verb and the auditor's
  ``elevated_load_shedding`` check see admission pressure.
* **Per-client fairness** — pending requests queue per client and window
  assembly round-robins one request per client per pass, so one client
  flooding the socket cannot starve another's single request out of
  every batch (and shed pressure lands on the flooder, whose backlog is
  what fills the bounded queue).

Queue time is recorded per request under ``serve.queue_wait`` (the window,
when the server was busy, plus any backpressure from ``max_inflight``)
in the server's :class:`~repro.perf.instrument.PerfRecorder`.

Deadlock note: the executor pool has exactly ``max_inflight`` threads and
batch *assembly* is gated by a semaphore of the same size (a batch is
only taken out of the admission queue when a slot is free), so every
batch that holds coalescer claims is guaranteed a running thread — a
waiter can always be outwaited by its owner, never by a queue slot.
"""

from __future__ import annotations

import asyncio
import json
import math
import signal
import sys
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import IO, Deque, Dict, List, Optional

from repro.circuits.circuit import Circuit
from repro.perf.instrument import PerfRecorder, recorder_or_null
from repro.service.protocol import (
    MAX_LINE_BYTES,
    CompileRequest,
    ProtocolError,
    assign_request_id,
    encode,
    error_response,
    overloaded_response,
    parse_request,
    request_circuit,
    response_for,
)
from repro.service.service import CompileService


class _Client:
    """One response sink (a TCP connection or the stdout pipe).

    Serializes writes with a lock so two finishing batches cannot
    interleave halves of a line, and swallows writes to a peer that
    already disconnected (its requests may still be in a running batch).
    """

    def __init__(self, writer: Optional[asyncio.StreamWriter], stdout: Optional[IO[str]] = None):
        self._writer = writer
        self._stdout = stdout
        self._lock = asyncio.Lock()

    async def send(self, payload: dict) -> None:
        line = encode(payload)
        async with self._lock:
            if self._writer is not None:
                if self._writer.is_closing():
                    return
                try:
                    self._writer.write(line.encode() + b"\n")
                    await self._writer.drain()
                except (ConnectionError, RuntimeError):
                    return
            else:
                print(line, file=self._stdout, flush=True)


def _salvage_request_id(line: str) -> str:
    """The ``id`` of a rejected line, when the JSON was readable enough."""
    try:
        raw = json.loads(line)
    except ValueError:
        return ""
    if isinstance(raw, dict) and raw.get("id"):
        return str(raw["id"])
    return ""


async def _read_line(reader: asyncio.StreamReader) -> Optional[bytes]:
    """The next line (``b""`` at end of stream), or ``None`` for a line
    over the reader's limit. An over-long line is dropped through its
    newline — a tail that arrives later included — so the next read
    starts on the next line."""
    overlong = False
    while True:
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as exc:
            line = exc.partial  # end of stream: the unterminated rest
        except asyncio.LimitOverrunError as exc:
            # Nothing was consumed: drop the buffered part of the line
            # (up to its newline, when that has arrived) and read on.
            await reader.readexactly(exc.consumed)
            overlong = True
            continue
        return None if overlong else line


@dataclass
class _Pending:
    """One compile request waiting for (or riding in) a batch."""

    request: CompileRequest
    circuit: Circuit
    client: _Client
    enqueued_at: float = field(default=0.0)


class AsyncCompileServer:
    """Micro-batching asyncio server around one :class:`CompileService`."""

    def __init__(
        self,
        service: CompileService,
        window_s: float = 0.025,
        max_batch: int = 16,
        max_inflight: int = 2,
        max_queue: Optional[int] = None,
        perf: Optional[PerfRecorder] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if max_queue is not None and max_queue < 1:
            raise ValueError("max_queue must be >= 1 (or None for unbounded)")
        self.service = service
        self.window_s = max(0.0, float(window_s))
        self.max_batch = int(max_batch)
        self.max_inflight = int(max_inflight)
        self.max_queue = None if max_queue is None else int(max_queue)
        self.perf = recorder_or_null(perf)
        self.n_batches = 0
        self.n_requests = 0
        self.n_shed = 0  # admission refusals (typed overloaded responses)
        self.stopping = asyncio.Event()
        # Pending compiles queue *per client*; window assembly round-robins
        # across clients so a flooder cannot starve a light client.
        self._pending_by_client: Dict[_Client, Deque[_Pending]] = {}
        self._client_rr: Deque[_Client] = deque()
        self._pending_count = 0
        self._have_work = asyncio.Event()
        self._batch_wall_ewma: Optional[float] = None  # retry-after basis
        self._sem = asyncio.Semaphore(self.max_inflight)
        self._pool = ThreadPoolExecutor(
            max_workers=self.max_inflight, thread_name_prefix="repro-batch"
        )
        self._batcher: Optional[asyncio.Task] = None
        self._batch_tasks: set = set()
        self._next_id = 0
        self._outstanding = 0  # enqueued compile requests not yet answered
        self._connections: set = set()  # live TCP writers, closed on shutdown

    # -------------------------------------------------------------- intake
    async def handle_line(self, line: str, client: _Client) -> None:
        """Parse one request line; commands answer inline, compiles enqueue."""
        line = line.strip()
        if not line:
            return
        try:
            request = parse_request(line)
        except ProtocolError as exc:
            await self._refuse(client, str(exc), line)
            return
        if not request.id:
            # Bump only when an id is actually assigned, so auto-id
            # numbering is dense and matches the auto-assigned count.
            self._next_id += 1
            assign_request_id(request, self._next_id)
        if request.is_command:
            await self._handle_command(request, client)
            return
        if (
            self.max_queue is not None
            and self._pending_count >= self.max_queue
        ):
            # Admission control: refuse *before* circuit construction —
            # a shed must stay cheap or shedding itself becomes the
            # bottleneck under exactly the flood it exists for.
            self.n_shed += 1
            note_shed = getattr(self.service.backend, "note_shed", None)
            if callable(note_shed):
                note_shed()  # fabric stats / audit see admission pressure
            await client.send(
                overloaded_response(
                    request.id,
                    self._retry_after(),
                    queued=self._pending_count,
                )
            )
            return
        try:
            circuit = request_circuit(request)
        except Exception as exc:  # bad program name / malformed QASM
            await client.send(
                error_response(request.id, f"{type(exc).__name__}: {exc}")
            )
            return
        self.n_requests += 1
        self._outstanding += 1
        pending = _Pending(
            request=request,
            circuit=circuit,
            client=client,
            enqueued_at=self.perf.now(),
        )
        lane = self._pending_by_client.get(client)
        if lane is None:
            lane = self._pending_by_client[client] = deque()
        if client not in self._client_rr:
            self._client_rr.append(client)
        lane.append(pending)
        self._pending_count += 1
        self._have_work.set()

    async def _refuse(self, client: _Client, message: str, line: str = "") -> None:
        """Answer an unreadable line with an error a client reading
        out-of-order responses can still correlate: the id the line
        carried if it was readable at all, else a server-assigned
        ``auto<n>`` (an empty id would be attributable to no request)."""
        request_id = _salvage_request_id(line)
        if not request_id:
            self._next_id += 1
            request_id = f"auto{self._next_id}"
        await client.send(error_response(request_id, message))

    def stats_payload(self) -> dict:
        """The server-side counter snapshot: the ``stats`` command's body
        and the ``final_stats`` line a terminating TCP server emits — one
        shape, so a load harness can diff mid-run and closing snapshots."""
        return {
            "store": self.service.store.stats.to_dict(),
            "store_shards": self.service.store.stats_by_shard(),
            "entries": len(self.service.store),
            "batches": self.service.n_batches,
            "served_batches": self.n_batches,
            "served_requests": self.n_requests,
            "queued": self._pending_count,
            "shed": self.n_shed,
            "max_queue": self.max_queue,
            "coalesced": self.service.coalescer.coalesced,
        }

    def _retry_after(self) -> float:
        """Drain-time estimate for a shed client: batches ahead of it times
        the batch-wall EWMA, divided across concurrent batch slots — then
        scaled up when the remote fabric reports queued parts beyond its
        reservation capacity (solves will stack behind them)."""
        wall = self._batch_wall_ewma
        if wall is None:
            wall = max(self.window_s, 0.05)  # nothing measured yet
        batches_ahead = max(
            1, math.ceil(self._pending_count / self.max_batch)
        )
        hint = batches_ahead * wall / self.max_inflight
        stats = getattr(self.service.backend, "stats", None)
        if callable(stats):
            try:
                fabric = stats()
                capacity = max(
                    1,
                    fabric.get("workers_connected", 0)
                    * fabric.get("parts_per_worker", 1),
                )
                hint *= 1.0 + fabric.get("parts_queued", 0) / capacity
            except Exception:
                pass  # a sick fabric must not break shedding
        return hint

    async def _handle_command(self, request: CompileRequest, client: _Client) -> None:
        if request.cmd in ("quit", "shutdown"):
            await client.send({"id": request.id, "ok": True, "bye": True})
            if request.cmd == "shutdown":
                self.stopping.set()
            raise ConnectionResetError("client quit")  # unwinds this connection
        if request.cmd == "stats":
            await client.send(
                {"id": request.id, "ok": True, **self.stats_payload()}
            )
            return
        await client.send(
            error_response(request.id, f"unknown cmd {request.cmd!r}")
        )

    # ------------------------------------------------------------- batching
    def _assemble(self, limit: int) -> List[_Pending]:
        """Take up to ``limit`` pending requests, one per client per pass
        (round-robin), so every client with work is represented in the
        window before any client gets a second slot."""
        batch: List[_Pending] = []
        while len(batch) < limit and self._client_rr:
            client = self._client_rr.popleft()
            lane = self._pending_by_client.get(client)
            if not lane:
                self._pending_by_client.pop(client, None)
                continue
            batch.append(lane.popleft())
            self._pending_count -= 1
            if lane:
                self._client_rr.append(client)
            else:
                self._pending_by_client.pop(client, None)
        return batch

    async def _batch_loop(self) -> None:
        """Collect → dispatch forever; assembly is gated on a free batch
        slot. Holding the slot *before* assembling matters for admission
        control: while ``max_inflight`` batches run, arrivals stay in the
        per-client lanes where ``_pending_count`` (and so ``max_queue``)
        can see them — assembled-but-parked batches would hide the
        backlog from the shed check."""
        loop = asyncio.get_running_loop()
        while True:
            await self._have_work.wait()
            await self._sem.acquire()
            deadline = loop.time() + self.window_s
            # Wait only while another batch runs: its arrivals then dedupe
            # and coalesce as one batch. An idle server has no company to
            # wait for, so it dispatches what is queued at once.
            while self._batch_tasks and self._pending_count < self.max_batch:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break
                # Bounded naps instead of one long sleep: a burst that
                # fills the window, or a running batch that finishes,
                # ends the wait early.
                await asyncio.sleep(min(0.005, remaining))
            batch = self._assemble(self.max_batch)
            if self._pending_count == 0:
                self._have_work.clear()
            if not batch:
                self._sem.release()
                continue
            task = asyncio.create_task(self._run_batch(batch))
            self._batch_tasks.add(task)
            task.add_done_callback(self._batch_tasks.discard)

    async def _run_batch(self, batch: List[_Pending]) -> None:
        """Run one assembled batch; the caller hands over its batch slot
        (the semaphore `_batch_loop` acquired) and it is released here."""
        loop = asyncio.get_running_loop()
        try:
            for pending in batch:
                self.perf.record_since("serve.queue_wait", pending.enqueued_at)
            circuits = [p.circuit for p in batch]
            try:
                report = await loop.run_in_executor(
                    self._pool, self.service.submit_batch, circuits
                )
            except Exception as exc:
                message = f"{type(exc).__name__}: {exc}"
                for pending in batch:
                    await pending.client.send(
                        error_response(pending.request.id, message)
                    )
                return
            else:
                self.n_batches += 1
                # Batch-wall EWMA feeds the shed response's retry-after
                # hint; alpha 0.3 smooths over per-batch size variance.
                wall = float(report.wall_time)
                if self._batch_wall_ewma is None:
                    self._batch_wall_ewma = wall
                else:
                    self._batch_wall_ewma = (
                        0.3 * wall + 0.7 * self._batch_wall_ewma
                    )
                for pending, request_report in zip(batch, report.requests):
                    payload = response_for(
                        pending.request, request_report, report
                    )
                    payload["batch"] = self.n_batches
                    await pending.client.send(payload)
            finally:
                self._outstanding -= len(batch)
        finally:
            self._sem.release()

    # ------------------------------------------------------------ lifecycle
    def _ensure_batcher(self) -> None:
        if self._batcher is None or self._batcher.done():
            self._batcher = asyncio.create_task(self._batch_loop())

    async def drain(self) -> None:
        """Wait until every enqueued request has been answered."""
        while self._outstanding > 0:
            if self._batch_tasks:
                await asyncio.gather(
                    *list(self._batch_tasks), return_exceptions=True
                )
            else:
                # Queued but not dispatched yet: the batcher takes it on its
                # next turn (an idle server does not wait out the window).
                await asyncio.sleep(0.005)

    def hang_up(self) -> None:
        """Close every live client connection (server-initiated shutdown).

        Needed before awaiting the TCP server's ``wait_closed``: from
        Python 3.12.1 it waits for every connection handler, so a client
        parked in ``readline`` would block shutdown forever.
        """
        for writer in list(self._connections):
            if not writer.is_closing():
                writer.close()

    async def close(self) -> None:
        await self.drain()
        if self._batcher is not None:
            self._batcher.cancel()
            try:
                await self._batcher
            except asyncio.CancelledError:
                pass
            self._batcher = None
        self._pool.shutdown(wait=True)
        # Persist read-recency bumps so a bounded store's LRU order
        # reflects this session's traffic after restart.
        self.service.store.flush()

    # ------------------------------------------------------------ frontends
    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """`asyncio.start_server` callback: one task per TCP client."""
        self._ensure_batcher()
        self._connections.add(writer)
        client = _Client(writer)
        try:
            while True:
                line = await _read_line(reader)
                if line is None:
                    await self._refuse(
                        client, f"request line over {MAX_LINE_BYTES} bytes"
                    )
                    continue
                if not line:
                    break
                await self.handle_line(line.decode(errors="replace"), client)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # disconnect mid-line; in-flight batches still run
        finally:
            self._connections.discard(writer)
            if not writer.is_closing():
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass

    async def start_tcp(self, host: str, port: int) -> asyncio.AbstractServer:
        self._ensure_batcher()
        return await asyncio.start_server(
            self.handle_connection, host, port, limit=MAX_LINE_BYTES
        )

    async def serve_stdio(
        self,
        stdin: Optional[IO[str]] = None,
        stdout: Optional[IO[str]] = None,
    ) -> int:
        """Async loop over stdin/stdout; returns when stdin closes or quit.

        Lines are read in a side thread (portable — no pipe-transport
        support needed), everything else runs on the event loop, so a
        pipeline of requests written at once is parsed concurrently and
        batched exactly like TCP traffic.
        """
        stdin = stdin if stdin is not None else sys.stdin
        stdout = stdout if stdout is not None else sys.stdout
        self._ensure_batcher()
        client = _Client(None, stdout=stdout)
        loop = asyncio.get_running_loop()
        with ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-stdin") as readers:
            try:
                while not self.stopping.is_set():
                    line = await loop.run_in_executor(readers, stdin.readline)
                    if not line:
                        break
                    await self.handle_line(line, client)
            except ConnectionResetError:
                pass  # quit/shutdown command
        await self.close()
        return 0


def _install_stop_signals(server: AsyncCompileServer) -> None:
    """SIGTERM/SIGINT request the same graceful stop as ``{"cmd":
    "shutdown"}``: drain, flush, report. CI supervisors and the load
    harness tear servers down with SIGTERM, so a default-action death
    there would lose the final flush and the closing stats snapshot.
    Best-effort: event-loop signal handlers are a Unix feature."""
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(signum, server.stopping.set)
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # non-Unix loop or non-main thread: keep default handling


async def _amain_tcp(server: AsyncCompileServer, host: str, port: int) -> int:
    tcp = await server.start_tcp(host, port)
    _install_stop_signals(server)
    bound = tcp.sockets[0].getsockname()
    # Announce the bound address (port 0 resolves here) for scripted clients.
    print(json.dumps({"serving": f"{bound[0]}:{bound[1]}"}), flush=True)
    async with tcp:
        await server.stopping.wait()
        await server.drain()  # answer everything enqueued before the stop
        server.hang_up()
    await server.close()
    # The closing snapshot, after every batch drained and the store
    # flushed: whether stopped by the shutdown command, SIGTERM, or
    # SIGINT, a scripted supervisor always gets the final counters.
    print(
        json.dumps({"final_stats": server.stats_payload()}, sort_keys=True),
        flush=True,
    )
    return 0


def run_server(
    service: CompileService,
    host: str = "127.0.0.1",
    port: Optional[int] = None,
    window_s: float = 0.025,
    max_batch: int = 16,
    max_inflight: int = 2,
    max_queue: Optional[int] = None,
    perf: Optional[PerfRecorder] = None,
) -> int:
    """Blocking entry point for ``repro serve``.

    ``port=None`` serves stdin/stdout; otherwise a TCP listener on
    ``host:port`` (``port=0`` picks a free port and announces it as the
    first stdout line).
    """

    async def _amain() -> int:
        server = AsyncCompileServer(
            service,
            window_s=window_s,
            max_batch=max_batch,
            max_inflight=max_inflight,
            max_queue=max_queue,
            perf=perf,
        )
        if port is None:
            return await server.serve_stdio()
        return await _amain_tcp(server, host, port)

    return asyncio.run(_amain())
