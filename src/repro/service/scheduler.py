"""Fabric scheduling: capability-aware, work-stealing part dispatch.

:class:`~repro.service.remote.RemoteExecutor` used to be its own
scheduler: one shared FIFO queue, one part in flight per worker, parts
drained in the caller's LPT order. That is list scheduling — fine when
every worker is the same speed, but a fleet is rarely uniform: a laptop
worker dials into a fabric of server workers, a worker shares its host
with a noisy neighbour, a cold BLAS warms up. This module extracts the
dispatch decisions into a :class:`FabricScheduler` the executor (and its
``stats`` verb, and the front door's admission control) all consult:

* **Multiple parts in flight per worker** (``parts_per_worker``): each
  worker owns a bounded reservation queue; while one part round-trips on
  its socket the next is already assigned, so dispatch latency hides
  behind compute. Overflow beyond every worker's bound waits in a shared
  pending pool that any free worker drains (work-conserving).
* **Capability-weighted placement**: per-worker solve throughput is an
  EWMA over measured part outcomes — modelled part weight divided by the
  worker's reported wall seconds, the same timings the batch report
  files under ``execute.worker<k>.wall``. A part is placed on the worker
  with the earliest *estimated finish time* (backlog weight divided by
  throughput), so a worker measured 10x slower is handed ~10x less
  work up front. Cold workers (no outcome yet) start at the fleet
  median, so one new dial-in is neither starved nor flooded.
* **Work stealing**: a worker that drains its queue and finds the
  pending pool empty takes the *tail* of the most-backlogged straggler's
  queue (largest estimated remaining seconds). Stealing moves whole
  parts — warm seeds travel inside each task, so a stolen part produces
  exactly the bytes it would have produced on its original worker; only
  *when and where* changes, never *what*.
* **Requeue-before-reassign**: a wire failure puts the held part back in
  the pending pool *before* the worker retires (same invariant the flat
  queue honoured) — dispatch can never observe zero workers while a
  recoverable part is invisible, so a batch never strands.

The counters live only here and surface in the fabric ``stats`` verb
payload: global ``n_dispatched``/``n_steals``/``n_reassigned``/``n_shed``
plus per-worker ``queued``/``in_flight``/``rate``/``steals_won``/
``steals_lost`` rows.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

#: Weight of the newest part outcome in a worker's throughput EWMA.
EWMA_ALPHA = 0.4

#: Sentinel :meth:`FabricScheduler.next_part` returns once the scheduler
#: is closing — the worker handler forwards a close to its peer and exits.
CLOSE_FABRIC = object()


@dataclass
class ScheduledPart:
    """One schedulable unit: a part of some ``map_parts`` call's job.

    ``job`` is duck-typed — the scheduler only needs ``done()`` (to drop
    parts whose batch already failed or drained elsewhere) and identity
    (to purge one job's parts). ``payload`` is opaque here: what the
    worker handler sends. ``weight`` is the modelled iteration
    cost from the batch plan (falls back to the task count), the unit
    the throughput EWMA is denominated in.
    """

    job: object
    index: int
    payload: object
    weight: float = 1.0


@dataclass
class WorkerSlot:
    """Scheduler-side state of one worker connection."""

    label: str
    connected: bool = True
    queue: Deque[ScheduledPart] = field(default_factory=deque)
    queued_weight: float = 0.0
    in_flight: int = 0  # parts currently round-tripping on the wire
    in_flight_weight: float = 0.0
    rate: Optional[float] = None  # EWMA weight-units/s; None until measured
    parts: int = 0
    solve_s: float = 0.0
    wire_s: float = 0.0
    steals_won: int = 0  # parts this worker took from a straggler
    steals_lost: int = 0  # parts taken away from this worker's queue

    def backlog_weight(self) -> float:
        return self.queued_weight + self.in_flight_weight

    def capacity_used(self) -> int:
        return len(self.queue) + self.in_flight


class FabricScheduler:
    """Assigns :class:`ScheduledPart`s to workers; see module docstring.

    Thread-safe: worker handler threads call :meth:`next_part` /
    :meth:`complete` / :meth:`release`, dispatcher threads call
    :meth:`submit` / :meth:`take_job`, the stats verb calls
    :meth:`stats` — all serialized on one condition.
    """

    def __init__(self, parts_per_worker: int = 2) -> None:
        if parts_per_worker < 1:
            raise ValueError("parts_per_worker must be >= 1")
        self.parts_per_worker = int(parts_per_worker)
        self._cond = threading.Condition()
        self._slots: Dict[str, WorkerSlot] = {}
        self._pending: Deque[ScheduledPart] = deque()
        self._next_label = 0
        self._closing = False
        self.n_dispatched = 0
        self.n_steals = 0
        self.n_reassigned = 0
        self.n_shed = 0  # load-shed events the front door reported

    @staticmethod
    def _job_done(part: ScheduledPart) -> bool:
        """True when the part's batch already finished (failed or drained
        elsewhere) — such parts are dropped, never dispatched or requeued."""
        done = getattr(part.job, "done", None)
        return bool(done()) if callable(done) else False

    # ------------------------------------------------------------ membership
    def register(self) -> str:
        """Enroll one worker connection; returns its (never reused) label."""
        with self._cond:
            self._next_label += 1
            label = f"worker{self._next_label}"
            self._slots[label] = WorkerSlot(label=label)
            self._cond.notify_all()
            return label

    def unregister(self, label: str) -> None:
        """Retire a worker; its queued (not yet dispatched) parts go back
        to the *front* of the pending pool so surviving workers pick them
        up before newer work."""
        with self._cond:
            slot = self._slots[label]
            slot.connected = False
            while slot.queue:
                part = slot.queue.pop()
                slot.queued_weight -= part.weight
                if not self._job_done(part):
                    self._pending.appendleft(part)
            slot.queued_weight = 0.0
            self._cond.notify_all()

    def connected_count(self) -> int:
        with self._cond:
            return sum(1 for s in self._slots.values() if s.connected)

    def wait_for_worker(self, timeout_s: float) -> bool:
        """Block until at least one worker is connected (or timeout)."""
        deadline = time.monotonic() + timeout_s
        with self._cond:
            while not any(s.connected for s in self._slots.values()):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(remaining)
            return True

    # ------------------------------------------------------------ submission
    def submit(self, parts: List[ScheduledPart]) -> None:
        """Place a job's parts (callers submit heaviest-first, LPT)."""
        with self._cond:
            for part in parts:
                self._place(part)
            self._cond.notify_all()

    def _place(self, part: ScheduledPart) -> None:
        open_slots = [
            s
            for s in self._slots.values()
            if s.connected and s.capacity_used() < self.parts_per_worker
        ]
        if not open_slots:
            self._pending.append(part)
            return
        median = self._median_rate()
        slot = min(
            open_slots,
            key=lambda s: (s.backlog_weight() + part.weight)
            / self._rate_of(s, median),
        )
        slot.queue.append(part)
        slot.queued_weight += part.weight

    def _median_rate(self) -> float:
        rates = sorted(
            s.rate for s in self._slots.values() if s.rate is not None
        )
        if not rates:
            return 1.0
        return rates[len(rates) // 2]

    def _rate_of(self, slot: WorkerSlot, median: Optional[float] = None) -> float:
        if slot.rate is not None:
            return max(slot.rate, 1e-9)
        if median is None:
            median = self._median_rate()
        return max(median, 1e-9)

    # -------------------------------------------------------------- dispatch
    def next_part(self, label: str, timeout_s: float = 0.25):
        """The worker's pull loop: own queue, then pending pool, then the
        tail of the most-backlogged straggler's queue. Returns
        a :class:`ScheduledPart`, ``None`` on timeout (caller re-checks its
        stop flag), or :data:`CLOSE_FABRIC` once the scheduler is closing.
        """
        deadline = time.monotonic() + timeout_s
        with self._cond:
            while True:
                if self._closing:
                    return CLOSE_FABRIC
                part = self._pop_for(label)
                if part is not None:
                    if self._job_done(part):
                        continue  # stale: batch failed or drained locally
                    slot = self._slots[label]
                    slot.in_flight += 1
                    slot.in_flight_weight += part.weight
                    self.n_dispatched += 1
                    return part
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
                self._cond.wait(remaining)

    def _pop_for(self, label: str) -> Optional[ScheduledPart]:
        slot = self._slots[label]
        if slot.queue:
            part = slot.queue.popleft()
            slot.queued_weight -= part.weight
            return part
        if self._pending:
            return self._pending.popleft()
        victim = self._straggler(exclude=label)
        if victim is None:
            return None
        part = victim.queue.pop()  # the part the straggler would reach last
        victim.queued_weight -= part.weight
        victim.steals_lost += 1
        slot.steals_won += 1
        self.n_steals += 1
        return part

    def _straggler(self, exclude: str) -> Optional[WorkerSlot]:
        candidates = [
            s
            for s in self._slots.values()
            if s.connected and s.label != exclude and s.queue
        ]
        if not candidates:
            return None
        median = self._median_rate()
        return max(
            candidates,
            key=lambda s: s.backlog_weight() / self._rate_of(s, median),
        )

    # -------------------------------------------------------------- outcomes
    def complete(
        self,
        label: str,
        part: ScheduledPart,
        wall_s: Optional[float] = None,
        wire_s: float = 0.0,
    ) -> None:
        """A dispatched part round-tripped. ``wall_s`` is the worker's
        reported compute time and feeds the throughput EWMA; pass ``None``
        for a part the worker answered with an error (the failure must not
        poison the capability estimate)."""
        with self._cond:
            slot = self._slots[label]
            slot.in_flight -= 1
            slot.in_flight_weight -= part.weight
            if wall_s is not None:
                slot.parts += 1
                slot.solve_s += float(wall_s)
                slot.wire_s += float(wire_s)
                sample = part.weight / max(float(wall_s), 1e-6)
                if slot.rate is None:
                    slot.rate = sample
                else:
                    slot.rate = (
                        EWMA_ALPHA * sample + (1.0 - EWMA_ALPHA) * slot.rate
                    )
            self._cond.notify_all()

    def release(self, label: str, part: ScheduledPart) -> None:
        """Wire failure mid-part: requeue *before* the worker retires (the
        disconnect-reassignment invariant — the part is visible again the
        instant this returns, while the handler still counts as live)."""
        with self._cond:
            slot = self._slots[label]
            slot.in_flight -= 1
            slot.in_flight_weight -= part.weight
            if not self._job_done(part):
                self._pending.appendleft(part)
                self.n_reassigned += 1
            self._cond.notify_all()

    def note_shed(self, n: int = 1) -> None:
        """The front door refused ``n`` requests against scheduler state;
        counted here so the fabric ``stats`` verb (and the auditor's
        ``elevated_load_shedding`` check) can see admission pressure."""
        with self._cond:
            self.n_shed += int(n)

    # ------------------------------------------------------------- job admin
    def take_job(self, job: Optional[object]) -> List[ScheduledPart]:
        """Remove and return every not-yet-dispatched part of ``job``
        (every job's parts when ``job`` is None) — local drain and
        failed-batch purge. In-flight parts are untouched; their handlers
        drop them via ``job.done()`` when they come back."""
        with self._cond:
            taken: List[ScheduledPart] = []
            keep: Deque[ScheduledPart] = deque()
            for part in self._pending:
                if job is None or part.job is job:
                    taken.append(part)
                else:
                    keep.append(part)
            self._pending = keep
            for slot in self._slots.values():
                if not slot.queue:
                    continue
                kept: Deque[ScheduledPart] = deque()
                for part in slot.queue:
                    if job is None or part.job is job:
                        taken.append(part)
                        slot.queued_weight -= part.weight
                    else:
                        kept.append(part)
                slot.queue = kept
            taken.sort(key=lambda p: p.index)
            return taken

    def close(self) -> None:
        with self._cond:
            self._closing = True
            self._cond.notify_all()

    # ------------------------------------------------------------------ view
    def stats(self) -> Dict:
        """Occupancy snapshot merged into the fabric ``stats`` verb."""
        with self._cond:
            workers = {
                slot.label: {
                    "connected": slot.connected,
                    "parts": slot.parts,
                    "solve_s": slot.solve_s,
                    "wire_s": slot.wire_s,
                    "queued": len(slot.queue),
                    "in_flight": slot.in_flight,
                    "rate": slot.rate,
                    "steals_won": slot.steals_won,
                    "steals_lost": slot.steals_lost,
                }
                for slot in self._slots.values()
            }
            connected = [s for s in self._slots.values() if s.connected]
            return {
                "parts_per_worker": self.parts_per_worker,
                "workers_connected": len(connected),
                "parts_in_flight": sum(s.in_flight for s in connected),
                "parts_queued": len(self._pending)
                + sum(len(s.queue) for s in self._slots.values()),
                "n_dispatched": self.n_dispatched,
                "n_steals": self.n_steals,
                "n_reassigned": self.n_reassigned,
                "n_shed": self.n_shed,
                "workers": workers,
            }
