"""Lightweight wall-clock timers and counters for the compilation pipeline.

A ``PerfRecorder`` is a cheap, dependency-free accumulator: stages are
named context managers around the pipeline's hot sections, counters track
discrete work units (optimizer iterations, groups compiled). Recorders are
snapshot into immutable :class:`~repro.perf.report.PerfReport` objects that
``CompiledProgram`` carries, so every compilation exposes where its wall
time went.

Stage names are dotted paths (``dynamic.simgraph``); nesting is by
convention, not enforced, which keeps the per-call overhead to two clock
reads and a locked dict update. The lock makes every update exact under
threads: the pulse stores keep their hit/miss/put counters *only* here
and read them back through :meth:`PerfRecorder.read_counters`.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable

from repro.perf.report import PerfReport, StageStat


class PerfRecorder:
    """Accumulates named stage timings and counters (thread-safe)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._lock = threading.Lock()
        self.stages: Dict[str, StageStat] = {}
        self.counters: Dict[str, int] = {}

    @contextmanager
    def stage(self, name: str):
        """Time a block of work under ``name`` (additive across calls)."""
        start = self._clock()
        try:
            yield self
        finally:
            self.record(name, self._clock() - start)

    def record(self, name: str, seconds: float) -> None:
        """Add one timed call to a stage."""
        with self._lock:
            self._add_stage(name, 1, float(seconds))

    def record_since(self, name: str, start: float) -> None:
        """Close an open-ended interval: ``start`` is an earlier reading of
        this recorder's clock. For waits that span tasks or threads (a
        request sitting in the serve queue, a part waiting for a pool
        slot), where no single ``with stage(...)`` block encloses the
        interval."""
        self.record(name, self._clock() - start)

    def now(self) -> float:
        """A clock reading to later pass to :meth:`record_since`."""
        return self._clock()

    def count(self, name: str, n: int = 1) -> None:
        """Increment a named counter."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + int(n)

    def read_counters(self, prefix: str, names: Iterable[str]) -> Dict[str, int]:
        """``{name: counters[prefix + name]}`` for exactly these names, 0
        for one never counted, read together under the lock. Exact names,
        never a prefix scan: ``store.`` also prefixes ``store.shard0.*``."""
        with self._lock:
            return {name: self.counters.get(prefix + name, 0) for name in names}

    def merge_report(self, report: PerfReport, prefix: str = "") -> None:
        """Fold a finished :class:`PerfReport` into this recorder.

        Stage totals and call counts add; counters add. ``prefix`` namespaces
        the incoming names (``worker0.`` + ``solve`` -> ``worker0.solve``) —
        this is how per-worker recorders from the service's process pool are
        folded back into the batch-level recorder.
        """
        with self._lock:
            for stat in report.stages:
                self._add_stage(prefix + stat.name, stat.calls, stat.total_s)
            for name, value in report.counters.items():
                name = prefix + name
                self.counters[name] = self.counters.get(name, 0) + int(value)

    def report(self, label: str = "") -> PerfReport:
        """Immutable snapshot of everything recorded so far."""
        with self._lock:
            return PerfReport(
                label=label,
                stages=[
                    StageStat(name=s.name, calls=s.calls, total_s=s.total_s)
                    for s in self.stages.values()
                ],
                counters=dict(self.counters),
            )

    def _add_stage(self, name: str, calls: int, seconds: float) -> None:
        stat = self.stages.get(name)
        if stat is None:
            stat = self.stages[name] = StageStat(name=name)
        stat.calls += calls
        stat.total_s += seconds


def recorder_or_null(perf: "PerfRecorder | None") -> PerfRecorder:
    """Hand back ``perf`` or a fresh throwaway recorder.

    Lets instrumented code call ``perf.stage(...)`` unconditionally; when no
    recorder was supplied the caller gets its own private recorder, so
    un-instrumented instances never share (or leak) accumulated state.
    """
    return perf if perf is not None else PerfRecorder()
