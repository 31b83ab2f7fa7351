"""Set-up and tear-down of the system each workload runs against.

A rig is everything up to the first timed request: the store (created,
and warmed through the front door where the workload needs it), the solve
backend, the engine and the in-process async server. ``setup_s`` times
exactly that. Every rig lives under the run's work directory and stops
every thread it started in :meth:`Rig.close`.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro.core.engines import GrapeEngine
from repro.service import (
    CompileService,
    InProcessServer,
    PulseStore,
    RemoteExecutor,
    RemoteStore,
    StoreServer,
    worker_loop,
)
from repro.utils.config import PipelineConfig

from accbench.client import OK, closed_loop
from accbench.inputs import WARM_PROGRAMS, Request

N_WORKERS = 2
FABRIC_WORKERS = 2
FABRIC_WAIT_S = 30.0


@dataclass
class Rig:
    service: CompileService
    port: int
    setup_s: float = 0.0
    closers: List[Callable[[], None]] = field(default_factory=list)
    executor: object = None

    def stats(self) -> Dict[str, float]:
        """Counters read off the system after a pass (no tracing needed)."""
        store = self.service.store
        out = {
            "hits": store.stats.hits,
            "misses": store.stats.misses,
            "entries_end": len(store),
        }
        if self.executor is not None:
            fabric = self.executor.stats()
            out["reassigned"] = fabric.get("n_reassigned", 0)
            out["local_fallback"] = fabric.get("n_local_fallback", 0)
        return out

    def close(self) -> None:
        while self.closers:
            self.closers.pop()()


def _warm(port: int) -> None:
    tally = closed_loop(port, [Request(name) for name in WARM_PROGRAMS], clients=1)
    if tally.failed:
        bad = [r.request.program for r in tally.replies if r.status != OK]
        raise RuntimeError(f"warming the store failed for {bad}")


def _serve(closers: List, service: CompileService) -> int:
    """Start the async front door (default settings) on a free port."""
    server = InProcessServer(service)
    port = server.start()
    closers.append(server.stop)
    return port


def cold_grape(workdir: str) -> Rig:
    """Empty store, GRAPE engine on the ``repro serve --engine grape`` budget."""
    start = time.perf_counter()
    closers: List = []
    config = PipelineConfig()
    service = CompileService(
        PulseStore(os.path.join(workdir, "store")),
        config=config,
        engine=GrapeEngine(config.physics, config.run.fast()),
        backend="thread",
        n_workers=N_WORKERS,
    )
    port = _serve(closers, service)
    rig = Rig(service, port, closers=closers)
    rig.setup_s = time.perf_counter() - start
    return rig


def remote_churn(workdir: str) -> Rig:
    """Store behind a loopback StoreServer, solves on a two-worker fabric."""
    start = time.perf_counter()
    closers: List = []
    try:
        store_server = StoreServer(PulseStore(os.path.join(workdir, "store"))).start()
        closers.append(store_server.stop)
        remote = RemoteStore(f"remote://{store_server.address}")
        closers.append(remote.close)
        executor = RemoteExecutor()
        threads = [
            threading.Thread(
                target=worker_loop, args=(f"remote://{executor.address}",),
                name=f"bench-worker{i}", daemon=True,
            )
            for i in range(FABRIC_WORKERS)
        ]

        def stop_fabric() -> None:
            executor.close()
            for thread in threads:
                thread.join(timeout=30)

        closers.append(stop_fabric)
        for thread in threads:
            thread.start()
        service = CompileService(remote, backend=executor, n_workers=N_WORKERS)
        port = _serve(closers, service)
        rig = Rig(service, port, closers=closers, executor=executor)
        deadline = time.monotonic() + FABRIC_WAIT_S
        while executor.live_workers() < FABRIC_WORKERS:
            if time.monotonic() > deadline:
                raise RuntimeError("fabric workers never connected")
            time.sleep(0.01)
        _warm(port)
    except BaseException:
        while closers:
            closers.pop()()
        raise
    rig.setup_s = time.perf_counter() - start
    return rig


RIGS = {"cold-grape": cold_grape, "remote-churn": remote_churn}
