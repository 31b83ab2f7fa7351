"""Closed-loop JSON-lines client, failure accounting and percentiles.

The client speaks the front door's wire protocol directly (one socket per
client, send a line, wait for its reply) instead of reusing the program's
load harness, so what a request costs is timed the same way whatever the
harness becomes.
"""

from __future__ import annotations

import json
import math
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from accbench.inputs import Request

#: Samples that must lie beyond a percentile before it is reported.
MIN_TAIL_SAMPLES = 10

#: Per-request outcome. Every attempted request ends in exactly one.
OK, ERROR, SHED, LOST, WRONG, PHYSICS = "ok", "error", "shed", "lost", "wrong", "physics"


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default), ``q`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = q / 100.0 * (len(ordered) - 1)
    lo, hi = math.floor(rank), math.ceil(rank)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the ``q``-th percentile."""
    return int(n * (100.0 - q) / 100.0 + 1e-9)


def tail_is_reportable(n: int, q: float) -> bool:
    return samples_beyond(n, q) >= MIN_TAIL_SAMPLES


@dataclass
class Reply:
    """One request's fate as the client saw it."""

    index: int  # position in the pass's request sequence
    request: Request
    status: str
    latency_s: float = 0.0
    payload: Optional[Dict] = None
    done_at: float = 0.0  # perf_counter when the reply arrived
    cpu_at: float = 0.0  # process CPU seconds when the reply arrived


@dataclass
class Tally:
    """Outcome counts; ``failed`` counts every non-ok request once."""

    replies: List[Reply] = field(default_factory=list)

    def mark(self, index: int, status: str) -> None:
        """Downgrade an answered request (wrong answer, failed physics).
        A request already failed keeps its first status."""
        reply = self.replies[index]
        if reply.status == OK:
            reply.status = status

    @property
    def attempted(self) -> int:
        return len(self.replies)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.replies if r.status != OK)

    def counts(self) -> Dict[str, int]:
        out = {s: 0 for s in (OK, ERROR, SHED, LOST, WRONG, PHYSICS)}
        for reply in self.replies:
            out[reply.status] += 1
        return out

    def answered(self) -> List[Reply]:
        """Replies that carried an answer (ok, or checked and found wrong)."""
        return [r for r in self.replies if r.payload and r.payload.get("ok")]


def classify(payload: Optional[Dict]) -> str:
    if payload is None:
        return LOST
    if payload.get("overloaded"):
        return SHED
    if not payload.get("ok"):
        return ERROR
    return OK


def _client(
    port: int, client: int, work: Sequence[tuple], out: List[Optional[Reply]],
    timeout_s: float,
) -> None:
    with socket.create_connection(("127.0.0.1", port), timeout=timeout_s) as sock:
        sock.settimeout(timeout_s)
        with sock.makefile("rwb") as stream:
            for index, request in work:
                line = json.dumps(request.payload(f"c{client}-{index}")) + "\n"
                start = time.perf_counter()
                payload = None
                try:
                    stream.write(line.encode())
                    stream.flush()
                    raw = stream.readline()
                    if raw:
                        payload = json.loads(raw)
                except (OSError, ValueError):
                    payload = None
                done = time.perf_counter()
                out[index] = Reply(
                    index, request, classify(payload), done - start, payload, done, time.process_time()
                )
                if payload is None:
                    return  # connection gone: the rest of this client is lost


def closed_loop(
    port: int, requests: Sequence[Request], clients: int, timeout_s: float = 120.0
) -> Tally:
    """Send ``requests`` from ``clients`` closed-loop clients (client ``c``
    sends every ``clients``-th request, starting at ``c``) and wait for all.
    A request with no reply — dropped connection, timeout, client crash —
    is counted lost."""
    out: List[Optional[Reply]] = [None] * len(requests)
    threads = []
    for c in range(clients):
        work = [(i, requests[i]) for i in range(c, len(requests), clients)]
        thread = threading.Thread(
            target=_client, args=(port, c, work, out, timeout_s), daemon=True
        )
        thread.start()
        threads.append(thread)
    for thread in threads:
        thread.join()
    tally = Tally()
    for index, request in enumerate(requests):
        reply = out[index]
        tally.replies.append(reply if reply is not None else Reply(index, request, LOST))
    return tally
