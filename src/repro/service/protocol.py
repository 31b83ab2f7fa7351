"""JSON-lines request/response protocol for ``repro serve``.

One JSON object per line. Requests name a program or carry inline QASM::

    {"id": "r1", "name": "qft_10"}
    {"id": "r2", "qasm": "OPENQASM 2.0; ...", "program": "mine"}
    {"cmd": "stats"}      # store + service counters
    {"cmd": "quit"}       # close this connection (stdin: exit)
    {"cmd": "shutdown"}   # stop serving entirely

Responses echo the request id and report coverage, latency, and timing::

    {"id": "r1", "ok": true, "program": "qft_10", "coverage_rate": 0.91, ...}
    {"id": "r2", "ok": false, "error": "..."}

The asyncio front door micro-batches requests across connections and
answers **out of order** — whichever batch finishes first responds first —
so the request id is the only way to correlate a response with its
request. A request that arrives without an id is assigned one
(``auto<n>``, per-server counter, echoed back) via
:func:`assign_request_id`. A line that fails to parse is answered with the
id it carried when that much was readable, else with an assigned one.
Over TCP a request line may hold at most :data:`MAX_LINE_BYTES` (64 KiB,
asyncio's default stream limit) before its newline; a longer line gets one
error with an assigned id, is dropped whole, and the connection keeps
serving.
Compile responses additionally carry ``"batch"``, the server-side batch
sequence number the request was planned in.

Under overload the server sheds instead of buffering without bound:
a request arriving while the planning queue sits at ``--max-queue`` gets a
typed refusal, ``{"ok": false, "error": "overloaded", "overloaded": true,
"retry_after_s": ...}`` (:func:`overloaded_response`) — back off for the
hinted seconds and resubmit.

Program names resolve against the named benchmark suite plus the ``qft_<n>``
family (n bounded to 1..64 — an unbounded size would let one request line
stall the server in circuit construction); everything else must ship QASM
inline. A program no registered device can hold is refused at intake
(:func:`placeable`), so it never reaches, and fails, a shared batch.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Dict, Optional

from repro.circuits.circuit import Circuit
from repro.circuits.qasm import parse_qasm
from repro.mapping.topology import topology_for
from repro.workloads.qft import qft
from repro.workloads.revlib_like import NAMED_BENCHMARKS, build_named

_QFT_RE = re.compile(r"^qft_(\d+)$")


class ProtocolError(ValueError):
    """Malformed request line."""


@dataclass
class CompileRequest:
    """One parsed request line."""

    id: str
    name: Optional[str] = None
    qasm: Optional[str] = None
    cmd: Optional[str] = None

    @property
    def is_command(self) -> bool:
        return self.cmd is not None


#: Longest TCP request line, in bytes: asyncio's default stream limit.
MAX_LINE_BYTES = 2 ** 16

#: Largest ``qft_<n>`` a request line may name. Circuit construction cost
#: grows superlinearly in n, so an unchecked size is a one-line denial of
#: service (``qft_999999999`` would stall the server before any solve);
#: the bound is validated *before* any work is done.
QFT_MAX_QUBITS = 64


def resolve_program(name: str) -> Circuit:
    """Named workload: the benchmark suite plus ``qft_<n>``, n in 1..64."""
    if name in NAMED_BENCHMARKS:
        return build_named(name)
    match = _QFT_RE.match(name)
    if match:
        n = int(match.group(1))
        if not 1 <= n <= QFT_MAX_QUBITS:
            raise ProtocolError(
                f"qft size {n} out of range 1..{QFT_MAX_QUBITS}"
            )
        return qft(n, name=name)
    raise ProtocolError(
        f"unknown program {name!r}; named programs are "
        f"{sorted(NAMED_BENCHMARKS)} or qft_<n> (n in 1..{QFT_MAX_QUBITS})"
    )


def parse_json_line(line):
    """``json.loads`` for one line off a wire. Nesting deeper than the
    parser's recursion limit (``json.loads`` raises ``RecursionError``
    from about 1,000 ``[``) raises ``ValueError``, like any other
    malformed line, so every JSON-lines reader in ``repro.service``
    refuses it the way it refuses bad JSON."""
    try:
        return json.loads(line)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def parse_request(line: str) -> CompileRequest:
    try:
        raw = parse_json_line(line)
    except ValueError as exc:
        raise ProtocolError(f"bad JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ProtocolError("request must be a JSON object")
    if "cmd" in raw:
        return CompileRequest(id=str(raw.get("id", "")), cmd=str(raw["cmd"]))
    request = CompileRequest(
        id=str(raw.get("id", "")),
        name=raw.get("name"),
        qasm=raw.get("qasm"),
    )
    if request.name is None and request.qasm is None:
        raise ProtocolError("request needs 'name' or 'qasm' (or 'cmd')")
    return request


def assign_request_id(request: CompileRequest, n: int) -> CompileRequest:
    """Give an id-less request a server-assigned id (``auto<n>``).

    Out-of-order responders (the async front door) must be able to tag
    every response; requests that already carry an id keep it untouched.
    """
    if not request.id:
        request.id = f"auto{n}"
    return request


def placeable(circuit: Circuit) -> Circuit:
    """``circuit``, if some registered device can hold it; else ProtocolError."""
    try:
        topology_for(circuit.n_qubits)
    except ValueError as exc:
        raise ProtocolError(f"{circuit.name or 'program'}: {exc}") from exc
    return circuit


def request_circuit(request: CompileRequest) -> Circuit:
    if request.qasm is not None:
        circuit = parse_qasm(request.qasm, name=request.name or request.id or "qasm")
    else:
        circuit = resolve_program(request.name)
    return placeable(circuit)


def response_for(request: CompileRequest, report, batch) -> Dict:
    """Success response from a RequestReport + its BatchReport."""
    stages = {}
    if batch.perf is not None:
        stages = {s.name: round(s.total_s, 6) for s in batch.perf.stages}
    return {
        "id": request.id,
        "ok": True,
        "program": report.name,
        "n_groups": report.n_groups,
        "n_unique": report.n_unique,
        "coverage_rate": round(report.coverage_rate, 6),
        "overall_latency_ns": report.overall_latency,
        "gate_based_latency_ns": report.gate_based_latency,
        "latency_reduction": round(report.latency_reduction, 6),
        "compile_iterations": report.compile_iterations,
        "compiled_groups": batch.n_compiled,
        "coalesced_groups": batch.n_coalesced,
        "wall_ms": round(batch.wall_time * 1e3, 3),
        "store": batch.store_stats,
        "stages": stages,
    }


def error_response(request_id: str, message: str) -> Dict:
    return {"id": request_id, "ok": False, "error": message}


def overloaded_response(
    request_id: str, retry_after_s: float, queued: Optional[int] = None
) -> Dict:
    """Typed load-shed: the async front door's admission control refused
    the request (planning queue at ``--max-queue``). ``overloaded: true``
    distinguishes the shed from a compile failure so clients back off and
    retry after ``retry_after_s`` (the server's drain-time estimate from
    its batch-wall EWMA and current queue depth) instead of re-submitting
    immediately or surfacing a hard error."""
    payload = {
        "id": request_id,
        "ok": False,
        "error": "overloaded",
        "overloaded": True,
        "retry_after_s": round(float(retry_after_s), 3),
    }
    if queued is not None:
        payload["queued"] = int(queued)
    return payload


def encode(payload: Dict) -> str:
    return json.dumps(payload, sort_keys=True)
