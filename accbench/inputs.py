"""The benchmark's own inputs: program lists, request sequences, QASM generator.

Everything a run sends is built here from ``--seed`` (and the run length),
never from ``repro.workloads`` or the load harness, so a change to either
cannot silently change what the benchmark measures. ``check_digests``
compares the QASM of every input circuit against the digests pinned in
``expected.json`` and refuses to run on a mismatch.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

#: remote-churn's reads: the warm path's six programs.
WARM_PROGRAMS = ("qft_6", "qft_10", "adder_4", "gray_10", "hwb_6", "4gt4-v0")

#: cold-grape's fixed order: later programs warm-start from earlier pulses.
COLD_SEQUENCE = (
    "qft_4", "qft_5", "qft_6", "qft_7", "qft_8", "adder_4",
    "hwb_6", "4gt4-v0", "gray_10", "ex2", "qft_10", "qft_12",
)

#: remote-churn block: six reads (one per warm program) and two fresh
#: QASM programs, shuffled per block — exactly 25% writes.
CHURN_QASM_PER_BLOCK = 2

#: Seed whose generated QASM programs have committed expected answers.
DEFAULT_SEED = 1

QASM_QUBITS = 4
QASM_GATES = 24
_ONE_QUBIT = ("h", "x", "s", "t", "tdg")
_TWO_QUBIT = ("cx", "cz")

#: remote-churn's request budget per second of ``--seconds``, about its
#: one-client rate at the parent commit. The budget, not a time window,
#: fixes the work, so sample counts do not move with the program's speed;
#: 45 s gives 202 requests, enough for 10 samples beyond p95.
CHURN_REQUESTS_PER_SECOND = 4.5
#: cold-grape sends whole passes over COLD_SEQUENCE; one pass is 15–22 s.
COLD_PASS_SECONDS = 20.0


@dataclass(frozen=True)
class Request:
    """One request line's content; ``program`` keys the answer checks."""

    program: str
    qasm: Optional[str] = None

    def payload(self, request_id: str) -> Dict:
        body = {"id": request_id, "name": self.program}
        if self.qasm is not None:
            body["qasm"] = self.qasm
        return body


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def random_qasm(seed: int, index: int) -> str:
    """A fresh 4-qubit circuit as OpenQASM 2.0, a pure function of
    ``(seed, index)`` (string seeds hash the same in every process)."""
    rng = random.Random(f"accbench-qasm:{seed}:{index}")
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{QASM_QUBITS}];"]
    for _ in range(QASM_GATES):
        roll = rng.random()
        if roll < 0.4:
            a, b = rng.sample(range(QASM_QUBITS), 2)
            lines.append(f"{rng.choice(_TWO_QUBIT)} q[{a}],q[{b}];")
        elif roll < 0.6:
            angle = rng.randrange(1, 16) * math.pi / 8
            lines.append(f"rz({angle!r}) q[{rng.randrange(QASM_QUBITS)}];")
        else:
            lines.append(f"{rng.choice(_ONE_QUBIT)} q[{rng.randrange(QASM_QUBITS)}];")
    return "\n".join(lines) + "\n"


def qasm_label(seed: int, index: int) -> str:
    return f"rq{seed}_{index}"


def _permuted(rng: random.Random, items: Sequence) -> List:
    items = list(items)
    rng.shuffle(items)
    return items


def remote_churn_requests(seed: int, n: int) -> List[Request]:
    """``n`` requests, 3 reads to 1 fresh QASM program, shuffled per block."""
    rng = random.Random(f"accbench-churn:{seed}")
    out: List[Request] = []
    fresh = 0
    while len(out) < n:
        block = [Request(name) for name in WARM_PROGRAMS]
        for _ in range(CHURN_QASM_PER_BLOCK):
            block.append(Request(qasm_label(seed, fresh), random_qasm(seed, fresh)))
            fresh += 1
        out.extend(_permuted(rng, block))
    return out[:n]


def cold_grape_passes(seconds: int) -> List[List[Request]]:
    """Whole passes over COLD_SEQUENCE; each pass starts from an empty store."""
    n_passes = max(1, round(seconds / COLD_PASS_SECONDS))
    return [[Request(name) for name in COLD_SEQUENCE] for _ in range(n_passes)]


def passes_for(workload: str, seed: int, seconds: int) -> List[List[Request]]:
    """The run's request passes; every pass gets a freshly set-up system."""
    if workload == "cold-grape":
        return cold_grape_passes(seconds)
    n = max(8, int(round(seconds * CHURN_REQUESTS_PER_SECOND)))
    return [remote_churn_requests(seed, n)]


# ----------------------------------------------------------------- digests
def named_qasm(name: str) -> str:
    """The QASM of a named program exactly as the server builds it."""
    from repro.circuits.qasm import to_qasm
    from repro.service.protocol import resolve_program

    return to_qasm(resolve_program(name))


def qasm_list_digest(texts: Sequence[str]) -> str:
    return sha256("\n--\n".join(texts))


class InputDigestError(RuntimeError):
    """An input circuit's QASM no longer matches its committed digest."""


def check_digests(passes: Sequence[Sequence[Request]], seed: int, pinned: Dict) -> Dict[str, str]:
    """Digest every input; raise :class:`InputDigestError` on a mismatch.

    Named programs must match their pinned digest on every seed. Generated
    programs are compared on the default seed, whose first
    ``pinned["qasm_default_count"]`` programs are pinned as one list
    digest. Returns the digests recorded for this run.
    """
    recorded: Dict[str, str] = {}
    named = sorted({r.program for p in passes for r in p if r.qasm is None})
    for name in named:
        digest = sha256(named_qasm(name))
        recorded[name] = digest
        want = pinned["named"].get(name)
        if want != digest:
            raise InputDigestError(
                f"input {name!r}: QASM digest {digest[:16]} != pinned "
                f"{str(want)[:16]}; the program's circuit changed, so this "
                f"benchmark no longer measures the same input"
            )
    generated = [r.qasm for p in passes for r in p if r.qasm is not None]
    if generated:
        recorded["generated"] = qasm_list_digest(generated)
    if seed == DEFAULT_SEED:
        count = int(pinned["qasm_default_count"])
        texts = [random_qasm(DEFAULT_SEED, i) for i in range(count)]
        if qasm_list_digest(texts) != pinned["qasm_default"]:
            raise InputDigestError(
                "generated QASM for the default seed no longer matches its "
                "pinned digest"
            )
    return recorded
