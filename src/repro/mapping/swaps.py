"""Post-mapping SWAP handling: the paper's "map" vs "swap" variants.

Section IV-B: some machines execute SWAP natively ("swap" policies keep the
swap gate and give it its own pulse); on others a SWAP is three CNOTs ("map"
policies decompose it before grouping, which lets the CNOTs merge or cancel
with neighbouring gates — the effect Sec IV-F/VI-E discusses).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional, Tuple

from repro.circuits.circuit import Circuit
from repro.circuits.gates import Gate
from repro.mapping.topology import Topology


@lru_cache(maxsize=None)
def _cx_with_direction(
    control: int, target: int, topo: Optional[Topology]
) -> Tuple[Gate, ...]:
    """A CNOT on physical wires, reversed via four Hadamards if needed.

    Interned per (control, target, device), at most one entry per coupled
    pair: gates are immutable, so every reversed CNOT of every circuit
    shares one set of five gate objects.
    """
    if topo is None or topo.allowed_direction(control, target):
        return (Gate("cx", (control, target)),)
    if not topo.allowed_direction(target, control):
        raise ValueError(f"qubits {control},{target} are not coupled")
    h = lambda w: Gate("u2", (w,), (0.0, math.pi))  # noqa: E731
    return (h(control), h(target), Gate("cx", (target, control)), h(control), h(target))


def decompose_swaps(circuit: Circuit, topology: Optional[Topology] = None) -> Circuit:
    """Rewrite every swap gate into three CNOTs, leaving the rest untouched.

    When ``topology`` is given, each CNOT is emitted along the allowed
    direction (wrapping with Hadamards otherwise), so the result is directly
    executable on the directed device.
    """
    out = Circuit(circuit.n_qubits, name=circuit.name)
    for g in circuit:
        if g.name == "swap":
            a, b = g.qubits
            out.extend(_cx_with_direction(a, b, topology))
            out.extend(_cx_with_direction(b, a, topology))
            out.extend(_cx_with_direction(a, b, topology))
        else:
            out.append(g)
    return out


def count_swaps(circuit: Circuit) -> int:
    return sum(1 for g in circuit if g.name == "swap")


def fix_directions(circuit: Circuit, topology: Topology) -> Circuit:
    """Make every CNOT follow an allowed device direction (gate-based view).

    CNOTs emitted against the arrow are wrapped in four Hadamards. QOC
    group pulses never need this — direction is a property of the *native
    gate* implementation, not of the unitary — so this pass is only applied
    to the circuit whose per-gate latency forms the gate-based baseline.
    """
    out = Circuit(circuit.n_qubits, name=circuit.name)
    for g in circuit:
        if g.name == "cx" and not topology.allowed_direction(*g.qubits):
            out.extend(_cx_with_direction(g.qubits[0], g.qubits[1], topology))
        else:
            out.append(g)
    return out
