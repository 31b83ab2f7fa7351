"""Crosstalk metric and the paper's heuristic extension.

The paper quantifies crosstalk as "the sum of occurrences of close CNOT pairs
in each layer" (Sec IV-A / VI-C, metric adopted from Murali et al.). Two
parallel CNOTs are *close* when some qubit of one sits within one hop of some
qubit of the other on the device graph — leaked control signal couples most
strongly to neighbouring qubits.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.circuits.circuit import Circuit
from repro.circuits.dag import CircuitDAG
from repro.mapping.topology import Topology

CLOSE_DISTANCE = 1  # hops; pairs at distance <= this interact


def pairs_too_close(
    gate_a_qubits: Sequence[int],
    gate_b_qubits: Sequence[int],
    topo: Topology,
    close_distance: int = CLOSE_DISTANCE,
) -> bool:
    """Indicator I(gm, gn) of the extended heuristic (Sec IV-A)."""
    return min(
        topo.distance(a, b) for a in gate_a_qubits for b in gate_b_qubits
    ) <= close_distance


def layer_crosstalk(
    two_qubit_gates: Sequence[Sequence[int]],
    topo: Topology,
    close_distance: int = CLOSE_DISTANCE,
) -> int:
    """Number of close CNOT pairs within one layer (physical qubit tuples)."""
    count = 0
    for i in range(len(two_qubit_gates)):
        for j in range(i + 1, len(two_qubit_gates)):
            if pairs_too_close(
                two_qubit_gates[i], two_qubit_gates[j], topo, close_distance
            ):
                count += 1
    return count


def crosstalk_metric(
    circuit: Circuit,
    topology: Topology,
    close_distance: int = CLOSE_DISTANCE,
) -> int:
    """Total crosstalk of a *physical* circuit: close CNOT pairs summed over layers.

    The circuit must already be expressed on physical qubits (post-mapping).
    """
    return sum(crosstalk_by_layer(circuit, topology, close_distance))


def crosstalk_by_layer(
    circuit: Circuit,
    topology: Topology,
    close_distance: int = CLOSE_DISTANCE,
) -> List[int]:
    """Per-layer close-pair counts; useful for diagnostics and tests."""
    return [
        layer_crosstalk(
            [g.qubits for g in layer if g.arity == 2], topology, close_distance
        )
        for layer in CircuitDAG(circuit).layers_as_gates()
    ]
