"""Circuit dependency DAG.

The paper's Algorithms 1-3 all iterate a circuit "following its topological
order" and need per-node depth labels; this module provides that structure.
Nodes are gate indices into the source circuit; an edge u -> v means gate v
consumes a qubit last written by gate u.

Every edge runs from a lower gate index to a higher one, so gate order is
itself a topological order: predecessor lists and depth labels are both
filled in the one pass that reads the gates, and no graph library is needed.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.circuits.circuit import Circuit
from repro.circuits.gates import Gate


class CircuitDAG:
    """Dependency DAG of a circuit, with depth labels and ASAP layers."""

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self._preds: List[List[int]] = []
        self._depths: List[int] = []
        last_on_qubit: Dict[int, int] = {}
        for index, g in enumerate(circuit):
            preds: List[int] = []
            for q in g.qubits:
                p = last_on_qubit.get(q)
                if p is not None and p not in preds:
                    preds.append(p)
                last_on_qubit[q] = index
            self._preds.append(preds)
            self._depths.append(1 + max((self._depths[p] for p in preds), default=0))

    # ----------------------------------------------------------------- access
    def gate(self, node: int) -> Gate:
        return self.circuit[node]

    def topological_order(self) -> range:
        """Gate order, which is a topological order (see module docstring)."""
        return range(len(self._preds))

    def predecessors(self, node: int) -> List[int]:
        """In first appearance over the gate's qubits, without duplicates."""
        return list(self._preds[node])

    def edges(self) -> List[Tuple[int, int]]:
        """All edges (u, v), ordered by source, then by target."""
        return sorted((u, v) for v, preds in enumerate(self._preds) for u in preds)

    def depth_of(self, node: int) -> int:
        """Global ASAP depth label, 1-based (Algorithm 2 line 3)."""
        return self._depths[node]

    @property
    def depth(self) -> int:
        return max(self._depths, default=0)

    def layers(self) -> List[List[int]]:
        """ASAP layers: layer i holds all nodes with depth i+1, ascending.

        This is the layering the crosstalk metric and the layered mapper use.
        """
        out: List[List[int]] = [[] for _ in range(self.depth)]
        for node, d in enumerate(self._depths):
            out[d - 1].append(node)
        return out

    def layers_as_gates(self) -> List[List[Gate]]:
        return [[self.gate(n) for n in layer] for layer in self.layers()]

    def front_layer(self) -> List[int]:
        return [n for n, preds in enumerate(self._preds) if not preds]


def critical_path_length(circuit: Circuit, weights: Dict[int, float]) -> float:
    """Longest path through the DAG with per-node weights (gate index keyed).

    This is the generic form of the paper's Algorithm 3 dynamic program.
    """
    dag = CircuitDAG(circuit)
    best: Dict[int, float] = {}
    for node in dag.topological_order():
        start = max((best[p] for p in dag.predecessors(node)), default=0.0)
        best[node] = start + weights.get(node, 0.0)
    return max(best.values(), default=0.0)
