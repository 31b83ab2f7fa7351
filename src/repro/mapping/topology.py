"""Hardware coupling graphs.

The paper maps everything onto the 14-qubit IBM Q Melbourne chip (Fig 10),
whose two-qubit gates are directed (CNOT allowed one way per edge). We encode
the published coupling map, plus a 16-qubit extension of the same ladder shape
for the one benchmark (qft_16) that needs more than 14 qubits.

A :class:`Topology` is the one device type: it builds its lookup tables
(adjacency, all-pairs hop distances, directed-edge set) once per instance,
on first use, so the mapper's inner loops only index into them. Neighbour
lists are in ascending qubit order, so a walk that takes the first closest
neighbour breaks ties toward the lowest index.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Tuple


@dataclass(frozen=True)
class Topology:
    """Directed coupling graph of a device.

    ``edges`` are (control, target) pairs where a native CNOT is allowed.
    Adjacency and distances are taken on the undirected skeleton; executing a
    CNOT against the arrow costs four extra Hadamards (handled by the mapper).
    """

    name: str
    n_qubits: int
    edges: Tuple[Tuple[int, int], ...]

    def __post_init__(self) -> None:
        for a, b in self.edges:
            if not (0 <= a < self.n_qubits and 0 <= b < self.n_qubits):
                raise ValueError(f"edge ({a},{b}) out of range")
            if a == b:
                raise ValueError(f"self-loop on qubit {a}")

    @cached_property
    def directed_edges(self) -> FrozenSet[Tuple[int, int]]:
        return frozenset(self.edges)

    @cached_property
    def adjacency(self) -> Tuple[Tuple[int, ...], ...]:
        """``adjacency[q]``: the neighbours of ``q``, ascending."""
        neighbours = [set() for _ in range(self.n_qubits)]
        for a, b in self.edges:
            neighbours[a].add(b)
            neighbours[b].add(a)
        return tuple(tuple(sorted(n)) for n in neighbours)

    @cached_property
    def dist(self) -> Tuple[Dict[int, int], ...]:
        """``dist[a][b]``: hop distance, by one BFS per source qubit.

        Qubits unreachable from ``a`` are absent from ``dist[a]``.
        """
        table = []
        for source in range(self.n_qubits):
            hops = {source: 0}
            frontier = [source]
            for q in frontier:  # grows while iterated: BFS order
                for r in self.adjacency[q]:
                    if r not in hops:
                        hops[r] = hops[q] + 1
                        frontier.append(r)
            table.append(hops)
        return tuple(table)

    def are_adjacent(self, a: int, b: int) -> bool:
        return b in self.adjacency[a]

    def allowed_direction(self, control: int, target: int) -> bool:
        """True when a native CNOT control->target exists."""
        return (control, target) in self.directed_edges

    def distance(self, a: int, b: int) -> int:
        return self.dist[a][b]


# Published IBM Q Melbourne coupling map (control, target), cf. paper Fig 10.
MELBOURNE_EDGES: Tuple[Tuple[int, int], ...] = (
    (1, 0),
    (1, 2),
    (2, 3),
    (4, 3),
    (4, 10),
    (5, 4),
    (5, 6),
    (5, 9),
    (6, 8),
    (7, 8),
    (9, 8),
    (9, 10),
    (11, 3),
    (11, 10),
    (11, 12),
    (12, 2),
    (13, 1),
    (13, 12),
)


def melbourne() -> Topology:
    """The 14-qubit IBM Q Melbourne device used throughout the paper."""
    return Topology("melbourne", 14, MELBOURNE_EDGES)


def melbourne16() -> Topology:
    """A 16-qubit ladder extending Melbourne's shape, for qft_16.

    Two extra qubits (14, 15) are appended at the right end of the ladder,
    keeping the alternating edge directions of the original chip.
    """
    extra = ((6, 14), (15, 14), (15, 7))
    return Topology("melbourne16", 16, MELBOURNE_EDGES + extra)


def line(n: int) -> Topology:
    """A 1-D chain, handy for tests (alternating directions)."""
    edges = tuple(
        (i, i + 1) if i % 2 == 0 else (i + 1, i) for i in range(n - 1)
    )
    return Topology(f"line{n}", n, edges)


def fully_connected(n: int) -> Topology:
    """All-to-all device (mapping becomes a no-op); for unit tests."""
    edges = tuple((a, b) for a in range(n) for b in range(n) if a < b)
    return Topology(f"full{n}", n, edges)


def get_topology(name: str) -> Topology:
    registry = {
        "melbourne": melbourne,
        "melbourne16": melbourne16,
    }
    if name in registry:
        return registry[name]()
    raise KeyError(f"unknown topology {name!r}")


def topology_for(n_logical_qubits: int) -> Topology:
    """Smallest registered device fitting a program (paper default Melbourne)."""
    if n_logical_qubits <= 14:
        return melbourne()
    if n_logical_qubits <= 16:
        return melbourne16()
    raise ValueError(
        f"no registered device with >= {n_logical_qubits} qubits"
    )
