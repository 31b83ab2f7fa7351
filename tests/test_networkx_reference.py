"""The runtime's graphs against a networkx reference.

The library keeps its device graph and DAGs as plain index lists and never
imports networkx; these checks rebuild each structure with networkx and
assert exact equality (orders and floats included) on seeded random
circuits and on the small suite, raw and mapped.
"""

import os
import subprocess
import sys
import textwrap

import networkx as nx
import numpy as np
import pytest

from repro.circuits import Circuit, CircuitDAG
from repro.grouping import ALL_POLICIES, GateGroup, group_circuit, prepare_circuit
from repro.latency.schedule import group_dag, overall_latency, per_group_start_times
from repro.mapping.astar import AStarMapper
from repro.mapping.topology import (
    fully_connected,
    line,
    melbourne,
    melbourne16,
    topology_for,
)
from repro.workloads.suite import small_suite

from conftest import random_circuit


def _reference_dag(circuit):
    graph = nx.DiGraph()
    graph.add_nodes_from(range(len(circuit)))
    last_on_qubit = {}
    for index, gate in enumerate(circuit):
        for q in gate.qubits:
            if q in last_on_qubit:
                graph.add_edge(last_on_qubit[q], index)
            last_on_qubit[q] = index
    return graph


def _reference_depths(graph):
    depths = {}
    for node in nx.topological_sort(graph):
        depths[node] = 1 + max(
            (depths[p] for p in graph.predecessors(node)), default=0
        )
    return depths


def _mapped(circuit):
    native = circuit.decompose_to_native()
    return AStarMapper(topology_for(native.n_qubits)).map_circuit(native).circuit


_RANDOM = [
    random_circuit(n, n_gates, f"equiv-{n}-{n_gates}", p2)
    for n, n_gates, p2 in ((1, 12, 0.5), (3, 40, 0.5), (5, 80, 0.7), (8, 120, 0.3))
]
_SUITE = small_suite(8)
_MAPPED = [(f"{c.name}-mapped", _mapped(c)) for c in _SUITE]
CIRCUITS = (
    [(c.name, c) for c in _RANDOM]
    + [(f"{c.name}-raw", c) for c in _SUITE]
    + _MAPPED
)
NATIVE = (
    [(c.name, c) for c in _RANDOM]
    + [(f"{c.name}-raw", c.decompose_to_native()) for c in _SUITE]
    + _MAPPED
)


@pytest.mark.parametrize("name,circuit", CIRCUITS, ids=[n for n, _ in CIRCUITS])
def test_circuit_dag_matches_networkx(name, circuit):
    dag = CircuitDAG(circuit)
    ref = _reference_dag(circuit)
    n = len(circuit)
    assert [dag.predecessors(v) for v in range(n)] == [
        list(ref.predecessors(v)) for v in range(n)
    ]
    assert dag.edges() == list(ref.edges)
    depths = _reference_depths(ref)
    assert [dag.depth_of(v) for v in range(n)] == [depths[v] for v in range(n)]
    layers = [[] for _ in range(max(depths.values(), default=0))]
    for v in range(n):
        layers[depths[v] - 1].append(v)
    assert dag.layers() == layers
    assert dag.front_layer() == [v for v in ref.nodes if ref.in_degree(v) == 0]
    assert list(dag.topological_order()) == list(
        nx.lexicographical_topological_sort(ref)
    )


TOPOLOGIES = [melbourne(), melbourne16()] + [
    make(n) for make in (line, fully_connected) for n in (1, 2, 5, 9)
]


@pytest.mark.parametrize("topo", TOPOLOGIES, ids=[t.name for t in TOPOLOGIES])
def test_topology_tables_match_networkx_bfs(topo):
    graph = nx.Graph()
    graph.add_nodes_from(range(topo.n_qubits))
    graph.add_edges_from(topo.edges)
    assert [list(a) for a in topo.adjacency] == [
        sorted(graph.neighbors(q)) for q in range(topo.n_qubits)
    ]
    assert dict(enumerate(topo.dist)) == dict(
        nx.all_pairs_shortest_path_length(graph)
    )
    for a, b in topo.edges:
        assert topo.allowed_direction(a, b) and topo.are_adjacent(b, a)
        assert topo.allowed_direction(b, a) == ((b, a) in topo.edges)


def _reference_schedule(circuit, groups, latency_of):
    gid_of = {v: gid for gid, g in enumerate(groups) for v in g.node_indices}
    graph = nx.DiGraph()
    graph.add_nodes_from(range(len(groups)))
    for u, v in _reference_dag(circuit).edges:
        if gid_of[u] != gid_of[v]:
            graph.add_edge(gid_of[u], gid_of[v])
    finish = {}
    starts = [0.0] * len(groups)
    for gid in nx.topological_sort(graph):
        starts[gid] = max((finish[p] for p in graph.predecessors(gid)), default=0.0)
        finish[gid] = starts[gid] + latency_of(groups[gid])
    return max(finish.values(), default=0.0), starts


@pytest.mark.parametrize("policy", ALL_POLICIES, ids=[p.label for p in ALL_POLICIES])
def test_group_schedule_matches_networkx(policy):
    for index, (name, circuit) in enumerate(NATIVE):
        prepared = prepare_circuit(circuit, policy)
        groups = group_circuit(circuit, policy)
        rng = np.random.default_rng(1000 + index)
        latencies = rng.uniform(0.5, 250.0, len(groups))
        table = {id(g): float(x) for g, x in zip(groups, latencies)}
        latency_of = lambda g: table[id(g)]  # noqa: E731
        total, starts = _reference_schedule(prepared, groups, latency_of)
        assert overall_latency(prepared, groups, latency_of) == total, name
        assert per_group_start_times(prepared, groups, latency_of) == starts, name


def test_cyclic_grouping_rejected():
    c = Circuit(1).add("h", 0).add("h", 0).add("h", 0)
    groups = [
        GateGroup(gates=[c[0], c[2]], node_indices=(0, 2)),
        GateGroup(gates=[c[1]], node_indices=(1,)),
    ]
    for call in (
        lambda: group_dag(c, groups),
        lambda: overall_latency(c, groups, lambda g: 1.0),
        lambda: per_group_start_times(c, groups, lambda g: 1.0),
    ):
        with pytest.raises(ValueError, match="cyclic"):
            call()


def test_runtime_runs_without_networkx(tmp_path):
    """``repro`` and ``repro.service`` import and compile with networkx
    unimportable: no runtime module depends on it."""
    import repro

    script = textwrap.dedent(
        """
        import sys
        sys.modules["networkx"] = None
        import repro, repro.service
        from repro import AccQOC
        from repro.service import CompileService, PulseStore
        from repro.utils.config import PipelineConfig
        from repro.workloads import qft
        assert AccQOC().compile(qft(5)).overall_latency > 0
        service = CompileService(
            PulseStore(sys.argv[1]), PipelineConfig(policy_name="map2b4l"),
            backend="serial", n_workers=1,
        )
        batch = service.submit_batch([qft(4)])
        assert batch.requests[0].overall_latency > 0
        """
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "store")],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
