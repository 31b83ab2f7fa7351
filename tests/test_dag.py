"""Circuit dependency DAG: edges, depths, layers."""

import networkx as nx
import pytest

from repro.circuits import Circuit, CircuitDAG, critical_path_length


def test_edges_follow_qubit_dependencies(bell_circuit):
    dag = CircuitDAG(bell_circuit)
    assert dag.edges() == [(0, 1)]


def test_no_edge_between_independent_gates():
    c = Circuit(4).add("h", 0).add("h", 1).add("cx", 2, 3)
    dag = CircuitDAG(c)
    assert len(dag.edges()) == 0


def test_depth_labels():
    c = Circuit(2).add("h", 0).add("h", 0).add("cx", 0, 1).add("h", 1)
    dag = CircuitDAG(c)
    assert [dag.depth_of(i) for i in range(4)] == [1, 2, 3, 4]
    assert dag.depth == 4


def test_layers_partition_all_nodes():
    c = Circuit(3).add("h", 0).add("h", 1).add("cx", 0, 1).add("h", 2)
    dag = CircuitDAG(c)
    layers = dag.layers()
    flattened = sorted(n for layer in layers for n in layer)
    assert flattened == list(range(4))
    assert layers[0] == [0, 1, 3]  # h0, h1, h2 all at depth 1
    assert layers[1] == [2]


def test_front_layer():
    c = Circuit(2).add("h", 0).add("cx", 0, 1).add("h", 1)
    assert CircuitDAG(c).front_layer() == [0]


def test_topological_order_respects_edges(random_circuit_factory):
    c = random_circuit_factory(5, 40, "dagtopo")
    dag = CircuitDAG(c)
    position = {n: i for i, n in enumerate(dag.topological_order())}
    for u, v in dag.edges():
        assert position[u] < position[v]


def test_empty_circuit():
    dag = CircuitDAG(Circuit(2))
    assert dag.depth == 0
    assert dag.layers() == []


def test_critical_path_length_simple():
    c = Circuit(2).add("h", 0).add("h", 1).add("cx", 0, 1)
    weights = {0: 5.0, 1: 7.0, 2: 10.0}
    # cx starts after the slower of h0/h1.
    assert critical_path_length(c, weights) == pytest.approx(17.0)


def test_critical_path_parallel_tracks():
    c = Circuit(4).add("h", 0).add("h", 1).add("h", 2).add("h", 3)
    weights = {i: float(i + 1) for i in range(4)}
    assert critical_path_length(c, weights) == pytest.approx(4.0)


def test_critical_path_missing_weight_defaults_zero():
    c = Circuit(1).add("h", 0).add("h", 0)
    assert critical_path_length(c, {0: 3.0}) == pytest.approx(3.0)
