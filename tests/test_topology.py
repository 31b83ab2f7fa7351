"""Device topologies and cached lookups."""

import pytest

from repro.mapping.topology import (
    Topology,
    fully_connected,
    get_topology,
    line,
    melbourne,
    melbourne16,
    topology_for,
)


def test_melbourne_shape():
    topo = melbourne()
    assert topo.n_qubits == 14
    assert len(topo.edges) == 18  # published coupling map


def test_melbourne_direction():
    topo = melbourne()
    assert topo.allowed_direction(1, 0)
    assert not topo.allowed_direction(0, 1)
    assert topo.are_adjacent(0, 1)
    assert topo.are_adjacent(1, 0)


def test_melbourne_connected():
    import networkx as nx

    for topo in (melbourne(), melbourne16()):
        graph = nx.Graph(topo.edges)
        graph.add_nodes_from(range(topo.n_qubits))
        assert nx.is_connected(graph)


def test_distances_symmetric():
    topo = melbourne()
    for a in range(14):
        for b in range(14):
            assert topo.distance(a, b) == topo.distance(b, a)
    assert topo.distance(0, 0) == 0
    assert topo.distance(0, 7) >= 5  # opposite corners of the ladder


def test_line_topology():
    topo = line(4)
    assert topo.are_adjacent(0, 1)
    assert not topo.are_adjacent(0, 2)
    assert topo.distance(0, 3) == 3


def test_fully_connected():
    topo = fully_connected(5)
    assert all(
        topo.distance(a, b) == 1 for a in range(5) for b in range(5) if a != b
    )


def test_validation():
    with pytest.raises(ValueError):
        Topology("bad", 2, ((0, 5),))
    with pytest.raises(ValueError):
        Topology("bad", 2, ((1, 1),))


def test_registry():
    assert get_topology("melbourne").n_qubits == 14
    assert get_topology("melbourne16").n_qubits == 16
    with pytest.raises(KeyError):
        get_topology("nope")


def test_topology_for_sizes():
    assert topology_for(10).name == "melbourne"
    assert topology_for(14).name == "melbourne"
    assert topology_for(16).name == "melbourne16"
    with pytest.raises(ValueError):
        topology_for(17)


def test_melbourne16_extends_melbourne():
    small = set(melbourne().edges)
    big = set(melbourne16().edges)
    assert small <= big
