"""Crosstalk metric: close CNOT pairs per layer."""

import pytest

from repro.circuits import Circuit
from repro.mapping.crosstalk import (
    crosstalk_by_layer,
    crosstalk_metric,
    layer_crosstalk,
    pairs_too_close,
)
from repro.mapping.topology import line, melbourne


@pytest.fixture
def mel():
    return melbourne()


def test_adjacent_pairs_are_close(mel):
    # Gates on (0,1) and (2,3): distance 1-2 between (1) and (2) is 1.
    assert pairs_too_close((0, 1), (2, 3), mel)


def test_distant_pairs_are_not_close(mel):
    assert not pairs_too_close((0, 1), (7, 8), mel)


def test_layer_crosstalk_counts_pairs(mel):
    gates = [(0, 1), (2, 3), (9, 10)]
    # (0,1)-(2,3) close; (2,3)-(9,10): distance(3,10) = 2? 3-11-10 => 2, but
    # 3-4 & 4-10 => distance(3,10)=2; check metric counts only <=1.
    count = layer_crosstalk(gates, mel)
    assert count >= 1
    assert count == sum(
        1
        for i in range(3)
        for j in range(i + 1, 3)
        if pairs_too_close(gates[i], gates[j], mel)
    )


def test_crosstalk_metric_serial_circuit_is_zero(mel):
    # Gates that share qubits can never run in parallel: no close pairs.
    c = Circuit(14).add("cx", 0, 1).add("cx", 1, 2).add("cx", 2, 3)
    assert crosstalk_metric(c, melbourne()) == 0


def test_crosstalk_metric_parallel_close_gates():
    c = Circuit(14).add("cx", 0, 1).add("cx", 2, 3)
    assert crosstalk_metric(c, melbourne()) == 1


def test_crosstalk_by_layer():
    c = Circuit(14).add("cx", 0, 1).add("cx", 2, 3).add("cx", 0, 1).add("cx", 2, 3)
    per_layer = crosstalk_by_layer(c, melbourne())
    assert per_layer == [1, 1]


def test_single_qubit_gates_do_not_contribute():
    c = Circuit(14).add("h", 0).add("h", 2).add("cx", 4, 5)
    assert crosstalk_metric(c, melbourne()) == 0


def test_line_topology_distance_threshold():
    topo = line(8)
    assert pairs_too_close((0, 1), (2, 3), topo)
    assert not pairs_too_close((0, 1), (3, 4), topo)
    assert not pairs_too_close((0, 1), (4, 5), topo, close_distance=1)
    assert pairs_too_close((0, 1), (4, 5), topo, close_distance=3)
