"""Algorithms 1 & 2, GateGroup, policies: bounds, exhaustiveness, acyclicity."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import Circuit, CircuitDAG
from repro.grouping import (
    ALL_POLICIES,
    GateGroup,
    bit_partition,
    group_circuit,
    layer_partition,
    make_policy,
)
from repro.utils.linalg import matrices_close


def _group_graph(circuit, node_sets):
    gid_of = {}
    for gid, nodes in enumerate(node_sets):
        for n in nodes:
            gid_of[n] = gid
    dag = CircuitDAG(circuit)
    graph = nx.DiGraph()
    graph.add_nodes_from(range(len(node_sets)))
    for u, v in dag.edges():
        if gid_of[u] != gid_of[v]:
            graph.add_edge(gid_of[u], gid_of[v])
    return graph


def _random(n, n_gates, seed, p2=0.5):
    rng = np.random.default_rng(seed)
    c = Circuit(n)
    for _ in range(n_gates):
        if n >= 2 and rng.random() < p2:
            a, b = rng.choice(n, size=2, replace=False)
            c.add("cx", int(a), int(b))
        else:
            c.add("u2", int(rng.integers(n)), params=(0.0, 3.14))
    return c


# ------------------------------------------------------------ bit partition
def test_bit_partition_exhaustive_and_disjoint():
    c = _random(6, 60, 1)
    subs = bit_partition(c, 2)
    nodes = sorted(n for s in subs for n in s)
    assert nodes == list(range(len(c)))


def test_bit_partition_respects_qubit_bound():
    c = _random(6, 60, 2)
    for bc in (2, 3):
        for sub in bit_partition(c, bc):
            qubits = {q for i in sub for q in c[i].qubits}
            assert len(qubits) <= bc


def test_bit_partition_bc1_groups_single_qubit_runs():
    c = Circuit(2).add("h", 0).add("h", 0).add("h", 1)
    subs = bit_partition(c, 1)
    assert sorted(map(sorted, subs)) == [[0, 1], [2]]


def test_bit_partition_rejects_oversized_gate():
    c = Circuit(3).add("ccx", 0, 1, 2)
    with pytest.raises(ValueError):
        bit_partition(c, 2)


def test_bit_partition_rejects_bad_constraint():
    with pytest.raises(ValueError):
        bit_partition(Circuit(1).add("h", 0), 0)


def test_bit_partition_merges_across_predecessors():
    # h0 and h1 end in the same group as the cx joining them.
    c = Circuit(2).add("h", 0).add("h", 1).add("cx", 0, 1)
    subs = bit_partition(c, 2)
    assert sorted(map(sorted, subs)) == [[0, 1, 2]]


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_bit_partition_group_graph_acyclic(seed):
    """Property: the group-level dependency graph is a DAG (Algorithm 3's
    precondition, guarded beyond the paper's pseudocode)."""
    rng = np.random.default_rng(seed)
    c = _random(int(rng.integers(3, 9)), int(rng.integers(10, 80)), seed + 1)
    subs = bit_partition(c, 2)
    assert nx.is_directed_acyclic_graph(_group_graph(c, subs))


# ----------------------------------------------------------- layer partition
def test_layer_partition_respects_layer_bound():
    c = _random(4, 50, 3)
    dag = CircuitDAG(c)
    subs = bit_partition(c, 2)
    for lc in (1, 2, 4):
        for seg in layer_partition(c, subs, lc):
            depths = [dag.depth_of(n) for n in seg]
            assert max(depths) - min(depths) < lc or len(seg) == 1
            # All nodes fall in one lc-window from the subgroup's start.


def test_layer_partition_preserves_membership():
    c = _random(4, 50, 4)
    subs = bit_partition(c, 2)
    segs = layer_partition(c, subs, 3)
    assert sorted(n for s in segs for n in s) == list(range(len(c)))


def test_layer_partition_lc1_splits_each_depth():
    c = Circuit(1).add("h", 0).add("h", 0).add("h", 0)
    segs = layer_partition(c, [[0, 1, 2]], 1)
    assert sorted(map(sorted, segs)) == [[0], [1], [2]]


def test_layer_partition_rejects_bad_constraint():
    with pytest.raises(ValueError):
        layer_partition(Circuit(1).add("h", 0), [[0]], 0)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_segment_graph_acyclic(seed):
    rng = np.random.default_rng(seed)
    c = _random(int(rng.integers(3, 8)), int(rng.integers(10, 60)), seed + 2)
    subs = bit_partition(c, 2)
    segs = layer_partition(c, subs, int(rng.integers(1, 5)))
    assert nx.is_directed_acyclic_graph(_group_graph(c, segs))


# ------------------------------------------------------------------ GateGroup
def test_gate_group_matrix_matches_subcircuit():
    c = Circuit(2).add("h", 0).add("cx", 0, 1).add("t", 1)
    group = GateGroup(gates=c.gates)
    assert matrices_close(group.matrix(), c.unitary(), atol=1e-8)


def test_gate_group_local_wire_order():
    # Gates on circuit qubits (3, 5): local wire 0 = qubit 3.
    from repro.circuits.gates import Gate

    group = GateGroup(gates=[Gate("cx", (3, 5))])
    assert group.qubits == (3, 5)
    reference = Circuit(2).add("cx", 0, 1).unitary()
    assert matrices_close(group.matrix(), reference)


def test_gate_group_rejects_empty():
    with pytest.raises(ValueError):
        GateGroup(gates=[])


def test_gate_group_key_is_canonical():
    from repro.circuits.gates import Gate

    a = GateGroup(gates=[Gate("cx", (0, 1))])
    b = GateGroup(gates=[Gate("cx", (1, 0))])
    assert a.key() == b.key()


# ------------------------------------------------------------------- policies
def test_make_policy_parses_labels():
    p = make_policy("map2b4l")
    assert (p.swap_handling, p.bit_constraint, p.layer_constraint) == ("map", 2, 4)
    p = make_policy("swap2b2l")
    assert (p.swap_handling, p.bit_constraint, p.layer_constraint) == ("swap", 2, 2)


def test_make_policy_rejects_garbage():
    with pytest.raises(ValueError):
        make_policy("foo2b4l")
    with pytest.raises(ValueError):
        make_policy("map2x4l")


def test_all_policies_table1():
    labels = {p.label for p in ALL_POLICIES}
    assert labels == {
        "map2b2l", "map2b3l", "map2b4l", "swap2b2l", "swap2b3l", "swap2b4l",
    }


def test_group_circuit_covers_all_gates():
    c = _random(5, 40, 6)
    for policy in ALL_POLICIES:
        groups = group_circuit(c, policy)
        covered = sorted(n for g in groups for n in g.node_indices)
        from repro.grouping.policies import prepare_circuit

        prepared = prepare_circuit(c, policy)
        assert covered == list(range(len(prepared)))


def test_map_policy_decomposes_swaps():
    c = Circuit(3).add("swap", 0, 1).add("cx", 1, 2)
    groups = group_circuit(c, make_policy("map2b4l"))
    names = [g2.name for g in groups for g2 in g.gates]
    assert "swap" not in names


def test_swap_policy_keeps_swaps():
    c = Circuit(3).add("swap", 0, 1).add("cx", 1, 2)
    groups = group_circuit(c, make_policy("swap2b4l"))
    names = [g2.name for g in groups for g2 in g.gates]
    assert "swap" in names
