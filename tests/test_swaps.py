"""SWAP handling passes."""

import numpy as np
import pytest

from repro.circuits import Circuit
from repro.mapping.swaps import count_swaps, decompose_swaps, fix_directions
from repro.mapping.topology import line
from repro.utils.linalg import matrices_close


def test_decompose_swaps_unitary_preserved():
    c = Circuit(3).add("h", 0).add("swap", 0, 2).add("cx", 1, 2)
    out = decompose_swaps(c)
    assert count_swaps(out) == 0
    assert matrices_close(c.unitary(), out.unitary(), atol=1e-8)


def test_decompose_swaps_three_cnots():
    c = Circuit(2).add("swap", 0, 1)
    out = decompose_swaps(c)
    assert [g.name for g in out] == ["cx", "cx", "cx"]


def test_decompose_swaps_with_topology_fixes_directions():
    topo = line(2)  # only (0,1) allowed
    c = Circuit(2).add("swap", 0, 1)
    out = decompose_swaps(c, topo)
    for g in out:
        if g.name == "cx":
            assert g.qubits == (0, 1)
    assert matrices_close(c.unitary(), out.unitary(), atol=1e-8)


def test_fix_directions_preserves_unitary():
    topo = line(2)
    c = Circuit(2).add("cx", 1, 0)  # against the arrow
    out = fix_directions(c, topo)
    assert matrices_close(c.unitary(), out.unitary(), atol=1e-8)
    assert sum(1 for g in out if g.name == "cx") == 1
    assert out[1].qubits == (0, 1) if out[1].name == "cx" else True


def test_fix_directions_leaves_aligned_cx():
    topo = line(2)
    c = Circuit(2).add("cx", 0, 1)
    out = fix_directions(c, topo)
    assert len(out) == 1


def test_fix_directions_rejects_uncoupled():
    topo = line(3)
    c = Circuit(3).add("cx", 0, 2)
    with pytest.raises(ValueError):
        fix_directions(c, topo)


def test_count_swaps():
    c = Circuit(3).add("swap", 0, 1).add("h", 2).add("swap", 1, 2)
    assert count_swaps(c) == 2


def test_reversed_cnot_gates_are_interned():
    """Every reversed CNOT on one device pair reuses the same five gates,
    whichever circuit (and equal Topology instance) asks."""
    a = fix_directions(Circuit(2).add("cx", 1, 0), line(2))
    b = decompose_swaps(Circuit(2).add("swap", 0, 1), line(2))
    assert [g.name for g in a] == ["u2", "u2", "cx", "u2", "u2"]
    assert all(x is y for x, y in zip(a, list(b)[1:6]))
