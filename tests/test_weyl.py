"""Weyl-chamber coordinates and rotation angles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import Circuit
from repro.core.pipeline import AccQOC
from repro.qoc import weyl
from repro.qoc.weyl import interaction_content, rotation_angle, weyl_coordinates
from repro.service.protocol import resolve_program
from repro.utils.config import PipelineConfig
from repro.utils.linalg import random_unitary
from repro.utils.rng import derive_rng

PI4 = np.pi / 4


def _coords(circ):
    return np.array(weyl_coordinates(circ.unitary()))


def test_identity():
    assert np.allclose(weyl_coordinates(np.eye(4)), (0, 0, 0), atol=1e-6)


def test_cnot_class():
    assert np.allclose(_coords(Circuit(2).add("cx", 0, 1)), (PI4, 0, 0), atol=1e-6)


def test_cz_same_class_as_cnot():
    assert np.allclose(_coords(Circuit(2).add("cz", 0, 1)), (PI4, 0, 0), atol=1e-6)


def test_swap_class():
    assert np.allclose(
        _coords(Circuit(2).add("swap", 0, 1)), (PI4, PI4, PI4), atol=1e-6
    )


def test_iswap_class():
    iswap = np.array(
        [[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    assert np.allclose(weyl_coordinates(iswap), (PI4, PI4, 0), atol=1e-6)


def test_sqrt_swap_class():
    from scipy.linalg import sqrtm

    u = sqrtm(Circuit(2).add("swap", 0, 1).unitary())
    assert np.allclose(weyl_coordinates(u), (PI4 / 2,) * 3, atol=1e-6)


def test_controlled_phase_scaling():
    for lam in (0.3, 1.0, 2.0):
        coords = _coords(Circuit(2).add("cu1", 0, 1, params=(lam,)))
        assert coords[0] == pytest.approx(lam / 4, abs=1e-6)
        assert coords[1] == pytest.approx(0.0, abs=1e-6)


def test_local_gates_have_zero_content():
    c = Circuit(2).add("h", 0).add("rz", 1, params=(0.7,)).add("x", 1)
    assert interaction_content(c.unitary()) == pytest.approx(0.0, abs=1e-6)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_invariance_under_local_rotations(seed):
    """Property: Weyl coordinates are invariant under 1-qubit pre/post gates."""
    rng = np.random.default_rng(seed)
    base = Circuit(2).add("cx", 0, 1).unitary()
    k1 = np.kron(random_unitary(2, rng), random_unitary(2, rng))
    k2 = np.kron(random_unitary(2, rng), random_unitary(2, rng))
    assert np.allclose(
        weyl_coordinates(k1 @ base @ k2), (PI4, 0, 0), atol=1e-5
    )


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=100_000))
def test_coordinates_in_folded_chamber(seed):
    rng = np.random.default_rng(seed)
    c = weyl_coordinates(random_unitary(4, rng))
    assert PI4 + 1e-9 >= c[0] >= c[1] >= c[2] >= -1e-9


def _loop_weyl_coordinates(u, atol=1e-7):
    """The sequential branch scan ``weyl_coordinates`` replaced: one Python
    iteration per (permutation, shift) candidate, first strict improvement
    by ``atol`` wins. The oracle for exact equality."""
    pi = np.pi

    def wrap(x, period):
        return (x + period / 2.0) % period - period / 2.0

    def fold(c):
        out = []
        for value in c:
            v = abs(wrap(value, pi))
            if v > pi / 4:
                v = pi / 2 - v
            out.append(v)
        out.sort(reverse=True)
        return (out[0], out[1], out[2])

    su = weyl._to_su4(np.asarray(u, dtype=complex))
    m = weyl._MAGIC.conj().T @ su @ weyl._MAGIC
    half = np.angle(np.linalg.eigvals(m.T @ m)) / 2.0
    best, best_sum, found = None, 3 * pi / 4 + 1.0, False
    for perm in itertools.permutations(range(4)):
        lam_base = half[list(perm)]
        for shifts in itertools.product((0, 1), repeat=4):
            lam = lam_base + pi * np.asarray(shifts)
            if abs(wrap(lam.sum(), 2 * pi)) > 1e-5:
                continue
            folded = fold(
                (
                    (lam[0] + lam[2]) / 2.0,
                    (lam[1] + lam[2]) / 2.0,
                    (lam[0] + lam[1]) / 2.0,
                )
            )
            found = True
            if sum(folded) < best_sum - atol:
                best_sum, best = sum(folded), folded
    assert found
    return best


#: The 12 programs of the cold GRAPE benchmark pass.
COLD_PROGRAMS = (
    "qft_4", "qft_5", "qft_6", "qft_7", "qft_8", "adder_4",
    "hwb_6", "4gt4-v0", "gray_10", "ex2", "qft_10", "qft_12",
)


def _oracle_cases():
    iswap = np.array(
        [[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    named = [
        Circuit(2).add(gate, 0, 1).unitary() for gate in ("cx", "cz", "swap")
    ] + [iswap, np.eye(4, dtype=complex)]
    rng = derive_rng("weyl-oracle")
    randoms = [random_unitary(4, rng) for _ in range(500)]
    pipeline = AccQOC(PipelineConfig())
    groups = {}
    for name in COLD_PROGRAMS:
        for group in pipeline.groups_of(resolve_program(name))[1]:
            if group.n_qubits == 2:
                groups.setdefault(group.matrix().tobytes(), group.matrix())
    return named, randoms, list(groups.values())


def test_vectorized_scan_equals_the_sequential_scan():
    named, randoms, groups = _oracle_cases()
    assert len(groups) > 50
    for u in named + randoms + groups:
        assert tuple(weyl_coordinates(u)) == _loop_weyl_coordinates(u)


def test_rejects_wrong_shape():
    with pytest.raises(ValueError):
        weyl_coordinates(np.eye(2))
    with pytest.raises(ValueError):
        rotation_angle(np.eye(4))


# --------------------------------------------------------- rotation angle
def test_rotation_angle_identity():
    assert rotation_angle(np.eye(2)) == pytest.approx(0.0)


def test_rotation_angle_pauli_x():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    assert rotation_angle(x) == pytest.approx(np.pi)


def test_rotation_angle_rx():
    from repro.circuits.gates import GATE_SPECS

    for theta in (0.2, 1.1, 2.9):
        assert rotation_angle(GATE_SPECS["rx"].matrix(theta)) == pytest.approx(
            theta, abs=1e-9
        )


def test_rotation_angle_phase_invariant():
    from repro.circuits.gates import GATE_SPECS

    u = GATE_SPECS["ry"].matrix(1.3)
    assert rotation_angle(u * np.exp(0.6j)) == pytest.approx(1.3, abs=1e-9)
