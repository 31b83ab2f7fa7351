"""Weyl-chamber (KAK) coordinates of two-qubit unitaries.

Any U in SU(4) decomposes as ``U = k1 exp(i(c1 XX + c2 YY + c3 ZZ)) k2`` with
local k1, k2. The coordinates (c1, c2, c3) are the *interaction content*: a
device whose entangling resource has strength ``g`` needs at least
``(c1 + c2 + c3) / g`` of interaction time to realize U (single-qubit drives
are comparatively fast). The fast latency estimator builds on this bound.

Extraction uses the magic-basis spectrum: with ``M = B^dag U B`` (B the magic
basis) and ``gamma = M^T M``, the eigenphases of gamma are ``2 lambda_k``
where ``lambda = (c1-c2+c3, -c1+c2+c3, c1+c2-c3, -c1-c2-c3)``. Branch and
ordering ambiguities are resolved by brute force over permutations and
2-pi shifts subject to ``sum(lambda) = 0 (mod 2pi)``; the minimal folded
coordinate vector is returned. Folding into ``[0, pi/4]`` merges mirror
classes — fine for *time estimates*, which is this module's purpose.
"""

from __future__ import annotations

import itertools
from typing import Tuple

import numpy as np

# Magic basis (columns are Bell-like states), standard convention.
_MAGIC = (
    np.array(
        [
            [1, 0, 0, 1j],
            [0, 1j, 1, 0],
            [0, 1j, -1, 0],
            [1, 0, 0, -1j],
        ],
        dtype=complex,
    )
    / np.sqrt(2.0)
)

_PI = np.pi

# Branch candidates of the eigenphase assignment: every ordering of the four
# half-phases, each shifted by 0 or pi, in itertools order.
_PERMUTATIONS = np.array(list(itertools.permutations(range(4))))
_SHIFTS = _PI * np.array(list(itertools.product((0, 1), repeat=4)))


def _to_su4(u: np.ndarray) -> np.ndarray:
    det = np.linalg.det(u)
    return u * det ** (-0.25)


def weyl_coordinates(u: np.ndarray, atol: float = 1e-7) -> Tuple[float, float, float]:
    """Folded Weyl coordinates (c1 >= c2 >= c3 >= 0, each <= pi/4).

    Identity -> (0,0,0); CNOT/CZ -> (pi/4,0,0); iSWAP -> (pi/4,pi/4,0);
    SWAP -> (pi/4,pi/4,pi/4). Invariant under single-qubit rotations.

    All 24 x 16 (permutation, 2-pi shift) branch candidates are evaluated
    as one array expression, in ``itertools`` order (permutations outer,
    shifts inner). The pick is the first candidate whose folded sum beats
    the best so far by more than ``atol``, so near-ties resolve to the
    earliest candidate, exactly as a sequential scan over them would.
    """
    if u.shape != (4, 4):
        raise ValueError("weyl_coordinates needs a 4x4 unitary")
    su = _to_su4(np.asarray(u, dtype=complex))
    m = _MAGIC.conj().T @ su @ _MAGIC
    gamma = m.T @ m
    phases = np.angle(np.linalg.eigvals(gamma))  # 2*lambda_k mod 2pi

    half = phases / 2.0  # lambda_k mod pi
    lam = (half[_PERMUTATIONS][:, None, :] + _SHIFTS[None, :, :]).reshape(-1, 4)
    # Left to right, as ndarray.sum adds four elements.
    total = lam[:, 0] + lam[:, 1] + lam[:, 2] + lam[:, 3]
    lam = lam[~(np.abs(_wrap(total, 2 * _PI)) > 1e-5)]
    if not len(lam):
        raise ArithmeticError("no consistent branch assignment found")
    folded = _fold_rows(
        np.stack(
            [
                (lam[:, 0] + lam[:, 2]) / 2.0,
                (lam[:, 1] + lam[:, 2]) / 2.0,
                (lam[:, 0] + lam[:, 1]) / 2.0,
            ],
            axis=1,
        )
    )
    sums = folded[:, 0] + folded[:, 1] + folded[:, 2]
    # Sequential "first strict improvement by atol": jump from each pick to
    # the first later candidate below it by more than atol.
    best, best_sum, start = -1, 3 * _PI / 4 + 1.0, 0
    while True:
        better = np.flatnonzero(sums[start:] < best_sum - atol)
        if not len(better):
            break
        best = start + int(better[0])
        best_sum, start = sums[best], best + 1
    c1, c2, c3 = folded[best]
    return (c1, c2, c3)


def _wrap(x, period: float):
    """Wrap into [-period/2, period/2) (elementwise on arrays)."""
    y = (x + period / 2.0) % period - period / 2.0
    return y


def _fold_rows(c: np.ndarray) -> np.ndarray:
    """Fold each coordinate into [0, pi/4], then sort each row descending."""
    v = np.abs(_wrap(c, _PI))  # into [0, pi/2]
    v = np.where(v > _PI / 4, _PI / 2 - v, v)
    return np.sort(v, axis=1)[:, ::-1]


def interaction_content(u: np.ndarray) -> float:
    """c1 + c2 + c3: the scalar the minimal-time bound consumes."""
    return float(sum(weyl_coordinates(u)))


def rotation_angle(u: np.ndarray) -> float:
    """SU(2) rotation angle of a single-qubit unitary, in [0, pi].

    ``U ~ exp(-i theta/2 n.sigma)`` up to phase; theta = 2 acos(|tr U| / 2).
    """
    if u.shape != (2, 2):
        raise ValueError("rotation_angle needs a 2x2 unitary")
    half_trace = abs(np.trace(u)) / 2.0
    half_trace = min(half_trace, 1.0)
    return float(2.0 * np.arccos(half_trace))
