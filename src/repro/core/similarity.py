"""Similarity functions between gate groups (paper Sec V-B).

The paper evaluates five functions. We expose them as *distance weights*
(lower = more similar), since the MST minimizes total weight:

* ``l1``        - d1(A,B) = sum |a_ij - b_ij|
* ``l2``        - d2(A,B) = sqrt(sum (a_ij - b_ij)^2)  (Frobenius)
* ``trace``     - 1 - |Tr(A^dag B)| / d
* ``fidelity1`` - 1 - |Tr(A^dag B)|^2 / d^2   (process fidelity; the paper's
  best performer in Fig 8. The paper writes d4 with the Uhlmann
  state-fidelity formula, which is ill-defined on unitaries; process fidelity
  is the standard unitary analogue and we substitute it.)
* ``inverse_fidelity`` - |Tr(A^dag B)|^2 / d^2  (the paper's fifth function:
  the inverse of the fourth, deliberately preferring *dissimilar* pairs as a
  negative control; Fig 8 shows it increases iterations.)

Entrywise distances are computed after global-phase alignment: GRAPE's cost
is phase-invariant, so pulses for A and e^{i phi} A are interchangeable and
the distance should not see the phase.
"""

from __future__ import annotations

from typing import Callable, Dict, List

import numpy as np

from repro.utils.linalg import global_phase_normalize


def _aligned(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rotate b's global phase to best match a (closed form: phase of <a,b>)."""
    inner = np.vdot(a, b)  # sum conj(a) * b
    if abs(inner) < 1e-12:
        return b
    return b * (inner.conjugate() / abs(inner))


def l1_distance(a: np.ndarray, b: np.ndarray) -> float:
    b = _aligned(a, b)
    return float(np.sum(np.abs(a - b)))


def l2_distance(a: np.ndarray, b: np.ndarray) -> float:
    b = _aligned(a, b)
    return float(np.sqrt(np.sum(np.abs(a - b) ** 2)))


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    d = a.shape[0]
    return float(1.0 - abs(np.trace(a.conj().T @ b)) / d)


def fidelity1_distance(a: np.ndarray, b: np.ndarray) -> float:
    d = a.shape[0]
    return float(1.0 - (abs(np.trace(a.conj().T @ b)) / d) ** 2)


def inverse_fidelity_distance(a: np.ndarray, b: np.ndarray) -> float:
    d = a.shape[0]
    return float((abs(np.trace(a.conj().T @ b)) / d) ** 2)


SIMILARITY_FUNCTIONS: Dict[str, Callable[[np.ndarray, np.ndarray], float]] = {
    "l1": l1_distance,
    "l2": l2_distance,
    "trace": trace_distance,
    "fidelity1": fidelity1_distance,
    "inverse_fidelity": inverse_fidelity_distance,
}

SIMILARITY_NAMES: List[str] = list(SIMILARITY_FUNCTIONS)


def get_similarity(name: str) -> Callable[[np.ndarray, np.ndarray], float]:
    try:
        return SIMILARITY_FUNCTIONS[name]
    except KeyError:
        raise KeyError(
            f"unknown similarity {name!r}; choose from {SIMILARITY_NAMES}"
        ) from None


# --------------------------------------------------------------- batched
# The similarity graph needs all n(n-1)/2 pairwise weights; calling the
# per-pair functions above is the O(n^2) hot path of dynamic compilation.
# Every weight in the family is a function of the Gram matrix
# G[i, j] = Tr(A_i^dag A_j), so one gemm on the (n, d^2) flattened stack
# replaces the Python loop. The per-pair functions stay as the oracle.

# Upper bound on scratch entries for the entrywise (l1/l2) reductions;
# rows are processed in blocks so memory stays ~tens of MB at any n.
_BLOCK_ENTRIES = 1 << 22


def gram_matrix(a_flat: np.ndarray, b_flat: np.ndarray) -> np.ndarray:
    """G[i, j] = Tr(A_i^dag B_j) = <A_i, B_j> for flattened (n, d^2) stacks."""
    return a_flat.conj() @ b_flat.T


def batched_distance_matrix(
    name: str, a_stack: np.ndarray, b_stack: np.ndarray | None = None
) -> np.ndarray:
    """All pairwise distances between two (n, d, d) stacks of unitaries.

    Returns the (na, nb) matrix ``out[i, j] = fn(a_stack[i], b_stack[j])``
    for the named similarity function; ``b_stack=None`` means ``a_stack``
    vs itself. Matches the per-pair functions to float rounding: the trace
    family reads the Gram matrix directly, the entrywise family (l1/l2)
    applies the same closed-form phase alignment per pair before reducing.
    """
    get_similarity(name)  # validate the name with the canonical error
    a = np.asarray(a_stack)
    b = a if b_stack is None else np.asarray(b_stack)
    na, d, _ = a.shape
    nb = b.shape[0]
    a_flat = a.reshape(na, d * d)
    b_flat = b.reshape(nb, d * d)
    gram = gram_matrix(a_flat, b_flat)
    mag = np.abs(gram)
    if name == "trace":
        return 1.0 - mag / d
    if name == "fidelity1":
        return 1.0 - (mag / d) ** 2
    if name == "inverse_fidelity":
        return (mag / d) ** 2

    if name not in ("l1", "l2"):
        # A function registered in SIMILARITY_FUNCTIONS but without a
        # batched kernel must fail loudly, not fall through to l2.
        raise NotImplementedError(
            f"similarity {name!r} has no batched kernel; "
            "add one to batched_distance_matrix"
        )
    # l1 / l2: rotate each B_j onto A_i (phase of <A_i, B_j>, exactly as
    # _aligned does) and reduce the entrywise differences, blocked over
    # rows of A so the (rows, nb, d^2) scratch stays bounded.
    degenerate = mag < 1e-12
    safe_mag = np.where(degenerate, 1.0, mag)
    phases = np.where(degenerate, 1.0, gram.conj() / safe_mag)
    out = np.empty((na, nb))
    block = max(1, _BLOCK_ENTRIES // max(1, nb * d * d))
    for start in range(0, na, block):
        stop = min(na, start + block)
        diff = (
            a_flat[start:stop, None, :]
            - b_flat[None, :, :] * phases[start:stop, :, None]
        )
        if name == "l1":
            out[start:stop] = np.abs(diff).sum(axis=2)
        else:
            out[start:stop] = np.sqrt((np.abs(diff) ** 2).sum(axis=2))
    return out


def normalized_weight(name: str, a: np.ndarray, b: np.ndarray) -> float:
    """Distance rescaled into [0, 1] (used by iteration-cost models).

    fidelity-family distances are already in [0, 1]; entrywise ones are
    divided by their maximum over unitaries of dimension d (2d for l1 summed
    row mass bound; 2*sqrt(d) for l2).
    """
    fn = get_similarity(name)
    value = fn(a, b)
    d = a.shape[0]
    if name == "l1":
        return min(value / (2.0 * d), 1.0)
    if name == "l2":
        return min(value / (2.0 * np.sqrt(d)), 1.0)
    return min(max(value, 0.0), 1.0)
