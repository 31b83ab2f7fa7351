"""Output checks: committed expected answers, a signature census, and an
independent physics check of stored GRAPE pulses.

Every failed check downgrades the request it belongs to in the
:class:`~accbench.client.Tally`, so a wrong answer counts once in
``failed`` like an error, a shed or a lost request.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, Iterable, List, Optional, Sequence, Set

import numpy as np
from scipy.linalg import expm

from accbench.client import PHYSICS, WRONG, Tally

#: Answer fields pinned per engine: the model engine's answers are exact
#: functions of the program; a GRAPE latency depends on the optimizer, so
#: cold-grape pins only what the front end and the gate table decide.
MODEL_FIELDS = ("n_groups", "n_unique", "overall_latency_ns", "gate_based_latency_ns")
GRAPE_FIELDS = ("n_groups", "n_unique", "gate_based_latency_ns")

#: Slack on the fidelity target for a pulse re-propagated with ``expm``:
#: covers only the rounding difference from the optimizer's eigh-based
#: propagation.
FIDELITY_SLACK = 1e-9


def _same(got, want) -> bool:
    if isinstance(want, float) or isinstance(got, float):
        try:
            return math.isclose(float(got), float(want), rel_tol=1e-9, abs_tol=1e-9)
        except (TypeError, ValueError):
            return False
    return got == want


def answer_mismatch(payload: Dict, expected: Dict, fields: Sequence[str]) -> Optional[str]:
    """The first pinned field the answer gets wrong, else ``None``."""
    for name in fields:
        if name in expected and not _same(payload.get(name), expected[name]):
            return f"{name}={payload.get(name)!r}, expected {expected[name]!r}"
    return None


def check_expected(tally: Tally, expected: Dict[str, Dict], fields: Sequence[str]) -> List[str]:
    """Mark answers that disagree with a pinned answer; return the problems."""
    problems = []
    for reply in tally.answered():
        want = expected.get(reply.request.program)
        if want is None:
            continue
        mismatch = answer_mismatch(reply.payload, want, fields)
        if mismatch:
            tally.mark(reply.index, WRONG)
            problems.append(f"{reply.request.program}: {mismatch}")
    return problems


def signature(payload: Dict) -> tuple:
    return tuple(payload.get(name) for name in MODEL_FIELDS)


def check_census(tally: Tally) -> List[str]:
    """Repeated programs must get one answer: answers that disagree with
    their program's majority signature are marked wrong."""
    by_program: Dict[str, Counter] = {}
    for reply in tally.answered():
        by_program.setdefault(reply.request.program, Counter())[signature(reply.payload)] += 1
    problems = []
    for reply in tally.answered():
        counts = by_program[reply.request.program]
        majority, _ = counts.most_common(1)[0]
        if signature(reply.payload) != majority:
            tally.mark(reply.index, WRONG)
            problems.append(f"{reply.request.program}: answer differs from majority")
    return problems


# ----------------------------------------------------------------- physics
def propagate_expm(amplitudes: np.ndarray, drift_and_controls: np.ndarray, dt: float) -> np.ndarray:
    """U = U_N ... U_1 with U_k = expm(-i dt (H_0 + sum_j u_kj H_j)), slice
    by slice — deliberately not the optimizer's own propagation."""
    dim = drift_and_controls.shape[1]
    total = np.eye(dim, dtype=complex)
    for row in np.atleast_2d(amplitudes):
        hamiltonian = drift_and_controls[0] + np.tensordot(row, drift_and_controls[1:], axes=(0, 0))
        total = expm(-1j * dt * hamiltonian) @ total
    return total


def phase_invariant_fidelity(u: np.ndarray, target: np.ndarray) -> float:
    d = target.shape[0]
    return float(abs(np.trace(target.conj().T @ u)) ** 2 / d**2)


def failing_pulses(entries: Iterable, physics, target_infidelity: float) -> List[bytes]:
    """Keys of converged entries whose pulse misses the fidelity target.

    Entries without a pulse (virtual-diagonal groups) carry nothing to
    check; non-converged entries are flagged by the program itself.
    """
    from repro.qoc.hamiltonian import ControlModel

    models: Dict[int, np.ndarray] = {}
    bad = []
    for entry in entries:
        pulse = entry.pulse
        if pulse is None or not entry.converged:
            continue
        n = entry.group.n_qubits
        if n not in models:
            models[n] = ControlModel(n, physics).drift_and_controls()
        u = propagate_expm(pulse.amplitudes, models[n], pulse.dt)
        fidelity = phase_invariant_fidelity(u, entry.group.matrix())
        if 1.0 - fidelity > target_infidelity + FIDELITY_SLACK:
            bad.append(entry.group.key())
    return bad


def mark_physics_failures(tally: Tally, bad_keys: Set[bytes], keys_of) -> List[str]:
    """Charge each failing pulse to the first request whose program
    contains its group: with one client that request compiled it.
    ``keys_of(request)`` gives the canonical keys of a request's groups."""
    problems = []
    remaining = set(bad_keys)
    for reply in tally.replies:
        if not remaining:
            break
        hit = remaining & keys_of(reply.request)
        if hit:
            tally.mark(reply.index, PHYSICS)
            remaining -= hit
            problems.append(f"{reply.request.program}: {len(hit)} pulse(s) below the fidelity target")
    return problems
