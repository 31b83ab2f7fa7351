"""Fast latency estimation, calibrated against real GRAPE binary searches.

Running GRAPE + binary search on every group of every program under six
policies (Fig 12) would take hours; the paper itself burns a 600 s budget per
probe. This estimator predicts the binary-search outcome from closed-form
control-theoretic quantities:

* 1 qubit: rotation angle theta -> drive time theta / (2 * drive_max);
* 2 qubits: Weyl interaction content s = c1+c2+c3 -> coupler time
  s / coupling_max, plus a local-rotation term;
* > 2 qubits (brute-force QOC baseline only): critical path through the
  group's gates using the per-gate minima above, shrunk by a calibrated
  compression factor (QOC merges and overlaps what concatenation serializes).

``calibrate()`` fits the affine correction of each regime to a sample of
real binary searches, so estimates track the specific RunConfig in use.
Experiments accept either this estimator or the real engine behind the same
interface (see repro.core.pipeline).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.grouping.group import GateGroup
from repro.qoc.weyl import interaction_content, rotation_angle
from repro.utils.config import PhysicsConfig


@dataclass
class LatencyEstimator:
    """Closed-form group-latency model with affine calibration knobs.

    latency_1q = scale_1q * theta/(2*drive_max) + offset_1q
    latency_2q = scale_2q * (s/coupling_max + theta_max/(2*drive_max)) + offset_2q
    latency_nq = compression * critical_path(min gate times)

    Durations are quantized up to the dt grid, mirroring the binary search
    over integer step counts.
    """

    physics: PhysicsConfig = field(default_factory=PhysicsConfig)
    scale_1q: float = 1.0
    offset_1q: float = 2.0  # ns
    scale_2q: float = 1.0
    offset_2q: float = 4.0  # ns
    compression: float = 1.0
    quantize: bool = True

    # ------------------------------------------------------------- primitives
    @staticmethod
    def is_virtual_diagonal(matrix: np.ndarray, atol: float = 1e-8) -> bool:
        """True when the unitary is a *local* diagonal: pure Z-frame changes.

        Frame updates are free on hardware (the same reason u1 costs 0 ns in
        the gate table). A diagonal 2-qubit unitary is local iff its phases
        factorize: ang(0) + ang(3) = ang(1) + ang(2) (mod 2pi); entangling
        diagonals like CZ do not qualify.
        """
        off_diag = matrix - np.diag(np.diag(matrix))
        if np.abs(off_diag).max() > atol:
            return False
        if matrix.shape[0] == 2:
            return True
        if matrix.shape[0] == 4:
            phases = np.angle(np.diag(matrix))
            mismatch = (phases[0] + phases[3]) - (phases[1] + phases[2])
            return bool(abs((mismatch + np.pi) % (2 * np.pi) - np.pi) < 1e-6)
        return False

    def _quantized(self, t: float) -> float:
        if not self.quantize:
            return max(t, 0.0)
        dt = self.physics.dt
        steps = max(int(np.ceil(t / dt - 1e-9)), 1)
        return steps * dt

    def single_qubit_latency(self, matrix: np.ndarray) -> float:
        if self.is_virtual_diagonal(matrix):
            return 0.0
        theta = rotation_angle(matrix)
        raw = theta / (2.0 * self.physics.drive_max)
        return self._quantized(self.scale_1q * raw + self.offset_1q)

    def two_qubit_latency(self, matrix: np.ndarray) -> float:
        if self.is_virtual_diagonal(matrix):
            return 0.0
        s = interaction_content(matrix)
        raw = s / self.physics.coupling_max
        # Local rotations run concurrently with, but also before/after, the
        # coupler window; budget one worst-case half-pi per wire pair.
        local = np.pi / (2.0 * self.physics.drive_max)
        return self._quantized(self.scale_2q * (raw + local) + self.offset_2q)

    def unitary_latency(self, matrix: np.ndarray) -> float:
        dim = matrix.shape[0]
        if dim == 2:
            return self.single_qubit_latency(matrix)
        if dim == 4:
            return self.two_qubit_latency(matrix)
        raise ValueError(
            "closed-form estimate only for 1-2 qubit unitaries; "
            "use group_latency for larger groups"
        )

    # ----------------------------------------------------------------- groups
    def group_latency(self, group: GateGroup) -> float:
        if group.n_qubits <= 2:
            return self.unitary_latency(group.matrix())
        return self._large_group_latency(group)

    def _gate_min_time(self, matrix: np.ndarray) -> float:
        if matrix.shape[0] == 2:
            return rotation_angle(matrix) / (2.0 * self.physics.drive_max)
        return (
            interaction_content(matrix) / self.physics.coupling_max
            + np.pi / (2.0 * self.physics.drive_max)
        )

    def _large_group_latency(self, group: GateGroup) -> float:
        """Busy-wire bound with QOC compression, for > 2-qubit groups.

        A whole-group pulse can overlap every operation that does not compete
        for the same wire, and can merge/cancel interaction content; the
        controlling bound is the busiest wire: the sum of minimal times of
        the gates touching it (a 2-qubit gate occupies both wires for its
        coupler window). The critical-path bound used for 2b-style groups
        over-serializes here — brute-force QOC's whole point (Fig 15) is to
        beat that serialization.
        """
        busy: Dict[int, float] = {q: 0.0 for q in range(group.n_qubits)}
        for gate in group.local_gates():
            t = self._gate_min_time(gate.matrix())
            for q in gate.qubits:
                busy[q] += t
        bound = max(busy.values(), default=0.0)
        return self._quantized(self.compression * bound + self.offset_2q)

    # ------------------------------------------------------------ calibration
    def calibrate(
        self,
        samples_1q: Sequence[Tuple[np.ndarray, float]] = (),
        samples_2q: Sequence[Tuple[np.ndarray, float]] = (),
    ) -> "LatencyEstimator":
        """Fit scale/offset per regime to (matrix, measured latency) samples.

        Least-squares on the affine model; regimes with fewer than two
        samples keep their current parameters. Returns self for chaining.
        """
        if len(samples_1q) >= 2:
            raws = np.array(
                [rotation_angle(m) / (2 * self.physics.drive_max) for m, _ in samples_1q]
            )
            measured = np.array([t for _, t in samples_1q])
            self.scale_1q, self.offset_1q = _affine_fit(raws, measured)
        if len(samples_2q) >= 2:
            local = np.pi / (2.0 * self.physics.drive_max)
            raws = np.array(
                [
                    interaction_content(m) / self.physics.coupling_max + local
                    for m, _ in samples_2q
                ]
            )
            measured = np.array([t for _, t in samples_2q])
            self.scale_2q, self.offset_2q = _affine_fit(raws, measured)
        return self


def _affine_fit(x: np.ndarray, y: np.ndarray) -> Tuple[float, float]:
    """Non-negative-offset least squares fit of y ~ a*x + b."""
    a_matrix = np.column_stack([x, np.ones_like(x)])
    coeffs, *_ = np.linalg.lstsq(a_matrix, y, rcond=None)
    scale, offset = float(coeffs[0]), float(coeffs[1])
    if offset < 0:
        offset = 0.0
        denom = float(np.dot(x, x))
        scale = float(np.dot(x, y) / denom) if denom > 0 else 1.0
    return scale, offset
