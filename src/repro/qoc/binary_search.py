"""Latency binary search (paper Sec IV-D).

"The latency of a certain group is determined by a binary search. Short
latency leads to more iterations ... and does not guarantee convergence,
while long latency loses the advantages of quantum optimal control."

We search over the integer number of dt slices: the upper bracket starts at
an estimate guaranteed (or repeatedly doubled until observed) to converge;
the search returns the shortest converged probe and its pulse.

A bisection probe at or below the target's quantum speed limit
(:func:`speed_limit_steps`) cannot converge, so it is recorded as failed
without running GRAPE (:func:`skipped_probe`). The search takes the same
path either way, so the probe sequence and the returned pulse are those of
a search that solved every probe; only the wasted iterations go away.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.qoc.grape import GrapeResult, initial_point, run_grape
from repro.qoc.hamiltonian import ControlModel
from repro.qoc.pulse import Pulse
from repro.qoc.weyl import interaction_content, rotation_angle
from repro.utils.config import RunConfig


@dataclass
class BinarySearchResult:
    """Shortest converged solve plus the full probe history."""

    best: GrapeResult
    probes: List[GrapeResult] = field(default_factory=list)

    @property
    def latency(self) -> float:
        return self.best.duration

    @property
    def total_iterations(self) -> int:
        """Compile cost of the whole search (paper's cost metric)."""
        return sum(p.iterations for p in self.probes)

    @property
    def probes_skipped(self) -> int:
        """Probes recorded as failed below the speed limit, never solved."""
        return sum(p.skipped for p in self.probes)


def speed_limit_steps(target: np.ndarray, model: ControlModel, eps: float) -> int:
    """Largest slice count in which no pulse can reach infidelity ``eps``.

    Two qubits: the only entangling control is one XX coupler, bounded by
    ``J = coupling_max``. Even with free local rotations, reaching Weyl
    content ``s = c1 + c2 + c3`` (:mod:`repro.qoc.weyl`) takes at least
    ``s / J`` (Khaneja, Brockett & Glaser, "Time optimal control in spin
    systems", PRA 63, 032308, 2001); bounded drives only add time. A pulse
    ``V`` within ``eps`` of the target sits at coordinates ``c + d`` with,
    to first order, ``1 - |Tr(U^dag V)|^2 / 16 = |d|^2``: the four
    magic-basis eigenphases move by ``(d1 - d2 + d3, -d1 + d2 + d3, ...)``,
    whose mean square is ``|d|^2``. So ``V`` lacks at most
    ``d1 + d2 + d3 <= sqrt(3) |d| <= sqrt(3 eps)`` of the target's content
    (Cauchy-Schwarz), and needs at least ``(s - sqrt(3 eps)) / J``. The
    floor subtracts twice that loss as a safety margin:
    ``t_min = (s - 2 sqrt(3 eps)) / J``. (Numerically the worst loss found
    was sqrt(3 eps) itself, 0.0173 rad at eps = 1e-4.)

    One qubit: X and Y drives each bounded by ``W = drive_max`` give
    ``|H| <= sqrt(2) W``, so the rotation angle grows at most at
    ``2 sqrt(2) W`` rad/ns. A pulse within ``eps`` differs from the target
    by a rotation of angle ``phi`` with ``sin^2(phi / 2) <= eps``, so it
    rotates by at least ``theta - 2 asin(sqrt(eps))``; with the same
    factor-2 margin, ``t_min = (theta - 4 asin(sqrt(eps))) / (2 sqrt(2) W)``.

    Larger groups get no bound (0). The result is the largest ``n`` with
    ``n * dt < t_min``, and 0 when ``t_min <= 0``.
    """
    physics = model.physics
    if model.n_qubits == 1:
        t_min = (rotation_angle(target) - 4.0 * math.asin(math.sqrt(eps))) / (
            2.0 * math.sqrt(2.0) * physics.drive_max
        )
    elif model.n_qubits == 2:
        t_min = (
            interaction_content(target) - 2.0 * math.sqrt(3.0 * eps)
        ) / physics.coupling_max
    else:
        return 0
    return max(math.ceil(t_min / physics.dt) - 1, 0)


def skipped_probe(
    model: ControlModel,
    n_steps: int,
    config: RunConfig,
    initial_pulse: Optional[Pulse] = None,
    rng: Optional[np.random.Generator] = None,
) -> GrapeResult:
    """A probe at or below the speed limit, recorded as failed unsolved.

    It draws its starting point exactly as a solve would
    (:func:`~repro.qoc.grape.initial_point`), so a cold search's generator
    stays in step with a search that solved the probe. It reports 0
    iterations and infidelity 1.0 (the cost's maximum), with that starting
    point as its pulse.
    """
    x0 = initial_point(model, n_steps, config, initial_pulse, rng)
    dt = model.physics.dt
    pulse = Pulse(
        amplitudes=x0.reshape(n_steps, model.n_controls),
        dt=dt,
        control_labels=model.labels,
        n_qubits=model.n_qubits,
        infidelity=1.0,
    )
    return GrapeResult(
        converged=False,
        infidelity=1.0,
        iterations=0,
        function_evals=0,
        pulse=pulse,
        n_steps=n_steps,
        duration=n_steps * dt,
        wall_time=0.0,
        message="below the speed limit",
        skipped=True,
    )


def binary_search_latency(
    target: np.ndarray,
    model: ControlModel,
    config: RunConfig = RunConfig(),
    hi_steps: int = 64,
    lo_steps: int = 1,
    initial_pulse: Optional[Pulse] = None,
    rng: Optional[np.random.Generator] = None,
    max_doublings: int = 6,
) -> BinarySearchResult:
    """Find the minimal converging latency for ``target``.

    ``initial_pulse`` warm-starts *every* probe (resampled to the probe's
    step count) — this is how MST-accelerated dynamic compilation plugs in.
    The upper bracket doubles until a probe converges; after
    ``max_doublings`` failed doublings (a negative count gives up after the
    first failed probe) the search returns the least-bad probe. Bisection
    then narrows the bracket within ``config.binary_search_max_probes``
    probes. Bisection probes at or below :func:`speed_limit_steps` are
    recorded by :func:`skipped_probe` instead of solved; doubling probes
    always run.
    """
    floor = speed_limit_steps(target, model, config.target_infidelity)
    probes: List[GrapeResult] = []
    lo, hi = lo_steps, max(hi_steps, lo_steps, 1)
    for doubling in itertools.count():
        result = run_grape(
            target, model, hi, config, initial_pulse=initial_pulse, rng=rng
        )
        probes.append(result)
        if result.converged:
            break
        if doubling >= max_doublings:
            least_bad = min(probes, key=lambda p: p.infidelity)
            return BinarySearchResult(best=least_bad, probes=probes)
        hi *= 2
    best, hi = result, result.n_steps
    while lo < hi and len(probes) < config.binary_search_max_probes:
        mid = (lo + hi) // 2
        if mid <= floor:
            result = skipped_probe(model, mid, config, initial_pulse, rng)
        else:
            result = run_grape(
                target, model, mid, config, initial_pulse=initial_pulse, rng=rng
            )
        probes.append(result)
        if result.converged:
            best, hi = result, mid
        else:
            lo = mid + 1
    return BinarySearchResult(best=best, probes=probes)
