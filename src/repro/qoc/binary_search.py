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


class SearchState:
    """One latency binary search, stepped probe by probe.

    The doubling bracket (give up after ``max_doublings`` failed doublings,
    returning the least-bad probe), then bisection bounded by the probe
    budget. :func:`binary_search_latency` drives it. ``floor`` is
    :func:`speed_limit_steps`: a bisection probe at or below it is
    :meth:`below_floor`, and its caller absorbs a :func:`skipped_probe`
    instead of a solve. Doubling probes always run.
    """

    def __init__(
        self,
        hi_steps: int,
        lo_steps: int,
        max_doublings: int,
        max_probes: int,
        floor: int = 0,
    ) -> None:
        self.probes: List[GrapeResult] = []
        self.best: Optional[GrapeResult] = None
        self.lo = lo_steps
        self.hi = max(hi_steps, lo_steps, 1)
        self.doublings_left = max_doublings
        self.max_probes = max_probes
        self.floor = floor
        self.bisecting = False
        self.done = False

    def next_steps(self) -> int:
        if self.bisecting:
            return (self.lo + self.hi) // 2
        return self.hi

    def below_floor(self) -> bool:
        """The next probe is a bisection probe that cannot converge."""
        return self.bisecting and self.next_steps() <= self.floor

    def absorb(self, result: GrapeResult) -> None:
        self.probes.append(result)
        if not self.bisecting:
            if result.converged:
                self.best = result
                self.hi = result.n_steps
                self.bisecting = True
                self._check_bisect_done()
            elif self.doublings_left <= 0:
                self.best = min(self.probes, key=lambda p: p.infidelity)
                self.done = True
            else:
                self.doublings_left -= 1
                self.hi *= 2
        else:
            mid = (self.lo + self.hi) // 2  # the probe that just ran
            if result.converged:
                self.best = result
                self.hi = mid
            else:
                self.lo = mid + 1
            self._check_bisect_done()

    def skip_below_floor(
        self,
        model: ControlModel,
        config: RunConfig,
        initial_pulse: Optional[Pulse],
        rng: Optional[np.random.Generator],
    ) -> None:
        """Absorb a :func:`skipped_probe` for every next probe below the floor."""
        while not self.done and self.below_floor():
            self.absorb(
                skipped_probe(model, self.next_steps(), config, initial_pulse, rng)
            )

    def result(self) -> BinarySearchResult:
        return BinarySearchResult(best=self.best, probes=self.probes)

    def _check_bisect_done(self) -> None:
        if not (self.lo < self.hi and len(self.probes) < self.max_probes):
            self.done = True


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
    Bisection probes at or below :func:`speed_limit_steps` are recorded by
    :func:`skipped_probe` instead of solved.
    """
    state = SearchState(
        hi_steps,
        lo_steps,
        max_doublings,
        config.binary_search_max_probes,
        speed_limit_steps(target, model, config.target_infidelity),
    )
    while True:
        state.skip_below_floor(model, config, initial_pulse, rng)
        if state.done:
            return state.result()
        state.absorb(
            run_grape(
                target,
                model,
                state.next_steps(),
                config,
                initial_pulse=initial_pulse,
                rng=rng,
            )
        )
