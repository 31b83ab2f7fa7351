"""GRAPE: gradient ascent pulse engineering on piecewise-constant controls.

The optimizer matches the paper's setup (Sec IV-D): BFGS-family quasi-Newton
steps, a target infidelity of 1e-4, and a wall-clock budget per solve. The
optimizer is L-BFGS-B, the bounded member of that family: every point it
evaluates respects the drive bounds, so the cost it reports is the cost of
the pulse it returns. The solve stops the moment the target is reached —
iteration counts are the paper's primary cost metric (Sec VI-G), so early
termination must be exact, not left to the optimizer's own tolerances.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
from scipy import optimize

from repro.qoc.fidelity import infidelity_and_gradient
from repro.qoc.hamiltonian import ControlModel
from repro.qoc.pulse import Pulse
from repro.utils.config import RunConfig
from repro.utils.rng import derive_rng


@dataclass
class GrapeResult:
    """Outcome of one GRAPE solve."""

    converged: bool
    infidelity: float
    iterations: int  # optimizer iterations until convergence (or give-up)
    function_evals: int
    pulse: Pulse
    n_steps: int
    duration: float  # ns
    wall_time: float  # seconds
    message: str = ""
    skipped: bool = False  # recorded as failed without solving

    @property
    def fidelity(self) -> float:
        return 1.0 - self.infidelity


class _Budget(Exception):
    """Internal signal: target reached or budget exhausted."""


class _Tracker:
    """Closure state: best point seen, evaluation/iteration counters."""

    def __init__(self, target_infidelity: float, deadline: float):
        self.target = target_infidelity
        self.deadline = deadline
        self.best_cost = float("inf")
        self.best_x: Optional[np.ndarray] = None
        self.n_evals = 0
        self.n_iterations = 0

    def record(self, cost: float, x: np.ndarray) -> None:
        self.n_evals += 1
        if cost < self.best_cost:
            self.best_cost = cost
            self.best_x = x.copy()
        if cost <= self.target:
            raise _Budget("target reached")
        if time.monotonic() > self.deadline:
            raise _Budget("time budget exhausted")

    def on_iteration(self, _xk: np.ndarray) -> None:
        self.n_iterations += 1


def initial_point(
    model: ControlModel,
    n_steps: int,
    config: RunConfig,
    initial_pulse: Optional[Pulse] = None,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """A solve's flattened starting amplitudes, shape (n_steps * n_controls,).

    A warm ``initial_pulse`` is resampled to ``n_steps`` and clipped to the
    bounds; a cold start draws small uniform noise from ``rng`` (a fresh
    ``grape-cold-start`` generator when none is given). This is the only
    place a probe draws from its search's generator, so a probe that is
    recorded without solving still advances the generator exactly as a
    solved one would.
    """
    bounds_vec = np.repeat(model.bounds()[None, :], n_steps, axis=0).ravel()
    if initial_pulse is not None:
        x0 = initial_pulse.resampled(n_steps).amplitudes.ravel()
        return np.clip(x0, -bounds_vec, bounds_vec)
    rng = rng or derive_rng("grape-cold-start", config.seed)
    return (
        config.cold_start_noise
        * bounds_vec
        * rng.uniform(-1.0, 1.0, size=n_steps * model.n_controls)
    )


def run_grape(
    target: np.ndarray,
    model: ControlModel,
    n_steps: int,
    config: RunConfig = RunConfig(),
    initial_pulse: Optional[Pulse] = None,
    rng: Optional[np.random.Generator] = None,
) -> GrapeResult:
    """Solve for a pulse approximating ``target`` in ``n_steps`` slices.

    ``initial_pulse`` enables AccQOC's warm start: the cached pulse of a
    similar group is resampled to ``n_steps`` and used as the starting point;
    otherwise a small random cold start is drawn from ``rng``
    (:func:`initial_point`).
    """
    if target.shape != (model.dim, model.dim):
        raise ValueError(
            f"target shape {target.shape} does not match model dim {model.dim}"
        )
    if n_steps < 1:
        raise ValueError("n_steps must be positive")
    dt = model.physics.dt
    n_controls = model.n_controls
    bounds_vec = np.repeat(model.bounds()[None, :], n_steps, axis=0).ravel()
    x0 = initial_point(model, n_steps, config, initial_pulse, rng)

    tracker = _Tracker(
        config.target_infidelity, time.monotonic() + config.time_budget_s
    )

    def objective(x: np.ndarray):
        amps = x.reshape(n_steps, n_controls)
        cost, grad = infidelity_and_gradient(amps, model, target, dt)
        tracker.record(cost, x)
        return cost, grad.ravel()

    start = time.monotonic()
    message = ""
    try:
        result = optimize.minimize(
            objective,
            x0,
            jac=True,
            method="L-BFGS-B",
            bounds=list(zip(-bounds_vec, bounds_vec)),
            callback=tracker.on_iteration,
            options={"maxiter": config.max_iterations, "ftol": 1e-16,
                     "gtol": 1e-12},
        )
        message = str(result.message)
    except _Budget as stop:
        message = str(stop)

    wall = time.monotonic() - start
    best_x = tracker.best_x if tracker.best_x is not None else x0
    amps = np.clip(
        best_x.reshape(n_steps, n_controls),
        -model.bounds()[None, :],
        model.bounds()[None, :],
    )
    pulse = Pulse(
        amplitudes=amps,
        dt=dt,
        control_labels=model.labels,
        n_qubits=model.n_qubits,
        infidelity=tracker.best_cost,
    )
    return GrapeResult(
        converged=tracker.best_cost <= config.target_infidelity,
        infidelity=tracker.best_cost,
        iterations=max(tracker.n_iterations, 1),
        function_evals=tracker.n_evals,
        pulse=pulse,
        n_steps=n_steps,
        duration=n_steps * dt,
        wall_time=wall,
        message=message,
    )
