"""Batched GRAPE driver: K independent L-BFGS-B solves, one kernel stream.

The serial :func:`~repro.qoc.grape.run_grape` is the semantic oracle; this
module changes *where the kernels run*, never what a solve sees. Each of
the K solves keeps its own scipy optimizer, its own warm start, its own
RNG, and its own target/budget tracker — but their objective evaluations
rendezvous on a shared :class:`_KernelStream` that stacks every active
solve's pending point into one
:func:`~repro.qoc.fidelity_batched.infidelity_and_gradient_batched` call.
Rows of the batched kernel never interact, so a solve's trajectory is a
function of its own inputs only.

Early exit is *exact*, matching ``run_grape``: a solve raises the same
``_Budget`` signal the moment its own evaluation hits the 1e-4 target or
its wall budget — the optimizer never gets to take another step — and the
finished solve *leaves the stream* (the batch narrows) so batch-mates
continue at width K-1 rather than padding dead rows. No solve ever runs
extra iterations because its batch-mates are unconverged, and no solve is
cut short because a batch-mate finished.

The batched latency search (:func:`binary_search_latency_batched`) drives
K binary searches in lockstep rounds: every unfinished search picks its
next probe by the serial doubling/bisection rule, probes wanting the same
slice count form one ``run_grape_batch`` call, and searches that finish
simply stop contributing probes. Per-search probe sequences equal the
serial ones whenever per-probe convergence outcomes agree (they agree in
practice; the 1e-9 kernel tolerance makes bit-level divergence possible,
which is why the serial path remains the bit-identity oracle).
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np
from scipy import optimize

from repro.qoc.binary_search import (
    BinarySearchResult,
    SearchState,
    speed_limit_steps,
)
from repro.qoc.fidelity_batched import infidelity_and_gradient_batched
from repro.qoc.grape import GrapeResult, _Budget, _Tracker, initial_point
from repro.qoc.hamiltonian import ControlModel
from repro.qoc.pulse import Pulse
from repro.utils.config import RunConfig


@dataclass
class BatchStats:
    """Occupancy of a batched kernel stream, for perf counters.

    ``width_sum / rounds`` is the mean batch width the stream actually ran
    at; ``narrowings`` counts solves that left while batch-mates were still
    active (a fully converged batch of K narrows K-1 times).
    """

    rounds: int = 0
    width_sum: int = 0
    narrowings: int = 0
    widths: List[int] = field(default_factory=list)

    def observe_round(self, width: int) -> None:
        self.rounds += 1
        self.width_sum += width
        self.widths.append(width)


class _KernelStream:
    """Rendezvous point where active solves batch their objective calls.

    Each solver thread calls :meth:`evaluate` with its pending point; the
    call blocks until every *active* solve has a pending point, then one
    thread issues a single batched kernel call and distributes the rows.
    :meth:`leave` removes a finished solve from the active set — if the
    remaining pending points now cover the (smaller) active set, the next
    round fires immediately, so a departure can never stall the stream.
    """

    def __init__(
        self,
        model: ControlModel,
        targets: np.ndarray,
        dt: float,
        n_slots: int,
        stats: BatchStats,
    ) -> None:
        self._model = model
        self._targets = targets  # (K, d, d)
        self._dt = dt
        self._cond = threading.Condition()
        self._active = set(range(n_slots))
        self._pending: Dict[int, np.ndarray] = {}
        self._results: Dict[int, tuple] = {}
        # Rounds between narrowings share the same slot set; cache its
        # target stack instead of fancy-indexing (K, d, d) every round.
        self._target_cache: tuple = ((), None)
        self.stats = stats

    def _covered(self) -> bool:
        return bool(self._active) and self._active <= set(self._pending)

    def _fire(self) -> None:
        # Called with the lock held; every other active thread is parked
        # in evaluate(), so holding it through the kernel call is safe.
        slots = sorted(self._pending)
        stack = np.stack([self._pending[s] for s in slots])
        key = tuple(slots)
        if self._target_cache[0] != key:
            self._target_cache = (key, self._targets[slots])
        try:
            costs, grads = infidelity_and_gradient_batched(
                stack, self._model, self._target_cache[1], self._dt
            )
        except BaseException as exc:  # deliver to every waiter, never stall
            for slot in slots:
                self._results[slot] = exc
        else:
            for row, slot in enumerate(slots):
                self._results[slot] = (float(costs[row]), grads[row])
            self.stats.observe_round(len(slots))
        self._pending.clear()
        self._cond.notify_all()

    def evaluate(self, slot: int, amps: np.ndarray):
        """Block until this round's batch fires; return (cost, grad)."""
        with self._cond:
            self._pending[slot] = amps
            if self._covered():
                self._fire()
            else:
                while slot in self._pending:
                    self._cond.wait()
            result = self._results.pop(slot)
        if isinstance(result, BaseException):
            raise result
        return result

    def leave(self, slot: int) -> None:
        """Deregister a finished solve; the stream narrows."""
        with self._cond:
            if slot not in self._active:
                return
            self._active.discard(slot)
            if self._active:
                self.stats.narrowings += 1
                if self._covered():
                    self._fire()


def run_grape_batch(
    targets: Sequence[np.ndarray],
    model: ControlModel,
    n_steps: int,
    config: RunConfig = RunConfig(),
    initial_pulses: Optional[Sequence[Optional[Pulse]]] = None,
    rngs: Optional[Sequence[Optional[np.random.Generator]]] = None,
    stats: Optional[BatchStats] = None,
    _pool: Optional[ThreadPoolExecutor] = None,
) -> List[GrapeResult]:
    """Solve K same-dimension, same-slice-count targets in one stream.

    Per-solve semantics match :func:`~repro.qoc.grape.run_grape` exactly:
    the same warm-start resampling/clipping, the same cold-start draw from
    the solve's own ``rngs[k]``, the same optimizer options, and the same
    exact early termination on the 1e-4 target or the per-solve wall
    budget (measured from batch start). Only the kernel launches are
    shared; result k is independent of its batch-mates.
    """
    n_solves = len(targets)
    if n_solves == 0:
        return []
    target_stack = np.stack([np.asarray(t) for t in targets])
    if target_stack.shape[1:] != (model.dim, model.dim):
        raise ValueError(
            f"target shape {target_stack.shape[1:]} does not match model "
            f"dim {model.dim}"
        )
    if n_steps < 1:
        raise ValueError("n_steps must be positive")
    if initial_pulses is None:
        initial_pulses = [None] * n_solves
    if rngs is None:
        rngs = [None] * n_solves
    if len(initial_pulses) != n_solves or len(rngs) != n_solves:
        raise ValueError("initial_pulses/rngs must match len(targets)")

    dt = model.physics.dt
    n_controls = model.n_controls
    bounds_vec = np.repeat(model.bounds()[None, :], n_steps, axis=0).ravel()

    x0s = [
        initial_point(model, n_steps, config, initial_pulse, rng)
        for initial_pulse, rng in zip(initial_pulses, rngs)
    ]

    start = time.monotonic()
    deadline = start + config.time_budget_s
    trackers = [
        _Tracker(config.target_infidelity, deadline) for _ in range(n_solves)
    ]
    batch_stats = stats if stats is not None else BatchStats()
    stream = _KernelStream(model, target_stack, dt, n_solves, batch_stats)
    messages = [""] * n_solves
    walls = [0.0] * n_solves
    errors: List[Optional[BaseException]] = [None] * n_solves

    def solve_one(slot: int) -> None:
        tracker = trackers[slot]

        def objective(x: np.ndarray):
            amps = x.reshape(n_steps, n_controls)
            cost, grad = stream.evaluate(slot, amps)
            tracker.record(cost, x)
            return cost, grad.ravel()

        try:
            if config.optimizer == "BFGS":
                result = optimize.minimize(
                    objective,
                    x0s[slot],
                    jac=True,
                    method="BFGS",
                    callback=tracker.on_iteration,
                    options={"maxiter": config.max_iterations, "gtol": 1e-12},
                )
            else:
                result = optimize.minimize(
                    objective,
                    x0s[slot],
                    jac=True,
                    method=config.optimizer,
                    bounds=list(zip(-bounds_vec, bounds_vec)),
                    callback=tracker.on_iteration,
                    options={"maxiter": config.max_iterations, "ftol": 1e-16,
                             "gtol": 1e-12},
                )
            messages[slot] = str(result.message)
        except _Budget as stop:
            messages[slot] = str(stop)
        except BaseException as exc:  # surfaced after join; don't stall mates
            errors[slot] = exc
        finally:
            walls[slot] = time.monotonic() - start
            stream.leave(slot)

    # solve_one never raises (errors are captured per slot), so waiting on
    # the futures is pure synchronization. A caller-supplied pool lets the
    # lockstep binary search reuse one set of threads across probe rounds
    # instead of paying thread startup per round.
    if n_solves > 1:
        pool = _pool or ThreadPoolExecutor(
            max_workers=n_solves - 1, thread_name_prefix="grape-batch"
        )
        futures = [pool.submit(solve_one, slot) for slot in range(1, n_solves)]
        solve_one(0)
        for future in futures:
            future.result()
        if _pool is None:
            pool.shutdown(wait=True)
    else:
        solve_one(0)
    for error in errors:
        if error is not None:
            raise error

    results: List[GrapeResult] = []
    for slot in range(n_solves):
        tracker = trackers[slot]
        best_x = tracker.best_x if tracker.best_x is not None else x0s[slot]
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
        results.append(
            GrapeResult(
                converged=tracker.best_cost <= config.target_infidelity,
                infidelity=tracker.best_cost,
                iterations=max(tracker.n_iterations, 1),
                function_evals=tracker.n_evals,
                pulse=pulse,
                n_steps=n_steps,
                duration=n_steps * dt,
                wall_time=walls[slot],
                message=messages[slot],
            )
        )
    return results


def binary_search_latency_batched(
    targets: Sequence[np.ndarray],
    model: ControlModel,
    config: RunConfig = RunConfig(),
    hi_steps: int = 64,
    lo_steps: int = 1,
    initial_pulses: Optional[Sequence[Optional[Pulse]]] = None,
    rngs: Optional[Sequence[Optional[np.random.Generator]]] = None,
    max_doublings: int = 6,
    stats: Optional[BatchStats] = None,
) -> List[BinarySearchResult]:
    """K lockstep latency searches over one batched kernel stream.

    Every round, each unfinished search names its next probe's slice count
    by the serial doubling/bisection rule; probes sharing a slice count
    form one :func:`run_grape_batch` call (warm pulses resample per probe,
    each search's own RNG threads through its probes, exactly as the
    serial search reuses one generator). Searches finish independently —
    a search that converges early just stops contributing probes. Each
    search is a :class:`~repro.qoc.binary_search.SearchState` with its
    target's speed-limit floor, so bisection probes at or below it are
    recorded unsolved exactly as the serial search records them.
    """
    n_solves = len(targets)
    if initial_pulses is None:
        initial_pulses = [None] * n_solves
    if rngs is None:
        rngs = [None] * n_solves
    states = [
        SearchState(
            hi_steps,
            lo_steps,
            max_doublings,
            config.binary_search_max_probes,
            speed_limit_steps(target, model, config.target_infidelity),
        )
        for target in targets
    ]
    pool = (
        ThreadPoolExecutor(
            max_workers=n_solves - 1, thread_name_prefix="grape-batch"
        )
        if n_solves > 1
        else None
    )
    try:
        while True:
            for state, initial_pulse, rng in zip(states, initial_pulses, rngs):
                state.skip_below_floor(model, config, initial_pulse, rng)
            wanted = {
                i: states[i].next_steps()
                for i in range(n_solves)
                if not states[i].done
            }
            if not wanted:
                break
            by_steps: Dict[int, List[int]] = {}
            for i, steps in wanted.items():
                by_steps.setdefault(steps, []).append(i)
            for steps in sorted(by_steps):
                indices = by_steps[steps]
                results = run_grape_batch(
                    [targets[i] for i in indices],
                    model,
                    steps,
                    config,
                    initial_pulses=[initial_pulses[i] for i in indices],
                    rngs=[rngs[i] for i in indices],
                    stats=stats,
                    _pool=pool,
                )
                for i, result in zip(indices, results):
                    states[i].absorb(result)
    finally:
        if pool is not None:
            pool.shutdown(wait=True)
    return [state.result() for state in states]
