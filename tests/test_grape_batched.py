"""Batched multi-pulse GRAPE: kernel agreement, driver parity, e2e determinism.

The contract under test: the batched path changes *where kernels run*,
never what a solve computes. Kernel rows agree with the serial
``infidelity_and_gradient`` to 1e-9 (machine precision in practice) for
every dimension/batch shape; ``run_grape_batch`` reproduces per-solve
``run_grape`` trajectories; the lockstep binary search matches the serial
search probe for probe; and a qft_16 batch through the service executor
meets the same 1e-4 target with iteration counts inside the documented
tolerance of the serial oracle — including warm store round-trips across
the two engines (the fingerprint deliberately excludes the batched flag).
"""

import numpy as np
import pytest

from repro.circuits.gates import Gate
from repro.grouping.group import GateGroup
from repro.qoc.binary_search import binary_search_latency
from repro.qoc.fidelity import infidelity_and_gradient
from repro.qoc.fidelity_batched import (
    _cumulative_products_batched,
    infidelity_and_gradient_batched,
)
from repro.qoc.grape import run_grape
from repro.qoc.grape_batched import (
    BatchStats,
    binary_search_latency_batched,
    run_grape_batch,
)
from repro.qoc.hamiltonian import ControlModel
from repro.utils.config import PhysicsConfig, RunConfig
from repro.utils.rng import derive_rng

AGREEMENT = 1e-9  # the documented serial/batched kernel tolerance


def _random_unitary(dim, rng):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _model(n_qubits):
    return ControlModel(n_qubits, PhysicsConfig())


# ----------------------------------------------------------------- kernel
@pytest.mark.parametrize("n_qubits", [1, 2, 3])
@pytest.mark.parametrize("n_solves", [1, 3, 8])
def test_kernel_agrees_with_serial(n_qubits, n_solves):
    """Row k of the batched kernel == the serial kernel on (amps[k], targets[k])."""
    model = _model(n_qubits)
    rng = derive_rng(f"batched-kernel:{n_qubits}:{n_solves}")
    n_steps = 7
    amps = rng.uniform(-1, 1, (n_solves, n_steps, model.n_controls))
    amps *= model.bounds()
    targets = np.stack([_random_unitary(model.dim, rng) for _ in range(n_solves)])
    costs, grads = infidelity_and_gradient_batched(
        amps, model, targets, model.physics.dt
    )
    assert costs.shape == (n_solves,)
    assert grads.shape == amps.shape
    for k in range(n_solves):
        cost, grad = infidelity_and_gradient(
            amps[k], model, targets[k], model.physics.dt
        )
        assert abs(costs[k] - cost) < AGREEMENT
        assert np.abs(grads[k] - grad).max() < AGREEMENT


def test_kernel_identical_targets_and_degenerate_slices():
    """A batch of identical targets with zero-amplitude slices exercises the
    degenerate-eigenvalue Daleckii-Krein limit; rows must still match the
    serial kernel (which hits the same limit) exactly."""
    model = _model(1)
    rng = derive_rng("batched-kernel-degenerate")
    target = _random_unitary(model.dim, rng)
    n_solves, n_steps = 4, 6
    amps = rng.uniform(-1, 1, (n_solves, n_steps, model.n_controls))
    amps *= model.bounds()
    amps[:, 2] = 0.0  # zero slice: fully degenerate eigenvalues at zero drift
    targets = np.stack([target] * n_solves)
    costs, grads = infidelity_and_gradient_batched(
        amps, model, targets, model.physics.dt
    )
    for k in range(n_solves):
        cost, grad = infidelity_and_gradient(
            amps[k], model, targets[k], model.physics.dt
        )
        assert abs(costs[k] - cost) < AGREEMENT
        assert np.abs(grads[k] - grad).max() < AGREEMENT
    assert np.isfinite(grads).all()


def test_kernel_shape_validation():
    model = _model(1)
    good_targets = np.stack([np.eye(2, dtype=complex)] * 2)
    with pytest.raises(ValueError):  # amps not (K, N, M)
        infidelity_and_gradient_batched(
            np.zeros((3, model.n_controls)), model, good_targets, 2.0
        )
    with pytest.raises(ValueError):  # K mismatch between amps and targets
        infidelity_and_gradient_batched(
            np.zeros((3, 4, model.n_controls)), model, good_targets, 2.0
        )
    with pytest.raises(ValueError):  # wrong control count
        infidelity_and_gradient_batched(
            np.zeros((2, 4, model.n_controls + 1)), model, good_targets, 2.0
        )


def test_cumulative_products_batched_matches_direct():
    rng = derive_rng("batched-cumprod")
    n_solves, n, d = 3, 11, 2
    steps = rng.normal(size=(n_solves, n, d, d)) + 1j * rng.normal(
        size=(n_solves, n, d, d)
    )
    out = _cumulative_products_batched(steps)
    for s in range(n_solves):
        acc = np.eye(d, dtype=complex)
        assert np.allclose(out[s, 0], acc)
        for k in range(n):
            acc = steps[s, k] @ acc
            assert np.allclose(out[s, k + 1], acc, atol=1e-10)


# ----------------------------------------------------------------- driver
def test_run_grape_batch_matches_serial_solves():
    """Each slot reaches the same optimum as its solo run_grape. The
    kernels agree to 1e-9 but not bit-for-bit (d=2 uses a closed-form
    eigendecomposition), so L-BFGS-B may take a slightly different path;
    the contract is same outcome, iterations within tolerance."""
    model = _model(1)
    rng = derive_rng("batched-driver-targets")
    config = RunConfig(max_iterations=60, binary_search_max_probes=6)
    n_steps = 8
    targets = [_random_unitary(2, rng) for _ in range(3)]
    rngs = [derive_rng(f"solve:{k}") for k in range(3)]
    batched = run_grape_batch(
        targets, model, n_steps, config,
        rngs=[derive_rng(f"solve:{k}") for k in range(3)],
    )
    for k, target in enumerate(targets):
        solo = run_grape(target, model, n_steps, config, rng=rngs[k])
        assert batched[k].converged == solo.converged
        assert batched[k].infidelity == pytest.approx(solo.infidelity, abs=1e-8)
        assert abs(batched[k].iterations - solo.iterations) <= max(
            5, 0.25 * solo.iterations
        )


def test_run_grape_batch_mixed_convergence_narrows():
    """A batch mixing easy and hopeless solves: the easy ones leave early
    (exact 1e-4 early exit, iterations matching their solo runs), the
    stream narrows, and the hopeless ones still run their full budget."""
    model = _model(1)
    rng = derive_rng("batched-mixed")
    config = RunConfig(max_iterations=40, target_infidelity=1e-4)
    n_steps = 8
    easy = [_random_unitary(2, rng) for _ in range(2)]
    # identity through a bounded-drive model converges almost immediately;
    # these seeds make the easy rows leave while the hard rows iterate
    hard = [np.eye(2, dtype=complex) for _ in range(2)]
    targets = easy + hard
    stats = BatchStats()
    rngs = [derive_rng(f"mixed:{k}") for k in range(4)]
    results = run_grape_batch(
        targets, model, n_steps, config,
        rngs=[derive_rng(f"mixed:{k}") for k in range(4)], stats=stats,
    )
    assert stats.narrowings >= 1
    assert stats.rounds > 0
    # widths never exceed the batch and only shrink as solves depart
    assert max(stats.widths) <= 4
    for k in range(4):
        solo = run_grape(targets[k], model, n_steps, config, rng=rngs[k])
        assert results[k].converged == solo.converged
        assert abs(results[k].iterations - solo.iterations) <= max(
            5, 0.25 * solo.iterations
        )
        if results[k].converged:
            assert results[k].infidelity <= config.target_infidelity


def test_run_grape_batch_honours_wall_budget():
    """A microscopic wall budget stops every solve via the same _Budget
    signal as run_grape — no solve runs past its deadline."""
    model = _model(1)
    rng = derive_rng("batched-budget")
    config = RunConfig(max_iterations=500, time_budget_s=0.0)
    targets = [_random_unitary(2, rng) for _ in range(3)]
    results = run_grape_batch(
        targets, model, 8, config,
        rngs=[derive_rng(f"budget:{k}") for k in range(3)],
    )
    for result in results:
        assert result.iterations <= 2  # stopped on the first recorded eval
        assert "budget" in result.message or not result.converged


def test_run_grape_batch_warm_start_matches_serial():
    """Warm pulses resample/clip per solve exactly as run_grape does."""
    model = _model(1)
    rng = derive_rng("batched-warm")
    config = RunConfig(max_iterations=30)
    target = _random_unitary(2, rng)
    cold = run_grape(target, model, 10, config, rng=derive_rng("warm-seed"))
    warm_batched = run_grape_batch(
        [target], model, 8, config, initial_pulses=[cold.pulse]
    )[0]
    warm_serial = run_grape(
        target, model, 8, config, initial_pulse=cold.pulse
    )
    assert warm_batched.converged == warm_serial.converged
    assert warm_batched.infidelity == pytest.approx(
        warm_serial.infidelity, abs=1e-8
    )
    assert abs(warm_batched.iterations - warm_serial.iterations) <= max(
        5, 0.25 * warm_serial.iterations
    )


def test_binary_search_batched_matches_serial():
    """K lockstep searches land on the same answer as the serial search:
    same best slice count and duration, same probe schedule, iterations
    within the documented tolerance."""
    model = _model(1)
    rng = derive_rng("batched-search-targets")
    config = RunConfig(max_iterations=60, binary_search_max_probes=6)
    targets = [_random_unitary(2, rng) for _ in range(4)]
    stats = BatchStats()
    batched = binary_search_latency_batched(
        targets, model, config, hi_steps=10,
        rngs=[derive_rng(f"search:{k}") for k in range(4)], stats=stats,
    )
    assert stats.rounds > 0
    for k, target in enumerate(targets):
        serial = binary_search_latency(
            target, model, config, hi_steps=10,
            rng=derive_rng(f"search:{k}"),
        )
        assert batched[k].best.n_steps == serial.best.n_steps
        assert batched[k].best.duration == serial.best.duration
        assert len(batched[k].probes) == len(serial.probes)
        assert abs(
            batched[k].total_iterations - serial.total_iterations
        ) <= max(10, 0.25 * serial.total_iterations)


def test_run_grape_batch_validates_inputs():
    model = _model(1)
    assert run_grape_batch([], model, 8) == []
    with pytest.raises(ValueError):
        run_grape_batch([np.eye(4)], model, 8)  # wrong dim for the model
    with pytest.raises(ValueError):
        run_grape_batch([np.eye(2)], model, 0)  # no slices
    with pytest.raises(ValueError):
        run_grape_batch(
            [np.eye(2)], model, 8, initial_pulses=[None, None]
        )  # length mismatch


# ------------------------------------------------------------------- e2e
def _qft16_records(run):
    from repro.core.cache import PulseLibrary
    from repro.core.engines import GrapeEngine
    from repro.core.pipeline import AccQOC
    from repro.service import CompilePlanner, WorkerPoolExecutor
    from repro.utils.config import PipelineConfig
    from repro.workloads import build_named

    config = PipelineConfig(policy_name="map2b4l")
    engine = GrapeEngine(config.physics, run)
    planner = CompilePlanner(AccQOC(config, engine=engine))
    plan = planner.plan([build_named("qft_16")])
    plan = planner.cut(plan, plan.uncovered, 2)
    executor = WorkerPoolExecutor(engine, backend="thread", n_workers=2)
    records = executor.run(plan, PulseLibrary())
    return plan, records


def test_qft16_batched_engine_meets_target_and_iteration_parity():
    """qft_16 uncovered groups through the service executor, both engines:
    every batched solve meets the same 1e-4 target the serial one does,
    and total iterations stay within the documented 25% tolerance (the
    1e-9 kernel reassociation can tip individual line searches, which is
    why exact bit-parity is only promised by the serial oracle itself)."""
    from repro.utils.config import PipelineConfig

    run = PipelineConfig().run.fast()
    plan_s, serial = _qft16_records(run)
    plan_b, batched = _qft16_records(run.batched())
    assert [g.key() for g in plan_s.uncovered] == [
        g.key() for g in plan_b.uncovered
    ]
    assert all(r.converged for r in serial)
    assert all(r.converged for r in batched)
    iters_s = sum(r.iterations for r in serial)
    iters_b = sum(r.iterations for r in batched)
    assert abs(iters_b - iters_s) <= 0.25 * iters_s, (
        f"batched {iters_b} vs serial {iters_s} iterations"
    )
    # latencies agree on the overwhelming majority of groups (documented:
    # reassociation may shift a borderline probe on isolated groups)
    matches = sum(
        1 for a, b in zip(serial, batched) if a.latency == b.latency
    )
    assert matches >= len(serial) - 2


def test_qft16_store_round_trip_across_engines(tmp_path):
    """Store interop: the engine fingerprint deliberately excludes the
    batched flag, so a serial-populated store warm-hits a batched service
    (and the batched store re-serves itself) with zero new solves."""
    from repro.core.engines import GrapeEngine
    from repro.service import CompileService, PulseStore
    from repro.utils.config import PipelineConfig
    from repro.workloads import build_named

    config = PipelineConfig(policy_name="map2b4l")
    run = config.run.fast()
    program = build_named("qft_16")
    root = str(tmp_path / "store")

    serial_engine = GrapeEngine(config.physics, run)
    cold = CompileService(
        PulseStore(root), config, engine=serial_engine,
        backend="thread", n_workers=2,
    ).submit_batch([program])
    assert cold.n_compiled > 0

    batched_engine = GrapeEngine(config.physics, run.batched())
    warm = CompileService(
        PulseStore(root), config, engine=batched_engine,
        backend="thread", n_workers=2,
    ).submit_batch([program])
    assert warm.n_compiled == 0
    assert warm.coverage_rate == 1.0
    assert warm.store_stats["puts"] == 0
