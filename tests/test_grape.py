"""GRAPE solver and latency binary search."""

import numpy as np
import pytest

from repro.circuits import Circuit
from repro.qoc.binary_search import binary_search_latency
from repro.qoc.fidelity import propagate
from repro.qoc.grape import run_grape
from repro.qoc.hamiltonian import ControlModel
from repro.utils.config import RunConfig


@pytest.fixture(scope="module")
def cfg():
    return RunConfig(max_iterations=400, time_budget_s=60.0)


@pytest.fixture(scope="module")
def model1():
    return ControlModel(1)


@pytest.fixture(scope="module")
def model2():
    return ControlModel(2)


def test_grape_converges_on_x_gate(cfg, model1):
    target = Circuit(1).add("x", 0).unitary()
    result = run_grape(target, model1, n_steps=8, config=cfg)
    assert result.converged
    assert result.infidelity <= cfg.target_infidelity
    # The returned pulse must actually implement the gate.
    check = propagate(result.pulse.amplitudes, model1, model1.physics.dt)
    from repro.qoc.fidelity import infidelity

    assert infidelity(check.u_total, target) <= cfg.target_infidelity * 1.01


def test_grape_converges_on_hadamard(cfg, model1):
    target = Circuit(1).add("h", 0).unitary()
    assert run_grape(target, model1, n_steps=8, config=cfg).converged


def test_grape_converges_on_cnot(cfg, model2):
    target = Circuit(2).add("cx", 0, 1).unitary()
    result = run_grape(target, model2, n_steps=24, config=cfg)
    assert result.converged


def test_grape_respects_amplitude_bounds(cfg, model2):
    target = Circuit(2).add("cx", 0, 1).unitary()
    result = run_grape(target, model2, n_steps=24, config=cfg)
    bounds = model2.bounds()
    assert np.all(np.abs(result.pulse.amplitudes) <= bounds[None, :] + 1e-12)


def test_grape_fails_when_latency_too_short(cfg, model2):
    # One 2 ns slice cannot realize a CNOT at these drive strengths.
    target = Circuit(2).add("cx", 0, 1).unitary()
    result = run_grape(target, model2, n_steps=1, config=cfg)
    assert not result.converged


def test_grape_rejects_bad_inputs(cfg, model2):
    with pytest.raises(ValueError):
        run_grape(np.eye(2), model2, n_steps=4, config=cfg)
    with pytest.raises(ValueError):
        run_grape(np.eye(4), model2, n_steps=0, config=cfg)


def test_warm_start_reduces_iterations(cfg, model2):
    """AccQOC's core claim: seeding from a similar pulse converges faster."""
    base = Circuit(2).add("cx", 0, 1).add("rz", 1, params=(0.20,)).unitary()
    similar = Circuit(2).add("cx", 0, 1).add("rz", 1, params=(0.25,)).unitary()
    cold = run_grape(base, model2, n_steps=26, config=cfg)
    assert cold.converged
    warm = run_grape(
        similar, model2, n_steps=26, config=cfg, initial_pulse=cold.pulse
    )
    assert warm.converged
    cold_similar = run_grape(similar, model2, n_steps=26, config=cfg)
    assert warm.function_evals <= cold_similar.function_evals


def test_grape_deterministic_given_seed(cfg, model1):
    target = Circuit(1).add("h", 0).unitary()
    a = run_grape(target, model1, n_steps=6, config=cfg)
    b = run_grape(target, model1, n_steps=6, config=cfg)
    assert a.iterations == b.iterations
    assert np.allclose(a.pulse.amplitudes, b.pulse.amplitudes)


# ------------------------------------------------------------- binary search
def test_binary_search_finds_minimal_latency(cfg, model1):
    target = Circuit(1).add("x", 0).unitary()
    search = binary_search_latency(target, model1, cfg, hi_steps=16)
    assert search.best.converged
    # Theoretical minimum: pi/(2*drive_max) ~ 8.3 ns -> 5 slices of 2 ns.
    assert search.best.n_steps <= 8
    assert search.best.n_steps >= 4


def test_binary_search_monotone_probes(cfg, model2):
    target = Circuit(2).add("cx", 0, 1).unitary()
    search = binary_search_latency(target, model2, cfg, hi_steps=48)
    assert search.best.converged
    # No converged probe may be shorter than the reported best.
    for probe in search.probes:
        if probe.converged:
            assert probe.n_steps >= search.best.n_steps
    assert search.total_iterations == sum(p.iterations for p in search.probes)


def test_binary_search_doubles_when_hi_too_small(cfg, model1):
    target = Circuit(1).add("x", 0).unitary()
    search = binary_search_latency(target, model1, cfg, hi_steps=1)
    assert search.best.converged  # found after doubling


def test_binary_search_reports_failure_gracefully(model2):
    starved = RunConfig(max_iterations=2, time_budget_s=5.0,
                        binary_search_max_probes=2)
    target = Circuit(2).add("cx", 0, 1).unitary()
    search = binary_search_latency(
        target, model2, starved, hi_steps=2, max_doublings=1
    )
    assert not search.best.converged
    assert search.probes
