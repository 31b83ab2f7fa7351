"""Pulse library, coverage, engines."""

import numpy as np
import pytest

from repro.circuits import Circuit
from repro.circuits.gates import Gate
from repro.core.cache import LibraryEntry, PulseLibrary
from repro.core.engines import GrapeEngine, IterationModel, ModelEngine
from repro.grouping import GateGroup
from repro.qoc.fidelity import infidelity, propagate
from repro.qoc.hamiltonian import ControlModel
from repro.utils.config import RunConfig


def _cx_group(a=0, b=1):
    return GateGroup(gates=[Gate("cx", (a, b))])


def _entry(group, latency=40.0, pulse=None):
    return LibraryEntry(
        group=group, pulse=pulse, latency=latency, iterations=100, converged=True
    )


# -------------------------------------------------------------------- library
def test_library_add_lookup():
    lib = PulseLibrary()
    g = _cx_group()
    lib.add(_entry(g))
    assert g in lib
    assert lib.latency_of(g) == 40.0
    assert len(lib) == 1


def test_library_lookup_by_canonical_key():
    lib = PulseLibrary()
    lib.add(_entry(_cx_group(0, 1)))
    assert _cx_group(1, 0) in lib  # permuted wires, same canonical key


def test_library_latency_missing_raises():
    with pytest.raises(KeyError):
        PulseLibrary().latency_of(_cx_group())


def test_coverage_report():
    lib = PulseLibrary()
    lib.add(_entry(_cx_group()))
    h_group = GateGroup(gates=[Gate("h", (0,))])
    report = lib.coverage([_cx_group(), _cx_group(1, 0), h_group, h_group])
    assert report.n_groups == 4
    assert report.n_covered == 2
    assert report.rate == pytest.approx(0.5)
    assert len(report.uncovered_unique) == 1  # the two h groups dedupe


def test_coverage_empty_program():
    assert PulseLibrary().coverage([]).rate == 1.0


def test_pulse_for_permutes_wires():
    """A stored CX(0,1) pulse retrieved for a CX(1,0) group must implement
    the permuted unitary."""
    cfg = RunConfig(max_iterations=400, time_budget_s=60.0)
    engine = GrapeEngine(run=cfg)
    stored_group = _cx_group(0, 1)
    record = engine.compile_group(stored_group, seed_tag="libperm")
    assert record.converged
    lib = PulseLibrary()
    lib.add(_entry(stored_group, record.latency, record.pulse))
    query = _cx_group(1, 0)
    pulse = lib.pulse_for(query)
    assert pulse is not None
    model = ControlModel(2)
    realized = propagate(pulse.amplitudes, model, model.physics.dt).u_total
    assert infidelity(realized, query.matrix()) <= 2e-4


def test_library_serialization():
    lib = PulseLibrary()
    lib.add(_entry(_cx_group()))
    data = lib.to_dict()
    assert len(data["entries"]) == 1
    assert data["entries"][0]["latency"] == 40.0


# -------------------------------------------------------------------- engines
def test_model_engine_virtual_group_free():
    engine = ModelEngine()
    g = GateGroup(gates=[Gate("u1", (0,), (0.5,))])
    record = engine.compile_group(g)
    assert record.latency == 0.0
    assert record.iterations == 0


def test_model_engine_warm_cheaper_when_similar():
    engine = ModelEngine()
    g = _cx_group()
    similar = GateGroup(gates=[Gate("cx", (0, 1)), Gate("rz", (1,), (0.05,))])
    cold = engine.compile_group(g)
    warm = engine.compile_group(g, warm_source=similar)
    assert warm.iterations < cold.iterations


def test_model_engine_dissimilar_seed_hurts():
    engine = ModelEngine()
    g = _cx_group()
    far = GateGroup(gates=[Gate("swap", (0, 1)), Gate("h", (0,))])
    cold = engine.compile_group(g)
    warm = engine.compile_group(g, warm_source=far)
    assert warm.iterations >= cold.iterations * 0.9


def test_iteration_model_base_scaling():
    model = IterationModel()
    assert model.base(1) < model.base(2) < model.base(3) < model.base(5)


def test_iteration_model_warm_ratio_clipped():
    model = IterationModel()
    assert model.warm_ratio(0.0) == pytest.approx(model.r0)
    assert model.warm_ratio(10.0) == model.ratio_max


def test_model_engine_calibrate_iterations():
    engine = ModelEngine()
    engine.calibrate_iterations(((0.0, 0.4), (1.0, 1.2)))
    assert engine.iterations.r0 == pytest.approx(0.4, abs=1e-6)
    assert engine.iterations.r1 == pytest.approx(0.8, abs=1e-6)


def test_grape_engine_virtual_group_free():
    engine = GrapeEngine(run=RunConfig(max_iterations=50, time_budget_s=10))
    g = GateGroup(gates=[Gate("u1", (0,), (0.5,))])
    record = engine.compile_group(g)
    assert record.latency == 0.0 and record.iterations == 0


def test_grape_engine_compiles_single_qubit_group():
    engine = GrapeEngine(run=RunConfig(max_iterations=300, time_budget_s=30))
    g = GateGroup(gates=[Gate("h", (0,))])
    record = engine.compile_group(g, seed_tag="eng1q")
    assert record.converged
    assert record.latency > 0
    assert record.pulse is not None


def test_gate_tables_shared_between_engines():
    a = ModelEngine().gate_table()
    b = GrapeEngine().gate_table()
    assert a.durations == b.durations  # both are the calibrated baseline


def test_engine_spec_rebuilds_every_config_field():
    """An engine spec survives JSON and rebuilds an engine of the same
    kind with equal physics, estimator, run budget and iteration model,
    non-default fields included; an engine subclass has no spec."""
    import json
    from dataclasses import replace

    from repro.core.engines import engine_from_spec, engine_spec
    from repro.qoc.estimator import LatencyEstimator
    from repro.utils.config import PhysicsConfig

    physics = PhysicsConfig(dt=1.0)
    estimator = LatencyEstimator(physics, offset_2q=5.0, quantize=False)
    engines = [
        ModelEngine(physics, estimator, IterationModel(base_2q=300.0, r0=0.4)),
        GrapeEngine(physics, replace(RunConfig().fast(), cold_start_noise=0.2)),
    ]
    for engine in engines:
        rebuilt = engine_from_spec(json.loads(json.dumps(engine_spec(engine))))
        assert type(rebuilt) is type(engine)
        assert rebuilt.physics == engine.physics
        assert rebuilt.estimator == engine.estimator
        if isinstance(engine, GrapeEngine):
            assert rebuilt.run == engine.run
        else:
            assert rebuilt.iterations == engine.iterations

    class Subclass(ModelEngine):
        pass

    with pytest.raises(TypeError):
        engine_spec(Subclass())
