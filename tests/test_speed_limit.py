"""Speed-limit floor of the latency search: bound, soundness, identity.

A bisection probe at or below ``speed_limit_steps`` is recorded as failed
without running GRAPE. The floor must be sound (no solve at the floor
converges, cold or warm-started from the group's own best pulse), and
skipping must not change the search: with the floor forced to 0 every
search returns the same best slice count, pulse bytes and probe steps,
and spends exactly the skipped probes' iterations more.
"""

import numpy as np
import pytest

import repro.qoc.binary_search as binary_search
from repro.circuits import Circuit
from repro.circuits.gates import Gate
from repro.core.dynamic import AcceleratedCompiler
from repro.core.engines import GrapeEngine
from repro.core.pipeline import AccQOC
from repro.grouping.group import GateGroup
from repro.perf import PerfRecorder
from repro.qoc.binary_search import binary_search_latency, speed_limit_steps
from repro.qoc.estimator import LatencyEstimator
from repro.qoc.grape import run_grape
from repro.qoc.hamiltonian import ControlModel
from repro.service import CompileService
from repro.service.protocol import resolve_program
from repro.service.store import PulseStore
from repro.utils.config import PipelineConfig, RunConfig
from repro.utils.rng import derive_rng

FAST = RunConfig().fast()
EPS = FAST.target_infidelity
ISWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex
)


@pytest.fixture(scope="module")
def model2():
    return ControlModel(2)


@pytest.fixture(scope="module")
def two_qubit_groups():
    """Unique, non-virtual 2-qubit groups of qft_4 and adder_4."""
    pipeline = AccQOC(PipelineConfig())
    found = {}
    for name in ("qft_4", "adder_4"):
        _, groups = pipeline.groups_of(resolve_program(name))
        for group in groups:
            if group.n_qubits == 2 and not LatencyEstimator.is_virtual_diagonal(
                group.matrix()
            ):
                found.setdefault(group.key(), group)
    return list(found.values())


def _steps(search):
    return [probe.n_steps for probe in search.probes]


# ------------------------------------------------------------------ floors
def test_floors_of_named_gates(model2):
    cnot = Circuit(2).add("cx", 0, 1).unitary()
    swap = Circuit(2).add("swap", 0, 1).unitary()
    x = Circuit(1).add("x", 0).unitary()
    assert speed_limit_steps(cnot, model2, EPS) == 14
    assert speed_limit_steps(ISWAP, model2, EPS) == 30
    assert speed_limit_steps(swap, model2, EPS) == 46
    assert speed_limit_steps(x, ControlModel(1), EPS) == 2


def test_floor_is_zero_without_content_or_beyond_two_qubits(model2):
    assert speed_limit_steps(np.eye(4), model2, EPS) == 0
    assert speed_limit_steps(np.eye(2), ControlModel(1), EPS) == 0
    assert speed_limit_steps(np.eye(8), ControlModel(3), EPS) == 0


# --------------------------------------------------------------- soundness
def test_no_solve_at_the_floor_converges(two_qubit_groups, model2):
    """Cold and warm-started from the group's own best pulse, a fast solve
    at the floor never reaches the target. If this ever converges, widen
    the floor's margin; never loosen this test."""
    engine = GrapeEngine(run=FAST)
    checked = 0
    for i, group in enumerate(two_qubit_groups):
        target = group.matrix()
        floor = speed_limit_steps(target, model2, EPS)
        if floor == 0:
            continue
        best = engine.compile_group(group, seed_tag=f"floor:{i}")
        assert best.converged and best.latency > floor * model2.physics.dt
        cold = run_grape(
            target, model2, floor, FAST, rng=derive_rng(f"floor-cold:{i}")
        )
        warm = run_grape(target, model2, floor, FAST, initial_pulse=best.pulse)
        assert not cold.converged, (i, floor)
        assert not warm.converged, (i, floor)
        checked += 1
    assert checked >= 5


# ---------------------------------------------------------------- identity
def _search_pair(monkeypatch, target, model, **kwargs):
    """The search with its floor, then again with the floor forced to 0."""
    with_floor = binary_search_latency(
        target, model, FAST, rng=derive_rng("floor-identity"), **kwargs
    )
    with monkeypatch.context() as patch:
        patch.setattr(binary_search, "speed_limit_steps", lambda *args: 0)
        without = binary_search_latency(
            target, model, FAST, rng=derive_rng("floor-identity"), **kwargs
        )
    return with_floor, without


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_skipping_leaves_the_search_identical(monkeypatch, model2, warm):
    cnot = Circuit(2).add("cx", 0, 1).unitary()
    target = Circuit(2).add("cx", 0, 1).add("rz", 1, params=(0.4,)).unitary()
    kwargs = {"hi_steps": 28}
    if warm:
        seed = binary_search_latency(cnot, model2, FAST, hi_steps=28)
        kwargs["initial_pulse"] = seed.best.pulse
    with_floor, without = _search_pair(monkeypatch, target, model2, **kwargs)

    skipped = [i for i, p in enumerate(with_floor.probes) if p.skipped]
    assert skipped, "the search must reach below the floor"
    assert with_floor.probes_skipped == len(skipped)
    assert without.probes_skipped == 0
    assert _steps(with_floor) == _steps(without)
    assert with_floor.best.n_steps == without.best.n_steps
    assert with_floor.best.converged and without.best.converged
    assert (
        with_floor.best.pulse.amplitudes.tobytes()
        == without.best.pulse.amplitudes.tobytes()
    )
    assert all(with_floor.probes[i].iterations == 0 for i in skipped)
    assert not any(without.probes[i].converged for i in skipped)
    assert without.total_iterations - with_floor.total_iterations == sum(
        without.probes[i].iterations for i in skipped
    )


# ---------------------------------------------------------------- counters
def test_skipped_probes_are_counted_per_worker_and_per_dynamic_compile(tmp_path):
    service = CompileService(
        PulseStore(str(tmp_path / "store")),
        PipelineConfig(),
        engine=GrapeEngine(run=FAST),
        backend="serial",
    )
    batch = service.submit_batch([Circuit(2, name="cx").add("cx", 0, 1)])
    per_worker = {
        name: value
        for name, value in batch.perf.counters.items()
        if name.startswith("execute.worker") and name.endswith(".probes_skipped")
    }
    assert per_worker and sum(per_worker.values()) > 0

    groups = [
        GateGroup(
            gates=[Gate("cx", (0, 1)), Gate("rz", (1,), (angle,))],
            node_indices=(0, 1),
        )
        for angle in (0.2, 0.9)
    ]
    recorder = PerfRecorder()
    report = AcceleratedCompiler(GrapeEngine(run=FAST), perf=recorder).compile_uncovered(
        groups
    )
    skipped = sum(record.probes_skipped for record in report.records)
    assert skipped > 0
    assert recorder.counters["dynamic.probes_skipped"] == skipped
