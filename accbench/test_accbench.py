"""Tests of the benchmark's own helpers.

    python3 -m pytest accbench/test_accbench.py -q
"""

import json
import os
import socketserver
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from accbench import checks, inputs, trace  # noqa: E402
from accbench.client import (  # noqa: E402
    ERROR, LOST, OK, PHYSICS, SHED, WRONG, Reply, Tally, classify, closed_loop,
    percentile, samples_beyond, tail_is_reportable,
)
from accbench.run import END_TO_END, EXPECTED  # noqa: E402


def _expected():
    with open(EXPECTED) as handle:
        return json.load(handle)


# -------------------------------------------------------------- percentiles
def test_percentile_matches_numpy_linear_rule():
    rng = np.random.default_rng(5)
    values = list(rng.exponential(size=237))
    for q in (0, 12.5, 50, 95, 99, 100):
        assert percentile(values, q) == pytest.approx(np.percentile(values, q), rel=1e-12)
    assert percentile([3.0], 95) == 3.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_tail_needs_ten_samples_beyond_it():
    assert samples_beyond(200, 95) == 10 and tail_is_reportable(200, 95)
    assert samples_beyond(199, 95) == 9 and not tail_is_reportable(199, 95)
    assert tail_is_reportable(20, 50) and not tail_is_reportable(12, 50)


# ------------------------------------------------------- failure accounting
class _FakeFrontDoor(socketserver.StreamRequestHandler):
    """Answers by program name: ok / error / shed / hang up."""

    def handle(self):
        for raw in self.rfile:
            request = json.loads(raw)
            name = request["name"]
            if name == "drop":
                return
            if name == "err":
                reply = {"id": request["id"], "ok": False, "error": "boom"}
            elif name == "shed":
                reply = {"id": request["id"], "ok": False, "error": "overloaded",
                         "overloaded": True, "retry_after_s": 0.1}
            else:
                reply = {"id": request["id"], "ok": True, "n_groups": 3, "n_unique": 2,
                         "overall_latency_ns": 10.0, "gate_based_latency_ns": 20.0}
            self.wfile.write((json.dumps(reply) + "\n").encode())
            self.wfile.flush()


@pytest.fixture
def front_door():
    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), _FakeFrontDoor)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


def test_each_failure_kind_counts_exactly_once(front_door):
    names = ["good", "err", "shed", "liar", "drop"]
    tally = closed_loop(front_door, [inputs.Request(n) for n in names], clients=1, timeout_s=10)
    assert [r.status for r in tally.replies] == [OK, ERROR, SHED, OK, LOST]
    expected = {name: {"n_groups": 3, "n_unique": 2, "overall_latency_ns": 10.0,
                       "gate_based_latency_ns": 20.0} for name in ("good", "liar")}
    expected["liar"]["overall_latency_ns"] = 11.0
    problems = checks.check_expected(tally, expected, checks.MODEL_FIELDS)
    assert len(problems) == 1
    tally.mark(1, PHYSICS)  # an already-failed request keeps its first status
    assert tally.attempted == 5
    assert tally.failed == 4
    assert tally.counts() == {OK: 1, ERROR: 1, SHED: 1, LOST: 1, WRONG: 1, PHYSICS: 0}


def test_requests_after_a_dropped_connection_are_lost(front_door):
    names = ["good", "drop", "good", "good"]
    tally = closed_loop(front_door, [inputs.Request(n) for n in names], clients=1, timeout_s=10)
    assert [r.status for r in tally.replies] == [OK, LOST, LOST, LOST]
    assert classify(None) == LOST and classify({"ok": True}) == OK


# ----------------------------------------------------------------- wrappers
class _Base:
    def inherited(self, x):
        return ("base", x)


_BOOM = KeyError("boom")


class _Owner(_Base):
    def own(self, x, y=1):
        if x < 0:
            raise _BOOM
        return [x, y]


def test_wrappers_keep_results_and_exceptions_and_restore():
    tracer = trace.Tracer()
    own, inherited = _Owner.own, _Owner.inherited
    with trace.Patches() as patches:
        patches.replace(_Owner, "own", tracer.wrap("a", own))
        patches.replace(_Owner, "inherited", tracer.wrap("b", inherited))
        obj = _Owner()
        assert obj.own(2, y=5) == [2, 5]
        assert obj.inherited(7) == ("base", 7)
        with pytest.raises(KeyError) as caught:
            obj.own(-1)
        assert caught.value is _BOOM
        assert _Owner.own is not own
    assert _Owner.own is own
    assert "inherited" not in vars(_Owner) and _Owner.inherited is inherited
    assert [s.layer for s in tracer.spans] == ["a", "b", "a"]


def test_nested_spans_give_self_time_and_outermost_calls():
    tracer = trace.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(1000)))
    middle = tracer.wrap("outer", lambda: inner() + inner())
    top = tracer.wrap("outer", lambda: middle())
    top()
    inners = [s for s in tracer.spans if s.layer == "inner"]
    mid, outer = [s for s in tracer.spans if s.layer == "outer"]  # finish order
    assert [mid.outermost(), outer.outermost()] == [False, True]
    assert all(s.parent is mid for s in inners)
    assert mid.child_s == pytest.approx(sum(s.duration for s in inners))
    assert outer.child_s == pytest.approx(mid.duration)


def test_install_patches_every_probe_and_restores_it():
    from repro.service import PulseStore

    originals = {}
    for probe in trace.PROBES:
        owner = trace._resolve(probe.owner)
        for name in probe.names:
            originals[(owner, name)] = vars(owner)[name]
    store_originals = {name: vars(PulseStore).get(name) for name in trace.STORE_METHODS}
    patches = trace.install(trace.Tracer(), PulseStore)
    try:
        for (owner, name), original in originals.items():
            assert vars(owner)[name] is not original, name
    finally:
        patches.restore()
    for (owner, name), original in originals.items():
        assert vars(owner)[name] is original, name
    assert {name: vars(PulseStore).get(name) for name in trace.STORE_METHODS} == store_originals


# ------------------------------------------------------------------- checks
def test_expected_answer_check_fires_on_a_perturbed_answer():
    want = _expected()["model"]["qft_6"]
    payload = {"ok": True, **want}
    assert checks.answer_mismatch(payload, want, checks.MODEL_FIELDS) is None
    for field, bump in (("overall_latency_ns", 1e-6), ("n_groups", 1), ("n_unique", -1)):
        perturbed = dict(payload)
        perturbed[field] = want[field] * (1 + bump) if isinstance(want[field], float) else want[field] + bump
        assert field in checks.answer_mismatch(perturbed, want, checks.MODEL_FIELDS)


def test_census_marks_the_minority_answer():
    good = {"ok": True, "n_groups": 3, "n_unique": 2, "overall_latency_ns": 10.0,
            "gate_based_latency_ns": 20.0}
    bad = dict(good, overall_latency_ns=9.0)
    tally = Tally([Reply(i, inputs.Request("p"), OK, 0.1, p) for i, p in enumerate([good, bad, good])])
    assert len(checks.check_census(tally)) == 1
    assert [r.status for r in tally.replies] == [OK, WRONG, OK]


def test_physics_check_flags_a_pulse_that_misses_its_target():
    from repro.qoc.hamiltonian import ControlModel
    from repro.utils.config import PhysicsConfig

    physics = PhysicsConfig()
    model = ControlModel(1, physics)
    amplitudes = np.zeros((4, model.n_controls))
    u = checks.propagate_expm(amplitudes, model.drift_and_controls(), physics.dt)

    def entry(target):
        group = SimpleNamespace(n_qubits=1, matrix=lambda: target, key=lambda: target.tobytes())
        pulse = SimpleNamespace(amplitudes=amplitudes, dt=physics.dt)
        return SimpleNamespace(pulse=pulse, converged=True, group=group)

    x_gate = np.array([[0, 1], [1, 0]], dtype=complex)
    assert checks.failing_pulses([entry(u)], physics, 1e-4) == []
    assert checks.failing_pulses([entry(x_gate)], physics, 1e-4) == [x_gate.tobytes()]


# ------------------------------------------------------------------- inputs
def test_qasm_generator_is_a_pure_function_of_the_seed():
    from repro.circuits.qasm import parse_qasm

    assert inputs.random_qasm(3, 7) == inputs.random_qasm(3, 7)
    assert inputs.random_qasm(3, 7) != inputs.random_qasm(4, 7)
    circuit = parse_qasm(inputs.random_qasm(3, 7))
    assert circuit.n_qubits == inputs.QASM_QUBITS and len(circuit) == inputs.QASM_GATES
    first = inputs.remote_churn_requests(9, 40)
    assert first == inputs.remote_churn_requests(9, 40)
    assert sum(1 for r in first if r.qasm is not None) == 10


def test_digest_mismatch_fails_loudly():
    pinned = _expected()["digests"]
    passes = inputs.passes_for("remote-churn", inputs.DEFAULT_SEED, 2)
    assert "qft_6" in inputs.check_digests(passes, inputs.DEFAULT_SEED, pinned)
    broken = json.loads(json.dumps(pinned))
    broken["named"]["qft_6"] = "0" * 64
    with pytest.raises(inputs.InputDigestError):
        inputs.check_digests(passes, inputs.DEFAULT_SEED, broken)
    broken = dict(pinned, qasm_default="0" * 64)
    with pytest.raises(inputs.InputDigestError):
        inputs.check_digests(passes, inputs.DEFAULT_SEED, broken)


def test_benchmark_json_names_what_the_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    catalog = trace.per_layer_catalog()
    assert [m["name"] for m in spec["per_layer"]] == list(catalog)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: v[0] for k, v in catalog.items()}
    assert {w["name"] for w in spec["workloads"]} == {"cold-grape", "remote-churn"}
