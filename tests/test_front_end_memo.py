"""The content-keyed front-end memo: sharing, concurrency, immutability.

``AccQOC`` maps and groups each distinct program once and hands the same
``FrontEndResult`` and ``GateGroup`` objects to every later caller, across
batches. These tests pin what that sharing relies on.
"""

import hashlib
import sys
import threading

from repro.core.pipeline import AccQOC
from repro.service import CompileService, PulseStore
from repro.service.frontdoor import batch_summary
from repro.utils.config import PipelineConfig
from repro.workloads import build_named, qft

CONFIG = PipelineConfig(policy_name="map2b4l")


def test_same_content_shares_one_front_end():
    """Two separately built circuits with the same gates and different
    names get the same front end and the same groups."""
    pipeline = AccQOC(CONFIG)
    front_a, groups_a = pipeline.groups_of(qft(6, name="first"))
    front_b, groups_b = pipeline.groups_of(qft(6, name="second"))
    assert front_b is front_a
    assert groups_b is not groups_a  # a fresh list ...
    assert all(b is a for a, b in zip(groups_a, groups_b))  # ... of shared groups


def test_concurrent_lookups_agree():
    """More threads than cores look up the same programs, each in its own
    order, under a short switch interval: every thread gets the same front
    end and group keys per program, and the memo keeps one entry each."""
    pipeline = AccQOC(CONFIG)
    sizes = [3, 4, 5, 6]
    barrier = threading.Barrier(len(sizes))
    results = [None] * len(sizes)

    def lookup(slot):
        circuits = [qft(n, name=f"thread{slot}") for n in sizes[slot:] + sizes[:slot]]
        barrier.wait()
        results[slot] = {c.n_qubits: pipeline.groups_of(c) for c in circuits}

    threads = [threading.Thread(target=lookup, args=(i,)) for i in range(len(sizes))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for n in sizes:
        front, groups = results[0][n]
        for other in results[1:]:
            assert other[n][0] is front  # the first build to finish is kept
            assert [g.key() for g in other[n][1]] == [g.key() for g in groups]
    assert len(pipeline._memo) == len(sizes)


def _digest(front, groups) -> str:
    """Everything a later batch reads off a memoized front end."""
    h = hashlib.sha256()
    for circuit in (front.prepared, front.gate_based, front.mapping.circuit):
        h.update(repr((circuit.n_qubits, circuit.gates)).encode())
    mapping = front.mapping
    h.update(repr((
        sorted(mapping.initial_layout.items()), sorted(mapping.final_layout.items()),
        mapping.n_swaps, mapping.n_direction_fixes, front.topology, front.crosstalk,
    )).encode())
    for group in groups:
        h.update(repr((group.gates, group.qubits, group.node_indices)).encode())
        h.update(group.key())
        h.update(group.matrix().tobytes())
    return h.hexdigest()


def test_memoized_front_ends_are_never_mutated(tmp_path):
    """Cold and warm batches, precompile and compile all read the shared
    groups and front-end circuits; none of them may change one."""
    names = ["4gt4-v0", "adder_4"]
    service = CompileService(
        PulseStore(str(tmp_path / "store")), CONFIG, backend="thread", n_workers=2
    )
    pipeline = service.pipeline
    shared = [pipeline.groups_of(build_named(name)) for name in names]
    before = [_digest(front, groups) for front, groups in shared]

    cold = service.submit_batch([build_named(name) for name in names])
    assert cold.n_compiled > 0
    warm = service.submit_batch([build_named(name) for name in names])
    assert warm.n_compiled == 0
    pipeline.compile(build_named(names[0]))  # dynamic compile, empty library
    pipeline.precompile([build_named(name) for name in names], profile_all=True)
    pipeline.compile(build_named(names[1]))

    assert [_digest(front, groups) for front, groups in shared] == before
    for (front, groups), name in zip(shared, names):
        again, regrouped = pipeline.groups_of(build_named(name))
        assert again is front
        assert all(b is a for a, b in zip(groups, regrouped))


def test_batch_counts_front_end_hits(tmp_path):
    """The planner counts memo hits and misses into the batch's perf, and
    ``repro batch --json`` carries them."""
    service = CompileService(
        PulseStore(str(tmp_path / "store")), CONFIG, backend="serial", n_workers=1
    )
    cold = service.submit_batch([qft(4), qft(5)])
    assert cold.perf.counters["plan.front_end.misses"] == 2
    assert "plan.front_end.hits" not in cold.perf.counters
    warm = service.submit_batch([qft(5, name="again"), qft(4), qft(4)])
    counters = batch_summary(warm)["perf"]["counters"]
    assert counters["plan.front_end.hits"] == 3
    assert "plan.front_end.misses" not in counters
    assert warm.n_compiled == 0
