"""Perf subsystem: recorder semantics, report serialization, pipeline wiring."""

import sys
import threading

import numpy as np
import pytest

from repro.perf import PerfRecorder, PerfReport, StageStat, recorder_or_null
from repro.perf.report import PerfReport as ReportAlias


def test_stage_accumulates_calls_and_time():
    clock_values = iter([0.0, 1.0, 1.0, 3.5])
    recorder = PerfRecorder(clock=lambda: next(clock_values))
    with recorder.stage("work"):
        pass
    with recorder.stage("work"):
        pass
    stat = recorder.stages["work"]
    assert stat.calls == 2
    assert stat.total_s == pytest.approx(3.5)
    assert stat.mean_s == pytest.approx(1.75)


def test_stage_records_on_exception():
    clock_values = iter([0.0, 2.0])
    recorder = PerfRecorder(clock=lambda: next(clock_values))
    with pytest.raises(RuntimeError):
        with recorder.stage("boom"):
            raise RuntimeError("inner failure")
    assert recorder.stages["boom"].total_s == pytest.approx(2.0)


def test_counters_accumulate():
    recorder = PerfRecorder()
    recorder.count("iterations", 10)
    recorder.count("iterations", 5)
    recorder.count("groups")
    assert recorder.counters == {"iterations": 15, "groups": 1}


def test_concurrent_updates_are_exact():
    """Store stats are read back from the recorder, so no update may be
    lost when batch threads count at once."""
    recorder = PerfRecorder()
    n_threads, n_calls = 8, 20_000
    barrier = threading.Barrier(n_threads)

    def hammer():
        barrier.wait()
        for _ in range(n_calls):
            recorder.count("x")
            recorder.record("s", 0.5)

    threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, mid-update if racy
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert recorder.counters["x"] == n_threads * n_calls
    assert recorder.stages["s"].calls == n_threads * n_calls
    assert recorder.stages["s"].total_s == 0.5 * n_threads * n_calls
    assert recorder.read_counters("", ["x", "never"]) == {
        "x": n_threads * n_calls,
        "never": 0,
    }


def test_report_snapshot_is_independent():
    recorder = PerfRecorder()
    recorder.record("stage", 1.0)
    report = recorder.report("snap")
    recorder.record("stage", 1.0)
    assert report.stage("stage").calls == 1
    assert recorder.stages["stage"].calls == 2


def test_report_json_round_trip():
    report = PerfReport(
        label="demo",
        stages=[StageStat(name="a", calls=3, total_s=0.25)],
        counters={"iters": 7},
    )
    restored = ReportAlias.from_json(report.to_json())
    assert restored.label == "demo"
    assert restored.stage("a").calls == 3
    assert restored.stage("a").total_s == pytest.approx(0.25)
    assert restored.counters == {"iters": 7}


def test_report_total_seconds_counts_top_level_only():
    report = PerfReport(
        stages=[
            StageStat(name="dynamic", calls=1, total_s=2.0),
            StageStat(name="dynamic.solve", calls=4, total_s=1.9),
            StageStat(name="front_end", calls=1, total_s=0.5),
        ]
    )
    assert report.total_seconds() == pytest.approx(2.5)


def test_report_format_table_and_missing_stage():
    report = PerfReport(
        label="t", stages=[StageStat(name="s", calls=1, total_s=0.001)],
        counters={"c": 2},
    )
    text = report.format_table()
    assert "s" in text and "c = 2" in text
    with pytest.raises(KeyError):
        report.stage("missing")


def test_recorder_or_null_passthrough():
    recorder = PerfRecorder()
    assert recorder_or_null(recorder) is recorder
    sentinel = recorder_or_null(None)
    with sentinel.stage("ignored"):
        pass  # must not raise


def test_compiled_program_carries_perf_breakdown():
    from repro.core.pipeline import AccQOC
    from repro.workloads import qft

    compiled = AccQOC().compile(qft(3))
    assert compiled.perf is not None
    names = {s.name for s in compiled.perf.stages}
    assert {"front_end", "dedup", "coverage", "latency"} <= names
    if compiled.coverage.uncovered_unique:
        assert "dynamic" in names
        assert "dynamic.simgraph" in names
        assert compiled.perf.counters.get("dynamic.groups", 0) > 0
    assert compiled.perf.counters["groups"] == len(compiled.groups)
    # The breakdown serializes (regression dashboards consume this).
    assert PerfReport.from_json(compiled.perf.to_json()).counters == (
        compiled.perf.counters
    )


def test_dynamic_compiler_perf_stages():
    from repro.core.dynamic import AcceleratedCompiler
    from repro.core.engines import ModelEngine
    from repro.grouping.group import GateGroup
    from repro.circuits.gates import Gate
    from repro.utils.config import PhysicsConfig
    from repro.utils.rng import derive_rng

    rng = derive_rng("perf-dyn")
    groups = []
    for i in range(4):
        angle = float(rng.uniform(0, 3))
        groups.append(
            GateGroup(
                gates=[Gate("cx", (0, 1)), Gate("rz", (1,), (angle,))],
                node_indices=(2 * i, 2 * i + 1),
            )
        )
    recorder = PerfRecorder()
    compiler = AcceleratedCompiler(
        ModelEngine(PhysicsConfig()), use_mst=True, perf=recorder
    )
    report = compiler.compile_uncovered(groups)
    assert len(report.records) == 4
    assert recorder.stages["dynamic.simgraph"].calls == 1
    assert recorder.stages["dynamic.solve"].calls == 4
    assert recorder.counters["dynamic.groups"] == 4
    assert recorder.counters["dynamic.iterations"] == report.total_iterations
