"""The Algorithm 3 schedule memo: a front end prices its own groups from the
group DAG and gate-based latency it computed once, and anything else from
scratch, to the same bits."""

import dataclasses

import numpy as np
import pytest

from repro.core.pipeline import AccQOC, program_latencies
from repro.grouping.group import GateGroup
from repro.latency import schedule
from repro.latency.schedule import overall_latency
from repro.utils.config import PipelineConfig
from repro.workloads import small_suite

CONFIG = PipelineConfig(policy_name="map2b4l")


@pytest.fixture(scope="module")
def fronts():
    pipeline = AccQOC(CONFIG)
    return pipeline, [pipeline.groups_of(c) for c in small_suite()]


@pytest.fixture
def dag_builds(monkeypatch):
    """How many group DAGs get built: the memo builds none per pricing."""
    calls = []
    real = schedule.group_dag

    def counting(circuit, groups):
        calls.append(len(groups))
        return real(circuit, groups)

    monkeypatch.setattr(schedule, "group_dag", counting)
    return calls


def _random_latencies(groups, seed):
    keys = sorted({g.key() for g in groups})
    draws = np.random.default_rng(seed).uniform(0.5, 250.0, len(keys))
    return {key: float(x) for key, x in zip(keys, draws)}


def _from_scratch(front, groups, latencies, engine):
    return (
        overall_latency(front.prepared, groups, lambda g: latencies[g.key()]),
        engine.gate_table().circuit_latency(front.gate_based),
    )


def test_memoized_groups_price_like_a_fresh_schedule(fronts, dag_builds):
    pipeline, programs = fronts
    for index, (front, groups) in enumerate(programs):
        for draw in range(2):  # the memo holds no latency
            latencies = _random_latencies(groups, 100 * index + draw)
            del dag_builds[:]
            got = program_latencies(front, groups, latencies, pipeline.engine)
            assert dag_builds == []  # the memo's DAG, not a new one
            assert got == _from_scratch(front, groups, latencies, pipeline.engine)


def test_foreign_group_lists_are_scheduled_from_scratch(fronts, dag_builds):
    pipeline, programs = fronts
    for index, (front, groups) in enumerate(programs):
        singletons = [
            GateGroup(gates=[gate], node_indices=(node,))
            for node, gate in enumerate(front.prepared)
        ]
        copied = list(groups)
        copied[0] = dataclasses.replace(groups[0])
        latencies = _random_latencies(groups + singletons, index)
        cases = (
            (singletons, True),  # another DAG over the same circuit
            (copied, True),  # one group an equal copy, not the memo's
            (list(groups), False),  # the memo's groups in a fresh list
        )
        for other, from_scratch in cases:
            expected = _from_scratch(front, other, latencies, pipeline.engine)
            del dag_builds[:]
            got = program_latencies(front, other, latencies, pipeline.engine)
            assert len(dag_builds) == int(from_scratch)
            assert got == expected


def test_other_gate_table_is_priced_from_scratch(fronts):
    pipeline, programs = fronts
    table = pipeline.engine.gate_table()
    slower = dataclasses.replace(
        table, durations={k: 2 * v for k, v in table.durations.items()}
    )

    class _Engine:
        def gate_table(self):
            return slower

    for front, groups in programs:
        latencies = _random_latencies(groups, 7)
        _, gate_based = program_latencies(front, groups, latencies, _Engine())
        assert gate_based == slower.circuit_latency(front.gate_based)
        if front.gate_based_latency > 0:
            assert gate_based != front.gate_based_latency
