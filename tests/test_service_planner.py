"""Batch planner: cross-request dedup, shared MST, balanced worker cuts."""

import pytest

from repro.core.partition import modelled_node_weights, node_weights_from_sequence
from repro.core.pipeline import AccQOC
from repro.core.simgraph import IDENTITY_VERTEX
from repro.grouping.dedup import dedupe_batch
from repro.perf.instrument import PerfRecorder
from repro.service.planner import CompilePlanner
from repro.utils.config import PipelineConfig
from repro.workloads import build_named, qft


@pytest.fixture(scope="module")
def pipeline():
    return AccQOC(PipelineConfig(policy_name="map2b4l"))


@pytest.fixture(scope="module")
def plan_two(pipeline):
    planner = CompilePlanner(pipeline)
    plan = planner.plan([build_named("4gt4-v0"), build_named("ex2")])
    return planner.cut(plan, plan.uncovered, 2)


def test_dedupe_batch_tracks_sharing(pipeline):
    _, g1 = pipeline.groups_of(qft(5))
    _, g2 = pipeline.groups_of(qft(6))
    batch = dedupe_batch([g1, g2])
    # qft_5's rotation angles are a subset of qft_6's: real sharing exists
    assert batch.n_shared > 0
    assert batch.merged.n_unique < len(batch.per_program[0].unique) + len(
        batch.per_program[1].unique
    )
    for key, programs in batch.programs_of.items():
        for p in programs:
            assert key in batch.per_program[p].index_of


def test_plan_uncovered_is_unique_and_nonvirtual(plan_two):
    keys = [g.key() for g in plan_two.uncovered]
    assert len(keys) == len(set(keys))
    from repro.qoc.estimator import LatencyEstimator

    for g in plan_two.uncovered:
        assert not LatencyEstimator.is_virtual_diagonal(g.matrix())
    for g in plan_two.trivial:
        assert LatencyEstimator.is_virtual_diagonal(g.matrix())


def test_worker_plans_cover_every_vertex_once(plan_two):
    seen = [i for p in plan_two.worker_plans for i in p.indices]
    assert sorted(seen) == list(range(len(plan_two.uncovered)))


def test_parts_follow_mst_compile_order(plan_two):
    order_pos = {v: i for i, v in enumerate(plan_two.sequence.order)}
    for part in plan_two.worker_plans:
        positions = [order_pos[v] for v in part.indices]
        assert positions == sorted(positions)


def test_library_coverage_shrinks_plan(pipeline, plan_two):
    planner = CompilePlanner(pipeline)
    replanned = planner.cut(plan_two, plan_two.uncovered[5:], 2)
    assert len(replanned.uncovered) == len(plan_two.uncovered) - 5
    seen = sorted(i for p in replanned.worker_plans for i in p.indices)
    assert seen == list(range(len(replanned.uncovered)))


def test_modelled_weights_promoted_from_example(pipeline, plan_two):
    """The library weight model must match what the example used to inline:
    cold base iterations at identity roots, warm-ratio-scaled elsewhere."""
    sequence, uncovered = plan_two.sequence, plan_two.uncovered
    model = pipeline.engine.iterations
    raw = node_weights_from_sequence(sequence, root_weight=1.0)
    expected = {}
    for vertex in sequence.order:
        base = model.base(uncovered[vertex].n_qubits)
        if sequence.parent[vertex] == IDENTITY_VERTEX:
            expected[vertex] = base
        else:
            expected[vertex] = base * model.warm_ratio(raw[vertex])
    assert modelled_node_weights(sequence, uncovered, model) == pytest.approx(
        expected
    )
    assert plan_two.weights == pytest.approx(expected)


def test_partition_balances_modelled_cost(pipeline):
    planner = CompilePlanner(pipeline)
    plan = planner.plan([build_named("qft_16")])
    plan = planner.cut(plan, plan.uncovered, 4)
    assert plan.serial_weight > 0
    assert plan.bottleneck <= plan.serial_weight
    # the min-max cut must beat a trivial all-on-one-worker split
    assert plan.modelled_speedup > 1.5


#: The weight-only tree cut's exact parts: (MST vertex indices, modelled
#: weight) per worker plan, for three batches and worker counts.
PINNED_CUTS = [
    (
        ("4gt4-v0", "ex2"),
        2,
        [
            ([11], 600.0),
            ([0, 14, 16, 28, 10, 19, 20, 1, 23, 25], 4488.456710674493),
            ([2, 3, 4, 5, 29, 6, 12, 13, 24, 17, 7, 8, 26], 5675.405845398161),
            ([9, 22, 21], 1595.1471862576143),
            ([27], 600.0),
            ([18, 15], 85.02943725152285),
        ],
    ),
    (
        ("qft_16",),
        3,
        [
            (
                [17, 16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 2, 1, 0],
                3821.0369641067755,
            ),
            ([4], 600.0),
            ([3], 60.0),
        ],
    ),
    (
        ("qft_16",),
        4,
        [
            ([17, 16, 15, 14, 13, 12, 11, 10], 1860.0045176592573),
            ([9, 8, 7, 6, 5, 2, 1, 0], 1961.0324464475184),
            ([4], 600.0),
            ([3], 60.0),
        ],
    ),
]


@pytest.mark.parametrize(
    "names, n_workers, expected",
    PINNED_CUTS,
    ids=["+".join(names) + f"@{k}" for names, k, _ in PINNED_CUTS],
)
def test_weight_only_cut_is_pinned(pipeline, names, n_workers, expected):
    planner = CompilePlanner(pipeline)
    plan = planner.plan([build_named(name) for name in names])
    plan = planner.cut(plan, plan.uncovered, n_workers)
    assert [p.indices for p in plan.worker_plans] == [
        indices for indices, _ in expected
    ]
    assert [p.weight for p in plan.worker_plans] == pytest.approx(
        [weight for _, weight in expected]
    )


def test_plan_perf_stages_recorded(pipeline):
    perf = PerfRecorder()
    planner = CompilePlanner(pipeline, perf=perf)
    planner.plan([qft(4)])
    names = set(perf.stages)
    assert {"plan.front_end", "plan.dedup"} <= names
    assert perf.counters["plan.programs"] == 1


def test_empty_uncovered_plan(pipeline):
    """A fully covered batch yields an empty partition, not a crash."""
    planner = CompilePlanner(pipeline)
    covered = planner.cut(planner.plan([qft(4)]), [], 2)
    assert covered.uncovered == []
    assert covered.worker_plans == []
    assert covered.modelled_speedup == 1.0
