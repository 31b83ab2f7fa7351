"""Static pre-compilation, dynamic compilation and the service's chain
executor run one compile walk: group for group, they agree on the model
engine (latency and modelled iterations)."""

import pytest

from repro.core.cache import PulseLibrary
from repro.core.dynamic import AcceleratedCompiler
from repro.core.pipeline import AccQOC
from repro.core.precompile import StaticPrecompiler
from repro.grouping.dedup import dedupe_groups
from repro.service.executor import WorkerPoolExecutor
from repro.service.planner import CompilePlanner
from repro.utils.config import PipelineConfig
from repro.workloads import build_named

PROGRAMS = ("4gt4-v0", "ex2", "qft_10")


@pytest.fixture(scope="module")
def pipeline():
    return AccQOC(PipelineConfig())


@pytest.mark.parametrize("use_mst", [True, False])
@pytest.mark.parametrize("name", PROGRAMS)
def test_precompile_walk_is_dynamic_walk(pipeline, name, use_mst):
    _, groups = pipeline.groups_of(build_named(name))
    dedup = dedupe_groups(groups)
    built = StaticPrecompiler(pipeline.engine, use_mst=use_mst).build_library(
        dedup
    )
    dynamic = AcceleratedCompiler(
        pipeline.engine, use_mst=use_mst
    ).compile_uncovered(dedup.unique)
    assert built.total_iterations == dynamic.total_iterations
    for group, record in zip(dynamic.groups, dynamic.records):
        entry = built.library.lookup(group)
        assert (entry.latency, entry.iterations) == (
            record.latency,
            record.iterations,
        )


@pytest.mark.parametrize("name", PROGRAMS)
def test_chain_executor_walk_is_dynamic_walk(pipeline, name):
    planner = CompilePlanner(pipeline)
    plan = planner.plan([build_named(name)])
    cut = planner.cut(plan, plan.uncovered, 1)
    executor = WorkerPoolExecutor(pipeline.engine, backend="serial", warm="chain")
    served = executor.run(cut, PulseLibrary())
    dynamic = AcceleratedCompiler(pipeline.engine).compile_uncovered(cut.uncovered)
    assert [(r.latency, r.iterations) for r in served] == [
        (r.latency, r.iterations) for r in dynamic.records
    ]
