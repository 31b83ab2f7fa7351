"""Ablation: how much of the compile-time win comes from each mechanism.

Compares, on the same uncovered-group set: (a) standard per-group cold
compilation, (b) MST-ordered warm starts (AccQOC dynamic compilation),
(c) MST + pre-compiled library seeds. These are the paper's two
acceleration mechanisms (Sec I: warm starts from the most similar stored
pulse, and the MST compile order); this bench separates their shares.
"""

from benchmarks.conftest import run_once
from repro.core import AccQOC, AcceleratedCompiler, ModelEngine
from repro.grouping import dedupe_groups
from repro.utils.config import PipelineConfig
from repro.workloads import qft, small_suite


def _setup():
    acc = AccQOC(PipelineConfig(policy_name="map2b4l"))
    acc.precompile(small_suite(4))
    _, groups = acc.groups_of(qft(13))
    coverage = acc.library.coverage(groups)
    return acc, coverage.uncovered_unique


def _ablate():
    acc, uncovered = _setup()
    engine = ModelEngine()
    cold = AcceleratedCompiler(engine, use_mst=False).compile_uncovered(uncovered)
    mst = AcceleratedCompiler(engine, use_mst=True).compile_uncovered(uncovered)
    seeded = AcceleratedCompiler(engine, use_mst=True).compile_uncovered(
        uncovered, acc.library
    )
    return {
        "n_groups": len(uncovered),
        "cold": cold.total_iterations,
        "mst": mst.total_iterations,
        "mst+library": seeded.total_iterations,
    }


def test_ablation_mst(benchmark):
    result = run_once(benchmark, _ablate)
    print()
    for key, value in result.items():
        print(f"  {key:12s}: {value}")
    assert result["mst"] < result["cold"]
    assert result["mst+library"] <= result["mst"]
