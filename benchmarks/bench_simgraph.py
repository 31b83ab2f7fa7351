"""Regression bench for the similarity-graph hot path.

Times the batched (Gram-matrix) ``build_similarity_graph`` against the
per-pair reference at the acceptance point (64 four-dimensional groups) and
at a larger scale. The committed baselines live in PERF.md; compare runs
with ``pytest benchmarks/bench_simgraph.py --benchmark-only``. Quick mode
(the CI benches job): add ``--benchmark-disable`` — every bench still
executes and checks correctness, nothing is timed.
"""

import numpy as np

from repro.core.simgraph import (
    build_similarity_graph,
    build_similarity_graph_pairwise,
    prim_compile_sequence,
)
from repro.perf.hotpaths import random_cx_rz_groups


def _groups(n, tag="bench-simgraph"):
    return random_cx_rz_groups(n, tag)


def test_simgraph_batched_64_groups(benchmark):
    """The acceptance point: 64 four-dim groups, fidelity1."""
    groups = _groups(64)
    graph = benchmark(build_similarity_graph, groups, "fidelity1")
    reference = build_similarity_graph_pairwise(groups, "fidelity1")
    assert np.allclose(graph.weights, reference.weights, atol=1e-9)
    assert np.allclose(graph.identity_row, reference.identity_row, atol=1e-9)


def test_simgraph_pairwise_64_groups(benchmark):
    """The pre-vectorization baseline at the same point (for the ratio)."""
    groups = _groups(64)
    graph = benchmark(build_similarity_graph_pairwise, groups, "fidelity1")
    assert graph.n_groups == 64


def test_simgraph_batched_64_groups_l2(benchmark):
    """Entrywise family: the phase-aligned blocked reduction path."""
    groups = _groups(64)
    graph = benchmark(build_similarity_graph, groups, "l2")
    reference = build_similarity_graph_pairwise(groups, "l2")
    assert np.allclose(graph.weights, reference.weights, atol=1e-9)


def test_simgraph_batched_256_groups(benchmark):
    """Scaling headroom: 256 groups = ~32k pairwise weights."""
    groups = _groups(256, "bench-simgraph-256")
    graph = benchmark(build_similarity_graph, groups, "fidelity1")
    assert np.isfinite(graph.weights).all()


def test_graph_plus_prim_end_to_end(benchmark):
    """Full compile-sequence extraction (graph + vectorized Prim)."""
    groups = _groups(128, "bench-simgraph-prim")

    def run():
        return prim_compile_sequence(build_similarity_graph(groups, "fidelity1"))

    sequence = benchmark(run)
    assert sorted(sequence.order) == list(range(128))
