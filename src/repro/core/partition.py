"""Balanced MST partitioning for parallel compilation (paper Sec V-D).

The paper shifts each MST edge's weight onto the newly-added endpoint (the
root gets a weight proportional to training from the identity) and calls
METIS to split the tree into balanced connected parts, one per worker.

METIS is not available offline; partitioning a *tree* into <= k connected
components minimizing the maximum part weight is solvable directly:
binary-search the bottleneck capacity B and greedily cut any subtree whose
accumulated weight would exceed B (the classic tree-partition argument).
This is exactly the min-max objective the paper uses METIS for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.simgraph import IDENTITY_VERTEX, CompileSequence


@dataclass
class TreePartition:
    """Assignment of MST vertices to workers."""

    parts: List[List[int]]  # vertex lists, one per worker (compile order kept)
    part_weights: List[float]
    bottleneck: float  # max part weight = parallel makespan proxy

    @property
    def n_parts(self) -> int:
        return len(self.parts)


def node_weights_from_sequence(
    sequence: CompileSequence, root_weight: float = 1.0
) -> Dict[int, float]:
    """Shift MST edge weights onto nodes (paper Fig 9 b->c).

    Every vertex carries the weight of the edge that connected it to the
    tree; vertices attached directly to the identity carry ``root_weight``
    (proportional to the cost of training from the identity matrix).
    """
    weights: Dict[int, float] = {}
    for vertex in sequence.order:
        if sequence.parent[vertex] == IDENTITY_VERTEX:
            weights[vertex] = root_weight
        else:
            weights[vertex] = sequence.parent_weight[vertex]
    return weights


def modelled_node_weights(
    sequence: CompileSequence,
    groups: Sequence,
    iteration_model,
    root_weight: float = 1.0,
) -> Dict[int, float]:
    """Node weights in *modelled optimizer iterations* (paper Sec V-D).

    Roots (identity-attached vertices) cost a cold solve, ``base(n_qubits)``;
    tree children cost the warm-started fraction of the same base, with the
    warm ratio driven by the MST edge weight to the parent. ``iteration_model``
    is duck-typed (``base(n_qubits)`` + ``warm_ratio(distance)``), i.e. any
    :class:`repro.core.engines.IterationModel`-shaped object.
    """
    raw = node_weights_from_sequence(sequence, root_weight=root_weight)
    weights: Dict[int, float] = {}
    for vertex in sequence.order:
        base = iteration_model.base(groups[vertex].n_qubits)
        if sequence.parent[vertex] == IDENTITY_VERTEX:
            weights[vertex] = base
        else:
            weights[vertex] = base * iteration_model.warm_ratio(raw[vertex])
    return weights


def partition_tree(
    sequence: CompileSequence,
    node_weights: Dict[int, float],
    n_parts: int,
) -> TreePartition:
    """Split the MST into <= ``n_parts`` connected parts, min-max weight.

    Parts are connected in the *forest* sense: a part is a set of vertices
    whose induced subgraph of MST edges is connected, except that cutting an
    edge makes the child subtree a new part rooted at that child (which then
    trains its root from the identity, the "soft dependency" of Sec V-D).
    """
    vertices = list(sequence.order)
    if not vertices:
        return TreePartition(parts=[], part_weights=[], bottleneck=0.0)
    if n_parts < 1:
        raise ValueError("n_parts must be >= 1")

    children: Dict[int, List[int]] = {v: [] for v in vertices}
    roots: List[int] = []
    for v in vertices:
        p = sequence.parent[v]
        if p == IDENTITY_VERTEX:
            roots.append(v)
        else:
            children[p].append(v)

    total = sum(node_weights[v] for v in vertices)
    max_single = max(node_weights[v] for v in vertices)
    lo, hi = max_single, total
    best_cut: Dict[int, bool] = {}
    for _ in range(60):
        mid = (lo + hi) / 2.0
        parts_needed, cuts = _greedy_cut(roots, children, node_weights, mid)
        if parts_needed <= n_parts:
            best_cut = cuts
            hi = mid
        else:
            lo = mid
        if hi - lo < 1e-9 * max(total, 1.0):
            break
    if not best_cut:
        # Even one part per vertex may exceed n_parts when the tree has more
        # roots than workers; fall back to capacity = total (single pass).
        _, best_cut = _greedy_cut(roots, children, node_weights, total)

    return _collect_parts(vertices, sequence, best_cut, node_weights)


def _greedy_cut(
    roots: Sequence[int],
    children: Dict[int, List[int]],
    node_weights: Dict[int, float],
    capacity: float,
) -> Tuple[int, Dict[int, bool]]:
    """Bottom-up greedy: cut a child edge when the subtree weight overflows.

    Returns (number of parts, cut[v] = True when the edge parent->v is cut).
    """
    cuts: Dict[int, bool] = {}
    n_parts = 0
    subtree_weight: Dict[int, float] = {}
    for root in roots:
        # Iterative post-order.
        stack = [(root, False)]
        while stack:
            vertex, processed = stack.pop()
            if not processed:
                stack.append((vertex, True))
                for child in children[vertex]:
                    stack.append((child, False))
                continue
            weight = node_weights[vertex]
            # Heaviest-first keeps light children together under the cap.
            for child in sorted(
                children[vertex], key=lambda c: -subtree_weight[c]
            ):
                if weight + subtree_weight[child] > capacity:
                    cuts[child] = True
                    n_parts += 1  # the child subtree becomes its own part
                else:
                    cuts[child] = False
                    weight += subtree_weight[child]
            subtree_weight[vertex] = weight
        n_parts += 1  # the root's own part
    return n_parts, cuts


def _collect_parts(
    vertices: Sequence[int],
    sequence: CompileSequence,
    cuts: Dict[int, bool],
    node_weights: Dict[int, float],
) -> TreePartition:
    part_of: Dict[int, int] = {}
    parts: List[List[int]] = []
    for v in vertices:  # sequence order: parents precede children
        p = sequence.parent[v]
        if p == IDENTITY_VERTEX or cuts.get(v, False):
            part_of[v] = len(parts)
            parts.append([v])
        else:
            part_of[v] = part_of[p]
            parts[part_of[v]].append(v)
    weights = [sum(node_weights[v] for v in part) for part in parts]
    bottleneck = max(weights) if weights else 0.0
    return TreePartition(parts=parts, part_weights=weights, bottleneck=bottleneck)
