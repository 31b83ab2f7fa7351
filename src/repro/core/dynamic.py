"""Accelerated dynamic compilation (paper Sec V) and AccQOC's one compile walk.

Given a new program's *uncovered* groups, build the similarity graph over
them (plus the identity), extract the Prim compile sequence, and train each
group warm-started from its MST parent's freshly generated pulse. Groups
whose parent is the identity start cold — unless the pre-compiled library
holds a sufficiently similar pulse, which AccQOC also exploits ("keeping
previously generated pulses and selecting the most similar group's pulse as
the initial condition", Sec I).

That walk is the paper's one compile mechanism ("the technique applies ...
as well as the static pre-compilation", Sec I), and :func:`compile_in_order`
is its one implementation. Three callers feed it:

- :meth:`AcceleratedCompiler.compile_uncovered` walks a program's uncovered
  groups along their Prim sequence; every root's library seed comes from
  one :func:`best_library_seeds` call (one ``dynamic.library_seed`` stage
  per compile).
- :meth:`repro.core.precompile.StaticPrecompiler.build_library` walks the
  profiled unique groups the same way, roots cold.
- :func:`repro.service.executor.run_part` walks one worker's part of a
  service batch: roots seeded from the store snapshot, ``warm="chain"``
  children from their parent within the part.

Without the MST every caller walks the same :func:`star_sequence`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cache import PulseLibrary
from repro.core.engines import CompileRecord, compile_with_engine
from repro.core.similarity import batched_distance_matrix, get_similarity
from repro.core.simgraph import (
    IDENTITY_VERTEX,
    CompileSequence,
    build_similarity_graph,
    prim_compile_sequence,
)
from repro.grouping.group import GateGroup
from repro.perf.instrument import PerfRecorder, recorder_or_null
from repro.qoc.pulse import Pulse


def best_library_seed(
    group: GateGroup,
    library: PulseLibrary,
    similarity: str = "fidelity1",
    threshold: float = 0.5,
) -> Tuple[Optional[Pulse], Optional[GateGroup]]:
    """Most similar same-dimension library pulse below ``threshold``.

    Returns ``(pulse, source_group)`` — both ``None`` when nothing in the
    library is close enough, in which case the caller starts cold. The
    per-pair reference oracle for :func:`best_library_seeds`, which every
    compile path calls instead.
    """
    fn = get_similarity(similarity)
    best: Tuple[float, Optional[Pulse], Optional[GateGroup]] = (
        threshold,
        None,
        None,
    )
    matrix = group.matrix()
    for entry in library.entries():
        if entry.group.dim != group.dim or entry.pulse is None:
            continue
        weight = fn(matrix, entry.group.matrix())
        if weight < best[0]:
            best = (weight, entry.pulse, entry.group)
    return best[1], best[2]


def best_library_seeds(
    groups: Sequence[GateGroup],
    library: PulseLibrary,
    similarity: str = "fidelity1",
    threshold: float = 0.5,
) -> List[Tuple[Optional[Pulse], Optional[GateGroup]]]:
    """Batched :func:`best_library_seed` over many query groups.

    One Gram-matrix distance block per dimension class (queries x library
    entries) instead of a per-pair Python double loop — the same batching
    ``build_similarity_graph`` uses. Ties resolve to the lowest entry index,
    matching the per-pair scan's first-strict-improvement rule.
    """
    get_similarity(similarity)  # validate the name up front
    groups = list(groups)
    results: List[Tuple[Optional[Pulse], Optional[GateGroup]]] = [
        (None, None)
    ] * len(groups)
    entries = [e for e in library.entries() if e.pulse is not None]
    if not entries or not groups:
        return results
    queries_by_dim: Dict[int, List[int]] = {}
    for i, group in enumerate(groups):
        queries_by_dim.setdefault(group.dim, []).append(i)
    entries_by_dim: Dict[int, List[int]] = {}
    for j, entry in enumerate(entries):
        entries_by_dim.setdefault(entry.group.dim, []).append(j)
    for dim, query_idx in queries_by_dim.items():
        entry_idx = entries_by_dim.get(dim)
        if not entry_idx:
            continue
        query_stack = np.stack([groups[i].matrix() for i in query_idx])
        entry_stack = np.stack(
            [entries[j].group.matrix() for j in entry_idx]
        )
        block = batched_distance_matrix(similarity, query_stack, entry_stack)
        best_cols = block.argmin(axis=1)
        for row, i in enumerate(query_idx):
            weight = float(block[row, best_cols[row]])
            if weight < threshold:
                winner = entries[entry_idx[int(best_cols[row])]]
                results[i] = (winner.pulse, winner.group)
    return results


#: A root's warm seed: ``(pulse, source group)``; ``(None, None)`` is cold.
Seed = Tuple[Optional[Pulse], Optional[GateGroup]]


def star_sequence(n: int) -> CompileSequence:
    """The no-MST sequence: all ``n`` groups hang off the identity, in order."""
    return CompileSequence(
        order=list(range(n)),
        parent={i: IDENTITY_VERTEX for i in range(n)},
        parent_weight={i: 1.0 for i in range(n)},
        total_weight=float(n),
    )


def compile_in_order(
    engine,
    groups: Sequence[GateGroup],
    parents: Sequence[Optional[int]],
    seeds: Sequence[Seed],
    tags: Sequence[str],
    perf: Optional[PerfRecorder] = None,
    stage: str = "solve",
) -> List[CompileRecord]:
    """Compile ``groups`` in list order; records align with ``groups``.

    A group whose ``parents[i]`` is set (an earlier position) warm-starts
    from that parent's fresh record: its pulse, and its group, which is
    what :class:`~repro.core.engines.ModelEngine` prices a warm start by.
    A root (``parents[i] is None``) starts from ``seeds[i]``. ``tags[i]``
    is the group's RNG tag. Each solve is one ``perf.stage(stage)`` call.
    """
    perf = recorder_or_null(perf)
    records: List[Optional[CompileRecord]] = [None] * len(groups)
    for i, group in enumerate(groups):
        parent = parents[i]
        if parent is None:
            warm_pulse, warm_source = seeds[i]
        else:
            warm_pulse, warm_source = records[parent].pulse, groups[parent]
        with perf.stage(stage):
            records[i] = compile_with_engine(
                engine, group, warm_pulse, warm_source, seed_tag=tags[i]
            )
    return records


def compile_sequence(
    engine,
    groups: Sequence[GateGroup],
    sequence: CompileSequence,
    seeds: Dict[int, Seed],
    tag: str,
    perf: Optional[PerfRecorder] = None,
    stage: str = "solve",
) -> List[CompileRecord]:
    """:func:`compile_in_order` along a compile ``sequence`` over ``groups``.

    Vertex ``v`` gets RNG tag ``f"{tag}:{v}"``; a root takes ``seeds[v]``,
    or starts cold when it has none. Records align with ``groups``.
    """
    order = sequence.order
    # The identity vertex has no position, so its children become roots.
    position = {vertex: p for p, vertex in enumerate(order)}
    ordered = compile_in_order(
        engine,
        [groups[v] for v in order],
        [position.get(sequence.parent[v]) for v in order],
        [seeds.get(v, (None, None)) for v in order],
        [f"{tag}:{v}" for v in order],
        perf,
        stage,
    )
    records: List[Optional[CompileRecord]] = [None] * len(groups)
    for vertex, record in zip(order, ordered):
        records[vertex] = record
    return records


@dataclass
class DynamicCompileReport:
    """Pulses and cost of compiling the uncovered groups."""

    records: List[CompileRecord]
    groups: List[GateGroup]
    sequence: CompileSequence
    total_iterations: int
    wall_time: float

    def latency_of(self) -> Dict[bytes, float]:
        return {
            group.key(): record.latency
            for group, record in zip(self.groups, self.records)
        }


class AcceleratedCompiler:
    """MST-ordered, warm-started compilation of uncovered groups."""

    def __init__(
        self,
        engine,
        similarity: str = "fidelity1",
        use_mst: bool = True,
        library_seed_threshold: float = 0.5,
        perf: Optional[PerfRecorder] = None,
    ):
        self.engine = engine
        self.similarity = similarity
        self.use_mst = use_mst
        # A library pulse seeds an identity-rooted group when its distance is
        # below this threshold (otherwise cold start, as in the paper).
        self.library_seed_threshold = library_seed_threshold
        self.perf = recorder_or_null(perf)

    def compile_uncovered(
        self,
        uncovered: Sequence[GateGroup],
        library: Optional[PulseLibrary] = None,
    ) -> DynamicCompileReport:
        """Walk ``uncovered`` along its Prim sequence (a star without MST).

        Roots take their seeds from ``library``, all of them from one
        :func:`best_library_seeds` call under ``dynamic.library_seed``.
        """
        start = time.monotonic()
        groups = list(uncovered)
        if self.use_mst:
            with self.perf.stage("dynamic.simgraph"):
                graph = build_similarity_graph(groups, self.similarity)
            with self.perf.stage("dynamic.prim"):
                sequence = prim_compile_sequence(graph)
        else:
            sequence = star_sequence(len(groups))
        seeds: Dict[int, Seed] = {}
        if library is not None:
            roots = [
                v for v in sequence.order
                if sequence.parent[v] == IDENTITY_VERTEX
            ]
            with self.perf.stage("dynamic.library_seed"):
                found = best_library_seeds(
                    [groups[v] for v in roots],
                    library,
                    self.similarity,
                    self.library_seed_threshold,
                )
            seeds = dict(zip(roots, found))
        records = compile_sequence(
            self.engine, groups, sequence, seeds, "dyn", self.perf,
            "dynamic.solve",
        )
        total_iterations = sum(record.iterations for record in records)
        self.perf.count("dynamic.iterations", total_iterations)
        self.perf.count(
            "dynamic.probes_skipped",
            sum(record.probes_skipped for record in records),
        )
        self.perf.count("dynamic.groups", len(groups))
        return DynamicCompileReport(
            records=records,
            groups=groups,
            sequence=sequence,
            total_iterations=total_iterations,
            wall_time=time.monotonic() - start,
        )
