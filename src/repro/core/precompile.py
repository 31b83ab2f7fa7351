"""Static pre-compilation (paper Sec IV).

Profile a subset of the benchmark suite under the chosen grouping policy,
de-duplicate the groups, and compile a pulse for every distinct matrix with
the latency binary search. The MST warm-start trick applies here too ("the
technique applies ... as well as the static pre-compilation (but it is a one
time cost)", Sec I), so the library build itself runs along a compile
sequence, through the same walk as dynamic compilation
(:func:`repro.core.dynamic.compile_in_order`). Optionally the most
frequent group is re-trained with a larger budget to shave its latency
further (Sec IV-G).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.cache import LibraryEntry, PulseLibrary
from repro.core.dynamic import compile_sequence, star_sequence
from repro.core.simgraph import (
    CompileSequence,
    build_similarity_graph,
    prim_compile_sequence,
)
from repro.grouping.dedup import DedupResult
from repro.grouping.group import GateGroup


@dataclass
class PrecompileReport:
    """Cost accounting of the one-time library build."""

    library: PulseLibrary
    sequence: CompileSequence
    total_iterations: int
    cold_iterations: int  # what a no-MST build would have cost (modelled/observed)
    n_unique: int
    wall_time: float
    most_frequent_optimized: bool = False


class StaticPrecompiler:
    """Builds a :class:`PulseLibrary` from profiled unique groups."""

    def __init__(self, engine, similarity: str = "fidelity1", use_mst: bool = True):
        self.engine = engine
        self.similarity = similarity
        self.use_mst = use_mst

    def build_library(
        self,
        dedup: DedupResult,
        optimize_most_frequent: bool = False,
    ) -> PrecompileReport:
        start = time.monotonic()
        unique = dedup.unique
        if self.use_mst:
            graph = build_similarity_graph(unique, self.similarity)
            sequence = prim_compile_sequence(graph)
        else:
            sequence = star_sequence(len(unique))
        records = compile_sequence(self.engine, unique, sequence, {}, "pre")
        library = PulseLibrary()
        for index in sequence.order:  # the library keeps compile order
            record = records[index]
            library.add(
                LibraryEntry(
                    group=unique[index],
                    pulse=record.pulse,
                    latency=record.latency,
                    iterations=record.iterations,
                    converged=record.converged,
                )
            )
        optimized = False
        if optimize_most_frequent and unique:
            optimized = self._optimize_most_frequent(library, dedup)
        return PrecompileReport(
            library=library,
            sequence=sequence,
            total_iterations=sum(record.iterations for record in records),
            cold_iterations=sum(self._compile_cost_cold(g) for g in unique),
            n_unique=len(unique),
            wall_time=time.monotonic() - start,
            most_frequent_optimized=optimized,
        )

    # ------------------------------------------------------------------ impl
    def _compile_cost_cold(self, group: GateGroup) -> int:
        """Modelled cost of a cold build (for speedup accounting)."""
        if hasattr(self.engine, "iterations"):
            return int(round(self.engine.iterations.base(group.n_qubits)))
        # GrapeEngine: approximate the cold cost by the engine's estimator-
        # free convention; experiments that need the true number run it.
        return 0

    def _optimize_most_frequent(
        self, library: PulseLibrary, dedup: DedupResult
    ) -> bool:
        """Sec IV-G: re-train the most frequent group with a bigger budget."""
        group = dedup.most_frequent()
        entry = library.lookup(group)
        if entry is None:
            return False
        if hasattr(self.engine, "iterations"):
            # Modelled: extra training reaches a latency one dt-step shorter
            # when the current estimate has slack above the physical bound.
            dt = self.engine.physics.dt
            improved = max(entry.latency - dt, dt)
            if improved < entry.latency:
                entry.latency = improved
                entry.iterations += int(
                    0.5 * self.engine.iterations.base(group.n_qubits)
                )
                library.add(entry)
                return True
            return False
        # Real engine: re-run the search with a doubled budget and an extra
        # probe allowance, warm-started from the current pulse.
        from dataclasses import replace

        boosted = replace(
            self.engine.run,
            max_iterations=self.engine.run.max_iterations * 2,
            binary_search_max_probes=self.engine.run.binary_search_max_probes + 4,
        )
        saved_run = self.engine.run
        try:
            self.engine.run = boosted
            record = self.engine.compile_group(
                group, warm_pulse=entry.pulse, seed_tag="most-frequent"
            )
        finally:
            self.engine.run = saved_run
        if record.converged and record.latency < entry.latency:
            library.add(
                LibraryEntry(
                    group=group,
                    pulse=record.pulse,
                    latency=record.latency,
                    iterations=entry.iterations + record.iterations,
                    converged=True,
                )
            )
            return True
        return False
