"""End-to-end AccQOC pipeline (paper Fig 6).

Front end (shared with gate-based compilation): decompose to the native
basis, map onto the device with the crosstalk-aware A* mapper. Back end:
grouping policy -> pre-compiled pulse lookup -> MST-accelerated dynamic
compilation of uncovered groups -> Algorithm 3 overall latency. The
gate-based baseline concatenates per-gate pulses of the same mapped circuit.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.circuits.circuit import Circuit
from repro.core.cache import CoverageReport, PulseLibrary
from repro.core.dynamic import AcceleratedCompiler, DynamicCompileReport
from repro.core.engines import GrapeEngine, ModelEngine
from repro.core.precompile import PrecompileReport, StaticPrecompiler
from repro.grouping.dedup import DedupResult, dedupe_groups, merge_dedups
from repro.grouping.group import GateGroup
from repro.grouping.policies import GroupingPolicy, group_circuit, make_policy, prepare_circuit
from repro.latency.gate_latency import GateLatencyTable
from repro.latency.schedule import GroupSchedule
from repro.mapping.astar import AStarMapper, MappingResult
from repro.mapping.crosstalk import crosstalk_metric
from repro.mapping.topology import Topology, topology_for
from repro.perf.instrument import PerfRecorder
from repro.perf.report import PerfReport
from repro.utils.config import PipelineConfig
from repro.utils.rng import derive_rng


@dataclass
class FrontEndResult:
    """Mapped physical circuit plus mapping diagnostics.

    ``prepared`` is the direction-agnostic circuit grouping consumes (QOC
    compiles group matrices, so CNOT direction is free); ``gate_based`` is
    the executable gate-by-gate version with direction-fixing Hadamards,
    which the latency baseline prices.
    """

    prepared: Circuit
    gate_based: Circuit
    mapping: MappingResult
    topology: Topology
    crosstalk: int  # close-CNOT-pair metric of the prepared circuit
    # Priced once per front end, so a warm request runs only the ASAP pass:
    # Algorithm 3's group DAG over ``prepared`` and the front end's groups,
    # and the gate-based latency under ``gate_table``.
    schedule: GroupSchedule
    gate_table: GateLatencyTable
    gate_based_latency: float


@dataclass
class CompiledProgram:
    """Everything Fig 12/15-style experiments read off one program."""

    name: str
    front_end: FrontEndResult
    groups: List[GateGroup]
    dedup: DedupResult
    coverage: CoverageReport
    dynamic: Optional[DynamicCompileReport]
    overall_latency: float
    gate_based_latency: float
    compile_iterations: int
    wall_time: float
    perf: Optional[PerfReport] = None  # stage-by-stage timing breakdown

    @property
    def latency_reduction(self) -> float:
        if self.overall_latency <= 0:
            return float("inf")
        return self.gate_based_latency / self.overall_latency

    @property
    def coverage_rate(self) -> float:
        return self.coverage.rate


def program_latencies(
    front: FrontEndResult,
    groups: Sequence[GateGroup],
    latencies: Dict[bytes, float],
    engine,
) -> Tuple[float, float]:
    """(AccQOC overall latency, gate-based baseline latency) of one program.

    ``latencies`` maps canonical group keys to pulse latencies; every group of
    the program must be priced. Shared by :meth:`AccQOC.compile` and the batch
    compilation service, which assembles ``latencies`` from its disk store.
    The front end's group DAG and gate-based latency are reused when
    ``groups`` are its own groups and ``engine`` has its gate table; any
    other input is priced from scratch, to the same bits.
    """
    schedule = front.schedule
    if not schedule.is_for(groups):
        schedule = GroupSchedule.build(front.prepared, groups)
    total_latency = schedule.overall_latency(lambda g: latencies[g.key()])
    table = engine.gate_table()
    if table == front.gate_table:
        gate_latency = front.gate_based_latency
    else:
        gate_latency = table.circuit_latency(front.gate_based)
    return total_latency, gate_latency


#: Front ends one :class:`AccQOC` keeps, least recently used out first.
#: Room for every program a request can name (the ten named benchmarks and
#: ``qft_1`` .. ``qft_16``) plus inline QASM.
FRONT_END_MEMO_SIZE = 64

_MemoEntry = Tuple[FrontEndResult, Tuple[GateGroup, ...]]


class AccQOC:
    """The full static/dynamic hybrid workflow."""

    def __init__(
        self,
        config: Optional[PipelineConfig] = None,
        engine=None,
        crosstalk_aware: bool = True,
    ):
        self.config = config or PipelineConfig()
        self.engine = engine or ModelEngine(self.config.physics)
        self.policy: GroupingPolicy = make_policy(self.config.policy_name)
        self.crosstalk_aware = crosstalk_aware
        self.library = PulseLibrary()
        # (policy, crosstalk flag, n_qubits, gates) -> (front end, groups)
        self._memo: "OrderedDict[tuple, _MemoEntry]" = OrderedDict()
        self._memo_lock = threading.Lock()

    # -------------------------------------------------------------- front end
    def front_end(self, circuit: Circuit) -> FrontEndResult:
        """The circuit's front end, from the same memo as :meth:`groups_of`."""
        return self._lookup(circuit)[0]

    def groups_of(
        self, circuit: Circuit, perf: Optional[PerfRecorder] = None
    ) -> Tuple[FrontEndResult, List[GateGroup]]:
        """The circuit's front end and groups, mapped at most once per content.

        Two circuits with the same gates share one result whatever their
        names; the groups are shared too (with the matrices and keys they
        cache), in a fresh list. ``perf``, when given, counts the lookup as
        ``front_end.hits`` or ``front_end.misses``.
        """
        front, groups, hit = self._lookup(circuit)
        if perf is not None:
            perf.count("front_end.hits" if hit else "front_end.misses")
        return front, list(groups)

    def _lookup(
        self, circuit: Circuit
    ) -> Tuple[FrontEndResult, Tuple[GateGroup, ...], bool]:
        """(front end, groups, hit) from the memo, built on a miss.

        A miss is built outside the lock (A* can take seconds); when two
        threads race on one key, the first to finish is the one kept.
        Nothing mutates a front end or group after this; a group's lazily
        cached matrix and key are pure, so a race only computes them twice.
        """
        key = (self.policy, self.crosstalk_aware, circuit.n_qubits, tuple(circuit))
        with self._memo_lock:
            entry = self._memo.get(key)
            if entry is not None:
                self._memo.move_to_end(key)
                return entry + (True,)
        built = self._build(circuit)
        with self._memo_lock:
            entry = self._memo.setdefault(key, built)
            self._memo.move_to_end(key)
            while len(self._memo) > FRONT_END_MEMO_SIZE:
                self._memo.popitem(last=False)
        return entry + (False,)

    def _build(self, circuit: Circuit) -> _MemoEntry:
        native = circuit.decompose_to_native()
        topology = topology_for(native.n_qubits)
        mapper = AStarMapper(topology, crosstalk_aware=self.crosstalk_aware)
        mapping = mapper.map_circuit(native)
        prepared = prepare_circuit(mapping.circuit, self.policy, topology)
        from repro.mapping.swaps import decompose_swaps, fix_directions

        gate_based = fix_directions(
            decompose_swaps(mapping.circuit, topology), topology
        )
        groups = tuple(group_circuit(mapping.circuit, self.policy, topology))
        table = self.engine.gate_table()
        front = FrontEndResult(
            prepared=prepared,
            gate_based=gate_based,
            mapping=mapping,
            topology=topology,
            crosstalk=crosstalk_metric(prepared, topology),
            schedule=GroupSchedule.build(prepared, groups),
            gate_table=table,
            gate_based_latency=table.circuit_latency(gate_based),
        )
        return front, groups

    # ------------------------------------------------------------ precompile
    def profile_groups(self, programs: Sequence[Circuit]) -> DedupResult:
        """Group the profiling set and merge the per-program dedups."""
        dedups = []
        for program in programs:
            _, groups = self.groups_of(program)
            dedups.append(dedupe_groups(groups))
        return merge_dedups(dedups)

    def select_profile_programs(
        self, programs: Sequence[Circuit]
    ) -> List[Circuit]:
        """Randomly pick the profiling share (paper: one third) of the suite."""
        rng = derive_rng("profile-selection", self.config.run.seed)
        programs = list(programs)
        count = max(1, int(round(len(programs) * self.config.profile_fraction)))
        indices = sorted(rng.choice(len(programs), size=count, replace=False))
        return [programs[i] for i in indices]

    def precompile(
        self, programs: Sequence[Circuit], profile_all: bool = False
    ) -> PrecompileReport:
        """Static pre-compilation over (a sample of) the benchmark suite."""
        selected = list(programs) if profile_all else self.select_profile_programs(programs)
        dedup = self.profile_groups(selected)
        precompiler = StaticPrecompiler(
            self.engine, similarity=self.config.similarity, use_mst=True
        )
        report = precompiler.build_library(
            dedup, optimize_most_frequent=self.config.optimize_most_frequent
        )
        self.library = report.library
        return report

    # ---------------------------------------------------------------- compile
    def compile(self, circuit: Circuit, use_mst: bool = True) -> CompiledProgram:
        start = time.monotonic()
        perf = PerfRecorder()
        with perf.stage("front_end"):
            front, groups = self.groups_of(circuit, perf=perf)
        with perf.stage("dedup"):
            dedup = dedupe_groups(groups)
        with perf.stage("coverage"):
            coverage = self.library.coverage(groups)
        perf.count("groups", len(groups))
        perf.count("uncovered_unique", len(coverage.uncovered_unique))

        dynamic_report: Optional[DynamicCompileReport] = None
        latencies: Dict[bytes, float] = {}
        compile_iterations = 0
        for entry in self.library.entries():
            latencies[entry.group.key()] = entry.latency
        if coverage.uncovered_unique:
            compiler = AcceleratedCompiler(
                self.engine,
                similarity=self.config.similarity,
                use_mst=use_mst,
                perf=perf,
            )
            with perf.stage("dynamic"):
                dynamic_report = compiler.compile_uncovered(
                    coverage.uncovered_unique, self.library
                )
            latencies.update(dynamic_report.latency_of())
            compile_iterations = dynamic_report.total_iterations

        with perf.stage("latency"):
            total_latency, gate_latency = program_latencies(
                front, groups, latencies, self.engine
            )
        return CompiledProgram(
            name=circuit.name or "<unnamed>",
            front_end=front,
            groups=groups,
            dedup=dedup,
            coverage=coverage,
            dynamic=dynamic_report,
            overall_latency=total_latency,
            gate_based_latency=gate_latency,
            compile_iterations=compile_iterations,
            wall_time=time.monotonic() - start,
            perf=perf.report(circuit.name or "<unnamed>"),
        )
