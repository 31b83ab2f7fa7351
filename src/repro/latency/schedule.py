"""Algorithm 3: overall latency of a grouped program.

"We restructure the original DAG into a new DAG by turning each group into a
node ... following the topological order of the new DAG, we use dynamic
programming to compute and store the until-this-step latency at each node by
adding the largest latency of its predecessors to the latency of itself."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.circuits.circuit import Circuit
from repro.circuits.dag import CircuitDAG
from repro.grouping.group import GateGroup


def group_dag(
    circuit: Circuit, groups: Sequence[GateGroup]
) -> Tuple[List[int], List[List[int]]]:
    """The restructured DAG: one node per group, edges from gate dependencies.

    Returns a topological order of the group ids and each group's
    predecessor ids. Raises if the induced graph is cyclic (Algorithm 1's
    guard makes this impossible for groups produced by this library, but
    externally constructed group lists are validated too).
    """
    gid_of: Dict[int, int] = {}
    for gid, group in enumerate(groups):
        for node in group.node_indices:
            if node in gid_of:
                raise ValueError(f"gate {node} appears in two groups")
            gid_of[node] = gid
    missing = set(range(len(circuit))) - set(gid_of)
    if missing:
        raise ValueError(f"gates {sorted(missing)[:5]}... not covered by groups")

    dag = CircuitDAG(circuit)
    predecessors: List[List[int]] = [[] for _ in groups]
    successors: List[List[int]] = [[] for _ in groups]
    for v in range(len(circuit)):
        gv = gid_of[v]
        for u in dag.predecessors(v):
            gu = gid_of[u]
            if gu != gv and gu not in predecessors[gv]:
                predecessors[gv].append(gu)
                successors[gu].append(gv)
    # Kahn's algorithm: ``order`` grows while it is iterated.
    waiting = [len(p) for p in predecessors]
    order = [gid for gid, n in enumerate(waiting) if n == 0]
    for gid in order:
        for succ in successors[gid]:
            waiting[succ] -= 1
            if waiting[succ] == 0:
                order.append(succ)
    if len(order) < len(groups):
        raise ValueError("group-level graph is cyclic; grouping is unschedulable")
    return order, predecessors


@dataclass(frozen=True)
class GroupSchedule:
    """The group DAG of one group list, built once and priced many times.

    The DAG depends only on the circuit and the groups, not on their
    latencies, so a caller that prices one program again and again (the
    service, as its store fills) builds it once and pays only the
    O(groups) ASAP pass per pricing.
    """

    groups: Tuple[GateGroup, ...]
    order: List[int]
    predecessors: List[List[int]]

    @classmethod
    def build(cls, circuit: Circuit, groups: Sequence[GateGroup]) -> "GroupSchedule":
        groups = tuple(groups)
        return cls(groups, *group_dag(circuit, groups))

    def is_for(self, groups: Sequence[GateGroup]) -> bool:
        """Whether ``groups`` are the very groups, in order, it was built for."""
        return len(groups) == len(self.groups) and all(
            a is b for a, b in zip(groups, self.groups)
        )

    def asap(
        self, latency_of: Callable[[GateGroup], float]
    ) -> Tuple[List[float], List[float]]:
        """(start, finish) time of each group under Algorithm 3's schedule.

        Each finish time is a max over predecessors plus one add, so the
        result is bit-identical in any topological order.
        """
        start = [0.0] * len(self.groups)
        finish = [0.0] * len(self.groups)
        for gid in self.order:
            start[gid] = max((finish[p] for p in self.predecessors[gid]), default=0.0)
            finish[gid] = start[gid] + latency_of(self.groups[gid])
        return start, finish

    def overall_latency(self, latency_of: Callable[[GateGroup], float]) -> float:
        """Algorithm 3: longest until-this-step latency over the group DAG."""
        return max(self.asap(latency_of)[1], default=0.0)


def overall_latency(
    circuit: Circuit,
    groups: Sequence[GateGroup],
    latency_of: Callable[[GateGroup], float],
) -> float:
    """Algorithm 3: longest until-this-step latency over the group DAG."""
    return GroupSchedule.build(circuit, groups).overall_latency(latency_of)


def per_group_start_times(
    circuit: Circuit,
    groups: Sequence[GateGroup],
    latency_of: Callable[[GateGroup], float],
) -> List[float]:
    """ASAP start time of each group under Algorithm 3's schedule."""
    return GroupSchedule.build(circuit, groups).asap(latency_of)[0]
