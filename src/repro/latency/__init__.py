"""Latency accounting: gate-based baseline table and Algorithm 3 scheduling."""

from repro.latency.gate_latency import (
    MELBOURNE_HARDWARE_TABLE,
    GateLatencyTable,
    build_gate_latency_table,
)
from repro.latency.schedule import (
    GroupSchedule,
    group_dag,
    overall_latency,
    per_group_start_times,
)

__all__ = [
    "GateLatencyTable",
    "build_gate_latency_table",
    "MELBOURNE_HARDWARE_TABLE",
    "GroupSchedule",
    "group_dag",
    "overall_latency",
    "per_group_start_times",
]
