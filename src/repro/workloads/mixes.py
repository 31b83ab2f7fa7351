"""Instruction-mix accounting (paper Table II) and named traffic mixes.

Two kinds of "mix" live here. :func:`instruction_mix` and friends count
*gates inside one circuit* (the paper's Table II columns). The
:data:`TRAFFIC_MIXES` registry describes *request traffic* — weighted
program-name distributions the load harness (:mod:`repro.service.loadgen`)
replays against ``repro serve --port``. Keeping the registry in the
workloads layer means a scenario spec can name a mix (``"qft-small"``)
instead of embedding program lists, and every mix is validated against
the same program resolver the serve protocol uses.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Sequence, Tuple

from repro.circuits.circuit import Circuit

TABLE2_COLUMNS = ("x", "t", "h", "cx", "rz", "tdg")

#: Named request-traffic distributions for the load harness: mix name ->
#: [(program_name, weight), ...]. Program names must resolve through
#: :func:`repro.service.protocol.resolve_program` (named benchmarks or
#: ``qft_<n>``); weights are relative draw probabilities. "qft-small" is
#: the smoke-test staple (small circuits, heavy cross-request overlap so
#: the store/coalescer carry real load); "qft-spread" has little overlap
#: (stresses cold solves); "suite-mixed" adds two Table II programs for
#: heterogeneous group sizes (the soak staple).
TRAFFIC_MIXES: Dict[str, List[Tuple[str, float]]] = {
    "qft-small": [("qft_4", 3.0), ("qft_5", 2.0), ("qft_6", 1.0)],
    "qft-spread": [(f"qft_{n}", 1.0) for n in range(4, 10)],
    "suite-mixed": [
        ("qft_4", 3.0),
        ("qft_5", 2.0),
        ("qft_6", 2.0),
        ("qft_8", 1.0),
        ("4gt4-v0", 1.0),
        ("ex2", 1.0),
    ],
}


def traffic_mix(name: str) -> List[Tuple[str, float]]:
    """Resolve a named traffic mix, loudly (``ValueError`` on unknown)."""
    try:
        return list(TRAFFIC_MIXES[name])
    except KeyError:
        raise ValueError(
            f"unknown traffic mix {name!r}; known mixes: "
            f"{sorted(TRAFFIC_MIXES)}"
        ) from None

# The paper's reported per-program counts (Table II), for comparison rows.
PAPER_TABLE2: Dict[str, Dict[str, int]] = {
    "4gt4-v0": {"x": 0, "t": 56, "h": 28, "cx": 105, "rz": 0, "tdg": 42},
    "cm152a": {"x": 5, "t": 304, "h": 152, "cx": 532, "rz": 0, "tdg": 228},
    "qft_10": {"x": 0, "t": 0, "h": 20, "cx": 90, "rz": 90, "tdg": 0},
    "qft_16": {"x": 0, "t": 0, "h": 32, "cx": 240, "rz": 240, "tdg": 0},
    "ex2": {"x": 5, "t": 156, "h": 78, "cx": 275, "rz": 0, "tdg": 117},
    "f2": {"x": 6, "t": 300, "h": 150, "cx": 525, "rz": 0, "tdg": 225},
}

PAPER_SUITE_AVERAGE = {  # Table II "all" row (percent of gates)
    "x": 0.1, "t": 22.0, "h": 15.0, "cx": 45.0, "rz": 1.1, "tdg": 17.0,
}


def instruction_mix(circuit: Circuit) -> Dict[str, int]:
    """Gate counts restricted to the Table II columns (others reported too)."""
    counts = Counter(g.name for g in circuit)
    out = {col: counts.get(col, 0) for col in TABLE2_COLUMNS}
    extras = {k: v for k, v in counts.items() if k not in TABLE2_COLUMNS}
    out.update(extras)
    return out


def mix_percentages(circuit: Circuit) -> Dict[str, float]:
    mix = instruction_mix(circuit)
    total = sum(mix.values())
    if total == 0:
        return {col: 0.0 for col in TABLE2_COLUMNS}
    return {col: 100.0 * mix.get(col, 0) / total for col in TABLE2_COLUMNS}


def suite_average_percentages(programs: Sequence[Circuit]) -> Dict[str, float]:
    """Gate-weighted average mix across a suite (Table II 'all' row)."""
    totals: Counter = Counter()
    grand_total = 0
    for program in programs:
        mix = instruction_mix(program)
        totals.update(mix)
        grand_total += sum(mix.values())
    if grand_total == 0:
        return {col: 0.0 for col in TABLE2_COLUMNS}
    return {
        col: 100.0 * totals.get(col, 0) / grand_total for col in TABLE2_COLUMNS
    }
