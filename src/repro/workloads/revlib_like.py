"""RevLib-like catalogue: the named Table II programs and the 159-program suite.

RevLib circuit files are not available offline, so each named benchmark is a
synthetic Toffoli network whose gate counts match the paper's Table II row
(Toffoli count recovered from the t/tdg/h/cx fingerprint: one decomposed
Toffoli = 6 cx + 2 h + 4 t + 3 tdg). Only the gate counts follow the paper;
the wiring of each network is generated, not RevLib's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.circuits.circuit import Circuit
from repro.workloads.arithmetic import (
    cuccaro_adder,
    gray_code_walker,
    hidden_weight_bit,
    toffoli_network,
)
from repro.workloads.qft import gse, qft


@dataclass(frozen=True)
class NamedBenchmark:
    """Catalogue entry with its paper-reported shape."""

    name: str
    builder: Callable[[], Circuit]
    description: str = ""


def _named_toffoli(name: str, n_qubits: int, n_toffoli: int, n_cnot: int,
                   n_x: int) -> NamedBenchmark:
    return NamedBenchmark(
        name=name,
        builder=lambda: toffoli_network(
            n_qubits, n_toffoli, n_cnot, n_x, seed_tag=name, name=name
        ),
        description=f"Toffoli network, {n_qubits}q",
    )


# Table II fingerprints: cx = 6*T + extra_cnot; h = 2*T; t = 4*T; tdg = 3*T.
# 4gt4-v0: cx=105, h=28 -> T=14, extra cnot=21;  cm152a: h=152 -> T=76,
# cx=532 -> extra 76;  ex2: h=78 -> T=39, cx=275 -> extra 41;  f2: h=150 ->
# T=75, cx=525 -> extra 75.
NAMED_BENCHMARKS: Dict[str, NamedBenchmark] = {
    bench.name: bench
    for bench in [
        _named_toffoli("4gt4-v0", 5, 14, 21, 0),
        _named_toffoli("cm152a", 12, 76, 76, 5),
        NamedBenchmark("qft_10", lambda: qft(10, name="qft_10"), "QFT, 10q"),
        NamedBenchmark("qft_16", lambda: qft(16, name="qft_16"), "QFT, 16q"),
        _named_toffoli("ex2", 7, 39, 41, 5),
        _named_toffoli("f2", 8, 75, 75, 6),
        NamedBenchmark("adder_4", lambda: cuccaro_adder(4, name="adder_4"),
                       "Cuccaro ripple-carry adder"),
        NamedBenchmark("gse_small", lambda: gse(4, 4, name="gse_small"),
                       "ground state estimation"),
        NamedBenchmark("gray_10", lambda: gray_code_walker(10, 6, name="gray_10"),
                       "gray-code encoder"),
        NamedBenchmark("hwb_6", lambda: hidden_weight_bit(6, 4, name="hwb_6"),
                       "hidden weighted bit"),
    ]
}

# The six programs Figures 12/15 and Tables report on.
TABLE2_PROGRAMS = ("4gt4-v0", "cm152a", "qft_10", "qft_16", "ex2", "f2")


def build_named(name: str) -> Circuit:
    try:
        return NAMED_BENCHMARKS[name].builder()
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; have {sorted(NAMED_BENCHMARKS)}"
        ) from None


def random_suite_program(index: int, seed: int = 7) -> Circuit:
    """One of the synthetic RevLib-like suite members (deterministic).

    Sizes follow the paper's sampling: 200-2000 gates after decomposition,
    4-14 logical qubits, reversible-function instruction mix.
    """
    from repro.utils.rng import derive_rng

    rng = derive_rng(f"suite-program:{index}", seed)
    n_qubits = int(rng.integers(4, 15))
    n_toffoli = int(rng.integers(10, 120))
    n_cnot = int(rng.integers(5, max(6, n_toffoli)))
    n_x = int(rng.integers(0, 8))
    name = f"rev_{index:03d}"
    return toffoli_network(
        min(n_qubits, 14) if n_qubits >= 3 else 4,
        n_toffoli,
        n_cnot,
        n_x,
        seed_tag=name,
        name=name,
    )
