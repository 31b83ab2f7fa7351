"""Configuration objects shared by the QOC engine and the pipeline.

The physical constants follow the paper where it states them (two-level spin
qubit at omega/2pi = 3.9 GHz, fidelity target 1e-4, Melbourne gate times) and
standard superconducting-control values elsewhere: a bounded X/Y drive per
qubit (~30 MHz) and one bounded XX coupler per pair (~4 MHz), in 2 ns
slices.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class PhysicsConfig:
    """Control model of the simulated device.

    Units: time in nanoseconds, angular frequencies in rad/ns (hbar = 1).
    The model is a rotating frame per qubit (drift removed by working at the
    qubit frequency), with bounded X/Y drives per qubit and a bounded tunable
    XX coupler between the two qubits of a group.
    """

    qubit_freq_ghz: float = 3.9  # omega/2pi of the two-level spin (paper Sec IV-D)
    drive_max: float = 2 * 3.141592653589793 * 0.030  # rad/ns, ~30 MHz X/Y drive
    coupling_max: float = 2 * 3.141592653589793 * 0.004  # rad/ns, ~4 MHz coupler
    dt: float = 2.0  # ns per GRAPE time slice
    # Buffer accounting for pulse rise/fall on real AWGs; added to estimates.
    single_qubit_buffer: float = 2.0  # ns

    @property
    def pi_pulse_time(self) -> float:
        """Minimal time of a pi rotation at full drive (angle = 2*u*t)."""
        return 3.141592653589793 / (2 * self.drive_max)

    def with_dt(self, dt: float) -> "PhysicsConfig":
        return replace(self, dt=dt)


@dataclass(frozen=True)
class RunConfig:
    """Optimization-budget knobs for GRAPE and the binary search."""

    target_infidelity: float = 1e-4  # paper: fidelity cost 1e-4
    max_iterations: int = 300  # per GRAPE solve
    time_budget_s: float = 600.0  # paper: 600 s per binary-search probe
    binary_search_max_probes: int = 12
    cold_start_noise: float = 0.05  # fraction of drive_max for random init
    seed: int = 20200301
    # GRAPE always runs L-BFGS-B: the bounded member of the BFGS family the
    # paper uses (Sec IV-D), so a solve never leaves the drive bounds.

    def fast(self) -> "RunConfig":
        """Scaled-down budget for tests and quick benches."""
        return replace(self, max_iterations=120, binary_search_max_probes=8)


@dataclass
class PipelineConfig:
    """End-to-end AccQOC pipeline settings."""

    policy_name: str = "map2b4l"
    profile_fraction: float = 1.0 / 3.0  # share of the suite used for profiling
    similarity: str = "fidelity1"  # best function per Fig 8
    optimize_most_frequent: bool = True
    n_workers: int = 4
    physics: PhysicsConfig = field(default_factory=PhysicsConfig)
    run: RunConfig = field(default_factory=RunConfig)
