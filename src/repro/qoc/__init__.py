"""Quantum optimal control: GRAPE engine, latency search, Weyl analysis."""

from repro.qoc.binary_search import (
    BinarySearchResult,
    binary_search_latency,
    speed_limit_steps,
)
from repro.qoc.estimator import LatencyEstimator
from repro.qoc.fidelity import infidelity, infidelity_and_gradient, propagate
from repro.qoc.grape import GrapeResult, run_grape
from repro.qoc.hamiltonian import ControlModel, ControlTerm
from repro.qoc.pulse import Pulse
from repro.qoc.pulse_analysis import PulseMetrics, analyze, concatenate, occupied_bandwidth
from repro.qoc.warm_start import permute_pulse_wires, warm_start_pulse
from repro.qoc.weyl import interaction_content, rotation_angle, weyl_coordinates

__all__ = [
    "BinarySearchResult",
    "binary_search_latency",
    "speed_limit_steps",
    "LatencyEstimator",
    "infidelity",
    "infidelity_and_gradient",
    "propagate",
    "GrapeResult",
    "run_grape",
    "ControlModel",
    "ControlTerm",
    "Pulse",
    "PulseMetrics",
    "analyze",
    "concatenate",
    "occupied_bandwidth",
    "permute_pulse_wires",
    "warm_start_pulse",
    "interaction_content",
    "rotation_angle",
    "weyl_coordinates",
]
