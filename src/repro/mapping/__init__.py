"""Qubit mapping: device topologies, crosstalk metric, A* swap insertion."""

from repro.mapping.astar import AStarMapper, MappingResult
from repro.mapping.crosstalk import (
    CLOSE_DISTANCE,
    crosstalk_by_layer,
    crosstalk_metric,
    layer_crosstalk,
    pairs_too_close,
)
from repro.mapping.swaps import count_swaps, decompose_swaps
from repro.mapping.topology import (
    Topology,
    fully_connected,
    get_topology,
    line,
    melbourne,
    melbourne16,
    topology_for,
)

__all__ = [
    "AStarMapper",
    "MappingResult",
    "CLOSE_DISTANCE",
    "crosstalk_metric",
    "crosstalk_by_layer",
    "layer_crosstalk",
    "pairs_too_close",
    "count_swaps",
    "decompose_swaps",
    "Topology",
    "melbourne",
    "melbourne16",
    "line",
    "fully_connected",
    "get_topology",
    "topology_for",
]
