"""Pulse library: the artifact of static pre-compilation, and coverage.

The library is keyed by the canonical group key (matrix modulo global phase
and wire permutation), so a cached pulse serves every occurrence of the
group, including wire-permuted ones — the pulse is returned with its drive
lines relabelled to match the querying group.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.canonical import canonical_representative
from repro.grouping.group import GateGroup
from repro.qoc.pulse import Pulse
from repro.qoc.warm_start import permute_pulse_wires


@dataclass
class LibraryEntry:
    """One pre-compiled group."""

    group: GateGroup  # the representative occurrence the pulse was trained on
    pulse: Optional[Pulse]
    latency: float  # ns
    iterations: int  # compile cost spent on this entry
    converged: bool = True


@dataclass
class CoverageReport:
    """Paper Sec V-A: Coverage Rate = covered groups / groups of the program."""

    n_groups: int
    n_covered: int
    uncovered_unique: List[GateGroup] = field(default_factory=list)

    @property
    def rate(self) -> float:
        if self.n_groups == 0:
            return 1.0
        return self.n_covered / self.n_groups


def group_to_dict(group: GateGroup) -> Dict:
    """A group's gates as JSON: the encoding the store's entries and the
    worker fabric's tasks share. The wire order (``group.qubits``) is not
    in it; entries leave it ascending."""
    return {
        "n_qubits": group.n_qubits,
        "gates": [
            {"name": g.name, "qubits": list(g.qubits), "params": list(g.params)}
            for g in group.gates
        ],
        "node_indices": list(group.node_indices),
    }


def group_from_dict(raw: Dict) -> GateGroup:
    """Inverse of :func:`group_to_dict`; a ``qubits`` list, when the dict
    carries one, sets the wire order."""
    from repro.circuits.gates import Gate

    gates = [
        Gate(g["name"], tuple(g["qubits"]), tuple(g["params"]))
        for g in raw["gates"]
    ]
    return GateGroup(
        gates=gates,
        qubits=tuple(raw.get("qubits", ())),
        node_indices=tuple(raw.get("node_indices", ())),
    )


def entry_to_dict(entry: LibraryEntry) -> Dict:
    """Serialize one library entry (shared by the library and the disk store)."""
    return {
        "key": entry.group.key().hex(),
        "latency": entry.latency,
        "iterations": entry.iterations,
        "converged": entry.converged,
        **group_to_dict(entry.group),
        "pulse": entry.pulse.to_dict() if entry.pulse else None,
    }


def entry_from_dict(raw: Dict) -> LibraryEntry:
    """Inverse of :func:`entry_to_dict`."""
    pulse = Pulse.from_dict(raw["pulse"]) if raw.get("pulse") else None
    return LibraryEntry(
        group=group_from_dict(raw),
        pulse=pulse,
        latency=float(raw["latency"]),
        iterations=int(raw["iterations"]),
        converged=bool(raw.get("converged", True)),
    )


class PulseLibrary:
    """Canonical-keyed store of compiled group pulses."""

    def __init__(self) -> None:
        self._entries: Dict[bytes, LibraryEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, group: GateGroup) -> bool:
        return group.key() in self._entries

    def keys(self) -> Iterable[bytes]:
        return self._entries.keys()

    def entries(self) -> List[LibraryEntry]:
        return list(self._entries.values())

    def add(self, entry: LibraryEntry) -> None:
        self._entries[entry.group.key()] = entry

    def lookup(self, group: GateGroup) -> Optional[LibraryEntry]:
        return self._entries.get(group.key())

    def lookup_key(self, key: bytes) -> Optional[LibraryEntry]:
        """Direct canonical-key access (the disk store addresses by key)."""
        return self._entries.get(key)

    def remove(self, key: bytes) -> Optional[LibraryEntry]:
        """Drop an entry by key (store eviction); returns it when present."""
        return self._entries.pop(key, None)

    def merge(self, other: "PulseLibrary") -> None:
        """Absorb ``other``'s entries; its entries win on key collisions."""
        self._entries.update(other._entries)

    def latency_of(self, group: GateGroup) -> float:
        entry = self.lookup(group)
        if entry is None:
            raise KeyError("group not in library")
        return entry.latency

    def pulse_for(self, group: GateGroup) -> Optional[Pulse]:
        """Stored pulse with drive lines permuted onto ``group``'s wire order.

        With stored matrix Ms and query Mq sharing a canonical form via
        permutations permS and permQ, Mq = permute(Ms, inv(permQ) o permS);
        the same relabelling applied to the pulse's control lines makes the
        stored waveform drive the queried unitary.
        """
        entry = self.lookup(group)
        if entry is None or entry.pulse is None:
            return None
        _, perm_stored = canonical_representative(entry.group.matrix())
        _, perm_query = canonical_representative(group.matrix())
        if perm_stored == perm_query:
            return entry.pulse
        inverse_query = _invert(perm_query)
        relative = tuple(inverse_query[p] for p in perm_stored)
        return permute_pulse_wires(entry.pulse, relative)

    # ------------------------------------------------------------- coverage
    def coverage(self, groups: Sequence[GateGroup]) -> CoverageReport:
        covered = 0
        uncovered: Dict[bytes, GateGroup] = {}
        for group in groups:
            if group.key() in self._entries:
                covered += 1
            else:
                uncovered.setdefault(group.key(), group)
        return CoverageReport(
            n_groups=len(groups),
            n_covered=covered,
            uncovered_unique=list(uncovered.values()),
        )

    # -------------------------------------------------------- serialization
    def to_dict(self) -> Dict:
        return {"entries": [entry_to_dict(e) for e in self._entries.values()]}

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            # json.dumps runs the C encoder; json.dump the pure-Python one.
            handle.write(json.dumps(self.to_dict()))

    @classmethod
    def from_dict(cls, data: Dict) -> "PulseLibrary":
        library = cls()
        for raw in data.get("entries", ()):
            library.add(entry_from_dict(raw))
        return library

    @classmethod
    def load(cls, path: str) -> "PulseLibrary":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))


def _invert(perm: Tuple[int, ...]) -> Tuple[int, ...]:
    out = [0] * len(perm)
    for i, p in enumerate(perm):
        out[p] = i
    return tuple(out)
