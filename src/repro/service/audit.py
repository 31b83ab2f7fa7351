"""Fleet auditor: typed findings over any store spec, strictly read-only.

``repro store audit --store <spec>`` walks whatever the spec names — a
single directory, a sharded root, or a ``remote://`` routing table with
replica lists — and emits :class:`Finding` records from a fixed catalog
(:data:`CHECKS`): each has a stable ``code``, a ``severity`` from
:data:`SEVERITIES`, a ``locus`` naming the shard/replica it was found at
(``store``, ``shard-0``, ``shard-0/replica-1``), a human message, and a
machine-readable ``details`` dict. The worst severity maps to a distinct
exit code via :func:`exit_code_for`, so CI can gate on fleet health the
same way it gates on tests (``--fail-on error``).

The auditor is **read-only by construction**. Local stores are walked by
reading ``manifest.json`` and listing ``entries/`` directly — it never
instantiates a :class:`~repro.service.store.PulseStore`, whose corrupt-
manifest recovery path *writes* a rebuilt manifest; a manifest the
auditor cannot parse is itself a finding (``manifest_unreadable``),
which is the whole point of auditing. Remote fleets are probed with two
RPCs per replica — one ``keys_digest`` (the constant-size convergence
probe) and one ``stats`` — both side-effect-free on the server.

Finding catalog (code -> severity):

* ``replica_unreachable`` (error) — a probe could not reach a replica
  after its (tight) retry budget.
* ``replica_divergence`` (error) — replicas of one route answer
  different key-set digests; anti-entropy or ``repro store repair``
  should close it.
* ``fingerprint_drift`` (critical) — the fleet serves more than one
  engine-identity stamp: some copy of the data was produced under a
  different engine/run configuration and its latencies are wrong for the
  others' clients.
* ``manifest_unreadable`` (critical) — a manifest (or shard map) failed
  to parse or carries an incompatible version.
* ``orphan_entries`` (warn) — entry files on disk with no manifest row
  (torn puts or an interrupted migration); harmless individually, but a
  growing count means flushes are not landing. A local walk lists them;
  a remote probe reads the server-counted ``orphans`` stat, so the
  finding fires either way.
* ``stale_manifest_rows`` (info) — manifest rows whose entry file is
  missing (tolerated on load, worth knowing about).
* ``shard_imbalance`` (warn) — the fullest shard holds more than
  ``thresholds.shard_imbalance`` times the mean; the digest ranges are
  uniform, so imbalance this large means mis-routing or a half-migrated
  reshard.
* ``non_converged`` (warn) — more than ``thresholds.non_converged_ratio``
  of entries never converged; run ``repro store revalidate``.
* ``eviction_pressure`` (warn) — a server has evicted more than
  ``thresholds.eviction_ratio`` of what it ingested since start: the
  LRU bound is too tight for the working set.
* ``antientropy_stalled`` (error) — the loop is attached but its thread
  is dead, or it has completed zero rounds after several intervals.
* ``antientropy_paused`` (warn) — the loop is paused; divergence will
  not self-heal until resumed.
* ``antientropy_unreachable_peers`` (warn) — rounds are skipping an
  unreachable peer.
* ``elevated_quorum_failures`` (error), ``elevated_degraded`` (warn),
  ``elevated_retry_exhausted`` (warn) — a served store's own counters
  show writes breaking quorum / absorbed degradations / burned retry
  budgets since server start.
* ``elevated_load_shedding`` (warn) — with ``--fabric host:port``: the
  worker fabric's counters show the async front door shedding more than
  ``thresholds.shed_ratio`` of admissions — the fleet is undersized for
  its traffic (add workers, raise ``--max-queue``, or accept the sheds).

Exit codes (:func:`exit_code_for`): 0 when no finding reaches the
``--fail-on`` gate, else 1/4/5/6 for a worst finding of
info/warn/error/critical (2 stays the usage error, 3 the batch quorum
failure — an auditor exit is always distinguishable from both).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.service.store import ENTRIES_DIR, MANIFEST_NAME, MANIFEST_VERSION

SEVERITIES = ("info", "warn", "error", "critical")

# Worst-severity -> process exit code. 2 (usage) and 3 (quorum failure)
# are already spoken for by the front doors, so the audit gate gets its
# own contiguous band; 0 means "clean, or nothing at/above the gate".
EXIT_BY_SEVERITY = {"info": 1, "warn": 4, "error": 5, "critical": 6}

# The catalog: every finding the auditor can emit, with its severity and
# a one-line operator meaning. Emitting a code not in this table is a
# bug (Finding.__post_init__ enforces it), so the table doubles as the
# documentation CI dashboards key off.
CHECKS: Dict[str, Tuple[str, str]] = {
    "replica_unreachable": (
        "error", "a replica did not answer the audit probes"),
    "replica_divergence": (
        "error", "replicas of one route hold different key sets"),
    "fingerprint_drift": (
        "critical", "the fleet serves more than one engine fingerprint"),
    "manifest_unreadable": (
        "critical", "a manifest or shard map failed to parse"),
    "orphan_entries": (
        "warn", "entry files on disk with no manifest row"),
    "stale_manifest_rows": (
        "info", "manifest rows whose entry file is missing"),
    "shard_imbalance": (
        "warn", "one shard holds far more entries than the mean"),
    "non_converged": (
        "warn", "too many entries never reached convergence"),
    "eviction_pressure": (
        "warn", "the LRU bound is evicting a large share of ingest"),
    "antientropy_stalled": (
        "error", "the anti-entropy loop is attached but not making rounds"),
    "antientropy_paused": (
        "warn", "the anti-entropy loop is paused"),
    "antientropy_unreachable_peers": (
        "warn", "anti-entropy rounds are skipping an unreachable peer"),
    "elevated_quorum_failures": (
        "error", "writes have been breaking their quorum"),
    "elevated_degraded": (
        "warn", "operations have been absorbed as degradations"),
    "elevated_retry_exhausted": (
        "warn", "RPCs have been burning their whole retry budget"),
    "elevated_load_shedding": (
        "warn", "the front door is shedding a large share of admissions"),
}


def severity_rank(severity: str) -> int:
    """Position in :data:`SEVERITIES` (loud on unknown levels)."""
    try:
        return SEVERITIES.index(severity)
    except ValueError:
        raise ValueError(
            f"unknown severity {severity!r}; expected one of "
            f"{'|'.join(SEVERITIES)}"
        ) from None


@dataclass
class Finding:
    """One typed audit finding (see the module docstring's catalog)."""

    code: str
    locus: str
    message: str
    details: Dict = field(default_factory=dict)
    severity: str = ""  # defaulted from CHECKS by __post_init__

    def __post_init__(self) -> None:
        if self.code not in CHECKS:
            raise ValueError(
                f"finding code {self.code!r} is not in the audit catalog"
            )
        if not self.severity:
            self.severity = CHECKS[self.code][0]
        severity_rank(self.severity)  # loud on garbage

    def to_dict(self) -> Dict:
        return {
            "code": self.code,
            "severity": self.severity,
            "locus": self.locus,
            "message": self.message,
            "details": self.details,
        }


def worst_severity(findings: Sequence[Finding]) -> Optional[str]:
    """The highest severity present, or None for a clean audit."""
    worst = None
    for finding in findings:
        if worst is None or severity_rank(finding.severity) > severity_rank(worst):
            worst = finding.severity
    return worst


def exit_code_for(findings: Sequence[Finding], fail_on: str = "error") -> int:
    """Severity-gated exit code: 0 below the gate, else the worst's code."""
    severity_rank(fail_on)  # validate the gate itself
    worst = worst_severity(findings)
    if worst is None or severity_rank(worst) < severity_rank(fail_on):
        return 0
    return EXIT_BY_SEVERITY[worst]


@dataclass(frozen=True)
class AuditThresholds:
    """Tunable floors for the ratio/imbalance checks.

    ``shard_imbalance``: fullest-shard-to-mean ratio beyond which the
    digest ranges cannot plausibly be uniform (checked only once the
    store holds at least ``imbalance_min_entries`` so tiny stores never
    alarm). ``non_converged_ratio``: tolerated fraction of entries that
    never converged. ``eviction_ratio``: tolerated evictions-to-puts
    ratio since server start. ``stall_intervals``: how many anti-entropy
    intervals may pass with zero completed rounds before the loop counts
    as stalled. ``shed_ratio``: tolerated fraction of admissions the
    front door refused (sheds over sheds-plus-dispatches) before the
    fabric probe flags ``elevated_load_shedding``.
    """

    shard_imbalance: float = 2.0
    imbalance_min_entries: int = 16
    non_converged_ratio: float = 0.5
    eviction_ratio: float = 0.25
    stall_intervals: float = 3.0
    shed_ratio: float = 0.05


@dataclass
class _ShardView:
    """What the walk learned about one shard (local part or remote route)."""

    locus: str
    entries: Optional[int] = None  # None: nothing reachable to count
    non_converged: Optional[int] = None
    fingerprints: List[str] = field(default_factory=list)


class FleetAuditor:
    """Read-only walk of one store spec, yielding typed findings.

    ``spec`` is anything ``--store`` accepts: a local directory (plain or
    sharded) or a ``remote://`` routing table whose routes may carry
    ``|``-separated replica lists. Local specs are audited from the disk
    bytes alone; remote specs cost two RPCs per replica (``keys_digest``
    + ``stats``) under a deliberately tight retry policy — an audit of a
    dead fleet must answer in seconds, not sit out a client backoff
    ladder per replica.
    """

    def __init__(
        self,
        spec: str,
        thresholds: Optional[AuditThresholds] = None,
        timeout_s: float = 5.0,
        fabric: Optional[str] = None,
    ) -> None:
        self.spec = str(spec)
        self.thresholds = thresholds or AuditThresholds()
        self.timeout_s = float(timeout_s)
        self.fabric = fabric

    # ------------------------------------------------------------------ run
    def run(self) -> List[Finding]:
        """One full audit pass; findings sorted worst-first, then locus."""
        findings: List[Finding] = []
        if "remote://" in self.spec:
            shards = self._audit_remote(findings)
        else:
            shards = self._audit_local(findings)
        self._check_fleet(shards, findings)
        if self.fabric:
            self._audit_fabric(self.fabric, findings)
        findings.sort(
            key=lambda f: (-severity_rank(f.severity), f.locus, f.code)
        )
        return findings

    def to_report(self, findings: Sequence[Finding]) -> Dict:
        """The ``repro store audit --json`` document."""
        return {
            "spec": self.spec,
            "findings": [f.to_dict() for f in findings],
            "worst": worst_severity(findings),
            "counts": {
                severity: sum(1 for f in findings if f.severity == severity)
                for severity in SEVERITIES
            },
        }

    # ---------------------------------------------------------- local walk
    def _audit_local(self, findings: List[Finding]) -> List[_ShardView]:
        from repro.service.sharding import (
            is_sharded,
            load_shard_map,
            shard_dir_name,
        )
        from repro.service.store import StoreVersionError

        root = self.spec
        if is_sharded(root):
            try:
                shard_map = load_shard_map(root)
            except StoreVersionError as exc:
                findings.append(Finding(
                    code="manifest_unreadable",
                    locus="store",
                    message=f"shard map at {root!r} is unreadable: {exc}",
                    details={"file": os.path.join(root, "shardmap.json")},
                ))
                return []
            parts = [
                (f"shard-{i}", os.path.join(root, shard_dir_name(i)))
                for i in range(shard_map["n_shards"])
            ]
        else:
            parts = [("shard-0", root)]
        return [
            self._audit_part(locus, part_dir, findings)
            for locus, part_dir in parts
        ]

    def _audit_part(
        self, locus: str, part_dir: str, findings: List[Finding]
    ) -> _ShardView:
        """One PulseStore directory, from the raw disk bytes only."""
        view = _ShardView(locus=locus)
        manifest_path = os.path.join(part_dir, MANIFEST_NAME)
        entries_dir = os.path.join(part_dir, ENTRIES_DIR)
        on_disk = set()
        if os.path.isdir(entries_dir):
            on_disk = {
                name[: -len(".json")]
                for name in os.listdir(entries_dir)
                if name.endswith(".json")
            }
        rows: Dict[str, Dict] = {}
        if os.path.exists(manifest_path):
            try:
                with open(manifest_path) as handle:
                    manifest = json.load(handle)
                if not isinstance(manifest, dict):
                    raise ValueError("manifest is not an object")
            except (OSError, ValueError) as exc:
                findings.append(Finding(
                    code="manifest_unreadable",
                    locus=locus,
                    message=f"manifest at {manifest_path!r} is unreadable: "
                            f"{exc} (a PulseStore would rewrite it from the "
                            f"entry files; the auditor only reports)",
                    details={"file": manifest_path},
                ))
                return view
            if manifest.get("version") != MANIFEST_VERSION:
                findings.append(Finding(
                    code="manifest_unreadable",
                    locus=locus,
                    message=f"manifest at {manifest_path!r} has version "
                            f"{manifest.get('version')!r}; this build reads "
                            f"version {MANIFEST_VERSION}",
                    details={
                        "file": manifest_path,
                        "version": manifest.get("version"),
                    },
                ))
                return view
            if manifest.get("fingerprint"):
                view.fingerprints = [str(manifest["fingerprint"])]
            raw_rows = manifest.get("entries", {})
            if isinstance(raw_rows, dict):
                rows = raw_rows
        view.entries = len(rows)
        view.non_converged = sum(
            1
            for meta in rows.values()
            if isinstance(meta, dict) and not meta.get("converged", True)
        )
        orphans = sorted(on_disk - set(rows))
        if orphans:
            findings.append(Finding(
                code="orphan_entries",
                locus=locus,
                message=f"{len(orphans)} entry file(s) under "
                        f"{entries_dir!r} have no manifest row",
                details={"count": len(orphans), "sample": orphans[:5]},
            ))
        stale = sorted(set(rows) - on_disk)
        if stale:
            findings.append(Finding(
                code="stale_manifest_rows",
                locus=locus,
                message=f"{len(stale)} manifest row(s) at {locus} have no "
                        f"entry file (tolerated on load)",
                details={"count": len(stale), "sample": stale[:5]},
            ))
        return view

    # --------------------------------------------------------- remote walk
    def _audit_remote(self, findings: List[Finding]) -> List[_ShardView]:
        from repro.service.remote import parse_routes

        return [
            self._audit_route(f"shard-{index}", replicas, findings)
            for index, (_route, replicas, _params) in enumerate(
                parse_routes(self.spec)
            )
        ]

    def _probe_replica(self, replica_spec: str) -> Optional[Dict]:
        """Two read-only RPCs against one replica; None when unreachable."""
        from repro.service.remote import (
            RemoteStore,
            RemoteUnavailable,
            RetryPolicy,
        )

        client = RemoteStore(
            replica_spec,
            timeout_s=self.timeout_s,
            stat_prefix="store.audit.",
            retry=RetryPolicy(attempts=2, base_s=0.05, cap_s=0.5),
        )
        try:
            probe = client.fetch_keys_digest()
            stats = client.server_stats()
            if stats is None:
                return None
            stats["digest"] = probe["digest"]
            stats["digest_n"] = probe["n"]
            stats["address"] = client.address
            return stats
        except RemoteUnavailable:
            return None
        finally:
            client.close()

    def _audit_route(
        self, locus: str, replicas: List[str], findings: List[Finding]
    ) -> _ShardView:
        view = _ShardView(locus=locus)
        probes: List[Optional[Dict]] = []
        for j, replica_spec in enumerate(replicas):
            probe = self._probe_replica(replica_spec)
            probes.append(probe)
            replica_locus = (
                f"{locus}/replica-{j}" if len(replicas) > 1 else locus
            )
            if probe is None:
                findings.append(Finding(
                    code="replica_unreachable",
                    locus=replica_locus,
                    message=f"replica {replica_spec} did not answer the "
                            f"audit probes",
                    details={"address": replica_spec},
                ))
                continue
            view.fingerprints = sorted(
                set(view.fingerprints) | set(probe.get("fingerprints") or [])
            )
            self._check_server_counters(replica_locus, probe, findings)
            self._check_antientropy(replica_locus, probe, findings)
        reachable = [p for p in probes if p is not None]
        if reachable:
            # The route's logical size: what a failover read would see,
            # i.e. the fullest reachable copy.
            view.entries = max(p["digest_n"] for p in reachable)
            counted = [
                p["non_converged"]
                for p in reachable
                if p.get("non_converged") is not None
            ]
            if counted:
                view.non_converged = max(counted)
        digests = {p["digest"] for p in reachable}
        if len(digests) > 1:
            findings.append(Finding(
                code="replica_divergence",
                locus=locus,
                message=f"replicas of {locus} hold different key sets "
                        f"({len(digests)} distinct digests); anti-entropy "
                        f"or `repro store repair` should converge them",
                details={
                    "replicas": [
                        {
                            "address": p["address"],
                            "digest": p["digest"][:16],
                            "entries": p["digest_n"],
                        }
                        for p in reachable
                    ],
                },
            ))
        return view

    def _check_server_counters(
        self, locus: str, probe: Dict, findings: List[Finding]
    ) -> None:
        stats = probe.get("stats") or {}
        puts = float(stats.get("puts", 0) or 0)
        evictions = float(stats.get("evictions", 0) or 0)
        if puts > 0 and evictions / puts > self.thresholds.eviction_ratio:
            findings.append(Finding(
                code="eviction_pressure",
                locus=locus,
                message=f"{locus} evicted {evictions:.0f} of "
                        f"{puts:.0f} entries put since server start "
                        f"(> {self.thresholds.eviction_ratio:.0%}); its LRU "
                        f"bound is too tight for the working set",
                details={"puts": puts, "evictions": evictions},
            ))
        orphans = probe.get("orphans")
        if isinstance(orphans, (int, float)) and orphans > 0:
            # Server-counted (it can listdir its own disk; we can't over
            # the wire), so a remote audit surfaces the same debris a
            # local walk would.
            findings.append(Finding(
                code="orphan_entries",
                locus=locus,
                message=f"{locus} reports {orphans:.0f} entry file(s) on "
                        f"its disk with no manifest row",
                details={"count": int(orphans)},
            ))
        for stat, code in (
            ("quorum_failures", "elevated_quorum_failures"),
            ("degraded", "elevated_degraded"),
            ("retry_exhausted", "elevated_retry_exhausted"),
        ):
            value = float(stats.get(stat, 0) or 0)
            if value > 0:
                findings.append(Finding(
                    code=code,
                    locus=locus,
                    message=f"{locus} counts {stat}={value:.0f} since "
                            f"server start",
                    details={stat: value},
                ))

    def _check_antientropy(
        self, locus: str, probe: Dict, findings: List[Finding]
    ) -> None:
        status = probe.get("antientropy")
        if not isinstance(status, dict):
            return
        if status.get("paused"):
            findings.append(Finding(
                code="antientropy_paused",
                locus=locus,
                message=f"the anti-entropy loop at {locus} is paused; "
                        f"divergence will not self-heal until resumed",
                details={"status": status},
            ))
        uptime = probe.get("uptime_s")
        interval = float(status.get("interval_s", 0) or 0)
        stalled = not status.get("running", False)
        reason = "its thread is not running"
        if (
            not stalled
            and uptime is not None
            and interval > 0
            and float(status.get("rounds", 0) or 0) == 0
            and float(uptime) > self.thresholds.stall_intervals * interval
        ):
            stalled = True
            reason = (
                f"zero rounds completed in {float(uptime):.0f}s "
                f"(interval {interval:g}s)"
            )
        if stalled:
            findings.append(Finding(
                code="antientropy_stalled",
                locus=locus,
                message=f"the anti-entropy loop at {locus} is stalled: "
                        f"{reason}",
                details={"status": status, "uptime_s": uptime},
            ))
        if float(status.get("skipped_unreachable", 0) or 0) > 0:
            findings.append(Finding(
                code="antientropy_unreachable_peers",
                locus=locus,
                message=f"anti-entropy rounds at {locus} have skipped an "
                        f"unreachable peer "
                        f"{status.get('skipped_unreachable')} time(s)",
                details={
                    "skipped_unreachable": status.get("skipped_unreachable"),
                    "peers": status.get("peers"),
                },
            ))

    # ----------------------------------------------------- fabric probe
    def _audit_fabric(self, spec: str, findings: List[Finding]) -> None:
        """One ``stats`` round trip against a worker fabric: is the front
        door shedding a meaningful share of what it was asked to admit?"""
        from repro.service.remote import RemoteUnavailable, fabric_stats

        try:
            stats = fabric_stats(spec, timeout_s=self.timeout_s)
        except RemoteUnavailable as exc:
            findings.append(Finding(
                code="replica_unreachable",
                locus="fabric",
                message=f"worker fabric {spec} did not answer the stats "
                        f"probe: {exc}",
                details={"address": spec},
            ))
            return
        n_shed = float(stats.get("n_shed", 0) or 0)
        n_dispatched = float(stats.get("n_dispatched", 0) or 0)
        ratio = n_shed / (n_shed + max(1.0, n_dispatched))
        if ratio > self.thresholds.shed_ratio:
            findings.append(Finding(
                code="elevated_load_shedding",
                locus="fabric",
                message=f"the front door shed {n_shed:.0f} request(s) "
                        f"against {n_dispatched:.0f} dispatched part(s) "
                        f"({ratio:.0%} > {self.thresholds.shed_ratio:.0%}); "
                        f"the fleet is undersized for its traffic — add "
                        f"workers, raise --max-queue, or accept the sheds",
                details={
                    "n_shed": n_shed,
                    "n_dispatched": n_dispatched,
                    "ratio": ratio,
                    "workers_connected": stats.get("workers_connected"),
                    "parts_queued": stats.get("parts_queued"),
                },
            ))

    # --------------------------------------------------- fleet-wide checks
    def _check_fleet(
        self, shards: List[_ShardView], findings: List[Finding]
    ) -> None:
        fingerprints = sorted(
            {fp for view in shards for fp in view.fingerprints}
        )
        if len(fingerprints) > 1:
            findings.append(Finding(
                code="fingerprint_drift",
                locus="store",
                message=f"the fleet serves {len(fingerprints)} distinct "
                        f"engine fingerprints; every copy must be produced "
                        f"under one engine/run configuration",
                details={
                    "fingerprints": fingerprints,
                    "by_shard": {
                        view.locus: view.fingerprints
                        for view in shards
                        if view.fingerprints
                    },
                },
            ))
        sized = [view for view in shards if view.entries is not None]
        total = sum(view.entries for view in sized)
        if (
            len(sized) > 1
            and total >= self.thresholds.imbalance_min_entries
        ):
            mean = total / len(sized)
            fullest = max(sized, key=lambda view: view.entries)
            if mean > 0 and fullest.entries / mean > self.thresholds.shard_imbalance:
                findings.append(Finding(
                    code="shard_imbalance",
                    locus=fullest.locus,
                    message=f"{fullest.locus} holds {fullest.entries} "
                            f"entries against a mean of {mean:.1f} "
                            f"(> {self.thresholds.shard_imbalance:g}x); "
                            f"uniform digest ranges cannot produce this — "
                            f"check for mis-routing or a half-done reshard",
                    details={
                        "entries": fullest.entries,
                        "mean": mean,
                        "by_shard": {
                            view.locus: view.entries for view in sized
                        },
                    },
                ))
        counted = [
            view for view in sized if view.non_converged is not None
        ]
        n_entries = sum(view.entries for view in counted)
        n_bad = sum(view.non_converged for view in counted)
        if (
            n_entries > 0
            and n_bad / n_entries > self.thresholds.non_converged_ratio
        ):
            findings.append(Finding(
                code="non_converged",
                locus="store",
                message=f"{n_bad} of {n_entries} entries never converged "
                        f"(> {self.thresholds.non_converged_ratio:.0%}); "
                        f"run `repro store revalidate` in an idle window",
                details={"non_converged": n_bad, "entries": n_entries},
            ))
