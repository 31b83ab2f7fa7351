"""Fleet auditor and dashboard: typed findings, gated exits, live endpoints.

The contract under test: each seeded fault yields *exactly* its finding
code at its locus (a diverged replica -> ``replica_divergence`` on the
route, an orphan entry file -> ``orphan_entries`` on the shard, a
wrong-fingerprint manifest -> ``fingerprint_drift`` on the store), a
healthy fleet audits clean with exit 0, the exit code is gated on
``--fail-on``, and the audit never writes a byte — a corrupt manifest is
reported, not repaired. The dashboard serves the same numbers over
``/stats.json``, ``/metrics`` (Prometheus text), and ``/findings``.
"""

import json
import os
import urllib.request

import pytest

from repro.service import (
    CompileService,
    Finding,
    FleetAuditor,
    PulseStore,
    StoreServer,
    exit_code_for,
    open_store,
    worst_severity,
)
from repro.service.audit import CHECKS, EXIT_BY_SEVERITY, AuditThresholds
from repro.service.dashboard import fleet_targets, serve_dashboard
from repro.service.frontdoor import cmd_dashboard, cmd_store
from repro.utils.config import PipelineConfig
from repro.workloads import qft

CONFIG = dict(policy_name="map2b4l")


@pytest.fixture(scope="module")
def entries(tmp_path_factory):
    """Real library entries, compiled once and reused across tests."""
    root = tmp_path_factory.mktemp("feed")
    service = CompileService(
        PulseStore(str(root / "feed")),
        PipelineConfig(**CONFIG),
        backend="serial",
    )
    service.submit_batch([qft(4)])
    got = [service.store.peek_key(k) for k in service.store.keys()]
    assert len(got) >= 2
    return got


def _seeded(tmp_path, entries, name="store"):
    store = PulseStore(str(tmp_path / name))
    store.put_many(entries)
    store.flush()
    return store


def _codes(findings):
    return sorted(f.code for f in findings)


# ------------------------------------------------------------ typed model
def test_findings_are_typed_and_exit_codes_gate_on_severity():
    # Severity defaults come from the catalog; garbage codes are loud.
    finding = Finding(code="orphan_entries", locus="shard-0", message="x")
    assert finding.severity == "warn"
    assert finding.to_dict()["severity"] == "warn"
    with pytest.raises(ValueError):
        Finding(code="made_up_code", locus="store", message="x")
    with pytest.raises(ValueError):
        Finding(code="orphan_entries", locus="store", message="x",
                severity="fatal")

    warn = Finding(code="orphan_entries", locus="shard-0", message="x")
    error = Finding(code="replica_divergence", locus="shard-0", message="x")
    critical = Finding(code="fingerprint_drift", locus="store", message="x")
    assert worst_severity([]) is None
    assert worst_severity([warn, critical, error]) == "critical"
    # Below the gate -> 0; at/above -> the *worst* severity's exit code.
    assert exit_code_for([], "error") == 0
    assert exit_code_for([warn], "error") == 0
    assert exit_code_for([warn], "warn") == EXIT_BY_SEVERITY["warn"] == 4
    assert exit_code_for([warn, error], "error") == 5
    assert exit_code_for([warn, error, critical], "error") == 6
    assert exit_code_for([critical], "critical") == 6
    with pytest.raises(ValueError):
        exit_code_for([], "loud")
    # Every catalog severity is a known level.
    assert {sev for sev, _ in CHECKS.values()} <= set(EXIT_BY_SEVERITY)


# ------------------------------------------------------------- local walks
def test_healthy_local_store_audits_clean(tmp_path, entries):
    store = _seeded(tmp_path, entries)
    findings = FleetAuditor(store.root).run()
    assert findings == []
    assert exit_code_for(findings) == 0


def test_orphan_entry_file_is_exactly_one_warn_finding(tmp_path, entries):
    store = _seeded(tmp_path, entries)
    orphan = os.path.join(store.root, "entries", "ab" * 32 + ".json")
    with open(orphan, "w") as handle:
        handle.write("{}")
    findings = FleetAuditor(store.root).run()
    assert _codes(findings) == ["orphan_entries"]
    assert findings[0].severity == "warn"
    assert findings[0].locus == "shard-0"
    assert findings[0].details["count"] == 1
    assert ("ab" * 32) in findings[0].details["sample"]
    # warn stays below the default error gate, but gates under --fail-on warn
    assert exit_code_for(findings) == 0
    assert exit_code_for(findings, "warn") == 4


def test_stale_manifest_row_is_info(tmp_path, entries):
    store = _seeded(tmp_path, entries)
    entries_dir = os.path.join(store.root, "entries")
    victim = sorted(os.listdir(entries_dir))[0]
    os.unlink(os.path.join(entries_dir, victim))
    findings = FleetAuditor(store.root).run()
    assert _codes(findings) == ["stale_manifest_rows"]
    assert findings[0].severity == "info"
    assert exit_code_for(findings) == 0


def test_corrupt_manifest_is_reported_never_repaired(tmp_path, entries):
    store = _seeded(tmp_path, entries)
    manifest = os.path.join(store.root, "manifest.json")
    with open(manifest, "w") as handle:
        handle.write("{torn json")
    findings = FleetAuditor(store.root).run()
    assert _codes(findings) == ["manifest_unreadable"]
    assert findings[0].severity == "critical"
    assert exit_code_for(findings) == 6
    # Read-only by construction: the torn bytes are still on disk
    # (a PulseStore open would have rebuilt the manifest instead).
    with open(manifest) as handle:
        assert handle.read() == "{torn json"


def test_fingerprint_drift_across_shards_is_critical(tmp_path, entries):
    root = str(tmp_path / "sharded")
    store = open_store(root, shards=2)
    store.put_many(entries)
    store.flush()
    for index, stamp in enumerate(["engineA;v1", "engineB;v2"]):
        path = os.path.join(root, f"shard-{index:02d}", "manifest.json")
        with open(path) as handle:
            manifest = json.load(handle)
        manifest["fingerprint"] = stamp
        with open(path, "w") as handle:
            json.dump(manifest, handle)
    findings = FleetAuditor(root).run()
    assert _codes(findings) == ["fingerprint_drift"]
    assert findings[0].severity == "critical"
    assert findings[0].locus == "store"
    assert findings[0].details["fingerprints"] == [
        "engineA;v1", "engineB;v2",
    ]
    assert exit_code_for(findings) == 6


def test_shard_imbalance_and_non_converged_ratios(tmp_path):
    # Fabricated manifests: every row's entry file exists, so only the
    # ratio checks can fire. shard-0 holds 24 rows (half of them never
    # converged), shard-1 none.
    root = str(tmp_path / "lopsided")
    open_store(root, shards=2).flush()
    shard0 = os.path.join(root, "shard-00")
    rows = {}
    for i in range(24):
        digest = f"{i:064x}"
        rows[digest] = {"converged": i % 2 == 0}
        with open(os.path.join(shard0, "entries", digest + ".json"),
                  "w") as handle:
            handle.write("{}")
    with open(os.path.join(shard0, "manifest.json")) as handle:
        manifest = json.load(handle)
    manifest["entries"] = rows
    with open(os.path.join(shard0, "manifest.json"), "w") as handle:
        json.dump(manifest, handle)
    thresholds = AuditThresholds(
        shard_imbalance=1.5, non_converged_ratio=0.25
    )
    findings = FleetAuditor(root, thresholds=thresholds).run()
    assert _codes(findings) == ["non_converged", "shard_imbalance"]
    by_code = {f.code: f for f in findings}
    assert by_code["shard_imbalance"].locus == "shard-0"
    assert by_code["shard_imbalance"].details["by_shard"] == {
        "shard-0": 24, "shard-1": 0,
    }
    assert by_code["non_converged"].details == {
        "non_converged": 12, "entries": 24,
    }
    # Default thresholds stay quiet here: with two shards the fullest
    # can hold at most 2.0x the mean (never *beyond* it), and the
    # convergence default (50%) tolerates exactly half.
    default = FleetAuditor(root).run()
    assert _codes(default) == []


# ------------------------------------------------------------ remote walks
def test_replica_divergence_then_unreachable(tmp_path, entries):
    store_a = _seeded(tmp_path, entries, "ra")
    store_b = PulseStore(str(tmp_path / "rb"))  # empty: diverged
    server_a = StoreServer(store_a).start()
    server_b = StoreServer(store_b).start()
    spec = (
        f"remote://127.0.0.1:{server_a.port}|127.0.0.1:{server_b.port}"
    )
    try:
        findings = FleetAuditor(spec, timeout_s=2.0).run()
        assert _codes(findings) == ["replica_divergence"]
        assert findings[0].severity == "error"
        assert findings[0].locus == "shard-0"
        replicas = findings[0].details["replicas"]
        assert len(replicas) == 2
        assert {r["entries"] for r in replicas} == {len(entries), 0}
        assert exit_code_for(findings) == 5
        assert exit_code_for(findings, "critical") == 0  # gated below

        # Heal by hand and the same spec audits clean.
        store_b.put_many(entries)
        store_b.flush()
        assert FleetAuditor(spec, timeout_s=2.0).run() == []

        # A dead replica is unreachable — and no longer *divergent*
        # (divergence is judged among the replicas that answered).
        server_b.stop()
        findings = FleetAuditor(spec, timeout_s=2.0).run()
        assert _codes(findings) == ["replica_unreachable"]
        assert findings[0].locus == "shard-0/replica-1"
        assert exit_code_for(findings) == 5
    finally:
        server_a.stop()
        server_b.stop()


def test_one_remote_audit_reports_divergence_orphans_and_drift(
    tmp_path, entries, capsys
):
    """The acceptance scenario: three faults, one `repro store audit`.

    Orphan files are disk-level, so the server counts them itself and
    ships the count in its stats reply — a single remote audit surfaces
    all three codes without ever touching the servers' disks.
    """
    store_a = _seeded(tmp_path, entries, "ma")
    store_a.claim_fingerprint("engineA;v1")
    orphan = os.path.join(store_a.root, "entries", "ef" * 32 + ".json")
    with open(orphan, "w") as handle:
        handle.write("{}")
    store_b = PulseStore(str(tmp_path / "mb"))  # empty: diverged
    store_b.claim_fingerprint("engineB;v2")
    server_a = StoreServer(store_a).start()
    server_b = StoreServer(store_b).start()
    spec = (
        f"remote://127.0.0.1:{server_a.port}|127.0.0.1:{server_b.port}"
    )
    try:
        rc = cmd_store(["audit", "--store", spec, "--json"])
        report = json.loads(capsys.readouterr().out)
        by_code = {f["code"]: f for f in report["findings"]}
        assert sorted(by_code) == [
            "fingerprint_drift", "orphan_entries", "replica_divergence",
        ]
        assert by_code["fingerprint_drift"]["severity"] == "critical"
        assert by_code["fingerprint_drift"]["locus"] == "store"
        assert by_code["replica_divergence"]["severity"] == "error"
        assert by_code["replica_divergence"]["locus"] == "shard-0"
        assert by_code["orphan_entries"]["severity"] == "warn"
        assert by_code["orphan_entries"]["locus"] == "shard-0/replica-0"
        assert by_code["orphan_entries"]["details"]["count"] == 1
        # The worst finding (critical) picks the exit code once the
        # default error gate is crossed.
        assert report["worst"] == "critical"
        assert rc == EXIT_BY_SEVERITY["critical"] == 6
        # Gating strictly above the worst severity silences the exit.
        assert cmd_store(
            ["audit", "--store", spec, "--json", "--fail-on", "critical"]
        ) == 6
        capsys.readouterr()
    finally:
        server_a.stop()
        server_b.stop()


def test_healthy_replicated_fleet_audits_clean(tmp_path, entries):
    server_a = StoreServer(_seeded(tmp_path, entries, "ra")).start()
    server_b = StoreServer(_seeded(tmp_path, entries, "rb")).start()
    spec = (
        f"remote://127.0.0.1:{server_a.port}|127.0.0.1:{server_b.port}"
    )
    try:
        findings = FleetAuditor(spec, timeout_s=2.0).run()
        assert findings == []
        assert exit_code_for(findings) == 0
    finally:
        server_a.stop()
        server_b.stop()


# -------------------------------------------------------------------- CLI
def test_cli_audit_json_document_and_gated_exit(tmp_path, entries, capsys):
    store = _seeded(tmp_path, entries)
    assert cmd_store(["audit", "--store", store.root, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["findings"] == []
    assert report["worst"] is None

    orphan = os.path.join(store.root, "entries", "cd" * 32 + ".json")
    with open(orphan, "w") as handle:
        handle.write("{}")
    # Default gate (error) lets a warn through with exit 0 ...
    assert cmd_store(["audit", "--store", store.root, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [f["code"] for f in report["findings"]] == ["orphan_entries"]
    assert report["worst"] == "warn"
    assert report["counts"]["warn"] == 1
    # ... and --fail-on warn turns the same audit into exit 4, with the
    # human table naming the finding.
    assert cmd_store(
        ["audit", "--store", store.root, "--fail-on", "warn"]
    ) == 4
    out = capsys.readouterr().out
    assert "orphan_entries" in out
    assert "repro store audit" in out


def test_cli_audit_bad_spec_is_usage_error(tmp_path, capsys):
    rc = cmd_store(
        ["audit", "--store", "remote://no-port-here", "--json"]
    )
    assert rc == 2
    assert "repro store" in capsys.readouterr().err


# -------------------------------------------------------------- dashboard
def test_dashboard_targets_require_a_server(tmp_path, capsys):
    assert fleet_targets(str(tmp_path)) == []
    with pytest.raises(ValueError):
        serve_dashboard(str(tmp_path))
    assert cmd_dashboard(["--store", str(tmp_path)]) == 2
    assert "nothing to poll" in capsys.readouterr().err


def test_dashboard_serves_stats_metrics_and_findings(tmp_path, entries):
    store_a = _seeded(tmp_path, entries, "ra")
    server_a = StoreServer(store_a).start()
    server_b = StoreServer(PulseStore(str(tmp_path / "rb"))).start()
    spec = (
        f"remote://127.0.0.1:{server_a.port}|127.0.0.1:{server_b.port}"
    )
    dash = serve_dashboard(spec, port=0, interval_s=30.0)
    try:
        dash.poller.poll_once()
        base = f"http://127.0.0.1:{dash.port}"

        def fetch(path):
            return urllib.request.urlopen(base + path, timeout=10).read()

        assert json.loads(fetch("/healthz")) == {"ok": True}

        page = fetch("/").decode()
        assert "repro fleet dashboard" in page
        assert "/stats.json" in page

        snap = json.loads(fetch("/stats.json"))
        assert snap["fleet"]["targets"] == 2
        assert snap["fleet"]["up"] == 2
        assert snap["fleet"]["entries"] >= len(entries)
        labels = {row["target"] for row in snap["targets"]}
        assert labels == {"shard-0/replica-0", "shard-0/replica-1"}
        assert all(row["uptime_s"] >= 0 for row in snap["targets"])

        metrics = fetch("/metrics").decode()
        assert 'repro_store_up{target="shard-0/replica-0"} 1' in metrics
        assert 'repro_store_up{target="shard-0/replica-1"} 1' in metrics
        assert "repro_store_entries" in metrics
        assert "repro_store_puts_total" in metrics
        assert "repro_dashboard_polls_total" in metrics

        findings = json.loads(fetch("/findings"))
        assert findings["spec"] == spec
        assert [f["code"] for f in findings["findings"]] == [
            "replica_divergence",
        ]
        assert findings["worst"] == "error"

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            fetch("/no-such-page")
        assert excinfo.value.code == 404
    finally:
        dash.stop()
        server_a.stop()
        server_b.stop()


def test_poller_computes_rates_from_server_uptime_deltas(tmp_path, entries):
    store = _seeded(tmp_path, entries, "ra")
    server = StoreServer(store).start()
    dash = serve_dashboard(
        f"remote://127.0.0.1:{server.port}", port=0, interval_s=30.0
    )
    try:
        dash.poller.poll_once()
        # Traffic between polls becomes a positive per-second hit rate
        # computed from the *server's* uptime delta, not our wall clock.
        from repro.service.remote import RemoteStore

        client = RemoteStore(f"remote://127.0.0.1:{server.port}")
        for key in list(store.keys())[:2]:
            assert client.get_key(key) is not None
        client.close()
        snap = dash.poller.poll_once()
        row = snap["targets"][0]
        assert row["up"] is True
        assert row["rates"]["hits_per_s"] > 0
        assert row["restarts"] == 0
    finally:
        dash.stop()
        server.stop()
