"""Live fleet dashboard: stdlib HTTP front over the ``stats`` verb.

``repro dashboard --store <spec> [--fleet host:port,...]`` starts a
dependency-free :mod:`http.server` page for operating a replicated
fleet. A background :class:`FleetPoller` issues one ``stats`` RPC per
target per interval and turns the server-stamped ``uptime_s`` deltas
into true per-second rates (client wall-clock never enters the math, so
a slow poll cannot inflate a rate; an ``uptime_s`` that goes *backwards*
is a restart and is counted instead of producing a negative rate).

Endpoints:

* ``/`` — single-file HTML page (no external assets) polling
  ``/stats.json``: fleet stat tiles, a per-target health table with
  per-shard hit rates and failover/quorum counters, and anti-entropy
  heal progress. Status is always an icon *and* a word, never color
  alone; light and dark themes follow ``prefers-color-scheme``.
* ``/stats.json`` — the poller's latest snapshot, verbatim.
* ``/metrics`` — Prometheus text exposition (``repro_store_*``,
  ``repro_antientropy_*``, and with ``--fabric`` the ``repro_fabric_*``
  scheduler gauges) for scraping the same numbers the page shows.
* ``/findings`` — a live :class:`~repro.service.audit.FleetAuditor` pass
  over the ``--store`` spec, as the audit JSON report.
* ``/healthz`` — liveness of the dashboard process itself.

The dashboard is read-only end to end: ``stats`` and ``keys_digest``
are side-effect-free verbs, and the page never exposes a mutating
control. It observes the fleet; ``repro store repair`` changes it.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Sequence

from repro.service.remote import (
    REMOTE_SCHEME,
    RemoteStore,
    RetryPolicy,
    is_remote_spec,
    parse_remote_spec,
    parse_routes,
)

#: Counters (inside the server's ``stats`` dict) that the poller turns
#: into per-second rates from consecutive ``uptime_s``-stamped samples.
RATED_COUNTERS = ("hits", "misses", "puts", "evictions")


@dataclass(frozen=True)
class Target:
    """One polled server: a display label and its ``remote://`` spec."""

    label: str
    spec: str


def fleet_targets(
    store_spec: Optional[str] = None,
    fleet: Sequence[str] = (),
) -> List[Target]:
    """Expand a ``--store`` route table plus ``--fleet`` extras to targets.

    Every replica of every route becomes its own target (the dashboard
    shows per-replica health, not a failover view), labelled with the
    same ``shard-i[/replica-j]`` locus the auditor uses. ``--fleet``
    entries are bare ``host:port`` extras — servers worth watching that
    the routing table does not mention. A local directory spec expands
    to nothing; the caller decides whether zero targets is an error.
    """
    targets: List[Target] = []
    if store_spec and is_remote_spec(store_spec):
        for i, (_route, replicas, _params) in enumerate(
            parse_routes(store_spec)
        ):
            for j, replica in enumerate(replicas):
                host, port = parse_remote_spec(replica)
                label = (
                    f"shard-{i}/replica-{j}" if len(replicas) > 1
                    else f"shard-{i}"
                )
                targets.append(
                    Target(label, f"{REMOTE_SCHEME}{host}:{port}")
                )
    for extra in fleet:
        extra = str(extra).strip()
        if not extra:
            continue
        host, port = parse_remote_spec(extra)
        targets.append(
            Target(f"{host}:{port}", f"{REMOTE_SCHEME}{host}:{port}")
        )
    return targets


@dataclass
class _Sample:
    """Last good poll of one target (the rate baseline)."""

    uptime_s: float
    counters: Dict[str, float] = field(default_factory=dict)


class FleetPoller:
    """Background ``stats`` poller computing rates from server deltas.

    One persistent :class:`RemoteStore` client per target (a poll reuses
    the connection; a dead target costs one short reconnect attempt per
    interval, not a backoff ladder). ``snapshot()`` hands back the
    latest results without blocking on the wire.
    """

    def __init__(
        self,
        targets: Sequence[Target],
        interval_s: float = 2.0,
        timeout_s: float = 2.0,
        fabric: Optional[str] = None,
    ) -> None:
        self.targets = list(targets)
        self.interval_s = float(interval_s)
        self.fabric = fabric  # worker fabric host:port; polled via stats verb
        self.fabric_timeout_s = float(timeout_s)
        self._fabric_latest: Optional[Dict] = None
        self._clients = {
            t.label: RemoteStore(
                t.spec,
                timeout_s=float(timeout_s),
                stat_prefix="dashboard.poll.",
                retry=RetryPolicy(attempts=1, base_s=0.05, cap_s=0.1),
            )
            for t in self.targets
        }
        self._lock = threading.Lock()
        self._last: Dict[str, _Sample] = {}
        self._restarts: Dict[str, int] = {t.label: 0 for t in self.targets}
        self._latest: Dict[str, Dict] = {}
        self._polls = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------ lifecycle
    def start(self) -> "FleetPoller":
        if self._thread is None or not self._thread.is_alive():
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="fleet-poller", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        for client in self._clients.values():
            client.close()

    def _run(self) -> None:
        self.poll_once()
        while not self._stop.wait(self.interval_s):
            self.poll_once()

    # -------------------------------------------------------------- polling
    def poll_once(self) -> Dict:
        """One synchronous pass over every target; returns the snapshot."""
        rows = [self._poll_target(t) for t in self.targets]
        fabric_row = self._poll_fabric() if self.fabric else None
        with self._lock:
            self._polls += 1
            for row in rows:
                self._latest[row["target"]] = row
            if fabric_row is not None:
                self._fabric_latest = fabric_row
        return self.snapshot()

    def _poll_fabric(self) -> Dict:
        """One ``stats`` verb round trip against the worker fabric."""
        from repro.service.remote import RemoteUnavailable, fabric_stats

        try:
            stats = fabric_stats(self.fabric, timeout_s=self.fabric_timeout_s)
        except (RemoteUnavailable, ValueError):
            return {"address": self.fabric, "up": False}
        return {"address": self.fabric, "up": True, **stats}

    def _poll_target(self, target: Target) -> Dict:
        client = self._clients[target.label]
        stats = client.server_stats()
        if stats is None:
            return {
                "target": target.label,
                "address": target.spec,
                "up": False,
            }
        row = {
            "target": target.label,
            "address": target.spec,
            "up": True,
            "uptime_s": stats.get("uptime_s"),
            "snapshot_seq": stats.get("snapshot_seq"),
            "entries": stats.get("entries"),
            "stats": stats.get("stats") or {},
            "shards": stats.get("shards"),
            "antientropy": stats.get("antientropy"),
            "fingerprints": stats.get("fingerprints") or [],
            "non_converged": stats.get("non_converged"),
            "rates": {},
        }
        uptime = stats.get("uptime_s")
        counters = {
            name: float(row["stats"].get(name, 0) or 0)
            for name in RATED_COUNTERS
        }
        with self._lock:
            last = self._last.get(target.label)
            if uptime is not None:
                if last is not None and uptime < last.uptime_s:
                    # The server came back with a younger clock: restart.
                    self._restarts[target.label] += 1
                elif last is not None and uptime > last.uptime_s:
                    dt = uptime - last.uptime_s
                    row["rates"] = {
                        f"{name}_per_s": max(
                            0.0, (counters[name] - last.counters.get(name, 0.0)) / dt
                        )
                        for name in RATED_COUNTERS
                    }
                self._last[target.label] = _Sample(float(uptime), counters)
            row["restarts"] = self._restarts[target.label]
        return row

    def snapshot(self) -> Dict:
        """The latest per-target rows plus fleet rollups (non-blocking)."""
        with self._lock:
            rows = [
                dict(self._latest.get(t.label, {
                    "target": t.label, "address": t.spec, "up": False,
                }))
                for t in self.targets
            ]
            polls = self._polls
            fabric_row = (
                dict(self._fabric_latest)
                if self._fabric_latest is not None
                else ({"address": self.fabric, "up": False}
                      if self.fabric else None)
            )
        up = [r for r in rows if r.get("up")]
        hits = sum(float(r["stats"].get("hits", 0) or 0) for r in up)
        misses = sum(float(r["stats"].get("misses", 0) or 0) for r in up)
        healed = sum(
            float((r.get("antientropy") or {}).get("keys_healed", 0) or 0)
            for r in up
        )
        return {
            "polls": polls,
            "interval_s": self.interval_s,
            "targets": rows,
            "fabric": fabric_row,
            "fleet": {
                "targets": len(rows),
                "up": len(up),
                "entries": sum(int(r.get("entries") or 0) for r in up),
                "hit_rate": hits / (hits + misses) if hits + misses else None,
                "keys_healed": healed,
                "fingerprints": sorted({
                    fp for r in up for fp in (r.get("fingerprints") or [])
                }),
            },
        }


# ------------------------------------------------------------- /metrics
def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def render_metrics(snapshot: Dict) -> str:
    """The snapshot as Prometheus text exposition (one scrape's worth)."""
    lines: List[str] = []

    def emit(name: str, help_text: str, kind: str, rows: List) -> None:
        if not rows:
            return
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        for target, value in rows:
            lines.append(
                f'{name}{{target="{_escape_label(target)}"}} {value:g}'
            )

    rows = snapshot.get("targets", [])
    emit(
        "repro_store_up", "Whether the last stats poll answered.", "gauge",
        [(r["target"], 1 if r.get("up") else 0) for r in rows],
    )
    up = [r for r in rows if r.get("up")]
    emit(
        "repro_store_uptime_seconds", "Server-stamped monotonic uptime.",
        "gauge",
        [(r["target"], float(r.get("uptime_s") or 0)) for r in up],
    )
    emit(
        "repro_store_restarts_total",
        "Uptime regressions seen by this poller.", "counter",
        [(r["target"], float(r.get("restarts") or 0)) for r in up],
    )
    emit(
        "repro_store_entries", "Entries held by the served store.", "gauge",
        [(r["target"], float(r.get("entries") or 0)) for r in up],
    )
    for counter in RATED_COUNTERS:
        emit(
            f"repro_store_{counter}_total",
            f"Store {counter} since server start.", "counter",
            [
                (r["target"], float(r["stats"].get(counter, 0) or 0))
                for r in up
            ],
        )
    for counter in ("failovers", "degraded", "quorum_failures",
                    "retry_exhausted"):
        values = [
            (r["target"], float(r["stats"].get(counter, 0) or 0))
            for r in up
            if counter in r["stats"]
        ]
        emit(
            f"repro_store_{counter}_total",
            f"Store {counter} since server start.", "counter", values,
        )
    emit(
        "repro_store_non_converged",
        "Entries that never converged (absent when unknown).", "gauge",
        [
            (r["target"], float(r["non_converged"]))
            for r in up
            if r.get("non_converged") is not None
        ],
    )
    ae = [(r, r.get("antientropy")) for r in up
          if isinstance(r.get("antientropy"), dict)]
    emit(
        "repro_antientropy_running",
        "Whether the anti-entropy loop thread is alive.", "gauge",
        [(r["target"], 1 if status.get("running") else 0)
         for r, status in ae],
    )
    emit(
        "repro_antientropy_paused",
        "Whether the anti-entropy loop is paused.", "gauge",
        [(r["target"], 1 if status.get("paused") else 0)
         for r, status in ae],
    )
    for counter in ("rounds", "keys_healed", "bytes",
                    "skipped_unreachable", "digest_skips"):
        emit(
            f"repro_antientropy_{counter}_total",
            f"Anti-entropy {counter} since loop start.", "counter",
            [
                (r["target"], float(status.get(counter, 0) or 0))
                for r, status in ae
            ],
        )
    fabric = snapshot.get("fabric")
    if fabric is not None:
        lines.append(
            "# HELP repro_fabric_up Whether the worker fabric answered "
            "the last stats poll."
        )
        lines.append("# TYPE repro_fabric_up gauge")
        lines.append(f"repro_fabric_up {1 if fabric.get('up') else 0}")
    if fabric is not None and fabric.get("up"):
        for name, kind in (
            ("workers_connected", "gauge"),
            ("parts_in_flight", "gauge"),
            ("parts_queued", "gauge"),
            ("n_dispatched", "counter"),
            ("n_steals", "counter"),
            ("n_reassigned", "counter"),
            ("n_shed", "counter"),
            ("n_local_fallback", "counter"),
        ):
            value = fabric.get(name)
            if value is None:
                continue
            metric = f"repro_fabric_{name}"
            if kind == "counter":
                metric += "_total"
            lines.append(
                f"# HELP {metric} Fabric scheduler {name} "
                f"{'since fabric start' if kind == 'counter' else ''}".rstrip()
                + "."
            )
            lines.append(f"# TYPE {metric} {kind}")
            lines.append(f"{metric} {float(value):g}")
        workers = fabric.get("workers") or {}
        for name, kind in (
            ("queued", "gauge"),
            ("in_flight", "gauge"),
            ("parts", "counter"),
            ("steals_won", "counter"),
            ("steals_lost", "counter"),
        ):
            rows_ = [
                (label, float(row.get(name, 0) or 0))
                for label, row in sorted(workers.items())
                if row.get("connected")
            ]
            if not rows_:
                continue
            metric = f"repro_fabric_worker_{name}"
            if kind == "counter":
                metric += "_total"
            lines.append(f"# HELP {metric} Per-worker scheduler {name}.")
            lines.append(f"# TYPE {metric} {kind}")
            for label, value in rows_:
                lines.append(
                    f'{metric}{{worker="{_escape_label(label)}"}} {value:g}'
                )
    lines.append("# HELP repro_dashboard_polls_total Poll passes completed.")
    lines.append("# TYPE repro_dashboard_polls_total counter")
    lines.append(
        f"repro_dashboard_polls_total {float(snapshot.get('polls', 0)):g}"
    )
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------ page
# Single-file page: stat tiles + two tables, dependency-free. Status is
# icon + word (never color alone); themes follow prefers-color-scheme
# from one set of custom properties; numeric table columns are
# right-aligned tabular-nums.
_PAGE = """<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>repro fleet dashboard</title>
<style>
:root {
  --surface: #fcfcfb; --ink: #0b0b0b; --ink-2: #52514e;
  --ink-muted: #898781; --grid: #e1e0d9; --card: #ffffff;
  --good: #0ca30c; --warning: #fab219; --serious: #ec835a;
  --critical: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface: #1a1a19; --ink: #ffffff; --ink-2: #c3c2b7;
    --ink-muted: #898781; --grid: #2c2c2a; --card: #222221;
  }
}
* { box-sizing: border-box; }
body {
  margin: 0; padding: 24px; background: var(--surface); color: var(--ink);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
h1 { font-size: 18px; margin: 0 0 4px; }
.sub { color: var(--ink-2); margin: 0 0 20px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin-bottom: 24px; }
.tile {
  background: var(--card); border: 1px solid var(--grid); border-radius: 8px;
  padding: 12px 16px; min-width: 132px;
}
.tile .v { font-size: 26px; font-weight: 600; font-variant-numeric: tabular-nums; }
.tile .k { color: var(--ink-2); font-size: 12px; margin-top: 2px; }
h2 { font-size: 14px; margin: 24px 0 8px; color: var(--ink); }
table { border-collapse: collapse; width: 100%; background: var(--card);
        border: 1px solid var(--grid); border-radius: 8px; }
th, td { padding: 7px 12px; text-align: left; border-top: 1px solid var(--grid); }
thead th { border-top: none; color: var(--ink-2); font-weight: 500;
           font-size: 12px; }
td.n, th.n { text-align: right; font-variant-numeric: tabular-nums; }
.status { white-space: nowrap; font-weight: 500; }
.status.good { color: var(--good); }
.status.warning { color: var(--warning); }
.status.serious { color: var(--serious); }
.status.critical { color: var(--critical); }
.muted { color: var(--ink-muted); }
#err { color: var(--critical); margin: 8px 0; display: none; }
</style>
</head>
<body>
<h1>repro fleet dashboard</h1>
<p class="sub" id="sub">polling&hellip;</p>
<div id="err"></div>
<div class="tiles" id="tiles"></div>
<h2>Targets</h2>
<table id="targets"><thead><tr>
  <th>target</th><th>status</th><th class="n">uptime</th>
  <th class="n">entries</th><th class="n">hit rate</th>
  <th class="n">hits/s</th><th class="n">puts/s</th>
  <th class="n">evictions</th><th class="n">failovers</th>
  <th class="n">quorum fails</th><th>anti-entropy</th>
</tr></thead><tbody></tbody></table>
<h2 id="fabric-h" style="display:none">Worker fabric
  <span class="muted" id="fabric-sub"></span></h2>
<table id="fabric" style="display:none"><thead><tr>
  <th>worker</th><th>status</th><th class="n">parts</th>
  <th class="n">queued</th><th class="n">in flight</th>
  <th class="n">rate</th><th class="n">steals won</th>
  <th class="n">steals lost</th><th class="n">solve s</th>
</tr></thead><tbody></tbody></table>
<h2>Findings <span class="muted">(live audit)</span></h2>
<table id="findings"><thead><tr>
  <th>severity</th><th>code</th><th>locus</th><th>message</th>
</tr></thead><tbody></tbody></table>
<script>
"use strict";
const SEV = {
  info: ["muted", "\\u24D8"], warn: ["warning", "\\u26A0"],
  error: ["serious", "\\u2716"], critical: ["critical", "\\u2716"],
};
const esc = (s) => String(s).replace(/[&<>"]/g,
  (c) => ({"&":"&amp;","<":"&lt;",">":"&gt;",'"':"&quot;"}[c]));
const fmt = (v, digits = 0) =>
  v == null ? "\\u2013" : Number(v).toLocaleString("en-US",
    {maximumFractionDigits: digits, minimumFractionDigits: digits});
const pct = (v) => v == null ? "\\u2013" : (100 * v).toFixed(1) + "%";
const dur = (s) => {
  if (s == null) return "\\u2013";
  s = Math.floor(s);
  if (s < 90) return s + "s";
  if (s < 5400) return Math.floor(s / 60) + "m";
  return Math.floor(s / 3600) + "h" + Math.floor((s % 3600) / 60) + "m";
};
function tile(value, label) {
  return '<div class="tile"><div class="v">' + value +
         '</div><div class="k">' + esc(label) + "</div></div>";
}
function aeCell(ae) {
  if (!ae) return '<span class="muted">\\u2013</span>';
  if (!ae.running)
    return '<span class="status critical">\\u2716 stopped</span>';
  const word = ae.paused ? "paused" : "running";
  const cls = ae.paused ? "warning" : "good";
  const icon = ae.paused ? "\\u23F8" : "\\u2713";
  return '<span class="status ' + cls + '">' + icon + " " + word +
         '</span> <span class="muted">' + fmt(ae.rounds) + " rounds, " +
         fmt(ae.keys_healed) + " healed</span>";
}
function render(snap) {
  const f = snap.fleet;
  const drift = f.fingerprints.length > 1;
  document.getElementById("sub").textContent =
    "poll #" + snap.polls + " every " + snap.interval_s + "s";
  document.getElementById("tiles").innerHTML =
    tile((f.up === f.targets
            ? '<span class="status good">\\u2713 ' :
            '<span class="status critical">\\u2716 ') +
         f.up + "/" + f.targets + "</span>", "replicas up") +
    tile(fmt(f.entries), "entries") +
    tile(pct(f.hit_rate), "fleet hit rate") +
    tile(fmt(f.keys_healed), "keys healed") +
    tile(drift
           ? '<span class="status critical">\\u2716 drift</span>'
           : '<span class="status good">\\u2713 single</span>',
         "engine fingerprint");
  const body = [];
  for (const t of snap.targets) {
    const s = t.stats || {}, r = t.rates || {};
    const hits = Number(s.hits || 0), misses = Number(s.misses || 0);
    body.push("<tr><td>" + esc(t.target) + "</td><td>" +
      (t.up ? '<span class="status good">\\u2713 up</span>'
            : '<span class="status critical">\\u2716 down</span>') +
      '</td><td class="n">' + dur(t.uptime_s) +
      '</td><td class="n">' + fmt(t.entries) +
      '</td><td class="n">' + pct(hits + misses ? hits / (hits + misses)
                                                : null) +
      '</td><td class="n">' + fmt(r.hits_per_s, 1) +
      '</td><td class="n">' + fmt(r.puts_per_s, 1) +
      '</td><td class="n">' + fmt(s.evictions) +
      '</td><td class="n">' + fmt(s.failovers) +
      '</td><td class="n">' + fmt(s.quorum_failures) +
      "</td><td>" + aeCell(t.antientropy) + "</td></tr>");
  }
  document.querySelector("#targets tbody").innerHTML = body.join("");
  renderFabric(snap.fabric);
}
function renderFabric(fab) {
  const head = document.getElementById("fabric-h");
  const table = document.getElementById("fabric");
  if (!fab) { head.style.display = "none"; table.style.display = "none";
              return; }
  head.style.display = ""; table.style.display = "";
  document.getElementById("fabric-sub").textContent = fab.up
    ? "(" + fab.address + " \\u00b7 " +
      fmt(fab.parts_queued) + " queued \\u00b7 " + fmt(fab.n_steals) +
      " steals \\u00b7 " + fmt(fab.n_shed) + " shed)"
    : "(" + fab.address + " \\u2013 unreachable)";
  const body = [];
  for (const [label, w] of Object.entries(fab.workers || {})) {
    body.push("<tr><td>" + esc(label) + "</td><td>" +
      (w.connected ? '<span class="status good">\\u2713 up</span>'
                   : '<span class="status muted">\\u2013 gone</span>') +
      '</td><td class="n">' + fmt(w.parts) +
      '</td><td class="n">' + fmt(w.queued) +
      '</td><td class="n">' + fmt(w.in_flight) +
      '</td><td class="n">' + (w.rate == null ? "\\u2013"
                                              : fmt(w.rate, 1)) +
      '</td><td class="n">' + fmt(w.steals_won) +
      '</td><td class="n">' + fmt(w.steals_lost) +
      '</td><td class="n">' + fmt(w.solve_s, 2) + "</td></tr>");
  }
  document.querySelector("#fabric tbody").innerHTML = body.length
    ? body.join("")
    : '<tr><td colspan="9"><span class="muted">no workers enrolled' +
      "</span></td></tr>";
}
function renderFindings(report) {
  const rows = report.findings.map((f) => {
    const [cls, icon] = SEV[f.severity] || ["muted", "\\u24D8"];
    return '<tr><td><span class="status ' + cls + '">' + icon + " " +
      esc(f.severity) + "</span></td><td>" + esc(f.code) + "</td><td>" +
      esc(f.locus) + "</td><td>" + esc(f.message) + "</td></tr>";
  });
  document.querySelector("#findings tbody").innerHTML = rows.length
    ? rows.join("")
    : '<tr><td colspan="4"><span class="status good">\\u2713 clean' +
      "</span></td></tr>";
}
async function tick() {
  try {
    const snap = await (await fetch("/stats.json")).json();
    render(snap);
    document.getElementById("err").style.display = "none";
  } catch (e) {
    const el = document.getElementById("err");
    el.textContent = "\\u2716 dashboard unreachable: " + e;
    el.style.display = "block";
  }
}
async function tickFindings() {
  try { renderFindings(await (await fetch("/findings")).json()); }
  catch (e) { /* surfaced by tick() already */ }
}
tick(); tickFindings();
setInterval(tick, 2000);
setInterval(tickFindings, 10000);
</script>
</body>
</html>
"""


class DashboardServer:
    """ThreadingHTTPServer wiring the poller, the page, and the auditor.

    ``port=0`` picks a free port (readable as :attr:`port` after
    ``start()``). The audit spec defaults to the polled ``--store`` spec;
    ``/findings`` runs a fresh read-only pass per request, so it is as
    live as the page that calls it.
    """

    def __init__(
        self,
        poller: FleetPoller,
        audit_spec: Optional[str] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.poller = poller
        self.audit_spec = audit_spec
        self.host = host
        self._requested_port = int(port)
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        if self._httpd is None:
            raise RuntimeError("dashboard not started")
        return self._httpd.server_address[1]

    def start(self) -> "DashboardServer":
        dashboard = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args) -> None:  # quiet by default
                pass

            def _send(self, status: int, content_type: str,
                      body: bytes) -> None:
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.send_header("Cache-Control", "no-store")
                self.end_headers()
                self.wfile.write(body)

            def _json(self, payload: Dict, status: int = 200) -> None:
                self._send(
                    status, "application/json",
                    json.dumps(payload).encode(),
                )

            def do_GET(self) -> None:
                path = self.path.split("?", 1)[0]
                try:
                    if path == "/":
                        self._send(
                            200, "text/html; charset=utf-8", _PAGE.encode()
                        )
                    elif path == "/stats.json":
                        self._json(dashboard.poller.snapshot())
                    elif path == "/metrics":
                        body = render_metrics(dashboard.poller.snapshot())
                        self._send(
                            200, "text/plain; version=0.0.4", body.encode()
                        )
                    elif path == "/findings":
                        self._json(dashboard.run_audit())
                    elif path == "/healthz":
                        self._json({"ok": True})
                    else:
                        self._json({"error": "not found"}, status=404)
                except BrokenPipeError:
                    pass
                except Exception as exc:  # a bad poll must not kill the page
                    try:
                        self._json({"error": str(exc)}, status=500)
                    except OSError:
                        pass

        self._httpd = ThreadingHTTPServer(
            (self.host, self._requested_port), Handler
        )
        self._httpd.daemon_threads = True
        self.poller.start()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="fleet-dashboard",
            daemon=True,
        )
        self._thread.start()
        return self

    def run_audit(self) -> Dict:
        """One live audit pass (the ``/findings`` document)."""
        from repro.service.audit import FleetAuditor

        fabric = self.poller.fabric
        if not self.audit_spec and not fabric:
            return {"spec": None, "findings": [], "worst": None,
                    "counts": {}}
        auditor = FleetAuditor(
            self.audit_spec or "", timeout_s=2.0, fabric=fabric
        )
        if not self.audit_spec:
            # Fabric-only dashboard: skip the (empty) store walk, keep
            # the admission-pressure probe.
            findings = []
            auditor._audit_fabric(fabric, findings)
            return auditor.to_report(findings)
        return auditor.to_report(auditor.run())

    def stop(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.poller.stop()


def serve_dashboard(
    store_spec: Optional[str],
    fleet: Sequence[str] = (),
    host: str = "127.0.0.1",
    port: int = 0,
    interval_s: float = 2.0,
    fabric: Optional[str] = None,
) -> DashboardServer:
    """Build and start a dashboard for one fleet (the CLI entry point).

    ``fabric`` is a worker fabric's ``host:port`` (as announced by a
    ``--workers remote`` service): its ``stats`` verb is polled alongside
    the stores and rendered as a per-worker occupancy/steals table, as
    ``repro_fabric_*`` metrics, and as the ``elevated_load_shedding``
    probe in ``/findings``. Raises ``ValueError`` when the spec,
    ``--fleet``, and ``--fabric`` together name nothing to poll (a local
    directory has no server — run ``repro store audit`` against it
    instead).
    """
    targets = fleet_targets(store_spec, fleet)
    if not targets and not fabric:
        raise ValueError(
            f"nothing to poll: {store_spec!r} names no remote:// servers "
            f"and --fleet/--fabric are empty (for a local directory, use "
            f"`repro store audit`/`repro store stats`)"
        )
    poller = FleetPoller(targets, interval_s=interval_s, fabric=fabric)
    audit_spec = (
        store_spec if store_spec and is_remote_spec(store_spec) else None
    )
    server = DashboardServer(poller, audit_spec=audit_spec, host=host,
                             port=port)
    return server.start()
