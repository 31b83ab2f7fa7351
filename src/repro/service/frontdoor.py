"""``repro serve``, ``repro batch``, ``repro store``: the CLI front door.

``repro serve`` runs the asyncio compile server
(:mod:`repro.service.asyncserve`) over a persistent store, so compilation
is amortized across everything the store has ever seen. It reads
JSON-lines requests on stdin and answers on stdout, or listens on TCP with
``--port``. Requests from many clients are micro-batched and solved
concurrently; responses return out of order, tagged by request id.

``repro batch`` compiles a workload list (named programs, ``.qasm`` files,
or directories of them) as *one* batch: groups dedupe across all programs,
the shared MST is cut across the worker pool, and the store ends warm. Run
it twice against the same store and the second run solves nothing.

``repro store`` administers a store directory: ``serve`` exposes it over
TCP for ``--store remote://host:port`` clients (the distributed-store leg
of the fabric; ``--anti-entropy-interval S --peers h:p,...`` attaches the
self-healing background loop that re-syncs this store with its replica
peers, so a revived replica converges with no operator action); ``stats``
prints merged, per-shard, and per-replica counter snapshots plus
entry/convergence counts — human tables by default, one JSON document
with ``--json``; ``reshard`` migrates between shard counts (``--shards``);
``revalidate`` retrains non-converged entries within an iteration budget;
``repair`` force-syncs the lagging replicas of a replicated remote spec
(``remote://h1a:p|h1b:p``) from their peers, copying entries
bit-identically — still useful for a replica that was down longer than
its peers' horizons, but routine healing belongs to the anti-entropy
loop. Replica routes take query params: ``?w=majority`` (or ``1``/
``all``) sets the write concern — a write that cannot reach its quorum
raises :class:`~repro.service.replication.QuorumError`, which ``repro
batch`` reports loudly with exit code 3 — and ``?retries=&backoff=&cap=``
tune the wire retry policy. ``audit`` walks any spec **read-only**
(local directory, sharded root, or replicated remote routes) and emits
typed findings from :mod:`repro.service.audit` — JSON with ``--json``,
an ascii table otherwise — gating its exit code on ``--fail-on
SEVERITY`` (clean or below the gate exits 0; a worst finding of
info/warn/error/critical exits 1/4/5/6, so CI distinguishes an unhealthy
fleet from a usage error).

``repro dashboard --store remote://... [--fleet host:p,...]`` serves the
live observability page (:mod:`repro.service.dashboard`): per-shard hit
rates, per-replica health, anti-entropy heal progress, a Prometheus
``/metrics`` endpoint, and ``/findings`` (a live audit pass).

``repro worker --connect host:port`` is the other leg: a solver process
for a service started with ``--workers remote``, which dispatches each
batch's parts across every connected worker and reassigns a part whose
worker disconnects mid-solve.

All data-path commands take ``--shards``: omitted, the store layout is
auto-detected; given, it must match (a mismatch fails loudly rather than
mis-routing keys).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import threading
from typing import IO, List, Optional, Sequence

from repro.circuits.circuit import Circuit
from repro.service.protocol import ProtocolError, placeable, resolve_program
from repro.service.service import BatchReport, CompileService
from repro.service.sharding import open_store, reshard
from repro.service.store import StoreVersionError
from repro.utils.config import PipelineConfig


def _make_engine(args):
    from repro.core.engines import GrapeEngine

    config = PipelineConfig(policy_name=args.policy)
    engine = None
    if args.engine == "grape":
        engine = GrapeEngine(config.physics, config.run.fast())
    return config, engine


def _make_service(args, announce: IO[str] = sys.stdout) -> CompileService:
    config, engine = _make_engine(args)
    store = open_store(
        args.store, shards=args.shards, max_entries=args.max_entries
    )
    backend = args.backend
    n_workers: "int | None"
    if str(args.workers) == "remote":
        # Remote worker fabric: listen for `repro worker --connect` peers
        # and dispatch parts to them; the bound address is announced as a
        # JSON line so workers can be pointed at it by scripts. `repro
        # batch --json` owns stdout for its report, so it announces on
        # stderr instead.
        from repro.service.remote import RemoteExecutor

        backend = RemoteExecutor(
            host=args.worker_host,
            port=args.worker_port,
            parts_per_worker=args.parts_per_worker,
        )
        n_workers = None  # partition count falls back to the config default
        print(json.dumps({"workers": backend.address}), file=announce, flush=True)
    else:
        n_workers = args.workers
    return CompileService(
        store,
        config=config,
        engine=engine,
        backend=backend,
        n_workers=n_workers,
    )


def _add_engine_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--engine", choices=("model", "grape"),
        default="model",
        help="model = instant cost-model solves; grape = real optimizer",
    )
    parser.add_argument("--policy", default="map2b4l")


def _workers_arg(value: str):
    """``--workers`` takes a pool size or the literal ``remote``."""
    if value == "remote":
        return value
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a worker count or 'remote', got {value!r}"
        )


def _add_service_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store", required=True,
        help="store directory, remote://host:port of a `repro store serve`, "
             "or a comma list of remote:// routes (digest-range routing "
             "table, one shard per route; a route may be a |-separated "
             "replica list, e.g. remote://h1a:p|h1b:p — failover reads, "
             "fan-out writes — and may carry ?w=1|majority|all for the "
             "write concern plus ?retries=&backoff=&cap= for the wire "
             "retry policy)",
    )
    parser.add_argument(
        "--workers", type=_workers_arg, default=4,
        help="worker pool size, or 'remote' to dispatch parts to "
             "`repro worker --connect` processes (overrides --backend; "
             "the listening address is announced as a JSON line)",
    )
    parser.add_argument(
        "--backend", choices=("serial", "thread", "process"), default="thread",
        help="thread and process both solve GRAPE batches on one pool of "
             "worker processes, forked by the first batch that can use it; "
             "serial solves in the calling thread (model-engine batches "
             "always do)",
    )
    parser.add_argument(
        "--worker-host", default="127.0.0.1",
        help="with --workers remote: interface the worker fabric listens on",
    )
    parser.add_argument(
        "--worker-port", type=int, default=0,
        help="with --workers remote: fabric port (0 picks a free one)",
    )
    parser.add_argument(
        "--parts-per-worker", type=int, default=2,
        help="with --workers remote: parts each worker may hold (1 in "
             "flight + the rest reserved in its queue, the stealable "
             "backlog); overflow waits in a shared pool",
    )
    _add_engine_args(parser)
    parser.add_argument(
        "--max-entries", type=int, default=None,
        help="bound the store (LRU eviction beyond this many entries)",
    )
    parser.add_argument(
        "--shards", type=int, default=None,
        help="shard count: omit to auto-detect the layout on disk; "
             "N > 1 creates a fresh store sharded N ways",
    )


# ------------------------------------------------------------------- serve
def cmd_serve(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="JSON-lines compile service on stdin/stdout "
                    "(or TCP with --port).",
    )
    _add_service_args(parser)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=None,
        help="listen on TCP instead of stdin/stdout (0 picks a free port; "
             "the bound address is announced as the first stdout line)",
    )
    parser.add_argument(
        "--window-ms", type=float, default=25.0,
        help="planning window, used only while another batch is in flight: "
             "requests arriving within this many ms are planned as one "
             "batch (an idle server dispatches at once)",
    )
    parser.add_argument(
        "--max-batch", type=int, default=16,
        help="cap on requests per planning window",
    )
    parser.add_argument(
        "--inflight", type=int, default=2,
        help="batches solving concurrently (coalesced via the shared "
             "GroupCoalescer)",
    )
    parser.add_argument(
        "--max-queue", type=int, default=None,
        help="admission control: requests arriving while this many "
             "compiles are already pending get a typed 'overloaded' "
             "response with a retry_after_s hint instead of buffering "
             "without bound (default: unbounded)",
    )
    args = parser.parse_args(argv)
    # Checked before _make_service, which creates the store on disk.
    for flag, value in (
        ("--max-batch", args.max_batch),
        ("--inflight", args.inflight),
        ("--max-queue", args.max_queue),
    ):
        if value is not None and value < 1:
            parser.error(f"{flag} must be >= 1, got {value}")
    if not (math.isfinite(args.window_ms) and args.window_ms >= 0):
        parser.error(f"--window-ms must be >= 0, got {args.window_ms}")
    try:
        service = _make_service(args)
    except StoreVersionError as exc:
        print(f"repro serve: {exc}", file=sys.stderr)
        return 2
    from repro.service.asyncserve import run_server

    return run_server(
        service,
        host=args.host,
        port=args.port,
        window_s=args.window_ms / 1000.0,
        max_batch=args.max_batch,
        max_inflight=args.inflight,
        max_queue=args.max_queue,
    )


# ------------------------------------------------------------------ worker
def cmd_worker(argv: Sequence[str]) -> int:
    """``repro worker --connect host:port``: one remote solver process.

    Dials a ``--workers remote`` service's worker fabric, runs the parts
    it is handed (warm seeds travel with the tasks, so pulses match the
    serial executor bit for bit), and exits 0 when the fabric hangs up —
    printing how many parts it handled as a JSON line.

    ``--stats`` turns the same address into a read-only occupancy probe:
    instead of enrolling as a solver, print the fabric's ``stats``
    snapshot (workers connected, parts in flight / queued, dispatch
    counters, per-worker solve/wire timings) as one JSON line and exit.
    """
    parser = argparse.ArgumentParser(
        prog="repro worker",
        description="Remote solver worker for a `repro serve/batch "
                    "--workers remote` fabric.",
    )
    parser.add_argument(
        "--connect", required=True,
        help="fabric address: host:port (or remote://host:port) announced "
             "by the service's {'workers': ...} line",
    )
    parser.add_argument(
        "--connect-timeout", type=float, default=30.0,
        help="seconds to keep retrying the initial connection",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="don't enroll as a solver: print the fabric's occupancy "
             "snapshot (workers, parts in flight/queued, per-worker solve "
             "timings) as JSON and exit",
    )
    args = parser.parse_args(argv)
    from repro.service.remote import fabric_stats, worker_loop

    try:
        if args.stats:
            print(
                json.dumps(
                    fabric_stats(args.connect, timeout_s=args.connect_timeout)
                ),
                flush=True,
            )
            return 0
        handled = worker_loop(
            args.connect, connect_timeout_s=args.connect_timeout
        )
    except (OSError, ValueError) as exc:
        print(f"repro worker: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"parts": handled}), flush=True)
    return 0


# ------------------------------------------------------------------- store
def cmd_store(argv: Sequence[str]) -> int:
    """Store administration: ``serve``, ``stats``, ``reshard``, ``revalidate``."""
    parser = argparse.ArgumentParser(
        prog="repro store",
        description="Inspect, serve, and migrate a pulse store directory.",
    )
    sub = parser.add_subparsers(dest="action", required=True)

    p_serve = sub.add_parser(
        "serve",
        help="expose this store over TCP for remote:// clients "
             "(JSON-lines protocol, see service/storeserver.py)",
    )
    p_serve.add_argument(
        "--root", "--store", dest="root", required=True,
        help="store directory to serve (layout auto-detected)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=0,
        help="0 picks a free port; the bound address is announced as the "
             "first stdout line",
    )
    p_serve.add_argument("--shards", type=int, default=None)
    p_serve.add_argument(
        "--max-entries", type=int, default=None,
        help="LRU-bound the served store (the bound lives server-side)",
    )
    p_serve.add_argument(
        "--anti-entropy-interval", type=float, default=None,
        help="seconds between background anti-entropy rounds: compare key "
             "sets with every --peers host and stream the difference both "
             "ways, so a revived replica converges with no operator "
             "action (requires --peers)",
    )
    p_serve.add_argument(
        "--peers", default=None,
        help="comma-separated host:port list of this store's replica "
             "peers for anti-entropy (the *other* replicas of its route)",
    )

    p_stats = sub.add_parser(
        "stats",
        help="merged, per-shard, and per-replica counter snapshots "
             "(human tables; --json for one JSON document)",
    )
    p_stats.add_argument("--store", required=True)
    p_stats.add_argument("--json", action="store_true", dest="as_json")

    p_reshard = sub.add_parser(
        "reshard", help="migrate the store to a different shard count"
    )
    p_reshard.add_argument("--store", required=True)
    p_reshard.add_argument("--shards", type=int, required=True)
    p_reshard.add_argument(
        "--dest", default=None,
        help="build the new layout here instead of migrating in place",
    )

    p_reval = sub.add_parser(
        "revalidate", help="retrain non-converged entries (idle hygiene)"
    )
    p_reval.add_argument("--store", required=True)
    p_reval.add_argument(
        "--budget", type=int, default=100000,
        help="iteration budget for the pass",
    )
    _add_engine_args(p_reval)

    p_repair = sub.add_parser(
        "repair",
        help="re-sync lagging replicas of a replicated remote store from "
             "their peers (entries copied bit-identically)",
    )
    p_repair.add_argument(
        "--store", required=True,
        help="replicated spec: remote://h1a:p|h1b:p[,remote://h2:p|...] — "
             "every |-separated route is compared and caught up",
    )

    from repro.service.audit import SEVERITIES

    p_audit = sub.add_parser(
        "audit",
        help="read-only fleet health walk: typed findings with a "
             "severity-gated exit code (see service/audit.py)",
    )
    p_audit.add_argument(
        "--store", required=True,
        help="any store spec: local directory, sharded root, or "
             "remote://h1a:p|h1b:p[,remote://h2:p|...] replica routes",
    )
    p_audit.add_argument("--json", action="store_true", dest="as_json")
    p_audit.add_argument(
        "--fail-on", dest="fail_on", choices=SEVERITIES, default="error",
        help="exit nonzero when the worst finding is at/above this "
             "severity (default: error; the exit code still reflects the "
             "worst severity found)",
    )
    p_audit.add_argument(
        "--timeout", type=float, default=5.0,
        help="per-replica probe timeout in seconds (remote specs)",
    )
    p_audit.add_argument(
        "--fabric", default=None,
        help="also probe a worker fabric's stats verb (host:port as "
             "announced by a --workers remote service) for admission "
             "pressure: sheds beyond the shed-ratio threshold raise an "
             "elevated_load_shedding finding",
    )

    args = parser.parse_args(argv)
    try:
        if args.action == "serve":
            from repro.service.storeserver import AntiEntropyLoop, StoreServer

            store = open_store(
                args.root, shards=args.shards, max_entries=args.max_entries
            )
            antientropy = None
            if args.anti_entropy_interval is not None or args.peers:
                if not args.peers:
                    print(
                        "repro store: --anti-entropy-interval requires "
                        "--peers (the other replicas of this store's route)",
                        file=sys.stderr,
                    )
                    return 2
                antientropy = AntiEntropyLoop(
                    store,
                    args.peers,
                    interval_s=args.anti_entropy_interval or 5.0,
                )
            server = StoreServer(
                store, host=args.host, port=args.port, antientropy=antientropy
            ).start()
            print(json.dumps({"serving": server.address}), flush=True)
            try:
                server.serve_forever()
            except KeyboardInterrupt:
                pass
            finally:
                server.stop()
            return 0
        if args.action == "stats":
            store = open_store(args.store)
            summary = store_stats_summary(store)
            if args.as_json:
                print(json.dumps(summary, sort_keys=True, indent=2))
            else:
                print_stats_tables(summary)
            return 0
        if args.action == "reshard":
            summary = reshard(args.store, args.shards, dest=args.dest)
            print(json.dumps(summary, sort_keys=True))
            return 0
        if args.action == "repair":
            store = open_store(args.store)
            if not hasattr(store, "repair"):
                print(
                    f"repro store: {args.store!r} has no replicas to "
                    f"repair (use remote://hostA:p|hostB:p routes)",
                    file=sys.stderr,
                )
                return 2
            print(json.dumps(store.repair(), sort_keys=True))
            return 0
        if args.action == "audit":
            from repro.service.audit import FleetAuditor, exit_code_for

            auditor = FleetAuditor(
                args.store, timeout_s=args.timeout, fabric=args.fabric
            )
            findings = auditor.run()
            report = auditor.to_report(findings)
            if args.as_json:
                print(json.dumps(report, sort_keys=True, indent=2))
            else:
                print_audit_table(report)
            return exit_code_for(findings, args.fail_on)
        # revalidate
        config, engine = _make_engine(args)
        store = open_store(args.store)
        if engine is None:
            from repro.core.engines import ModelEngine

            engine = ModelEngine(config.physics)
        from repro.service.service import engine_fingerprint

        store.claim_fingerprint(engine_fingerprint(engine))
        print(json.dumps(store.revalidate(engine, args.budget), sort_keys=True))
        return 0
    except (StoreVersionError, OSError, ValueError) as exc:
        print(f"repro store: {exc}", file=sys.stderr)
        return 2


def store_stats_summary(store) -> dict:
    """The ``repro store stats`` payload: merged + per-shard + per-replica.

    Counter snapshots (hits/misses/...) are per-instance, so on a freshly
    opened store they count this command's own accounting only; the
    durable facts are the entry totals and per-shard convergence split.
    The ``replicas`` rows (replicated routes only) carry each replica's
    own wire counters plus the failovers it caused — an unhealthy replica
    is visible here before it pages anyone. Entries are read from one
    ``snapshot`` (one frame per remote shard), never a ``peek`` per key.
    """
    entries = store.snapshot().entries()
    per_shard = store.stats_by_shard()
    shards = getattr(store, "shards", [store])
    return {
        "store": getattr(store, "root", None),
        "n_shards": len(per_shard),
        "entries": len(entries),
        "non_converged": sum(1 for e in entries if not e.converged),
        "merged": store.stats.to_dict(),
        "shards": [
            {
                "shard": index,
                "entries": len(shard),
                "stats": stats,
            }
            for index, (shard, stats) in enumerate(zip(shards, per_shard))
        ],
        "replicas": store.stats_by_replica(),
    }


def print_stats_tables(summary: dict, out: IO[str] = sys.stdout) -> None:
    """Human rendering of :func:`store_stats_summary`: one shard table,
    plus a per-replica health table when the store replicates."""
    from repro.analysis.reporting import ascii_table

    merged = summary["merged"]
    shard_fields = ["hits", "misses", "puts", "evictions", "degraded"]
    rows = [
        [row["shard"], row["entries"]]
        + [row["stats"].get(field, 0) for field in shard_fields]
        for row in summary["shards"]
    ]
    print(
        ascii_table(
            ["shard", "entries"] + shard_fields,
            rows,
            f"repro store stats — {summary['store'] or 'remote route'}: "
            f"{summary['entries']} entries, "
            f"{summary['non_converged']} non-converged",
        ),
        file=out,
    )
    print(
        "  merged: "
        + ", ".join(f"{name}={merged[name]:g}" for name in sorted(merged)),
        file=out,
    )
    if summary["replicas"]:
        replica_fields = ["hits", "misses", "puts", "degraded", "failovers"]
        replica_rows = [
            [row.get("shard", 0), row.get("address", "?")]
            + [row.get(field, 0) for field in replica_fields]
            for row in summary["replicas"]
        ]
        print(
            ascii_table(
                ["shard", "replica"] + replica_fields,
                replica_rows,
                "per-replica health (failovers = reads that skipped this "
                "replica; degraded = writes it dropped)",
            ),
            file=out,
        )


def print_audit_table(report: dict, out: Optional[IO[str]] = None) -> None:
    """Human rendering of an audit report: one finding per row."""
    from repro.analysis.reporting import ascii_table

    out = sys.stdout if out is None else out
    findings = report["findings"]
    title = (
        f"repro store audit — {report['spec']}: "
        + (
            f"{len(findings)} finding(s), worst {report['worst']}"
            if findings
            else "clean"
        )
    )
    rows = [
        [f["severity"], f["code"], f["locus"], f["message"]]
        for f in findings
    ] or [["-", "-", "-", "no findings"]]
    print(ascii_table(["severity", "code", "locus", "message"], rows, title),
          file=out)


# --------------------------------------------------------------- dashboard
def cmd_dashboard(argv: Sequence[str]) -> int:
    """``repro dashboard``: the live fleet observability page.

    Announces ``{"dashboard": "host:port"}`` on stdout once bound (the
    same contract as ``repro store serve``), then blocks until
    interrupted. Exits 2 when the spec plus ``--fleet`` expand to zero
    TCP targets — a local directory has no server to poll.
    """
    parser = argparse.ArgumentParser(
        prog="repro dashboard",
        description="Live fleet dashboard over the store `stats` verb: "
                    "HTML page, /metrics (Prometheus text), /findings "
                    "(live audit).",
    )
    parser.add_argument(
        "--store", default=None,
        help="remote://... route table; every replica of every route "
             "becomes a polled target (and the /findings audit spec)",
    )
    parser.add_argument(
        "--fleet", default=None,
        help="comma-separated host:port extras to poll beyond --store",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0,
        help="0 picks a free port; the bound address is announced as the "
             "first stdout line",
    )
    parser.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between stats polls of each target",
    )
    parser.add_argument(
        "--fabric", default=None,
        help="worker fabric host:port (announced by a --workers remote "
             "service): adds a per-worker occupancy/steals table, "
             "repro_fabric_* metrics, and the load-shedding audit probe",
    )
    args = parser.parse_args(argv)
    from repro.service.dashboard import serve_dashboard

    fleet = [p.strip() for p in (args.fleet or "").split(",") if p.strip()]
    try:
        server = serve_dashboard(
            args.store,
            fleet,
            host=args.host,
            port=args.port,
            interval_s=args.interval,
            fabric=args.fabric,
        )
    except (ValueError, OSError, StoreVersionError) as exc:
        print(f"repro dashboard: {exc}", file=sys.stderr)
        return 2
    print(
        json.dumps({"dashboard": f"{args.host}:{server.port}"}), flush=True
    )
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


# ------------------------------------------------------------------- batch
def collect_programs(specs: Sequence[str]) -> List[Circuit]:
    """Named workloads, ``.qasm`` files, or directories of ``.qasm`` files.

    Raises ProtocolError for a program no registered device can hold.
    """
    from repro.circuits.qasm import parse_qasm

    programs: List[Circuit] = []
    for spec in specs:
        if os.path.isdir(spec):
            names = sorted(
                n for n in os.listdir(spec) if n.endswith(".qasm")
            )
            if not names:
                raise FileNotFoundError(f"no .qasm files under {spec!r}")
            for name in names:
                path = os.path.join(spec, name)
                with open(path) as handle:
                    programs.append(
                        parse_qasm(handle.read(), name=os.path.splitext(name)[0])
                    )
        elif spec.endswith(".qasm"):
            with open(spec) as handle:
                programs.append(
                    parse_qasm(
                        handle.read(),
                        name=os.path.splitext(os.path.basename(spec))[0],
                    )
                )
        else:
            programs.append(resolve_program(spec))
    return [placeable(p) for p in programs]


def batch_summary(batch: BatchReport) -> dict:
    """The machine-readable ``repro batch --json`` payload."""
    return {
        "programs": [
            {
                "name": r.name,
                "n_groups": r.n_groups,
                "n_unique": r.n_unique,
                "coverage_rate": round(r.coverage_rate, 6),
                "overall_latency_ns": r.overall_latency,
                "gate_based_latency_ns": r.gate_based_latency,
                "latency_reduction": round(r.latency_reduction, 6),
                "compile_iterations": r.compile_iterations,
            }
            for r in batch.requests
        ],
        "n_unique": batch.n_unique,
        "n_shared": batch.n_shared,
        "n_covered": batch.n_covered,
        "compiled_groups": batch.n_compiled,
        "n_trivial": batch.n_trivial,
        "coalesced_groups": batch.n_coalesced,
        "batch_coverage_rate": round(batch.coverage_rate, 6),
        "total_iterations": batch.total_iterations,
        "modelled_speedup": round(batch.modelled_speedup, 4),
        "wall_s": round(batch.wall_time, 4),
        "store": batch.store_stats,
        "perf": batch.perf.to_dict() if batch.perf is not None else None,
    }


def cmd_batch(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro batch",
        description="Compile a workload list as one batch against a store.",
    )
    parser.add_argument(
        "programs", nargs="+",
        help="named workloads (qft_16, ex2, ...), .qasm files, or directories",
    )
    _add_service_args(parser)
    parser.add_argument("--json", action="store_true", dest="as_json")
    args = parser.parse_args(argv)

    try:
        programs = collect_programs(args.programs)
        # announce on stderr: with --json, stdout is one JSON document
        service = _make_service(args, announce=sys.stderr)
    except (ProtocolError, OSError, StoreVersionError) as exc:
        print(f"repro batch: {exc}", file=sys.stderr)
        return 2
    from repro.service.replication import QuorumError

    try:
        batch = service.submit_batch(programs)
    except QuorumError as exc:
        # The batch's writes could not reach the route's quorum: fail
        # loudly (exit 3, distinct from usage errors) — silent degradation
        # is exactly what w=majority/all asked to forbid.
        print(f"repro batch: quorum failure: {exc}", file=sys.stderr)
        return 3
    finally:
        service.close()  # the worker processes exit before the report
    try:
        # A batch that read without writing left its recency bumps in the
        # store's memory: persist them before this process exits, so a
        # bounded store's LRU order reflects this run.
        service.store.flush()
    except QuorumError as exc:
        # What the batch wrote was flushed to quorum before it returned;
        # only read recency missed a replica. The answers stand.
        print(f"repro batch: read recency not flushed: {exc}", file=sys.stderr)

    if args.as_json:
        print(json.dumps(batch_summary(batch), sort_keys=True))
        return 0

    from repro.analysis.reporting import ascii_table

    rows = [
        [
            r.name,
            r.n_groups,
            r.n_unique,
            r.coverage_rate,
            r.overall_latency,
            r.latency_reduction,
            r.compile_iterations,
        ]
        for r in batch.requests
    ]
    print(
        ascii_table(
            ["program", "groups", "unique", "covered", "latency ns",
             "reduction", "iterations"],
            rows,
            f"repro batch — {len(programs)} programs, "
            f"{args.workers} workers ({args.backend})",
        )
    )
    stats = batch.store_stats
    print(
        f"  batch: {batch.n_unique} unique groups, {batch.n_shared} shared, "
        f"{batch.n_covered} covered, {batch.n_compiled} compiled, "
        f"{batch.n_trivial} trivial"
    )
    print(
        f"  store: {stats['hits']:.0f} hits / {stats['misses']:.0f} misses "
        f"(hit rate {stats['hit_rate']:.1%}), {stats['puts']:.0f} puts, "
        f"{stats['evictions']:.0f} evictions"
    )
    print(
        f"  modelled parallel speedup at {args.workers} workers: "
        f"{batch.modelled_speedup:.2f}x; wall {batch.wall_time:.2f}s"
    )
    if batch.perf is not None:
        print()
        print(batch.perf.format_table())
    return 0
