"""Batch compilation service: persistent pulses, parallel workers, serving.

The one-shot :class:`repro.core.pipeline.AccQOC` pipeline compiles a program
and forgets everything when the process exits. This package turns that
pipeline into a long-lived *service* that amortizes pulse compilation across
requests, processes, and machine restarts — the substrate the ROADMAP's
scaling work (sharding, multi-backend) plugs into.

Store layout
------------
Persistence lives behind the :class:`~repro.service.store.StoreBackend`
interface. The single-directory backend,
:class:`~repro.service.store.PulseStore`, persists::

    <root>/manifest.json          {"version": 1, "entries": {keyhex: meta}}
    <root>/entries/<keyhex>.json  one LibraryEntry each (entry_to_dict)

The sharded backend, :class:`~repro.service.sharding.ShardedStore`, splits
one logical store across N such directories by key-digest range under a
versioned ``shardmap.json`` (validated on open; changed only by the
``repro store reshard`` migration) — each shard has its own manifest,
flock, LRU bound, and stats, so writers to different key ranges never
serialize on one lock. :func:`~repro.service.sharding.open_store`
auto-detects the layout.

Both layouts also serve over the wire: ``repro store serve`` wraps any
store in a JSON-lines TCP protocol
(:class:`~repro.service.storeserver.StoreServer`), and
:class:`~repro.service.remote.RemoteStore` is the client-side
``StoreBackend`` (``--store remote://host:port``; a comma list of hosts
becomes a :class:`ShardedStore` routing table, one digest range per
host, and a ``|``-separated replica list inside a route —
``remote://h1a:p|h1b:p`` — a
:class:`~repro.service.replication.ReplicatedStore`: ordered failover
reads, fan-out writes under a per-route write concern, anti-entropy /
``repro store repair`` re-sync). Batch reads go
through ``get_many``/``put_many`` wire verbs, one round trip per host
instead of per key. Wire failures retry under a bounded jittered
exponential backoff (:class:`~repro.service.remote.RetryPolicy`,
tunable per route via ``?retries=&backoff=&cap=``) and then degrade to
misses — a dead store server makes the service slower, never wrong.
Only a broken *write concern* is ever loud: a route opened with
``?w=majority`` or ``?w=all`` raises
:class:`~repro.service.replication.QuorumError` when a write cannot
reach enough replicas, instead of degrading silently. Solving distributes the
same way:
``--workers remote`` dispatches each batch's parts to connected
``repro worker`` processes (:class:`~repro.service.remote.RemoteExecutor`),
with disconnect-triggered part reassignment and a local fallback, and the
store-snapshot-seeded warm starts keep remote pulses bit-identical to the
serial executor's.

Entries are content-addressed by the *canonical group key* — the group
unitary modulo global phase and wire permutation — so a stored pulse serves
every occurrence of the group, including wire-permuted ones (the lookup
relabels drive lines, exactly as the in-memory ``PulseLibrary`` does).
Writes are atomic (temp file + ``os.replace``); the entry file lands before
the manifest, so a crash leaves at worst an orphan entry file, never a torn
store. The manifest is versioned and carries LRU recency, so a bounded store
(``max_entries``) evicts the coldest key even across restarts. Hit, miss,
put, and eviction counters live only in the store's ``perf`` recorder
(``<stat_prefix><field>``, e.g. ``store.hits``); ``store.stats`` is a
read-only :class:`~repro.service.store.StoreStats` snapshot of them.

Batch planning and execution
----------------------------
:class:`~repro.service.planner.CompilePlanner` dedupes groups across the
*whole* batch (``grouping.dedup.dedupe_batch``) — a group shared by two
requests is compiled once — and splits off the virtual-diagonal groups.
The service reads each unique key from the store once (see below); over
the misses, the planner's ``cut`` builds one shared similarity MST and
cuts it into balanced connected parts with
``core.partition.partition_tree`` under the modelled iteration-cost
weights (``core.partition.modelled_node_weights``, paper Sec V-D).
:class:`~repro.service.executor.WorkerPoolExecutor` runs the parts on a
backend.

Coalescing semantics
--------------------
Concurrent batches may race for the same group. A batch first *claims*
each unique canonical key in the service's
:class:`~repro.service.executor.GroupCoalescer`; exactly one claimant owns
the key, everyone else blocks on a future and reuses the owner's record.
The owner reads its keys with one ``get_many``: a hit is a covered group
and resolves at once, and only the misses are solved. Claims are released
(resolved or failed) before the owning batch returns, so a key is never
compiled twice concurrently and never leaks on error. Reading each key
once, at claim time, means:

* a batch that solves nothing makes no snapshot RPC — only the solve step
  takes the store snapshot its warm starts come from;
* under concurrency, a key another batch wrote before this batch's read
  counts as covered, not as compiled or coalesced;
* on a store bounded below one batch's unique groups, answers match an
  unbounded store's, but coverage and eviction counts can differ.

Thread vs process backends
--------------------------
Both implement one interface (``map_parts``), mirroring the
``GrapeEngine``/``ModelEngine`` split — pick per deployment:

* ``thread`` (default): zero serialization cost, shared engine caches,
  but no parallel GRAPE. A cost/gradient evaluation of these small
  problems is bound by numpy call overhead and holds the GIL: twelve
  random 2-qubit solves took no less time on 2 threads than serially,
  and about 40% less on 2 processes (numbers in ``executor``'s module
  docstring). ROADMAP item 1 chooses the default by measurement.
* ``process``: true parallelism regardless of the GIL, at the cost of
  pickling the engine and groups per part and ~100 ms of pool startup —
  the right choice for long solves (real GRAPE at scale). Single-part
  plans short-circuit to the serial path to skip the startup tax.
* ``serial``: deterministic debugging baseline.

Warm starts default to ``warm="store"``: every group is seeded from the
store snapshot a batch takes before its solves, which makes pulse content
a pure function of (group, snapshot, run config) — independent of worker
count and batch composition, so the content-addressed store stays
coherent.
``warm="chain"`` restores the paper's within-part MST chaining for
experiments (see ``executor``'s module docstring for the tradeoff).
Either way a worker runs its part through the compile walk the static
and dynamic compilers use, ``core.dynamic.compile_in_order``.

Operating a replicated fleet (runbook)
--------------------------------------
The minimal self-healing deployment is one replica pair per digest
range, each side serving its own directory and running anti-entropy
against the other::

    # host A                                      # host B
    repro store serve --root /data/ra \\
        --port 7401 \\
        --anti-entropy-interval 5 \\
        --peers hostB:7401
                                                  repro store serve --root /data/rb \\
                                                      --port 7401 \\
                                                      --anti-entropy-interval 5 \\
                                                      --peers hostA:7401

    # clients: quorum writes, failover reads, tuned wire retries
    repro batch qft_16 --store \\
        "remote://hostA:7401|hostB:7401?w=majority&retries=4&backoff=0.05"

*Write concern* (``?w=``): ``1`` (default) keeps cache semantics — a
write that reaches nobody is absorbed and counted ``degraded``;
``majority`` (ceil(n/2): 1 of 2, 2 of 3) makes a batch fail loudly with
``QuorumError`` (exit 3 from ``repro batch``) only when *more than half*
the replicas are down; ``all`` refuses any replica lag. Watch
``acked``/``quorum_failures`` in batch reports and ``repro store stats``.

*Anti-entropy tuning*: the interval bounds how long a revived replica
lags (convergence within ~2 rounds); each idle round costs one
constant-size ``keys_digest`` probe per peer, so size the interval to
taste — 5 s is fine for thousands of entries
(``bench_service_throughput.py --remote`` prints the idle cost and heal
throughput). Rounds are jittered to 50–100% of the
interval so a fleet never exchanges digests in lockstep. Each round is
the same :func:`~repro.service.replication.reconcile` that ``repro store
repair`` runs once on demand. Pause/resume/on-demand-heal over
the wire: ``{"op": "antientropy", "action": "pause"|"resume"|"heal"}``.
The cumulative counters (``rounds``, ``keys_healed``, ``bytes``,
``skipped_unreachable``, ``digest_skips``) live only in the loop's
``store.antientropy.*`` perf counters; the ``stats`` op's ``antientropy``
block and ``AntiEntropyLoop.status()`` read them from there.

*Observability*: ``repro store stats --store <route>`` prints per-shard
and per-replica tables (``--json`` for machines) — a replica with
climbing ``failovers`` (reads skipped it) or ``degraded`` (writes it
dropped) is unhealthy; anti-entropy closes the data lag, but the host
still needs attention.

*Observing the fleet*: ``repro store audit --store <spec>`` is the
read-only health walk (:mod:`repro.service.audit`) — run it from CI or
cron against any spec, local or remote. Exit codes: 0 clean (or every
finding below the ``--fail-on`` gate, default ``error``); 1/4/5/6 when
the worst finding is info/warn/error/critical; 2 stays the usage error
and 3 the batch ``QuorumError``, so a monitor can tell "fleet sick" from
"command wrong". Reading the finding codes: ``replica_divergence``,
``antientropy_unreachable_peers``, and ``orphan_entries`` name lags that
a *running* anti-entropy loop heals on its own — wait out an interval or
two and re-audit before paging anyone. ``antientropy_stalled``,
``antientropy_paused``, and a divergence that survives several intervals
mean nothing will self-heal: resume the loop or run ``repro store
repair`` for a synchronous catch-up. ``fingerprint_drift`` and
``manifest_unreadable`` (critical) never self-heal — a human decides
which copy of the data is right. ``repro dashboard --store <route>
[--fleet host:p,...]`` serves the live view (:mod:`repro.service.dashboard`):
an HTML page of per-shard hit rates, per-replica health, and anti-entropy
heal progress, ``/metrics`` in Prometheus text for scraping, and
``/findings`` running this same auditor per request.

*When is manual ``repro store repair`` still needed?* When no serving
replica has the missing entries in its anti-entropy scope: both loops
were disabled/paused, or an operator replaced a replica's directory
wholesale and wants an immediate synchronous catch-up instead of waiting
out the interval. Routine divergence — crashes, restarts, dropped
writes — heals itself.

Scheduling and backpressure (runbook)
-------------------------------------
With ``--workers remote`` the fabric's dispatch decisions live in
:class:`~repro.service.scheduler.FabricScheduler` (``service/scheduler.py``)
rather than the accept loop. The flag map::

    repro serve --store /data/s --port 7400 --workers remote \\
        --parts-per-worker 2 \\      # reservation depth per worker
        --max-queue 64               # admission bound on the front door

*Placement*: each worker owns a bounded reservation queue
(``--parts-per-worker``: one part on the wire plus the rest queued as its
stealable backlog). Parts go to the worker with the earliest estimated
finish — backlog weight over measured solve throughput, an EWMA fed from
the same per-part timings the batch report files under
``execute.worker<k>.wall``; cold workers start at the fleet median. A
worker that drains its queue pulls from the shared overflow pool, then
steals the *tail* of the most-backlogged straggler's queue. Stealing and
disconnects move parts but never change bytes: warm seeds travel inside
each task, so serial execution stays the bit-identity oracle.

*Backpressure*: ``--max-queue`` bounds the async front door's planning
queue. A request over the bound is refused with the typed shed response
``{"ok": false, "error": "overloaded", "overloaded": true,
"retry_after_s": <drain estimate>, "queued": <depth>}`` — clients back
off for the hint and resubmit; admitted requests always complete.
Window assembly round-robins one request per client per pass, so a
flooder sheds before it starves anyone else.

*Reading the counters*: the fabric ``stats`` verb (``repro worker
--connect host:port --stats``) reports ``n_dispatched`` / ``n_steals`` /
``n_reassigned`` / ``n_shed``, ``parts_queued``/``parts_in_flight``, and
per-worker rows (``queued``, ``in_flight``, ``rate``, ``steals_won``,
``steals_lost``). The same numbers surface on
``repro dashboard --fabric host:port`` (per-worker table and
``repro_fabric_*`` metrics), and in ``repro store audit --fabric
host:port`` — sheds beyond ~5% of admissions raise
``elevated_load_shedding`` (warn): add workers, raise ``--max-queue``,
or accept the sheds. Steady ``n_steals`` growth is *healthy* (the fleet
is heterogeneous and self-balancing); climbing ``n_reassigned`` means
workers are disconnecting mid-part; ``n_local_fallback`` > 0 means the
fabric ran out of workers entirely and the dispatcher solved in-process.

Load testing the service (runbook)
----------------------------------
``repro loadgen`` (:mod:`repro.service.loadgen`) replays declarative
traffic scenarios against ``repro serve --port`` and turns each run ×
repetition into one row of ``run_table.csv`` (see RUN_TABLE_COLUMNS.md
at the repo root for every column) plus a ``perf.json`` of raw
evidence::

    repro loadgen --scenario smoke --reps 2 --out /tmp/lg
    repro loadgen --scenario smoke-replica-kill \\
        --gate slo/loadgen-smoke.json --fail-on error
    repro loadgen --scenario my-scenario.json   # spec file: Scenario fields

*Choosing a scenario*: ``smoke`` is the fast local sanity run (closed
loop, no subprocess topology beyond the server). ``smoke-replica-kill``
is the CI chaos gate — a ``w=majority`` replica pair under a 2-worker
fabric, with the first replica SIGKILLed mid-run and revived with
anti-entropy; the row must show nonzero ``failovers``/``degraded`` and
zero ``wrong_answers``/``quorum_failures``. ``soak-mixed`` is the
nightly long run (open-loop Poisson arrivals, mixed store state, replica
kill + worker churn + a stalled worker socket). ``burst-shed`` drives a
bounded admission queue to overload — sheds must be typed, admitted
requests must all answer. A ``.json`` file whose keys are
:class:`~repro.service.loadgen.Scenario` fields defines a custom
scenario; unknown fields, unknown mixes, and unresolvable program names
are refused before anything spawns.

*Reading the gate*: ``--gate slo.json`` holds every row to floors and
ceilings (``min_throughput_rps``, ``max_p95_latency_ms``,
``max_error_rate``, ``max_wrong_answers``, ...; the full key table is in
RUN_TABLE_COLUMNS.md). Exit codes mirror ``repro store audit
--fail-on``: 0 clean or below the gate, else 1/4/5/6 by the worst
violation's severity (info/warn/error/critical), with 2 the usage error.
Wrong answers and quorum failures are *critical* — they mean the service
lied, not that it was slow.

*When to trust a soak vs a smoke*: the smoke's 30-second window proves
wiring — failover fires, counters move, nothing lies — but its latency
percentiles sit on a handful of seconds of warm-up-dominated traffic,
so treat its p95 as a ceiling check, not a measurement. Capacity
planning numbers (sustained rps, steady-state p99, leak-shaped drift)
only mean something from the soak's minutes-long steady state, with
``store_state="mixed"`` so the hit path and solve path both stay
exercised. Repetitions exist to catch flakes, not to average them away:
the gate holds every rep's row independently.

Front door
----------
``repro serve`` is the asyncio server
(:class:`~repro.service.asyncserve.AsyncCompileServer`) on stdin/stdout, or
on TCP with ``--port``: requests from many clients are micro-batched (an
idle server dispatches at once, a busy one gathers arrivals for a planning
window), solved concurrently in executor threads, coalesced across
batches, and answered out of order (correlated by request id).
``repro batch`` compiles a workload list as one batch; ``repro store``
administers a store directory (stats / reshard / revalidate / repair /
audit); ``repro dashboard`` serves the live fleet page. See
``repro.service.frontdoor``.
"""

from repro.service.asyncserve import AsyncCompileServer
from repro.service.audit import (
    Finding,
    FleetAuditor,
    exit_code_for,
    worst_severity,
)
from repro.service.dashboard import DashboardServer, FleetPoller
from repro.service.loadgen import (
    RUN_TABLE_COLUMNS,
    SCENARIOS,
    FaultSpec,
    InProcessServer,
    RunTable,
    Scenario,
    evaluate_slo,
    gate_exit_code,
    load_scenario,
    load_slo,
    run_scenario,
)
from repro.service.executor import (
    GroupCoalescer,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    WorkerPoolExecutor,
    make_backend,
)
from repro.service.planner import BatchPlan, CompilePlanner, WorkerPlan
from repro.service.remote import (
    RemoteExecutor,
    RemoteStore,
    RemoteUnavailable,
    RetryPolicy,
    fabric_stats,
    parse_route,
    worker_loop,
)
from repro.service.replication import QuorumError, ReplicatedStore
from repro.service.scheduler import (
    CLOSE_FABRIC,
    FabricScheduler,
    ScheduledPart,
    WorkerSlot,
)
from repro.service.service import BatchReport, CompileService, RequestReport
from repro.service.sharding import ShardedStore, open_store, reshard
from repro.service.store import (
    PulseStore,
    StoreBackend,
    StoreStats,
    StoreVersionError,
)
from repro.service.storeserver import AntiEntropyLoop, StoreServer

__all__ = [
    "AntiEntropyLoop",
    "AsyncCompileServer",
    "BatchPlan",
    "BatchReport",
    "CLOSE_FABRIC",
    "CompilePlanner",
    "CompileService",
    "DashboardServer",
    "FabricScheduler",
    "FaultSpec",
    "Finding",
    "FleetAuditor",
    "FleetPoller",
    "GroupCoalescer",
    "InProcessServer",
    "RUN_TABLE_COLUMNS",
    "RunTable",
    "SCENARIOS",
    "Scenario",
    "ProcessBackend",
    "PulseStore",
    "QuorumError",
    "RemoteExecutor",
    "RemoteStore",
    "RemoteUnavailable",
    "ReplicatedStore",
    "RequestReport",
    "RetryPolicy",
    "ScheduledPart",
    "SerialBackend",
    "ShardedStore",
    "StoreBackend",
    "StoreServer",
    "StoreStats",
    "StoreVersionError",
    "ThreadBackend",
    "WorkerPlan",
    "WorkerPoolExecutor",
    "WorkerSlot",
    "evaluate_slo",
    "exit_code_for",
    "fabric_stats",
    "gate_exit_code",
    "load_scenario",
    "load_slo",
    "make_backend",
    "open_store",
    "parse_route",
    "reshard",
    "run_scenario",
    "worker_loop",
    "worst_severity",
]
