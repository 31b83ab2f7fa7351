"""``repro loadgen``: the load/soak harness with run tables and SLO gates.

Every performance claim before this module came from single-run anecdotes.
The harness turns "it felt fast" into a **run table**: N concurrent TCP
clients replay a declarative traffic scenario against ``repro serve
--port``, and every run × repetition becomes one row of ``run_table.csv``
(throughput, latency percentiles, solves vs store hits, sheds, failovers,
quorum failures, steals — see RUN_TABLE_COLUMNS.md at the repo root for
the full column reference) plus a per-run ``perf.json`` holding the raw
evidence (client latencies, the server's ``stats`` snapshots before and
after the measured window, fabric scheduler counters, the ``final_stats``
line the server emits on SIGTERM).

Scenario anatomy (:class:`Scenario`):

* **mix** — a named traffic mix from
  :data:`repro.workloads.mixes.TRAFFIC_MIXES` or an inline
  ``[(program, weight), ...]`` list; every program name is validated
  against the serve protocol's resolver at spec time, so a typo dies
  before any process spawns.
* **arrival** — ``closed`` (each client sends, waits, sends again: the
  classic closed loop), ``poisson`` (open loop: each client fires on a
  pre-drawn exponential schedule regardless of responses — the arrival
  times are a pure function of the seed, so a run is replayable), or
  ``burst`` (send ``burst_size`` back to back, drain, sleep
  ``burst_gap_s``, repeat).
* **store_state** — ``cold`` (fresh store), ``warm`` (the mix's programs
  are batch-compiled into the store before measurement), ``mixed``
  (half of them are).
* **topology** — ``shards``, ``workers`` (a local pool, or a remote
  fabric of ``repro worker`` subprocesses when ``fabric=True``),
  ``replicas`` (2 spawns a ``w=majority`` replica pair of ``repro store
  serve`` processes).
* **faults** — mid-run chaos, reusing the patterns proven in
  ``tests/test_service_scheduler.py`` and
  ``tests/test_service_antientropy.py``: ``kill_replica`` (SIGKILL the
  first replica, revive it later with the anti-entropy loop pointed at
  the survivor), ``churn_worker`` (SIGKILL a fabric worker, enroll a
  replacement), ``stall_worker`` (a raw socket enrolls, accepts one
  part, and never answers until released — the scheduler must
  steal/reassign around it).

**Wrong answers** are detected without an oracle: the engines are
deterministic, so every ``ok`` response for the same program within one
run must agree on ``(overall_latency_ns, n_groups, n_unique)``.
Responses outside their program's majority signature count as
``wrong_answers`` — the one number that must stay 0 through any fault.

**SLO gating** (``repro loadgen --gate slo.json``) evaluates floor/
ceiling checks over every row and exits in the style of ``repro store
audit --fail-on``: 0 clean or below the gate, else 1/4/5/6 for a worst
violation of info/warn/error/critical (wrong answers and quorum
failures are critical; throughput/latency/error-rate breaches are
errors; shed-rate breaches warn).
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Dict, IO, List, Optional, Sequence, Tuple

from repro.service.audit import EXIT_BY_SEVERITY, SEVERITIES, severity_rank

ARRIVALS = ("closed", "poisson", "burst")
STORE_STATES = ("cold", "warm", "mixed")
FAULT_KINDS = ("kill_replica", "churn_worker", "stall_worker")

#: One row per run × repetition; see RUN_TABLE_COLUMNS.md for the full
#: per-column reference (meaning, source counter, units).
RUN_TABLE_COLUMNS = (
    "scenario", "run", "rep", "arrival", "store_state", "clients",
    "shards", "workers", "replicas", "duration_s", "requests", "ok",
    "errors", "sheds", "wrong_answers", "throughput_rps",
    "p50_latency_ms", "p95_latency_ms", "p99_latency_ms",
    "mean_latency_ms", "iterations", "solves", "store_hits",
    "store_misses", "coalesced", "failovers", "degraded",
    "quorum_failures", "steals", "reassignments", "error_rate",
    "shed_rate",
)


# ---------------------------------------------------------------- scenarios
@dataclass(frozen=True)
class FaultSpec:
    """One mid-run fault: inject at ``at_s`` into the measured window,
    undo (revive / replace / release) ``duration_s`` later."""

    kind: str
    at_s: float
    duration_s: float = 5.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known kinds: "
                f"{FAULT_KINDS}"
            )
        if self.at_s < 0 or self.duration_s < 0:
            raise ValueError("fault times must be >= 0")


@dataclass(frozen=True)
class Scenario:
    """One declarative load scenario (validated eagerly, refused loudly)."""

    name: str
    mix: object = "qft-small"  # registry name or [(program, weight), ...]
    arrival: str = "closed"
    clients: int = 2
    rate_rps: float = 8.0  # poisson only: whole-system arrival rate
    burst_size: int = 4
    burst_gap_s: float = 0.5
    duration_s: float = 10.0
    max_requests: Optional[int] = None  # budget alternative to duration
    store_state: str = "cold"
    shards: int = 1
    workers: int = 2
    fabric: bool = False  # True: --workers remote + worker subprocesses
    replicas: int = 1  # 2: a w=majority replica pair of store servers
    max_queue: Optional[int] = None  # admission bound on the front door
    faults: Tuple[FaultSpec, ...] = ()
    seed: int = 7

    def __post_init__(self) -> None:
        if self.arrival not in ARRIVALS:
            raise ValueError(
                f"unknown arrival {self.arrival!r}; known: {ARRIVALS}"
            )
        if self.store_state not in STORE_STATES:
            raise ValueError(
                f"unknown store_state {self.store_state!r}; "
                f"known: {STORE_STATES}"
            )
        if self.clients < 1:
            raise ValueError("clients must be >= 1")
        if self.duration_s <= 0 and self.max_requests is None:
            raise ValueError("need duration_s > 0 or max_requests")
        if self.max_requests is not None and self.max_requests < 1:
            raise ValueError("max_requests must be >= 1")
        if self.rate_rps <= 0:
            raise ValueError("rate_rps must be > 0")
        if self.burst_size < 1:
            raise ValueError("burst_size must be >= 1")
        if self.shards < 1 or self.workers < 1 or self.replicas < 1:
            raise ValueError("shards/workers/replicas must be >= 1")
        if self.replicas > 1 and self.shards > 1:
            raise ValueError(
                "replicas > 1 needs shards == 1 (one replicated route)"
            )
        for fault in self.faults:
            if fault.kind == "kill_replica" and self.replicas < 2:
                raise ValueError("kill_replica needs replicas >= 2")
            if fault.kind in ("churn_worker", "stall_worker") and not self.fabric:
                raise ValueError(f"{fault.kind} needs fabric=True")
        self.programs_and_weights()  # resolve mix + validate every program

    def programs_and_weights(self) -> Tuple[List[str], List[float]]:
        """The mix as parallel lists, every program resolver-validated."""
        from repro.service.protocol import resolve_program
        from repro.workloads.mixes import traffic_mix

        pairs = traffic_mix(self.mix) if isinstance(self.mix, str) else [
            (str(name), float(weight)) for name, weight in self.mix
        ]
        if not pairs:
            raise ValueError("traffic mix is empty")
        names, weights = zip(*pairs)
        if any(w <= 0 for w in weights):
            raise ValueError(f"mix weights must be > 0: {pairs}")
        for name in names:
            resolve_program(name)  # ProtocolError on a bad program name
        return list(names), list(weights)


#: Named scenarios the CLI accepts by name (`repro loadgen --scenario
#: smoke`). A JSON file path works too — its keys are Scenario fields.
SCENARIOS: Dict[str, Scenario] = {
    # Fast local sanity run: no subprocess topology beyond the server.
    "smoke": Scenario(
        name="smoke", mix="qft-small", arrival="closed", clients=2,
        duration_s=10.0, shards=2, workers=2,
    ),
    # The CI loadgen-smoke job: 30 s closed loop against a 2-worker
    # fabric over a w=majority replica pair, with the *first* replica
    # (the preferred read target, so failovers are visible) killed at
    # t=6 s and revived 8 s later with anti-entropy pointed at the
    # survivor. Gated on slo/loadgen-smoke.json.
    "smoke-replica-kill": Scenario(
        name="smoke-replica-kill", mix="qft-small", arrival="closed",
        clients=4, duration_s=30.0, shards=1, workers=2, fabric=True,
        replicas=2,
        faults=(FaultSpec("kill_replica", at_s=6.0, duration_s=8.0),),
    ),
    # The nightly soak: longer mixed-state run, open-loop poisson
    # arrivals, worker churn plus a stalled socket mid-run.
    "soak-mixed": Scenario(
        name="soak-mixed", mix="suite-mixed", arrival="poisson",
        clients=8, rate_rps=4.0, duration_s=180.0, store_state="mixed",
        shards=1, workers=2, fabric=True, replicas=2,
        faults=(
            FaultSpec("kill_replica", at_s=30.0, duration_s=20.0),
            FaultSpec("churn_worker", at_s=75.0, duration_s=10.0),
            FaultSpec("stall_worker", at_s=120.0, duration_s=15.0),
        ),
    ),
    # Burst arrivals against a bounded admission queue: sheds must be
    # typed and admitted requests must all answer.
    "burst-shed": Scenario(
        name="burst-shed", mix="qft-small", arrival="burst", clients=4,
        burst_size=6, burst_gap_s=0.25, duration_s=15.0, shards=2,
        workers=2, max_queue=8,
    ),
}


def scenario_from_spec(spec: Dict) -> Scenario:
    """Build a :class:`Scenario` from a JSON-shaped dict, loudly."""
    if not isinstance(spec, dict):
        raise ValueError("scenario spec must be a JSON object")
    known = set(Scenario.__dataclass_fields__)
    unknown = set(spec) - known
    if unknown:
        raise ValueError(
            f"unknown scenario field(s) {sorted(unknown)}; "
            f"known fields: {sorted(known)}"
        )
    if "name" not in spec:
        raise ValueError("scenario spec needs a 'name'")
    faults = tuple(
        FaultSpec(**f) if isinstance(f, dict) else f
        for f in spec.get("faults", ())
    )
    fields = dict(spec, faults=faults)
    # JSON has no tuples: normalize an inline mix of [name, weight] lists.
    if isinstance(fields.get("mix"), list):
        fields["mix"] = [tuple(pair) for pair in fields["mix"]]
    return Scenario(**fields)


def load_scenario(ref: str) -> Scenario:
    """Resolve a CLI ``--scenario`` value: registry name or JSON file."""
    if ref in SCENARIOS:
        return SCENARIOS[ref]
    if ref.endswith(".json") or os.path.sep in ref:
        with open(ref) as handle:
            return scenario_from_spec(json.load(handle))
    raise ValueError(
        f"unknown scenario {ref!r}; named scenarios: {sorted(SCENARIOS)} "
        f"(or pass a .json spec file)"
    )


# ------------------------------------------------------------- arithmetic
def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default), q in [0, 100].

    Kept dependency-free and exact so the run table's p50/p95/p99 columns
    have one pinned definition a test can check against a known
    distribution.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    if not values:
        raise ValueError("percentile of an empty sequence")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (q / 100.0) * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return float(ordered[lo])
    frac = rank - lo
    return float(ordered[lo] * (1.0 - frac) + ordered[hi] * frac)


def poisson_arrivals(rate_rps: float, duration_s: float, rng) -> List[float]:
    """Open-loop arrival offsets: exponential inter-arrivals at
    ``rate_rps``, clipped to ``duration_s``. Pure function of the RNG
    state — a seeded run replays the exact same schedule."""
    if rate_rps <= 0:
        raise ValueError("rate_rps must be > 0")
    offsets: List[float] = []
    t = rng.expovariate(rate_rps)
    while t < duration_s:
        offsets.append(t)
        t += rng.expovariate(rate_rps)
    return offsets


def _weighted_pick(names: Sequence[str], cumulative: Sequence[float], rng) -> str:
    x = rng.random() * cumulative[-1]
    for name, edge in zip(names, cumulative):
        if x < edge:
            return name
    return names[-1]


def _client_traffic(
    scenario: Scenario, index: int
) -> Tuple[random.Random, List[str], List[float]]:
    """Client ``index``'s RNG plus the mix as names and cumulative weights.

    The RNG is seeded from a string, which ``random.Random`` hashes with
    SHA-512: the same ``seed`` draws the same programs and arrival
    schedule in every interpreter. (``hash()`` of a tuple holding a str
    varies with ``PYTHONHASHSEED``.)
    """
    names, weights = scenario.programs_and_weights()
    rng = random.Random(f"{scenario.seed}:client:{index}")
    return rng, names, list(itertools.accumulate(weights))


# ----------------------------------------------------------------- traffic
@dataclass
class TrafficResult:
    """Client-side outcome of one measured window (all clients merged)."""

    requests: int = 0
    ok: int = 0
    errors: int = 0
    sheds: int = 0
    latencies_ms: List[float] = field(default_factory=list)
    iterations: int = 0
    duration_s: float = 0.0
    # program -> Counter of (overall_latency_ns, n_groups, n_unique):
    # deterministic engines must answer one signature per program.
    signatures: Dict[str, Counter] = field(default_factory=dict)

    def merge(self, other: "TrafficResult") -> None:
        self.requests += other.requests
        self.ok += other.ok
        self.errors += other.errors
        self.sheds += other.sheds
        self.latencies_ms.extend(other.latencies_ms)
        self.iterations += other.iterations
        for program, counts in other.signatures.items():
            self.signatures.setdefault(program, Counter()).update(counts)

    @property
    def wrong_answers(self) -> int:
        """Ok responses disagreeing with their program's majority
        signature — with deterministic engines, any disagreement means a
        client was served a wrong (stale / corrupted / misrouted)
        answer."""
        wrong = 0
        for counts in self.signatures.values():
            total = sum(counts.values())
            wrong += total - max(counts.values())
        return wrong


class _Recorder:
    """Per-client accounting (single-threaded per client)."""

    def __init__(self) -> None:
        self.result = TrafficResult()

    def sent(self) -> None:
        self.result.requests += 1

    def answered(self, program: str, payload: Dict, latency_s: float) -> None:
        if payload.get("overloaded"):
            self.result.sheds += 1
            return
        if not payload.get("ok"):
            self.result.errors += 1
            return
        self.result.ok += 1
        self.result.latencies_ms.append(latency_s * 1e3)
        self.result.iterations += int(payload.get("compile_iterations", 0))
        signature = (
            payload.get("overall_latency_ns"),
            payload.get("n_groups"),
            payload.get("n_unique"),
        )
        self.result.signatures.setdefault(program, Counter())[signature] += 1

    def lost(self, n: int = 1) -> None:
        self.result.errors += n


def _connect(host: str, port: int, timeout_s: float = 30.0):
    sock = socket.create_connection((host, port), timeout=timeout_s)
    sock.settimeout(timeout_s)
    return sock


def _send_line(stream: IO[bytes], payload: Dict) -> None:
    stream.write((json.dumps(payload) + "\n").encode())
    stream.flush()


def _closed_client(
    host: str, port: int, scenario: Scenario, index: int,
    deadline: float, quota: Optional[int], recorder: _Recorder,
) -> None:
    rng, names, edges = _client_traffic(scenario, index)
    with _connect(host, port, timeout_s=120.0) as sock:
        with sock.makefile("rwb") as stream:
            n = 0
            while time.monotonic() < deadline and (quota is None or n < quota):
                name = _weighted_pick(names, edges, rng)
                start = time.monotonic()
                _send_line(stream, {"id": f"c{index}-{n}", "name": name})
                recorder.sent()
                n += 1
                line = stream.readline()
                if not line:
                    recorder.lost()
                    return
                payload = json.loads(line)
                recorder.answered(name, payload, time.monotonic() - start)
                if payload.get("overloaded"):
                    # Back off for the server's hint (bounded: a soak
                    # must keep offering load, not sleep through it).
                    time.sleep(min(float(payload.get("retry_after_s", 0.1)), 0.5))


def _open_client(
    host: str, port: int, scenario: Scenario, index: int,
    measure_start: float, recorder: _Recorder, drain_s: float = 30.0,
) -> None:
    rng, names, edges = _client_traffic(scenario, index)
    schedule = poisson_arrivals(
        scenario.rate_rps / scenario.clients, scenario.duration_s, rng
    )
    pending: Dict[str, Tuple[str, float]] = {}
    lock = threading.Lock()
    done = threading.Event()

    with _connect(host, port, timeout_s=drain_s) as sock:
        with sock.makefile("rwb") as stream:

            def reader() -> None:
                while True:
                    try:
                        line = stream.readline()
                    except (OSError, ValueError):
                        return
                    if not line:
                        return
                    payload = json.loads(line)
                    with lock:
                        sent = pending.pop(str(payload.get("id")), None)
                    if sent is None:
                        continue  # a command echo or unknown id
                    name, at = sent
                    recorder.answered(name, payload, time.monotonic() - at)
                    with lock:
                        if done.is_set() and not pending:
                            return

            reader_thread = threading.Thread(target=reader, daemon=True)
            reader_thread.start()
            for n, offset in enumerate(schedule):
                now = time.monotonic()
                due = measure_start + offset
                if due > now:
                    time.sleep(due - now)
                request_id = f"c{index}-{n}"
                with lock:
                    pending[request_id] = (None, 0.0)  # placeholder
                name = _weighted_pick(names, edges, rng)
                at = time.monotonic()
                with lock:
                    pending[request_id] = (name, at)
                _send_line(stream, {"id": request_id, "name": name})
                recorder.sent()
            done.set()
            reader_thread.join(timeout=drain_s)
            with lock:
                recorder.lost(len(pending))  # never answered within drain
                pending.clear()


def _burst_client(
    host: str, port: int, scenario: Scenario, index: int,
    deadline: float, recorder: _Recorder,
) -> None:
    rng, names, edges = _client_traffic(scenario, index)
    with _connect(host, port, timeout_s=120.0) as sock:
        with sock.makefile("rwb") as stream:
            n = 0
            while time.monotonic() < deadline:
                burst: List[Tuple[str, str, float]] = []
                for _ in range(scenario.burst_size):
                    name = _weighted_pick(names, edges, rng)
                    request_id = f"c{index}-{n}"
                    n += 1
                    burst.append((request_id, name, time.monotonic()))
                    _send_line(stream, {"id": request_id, "name": name})
                    recorder.sent()
                by_id = {rid: (name, at) for rid, name, at in burst}
                for _ in range(len(burst)):
                    line = stream.readline()
                    if not line:
                        recorder.lost(len(by_id))
                        return
                    payload = json.loads(line)
                    sent = by_id.pop(str(payload.get("id")), None)
                    if sent is None:
                        continue
                    name, at = sent
                    recorder.answered(name, payload, time.monotonic() - at)
                time.sleep(scenario.burst_gap_s)


def drive(host: str, port: int, scenario: Scenario) -> TrafficResult:
    """Replay one scenario's traffic from ``scenario.clients`` threads.

    Pure client side: works against any serving address (the in-process
    server the tests/benches spin up, or the subprocess topology
    :class:`ScenarioHarness` orchestrates). Returns the merged
    :class:`TrafficResult`; client thread crashes surface as errors, not
    hangs.
    """
    recorders = [_Recorder() for _ in range(scenario.clients)]
    measure_start = time.monotonic()
    deadline = measure_start + (
        scenario.duration_s if scenario.max_requests is None
        else max(scenario.duration_s, 120.0)
    )
    quota: Optional[int] = None
    if scenario.max_requests is not None:
        quota = math.ceil(scenario.max_requests / scenario.clients)

    def runner(index: int) -> None:
        try:
            if scenario.arrival == "closed":
                _closed_client(
                    host, port, scenario, index, deadline, quota,
                    recorders[index],
                )
            elif scenario.arrival == "poisson":
                _open_client(
                    host, port, scenario, index, measure_start,
                    recorders[index],
                )
            else:
                _burst_client(
                    host, port, scenario, index, deadline, recorders[index]
                )
        except (OSError, ValueError, json.JSONDecodeError):
            recorders[index].lost()

    threads = [
        threading.Thread(target=runner, args=(i,), daemon=True)
        for i in range(scenario.clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        # Generous join bound: a wedged server must fail the run, not
        # hang the harness (the stragglers' requests count as errors).
        thread.join(timeout=scenario.duration_s + 300.0)
    merged = TrafficResult()
    for recorder in recorders:
        merged.merge(recorder.result)
    merged.duration_s = time.monotonic() - measure_start
    return merged


# ------------------------------------------------------------ server admin
def server_stats(host: str, port: int, timeout_s: float = 30.0) -> Dict:
    """One ``{"cmd": "stats"}`` round trip against the async front door."""
    with _connect(host, port, timeout_s=timeout_s) as sock:
        with sock.makefile("rwb") as stream:
            _send_line(stream, {"id": "loadgen-stats", "cmd": "stats"})
            line = stream.readline()
    if not line:
        raise ConnectionError("server closed without answering stats")
    return json.loads(line)


def _counters_delta(before: Dict, after: Dict) -> Dict[str, float]:
    """after - before for every shared numeric key (one level deep)."""
    delta: Dict[str, float] = {}
    for key, value in after.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            delta[key] = value - before.get(key, 0)
    return delta


# ------------------------------------------------------------ orchestration
def _repro_env() -> Dict[str, str]:
    """Subprocess env with this repro's src dir first on PYTHONPATH."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    return env


class ScenarioHarness:
    """Spawn the topology one scenario run needs, inject its faults,
    tear it all down with the logs kept.

    Layout under ``run_dir``: ``logs/`` (every subprocess's stderr, the
    post-mortem artifact CI uploads on failure) and the caller-written
    ``perf.json``. The server itself is stopped with SIGTERM — the
    closing ``final_stats`` line it prints (see
    :mod:`repro.service.asyncserve`) is captured into the harness's
    ``final_stats``.
    """

    def __init__(self, scenario: Scenario, run_dir: str) -> None:
        self.scenario = scenario
        self.run_dir = run_dir
        self.log_dir = os.path.join(run_dir, "logs")
        os.makedirs(self.log_dir, exist_ok=True)
        self.env = _repro_env()
        self.replica_procs: List[Optional[subprocess.Popen]] = []
        self.replica_addrs: List[str] = []
        self.replica_roots: List[str] = []
        self.worker_procs: List[subprocess.Popen] = []
        self.server: Optional[subprocess.Popen] = None
        self.fabric_addr: Optional[str] = None
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self.final_stats: Optional[Dict] = None
        self.fault_log: List[Dict] = []
        self._stall_release = threading.Event()
        self._log_handles: List[IO] = []

    # ------------------------------------------------------------- spawning
    def _log(self, name: str) -> IO:
        handle = open(os.path.join(self.log_dir, f"{name}.log"), "w")
        self._log_handles.append(handle)
        return handle

    def _spawn(self, args: Sequence[str], log_name: str) -> subprocess.Popen:
        return subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            env=self.env, stdout=subprocess.PIPE,
            stderr=self._log(log_name), text=True,
        )

    def _start_replica(
        self, index: int, port: int = 0, extra: Sequence[str] = ()
    ) -> Tuple[Optional[subprocess.Popen], Optional[str]]:
        root = self.replica_roots[index]
        proc = self._spawn(
            ["store", "serve", "--root", root, "--port", str(port), *extra],
            f"replica-{index}",
        )
        line = proc.stdout.readline()
        if not line:
            proc.wait()
            return None, None
        return proc, json.loads(line)["serving"]

    def store_spec(self) -> str:
        scenario = self.scenario
        if scenario.replicas > 1:
            routes = "|".join(self.replica_addrs)
            return (
                f"remote://{routes}?w=majority&retries=2&backoff=0.05&cap=0.2"
            )
        return os.path.join(self.run_dir, "store")

    def _warm_store(self, spec: str) -> None:
        """Pre-measurement store state: batch-compile the mix's programs
        (all of them for ``warm``, the first half for ``mixed``)."""
        names, _ = self.scenario.programs_and_weights()
        unique = list(dict.fromkeys(names))
        if self.scenario.store_state == "mixed":
            unique = unique[: max(1, len(unique) // 2)]
        args = ["batch", *unique, "--store", spec, "--workers", "2",
                "--backend", "thread", "--json"]
        if spec == os.path.join(self.run_dir, "store") and self.scenario.shards > 1:
            args += ["--shards", str(self.scenario.shards)]
        warm = self._spawn(args, "warmup")
        out, _ = warm.communicate(timeout=600)
        if warm.returncode != 0:
            raise RuntimeError(
                f"store warmup batch failed with exit {warm.returncode}"
            )
        with open(os.path.join(self.run_dir, "warmup.json"), "w") as handle:
            handle.write(out)

    def __enter__(self) -> "ScenarioHarness":
        scenario = self.scenario
        try:
            if scenario.replicas > 1:
                for index in range(scenario.replicas):
                    self.replica_roots.append(
                        os.path.join(self.run_dir, f"replica-{index}")
                    )
                    proc, addr = self._start_replica(index)
                    if proc is None:
                        raise RuntimeError(f"replica {index} failed to start")
                    self.replica_procs.append(proc)
                    self.replica_addrs.append(addr)
            spec = self.store_spec()
            if scenario.store_state in ("warm", "mixed"):
                self._warm_store(spec)

            serve = ["serve", "--store", spec, "--port", "0"]
            if scenario.replicas == 1 and scenario.shards > 1:
                serve += ["--shards", str(scenario.shards)]
            if scenario.fabric:
                serve += ["--workers", "remote"]
            else:
                serve += ["--workers", str(scenario.workers)]
            if scenario.max_queue is not None:
                serve += ["--max-queue", str(scenario.max_queue)]
            self.server = self._spawn(serve, "server")
            if scenario.fabric:
                self.fabric_addr = json.loads(
                    self.server.stdout.readline()
                )["workers"]
            address = json.loads(self.server.stdout.readline())["serving"]
            host, port = address.rsplit(":", 1)
            self.host, self.port = host, int(port)

            if scenario.fabric:
                for index in range(scenario.workers):
                    self.worker_procs.append(self._spawn(
                        ["worker", "--connect", self.fabric_addr],
                        f"worker-{index}",
                    ))
        except BaseException:
            self._cleanup()
            raise
        return self

    # --------------------------------------------------------------- faults
    def start_faults(self, measure_start: float) -> List[threading.Thread]:
        threads = []
        for fault in self.scenario.faults:
            thread = threading.Thread(
                target=self._run_fault, args=(fault, measure_start),
                daemon=True,
            )
            thread.start()
            threads.append(thread)
        return threads

    def _note(self, fault: FaultSpec, event: str) -> None:
        self.fault_log.append({
            "kind": fault.kind, "event": event,
            "at_monotonic": time.monotonic(),
        })

    def _run_fault(self, fault: FaultSpec, measure_start: float) -> None:
        delay = measure_start + fault.at_s - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        if fault.kind == "kill_replica":
            self._fault_kill_replica(fault)
        elif fault.kind == "churn_worker":
            self._fault_churn_worker(fault)
        else:
            self._fault_stall_worker(fault)

    def _fault_kill_replica(self, fault: FaultSpec) -> None:
        # Kill replica 0 — the ordered-failover read preference — so the
        # run table's failovers column shows the reads that skipped it.
        victim = self.replica_procs[0]
        if victim is None or victim.poll() is not None:
            return
        victim.send_signal(signal.SIGKILL)
        victim.wait()
        self._note(fault, "killed replica-0")
        time.sleep(fault.duration_s)
        port = int(self.replica_addrs[0].rsplit(":", 1)[1])
        peers = ",".join(self.replica_addrs[1:])
        # The revived replica heals itself: anti-entropy against the
        # survivor(s), no operator repair — the PR 6 contract under load.
        for _ in range(40):
            proc, addr = self._start_replica(
                0, port,
                ("--anti-entropy-interval", "1.0", "--peers", peers),
            )
            if proc is not None:
                self.replica_procs[0] = proc
                self.replica_addrs[0] = addr
                self._note(fault, "revived replica-0 with anti-entropy")
                return
            time.sleep(0.25)
        self._note(fault, "revive failed: port never rebound")

    def _fault_churn_worker(self, fault: FaultSpec) -> None:
        victim = self.worker_procs[0]
        if victim.poll() is None:
            victim.send_signal(signal.SIGKILL)
            victim.wait()
        self._note(fault, "killed worker-0")
        time.sleep(fault.duration_s)
        self.worker_procs.append(self._spawn(
            ["worker", "--connect", self.fabric_addr],
            f"worker-churned-{len(self.worker_procs)}",
        ))
        self._note(fault, "enrolled replacement worker")

    def _fault_stall_worker(self, fault: FaultSpec) -> None:
        """Enroll as a solver, accept one part, never answer — the
        scheduler must steal the stalled queue / reassign the in-flight
        part (the test_service_scheduler stall pattern, live)."""
        host, port = self.fabric_addr.rsplit(":", 1)
        try:
            with socket.create_connection((host, int(port)), timeout=10) as sock:
                sock.settimeout(max(fault.duration_s, 1.0))
                with sock.makefile("rwb") as stream:
                    stream.write(b'{"op": "hello"}\n')
                    stream.flush()
                    self._note(fault, "stalled worker enrolled")
                    try:
                        stream.readline()  # accept one part...
                        self._note(fault, "stalled worker holds a part")
                        self._stall_release.wait(fault.duration_s)
                    except socket.timeout:
                        pass  # ...or never get one: idle stall
        except OSError:
            self._note(fault, "stall enroll failed (fabric gone?)")
            return
        self._note(fault, "stalled worker released (disconnect)")

    # -------------------------------------------------------------- queries
    def stats(self) -> Dict:
        return server_stats(self.host, self.port)

    def fabric_snapshot(self) -> Dict:
        if not self.fabric_addr:
            return {}
        from repro.service.remote import RemoteUnavailable, fabric_stats

        try:
            return fabric_stats(self.fabric_addr, timeout_s=10.0)
        except RemoteUnavailable:
            return {}

    # ------------------------------------------------------------- teardown
    def stop_server(self, timeout_s: float = 120.0) -> Optional[Dict]:
        """SIGTERM the front door and capture its closing snapshot: the
        satellite contract — graceful drain + flush + ``final_stats`` on
        SIGTERM, not just SIGINT/shutdown."""
        if self.server is None or self.server.poll() is not None:
            return self.final_stats
        self._stall_release.set()
        self.server.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + timeout_s
        for line in self.server.stdout:
            try:
                payload = json.loads(line)
            except ValueError:
                continue
            if "final_stats" in payload:
                self.final_stats = payload["final_stats"]
            if time.monotonic() > deadline:
                break
        self.server.wait(timeout=timeout_s)
        return self.final_stats

    def _cleanup(self) -> None:
        self._stall_release.set()
        if self.server is not None and self.server.poll() is None:
            self.server.kill()
            self.server.wait()
        for proc in self.worker_procs:
            if proc.poll() is None:
                proc.terminate()
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
        for proc in self.replica_procs:
            if proc is not None and proc.poll() is None:
                proc.terminate()
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
        for handle in self._log_handles:
            try:
                handle.close()
            except OSError:
                pass

    def __exit__(self, *exc_info) -> None:
        self._cleanup()


# --------------------------------------------------------------- run table
class RunTable:
    """Append-only ``run_table.csv`` writer (header written once)."""

    def __init__(self, path: str) -> None:
        self.path = path

    def append(self, row: Dict) -> None:
        missing = set(RUN_TABLE_COLUMNS) - set(row)
        if missing:
            raise ValueError(f"run table row missing columns: {sorted(missing)}")
        new = not os.path.exists(self.path)
        os.makedirs(os.path.dirname(os.path.abspath(self.path)), exist_ok=True)
        with open(self.path, "a", newline="") as handle:
            writer = csv.DictWriter(
                handle, fieldnames=list(RUN_TABLE_COLUMNS), extrasaction="ignore"
            )
            if new:
                writer.writeheader()
            writer.writerow(row)

    def rows(self) -> List[Dict]:
        with open(self.path, newline="") as handle:
            return [dict(row) for row in csv.DictReader(handle)]


def metrics_row(
    scenario: Scenario,
    run: int,
    rep: int,
    traffic: TrafficResult,
    stats_before: Optional[Dict] = None,
    stats_after: Optional[Dict] = None,
    fabric_before: Optional[Dict] = None,
    fabric_after: Optional[Dict] = None,
) -> Dict:
    """One run table row from the client-side result + server counters."""
    store_delta: Dict[str, float] = {}
    top_delta: Dict[str, float] = {}
    if stats_before is not None and stats_after is not None:
        store_delta = _counters_delta(
            stats_before.get("store", {}), stats_after.get("store", {})
        )
        top_delta = _counters_delta(stats_before, stats_after)
    fabric_delta: Dict[str, float] = {}
    if fabric_before is not None and fabric_after is not None:
        fabric_delta = _counters_delta(fabric_before, fabric_after)
    latencies = traffic.latencies_ms
    duration = max(traffic.duration_s, 1e-9)
    row = {
        "scenario": scenario.name,
        "run": run,
        "rep": rep,
        "arrival": scenario.arrival,
        "store_state": scenario.store_state,
        "clients": scenario.clients,
        "shards": scenario.shards,
        "workers": scenario.workers,
        "replicas": scenario.replicas,
        "duration_s": round(traffic.duration_s, 3),
        "requests": traffic.requests,
        "ok": traffic.ok,
        "errors": traffic.errors,
        "sheds": traffic.sheds,
        "wrong_answers": traffic.wrong_answers,
        "throughput_rps": round(traffic.ok / duration, 4),
        "p50_latency_ms": round(percentile(latencies, 50), 3) if latencies else 0.0,
        "p95_latency_ms": round(percentile(latencies, 95), 3) if latencies else 0.0,
        "p99_latency_ms": round(percentile(latencies, 99), 3) if latencies else 0.0,
        "mean_latency_ms": (
            round(sum(latencies) / len(latencies), 3) if latencies else 0.0
        ),
        "iterations": traffic.iterations,
        "solves": int(store_delta.get("puts", 0)),
        "store_hits": int(store_delta.get("hits", 0)),
        "store_misses": int(store_delta.get("misses", 0)),
        "coalesced": int(top_delta.get("coalesced", 0)),
        "failovers": int(store_delta.get("failovers", 0)),
        "degraded": int(store_delta.get("degraded", 0)),
        "quorum_failures": int(store_delta.get("quorum_failures", 0)),
        "steals": int(fabric_delta.get("n_steals", 0)),
        "reassignments": int(fabric_delta.get("n_reassigned", 0)),
        "error_rate": (
            round(traffic.errors / traffic.requests, 6) if traffic.requests else 0.0
        ),
        "shed_rate": (
            round(traffic.sheds / traffic.requests, 6) if traffic.requests else 0.0
        ),
    }
    return row


def run_scenario(
    scenario: Scenario,
    out_dir: str,
    run: int = 0,
    rep: int = 0,
    connect: Optional[Tuple[str, int]] = None,
    run_table: Optional[RunTable] = None,
) -> Dict:
    """One run × repetition: orchestrate (or connect), drive, record.

    Returns the run-table row; also appends it to ``run_table`` (default:
    ``<out_dir>/run_table.csv``) and writes the raw evidence to
    ``<out_dir>/run_<run>_rep_<rep>/perf.json``.
    """
    if run_table is None:
        run_table = RunTable(os.path.join(out_dir, "run_table.csv"))
    run_dir = os.path.join(out_dir, f"run_{run}_rep_{rep}")
    os.makedirs(run_dir, exist_ok=True)

    if connect is not None:
        if scenario.faults:
            raise ValueError(
                "fault injection needs harness orchestration; "
                "--connect drives an existing server it must not kill"
            )
        host, port = connect
        stats_before = server_stats(host, port)
        traffic = drive(host, port, scenario)
        stats_after = server_stats(host, port)
        fabric_before = fabric_after = None
        final_stats = None
        fault_log: List[Dict] = []
    else:
        with ScenarioHarness(scenario, run_dir) as harness:
            stats_before = harness.stats()
            fabric_before = harness.fabric_snapshot()
            harness.start_faults(time.monotonic())
            traffic = drive(harness.host, harness.port, scenario)
            stats_after = harness.stats()
            fabric_after = harness.fabric_snapshot()
            final_stats = harness.stop_server()
            fault_log = harness.fault_log
        host, port = None, None

    row = metrics_row(
        scenario, run, rep, traffic,
        stats_before, stats_after, fabric_before, fabric_after,
    )
    run_table.append(row)
    perf = {
        "scenario": {
            **{f: getattr(scenario, f) for f in (
                "name", "arrival", "clients", "duration_s", "store_state",
                "shards", "workers", "fabric", "replicas", "seed",
            )},
            "mix": scenario.mix if isinstance(scenario.mix, str)
            else [list(pair) for pair in scenario.mix],
            "faults": [
                {"kind": f.kind, "at_s": f.at_s, "duration_s": f.duration_s}
                for f in scenario.faults
            ],
        },
        "row": row,
        "latencies_ms": [round(v, 3) for v in traffic.latencies_ms],
        "stats_before": stats_before,
        "stats_after": stats_after,
        "fabric_before": fabric_before,
        "fabric_after": fabric_after,
        "final_stats": final_stats,
        "fault_log": fault_log,
    }
    with open(os.path.join(run_dir, "perf.json"), "w") as handle:
        json.dump(perf, handle, sort_keys=True, indent=2)
    return row


# --------------------------------------------------------------- SLO gates
@dataclass(frozen=True)
class SLOViolation:
    """One breached SLO check (duck-typed ``severity`` so the audit
    module's exit-code gating applies unchanged)."""

    severity: str
    key: str
    row_id: str
    message: str


#: slo.json keys -> (run-table column, direction, severity on breach).
#: "min_*" are floors (value must be >=), "max_*" ceilings (<=).
SLO_CHECKS: Dict[str, Tuple[str, str, str]] = {
    "min_throughput_rps": ("throughput_rps", "min", "error"),
    "max_p50_latency_ms": ("p50_latency_ms", "max", "error"),
    "max_p95_latency_ms": ("p95_latency_ms", "max", "error"),
    "max_p99_latency_ms": ("p99_latency_ms", "max", "error"),
    "max_mean_latency_ms": ("mean_latency_ms", "max", "error"),
    "max_error_rate": ("error_rate", "max", "error"),
    "max_shed_rate": ("shed_rate", "max", "warn"),
    "min_requests": ("requests", "min", "warn"),
    "max_wrong_answers": ("wrong_answers", "max", "critical"),
    "max_quorum_failures": ("quorum_failures", "max", "critical"),
}


def load_slo(path: str) -> Dict[str, float]:
    """Read and validate an slo.json: unknown keys are refused loudly
    (a typo'd gate that silently checks nothing is worse than no gate)."""
    with open(path) as handle:
        slo = json.load(handle)
    if not isinstance(slo, dict):
        raise ValueError("slo.json must be a JSON object")
    unknown = set(slo) - set(SLO_CHECKS)
    if unknown:
        raise ValueError(
            f"unknown SLO key(s) {sorted(unknown)}; known keys: "
            f"{sorted(SLO_CHECKS)}"
        )
    return {key: float(value) for key, value in slo.items()}


def evaluate_slo(rows: Sequence[Dict], slo: Dict[str, float]) -> List[SLOViolation]:
    """Every row is held to every configured check (a soak with one bad
    repetition fails: reps exist to catch flakes, not to average them
    away)."""
    violations: List[SLOViolation] = []
    for row in rows:
        row_id = f"{row['scenario']}#run{row['run']}rep{row['rep']}"
        for key, bound in slo.items():
            column, direction, severity = SLO_CHECKS[key]
            value = float(row[column])
            breached = value < bound if direction == "min" else value > bound
            if breached:
                op = "<" if direction == "min" else ">"
                violations.append(SLOViolation(
                    severity=severity, key=key, row_id=row_id,
                    message=(
                        f"{column}={value:g} {op} {key}={bound:g}"
                    ),
                ))
    return violations


def gate_exit_code(
    violations: Sequence[SLOViolation], fail_on: str = "error"
) -> int:
    """0 clean or below the gate; else the audit-style 1/4/5/6 band."""
    severity_rank(fail_on)  # validate the gate itself, loudly
    if not violations:
        return 0
    worst = max(violations, key=lambda v: severity_rank(v.severity)).severity
    if severity_rank(worst) < severity_rank(fail_on):
        return 0
    return EXIT_BY_SEVERITY[worst]


# --------------------------------------------------------------------- CLI
def cmd_loadgen(argv: Sequence[str]) -> int:
    """``repro loadgen``: run a scenario's reps, emit the run table, gate."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro loadgen",
        description="Load/soak harness: replay a traffic scenario against "
                    "repro serve --port, emit run_table.csv + per-run "
                    "perf JSON, gate on SLO floors.",
    )
    parser.add_argument(
        "--scenario", required=True,
        help=f"named scenario ({', '.join(sorted(SCENARIOS))}) or a "
             f".json spec file (fields = Scenario dataclass)",
    )
    parser.add_argument("--reps", type=int, default=1,
                        help="repetitions of the run (one row each)")
    parser.add_argument("--out", default="loadgen_out",
                        help="output directory: run_table.csv + run dirs")
    parser.add_argument(
        "--connect", default=None,
        help="host:port of an already-running repro serve --port: drive "
             "it instead of orchestrating a topology (no fault injection)",
    )
    parser.add_argument(
        "--gate", default=None,
        help="slo.json path: evaluate SLO floors over this invocation's "
             "rows; exit 0 clean/below --fail-on, else 1/4/5/6 by worst "
             "violation severity (audit-style)",
    )
    parser.add_argument(
        "--fail-on", dest="fail_on", choices=SEVERITIES, default="error",
        help="gate threshold (default: error)",
    )
    parser.add_argument("--duration", type=float, default=None,
                        help="override the scenario's duration_s")
    parser.add_argument("--clients", type=int, default=None,
                        help="override the scenario's client count")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scenario's RNG seed")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="print the rows (and violations) as JSON")
    args = parser.parse_args(argv)

    try:
        slo = load_slo(args.gate) if args.gate else None
        scenario = load_scenario(args.scenario)
        overrides = {}
        if args.duration is not None:
            overrides["duration_s"] = args.duration
        if args.clients is not None:
            overrides["clients"] = args.clients
        if args.seed is not None:
            overrides["seed"] = args.seed
        if overrides:
            scenario = replace(scenario, **overrides)
        connect = None
        if args.connect:
            host, port = args.connect.rsplit(":", 1)
            connect = (host, int(port))
        rows = [
            run_scenario(scenario, args.out, run=0, rep=rep, connect=connect)
            for rep in range(args.reps)
        ]
    except (ValueError, OSError, RuntimeError, ConnectionError) as exc:
        print(f"repro loadgen: {exc}", file=sys.stderr)
        return 2

    violations = evaluate_slo(rows, slo) if slo else []
    if args.as_json:
        print(json.dumps({
            "rows": rows,
            "violations": [vars(v) for v in violations],
        }, sort_keys=True))
    else:
        _print_rows(rows)
        for violation in violations:
            print(f"  SLO {violation.severity}: {violation.row_id}: "
                  f"{violation.message}")
        if slo is not None and not violations:
            print("  SLO gate: clean")
    if slo is not None:
        return gate_exit_code(violations, args.fail_on)
    return 0


def _print_rows(rows: Sequence[Dict], out: Optional[IO[str]] = None) -> None:
    from repro.analysis.reporting import ascii_table

    out = sys.stdout if out is None else out
    headers = [
        "scenario", "rep", "arrival", "clients", "ok", "errors", "sheds",
        "wrong", "rps", "p50ms", "p95ms", "p99ms", "solves", "hits",
        "failovers", "quorum_fail", "steals",
    ]
    table_rows = [
        [
            row["scenario"], row["rep"], row["arrival"], row["clients"],
            row["ok"], row["errors"], row["sheds"], row["wrong_answers"],
            row["throughput_rps"], row["p50_latency_ms"],
            row["p95_latency_ms"], row["p99_latency_ms"], row["solves"],
            row["store_hits"], row["failovers"], row["quorum_failures"],
            row["steals"],
        ]
        for row in rows
    ]
    print(
        ascii_table(headers, table_rows,
                    f"repro loadgen — {len(rows)} run row(s)"),
        file=out,
    )


# ----------------------------------------------------- in-process serving
class InProcessServer:
    """An :class:`AsyncCompileServer` on a background thread's event loop.

    The tests' and benches' serving fixture: no subprocess, no PYTHONPATH
    games — build a :class:`CompileService`, ``start()`` returns the
    bound TCP port, ``stop()`` drains and joins. The loadgen client side
    (:func:`drive`, :func:`server_stats`) talks to it exactly as it
    would to a real ``repro serve --port`` process.
    """

    def __init__(self, service, **server_kwargs) -> None:
        self._service = service
        self._kwargs = server_kwargs
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._port: Optional[int] = None
        self._loop = None
        self._server = None
        self._error: Optional[BaseException] = None

    def start(self) -> int:
        import asyncio

        from repro.service.asyncserve import AsyncCompileServer

        def main() -> None:
            async def amain() -> None:
                self._server = AsyncCompileServer(self._service, **self._kwargs)
                self._loop = asyncio.get_running_loop()
                tcp = await self._server.start_tcp("127.0.0.1", 0)
                self._port = tcp.sockets[0].getsockname()[1]
                self._ready.set()
                async with tcp:
                    await self._server.stopping.wait()
                    await self._server.drain()
                    self._server.hang_up()
                await self._server.close()

            try:
                asyncio.run(amain())
            except BaseException as exc:  # surfaced by start()/stop()
                self._error = exc
                self._ready.set()

        self._thread = threading.Thread(target=main, daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=60) or self._port is None:
            raise RuntimeError(f"in-process server never came up: {self._error}")
        return self._port

    @property
    def port(self) -> int:
        if self._port is None:
            raise RuntimeError("server not started")
        return self._port

    def stop(self, timeout_s: float = 120.0) -> None:
        if self._loop is not None and self._server is not None:
            self._loop.call_soon_threadsafe(self._server.stopping.set)
        if self._thread is not None:
            self._thread.join(timeout=timeout_s)
        if self._error is not None:
            raise self._error
