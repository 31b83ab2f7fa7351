#!/usr/bin/env python3
"""AccQOC service benchmark: one workload per invocation.

    python3 accbench/run.py --workload remote-churn --seed 1 --seconds 45 --trace 0

Sets the system up (timed as ``setup_s``), replays the workload's seeded
request sequence from closed-loop clients against the in-process async
front door, checks every answer, and prints a metric table followed by one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 1`` the run measures the workload twice on half the budget each,
untraced then traced, and reports per-layer metrics plus the tracing
overhead. See README.md.
"""

from __future__ import annotations

import os
import sys

#: BLAS threads for this process only (the repository's code sets none).
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from accbench import checks, inputs, trace  # noqa: E402
from accbench.client import Tally, closed_loop, percentile, samples_beyond, tail_is_reportable  # noqa: E402
from accbench.rigs import RIGS  # noqa: E402

WORKLOADS = tuple(RIGS)
#: One closed-loop client: the front door's work runs under one GIL, so a
#: second client's latency would include a random share of the first one's
#: request, and the tail would move with that overlap.
CLIENTS = 1
#: ``setup_s`` is the median of several set-ups: at least SETUP_MIN, more
#: while they have taken less than SETUP_BUDGET_S in all (a sub-millisecond
#: set-up needs many samples to be steady), at most SETUP_MAX.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 25, 0.5
OUT_DIR = os.path.join(ROOT, ".bench_out")
EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")

END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "req/s",
    "req_p50_ms": "ms",
    "req_p95_ms": "ms",
    "latency_reduction_geo": "x",
    "cpu_ms_per_req": "ms",
    "peak_rss_mb": "MB",
}


@dataclass
class Window:
    """One measured pass: the replies and what the pass cost."""

    tally: Tally
    wall0: float  # perf_counter at the first request
    cpu0: float  # process CPU seconds at the first request
    wall_s: float
    cpu_s: float
    stats: Dict[str, float]
    problems: List[str] = field(default_factory=list)

    def timeline(self) -> List[tuple]:
        """(index, latency_s, reply at s, CPU s spent by then) per request."""
        return [
            (r.index, r.latency_s, r.done_at - self.wall0, r.cpu_at - self.cpu0)
            for r in self.tally.replies
        ]


@dataclass
class Measurement:
    setups: List[float] = field(default_factory=list)
    windows: List[Window] = field(default_factory=list)

    @property
    def tallies(self) -> List[Tally]:
        return [w.tally for w in self.windows]

    @property
    def attempted(self) -> int:
        return sum(t.attempted for t in self.tallies)

    @property
    def failed(self) -> int:
        return sum(t.failed for t in self.tallies)

    @property
    def problems(self) -> List[str]:
        return [p for w in self.windows for p in w.problems]


# ------------------------------------------------------------------- checks
def _check(workload: str, rig, tally: Tally, expected: Dict) -> List[str]:
    if workload == "cold-grape":
        problems = checks.check_expected(tally, expected["grape"], checks.GRAPE_FIELDS)
        run = rig.service.engine.run
        bad = checks.failing_pulses(
            rig.service.store.snapshot().entries(), rig.service.engine.physics, run.target_infidelity
        )
        if bad:
            from repro.service.protocol import resolve_program

            def keys_of(request):
                _, groups = rig.service.pipeline.groups_of(resolve_program(request.program))
                return {g.key() for g in groups}

            problems += checks.mark_physics_failures(tally, set(bad), keys_of)
    else:
        problems = checks.check_expected(tally, expected["model"], checks.MODEL_FIELDS)
    return problems + checks.check_census(tally)


# -------------------------------------------------------------- measuring
def measure(workload: str, passes, workdir: str, expected: Dict, tracer=None) -> Measurement:
    """Set up once per pass, plus spare set-ups for a steady ``setup_s``,
    and replay each pass; tracing, when on, covers only the replay."""
    result = Measurement()
    build = RIGS[workload]
    while len(result.setups) < SETUP_MAX - len(passes) and (
        len(result.setups) + len(passes) < SETUP_MIN or sum(result.setups) < SETUP_BUDGET_S
    ):
        rig = build(os.path.join(workdir, f"spare{len(result.setups)}"))
        result.setups.append(rig.setup_s)
        rig.close()
    for i, requests in enumerate(passes):
        rig = build(os.path.join(workdir, f"pass{i}"))
        try:
            result.setups.append(rig.setup_s)
            before = rig.stats()
            patches = trace.install(tracer, type(rig.service.store)) if tracer else None
            try:
                cpu0, wall0 = time.process_time(), time.perf_counter()
                tally = closed_loop(rig.port, requests, CLIENTS)
                wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            finally:
                if patches:
                    patches.restore()
            stats = rig.stats()
            for name in ("hits", "misses"):
                stats[name] -= before[name]
            window = Window(tally, wall0, cpu0, wall, cpu, stats)
            window.problems = _check(workload, rig, tally, expected)
            result.windows.append(window)
        finally:
            rig.close()
    return result


def _answered(m: Measurement):
    return [r for t in m.tallies for r in t.answered()]


def end_to_end(m: Measurement) -> Dict[str, float]:
    answered = _answered(m)
    wall = sum(w.wall_s for w in m.windows)
    cpu = sum(w.cpu_s for w in m.windows)
    latencies = [r.latency_s * 1e3 for r in answered]
    ratios = [
        r.payload["gate_based_latency_ns"] / r.payload["overall_latency_ns"]
        for r in answered if r.payload.get("overall_latency_ns", 0) > 0
    ]
    n = max(1, len(answered))
    return {
        "setup_s": statistics.median(m.setups),
        "throughput_rps": len(answered) / wall if wall else 0.0,
        "req_p50_ms": percentile(latencies, 50) if latencies else 0.0,
        "req_p95_ms": percentile(latencies, 95) if latencies else 0.0,
        "latency_reduction_geo": math.exp(sum(map(math.log, ratios)) / len(ratios)) if ratios else 0.0,
        "cpu_ms_per_req": cpu * 1e3 / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_level(m: Measurement) -> Dict[str, float]:
    """End-to-end figures that are zero on some workload."""
    wall = sum(w.wall_s for w in m.windows)
    compiled = 0
    for tally in m.tallies:
        # compiled_groups is per batch: count each batch once.
        per_batch = {r.payload.get("batch"): r.payload.get("compiled_groups", 0) for r in tally.answered()}
        compiled += sum(per_batch.values())
    return {
        "pulses_per_s": compiled / wall if wall else 0.0,
        "grape_iters": sum(r.payload.get("compile_iterations", 0) for r in _answered(m)),
        "failed_frac": m.failed / m.attempted if m.attempted else 0.0,
    }


# ------------------------------------------------------------ fingerprint
def _git_sha() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def fingerprint() -> Dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
    }


# ------------------------------------------------------------------ main
def _table(title: str, rows: Dict[str, float], units: Dict[str, str]) -> None:
    print(title)
    for name, value in rows.items():
        print(f"  {name:<32} {value:>14.6g} {units.get(name, '')}")


def traced_metrics(plain: Measurement, traced: Measurement, tracer: trace.Tracer) -> Dict[str, float]:
    """Per-layer figures of the traced pass, the run-level figures of the
    untraced one, and what tracing cost."""
    counters = {
        name: sum(w.stats.get(name, 0) for w in traced.windows)
        for name in ("hits", "misses", "reassigned", "local_fallback")
    }
    counters["entries_end"] = traced.windows[-1].stats["entries_end"]
    metrics = trace.layer_metrics(tracer.spans, traced.tallies, counters)
    metrics.update(run_level(plain))
    base, cost = end_to_end(plain), end_to_end(traced)
    metrics["trace.overhead_wall_pct"] = (base["throughput_rps"] / cost["throughput_rps"] - 1) * 100
    metrics["trace.overhead_cpu_pct"] = (cost["cpu_ms_per_req"] / base["cpu_ms_per_req"] - 1) * 100
    metrics["trace.span_coverage"] = trace.span_coverage(tracer.spans, traced.tallies)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(EXPECTED) as handle:
        expected = json.load(handle)
    # A traced run measures twice, untraced then traced: each gets half
    # the budget, so it takes as long as an untraced run.
    passes = inputs.passes_for(args.workload, args.seed, args.seconds // (1 + args.trace))
    digests = inputs.check_digests(passes, args.seed, expected["digests"])
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    runs: List[Measurement] = []
    tracer = trace.Tracer() if args.trace else None
    try:
        runs.append(measure(args.workload, passes, os.path.join(workdir, "plain"), expected))
        if tracer:
            runs.append(measure(args.workload, passes, os.path.join(workdir, "traced"), expected, tracer))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    plain = runs[0]

    e2e, extra = end_to_end(plain), run_level(plain)
    catalog = {name: spec[0] for name, spec in trace.per_layer_catalog().items()}
    n = len(_answered(plain))
    print(f"accbench {args.workload}: seed {args.seed}, {n} answered of {plain.attempted}, "
          f"{samples_beyond(n, 95)} samples beyond p95"
          + ("" if tail_is_reportable(n, 95) else " (fewer than 10: p95 is the slowest requests)"))
    _table("end-to-end", {**e2e, **extra}, {**END_TO_END, **catalog})
    problems = [p for m in runs for p in m.problems]
    for problem in problems[:20]:
        print(f"  CHECK FAILED: {problem}")
    report = {
        "fingerprint": fingerprint(),
        "digests": digests,
        "end_to_end": e2e,
        "run_level": extra,
        "outcomes": [t.counts() for m in runs for t in m.tallies],
        "timelines": [w.timeline() for w in plain.windows],
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        metrics, units = traced_metrics(plain, runs[1], tracer), catalog
        _table("per-layer (traced run)", metrics, units)
        report["per_layer"] = metrics
        with open(os.path.join(OUT_DIR, f"spans-{tag}.json"), "w") as handle:
            json.dump(trace.span_records(tracer.spans), handle)
    else:
        metrics, units = e2e, END_TO_END
    print("fingerprint " + json.dumps(report["fingerprint"], sort_keys=True))
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)

    failed = sum(m.failed for m in runs)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": sum(m.attempted for m in runs),
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
