"""Batched multi-pulse GRAPE vs the serial part loop (table printed under -s).

One worker, one part of K same-solve-class groups, compiled twice: the
serial bit-identity oracle (``run_part`` default) vs the opt-in batched
engine (``RunConfig.batched_grape``), at K = 1/4/8/16 per dimension class.

* 1q class ``(2, 10)``: sixteen distinct axis-varied ``u3(2.8, phi, -phi)``
  rotations. All land in one estimator bucket, difficulty is uniform, so
  the kernel stream keeps its width — this is the class where the batched
  kernel's per-call amortization (closed-form 2x2 eigh, one tensordot,
  one blocked scan) pays the most. The K = 16 point is the acceptance
  gate: >= 2x over the serial loop on the same machine.
* 2q class ``(4, 44)``: cx-sandwich groups with random locals (the
  estimator's constant local term puts every cx-bearing 2q group in one
  class). Larger matrices mean LAPACK is already amortized serially and
  per-solve iteration spread narrows the stream early, so gains are
  modest — the row documents *when serial wins*, it is not asserted
  above break-even.

Correctness gates on every row: identical per-group latencies and
convergence flags between the two engines (the 1e-9 kernel-agreement
contract surfacing at part level).

Run:  pytest benchmarks/bench_grape_batched.py --benchmark-only -s
"""

import time

import numpy as np
from conftest import run_once

from repro.circuits.gates import Gate
from repro.core.engines import GrapeEngine
from repro.grouping.group import GateGroup
from repro.service.executor import GroupTask, run_part, seed_tag_for
from repro.utils.config import PhysicsConfig, RunConfig


def _part_1q(n_groups: int, seed: int = 11):
    """K distinct single-qubit rotations sharing solve class (2, 10)."""
    rng = np.random.default_rng(seed)
    tasks = []
    for _ in range(n_groups):
        phi = float(rng.uniform(0, 2 * np.pi))
        group = GateGroup([Gate("u3", (0,), (2.8, phi, -phi))])
        tasks.append(GroupTask(group=group, seed_tag=seed_tag_for(group)))
    return tasks


def _part_2q(n_groups: int, seed: int = 11):
    """K distinct cx-sandwich groups sharing solve class (4, 44)."""
    rng = np.random.default_rng(seed)
    tasks = []
    for _ in range(n_groups):
        th = [float(x) for x in rng.uniform(0.3, 2.8, 4)]
        ph = [float(x) for x in rng.uniform(0, 2 * np.pi, 4)]
        group = GateGroup(
            [
                Gate("u3", (0,), (th[0], ph[0], -ph[0])),
                Gate("u3", (1,), (th[1], ph[1], -ph[1])),
                Gate("cx", (0, 1)),
                Gate("u3", (0,), (th[2], ph[2], -ph[2])),
                Gate("u3", (1,), (th[3], ph[3], -ph[3])),
            ]
        )
        tasks.append(GroupTask(group=group, seed_tag=seed_tag_for(group)))
    return tasks


def _measure(tasks, reps: int):
    """Best-of-``reps`` serial and batched walls for one part, plus parity."""
    physics = PhysicsConfig()
    run = RunConfig().fast()
    serial_wall = batched_wall = float("inf")
    serial_out = batched_out = None
    for _ in range(reps):
        t0 = time.perf_counter()
        serial_out = run_part(GrapeEngine(physics, run), 0, tasks)
        serial_wall = min(serial_wall, time.perf_counter() - t0)
        t0 = time.perf_counter()
        batched_out = run_part(GrapeEngine(physics, run.batched()), 0, tasks)
        batched_wall = min(batched_wall, time.perf_counter() - t0)
    for mine, oracle in zip(batched_out.records, serial_out.records):
        assert mine.latency == oracle.latency
        assert mine.converged == oracle.converged
    counters = batched_out.perf_counters
    rounds = counters.get("grape.batched.rounds", 0)
    mean_width = counters.get("grape.batched.batch_width", 0) / max(rounds, 1)
    return serial_wall, batched_wall, mean_width


def _class_of(tasks):
    engine = GrapeEngine(PhysicsConfig(), RunConfig().fast())
    (solve_class,) = {engine.solve_class(t.group) for t in tasks}
    return solve_class


def _print_header(solve_class):
    print(f"\nsolve class {solve_class}")
    print(f"{'K':>4} | {'serial ms':>10} | {'batched ms':>10} | "
          f"{'speedup':>8} | {'mean width':>10}")
    print("-" * 56)


def test_batched_grape_1q_class(benchmark):
    """1q class: the >= 2x acceptance point at K = 16."""
    solve_class = _class_of(_part_1q(16))
    assert solve_class[0] == 2
    _print_header(solve_class)
    speedups = {}
    for n_groups in (1, 4, 8, 16):
        tasks = _part_1q(n_groups)
        if n_groups == 16:  # the acceptance point carries the benchmark slot
            serial_wall, batched_wall, width = run_once(
                benchmark, _measure, tasks, 5
            )
        else:
            serial_wall, batched_wall, width = _measure(tasks, 5)
        speedups[n_groups] = serial_wall / batched_wall
        print(f"{n_groups:4d} | {serial_wall * 1e3:10.1f} | "
              f"{batched_wall * 1e3:10.1f} | {speedups[n_groups]:7.2f}x | "
              f"{width:10.1f}")
    # K = 1 stays serial inside run_part (singleton bucket): near-parity.
    assert speedups[1] > 0.8
    # The acceptance gate: a K >= 8 same-dimension part, >= 2x end to end.
    # Asserted in measured mode only — quick mode (--benchmark-disable,
    # the CI benches job) still runs everything and checks parity, but
    # shared runners are too noisy to gate a wall-clock ratio on.
    if not benchmark.disabled:
        assert speedups[16] >= 2.0, (
            f"batched engine {speedups[16]:.2f}x at K=16, acceptance needs 2x"
        )
    else:
        assert speedups[16] > 1.2, speedups


def test_batched_grape_2q_class(benchmark):
    """2q class: modest gains by design — asserted at break-even only."""
    solve_class = _class_of(_part_2q(8))
    assert solve_class[0] == 4
    _print_header(solve_class)
    speedups = {}
    for n_groups in (1, 4, 8, 16):
        tasks = _part_2q(n_groups)
        if n_groups == 8:
            serial_wall, batched_wall, width = run_once(
                benchmark, _measure, tasks, 1
            )
        else:
            serial_wall, batched_wall, width = _measure(tasks, 1)
        speedups[n_groups] = serial_wall / batched_wall
        print(f"{n_groups:4d} | {serial_wall * 1e3:10.1f} | "
              f"{batched_wall * 1e3:10.1f} | {speedups[n_groups]:7.2f}x | "
              f"{width:10.1f}")
    # Iteration spread narrows the stream early at d=4; the contract here
    # is "never pathologically slower", the speedup story lives at d=2.
    assert speedups[8] > 0.85
    assert speedups[16] > 0.85
