"""Parallel compilation via the batch service planner (paper Sec V-D).

The MST's "soft" dependencies let any group train from the identity instead
of its parent, so the tree can be cut into balanced connected parts — one
per worker. The weight model (cold iterations at the roots, warm-ratio-
scaled iterations along tree edges) and the min-max tree cut now live in the
library (`repro.core.partition`, `repro.service.planner`); this example just
drives them, then actually executes the 4-worker plan. This example's
engine is the model engine, and a model-engine batch always runs in the
calling thread; with a GrapeEngine the same call fans the tasks out over a
pool of 4 worker processes.

Run:  python examples/parallel_workers.py
"""

from repro import AccQOC, PipelineConfig, build_named
from repro.core.cache import PulseLibrary
from repro.service import CompilePlanner, WorkerPoolExecutor


def main() -> None:
    acc = AccQOC(PipelineConfig(policy_name="map2b4l"))

    # No pre-compiled library here: plan the *whole* unique-group set of a
    # large program, the worst case for dynamic compilation.
    program = build_named("qft_16")
    planner = CompilePlanner(acc)
    empty = PulseLibrary()
    whole = planner.plan([program])

    print(f"{'workers':>8} | {'bottleneck':>10} | {'modelled speedup':>16}")
    print("-" * 42)
    for k in (1, 2, 4, 8):
        plan = planner.cut(whole, whole.uncovered, k)
        print(
            f"{k:8d} | {plan.bottleneck:10.1f} | "
            f"{plan.modelled_speedup:15.2f}x"
        )

    plan = planner.cut(whole, whole.uncovered, 4)
    print(
        f"\nprogram {program.name}: "
        f"{sum(len(groups) for groups in plan.groups_per_program)} groups, "
        f"{plan.batch.merged.n_unique} unique, "
        f"{len(plan.uncovered)} to compile "
        f"({len(plan.trivial)} virtual-diagonal are free)"
    )
    print(
        "4-worker assignment (group counts per worker):",
        [len(p.indices) for p in plan.worker_plans],
    )
    print(
        "part weights (modelled iterations):",
        [round(p.weight, 1) for p in plan.worker_plans],
    )

    # Execute the plan for real; part k's solve time lands in the perf
    # counters as execute.worker<k>.*, whichever process ran it.
    from repro.perf.instrument import PerfRecorder

    perf = PerfRecorder()
    with WorkerPoolExecutor(
        acc.engine, backend="process", n_workers=4, perf=perf
    ) as executor:
        records = executor.run(plan, empty)
    print(
        f"\nexecuted the 4-part plan (model engine, in the calling thread): "
        f"{len(records)} groups, "
        f"{sum(r.iterations for r in records)} modelled iterations"
    )
    print(perf.report("qft_16 / 4 parts, model engine inline").format_table())


if __name__ == "__main__":
    main()
