"""Command-line entry point: regenerate any paper experiment.

Usage::

    python -m repro list                    # available experiments
    python -m repro fig15                   # run one experiment
    python -m repro fig8 --mode grape       # real-optimizer variants
    python -m repro all                     # the full evaluation section
    python -m repro perf                    # hot-path timings + breakdown
    python -m repro perf --json             # same, machine-readable
    python -m repro batch qft_16 ex2 --store /tmp/pulses   # batch service
    python -m repro serve --store /tmp/pulses              # stdin/stdout
    python -m repro serve --store /tmp/pulses --port 0     # TCP listener
    python -m repro store stats --store /tmp/pulses        # store admin
    python -m repro store reshard --store /tmp/pulses --shards 4
    python -m repro store serve --root /tmp/pulses --port 7777  # store server
    python -m repro serve --store remote://db:7777 --workers remote --port 0
    python -m repro serve --store /tmp/pulses --workers remote --port 0 \\
        --parts-per-worker 2 --max-queue 64
    python -m repro worker --connect solver:7778 --stats  # fabric occupancy
    python -m repro serve --store "remote://db1:7777|db2:7777"  # 2 replicas
    python -m repro batch qft_16 --store "remote://db1:7777|db2:7777?w=majority"
    python -m repro store serve --root /data/ra --port 7401 \\
        --anti-entropy-interval 5 --peers db2:7401  # self-healing replica
    python -m repro store stats --store "remote://db1:7777|db2:7777" --json
    python -m repro store repair --store "remote://db1:7777|db2:7777"
    python -m repro store audit --store "remote://db1:7777|db2:7777" --json
    python -m repro store audit --store /tmp/pulses --fail-on warn
    python -m repro store audit --store /tmp/pulses --fabric solver:7778
    python -m repro dashboard --store "remote://db1:7777|db2:7777"  # live page
    python -m repro dashboard --store /tmp/x --fabric solver:7778  # + workers
    python -m repro worker --connect solver:7778           # remote solver
    python -m repro loadgen --scenario smoke --reps 2 --out /tmp/lg  # run table
    python -m repro loadgen --scenario smoke-replica-kill \\
        --gate slo/loadgen-smoke.json --fail-on error      # SLO-gated chaos run
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict

from repro.analysis import (
    fig5_crosstalk_error,
    fig7_coverage,
    fig8_similarity_iteration_reduction,
    fig11_crosstalk_mapping,
    fig12_latency_policies,
    fig13_per_program_iteration_reduction,
    fig14_group_growth,
    fig15_accqoc_vs_brute,
    sec2e_numbers,
    table1_policies,
    table2_instruction_mixes,
)
from repro.analysis.reporting import ascii_table

EXPERIMENTS: Dict[str, Callable] = {
    "table1": table1_policies,
    "table2": table2_instruction_mixes,
    "fig5": fig5_crosstalk_error,
    "fig7": fig7_coverage,
    "fig8": fig8_similarity_iteration_reduction,
    "fig11": fig11_crosstalk_mapping,
    "fig12": fig12_latency_policies,
    "fig13": fig13_per_program_iteration_reduction,
    "fig14": fig14_group_growth,
    "fig15": fig15_accqoc_vs_brute,
    "sec2e": sec2e_numbers,
}

_MODE_AWARE = {"fig8", "fig13"}


def _run(name: str, mode: str) -> None:
    driver = EXPERIMENTS[name]
    result = driver(mode=mode) if name in _MODE_AWARE else driver()
    print(ascii_table(result.headers, result.rows(), result.name))
    for key, value in result.summary.items():
        print(f"  {key}: {value:.4g}")
    print()


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # Service subcommands parse their own flags (repro serve/batch --store ...).
    if argv and argv[0] in (
        "serve", "batch", "store", "worker", "dashboard", "loadgen"
    ):
        if argv[0] == "loadgen":
            from repro.service.loadgen import cmd_loadgen

            return cmd_loadgen(argv[1:])
        from repro.service.frontdoor import (
            cmd_batch,
            cmd_dashboard,
            cmd_serve,
            cmd_store,
            cmd_worker,
        )

        handler = {
            "serve": cmd_serve,
            "batch": cmd_batch,
            "store": cmd_store,
            "worker": cmd_worker,
            "dashboard": cmd_dashboard,
        }[argv[0]]
        return handler(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AccQOC reproduction: regenerate paper tables/figures.",
    )
    parser.add_argument(
        "experiment",
        help="experiment id (see 'list'), or 'all', 'list', 'perf', "
             "'serve', 'batch', 'store', 'worker', 'dashboard', 'loadgen'",
    )
    parser.add_argument(
        "--mode",
        choices=("model", "grape"),
        default="model",
        help="engine for iteration-count experiments (fig8/fig13)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="machine-readable output (perf only)",
    )
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for name in EXPERIMENTS:
            print(name)
        print("perf")
        print("serve")
        print("batch")
        print("store")
        print("worker")
        print("dashboard")
        print("loadgen")
        return 0
    if args.experiment == "perf":
        from repro.perf.hotpaths import run_perf

        print(run_perf(as_json=args.json))
        return 0
    if args.experiment == "all":
        for name in EXPERIMENTS:
            _run(name, args.mode)
        return 0
    if args.experiment not in EXPERIMENTS:
        parser.error(
            f"unknown experiment {args.experiment!r}; try 'list'"
        )
    _run(args.experiment, args.mode)
    return 0


if __name__ == "__main__":
    sys.exit(main())
