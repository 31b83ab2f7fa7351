#!/usr/bin/env python3
"""Compare the parent and change runs of a committed ``BENCH_pr<N>.json``.

    python3 benchmarks/benchdiff.py BENCH_pr<N>.json --claim remote-churn:req_p50_ms
    python3 benchmarks/benchdiff.py BENCH_pr<N>.json --fail-on warn
    python3 benchmarks/benchdiff.py BENCH_pr<N>.json --layer grape_iters --layer grape.solves

The file's ``pairs`` hold accbench's result line for the parent and the
change run of each alternating pair. For every workload, seed and
end-to-end metric of ``BENCHMARK.json`` it prints each side's median
[q1, q3] (``statistics.quantiles(method="inclusive")``) and the pairs the
change wins, with a verdict:

* a claimed metric (``--claim workload:metric``) is ``claim met`` when the
  change wins at least 9 of every 10 pairs and the median gap exceeds the
  parent's interquartile range, else ``claim missed`` (error);
* any other metric is ``worse`` (error) when the change median is past the
  metric's bound, and ``unresolved`` (warn) when the parent's IQR exceeds
  the bound and the two sides' [q1, q3] overlap;
* a failed or incorrect run is critical.

The exit code is the auditor's: 0 when the worst verdict is below
``--fail-on`` (default ``error``), else 4/5/6 for warn/error/critical.
``--write`` stores the verdicts in the file as its ``summary``.

``--layer NAME`` (repeatable; a per-layer metric of ``BENCHMARK.json``)
prints the file's traced pair, one run per side, as parent -> change
values. Counts such as ``grape_iters`` or ``grape.solves`` do not depend on
the machine, so they are read back from the file like a claim; they carry
no verdict. ``traced`` is one pair (its command in ``traced_command``) or
a list of pairs, one per traced workload, each with its own ``command``.
"""

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
from repro.service.audit import EXIT_BY_SEVERITY, SEVERITIES, severity_rank  # noqa: E402

SEVERITY_OF = {"ok": None, "claim met": None, "unresolved": "warn",
               "worse": "error", "claim missed": "error"}


def spread(values):
    """Median, quartiles and range of one side's runs."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values)}


def compare(pairs, spec, claimed):
    """One metric over one workload and seed's pairs."""
    side = {s: [p[s]["result"]["metrics"][spec["name"]]["value"] for p in pairs]
            for s in ("parent", "change")}
    sign = 1 if spec["better"] == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(side["parent"], side["change"]))
    parent, change = spread(side["parent"]), spread(side["change"])
    iqr = parent["q3"] - parent["q1"]
    gain = sign * (parent["median"] - change["median"])  # > 0: change better
    limit = spec["bound"] * abs(parent["median"])
    if claimed:
        met = wins * 10 >= 9 * len(pairs) and gain > iqr
        verdict = "claim met" if met else "claim missed"
    elif -gain > limit:
        verdict = "worse"
    elif iqr > limit and change["q1"] <= parent["q3"] and parent["q1"] <= change["q3"]:
        verdict = "unresolved"
    else:
        verdict = "ok"
    pct = 100.0 * (change["median"] / parent["median"] - 1) if parent["median"] else 0.0
    return {"parent": parent, "change": change, "change_wins": wins,
            "median_change_pct": pct, "parent_iqr_pct": 100.0 * iqr / abs(parent["median"] or 1),
            "verdict": verdict}


def number(x):
    return f"{x:.1f}" if abs(x) >= 10 else f"{x:.3g}"


def summarize(bench, metrics, claims):
    """``{"<workload> seed <n>": block}`` in the order the pairs appear."""
    blocks = {}
    for pair in bench["pairs"]:
        blocks.setdefault((pair["workload"], pair["seed"]), []).append(pair)
    summary = {}
    for (workload, seed), pairs in blocks.items():
        runs = [p[s]["result"] for p in pairs for s in ("parent", "change")]
        summary[f"{workload} seed {seed}"] = {
            "workload": workload, "seed": seed, "pairs": len(pairs),
            "failed": {s: sum(p[s]["result"]["failed"] for p in pairs)
                       for s in ("parent", "change")},
            "all_correct": all(r["correct"] for r in runs),
            "metrics": {m["name"]: compare(pairs, m, (workload, m["name"]) in claims)
                        for m in metrics},
        }
    return summary


def report(summary, units):
    for name, block in summary.items():
        failed = block["failed"]
        print(f"{name} ({block['pairs']} pairs): failed {failed['parent']} | "
              f"{failed['change']}, correct {'yes' if block['all_correct'] else 'NO'}")
        for metric, r in block["metrics"].items():
            p, c = r["parent"], r["change"]
            print(f"  {metric:<22} {number(p['median'])} [{number(p['q1'])}, {number(p['q3'])}]"
                  f" -> {number(c['median'])} [{number(c['q1'])}, {number(c['q3'])}] "
                  f"{units[metric]:<6} {r['median_change_pct']:+6.1f}%  "
                  f"wins {r['change_wins']}/{block['pairs']}  {r['verdict']}")


def traced_pairs(bench):
    """The file's traced pairs, each ``{"command", "parent", "change"}``."""
    traced = bench["traced"]
    if isinstance(traced, list):
        return traced
    return [{"command": bench.get("traced_command", "?"), **traced}]


def traced_layers(traced, names):
    """``{name: {"parent": v, "change": v, "unit": u}}`` of one traced pair."""
    return {name: {**{side: traced[side]["result"]["metrics"][name]["value"]
                      for side in ("parent", "change")},
                   "unit": traced["parent"]["result"]["metrics"][name]["unit"]}
            for name in names}


def report_layers(command, layers):
    def value(x):
        return f"{x:.0f}" if float(x).is_integer() else number(x)

    print(f"traced pair: {command}")
    for name, r in layers.items():
        pct = 100.0 * (r["change"] / r["parent"] - 1) if r["parent"] else 0.0
        print(f"  {name:<26} {value(r['parent'])} -> {value(r['change'])} "
              f"{r['unit']:<6} {pct:+6.1f}%")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("bench", help="a BENCH_pr<N>.json with parent/change pairs")
    parser.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    parser.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC")
    parser.add_argument("--layer", action="append", default=[], metavar="NAME",
                        help="print this per-layer metric of the traced pair")
    parser.add_argument("--fail-on", choices=SEVERITIES, default="error")
    parser.add_argument("--write", action="store_true",
                        help="store the verdicts as the bench file's summary")
    args = parser.parse_args(argv)
    benchmark, bench = (json.loads(Path(p).read_text()) for p in (args.benchmark, args.bench))
    metrics = benchmark["end_to_end"]
    workloads, names = {w["name"] for w in benchmark["workloads"]}, {m["name"] for m in metrics}
    claims = {tuple(claim.partition(":")[::2]) for claim in args.claim}
    for workload, metric in claims:
        if workload not in workloads or metric not in names:
            parser.error(f"--claim {workload}:{metric} names no workload:end-to-end metric")
    unknown = set(args.layer) - {m["name"] for m in benchmark["per_layer"]}
    if unknown or (args.layer and "traced" not in bench):
        parser.error(f"--layer needs a traced pair and per-layer metrics; "
                     f"unknown: {sorted(unknown)}")
    summary = summarize(bench, metrics, claims)
    report(summary, {m["name"]: m["unit"] for m in metrics})
    if args.layer:
        for traced in traced_pairs(bench):
            report_layers(traced["command"], traced_layers(traced, args.layer))
    found = [SEVERITY_OF[r["verdict"]] for b in summary.values() for r in b["metrics"].values()]
    found += ["critical" for b in summary.values()
              if any(b["failed"].values()) or not b["all_correct"]]
    if {w for w, _ in claims} - {b["workload"] for b in summary.values()}:
        found.append("error")
        print("a --claim names a workload with no pairs")
    worst = max(filter(None, found), key=severity_rank, default=None)
    print(f"worst: {worst or 'none'}")
    if args.write:
        bench["summary"] = {"claims": sorted(map(":".join, claims)),
                            "worst": worst, **summary}
        Path(args.bench).write_text(json.dumps(bench, indent=1) + "\n")
    if worst is None or severity_rank(worst) < severity_rank(args.fail_on):
        return 0
    return EXIT_BY_SEVERITY[worst]


if __name__ == "__main__":
    sys.exit(main())
