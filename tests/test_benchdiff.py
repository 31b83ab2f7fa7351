"""``benchmarks/benchdiff.py`` reads a committed claim back from its pairs."""

import importlib.util
import json
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "BENCH_pr18.json")
TRACED = os.path.join(ROOT, "BENCH_pr19.json")
CLAIM = ["--claim", "remote-churn:req_p50_ms"]


@pytest.fixture(scope="module")
def benchdiff():
    spec = importlib.util.spec_from_file_location(
        "benchdiff", os.path.join(ROOT, "benchmarks", "benchdiff.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _block(out, name):
    """The lines of one workload-and-seed block of the report."""
    lines = out.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(name + " "))
    end = next(
        (i for i in range(start + 1, len(lines)) if not lines[i].startswith("  ")),
        len(lines),
    )
    return lines[start:end]


def test_committed_claim_is_met(benchdiff, capsys):
    assert benchdiff.main([BENCH] + CLAIM) == 0
    out = capsys.readouterr().out
    (line,) = [l for l in _block(out, "remote-churn seed 1") if "req_p50_ms" in l]
    assert re.search(r"111\.8 \[[\d., ]+\] -> 37\.9 \[[\d., ]+\] ms .* wins 10/10\s+claim met", line)


def test_unresolved_metric_is_a_warning(benchdiff, capsys):
    assert benchdiff.main([BENCH] + CLAIM + ["--fail-on", "warn"]) == 4
    (line,) = [
        l for l in _block(capsys.readouterr().out, "cold-grape seed 1")
        if l.split()[0] == "setup_s"
    ]
    assert line.endswith("unresolved")


def test_incorrect_run_is_critical(benchdiff, tmp_path, capsys):
    with open(BENCH) as handle:
        bench = json.load(handle)
    bench["pairs"][0]["change"]["result"]["correct"] = False
    broken = tmp_path / "BENCH_broken.json"
    broken.write_text(json.dumps(bench))
    assert benchdiff.main([str(broken)] + CLAIM) == 6
    assert "correct NO" in capsys.readouterr().out


def test_layer_prints_the_traced_pair(benchdiff, capsys):
    layers = ["--layer", "grape_iters", "--layer", "remote.rpcs", "--layer", "latency.s"]
    assert benchdiff.main([TRACED] + CLAIM + layers) == 0
    lines = capsys.readouterr().out.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("traced pair:"))
    assert "--workload remote-churn --seed 1" in lines[start]
    rows = {line.split()[0]: line for line in lines[start + 1:start + 4]}
    assert re.search(r"72960 -> 72960 count\s+\+0\.0%", rows["grape_iters"])
    assert re.search(r"294 -> 294 count", rows["remote.rpcs"])
    assert re.search(r"0\.242 -> 0\.0234 s\s+-90\.3%", rows["latency.s"])


def test_layer_prints_every_traced_pair(benchdiff, tmp_path, capsys):
    """``traced`` may list one pair per workload, each with its command."""
    with open(TRACED) as handle:
        bench = json.load(handle)
    with open(os.path.join(ROOT, "BENCH_pr20.json")) as handle:
        cold = json.load(handle)
    bench["traced"] = [
        {"command": bench.pop("traced_command"), **bench["traced"]},
        {"command": cold["traced_command"], **cold["traced"]},
    ]
    listed = tmp_path / "BENCH_listed.json"
    listed.write_text(json.dumps(bench))
    assert benchdiff.main([str(listed)] + CLAIM + ["--layer", "grape_iters"]) == 0
    lines = capsys.readouterr().out.splitlines()
    starts = [i for i, line in enumerate(lines) if line.startswith("traced pair:")]
    assert [lines[i].split()[5] for i in starts] == ["remote-churn", "cold-grape"]
    assert re.search(r"72960 -> 72960 count", lines[starts[0] + 1])
    assert re.search(r"17763 -> 12123 count", lines[starts[1] + 1])


def test_layer_must_name_a_per_layer_metric(benchdiff):
    with pytest.raises(SystemExit) as exc:
        benchdiff.main([TRACED, "--layer", "req_p50_ms"])
    assert exc.value.code == 2
