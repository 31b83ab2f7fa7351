"""Loadgen internals: percentiles, arrival determinism, spec validation,
SLO gate exit codes, the run-table writer, and a miniature end-to-end run
against an in-process async server (2 clients, request-budgeted)."""

import json
import os
import random
import signal
import subprocess
import sys
import textwrap
import time

import pytest

import repro
from repro.service.loadgen import (
    RUN_TABLE_COLUMNS,
    SCENARIOS,
    FaultSpec,
    InProcessServer,
    RunTable,
    Scenario,
    SLOViolation,
    TrafficResult,
    drive,
    evaluate_slo,
    gate_exit_code,
    load_scenario,
    load_slo,
    metrics_row,
    percentile,
    poisson_arrivals,
    run_scenario,
    scenario_from_spec,
    server_stats,
)
from repro.service.service import CompileService
from repro.service.store import PulseStore
from repro.utils.config import PipelineConfig


# ------------------------------------------------------------- percentiles
def test_percentile_known_distribution():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 100.0
    assert percentile(values, 50) == pytest.approx(50.5)
    # numpy's linear interpolation: rank 0.95 * 99 = 94.05 -> 95 + 0.05
    assert percentile(values, 95) == pytest.approx(95.05)
    assert percentile(values, 99) == pytest.approx(99.01)


def test_percentile_interpolates_between_points():
    assert percentile([10.0, 20.0], 50) == pytest.approx(15.0)
    assert percentile([10.0, 20.0, 30.0, 40.0], 25) == pytest.approx(17.5)


def test_percentile_order_independent_and_single_value():
    assert percentile([5.0, 1.0, 3.0], 50) == 3.0
    assert percentile([42.0], 95) == 42.0


def test_percentile_refuses_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)
    with pytest.raises(ValueError):
        percentile([1.0], -1)


# ---------------------------------------------------------------- arrivals
def test_poisson_arrivals_deterministic_under_seed():
    a = poisson_arrivals(5.0, 20.0, random.Random(1234))
    b = poisson_arrivals(5.0, 20.0, random.Random(1234))
    assert a == b
    assert a != poisson_arrivals(5.0, 20.0, random.Random(4321))


def test_poisson_arrivals_rate_and_bounds():
    offsets = poisson_arrivals(50.0, 30.0, random.Random(7))
    assert all(0.0 <= t < 30.0 for t in offsets)
    assert offsets == sorted(offsets)
    # ~1500 expected; a 5-sigma band still catches a broken rate.
    assert 1100 < len(offsets) < 1900


def test_poisson_arrivals_refuses_bad_rate():
    with pytest.raises(ValueError):
        poisson_arrivals(0.0, 10.0, random.Random(1))


def test_client_draws_replay_across_interpreters():
    """One seed draws the same programs and Poisson offsets for a client in
    every interpreter, whatever its ``PYTHONHASHSEED``: a run replays.

    The closed and open clients run against a stand-in connection that
    answers every request at once and records the program asked for.
    """
    script = textwrap.dedent(
        """
        import json, queue
        from repro.service import loadgen

        picks, offsets = [], []

        class Connection:
            def __init__(self):
                self.replies = queue.Queue()
            def makefile(self, mode):
                return self
            def __enter__(self):
                return self
            def __exit__(self, *exc):
                return False
            def write(self, line):
                request = json.loads(line)
                picks.append(request["name"])
                reply = {"id": request["id"], "ok": True}
                self.replies.put(json.dumps(reply).encode() + b"\\n")
            def flush(self):
                pass
            def readline(self):
                try:
                    return self.replies.get(timeout=0.2)
                except queue.Empty:
                    return b""

        def recorded_arrivals(*args):
            offsets.extend(arrivals(*args))
            return list(offsets)

        arrivals = loadgen.poisson_arrivals
        loadgen.poisson_arrivals = recorded_arrivals
        loadgen._connect = lambda *args, **kwargs: Connection()
        scenario = loadgen.Scenario(
            name="replay", arrival="poisson", rate_rps=20.0, duration_s=1.0
        )
        loadgen._closed_client(
            "", 0, scenario, 0, float("inf"), 6, loadgen._Recorder()
        )
        # measure_start 0: every arrival is already due, so nothing sleeps
        loadgen._open_client("", 0, scenario, 0, 0.0, loadgen._Recorder())
        print(json.dumps([picks, offsets]))
        """
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    children = [
        subprocess.Popen(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for hash_seed in ("1", "2")
    ]
    outputs = []
    for child in children:
        out, err = child.communicate(timeout=60)
        assert child.returncode == 0, err
        outputs.append(json.loads(out))
    assert outputs[0] == outputs[1]
    picks, offsets = outputs[0]
    assert len(picks) == 6 + len(offsets) and offsets


# ------------------------------------------------------------- scenario spec
def test_scenario_spec_round_trip():
    scenario = scenario_from_spec({
        "name": "t", "mix": "qft-small", "arrival": "poisson",
        "clients": 3, "rate_rps": 5.0, "duration_s": 2.0,
    })
    assert scenario.clients == 3
    names, weights = scenario.programs_and_weights()
    assert "qft_4" in names and all(w > 0 for w in weights)


def test_scenario_spec_refuses_unknown_field_and_bad_values():
    with pytest.raises(ValueError, match="unknown scenario field"):
        scenario_from_spec({"name": "t", "velocity": 9})
    with pytest.raises(ValueError, match="unknown traffic mix"):
        scenario_from_spec({"name": "t", "mix": "not-a-mix"})
    with pytest.raises(ValueError, match="unknown arrival"):
        scenario_from_spec({"name": "t", "arrival": "uniformish"})
    with pytest.raises(ValueError, match="store_state"):
        scenario_from_spec({"name": "t", "store_state": "lukewarm"})
    with pytest.raises(ValueError):  # ProtocolError is a ValueError
        scenario_from_spec({"name": "t", "mix": [["qft_999", 1.0]]})
    with pytest.raises(ValueError, match="weights"):
        scenario_from_spec({"name": "t", "mix": [["qft_4", 0.0]]})


def test_scenario_fault_preconditions():
    with pytest.raises(ValueError, match="replicas"):
        Scenario(name="t", faults=(FaultSpec("kill_replica", at_s=1.0),))
    with pytest.raises(ValueError, match="fabric"):
        Scenario(
            name="t", faults=(FaultSpec("churn_worker", at_s=1.0),)
        )
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultSpec("unplug_rack", at_s=1.0)


def test_named_scenarios_all_valid_and_loadable(tmp_path):
    for name in SCENARIOS:
        assert load_scenario(name).name == name
    spec = tmp_path / "custom.json"
    spec.write_text(json.dumps({
        "name": "custom", "mix": [["qft_4", 1.0]], "duration_s": 1.0,
    }))
    assert load_scenario(str(spec)).name == "custom"
    with pytest.raises(ValueError, match="unknown scenario"):
        load_scenario("no-such-scenario")


# ---------------------------------------------------------------- SLO gate
def _row(**overrides):
    traffic = TrafficResult(
        requests=100, ok=100, latencies_ms=[10.0] * 100, duration_s=10.0
    )
    row = metrics_row(SCENARIOS["smoke"], 0, 0, traffic)
    row.update(overrides)
    return row


def test_slo_gate_clean_exit_zero(tmp_path):
    slo_path = tmp_path / "slo.json"
    slo_path.write_text(json.dumps({
        "min_throughput_rps": 1.0, "max_p95_latency_ms": 100.0,
        "max_wrong_answers": 0,
    }))
    slo = load_slo(str(slo_path))
    assert evaluate_slo([_row()], slo) == []
    assert gate_exit_code([], "error") == 0


def test_slo_gate_severity_exit_codes():
    slo = {
        "min_throughput_rps": 1000.0,   # error on breach
        "max_shed_rate": 0.0,           # warn on breach
        "max_wrong_answers": 0,         # critical on breach
    }
    # Throughput breach alone: error -> exit 5.
    violations = evaluate_slo([_row(throughput_rps=1.0)], slo)
    assert {v.severity for v in violations} == {"error"}
    assert gate_exit_code(violations) == 5
    # Shed-rate breach alone: warn -> 0 at the default gate, 4 at warn.
    violations = evaluate_slo(
        [_row(throughput_rps=2000.0, shed_rate=0.5)], slo
    )
    assert {v.severity for v in violations} == {"warn"}
    assert gate_exit_code(violations) == 0
    assert gate_exit_code(violations, "warn") == 4
    # A wrong answer is critical -> exit 6 and dominates lesser breaches.
    violations = evaluate_slo(
        [_row(throughput_rps=1.0, wrong_answers=1)], slo
    )
    assert gate_exit_code(violations) == 6
    # An info-only violation never fires the default (error) gate.
    assert gate_exit_code(
        [SLOViolation("info", "k", "r", "m")], "error"
    ) == 0
    with pytest.raises(ValueError, match="unknown severity"):
        gate_exit_code([], "fatal")


def test_slo_unknown_key_refused(tmp_path):
    slo_path = tmp_path / "slo.json"
    slo_path.write_text(json.dumps({"max_p95_latency": 5.0}))  # typo'd key
    with pytest.raises(ValueError, match="unknown SLO key"):
        load_slo(str(slo_path))


def test_slo_every_rep_is_held_to_the_gate():
    slo = {"min_throughput_rps": 5.0}  # the default _row runs at 10 rps
    rows = [_row(rep=0), _row(rep=1, throughput_rps=1.0)]
    violations = evaluate_slo(rows, slo)
    assert len(violations) == 1 and "rep1" in violations[0].row_id


# --------------------------------------------------------------- run table
def test_run_table_header_written_once_and_rows_complete(tmp_path):
    table = RunTable(str(tmp_path / "run_table.csv"))
    table.append(_row())
    table.append(_row(rep=1))
    rows = table.rows()
    assert len(rows) == 2
    assert set(rows[0]) == set(RUN_TABLE_COLUMNS)
    with pytest.raises(ValueError, match="missing columns"):
        table.append({"scenario": "incomplete"})


def test_wrong_answer_detection_via_signatures():
    traffic = TrafficResult()
    for _ in range(9):
        traffic.signatures.setdefault("qft_4", __import__(
            "collections"
        ).Counter())[(100, 2, 2)] += 1
    traffic.signatures["qft_4"][(999, 2, 2)] += 1  # the odd one out
    assert traffic.wrong_answers == 1


# ------------------------------------------------------------- end to end
@pytest.fixture(scope="module")
def inprocess_port(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("loadgen_srv")
    service = CompileService(
        PulseStore(str(tmp / "store")),
        PipelineConfig(policy_name="map2b4l"),
        backend="serial",
        n_workers=1,
    )
    server = InProcessServer(service, window_s=0.01)
    port = server.start()
    yield port
    server.stop()


def test_miniature_end_to_end_run(tmp_path, inprocess_port):
    scenario = Scenario(
        name="mini", mix="qft-small", arrival="closed", clients=2,
        duration_s=60.0, max_requests=6,
    )
    row = run_scenario(
        scenario, str(tmp_path), connect=("127.0.0.1", inprocess_port)
    )
    assert set(row) == set(RUN_TABLE_COLUMNS)
    assert row["requests"] >= 6
    assert row["ok"] == row["requests"] and row["errors"] == 0
    assert row["wrong_answers"] == 0
    assert row["throughput_rps"] > 0
    assert row["p50_latency_ms"] > 0
    assert row["p95_latency_ms"] >= row["p50_latency_ms"]
    # The row landed in the CSV and the raw evidence on disk.
    rows = RunTable(str(tmp_path / "run_table.csv")).rows()
    assert len(rows) == 1 and rows[0]["scenario"] == "mini"
    perf = json.loads((tmp_path / "run_0_rep_0" / "perf.json").read_text())
    assert perf["row"]["ok"] == row["ok"]
    assert len(perf["latencies_ms"]) == row["ok"]
    assert perf["stats_after"]["served_requests"] >= 6


def test_connect_mode_refuses_fault_injection(tmp_path, inprocess_port):
    scenario = Scenario(
        name="t", clients=1, duration_s=1.0, replicas=2,
        faults=(FaultSpec("kill_replica", at_s=0.5),),
    )
    with pytest.raises(ValueError, match="fault injection"):
        run_scenario(
            scenario, str(tmp_path), connect=("127.0.0.1", inprocess_port)
        )


def test_stats_probe_round_trip(inprocess_port):
    stats = server_stats("127.0.0.1", inprocess_port)
    assert stats["ok"] and "store" in stats and "served_requests" in stats


@pytest.mark.parametrize(
    "arrival",
    [
        dict(arrival="poisson", rate_rps=8.0),
        dict(arrival="burst", burst_size=3, burst_gap_s=0.1),
    ],
    ids=["poisson", "burst"],
)
def test_open_loop_driver_against_live_server(inprocess_port, arrival):
    scenario = Scenario(
        name="drive", mix="qft-small", clients=2, duration_s=2.0, **arrival
    )
    result = drive("127.0.0.1", inprocess_port, scenario)
    assert result.requests > 0
    assert result.ok + result.errors + result.sheds == result.requests
    assert result.wrong_answers == 0


# --------------------------------------------------------------- SIGTERM
@pytest.mark.skipif(
    not hasattr(signal, "SIGTERM") or sys.platform == "win32",
    reason="POSIX signals only",
)
def test_serve_async_reports_final_stats_on_sigterm(tmp_path):
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--store", str(tmp_path / "store"),
            "--port", "0",
            "--backend", "serial", "--workers", "1",
            "--max-queue", "2",
        ],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        serving = json.loads(proc.stdout.readline())["serving"]
        host, port = serving.rsplit(":", 1)
        stats = server_stats(host, int(port), timeout_s=30.0)
        assert stats["ok"]
        assert stats["max_queue"] == 2  # the flag reaches the server
        proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 0  # graceful drain, not default-action death
    final = [
        json.loads(line) for line in out.splitlines()
        if line.strip().startswith('{"final_stats"')
    ]
    assert len(final) == 1
    assert final[0]["final_stats"]["served_requests"] == 0
    assert "store" in final[0]["final_stats"]
