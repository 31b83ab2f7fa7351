"""CompileService end to end: sharing, warm store, coalescing, front door."""

import asyncio
import io
import json
import threading
import time

import numpy as np
import pytest

from repro.core.engines import GrapeEngine
from repro.service import AsyncCompileServer, CompileService, PulseStore
from repro.service.frontdoor import cmd_batch, collect_programs
from repro.service.protocol import (
    ProtocolError,
    parse_request,
    request_circuit,
    resolve_program,
)
from repro.service.sharding import load_shard_map
from repro.utils.config import PipelineConfig
from repro.workloads import build_named, qft


def _service(tmp_path, name="s", **kwargs):
    store = PulseStore(str(tmp_path / name))
    kwargs.setdefault("backend", "serial")
    kwargs.setdefault("n_workers", 2)
    return CompileService(store, PipelineConfig(policy_name="map2b4l"), **kwargs)


def test_shared_groups_compile_once(tmp_path):
    """Acceptance: a two-circuit batch sharing groups compiles each shared
    group exactly once — store puts equal the batch's unique group count."""
    service = _service(tmp_path)
    batch = service.submit_batch([qft(5), qft(6)])
    assert batch.n_shared > 0
    stats = service.store.stats
    assert stats.puts == batch.n_unique  # one store write per unique group
    assert batch.n_compiled + batch.n_trivial == batch.n_unique
    # every request was fully priced
    for request in batch.requests:
        assert request.overall_latency > 0
        assert request.latency_reduction > 1


def test_warm_store_compiles_nothing(tmp_path):
    """Acceptance: re-running the same batch against a warm on-disk store
    performs zero solves, even from a brand-new service process."""
    programs = [build_named("4gt4-v0"), qft(5)]
    service = _service(tmp_path)
    cold = service.submit_batch(programs)
    assert cold.n_compiled > 0

    warm_service = _service(tmp_path)  # same directory, fresh instance
    warm = warm_service.submit_batch(programs)
    assert warm.n_compiled == 0
    assert warm.n_trivial == 0
    assert warm.coverage_rate == 1.0
    assert warm_service.store.stats.puts == 0
    assert warm_service.store.stats.hits > 0
    # identical pricing on both runs
    for a, b in zip(cold.requests, warm.requests):
        assert a.overall_latency == b.overall_latency
        assert a.gate_based_latency == b.gate_based_latency


def test_warm_store_zero_grape_solves(tmp_path):
    """Same acceptance with the real optimizer: the second service run does
    not invoke GRAPE at all (counted via the engine's compile calls)."""

    class CountingGrape(GrapeEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.solves = 0

        def compile_group(self, *args, **kwargs):
            self.solves += 1
            return super().compile_group(*args, **kwargs)

    config = PipelineConfig(policy_name="map2b4l")
    program = build_named("4gt4-v0")
    cold_engine = CountingGrape(config.physics, config.run.fast())
    service = _service(tmp_path, engine=cold_engine)
    service.submit_batch([program])
    assert cold_engine.solves > 0

    warm_engine = CountingGrape(config.physics, config.run.fast())
    warm = _service(tmp_path, engine=warm_engine)
    report = warm.submit_batch([program])
    assert warm_engine.solves == 0
    assert report.n_compiled == 0


def test_bounded_store_prices_like_an_unbounded_one(tmp_path):
    """A store bounded below one batch's unique groups prices every request
    exactly as an unbounded store does; only coverage and eviction counts
    may differ."""
    config = PipelineConfig(policy_name="map2b4l")
    bounded = CompileService(
        PulseStore(str(tmp_path / "b"), max_entries=3), config, backend="serial"
    )
    unbounded = CompileService(
        PulseStore(str(tmp_path / "u")), config, backend="serial"
    )
    for programs in ([qft(5)], [qft(6), qft(5)], [qft(4), qft(6)]):
        got = bounded.submit_batch(programs)
        want = unbounded.submit_batch(programs)
        for mine, ref in zip(got.requests, want.requests):
            assert mine.overall_latency == ref.overall_latency
            assert mine.gate_based_latency == ref.gate_based_latency
    assert bounded.store.stats.evictions > 0  # the bound really bit


def test_cross_program_reuse(tmp_path):
    """A program never seen before is served from pulses of a superset
    program — the store is keyed by group content, not by program."""
    service = _service(tmp_path)
    service.submit_batch([qft(6)])
    report, batch = service.handle_request(qft(5))
    assert batch.n_compiled == 0  # nothing reaches a worker
    assert report.coverage_rate > 0.9  # all but trivial frame-change groups


def test_concurrent_batches_coalesce(tmp_path):
    """Two threads submitting overlapping batches: overlapping groups are
    compiled by exactly one of them."""
    service = _service(tmp_path, backend="thread")
    programs = [qft(5)]
    barrier = threading.Barrier(2)
    reports = []

    def submit():
        barrier.wait()
        reports.append(service.submit_batch(programs))

    threads = [threading.Thread(target=submit) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert len(reports) == 2
    # One put per unique group across BOTH batches: whoever lost the claim
    # race reused the winner's record instead of writing its own.
    assert service.store.stats.puts == reports[0].n_unique
    # pricing agrees regardless of who compiled
    assert (
        reports[0].requests[0].overall_latency
        == reports[1].requests[0].overall_latency
    )


def test_engine_fingerprint_guards_store(tmp_path):
    """A store populated by one engine refuses a different engine: modelled
    latencies must never be served to a GRAPE client as real results."""
    from repro.service.store import StoreVersionError

    config = PipelineConfig(policy_name="map2b4l")
    _service(tmp_path).submit_batch([qft(4)])  # default ModelEngine
    with pytest.raises(StoreVersionError):
        CompileService(
            PulseStore(str(tmp_path / "s")),
            config,
            engine=GrapeEngine(config.physics, config.run.fast()),
            backend="serial",
        )
    # the same engine identity keeps working
    warm = _service(tmp_path).submit_batch([qft(4)])
    assert warm.n_compiled == 0


def test_multi_writer_manifest_merge(tmp_path):
    """Two store instances on one directory: a flush from one must not drop
    the other's persisted entries (append-only merge semantics)."""
    from repro.circuits.gates import Gate
    from repro.core.cache import LibraryEntry
    from repro.grouping.group import GateGroup

    root = str(tmp_path / "shared")
    a = PulseStore(root)
    b = PulseStore(root)  # loaded before a's puts

    def entry(angle):
        return LibraryEntry(
            group=GateGroup(gates=[Gate("rz", (0,), (angle,))]),
            pulse=None, latency=5.0, iterations=1,
        )

    a.put(entry(0.1))
    b.put(entry(0.2))  # b's flush merges a's on-disk row instead of dropping

    reloaded = PulseStore(root)
    assert len(reloaded) == 2


def test_front_end_memo_is_content_keyed_and_bounded(tmp_path):
    """The front-end memo must never serve one circuit's result to a
    different circuit, and must not grow without bound in a long-lived
    service: a stream of distinct circuits leaves exactly the bound's worth
    of entries, least recently used out first."""
    from repro.circuits import Circuit
    from repro.core.pipeline import FRONT_END_MEMO_SIZE
    from repro.perf.instrument import PerfRecorder

    pipeline = _service(tmp_path).pipeline
    a, b = qft(4), qft(4)
    b.add("rz", 0, params=(0.5,))
    front_a, front_b = pipeline.front_end(a), pipeline.front_end(b)
    assert front_a is not front_b
    assert len(front_b.prepared) > len(front_a.prepared)
    assert pipeline.front_end(a) is front_a and pipeline.front_end(b) is front_b
    a.add("rz", 1, params=(0.25,))  # the same object, now different content
    assert pipeline.front_end(a) is not front_a

    def stream(index):
        circuit = Circuit(2, name=f"s{index}")
        circuit.add("rz", 0, params=(0.001 * (index + 1),))
        circuit.add("cx", 0, 1)
        return circuit

    extra = 3
    for index in range(FRONT_END_MEMO_SIZE + extra):
        pipeline.groups_of(stream(index))
    assert len(pipeline._memo) == FRONT_END_MEMO_SIZE
    # Newest first: every survivor hits, so nothing is evicted meanwhile;
    # then the newest evicted circuit misses.
    perf = PerfRecorder()
    for index in reversed(range(extra, FRONT_END_MEMO_SIZE + extra)):
        pipeline.groups_of(stream(index), perf=perf)
    pipeline.groups_of(stream(extra - 1), perf=perf)
    assert perf.counters == {
        "front_end.hits": FRONT_END_MEMO_SIZE, "front_end.misses": 1,
    }
    assert len(pipeline._memo) == FRONT_END_MEMO_SIZE


def test_invalid_backend_does_not_strand_claims(tmp_path):
    """A bad backend spec fails at execute time; the claims taken before the
    failure must be released so a corrected service still works."""
    store = PulseStore(str(tmp_path / "s"))
    config = PipelineConfig(policy_name="map2b4l")
    broken = CompileService(store, config, backend="treads")
    with pytest.raises(ValueError):
        broken.submit_batch([qft(4)])
    assert len(broken.coalescer._in_flight) == 0
    fixed = CompileService(store, config, backend="serial")
    batch = fixed.submit_batch([qft(4)])
    assert batch.requests[0].overall_latency > 0


def test_failed_batch_releases_claims(tmp_path):
    """A batch that blows up mid-persist must not strand its coalescer
    claims — the next batch for the same programs still completes."""
    service = _service(tmp_path)
    program = qft(4)

    real_put = service.store.put
    calls = {"n": 0}

    def failing_put(entry, flush=True):
        calls["n"] += 1
        if calls["n"] == 2:
            raise OSError("disk full")
        real_put(entry, flush=flush)

    service.store.put = failing_put
    with pytest.raises(OSError):
        service.submit_batch([program])
    service.store.put = real_put

    batch = service.submit_batch([program])  # must not deadlock on claims
    assert batch.requests[0].overall_latency > 0
    assert len(service.coalescer._in_flight) == 0


# ------------------------------------------------------------------ protocol
def test_parse_request_variants():
    named = parse_request('{"id": "1", "name": "qft_4"}')
    assert named.name == "qft_4" and not named.is_command
    qasm = parse_request('{"qasm": "OPENQASM 2.0;\\nqreg q[1];\\nh q[0];"}')
    assert qasm.qasm is not None
    cmd = parse_request('{"cmd": "stats"}')
    assert cmd.is_command
    with pytest.raises(ProtocolError):
        parse_request("not json")
    with pytest.raises(ProtocolError):
        parse_request('{"id": "x"}')
    with pytest.raises(ProtocolError):
        parse_request('["a", "list"]')


def test_resolve_program_names():
    assert resolve_program("qft_7").n_qubits == 7
    assert resolve_program("ex2").name == "ex2"
    with pytest.raises(ProtocolError):
        resolve_program("unknown_prog")


def test_request_circuit_from_qasm():
    request = parse_request(
        '{"id": "q", "qasm": "OPENQASM 2.0;\\nqreg q[2];\\nh q[0];\\ncx q[0],q[1];"}'
    )
    circuit = request_circuit(request)
    assert circuit.n_qubits == 2


# ----------------------------------------------------------------- frontdoor
class _LockstepStdin:
    """A stdin that hands out its next line only once every earlier line
    has been answered on ``stdout``: a client waiting for each reply."""

    def __init__(self, lines, stdout, timeout_s=60.0):
        self._lines = list(lines)
        self._stdout = stdout
        self._timeout_s = timeout_s
        self._sent = 0

    def readline(self):
        deadline = time.monotonic() + self._timeout_s
        while self._stdout.getvalue().count("\n") < self._sent:
            assert time.monotonic() < deadline, "a request went unanswered"
            time.sleep(0.01)
        if not self._lines:
            return ""
        self._sent += 1
        return self._lines.pop(0) + "\n"


def test_serve_loop_end_to_end(tmp_path):
    service = _service(tmp_path)
    stdout = io.StringIO()
    stdin = _LockstepStdin(
        [
            '{"id": "r1", "name": "qft_4"}',
            '{"id": "r1b", "name": "qft_4"}',
            "not json",
            '{"id": "s", "cmd": "stats"}',
            '{"id": "q", "cmd": "quit"}',
            '{"id": "never", "name": "qft_4"}',
        ],
        stdout,
    )
    server = AsyncCompileServer(service, max_batch=1)
    assert asyncio.run(server.serve_stdio(stdin, stdout)) == 0
    lines = [json.loads(l) for l in stdout.getvalue().splitlines()]
    assert len(lines) == 5  # the post-quit request is never answered
    by_id = {line["id"]: line for line in lines}
    first, second, stats, bye = (by_id.pop(i) for i in ("r1", "r1b", "s", "q"))
    (bad,) = by_id.values()
    assert first["ok"] and first["coverage_rate"] == 0.0
    assert second["ok"] and second["coverage_rate"] == 1.0
    assert second["compiled_groups"] == 0
    assert not bad["ok"] and bad["id"]  # correlatable, never empty
    assert stats["ok"] and stats["entries"] > 0
    assert bye["bye"]


def test_collect_programs(tmp_path):
    qasm_dir = tmp_path / "qasm"
    qasm_dir.mkdir()
    (qasm_dir / "tiny.qasm").write_text(
        "OPENQASM 2.0;\nqreg q[2];\nh q[0];\ncx q[0],q[1];"
    )
    programs = collect_programs([str(qasm_dir), "qft_4", "ex2"])
    assert [p.name for p in programs] == ["tiny", "qft_4", "ex2"]
    with pytest.raises(FileNotFoundError):
        collect_programs([str(tmp_path / "empty_missing_dir.qasm")])


def test_cmd_batch_json_twice(tmp_path, capsys):
    """The warm-store contract through the CLI: the second run against the
    same store is a 100% cache hit with zero compiles and zero writes —
    on a single-directory store, and on the store a first run with
    ``--shards 4`` creates (the second run finds its shard map unasked)."""
    for name, shards in (("store", []), ("sharded", ["--shards", "4"])):
        args = [
            "qft_4", "--store", str(tmp_path / name),
            "--workers", "2", "--backend", "serial", "--json",
        ]
        assert cmd_batch(args + shards) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["compiled_groups"] + first["n_trivial"] == first["n_unique"]
        assert cmd_batch(args) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["compiled_groups"] == 0
        assert second["n_trivial"] == 0
        assert second["batch_coverage_rate"] == 1.0
        assert second["store"]["hit_rate"] == 1.0
        assert second["store"]["puts"] == 0
    assert load_shard_map(str(tmp_path / "sharded"))["n_shards"] == 4


def test_cmd_batch_unknown_program_clean_error(tmp_path, capsys):
    code = cmd_batch(["nosuchprog", "--store", str(tmp_path / "store")])
    assert code == 2
    err = capsys.readouterr().err
    assert "repro batch:" in err and "nosuchprog" in err


def test_cmd_batch_unplaceable_program_clean_error(tmp_path, capsys):
    code = cmd_batch(["qft_4", "qft_20", "--store", str(tmp_path / "store")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("repro batch:") and "20 qubits" in err


def test_cmd_batch_table_output(tmp_path, capsys):
    assert (
        cmd_batch(
            ["qft_4", "--store", str(tmp_path / "store"), "--backend", "serial"]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "repro batch" in out
    assert "store:" in out
    assert "perf report" in out
