"""Asyncio front door: batching, coalescing across clients, out-of-order ids."""

import asyncio
import json
import threading

import pytest

from repro.core.engines import ModelEngine
from repro.perf.instrument import PerfRecorder
from repro.service.asyncserve import AsyncCompileServer
from repro.service.protocol import MAX_LINE_BYTES, CompileRequest, assign_request_id
from repro.service.service import CompileService
from repro.service.sharding import open_store
from repro.utils.config import PipelineConfig
from repro.workloads import qft

CONFIG = dict(policy_name="map2b4l")


def _service(tmp_path, name="s", engine=None, shards=None):
    store = open_store(str(tmp_path / name), shards=shards)
    return CompileService(
        store,
        PipelineConfig(**CONFIG),
        engine=engine,
        backend="serial",
        n_workers=2,
    )


async def _client(port, payloads, expect=None):
    """Send ``payloads`` as JSON lines, read ``expect`` (default: as many)
    response lines back; the server may answer out of order."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    for payload in payloads:
        writer.write((json.dumps(payload) + "\n").encode())
    await writer.drain()
    responses = []
    for _ in range(expect if expect is not None else len(payloads)):
        line = await reader.readline()
        assert line, "server closed before answering"
        responses.append(json.loads(line))
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):
        pass
    return responses


async def _start(server):
    tcp = await server.start_tcp("127.0.0.1", 0)
    return tcp, tcp.sockets[0].getsockname()[1]


def _run(coro, timeout=60):
    return asyncio.run(asyncio.wait_for(coro, timeout))


# ------------------------------------------------------------------- basics
def test_single_client_roundtrip_and_auto_ids(tmp_path):
    async def main():
        service = _service(tmp_path, shards=2)
        server = AsyncCompileServer(service, window_s=0.01)
        tcp, port = await _start(server)
        responses = await _client(
            port, [{"id": "mine", "name": "qft_4"}, {"name": "qft_4"}]
        )
        tcp.close()
        await tcp.wait_closed()
        await server.close()
        by_id = {r["id"]: r for r in responses}
        # dense auto-id numbering: requests that carry an id don't burn one
        assert set(by_id) == {"mine", "auto1"}
        for response in responses:
            assert response["ok"] and response["program"] == "qft_4"
            assert response["batch"] == 1  # both rode one planning window
        # one batch, groups deduped across the two identical requests
        assert service.n_batches == 1
        assert by_id["mine"]["compiled_groups"] == by_id["auto1"]["compiled_groups"]

    _run(main())


def test_commands_protocol_errors_and_unknown_names(tmp_path):
    async def main():
        service = _service(tmp_path)
        server = AsyncCompileServer(service, window_s=0.0)
        tcp, port = await _start(server)
        bad = await _client(port, [{"id": "x", "name": "not_a_program"}])
        assert bad[0]["ok"] is False and "not_a_program" in bad[0]["error"]
        garbage = await _client(port, ["this is not json"])
        assert garbage[0]["ok"] is False
        stats = await _client(port, [{"id": "s", "cmd": "stats"}])
        assert stats[0]["ok"] and "store_shards" in stats[0]
        unknown = await _client(port, [{"id": "u", "cmd": "nope"}])
        assert unknown[0]["ok"] is False
        quit_ = await _client(port, [{"id": "q", "cmd": "quit"}])
        assert quit_[0]["bye"] is True
        tcp.close()
        await tcp.wait_closed()
        await server.close()

    _run(main())


def test_id_less_commands_get_dense_auto_ids(tmp_path):
    """A command without an id gets an ``auto<n>`` id like a compile does,
    from the same dense counter, so an out-of-order client can match it."""

    async def main():
        service = _service(tmp_path)
        server = AsyncCompileServer(service, window_s=0.0)
        tcp, port = await _start(server)
        commands = await _client(port, [{"cmd": "stats"}, {"cmd": "nope"}, {"cmd": "quit"}])
        compiled = await _client(port, [{"name": "qft_3"}])
        tcp.close()
        await tcp.wait_closed()
        await server.close()
        return commands + compiled

    stats, unknown, bye, compiled = _run(main())
    assert stats["id"] == "auto1" and stats["ok"] and "store_shards" in stats
    assert unknown["id"] == "auto2" and unknown["ok"] is False
    assert bye["id"] == "auto3" and bye["bye"] is True
    assert compiled["id"] == "auto4" and compiled["ok"]


def test_stdio_quit_without_id_gets_an_auto_id(tmp_path):
    import io

    server = AsyncCompileServer(_service(tmp_path))
    stdout = io.StringIO()
    stdin = io.StringIO(json.dumps({"cmd": "quit"}) + "\n")
    assert asyncio.run(server.serve_stdio(stdin=stdin, stdout=stdout)) == 0
    assert json.loads(stdout.getvalue()) == {"bye": True, "id": "auto1", "ok": True}


def test_assign_request_id_keeps_existing():
    keep = CompileRequest(id="r1", name="x")
    assert assign_request_id(keep, 7).id == "r1"
    assert assign_request_id(CompileRequest(id="", name="x"), 7).id == "auto7"


def test_parse_errors_get_correlatable_auto_ids(tmp_path):
    """Satellite: a malformed line is answered with a server-assigned id —
    an empty id is uncorrelatable for an out-of-order client — and the
    auto-id sequence stays dense across parse errors and id-less requests."""

    async def main():
        service = _service(tmp_path)
        server = AsyncCompileServer(service, window_s=0.0)
        tcp, port = await _start(server)
        responses = await _client(
            port,
            ["this is not json", {"name": "qft_4"}, {"id": "mine", "name": "qft_4"}],
        )
        tcp.close()
        await tcp.wait_closed()
        await server.close()
        by_id = {r["id"]: r for r in responses}
        # parse error burned auto1, the id-less request got auto2 — no
        # skipped values, and the carried id consumed nothing.
        assert set(by_id) == {"auto1", "auto2", "mine"}
        assert by_id["auto1"]["ok"] is False
        assert "JSON" in by_id["auto1"]["error"]  # the protocol error text
        assert by_id["auto2"]["ok"] and by_id["mine"]["ok"]

    _run(main())


def test_invalid_request_with_id_keeps_its_id(tmp_path):
    """A line that is readable JSON but an invalid request must echo the
    client's id on the error — not replace it with a server-assigned one."""

    async def main():
        service = _service(tmp_path)
        server = AsyncCompileServer(service, window_s=0.0)
        tcp, port = await _start(server)
        responses = await _client(port, [{"id": "kept"}])  # no name/qasm/cmd
        tcp.close()
        await tcp.wait_closed()
        await server.close()
        assert responses[0]["id"] == "kept"
        assert responses[0]["ok"] is False
        assert server._next_id == 0  # no auto id burned on a carried id

    _run(main())


@pytest.mark.parametrize("n_gates", [12_000, 150_000])  # ~108 KB, ~1.35 MB
def test_overlong_line_is_refused_and_the_connection_keeps_serving(
    tmp_path, n_gates
):
    """A request line over the stream limit gets one error with an auto
    id; the rest of it is dropped — including a tail sent after the
    server's buffer filled — and the next request on the same connection
    is answered."""

    async def main():
        service = _service(tmp_path)
        server = AsyncCompileServer(service, window_s=0.0)
        tcp, port = await _start(server)
        qasm = "OPENQASM 2.0;\nqreg q[4];\n" + "h q[0];\n" * n_gates
        big = json.dumps({"id": "big", "qasm": qasm}).encode()
        small = json.dumps({"id": "small", "name": "qft_4"}).encode()
        assert len(big) > MAX_LINE_BYTES + 4096
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        head = MAX_LINE_BYTES + 4096  # overflows the buffer on its own
        writer.write(big[:head])
        await writer.drain()
        await asyncio.sleep(0.1)
        writer.write(big[head:] + b"\n" + small + b"\n")
        await writer.drain()
        responses = [json.loads(await reader.readline()) for _ in range(2)]
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        tcp.close()
        await tcp.wait_closed()
        await server.close()
        refused, answered = responses
        assert refused["id"] == "auto1" and refused["ok"] is False
        assert str(MAX_LINE_BYTES) in refused["error"]
        assert answered["id"] == "small" and answered["ok"]
        assert service.n_batches == 1  # the over-long line never compiled

    _run(main())


def test_oversized_qft_request_rejected_before_any_work(tmp_path):
    """Satellite: `qft_999999999` must be refused by the protocol bound,
    not stall the server building a giant circuit."""
    from repro.service.protocol import ProtocolError, resolve_program

    with pytest.raises(ProtocolError):
        resolve_program("qft_999999999")
    with pytest.raises(ProtocolError):
        resolve_program("qft_0")
    assert resolve_program("qft_64").n_qubits == 64

    async def main():
        service = _service(tmp_path)
        server = AsyncCompileServer(service, window_s=0.0)
        tcp, port = await _start(server)
        start = asyncio.get_running_loop().time()
        responses = await _client(
            port, [{"id": "dos", "name": "qft_999999999"}]
        )
        elapsed = asyncio.get_running_loop().time() - start
        tcp.close()
        await tcp.wait_closed()
        await server.close()
        assert responses[0]["id"] == "dos"
        assert responses[0]["ok"] is False
        assert "out of range" in responses[0]["error"]
        assert elapsed < 5.0  # answered from the bound, not from the work

    _run(main())


@pytest.mark.parametrize(
    "order",
    [("qft_4", "qft_20"), ("qft_20", "qft_4")],
    ids=["small_first", "big_first"],
)
def test_unplaceable_request_fails_alone(tmp_path, order):
    """A program no registered device can hold is refused at intake with
    its own typed error; the request sharing its planning window compiles."""

    async def main():
        service = _service(tmp_path)
        server = AsyncCompileServer(service, window_s=0.2)
        tcp, port = await _start(server)
        responses = await _client(port, [{"id": n, "name": n} for n in order])
        tcp.close()
        await tcp.wait_closed()
        await server.close()
        by_id = {r["id"]: r for r in responses}
        assert by_id["qft_4"]["ok"] and by_id["qft_4"]["program"] == "qft_4"
        assert by_id["qft_20"]["ok"] is False
        assert by_id["qft_20"]["error"].startswith("ProtocolError:")
        assert "20 qubits" in by_id["qft_20"]["error"]

    _run(main())


def test_non_finite_qasm_fails_alone(tmp_path):
    """A QASM parameter that evaluates to inf or NaN is refused at intake
    with its own typed error; the request sharing its planning window
    compiles."""
    bad = "OPENQASM 2.0;\nqreg q[2];\nrz(0*1e999) q[0];\ncx q[0],q[1];\n"

    async def main():
        service = _service(tmp_path)
        server = AsyncCompileServer(service, window_s=0.2)
        tcp, port = await _start(server)
        responses = await _client(
            port, [{"id": "good", "name": "qft_4"}, {"id": "bad", "qasm": bad}]
        )
        tcp.close()
        await tcp.wait_closed()
        await server.close()
        by_id = {r["id"]: r for r in responses}
        assert by_id["good"]["ok"] and by_id["good"]["program"] == "qft_4"
        assert by_id["bad"]["ok"] is False
        assert by_id["bad"]["error"].startswith("QasmError:")

    _run(main())


# -------------------------------------------------------------- coalescing
class GatedModelEngine(ModelEngine):
    """Blocks every solve until the test opens the gate — makes the
    concurrent-batch overlap deterministic instead of a timing race."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.started = threading.Event()
        self.release = threading.Event()
        self.solves = 0

    def compile_group(self, group, **kwargs):
        self.started.set()
        if not self.release.wait(timeout=30):
            raise RuntimeError("test gate never opened")
        self.solves += 1
        return super().compile_group(group, **kwargs)


def test_concurrent_clients_same_program_trigger_exactly_one_solve(tmp_path):
    """Satellite acceptance: two async clients racing for one program
    perform one solve per group total, the loser coalescing on the winner
    through the shared GroupCoalescer."""
    # Reference: how many solves one cold batch performs (engine calls
    # include virtual-diagonal 'trivial' groups; compiled_groups does not).
    reference = _service(tmp_path, name="ref")
    ref_batch = reference.submit_batch([qft(4)])
    ref_solves = ref_batch.n_compiled + ref_batch.n_trivial

    async def main():
        engine = GatedModelEngine(PipelineConfig(**CONFIG).physics)
        service = _service(tmp_path, engine=engine)
        # max_batch=1: each client's request becomes its own batch, so the
        # dedup can only happen through the coalescer, not the planner.
        server = AsyncCompileServer(
            service, window_s=0.0, max_batch=1, max_inflight=2
        )
        tcp, port = await _start(server)
        loop = asyncio.get_running_loop()

        first = asyncio.create_task(_client(port, [{"id": "A", "name": "qft_4"}]))
        # wait until batch A holds every claim (its first solve is running)
        await loop.run_in_executor(None, engine.started.wait, 20)
        assert engine.started.is_set()
        second = asyncio.create_task(_client(port, [{"id": "B", "name": "qft_4"}]))
        # wait until batch B has coalesced onto A's in-flight claims
        for _ in range(2000):
            if service.coalescer.coalesced > 0:
                break
            await asyncio.sleep(0.01)
        assert service.coalescer.coalesced > 0
        engine.release.set()
        responses = {r["id"]: r for rs in await asyncio.gather(first, second) for r in rs}
        tcp.close()
        await tcp.wait_closed()
        await server.close()

        assert responses["A"]["ok"] and responses["B"]["ok"]
        # exactly one solve per group across both batches
        assert engine.solves == ref_solves
        assert (
            responses["A"]["compiled_groups"] + responses["B"]["compiled_groups"]
            == ref_batch.n_compiled
        )
        assert (
            responses["A"]["coalesced_groups"] + responses["B"]["coalesced_groups"]
            > 0
        )
        assert responses["A"]["batch"] != responses["B"]["batch"]

    _run(main(), timeout=120)


def test_idle_server_dispatches_a_lone_request_at_once(tmp_path):
    """With nothing in flight a request has no batch to wait for: it is
    dispatched without sitting out the planning window."""
    perf = PerfRecorder()

    async def main():
        service = _service(tmp_path)
        server = AsyncCompileServer(service, window_s=2.0, perf=perf)
        tcp, port = await _start(server)
        (response,) = await _client(port, [{"id": "lone", "name": "qft_4"}])
        tcp.close()
        await tcp.wait_closed()
        await server.close()
        return response

    assert _run(main())["ok"]
    wait = perf.stages["serve.queue_wait"]
    assert wait.calls == 1
    assert wait.total_s < 0.5, f"queued {wait.total_s:.3f} s of a 2 s window"


def test_busy_server_batches_arrivals_while_a_batch_runs(tmp_path):
    """While a batch is in flight, arrivals from several clients gather in
    the window and are planned together once the server is free."""

    async def main():
        engine = GatedModelEngine(PipelineConfig(**CONFIG).physics)
        service = _service(tmp_path, engine=engine)
        server = AsyncCompileServer(service, window_s=30.0, max_inflight=2)
        tcp, port = await _start(server)
        loop = asyncio.get_running_loop()
        first = asyncio.create_task(_client(port, [{"id": "first", "name": "qft_4"}]))
        await loop.run_in_executor(None, engine.started.wait, 20)
        assert engine.started.is_set()  # batch 1 holds the gate
        later = [
            asyncio.create_task(_client(port, [{"id": i, "name": "qft_4"}]))
            for i in ("A", "B")
        ]
        for _ in range(2000):
            if server.stats_payload()["queued"] == 2:
                break
            await asyncio.sleep(0.01)
        assert server.stats_payload()["queued"] == 2
        engine.release.set()
        responses = {
            r["id"]: r for rs in await asyncio.gather(first, *later) for r in rs
        }
        tcp.close()
        await tcp.wait_closed()
        await server.close()
        return service, responses

    service, responses = _run(main(), timeout=120)
    assert all(r["ok"] for r in responses.values())
    assert responses["first"]["batch"] == 1
    assert responses["A"]["batch"] == responses["B"]["batch"] == 2
    assert service.n_batches == 2


# ------------------------------------------------------------- acceptance
def test_async_concurrent_clients_solve_less_than_sequential_cold(tmp_path):
    """ISSUE acceptance: 8 concurrent clients with overlapping programs
    against one async server perform strictly fewer solves than the same
    8 requests served one-at-a-time, each against a cold store."""
    programs = [
        "qft_4", "qft_5", "qft_4", "qft_6", "qft_5", "qft_4", "qft_6", "qft_5",
    ]
    sequential_solves = 0
    for index, name in enumerate(programs):
        service = _service(tmp_path, name=f"cold{index}")
        batch = service.submit_batch([qft(int(name.split("_")[1]))])
        # every engine call the cold request paid for, trivial included
        sequential_solves += batch.n_compiled + batch.n_trivial

    async def main():
        service = _service(tmp_path, name="async", shards=4)
        server = AsyncCompileServer(
            service, window_s=0.1, max_batch=8, max_inflight=2
        )
        tcp, port = await _start(server)
        results = await asyncio.gather(
            *[
                _client(port, [{"id": f"c{i}", "name": name}])
                for i, name in enumerate(programs)
            ]
        )
        tcp.close()
        await tcp.wait_closed()
        await server.close()
        return [r for rs in results for r in rs], service

    responses, service = _run(main(), timeout=120)
    assert all(r["ok"] for r in responses)
    # solves the async server actually performed == its store puts (each
    # solved group, trivial included, is persisted exactly once)
    async_solves = service.store.stats.puts
    assert async_solves < sequential_solves, (
        f"async performed {async_solves} solves, "
        f"sequential cold baseline {sequential_solves}"
    )
    # the dedup is observable in the responses: every response reports the
    # whole union as covered-or-compiled, yet the per-batch compiled counts
    # sum to far less than the sequential baseline
    assert sum({r["batch"]: r["compiled_groups"] for r in responses}.values()) < sequential_solves


def test_stdio_mode_batches_piped_requests(tmp_path):
    import io

    async def main():
        service = _service(tmp_path, shards=2)
        server = AsyncCompileServer(service, window_s=0.05, max_batch=8)
        stdin = io.StringIO(
            json.dumps({"id": "a", "name": "qft_4"}) + "\n"
            + json.dumps({"id": "b", "name": "qft_4"}) + "\n"
        )
        stdout = io.StringIO()
        code = await server.serve_stdio(stdin=stdin, stdout=stdout)
        assert code == 0
        responses = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert {r["id"] for r in responses} == {"a", "b"}
        assert all(r["ok"] for r in responses)

    _run(main())
