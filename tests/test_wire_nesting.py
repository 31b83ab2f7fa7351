"""Deep JSON nesting is a malformed line at every JSON-lines reader.

``json.loads`` raises ``RecursionError``, not ``ValueError``, from about
1,000 nested ``[``. A line of 5,000 ``[`` fits inside the front door's
64 KiB bound, so each reader gets one and must answer it the way it
answers bad JSON: a ``bad JSON`` error on the front door, a typed
``bad-request`` from the store server, requeue-then-retire on the worker
fabric, a skipped line in ``repro worker``. A reader that lets the
``RecursionError`` escape kills its thread (an error under pytest.ini's
thread-exception filter) or its connection.
"""

import json
import socket
import threading
import time

import pytest

from repro.service import (
    CompileService,
    InProcessServer,
    PulseStore,
    RemoteExecutor,
    StoreServer,
    worker_loop,
)
from repro.service.asyncserve import _salvage_request_id
from repro.service.protocol import ProtocolError, parse_request
from repro.utils.config import PipelineConfig
from repro.workloads import qft

DEEP = "[" * 5000
WAIT_S = 10.0


def _service(tmp_path, backend="serial"):
    return CompileService(
        PulseStore(str(tmp_path / "store")),
        PipelineConfig(policy_name="map2b4l"),
        backend=backend,
        n_workers=2,
    )


def _connect(port):
    sock = socket.create_connection(("127.0.0.1", port), timeout=WAIT_S)
    return sock, sock.makefile("rwb")


def _ask(stream, line):
    stream.write(line.encode() + b"\n")
    stream.flush()
    return json.loads(stream.readline())


def _parse_request(tmp_path):
    with pytest.raises(ProtocolError, match="bad JSON"):
        parse_request(DEEP)


def _salvage_id(tmp_path):
    assert _salvage_request_id(DEEP) == ""


def _front_door(tmp_path):
    server = InProcessServer(_service(tmp_path))
    port = server.start()
    try:
        sock, stream = _connect(port)
        with sock, stream:
            refusal = _ask(stream, DEEP)
            assert refusal["ok"] is False and "bad JSON" in refusal["error"]
            assert refusal["id"].startswith("auto")
            stats = _ask(stream, json.dumps({"id": "after", "cmd": "stats"}))
            assert stats["id"] == "after" and stats["ok"] is True
    finally:
        server.stop()


def _store_server(tmp_path):
    server = StoreServer(PulseStore(str(tmp_path / "served"))).start()
    try:
        sock, stream = _connect(server.port)
        with sock, stream:
            refusal = _ask(stream, DEEP)
            assert refusal["ok"] is False and refusal["kind"] == "bad-request"
            assert _ask(stream, json.dumps({"op": "ping"}))["ok"] is True
    finally:
        server.stop()


def _fabric_hello(tmp_path):
    executor = RemoteExecutor()
    try:
        sock, stream = _connect(executor.port)
        with sock, stream:
            stream.write(DEEP.encode() + b"\n")
            stream.flush()
            assert stream.readline() == b""  # not enrolled: hung up
        assert executor.live_workers() == 0
    finally:
        executor.close()


def _fabric_reply(tmp_path):
    """A worker whose reply is too deep loses its part back to the queue
    and retires; the batch still completes (here by local fallback)."""
    executor = RemoteExecutor(wait_workers_s=WAIT_S)
    handlers_before = set(threading.enumerate())

    def deep_worker():
        sock, stream = _connect(executor.port)
        with sock, stream:
            stream.write(b'{"op": "hello"}\n')
            stream.flush()
            stream.readline()  # one part...
            stream.write(DEEP.encode() + b"\n")
            stream.flush()
            stream.readline()  # ...until the fabric hangs up

    worker = threading.Thread(target=deep_worker, daemon=True)
    worker.start()
    deadline = time.monotonic() + WAIT_S
    while executor.live_workers() < 1 and time.monotonic() < deadline:
        time.sleep(0.01)
    service = _service(tmp_path, backend=executor)
    try:
        batch = service.submit_batch([qft(4)])
    finally:
        executor.close()
    worker.join(timeout=WAIT_S)
    handlers = [
        thread for thread in set(threading.enumerate()) - handlers_before
        if thread.name == "fabric-worker"
    ]
    for thread in handlers:
        thread.join(timeout=WAIT_S)  # its fate is decided in this test
    assert not worker.is_alive()
    assert not [thread for thread in handlers if thread.is_alive()]
    assert executor.n_reassigned == 1
    assert batch.n_compiled > 0


def _worker_loop(tmp_path):
    """``repro worker`` skips the deep line and keeps listening."""
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]

    def fabric():
        conn, _ = listener.accept()
        with conn, conn.makefile("rwb") as stream:
            stream.readline()  # hello
            stream.write(DEEP.encode() + b"\n" + b'{"op": "close"}\n')
            stream.flush()
            stream.readline()  # until the worker hangs up

    thread = threading.Thread(target=fabric, daemon=True)
    thread.start()
    try:
        assert worker_loop(f"127.0.0.1:{port}", connect_timeout_s=WAIT_S) == 0
    finally:
        thread.join(timeout=WAIT_S)
        listener.close()
    assert not thread.is_alive()


READERS = {
    "parse_request": _parse_request,
    "salvage_request_id": _salvage_id,
    "front_door": _front_door,
    "store_server": _store_server,
    "fabric_hello": _fabric_hello,
    "fabric_reply": _fabric_reply,
    "worker_loop": _worker_loop,
}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_deeply_nested_line_is_a_malformed_frame(tmp_path, reader):
    READERS[reader](tmp_path)
