"""The CLI as real processes: exit codes, announce lines and stdout.

Most of tier-1 drives the service in-process. These tests run
``python -m repro`` children the way an operator does: each binds port 0
and announces its address as a JSON line on stdout, and every wait is
bounded. They check what only a real process shows: that a fleet of
``repro store serve`` + ``repro serve --workers remote`` + ``repro
worker`` solves each group once, serves repeats from the store and shuts
down cleanly with exit 0 everywhere; that ``repro store stats`` prints
its totals and tables; that a ``repro store serve`` killed between
batches loses only read recency; that ``repro dashboard`` exits 0 on
SIGINT; and that a GRAPE ``repro serve`` forks its pool of worker
processes while its stdin reader waits, and takes the pool down with it
on SIGTERM.
"""

import json
import os
import queue
import signal
import socket
import subprocess
import sys
import threading
import urllib.request

import pytest

import repro
from repro.perf.instrument import PerfRecorder
from repro.service import CompileService, PulseStore, RemoteStore, StoreServer
from repro.service.service import engine_fingerprint
from repro.service.store import key_digest
from repro.utils.config import PipelineConfig
from repro.workloads import qft

WAIT_S = 60.0
ENV = dict(
    os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__))
)


class _Child:
    """One ``python -m repro`` process. stdout lines land on a queue, so
    every read has a timeout; stderr goes to a log quoted on failure."""

    def __init__(self, log_path, args):
        self.log_path = log_path
        with open(log_path, "w") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", *args],
                env=ENV, stdout=subprocess.PIPE, stderr=log, text=True,
            )
        self.lines = queue.Queue()
        threading.Thread(target=self._pump, daemon=True).start()

    def _pump(self):
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def log(self):
        with open(self.log_path) as handle:
            return handle.read()

    def line(self):
        """The next stdout line as JSON."""
        try:
            line = self.lines.get(timeout=WAIT_S)
        except queue.Empty:
            raise AssertionError(f"no stdout line in {WAIT_S}s:\n{self.log()}")
        assert line is not None, f"exited before printing:\n{self.log()}"
        return json.loads(line)

    def wait(self):
        return self.proc.wait(timeout=WAIT_S)


@pytest.fixture
def spawn(tmp_path):
    children = []

    def start(name, *args):
        child = _Child(tmp_path / f"{name}.log", args)
        children.append(child)
        return child

    yield start
    for child in children:
        if child.proc.poll() is None:
            child.proc.kill()
            child.proc.wait()


def _repro(*args):
    """Run one ``python -m repro`` command to completion."""
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=ENV, capture_output=True, text=True, timeout=WAIT_S,
    )


def _ask(address, payloads):
    """Send each payload on its own connection before reading any answer,
    so the requests are in flight together; answers in payload order."""
    host, port = address.rsplit(":", 1)
    socks = [
        socket.create_connection((host, int(port)), timeout=WAIT_S)
        for _ in payloads
    ]
    try:
        for sock, payload in zip(socks, payloads):
            sock.sendall((json.dumps(payload) + "\n").encode())
        return [json.loads(sock.makefile().readline()) for sock in socks]
    finally:
        for sock in socks:
            sock.close()


def test_remote_fleet_serves_from_store_and_exits_clean(tmp_path, spawn):
    """Store server, front door and one worker as three processes: two
    racing clients cause one solve per group, later requests solve
    nothing, and every process exits 0 on its shutdown verb."""
    expected = CompileService(
        PulseStore(str(tmp_path / "ref")),
        PipelineConfig(policy_name="map2b4l"),
        backend="serial",
    ).submit_batch([qft(5)]).n_compiled
    root = str(tmp_path / "pulses")

    store = spawn("store", "store", "serve", "--root", root, "--port", "0")
    store_addr = store.line()["serving"]
    server = spawn(
        "serve", "serve", "--store", f"remote://{store_addr}",
        "--workers", "remote", "--port", "0",
        "--max-batch", "1", "--window-ms", "0",
    )
    fabric_addr = server.line()["workers"]
    serve_addr = server.line()["serving"]
    worker = spawn("worker", "worker", "--connect", fabric_addr)

    request = {"name": "qft_5"}
    first = _ask(serve_addr, [dict(request, id="a"), dict(request, id="b")])
    assert all(r["ok"] for r in first), first
    assert sum(r["compiled_groups"] for r in first) == expected > 0
    racing = _ask(serve_addr, [dict(request, id="c"), dict(request, id="d")])
    alone = _ask(serve_addr, [dict(request, id="e")])
    for answer in racing + alone:
        assert answer["ok"], answer
        assert answer["compiled_groups"] == 0, answer
        assert answer["store"]["degraded"] == 0, answer
    # A lone request covers every group with its own store read. One of a
    # racing pair may wait on its twin's read instead: those groups count
    # as coalesced, not covered.
    assert alone[0]["coverage_rate"] == 1.0, alone

    _ask(serve_addr, [{"cmd": "shutdown"}])
    assert server.wait() == 0, server.log()
    # the worker sees the fabric hang up, reports its parts and exits 0
    assert worker.wait() == 0, worker.log()
    assert worker.line()["parts"] > 0
    assert _ask(store_addr, [{"op": "shutdown"}])[0]["ok"]
    assert store.wait() == 0, store.log()

    # every unique group reached the store server's disk
    stats = _repro("store", "stats", "--store", root, "--json")
    assert stats.returncode == 0, stats.stderr
    assert json.loads(stats.stdout)["entries"] == first[0]["n_unique"]
    table = _repro("store", "stats", "--store", root)
    assert table.returncode == 0, table.stderr
    assert f"repro store stats — {root}:" in table.stdout
    assert "merged:" in table.stdout


def _manifest_rows(root):
    with open(os.path.join(root, "manifest.json")) as handle:
        return json.load(handle)["entries"]


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals only")
@pytest.mark.parametrize("end", ["sigkill", "shutdown"])
def test_store_server_killed_between_batches_loses_only_read_recency(
    tmp_path, spawn, end
):
    """A cold batch, then a warm one that makes no ``flush`` RPC, against a
    ``repro store serve`` child. Killed with SIGKILL, the root reopens with
    every entry the cold batch wrote, each with its manifest row, no
    orphan entry file and the engine fingerprint: the manifest is the one
    the cold batch flushed, so the warm batch's recency bumps are the only
    state lost. Ended by the ``shutdown`` op, the server flushes them."""
    root = str(tmp_path / "pulses")
    child = spawn("store", "store", "serve", "--root", root, "--port", "0")
    address = child.line()["serving"]
    perf = PerfRecorder()
    client = RemoteStore(f"remote://{address}", perf=perf)
    try:
        service = CompileService(
            client, PipelineConfig(policy_name="map2b4l"), backend="serial"
        )
        cold = service.submit_batch([qft(5)])
        written = cold.n_compiled + cold.n_trivial
        assert cold.n_compiled > 0 and written == cold.n_unique
        assert perf.counters["store.remote.ops.flush"] == 1
        flushed = _manifest_rows(root)
        warm = service.submit_batch([qft(5)])
        assert warm.n_compiled == warm.n_trivial == 0
        assert perf.counters["store.remote.ops.flush"] == 1
    finally:
        client.close()
    if end == "sigkill":
        child.proc.send_signal(signal.SIGKILL)
        assert child.wait() == -signal.SIGKILL
    else:
        assert _ask(address, [{"op": "shutdown"}])[0]["ok"]
        assert child.wait() == 0, child.log()

    reopened = PulseStore(root)
    rows = _manifest_rows(root)
    entry_files = {
        name[: -len(".json")]
        for name in os.listdir(os.path.join(root, "entries"))
    }
    assert len(reopened) == written
    assert {key_digest(key) for key in reopened.keys()} == set(rows)
    assert set(rows) == entry_files == set(flushed)
    assert reopened.fingerprints() == [engine_fingerprint(service.engine)]
    if end == "sigkill":
        assert rows == flushed
    else:
        for digest, row in rows.items():
            assert row["recency"] > flushed[digest]["recency"]
            assert dict(row, recency=0) == dict(flushed[digest], recency=0)


@pytest.mark.skipif(sys.platform == "win32", reason="POSIX signals only")
def test_dashboard_exits_zero_on_sigint(tmp_path, spawn):
    server = StoreServer(PulseStore(str(tmp_path / "store"))).start()
    try:
        # A child inherits an ignored SIGINT (a run started as a shell's
        # background job ignores it), and Python then raises no
        # KeyboardInterrupt. While a handler is installed here, exec
        # resets the child's SIGINT to the default instead.
        previous = signal.signal(signal.SIGINT, signal.default_int_handler)
        try:
            dash = spawn(
                "dashboard", "dashboard", "--store",
                f"remote://{server.address}", "--port", "0",
            )
        finally:
            signal.signal(signal.SIGINT, previous)
        address = dash.line()["dashboard"]
        health = urllib.request.urlopen(
            f"http://{address}/healthz", timeout=WAIT_S
        ).read()
        assert json.loads(health) == {"ok": True}
        dash.proc.send_signal(signal.SIGINT)
        assert dash.wait() == 0, dash.log()
    finally:
        server.stop()


def _children_of(pid):
    """Pids whose parent is ``pid``, read from /proc."""
    children = set()
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as handle:
                ppid = int(handle.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue  # exited meanwhile
        if ppid == pid:
            children.add(int(name))
    return children


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
def test_grape_serve_reaps_its_pool_on_sigterm(tmp_path, spawn):
    """``repro serve --engine grape --backend process --workers 2`` forks
    its two pool workers for the first request, and on SIGTERM drains,
    prints its final stats, exits 0 and leaves no worker behind, zombies
    included."""
    serve = spawn(
        "serve", "serve", "--store", str(tmp_path / "store"),
        "--engine", "grape", "--backend", "process", "--workers", "2",
        "--port", "0",
    )
    address = serve.line()["serving"]
    (reply,) = _ask(address, [{"id": "r1", "name": "qft_3"}])
    assert reply["ok"] and reply["compiled_groups"] >= 2, reply
    workers = _children_of(serve.proc.pid)
    assert len(workers) == 2, serve.log()
    serve.proc.send_signal(signal.SIGTERM)
    assert serve.wait() == 0, serve.log()
    assert serve.line()["final_stats"]["served_requests"] == 1
    assert not [pid for pid in workers if os.path.exists(f"/proc/{pid}")]
    # End of stdout: no worker still holds the server's stdout pipe.
    assert serve.lines.get(timeout=WAIT_S) is None
    serve.proc.stdout.close()


def test_grape_serve_over_stdin_forks_its_pool_while_the_reader_waits(tmp_path):
    """Over stdin a reader thread sits in ``readline``, holding stdin's
    lock, when the first GRAPE batch forks the pool. The workers must
    start anyway (a forked child closes its inherited stdin as it starts,
    which would wait on that lock forever), answer, and exit with the
    server when stdin closes."""
    with open(tmp_path / "serve.log", "w") as log, subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--store",
         str(tmp_path / "store"), "--engine", "grape", "--workers", "2"],
        env=ENV, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=log, text=True,
    ) as proc:
        lines = queue.Queue()
        threading.Thread(
            target=lambda: lines.put(proc.stdout.readline()), daemon=True
        ).start()
        try:
            proc.stdin.write(json.dumps({"id": "r1", "name": "qft_3"}) + "\n")
            proc.stdin.flush()
            try:
                reply = json.loads(lines.get(timeout=WAIT_S))
            except queue.Empty:
                raise AssertionError((tmp_path / "serve.log").read_text())
            assert reply["ok"] and reply["compiled_groups"] >= 2, reply
            proc.stdin.close()
            assert proc.wait(timeout=WAIT_S) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
