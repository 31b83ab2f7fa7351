"""Store-server protocol error paths and the batched get_many/put_many verbs.

The contract under test: a protocol error is an *answered line* — carrying
``ok: false``, a ``kind``, and the echoed ``op`` for correlation — never a
dropped connection. The same socket must keep serving after every refusal.
"""

import json
import socket

import pytest

from repro.service import CompileService, PulseStore, StoreServer
from repro.service.storeserver import MAX_BATCH_KEYS, decode_entry
from repro.utils.config import PipelineConfig
from repro.workloads import qft


@pytest.fixture
def served(tmp_path):
    store = PulseStore(str(tmp_path / "served"))
    server = StoreServer(store).start()
    yield server, store
    server.stop()


class _Client:
    """One raw protocol connection: send a JSON (or raw) line, read one."""

    def __init__(self, server: StoreServer):
        self.sock = socket.create_connection(
            ("127.0.0.1", server.port), timeout=10
        )
        self.stream = self.sock.makefile("rwb")

    def ask(self, payload) -> dict:
        line = payload if isinstance(payload, bytes) else (
            json.dumps(payload).encode()
        )
        self.stream.write(line + b"\n")
        self.stream.flush()
        reply = self.stream.readline()
        assert reply, "server dropped the connection instead of answering"
        return json.loads(reply)

    def close(self):
        self.stream.close()
        self.sock.close()


def _populate(tmp_path, store):
    """A few real entries via a service batch; returns their keys."""
    service = CompileService(
        PulseStore(str(tmp_path / "feed")),
        PipelineConfig(policy_name="map2b4l"),
        backend="serial",
    )
    service.submit_batch([qft(4)])
    entries = [service.store.peek_key(k) for k in service.store.keys()]
    for entry in entries:
        store.put(entry, flush=False)
    store.flush()
    return [e.group.key() for e in entries]


# ------------------------------------------------------------- error paths
def test_unknown_verb_is_answered_and_correlatable(served):
    server, _ = served
    client = _Client(server)
    try:
        reply = client.ask({"op": "defragment"})
        assert reply["ok"] is False
        assert reply["kind"] == "bad-request"
        assert reply["op"] == "defragment"  # correlatable refusal
        assert "defragment" in reply["error"]
        assert client.ask({"op": "ping"})["ok"] is True  # still serving
    finally:
        client.close()


def test_non_json_and_opless_lines_are_answered(served):
    server, _ = served
    client = _Client(server)
    try:
        reply = client.ask(b"this is not json {{{")
        assert reply["ok"] is False and reply["kind"] == "bad-request"
        reply = client.ask({"hello": "no op here"})
        assert reply["ok"] is False and reply["kind"] == "bad-request"
        assert client.ask({"op": "ping"})["ok"] is True
    finally:
        client.close()


def test_truncated_base64_frame_is_answered_not_dropped(served):
    server, store = served
    client = _Client(server)
    try:
        # A valid put payload with its frame cut mid-base64: the server
        # must answer a correlatable bad-request, not kill the connection.
        reply = client.ask({"op": "put", "entry": "eyJrZXkiOiAi", "flush": True})
        assert reply["ok"] is False
        assert reply["kind"] == "bad-request"
        assert reply["op"] == "put"
        # ... same for garbage that is not base64 at all
        reply = client.ask({"op": "put", "entry": "!!not-base64!!"})
        assert reply["ok"] is False and reply["kind"] == "bad-request"
        assert len(store) == 0  # nothing half-written
        assert client.ask({"op": "ping"})["ok"] is True
    finally:
        client.close()


def test_non_string_entry_payloads_are_bad_requests(served):
    server, store = served
    client = _Client(server)
    try:
        # An entry that is not a base64 string is the client's error: a
        # correlatable bad-request, never a kind="server" store failure.
        for frame in (
            {"op": "put_many", "entries": [1]},
            {"op": "put", "entry": None},
        ):
            reply = client.ask(frame)
            assert reply["ok"] is False
            assert reply["kind"] == "bad-request", reply
            assert reply["op"] == frame["op"]
        assert len(store) == 0  # nothing half-written
        assert client.ask({"op": "ping"})["ok"] is True  # still serving
    finally:
        client.close()


def test_get_many_empty_and_oversized_lists_are_refused(served):
    server, _ = served
    client = _Client(server)
    try:
        reply = client.ask({"op": "get_many", "keys": []})
        assert reply["ok"] is False
        assert reply["kind"] == "bad-request"
        assert reply["op"] == "get_many"

        reply = client.ask(
            {"op": "get_many", "keys": ["00" * 8] * (MAX_BATCH_KEYS + 1)}
        )
        assert reply["ok"] is False
        assert reply["kind"] == "bad-request"
        assert str(MAX_BATCH_KEYS) in reply["error"]

        reply = client.ask({"op": "get_many", "keys": "not-a-list"})
        assert reply["ok"] is False and reply["kind"] == "bad-request"

        reply = client.ask({"op": "get_many", "keys": ["zz-not-hex"]})
        assert reply["ok"] is False and reply["kind"] == "bad-request"

        reply = client.ask({"op": "put_many", "entries": []})
        assert reply["ok"] is False and reply["op"] == "put_many"

        assert client.ask({"op": "ping"})["ok"] is True
    finally:
        client.close()


# ----------------------------------------------------------- batched verbs
def test_get_many_answers_aligned_with_keys(served, tmp_path):
    server, store = served
    keys = _populate(tmp_path, store)
    client = _Client(server)
    try:
        asked = [keys[0].hex(), (b"\x00" * 8).hex(), keys[-1].hex()]
        reply = client.ask({"op": "get_many", "keys": asked})
        assert reply["ok"] is True
        assert len(reply["entries"]) == 3
        assert reply["entries"][1] is None  # the made-up key, in place
        first = decode_entry(reply["entries"][0])
        assert first.group.key() == keys[0]
        last = decode_entry(reply["entries"][2])
        assert last.group.key() == keys[-1]
    finally:
        client.close()


def test_keys_digest_matches_local_digest(served, tmp_path):
    server, store = served
    from repro.service.storeserver import digest_keys

    client = _Client(server)
    try:
        # Empty store first: a well-defined digest over zero keys.
        reply = client.ask({"op": "keys_digest"})
        assert reply["ok"] is True
        assert reply["n"] == 0
        assert reply["digest"] == digest_keys([])

        keys = _populate(tmp_path, store)
        reply = client.ask({"op": "keys_digest"})
        assert reply["ok"] is True
        assert reply["n"] == len(keys)
        assert reply["digest"] == digest_keys(store.keys())
        # Order-independence: any permutation hashes identically.
        assert reply["digest"] == digest_keys(reversed(list(store.keys())))
    finally:
        client.close()


def test_stats_reply_carries_uptime_and_snapshot_seq(served, tmp_path):
    server, store = served
    _populate(tmp_path, store)
    client = _Client(server)
    try:
        first = client.ask({"op": "stats"})
        assert first["ok"] is True
        assert first["uptime_s"] >= 0.0
        second = client.ask({"op": "stats"})
        # The seq is server-side state: it must strictly increase across
        # polls (a restarted server starts over — the poller's restart
        # detector keys off exactly this plus an uptime regression).
        assert second["snapshot_seq"] == first["snapshot_seq"] + 1
        assert second["uptime_s"] >= first["uptime_s"]
        # The observability stamps ride along with the counters.
        assert first["fingerprints"] == store.fingerprints()
        assert first["non_converged"] is not None
    finally:
        client.close()


def test_put_many_round_trips_through_get_many(served, tmp_path):
    server, store = served
    client = _Client(server)
    try:
        feeder = PulseStore(str(tmp_path / "other"))
        keys = _populate(tmp_path, feeder)
        # Re-frame the feeder's entries into one put_many line.
        from repro.service.storeserver import encode_entry

        payload = [encode_entry(feeder.peek_key(k)) for k in keys]
        reply = client.ask(
            {"op": "put_many", "entries": payload, "flush": True}
        )
        assert reply["ok"] is True and reply["n"] == len(keys)
        assert len(store) == len(keys)
        reply = client.ask(
            {"op": "get_many", "keys": [k.hex() for k in keys]}
        )
        assert all(e is not None for e in reply["entries"])
        # durably: a fresh store over the same directory sees every entry
        assert len(PulseStore(store.root)) == len(keys)
    finally:
        client.close()
