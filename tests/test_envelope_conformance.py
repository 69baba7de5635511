"""One envelope, three servers: the same raw frames sent to an
``RpcServer``, a ``LogPublisher`` and a live shard worker process must
get the same envelope behaviour, because all three answer through
``repro.serving.rpc.Dispatcher``.  Also covers the blocking client's
reply pairing (a late reply must not poison the connection).
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import multiprocessing
import socket
import threading

import pytest

from repro.cluster.remote import _shard_worker_main
from repro.core.ontology import AttentionOntology, NodeType
from repro.errors import ReproError
from repro.replication import DeltaLog, PublisherThread
from repro.replication.follower import SyncLogClient
from repro.serving import AsyncOntologyService, OntologyService
from repro.serving.rpc import (
    _MAX_FRAME,
    RpcServer,
    loads_envelope,
    read_frame_sync,
    write_frame_sync,
)


def _ontology() -> AttentionOntology:
    producer = AttentionOntology()
    producer.begin_delta("build")
    producer.add_node(NodeType.CONCEPT, "space probes")
    producer.add_node(NodeType.ENTITY, "voyager")
    return producer


@contextlib.contextmanager
def _rpc_server(_tmp_path):
    """An RpcServer on a private event-loop thread."""
    started = threading.Event()
    state = {}

    async def main():
        async with AsyncOntologyService(OntologyService(_ontology())) as aio:
            server = RpcServer(aio)
            state["address"] = await server.start()
            state["loop"] = asyncio.get_running_loop()
            state["stop"] = asyncio.Event()
            started.set()
            await state["stop"].wait()
            await server.close()

    thread = threading.Thread(target=lambda: asyncio.run(main()), daemon=True)
    thread.start()
    assert started.wait(30.0)
    try:
        yield state["address"], "stats"
    finally:
        state["loop"].call_soon_threadsafe(state["stop"].set)
        thread.join(30.0)


@contextlib.contextmanager
def _publisher(tmp_path):
    producer = _ontology()
    log = DeltaLog(tmp_path / "log")
    log.append(producer.commit_delta())
    with log, PublisherThread(log) as publisher:
        yield publisher.address, "log_status"


@contextlib.contextmanager
def _shard_worker(tmp_path):
    """A live worker process; this test is the one peer it accepts."""
    with _publisher(tmp_path) as (publisher_address, _method):
        context = multiprocessing.get_context("spawn")
        ready = context.Queue()
        process = context.Process(
            target=_shard_worker_main,
            args=(0, 1, *publisher_address, ready, 60.0), daemon=True)
        process.start()
        try:
            kind, _shard, port = ready.get(timeout=120.0)
            assert kind == "ready", port
            yield ("127.0.0.1", port), "describe"
        finally:
            process.join(timeout=10.0)  # EOF on its connection ends it
            if process.is_alive():
                process.kill()
                process.join(timeout=10.0)


@pytest.fixture(params=[_rpc_server, _publisher, _shard_worker],
                ids=["rpc_server", "log_publisher", "shard_worker"])
def peer(request, tmp_path):
    """A raw socket to one live server plus a zero-argument method its
    table answers."""
    with request.param(tmp_path) as (address, method):
        with socket.create_connection(address, timeout=30.0) as sock:
            yield sock, method


def _exchange(sock, body: bytes) -> "tuple[bytes, dict]":
    write_frame_sync(sock, body)
    frame = read_frame_sync(sock)
    assert frame is not None, "server closed the connection"
    return frame, loads_envelope(frame)


def _request(request_id, method, **extra) -> bytes:
    return json.dumps(dict({"id": request_id, "method": method}, **extra)
                      ).encode("utf-8")


def test_malformed_bodies_get_null_id_errors_and_connection_survives(peer):
    sock, method = peer
    for garbage in (b"\x00not json at all", b"[1, 2, 3]", b'"a string"'):
        _frame, reply = _exchange(sock, garbage)
        assert reply["id"] is None
        assert set(reply["error"]) == {"type", "message"}
    _frame, reply = _exchange(sock, _request(5, method))
    assert reply["id"] == 5 and "result" in reply


def test_unknown_method_is_a_typed_error_with_the_id_echoed(peer):
    sock, method = peer
    for name in ("no_such_method", "_execute", "negotiate", None,
                 ["a", "list"]):
        _frame, reply = _exchange(sock, _request(7, name))
        assert reply["id"] == 7
        assert reply["error"]["type"] == "ReproError"
        assert "unknown" in reply["error"]["message"]
        assert "method" in reply["error"]["message"]
    # Arguments the codec refuses are an error reply, id still echoed.
    _frame, reply = _exchange(sock, _request(
        8, method, args=[{"__dc__": "NoSuchDataclass", "f": {}}]))
    assert reply["id"] == 8 and "error" in reply
    _frame, reply = _exchange(sock, _request(9, method))
    assert reply["id"] == 9 and "result" in reply


def test_trace_key_accepted_and_unknown_keys_ignored(peer):
    sock, method = peer
    for request_id, extra in enumerate((
            {"trace": {"tid": "t-conformance", "sid": "s1"}},
            {"trace": "malformed"},
            {"stamp": True, "session": "s-1"},
            {"frobnicate": {"from": "a newer peer"}, "args": [],
             "kwargs": {}})):
        _frame, reply = _exchange(sock, _request(request_id, method, **extra))
        assert reply["id"] == request_id
        assert "result" in reply, reply


def test_oversized_frame_header_closes_the_connection(peer):
    sock, _method = peer
    sock.sendall((_MAX_FRAME + 1).to_bytes(4, "big"))
    try:
        assert sock.recv(1) == b""
    except ConnectionResetError:
        pass  # closed with our bytes unread: a reset, still closed


# ----------------------------------------------------------------------
# blocking client: replies pair by id, late ones are dropped
# ----------------------------------------------------------------------
def test_late_reply_after_a_timeout_does_not_poison_the_connection():
    """The stub answers request 0 only after the client gave up on it;
    request 1 must still get *its* reply, not the stale one."""
    server = socket.create_server(("127.0.0.1", 0))
    server.settimeout(30.0)

    def serve():
        conn, _addr = server.accept()
        with conn:
            first = json.loads(read_frame_sync(conn))
            second = json.loads(read_frame_sync(conn))
            for request, answer in ((first, "late"), (second, "on time")):
                write_frame_sync(conn, json.dumps(
                    {"id": request["id"],
                     "result": {"log": answer}}).encode("utf-8"))

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    client = SyncLogClient.connect(*server.getsockname(), timeout=1.0)
    try:
        with pytest.raises(ReproError, match="unavailable"):
            client.status()  # request 0 times out client-side
        assert client.status() == {"log": "on time"}
    finally:
        client.close()
        server.close()
        thread.join(10.0)
