"""Length-prefixed JSON RPC for the async serving tier.

A thin wire protocol so serving replicas can sit behind a real socket —
the reproduction's stand-in for the production deployment's Tars RPC:

* **Framing** — each message is a 4-byte big-endian length followed by
  a UTF-8 JSON body (canonical form: sorted keys, compact separators),
  so both sides parse without delimiters or chunking heuristics.
* **Codec** — serving results are dataclasses (``TaggedDocument``,
  ``QueryAnalysis``, ``EventRecord``, ``InterestProfile``,
  ``OntologyDelta``) holding tuples/sets JSON cannot express; the codec
  type-tags them (``{"__dc__": ...}``, ``{"__tuple__": ...}``,
  ``{"__set__": ...}``, ``{"__enum__": ...}``) and reconstructs the
  exact objects on decode.  ``dumps(sync_result) == dumps(rpc_result)``
  is the tests' byte-identity oracle between the sync service and the
  wire (black-box consistency checking).
* **Envelope** (DESIGN.md §7) — requests are ``{"id", "method",
  "args", "kwargs"}`` plus the optional ``"trace"`` / ``"session"`` /
  ``"stamp"`` keys; responses carry ``"result"`` or ``"error":
  {"type", "message"}``.  :func:`parse_request`, :class:`Dispatcher`
  and :func:`encode_envelope` are the only server-side implementation:
  :class:`RpcServer` here, the log publisher and the shard workers each
  bring a method table and a transport shim (:class:`StreamServer` for
  asyncio, :func:`serve_blocking` for a blocking socket).
* **Clients** — :class:`RpcClient` (asyncio) and
  :class:`BlockingRpcClient` pipeline requests by id over one
  connection; an error reply is raised through :func:`wire_error`
  (:class:`RpcError`, carrying the original exception type name).
"""

from __future__ import annotations

import asyncio
import dataclasses
import enum
import inspect
import json
import socket
from typing import Any, Callable

from ..apps.profiles import InterestProfile
from ..apps.query import QueryAnalysis
from ..apps.story_tree import EventRecord
from ..apps.tagging import TaggedDocument
from ..core.store import (
    AttentionNode,
    Edge,
    EdgeType,
    NodeType,
    OntologyDelta,
)
from ..errors import (
    DeltaGapError,
    OntologyError,
    ReproError,
    RingEpochError,
)
from ..obs.metrics import MetricsRegistry, get_registry
from ..obs.recorder import get_recorder
from ..obs.tracing import TraceContext, current_context, get_tracer
from .aio import SERVING_METHODS, AsyncOntologyService

_MAX_FRAME = 64 * 1024 * 1024  # sanity bound on one message
_ESCAPE = "__esc__"  # prefix shielding user dict keys from codec markers

#: First bytes of a :func:`dumps_binary` message.  0xB1 cannot start
#: UTF-8 JSON (it is a continuation byte), so sniffing is unambiguous.
BINARY_MAGIC = b"\xb1\xc5"
BINARY_CODEC_VERSION = 1

_DATACLASSES = {cls.__name__: cls for cls in (
    TaggedDocument, QueryAnalysis, EventRecord, InterestProfile,
    OntologyDelta, AttentionNode, Edge,
)}
_ENUMS = {cls.__name__: cls for cls in (EdgeType, NodeType)}


def register_dataclass(cls: type) -> type:
    """Register an extra dataclass with the wire codec.

    The codec only round-trips the dataclasses it knows by name; layers
    above the serving tier (e.g. the cluster's rebalance
    ``TransferSlice`` frames, cluster/ring.py) register theirs at import
    time instead of this module importing them — which would invert the
    dependency.  Re-registering the same class is a no-op; a *different*
    class under an already-taken name is rejected, since decode
    dispatches on the name alone.
    """
    existing = _DATACLASSES.get(cls.__name__)
    if existing is not None and existing is not cls:
        raise ReproError(
            f"codec name {cls.__name__!r} is already registered to a "
            f"different dataclass")
    _DATACLASSES[cls.__name__] = cls
    return cls


class RpcError(ReproError):
    """A server-side failure reported back over the wire."""

    def __init__(self, error_type: str, message: str) -> None:
        super().__init__(f"{error_type}: {message}")
        self.error_type = error_type
        self.message = message


# ----------------------------------------------------------------------
# codec
# ----------------------------------------------------------------------
def encode(obj: Any) -> Any:
    """Lower ``obj`` to JSON-representable form, type-tagging what JSON
    cannot express (tuples, sets, enums, known dataclasses)."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, enum.Enum):
        if type(obj).__name__ not in _ENUMS:
            raise ReproError(f"cannot encode enum {type(obj).__name__}")
        return {"__enum__": type(obj).__name__, "v": obj.value}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        name = type(obj).__name__
        if name not in _DATACLASSES:
            raise ReproError(f"cannot encode dataclass {name}")
        fields = {f.name: encode(getattr(obj, f.name))
                  for f in dataclasses.fields(obj)}
        return {"__dc__": name, "f": fields}
    if isinstance(obj, tuple):
        return {"__tuple__": [encode(item) for item in obj]}
    if isinstance(obj, set):
        # Sort by canonical JSON text: element order is deterministic
        # even when encoded elements are dicts or of mixed types.
        return {"__set__": sorted(
            (encode(item) for item in obj),
            key=lambda value: json.dumps(value, sort_keys=True))}
    if isinstance(obj, list):
        return [encode(item) for item in obj]
    if isinstance(obj, dict):
        out = {}
        for key, value in obj.items():
            if not isinstance(key, str):
                raise ReproError(f"cannot encode dict key {key!r}")
            if key.startswith("__"):
                # Payload dicts are arbitrary: escape dunder keys so
                # they can't collide with the codec's type markers.
                key = _ESCAPE + key
            out[key] = encode(value)
        return out
    raise ReproError(f"cannot encode {type(obj).__name__} for RPC")


def decode(obj: Any) -> Any:
    """Inverse of :func:`encode`: rebuild the exact Python objects."""
    if isinstance(obj, list):
        return [decode(item) for item in obj]
    if isinstance(obj, dict):
        if "__tuple__" in obj:
            return tuple(decode(item) for item in obj["__tuple__"])
        if "__set__" in obj:
            return {decode(item) for item in obj["__set__"]}
        if "__enum__" in obj:
            return _ENUMS[obj["__enum__"]](obj["v"])
        if "__dc__" in obj:
            cls = _DATACLASSES[obj["__dc__"]]
            return cls(**{key: decode(value)
                          for key, value in obj["f"].items()})
        return {(key[len(_ESCAPE):] if key.startswith(_ESCAPE) else key):
                decode(value)
                for key, value in obj.items()}
    return obj


def _canonical_bytes(obj: Any) -> bytes:
    """The wire's canonical JSON form of an already-encoded value."""
    return json.dumps(obj, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def dumps(obj: Any) -> bytes:
    """Canonical wire bytes for ``obj`` (the byte-identity oracle)."""
    return _canonical_bytes(encode(obj))


def loads(data: bytes) -> Any:
    return decode(json.loads(data.decode("utf-8")))


# The packed binary codec below never goes on a socket: every reply is
# canonical JSON.  It stays as a codec only because bench/layers.py
# times it (``serving.rpc.reply_{encode,decode}_binary_us``) against
# ``dumps``/``loads``; it goes with the next change to the benchmark.
def is_binary_frame(data: bytes) -> bool:
    """True when ``data`` is a :func:`dumps_binary` message."""
    return data[:len(BINARY_MAGIC)] == BINARY_MAGIC


def dumps_binary(obj: Any) -> bytes:
    """Packed binary bytes for ``obj`` — magic, codec version, then
    a :mod:`repro.core.columnar` message (string pool + tagged value)
    over the same registered dataclass/enum tables as the JSON codec.
    Unlike :func:`dumps` the value goes in *raw* (no :func:`encode`
    lowering): the columnar codec carries tuples/sets/dataclasses
    natively, so :func:`loads_binary` returns the final objects."""
    from ..core.columnar import encode_message

    return (BINARY_MAGIC + bytes([BINARY_CODEC_VERSION])
            + encode_message(obj, _DATACLASSES, _ENUMS))


def loads_binary(data: bytes) -> Any:
    """Inverse of :func:`dumps_binary`; rejects version skew loudly."""
    from ..core.columnar import decode_message

    if not is_binary_frame(data):
        raise ReproError("not a binary RPC frame")
    version = data[len(BINARY_MAGIC)]
    if version != BINARY_CODEC_VERSION:
        raise ReproError(
            f"unsupported binary codec version {version} "
            f"(this side speaks {BINARY_CODEC_VERSION})")
    return decode_message(data[len(BINARY_MAGIC) + 1:],
                          _DATACLASSES, _ENUMS)


def loads_envelope(frame: bytes) -> dict:
    """Decode one response envelope into a dict whose ``result`` (when
    present) is fully decoded Python objects."""
    body = json.loads(frame.decode("utf-8"))
    if "result" in body:
        body["result"] = decode(body["result"])
    return body


def encode_envelope(request_id, result: Any, error: "dict | None",
                    stamp: "dict | None" = None) -> bytes:
    """One canonical-JSON response envelope.  A result :func:`encode`
    cannot lower degrades to an error envelope rather than killing the
    connection.  ``stamp`` (the consistency auditor's read stamp: the
    backend version the call was answered at, plus the caller's session
    id) rides as an extra plain-dict key, mirroring how ``"trace"``
    rides requests."""
    if error is None:
        try:
            body = {"id": request_id, "result": encode(result)}
            if stamp is not None:
                body["stamp"] = stamp
            return _canonical_bytes(body)
        except Exception as exc:
            error = _error_body(exc)
    return _canonical_bytes({"id": request_id, "error": error})


def _error_body(exc: Exception) -> dict:
    """The one exception -> wire error mapping (:func:`wire_error` is
    the way back)."""
    return {"type": type(exc).__name__, "message": str(exc)}


def parse_request(frame: bytes) -> tuple:
    """Frame body -> ``(id, method, args, kwargs, trace, session,
    want_stamp)``.  Requests are always JSON (they are small; replies
    carry the bulk).  Every key but ``id``/``method`` is optional, so a
    peer that predates a key (or never learnt it) still interoperates:
    absent means empty / untraced / unstamped.  ``args``/``kwargs`` come
    back still codec-encoded — :func:`decode` can refuse them, and that
    error reply must still echo the id."""
    body = json.loads(frame.decode("utf-8"))
    if not isinstance(body, dict):
        raise ReproError("an RPC request must be a JSON object")
    return (body.get("id"), body.get("method"),
            body.get("args", []), body.get("kwargs", {}),
            TraceContext.from_wire(body.get("trace")),
            body.get("session"), bool(body.get("stamp")))


def build_request(request_id: int, method: str, args, kwargs: dict,
                  trace: "TraceContext | None" = None,
                  session: "str | None" = None,
                  stamp: bool = False) -> bytes:
    """Inverse of :func:`parse_request`; optional keys are omitted, not
    sent empty, so an untraced unstamped request is the four-key
    envelope every peer version understands."""
    envelope = {"id": request_id, "method": method,
                "args": encode(list(args)), "kwargs": encode(kwargs)}
    if stamp:
        envelope["stamp"] = True
    if session is not None:
        envelope["session"] = str(session)
    if trace is not None:
        envelope["trace"] = trace.to_wire()
    return _canonical_bytes(envelope)


#: Exception type names a client re-raises as that local class, because
#: callers recover by catching it (gap -> re-bootstrap, unknown node ->
#: "not on this shard"); each entry is also an :class:`RpcError`.
_WIRE_ERRORS = {cls.__name__: type(cls.__name__, (RpcError, cls), {})
                for cls in (DeltaGapError, RingEpochError, OntologyError)}


def wire_error(error: dict) -> RpcError:
    """The exception for a reply's ``"error"`` body: a
    :data:`_WIRE_ERRORS` class when the type name is in the table,
    plain :class:`RpcError` otherwise."""
    kind = str(error.get("type"))
    return _WIRE_ERRORS.get(kind, RpcError)(kind, str(error.get("message")))


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
async def read_frame(reader: asyncio.StreamReader) -> "bytes | None":
    """Read one length-prefixed frame; ``None`` on clean EOF."""
    try:
        header = await reader.readexactly(4)
    except asyncio.IncompleteReadError as exc:
        if exc.partial:
            raise ReproError("truncated RPC frame header") from exc
        return None
    length = int.from_bytes(header, "big")
    if length > _MAX_FRAME:
        raise ReproError(f"RPC frame of {length} bytes exceeds limit")
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ReproError("truncated RPC frame body") from exc


def write_frame(writer: asyncio.StreamWriter, payload: bytes) -> None:
    writer.write(len(payload).to_bytes(4, "big") + payload)


def read_frame_sync(sock) -> "bytes | None":
    """Blocking-socket twin of :func:`read_frame` (same wire layout)."""
    header = _recv_exactly(sock, 4)
    if header is None:
        return None
    length = int.from_bytes(header, "big")
    if length > _MAX_FRAME:
        raise ReproError(f"RPC frame of {length} bytes exceeds limit")
    body = _recv_exactly(sock, length)
    if body is None:
        raise ReproError("truncated RPC frame body")
    return body


def _recv_exactly(sock, count: int) -> "bytes | None":
    chunks = bytearray()
    while len(chunks) < count:
        chunk = sock.recv(count - len(chunks))
        if not chunk:
            if chunks:
                raise ReproError("truncated RPC frame")
            return None
        chunks.extend(chunk)
    return bytes(chunks)


def write_frame_sync(sock, payload: bytes) -> None:
    """Blocking-socket twin of :func:`write_frame`."""
    sock.sendall(len(payload).to_bytes(4, "big") + payload)


# ----------------------------------------------------------------------
# server: one dispatcher, two transport shims
# ----------------------------------------------------------------------
class Dispatcher:
    """Answers request frames from a **method table** — the one place a
    request envelope is parsed, dispatched, timed, traced, error-mapped
    and re-encoded (DESIGN.md §7).  A server is a table plus a transport
    shim (:class:`StreamServer` or :func:`serve_blocking`).

    Args:
        kind: names the table in the unknown-method error.
        methods: name -> callable; an awaitable result is awaited.
        metrics: the server's registry scope for the dispatcher series.
        span: span-name prefix (``<span>.<method>``); ``span_attrs``
            ride every span.
        timer: histogram name, ``{}`` replaced by the method label.
        stamped: ``async (method, *args, **kwargs) -> (result,
            version)``; with it a request carrying ``"stamp"`` gets a
            stamped reply, without it the key is ignored.
        anomalies: record ``rpc.error`` / ``rpc.slow_call`` recorder
            events (the serving tier's SLO symptoms; a publisher's
            long-poll is slow by design).

    Method names come off the wire: unknown ones share the ``unknown``
    metric label so a misbehaving peer cannot mint unbounded series.
    """

    def __init__(self, kind: str, methods: "dict[str, Callable]", metrics,
                 span: str, timer: str = "method.{}.seconds",
                 stamped: "Callable | None" = None, anomalies: bool = False,
                 **span_attrs: Any) -> None:
        self._kind = kind
        self._methods = methods
        self._metrics = metrics
        self._span = span
        self._span_attrs = span_attrs
        self._timer = timer
        self._stamped = stamped
        self._anomalies = anomalies
        self._connections = metrics.counter("connections")
        self._frames_in = metrics.counter("frames_in")
        self._frames_out = metrics.counter("frames_out")
        self._bytes_in = metrics.counter("bytes_in")
        self._bytes_out = metrics.counter("bytes_out")
        self._requests = metrics.counter("requests")
        self._errors = metrics.counter("errors")
        # Always 0 (no reply is binary); registered only because
        # bench/layers.py reads ``rpc.server.negotiated_binary`` by key.
        metrics.counter("negotiated_binary")
        self._inflight = metrics.gauge("inflight")

    def connect(self) -> None:
        """Count one accepted connection."""
        self._connections.inc()

    async def handle(self, frame: bytes) -> bytes:
        """One request frame in, its reply frame out; never raises."""
        self._frames_in.inc()
        self._bytes_in.inc(len(frame))
        self._inflight.add(1)
        request_id = None
        result: Any = None
        error = stamp = None
        label = "unknown"
        clock = self._metrics.registry.clock
        start = clock()
        try:
            request_id, method, args, kwargs, trace, session, want_stamp = \
                parse_request(frame)
            self._requests.inc()
            args, kwargs = decode(args), decode(kwargs)
            handler = self._methods.get(method) \
                if isinstance(method, str) else None
            if handler is not None:
                label = method
            with get_tracer().span(f"{self._span}.{label}",
                                   parent=trace,
                                   **self._span_attrs), \
                    self._metrics.time(self._timer.format(label)):
                if handler is None:
                    raise ReproError(
                        f"unknown {self._kind} method {method!r}")
                elif want_stamp and self._stamped is not None:
                    result, version = await self._stamped(
                        method, *args, **kwargs)
                    stamp = {"version": version}
                    if session is not None:
                        stamp["session"] = str(session)
                else:
                    result = handler(*args, **kwargs)
                    if inspect.isawaitable(result):
                        result = await result
        except Exception as exc:
            error = _error_body(exc)
            self._errors.inc()
            if self._anomalies:
                get_recorder().record(
                    "rpc.error", f"{self._span}.{label}", method=label,
                    error_type=error["type"], message=error["message"])
        else:
            elapsed = clock() - start
            if self._anomalies and \
                    elapsed >= get_recorder().slow_call_seconds:
                get_recorder().record(
                    "rpc.slow_call", f"{self._span}.{label}", method=label,
                    seconds=elapsed)
        finally:
            self._inflight.add(-1)
        payload = encode_envelope(request_id, result, error, stamp=stamp)
        self._frames_out.inc()
        self._bytes_out.inc(len(payload))
        return payload

    def handle_blocking(self, frame: bytes) -> bytes:
        """:meth:`handle` for a table of plain functions, run without an
        event loop: nothing in it suspends, so the coroutine finishes on
        its first step."""
        step = self.handle(frame)
        try:
            step.send(None)
        except StopIteration as done:
            return done.value
        step.close()
        raise ReproError(
            f"a {self._kind} method awaited inside a blocking server")


def serve_blocking(server, dispatcher: Dispatcher,
                   stopped: "Callable[[], bool]") -> None:
    """Blocking transport shim: accept one peer on the listening socket
    ``server`` and answer its frames in order until EOF, a broken or
    oversized frame, or ``stopped()`` turning true after a reply."""
    try:
        sock, _addr = server.accept()
    except OSError:
        return  # nobody connected within the socket's timeout
    dispatcher.connect()
    with sock:
        while not stopped():
            try:
                frame = read_frame_sync(sock)
                if frame is None:
                    break
                write_frame_sync(sock, dispatcher.handle_blocking(frame))
            except (OSError, ReproError):
                break  # peer vanished mid-frame or sent garbage


class StreamServer:
    """asyncio transport shim: a TCP listener whose connections read
    frames, await the dispatcher and write replies, up to
    ``max_inflight`` requests of one connection at a time (replies may
    overtake each other; clients pair by id).  Once full, the shim
    stops reading, the kernel buffers fill and a pipelining client
    blocks on its socket — backpressure reaches the wire instead of
    piling up as unbounded tasks."""

    def __init__(self, dispatcher: Dispatcher, host: str, port: int,
                 max_inflight: int = 1) -> None:
        if max_inflight <= 0:
            raise ReproError("max_inflight must be positive")
        self._dispatcher = dispatcher
        self._host = host
        self._port = port
        self._max_inflight = max_inflight
        self._server: "asyncio.AbstractServer | None" = None
        self._connections: "set[asyncio.Task]" = set()

    async def start(self) -> "tuple[str, int]":
        """Bind and listen; returns the bound (host, port)."""
        self._server = await asyncio.start_server(
            self._accept, self._host, self._port)
        sockname = self._server.sockets[0].getsockname()
        self._host, self._port = sockname[0], sockname[1]
        return self._host, self._port

    @property
    def address(self) -> "tuple[str, int]":
        return self._host, self._port

    async def serve_forever(self) -> None:
        await self._server.serve_forever()

    async def close(self) -> None:
        """Stop listening, then end every open connection and wait for
        its handler.  ``Server.wait_closed()`` does not wait for
        connection handlers on Python 3.11, and a peer may never hang
        up, so the handlers are cancelled rather than drained."""
        if self._server is not None:
            self._server.close()
            while self._connections:
                for task in self._connections:
                    task.cancel()
                await asyncio.gather(*self._connections,
                                     return_exceptions=True)
            await self._server.wait_closed()

    def _accept(self, reader: asyncio.StreamReader,
                writer: asyncio.StreamWriter) -> None:
        task = asyncio.ensure_future(self._serve(reader, writer))
        self._connections.add(task)
        task.add_done_callback(self._connections.discard)

    async def _serve(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        self._dispatcher.connect()
        write_lock = asyncio.Lock()
        inflight = asyncio.Semaphore(self._max_inflight)
        pending: "set[asyncio.Task]" = set()

        async def answer(frame: bytes) -> None:
            try:
                payload = await self._dispatcher.handle(frame)
                async with write_lock:
                    try:
                        write_frame(writer, payload)
                        await writer.drain()
                    except (ConnectionError, OSError):
                        pass  # client went away; nobody to reply to
            finally:
                inflight.release()

        try:
            while True:
                try:
                    frame = await read_frame(reader)
                except (ConnectionError, OSError, ReproError):
                    break  # client vanished mid-frame or sent garbage
                if frame is None:
                    break
                await inflight.acquire()
                task = asyncio.ensure_future(answer(frame))
                pending.add(task)
                task.add_done_callback(pending.discard)
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        except asyncio.CancelledError:
            # close(): drop replies the peer has not read instead of
            # waiting for a peer that may never read them.
            writer.transport.abort()
            raise
        finally:
            for task in pending:
                task.cancel()
            await asyncio.gather(*pending, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


class RpcServer(StreamServer):
    """Serves an :class:`AsyncOntologyService` over a TCP socket: the
    :data:`~repro.serving.aio.SERVING_METHODS` table, stamped replies,
    and up to ``max_inflight`` requests per connection in flight so
    mergeable calls micro-batch."""

    def __init__(self, service: AsyncOntologyService,
                 host: str = "127.0.0.1", port: int = 0,
                 max_inflight: int = 64,
                 registry: "MetricsRegistry | None" = None) -> None:
        registry = registry if registry is not None else get_registry()
        super().__init__(
            Dispatcher("RPC",
                       {name: getattr(service, name)
                        for name in SERVING_METHODS},
                       registry.scope("rpc.server"), span="rpc.server",
                       stamped=service.stamped, anomalies=True),
            host, port, max_inflight)


# ----------------------------------------------------------------------
# clients
# ----------------------------------------------------------------------
class BlockingRpcClient:
    """One blocking connection to a :class:`Dispatcher`-backed server:
    the socket, the request-id counter and reply parsing that log
    followers and shard proxies hold instead of owning.

    Requests pipeline: :meth:`begin_call` puts one on the wire,
    :meth:`finish_call` collects its reply; replies pair by id in any
    order, and one nobody waits for any more (its ``finish_call`` timed
    out) is dropped — a late answer cannot shift later calls onto the
    wrong reply.  ``unavailable`` builds the exception for a
    connection-level failure (send/receive error, timeout, EOF) from a
    detail string.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0,
                 unavailable: "Callable[[str], Exception] | None" = None
                 ) -> None:
        self._unavailable = unavailable or (
            lambda detail: ReproError(f"RPC peer unavailable: {detail}"))
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._next_id = 0
        self._awaited: "set[int]" = set()
        self._replies: "dict[int, dict]" = {}

    def begin_call(self, method: str, *args, **kwargs) -> int:
        """Dispatch one request without waiting for its reply.  The
        caller's trace context (if any) rides along, so the server's
        span becomes its child across the process boundary."""
        request_id = self._next_id
        self._next_id += 1
        payload = build_request(request_id, method, args, kwargs,
                                trace=current_context())
        try:
            write_frame_sync(self._sock, payload)
        except OSError as exc:
            raise self._unavailable(repr(exc)) from exc
        self._awaited.add(request_id)
        return request_id

    def finish_call(self, request_id: int,
                    timeout: "float | None" = None) -> Any:
        """Collect the reply of a :meth:`begin_call` (waiting up to
        ``timeout`` seconds instead of the connection's default, when
        given); raises :func:`wire_error` for an error reply."""
        previous = self._sock.gettimeout()
        try:
            if timeout is not None:
                self._sock.settimeout(timeout)
            while request_id not in self._replies:
                frame = read_frame_sync(self._sock)
                if frame is None:
                    raise self._unavailable("peer closed the connection")
                body = loads_envelope(frame)
                if body.get("id") in self._awaited:
                    self._replies[body["id"]] = body
        except OSError as exc:
            raise self._unavailable(repr(exc)) from exc
        finally:
            self._awaited.discard(request_id)
            if timeout is not None:
                self._sock.settimeout(previous)
        body = self._replies.pop(request_id)
        if body.get("error") is not None:
            raise wire_error(body["error"])
        return body["result"]

    def call(self, method: str, *args, **kwargs) -> Any:
        return self.finish_call(self.begin_call(method, *args, **kwargs))

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


class RpcClient:
    """Pipelined asyncio client for :class:`RpcServer` (one connection,
    many in-flight requests matched by id)."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter,
                 registry: "MetricsRegistry | None" = None) -> None:
        self._reader = reader
        self._writer = writer
        self._next_id = 0
        self._pending: "dict[int, asyncio.Future]" = {}
        # Request ids issued via call_stamped: their futures resolve to
        # (result, stamp) pairs instead of the bare result.
        self._stamped: "set[int]" = set()
        self._receiver = asyncio.ensure_future(self._receive_loop())
        self._write_lock = asyncio.Lock()
        registry = registry if registry is not None else get_registry()
        self._metrics = registry.scope("rpc.client")
        self._frames_in = self._metrics.counter("frames_in")
        self._frames_out = self._metrics.counter("frames_out")
        self._bytes_in = self._metrics.counter("bytes_in")
        self._bytes_out = self._metrics.counter("bytes_out")
        self._errors = self._metrics.counter("errors")
        self._inflight = self._metrics.gauge("inflight")

    @classmethod
    async def connect(cls, host: str, port: int,
                      registry: "MetricsRegistry | None" = None
                      ) -> "RpcClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer, registry=registry)

    async def call(self, method: str, *args, **kwargs) -> Any:
        """Invoke a serving method remotely; raises :class:`RpcError`
        on a server-reported failure."""
        return await self._invoke(method, args, kwargs)

    async def call_stamped(self, method: str, *args,
                           session: "str | None" = None,
                           **kwargs) -> "tuple[Any, dict | None]":
        """Invoke a serving method and ask the server to *stamp* the
        reply with the backend version it was answered at — the
        observable read of the consistency auditor (DESIGN.md §15).
        Returns ``(result, stamp)``; ``session`` tags the stamp with
        this client stream's session id.  ``stamp`` is ``None`` when the
        server predates stamping (the extra request keys are ignored)."""
        return await self._invoke(method, args, kwargs, session=session,
                                  stamped=True)

    async def _invoke(self, method: str, args: tuple, kwargs: dict,
                      session: "str | None" = None,
                      stamped: bool = False) -> Any:
        if self._receiver.done():
            # The receive loop already died (close(), server EOF or a
            # garbled frame) and failed every pending future; a future
            # registered now would never resolve — fail fast instead.
            raise ReproError("RPC client connection is closed")
        loop = asyncio.get_running_loop()
        request_id = self._next_id
        self._next_id += 1
        future = loop.create_future()
        self._pending[request_id] = future
        if stamped:
            self._stamped.add(request_id)
        with get_tracer().span(f"rpc.client.{method}") as span:
            # The client span is the server span's parent.
            payload = build_request(
                request_id, method, args, kwargs,
                trace=span.ctx if span is not None else None,
                session=session, stamp=stamped)
            self._inflight.add(1)
            try:
                with self._metrics.time(f"method.{method}.seconds"):
                    async with self._write_lock:
                        write_frame(self._writer, payload)
                        await self._writer.drain()
                    self._frames_out.inc()
                    self._bytes_out.inc(len(payload))
                    return await future
            except RpcError:
                self._errors.inc()
                raise
            finally:
                self._inflight.add(-1)

    async def _receive_loop(self) -> None:
        error: "BaseException | None" = None
        try:
            while True:
                frame = await read_frame(self._reader)
                if frame is None:
                    raise ReproError("RPC connection closed by server")
                self._frames_in.inc()
                self._bytes_in.inc(len(frame))
                body = loads_envelope(frame)
                request_id = body.get("id")
                future = self._pending.pop(request_id, None)
                wants_stamp = request_id in self._stamped
                self._stamped.discard(request_id)
                if future is None or future.done():
                    continue
                if "error" in body:
                    future.set_exception(wire_error(body["error"]))
                elif wants_stamp:
                    future.set_result((body["result"], body.get("stamp")))
                else:
                    future.set_result(body["result"])
        except asyncio.CancelledError:
            # close() cancelled us; fail the in-flight calls (finally)
            # rather than leaving their awaiters hanging forever.
            error = ReproError("RPC client closed")
            raise
        except Exception as exc:
            error = exc
        finally:
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(
                        error or ReproError("RPC client closed"))
            self._pending.clear()
            self._stamped.clear()

    async def close(self) -> None:
        self._receiver.cancel()
        try:
            await self._receiver
        except (asyncio.CancelledError, Exception):
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def __aenter__(self) -> "RpcClient":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()
