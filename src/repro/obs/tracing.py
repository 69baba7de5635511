"""Request-scoped tracing across threads, sockets and worker processes.

Answers "where did this request spend its time" across the serving
fabric's chain — ``RpcClient`` → ``RpcServer`` → ``MicroBatcher`` worker
thread → ``ShardedStoreView`` scatter → spawned shard workers — without
any third-party dependency (DESIGN.md §12):

* a :class:`TraceContext` is ``(trace id, span id)``.  The *current*
  context rides a :class:`contextvars.ContextVar`, so concurrent asyncio
  tasks each carry their own; crossing into the batcher's worker thread
  is explicit (:func:`push_context` / :func:`pop_context`), because
  ``run_in_executor`` does not copy the caller's context;
* on the wire the context is one optional ``"trace": {"tid", "sid"}``
  key in the JSON *request* envelope; a pre-trace peer simply ignores
  the unknown key (version skew degrades to untraced, never breaks);
* a :class:`Tracer` appends finished spans to a JSON-lines log
  (``spans-<process>.jsonl`` under its trace dir, one file per process —
  no cross-process write contention), exportable to Chrome's
  ``trace_event`` format (:func:`write_chrome_trace`) for timeline
  viewing in ``chrome://tracing`` / Perfetto.

A tracer with no trace dir is *disabled*: :meth:`Tracer.span` is a
no-op unless a parent context is already present — in which case it
still mints child contexts so downstream processes that *are* tracing
log a connected tree.  Telemetry never changes results: spans carry
ids and timing only, and the byte-identity suites run with tracing on.

The clock defaults to :func:`time.time` (not ``perf_counter``): span
timestamps must be comparable across processes for one merged timeline.
It is injectable for deterministic tests.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
import warnings
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Callable

#: Environment variable naming the span-log directory.  ``cli serve
#: --trace-dir`` sets it before spawning shard workers, so the whole
#: process tree traces into one directory with zero plumbing.
TRACE_DIR_ENV = "REPRO_TRACE_DIR"

_current: "ContextVar[TraceContext | None]" = ContextVar(
    "repro_trace_context", default=None)


@dataclass(frozen=True)
class TraceContext:
    """The propagated identity of one request: which trace it belongs
    to and which span is its parent on the far side of a boundary."""

    trace_id: str
    span_id: str

    def to_wire(self) -> "dict[str, str]":
        return {"tid": self.trace_id, "sid": self.span_id}

    @classmethod
    def from_wire(cls, payload: Any) -> "TraceContext | None":
        """Parse a request's ``"trace"`` value; anything malformed is
        treated as absent (an untraced or incompatible peer)."""
        if not isinstance(payload, dict):
            return None
        trace_id = payload.get("tid")
        span_id = payload.get("sid")
        if isinstance(trace_id, str) and isinstance(span_id, str):
            return cls(trace_id, span_id)
        return None


def current_context() -> "TraceContext | None":
    """The context of the request this task/thread is serving."""
    return _current.get()


def push_context(ctx: "TraceContext | None"):
    """Set the current context (returns a token for
    :func:`pop_context`).  Used at explicit thread hand-offs — e.g. the
    batcher setting the batch span's context inside its worker thread."""
    return _current.set(ctx)


def pop_context(token) -> None:
    _current.reset(token)


class Span:
    """Handle yielded by :meth:`Tracer.span`; lets the instrumented code
    attach attributes (shard id, batch size, …) before the span ends."""

    __slots__ = ("ctx", "attrs")

    def __init__(self, ctx: TraceContext, attrs: "dict[str, Any]") -> None:
        self.ctx = ctx
        self.attrs = attrs

    def set(self, **attrs: Any) -> None:
        self.attrs.update(attrs)


_INHERIT = object()


class Tracer:
    """Appends finished spans to ``<trace_dir>/spans-<process>.jsonl``.

    Args:
        trace_dir: span-log directory; ``None`` disables writing (spans
            still propagate incoming contexts, see module docstring).
        process: name stamped on every span and on the log filename;
            must be unique per process within a trace dir (workers use
            ``shard-<id>``, the CLI ``serve``; default ``pid-<pid>``).
        clock: wall-clock source for span start/duration; injectable
            for deterministic tests.
    """

    def __init__(self, trace_dir: "str | None" = None,
                 process: "str | None" = None,
                 clock: "Callable[[], float] | None" = None) -> None:
        self.trace_dir = trace_dir
        self.enabled = trace_dir is not None
        self.process = process or f"pid-{os.getpid()}"
        self._clock = clock or time.time
        self._lock = threading.Lock()
        self._file = None
        self._sequence = itertools.count(1)
        self.spans_written = 0

    # ------------------------------------------------------------------
    def _next_id(self) -> str:
        # Process-qualified counters: unique across the process tree as
        # long as process names are (no randomness — spans stay
        # deterministic under a fake clock).
        return f"{self.process}:{next(self._sequence)}"

    @contextmanager
    def span(self, name: str, parent: Any = _INHERIT, **attrs: Any):
        """Open a span named ``name``.

        ``parent`` defaults to the current context (inheritance within
        a process); pass an explicit :class:`TraceContext` (e.g. parsed
        off a request frame) or ``None`` to force a root.  Yields a
        :class:`Span` handle — or ``None`` on the fast path (tracer
        disabled and nothing to propagate), which costs two branch
        checks and no allocation.
        """
        parent_ctx = current_context() if parent is _INHERIT else parent
        if not self.enabled and parent_ctx is None:
            yield None
            return
        if parent_ctx is None:
            span_id = self._next_id()
            ctx = TraceContext(f"t{span_id}", span_id)
            parent_id = None
        else:
            ctx = TraceContext(parent_ctx.trace_id, self._next_id())
            parent_id = parent_ctx.span_id
        handle = Span(ctx, dict(attrs))
        token = _current.set(ctx)
        start = self._clock()
        try:
            yield handle
        finally:
            _current.reset(token)
            if self.enabled:
                self._write({
                    "name": name,
                    "trace": ctx.trace_id,
                    "span": ctx.span_id,
                    "parent": parent_id,
                    "process": self.process,
                    "ts": start,
                    "dur": self._clock() - start,
                    "attrs": handle.attrs,
                })

    def _write(self, record: "dict[str, Any]") -> None:
        line = json.dumps(record, sort_keys=True,
                          separators=(",", ":")) + "\n"
        with self._lock:
            if self._file is None:
                os.makedirs(self.trace_dir, exist_ok=True)
                path = os.path.join(self.trace_dir,
                                    f"spans-{self.process}.jsonl")
                self._file = open(path, "a", encoding="utf-8")
            self._file.write(line)
            self._file.flush()  # each span line survives a crash
            self.spans_written += 1

    def describe(self) -> "dict[str, Any]":
        return {"enabled": self.enabled, "trace_dir": self.trace_dir,
                "process": self.process,
                "spans_written": self.spans_written}

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None


#: The process-wide tracer.  Created lazily from ``REPRO_TRACE_DIR`` so
#: spawned worker processes (which inherit the environment) trace into
#: the same directory without any argument plumbing.
_TRACER: "Tracer | None" = None


def get_tracer() -> Tracer:
    global _TRACER
    if _TRACER is None:
        _TRACER = Tracer(os.environ.get(TRACE_DIR_ENV) or None)
    return _TRACER


def configure_tracer(trace_dir: "str | None" = None,
                     process: "str | None" = None,
                     clock: "Callable[[], float] | None" = None) -> Tracer:
    """Replace the process-wide tracer (closing the old one's log).
    Explicit arguments win over the environment; ``trace_dir=None``
    disables writing."""
    global _TRACER
    if _TRACER is not None:
        _TRACER.close()
    _TRACER = Tracer(trace_dir, process=process, clock=clock)
    return _TRACER


# ----------------------------------------------------------------------
# span-log readout / Chrome trace_event export
# ----------------------------------------------------------------------
#: Keys :func:`write_chrome_trace` indexes unconditionally; a span line
#: missing any of them is malformed (e.g. torn mid-record by a crash).
_SPAN_KEYS = ("name", "trace", "span", "process", "ts", "dur")


def load_spans(trace_dir: str) -> "list[dict]":
    """All spans under ``trace_dir`` (every ``spans-*.jsonl``), in
    deterministic (filename, line) order.

    Span logs are written by live processes that can die mid-line, so a
    log may end in a torn (truncated) record, and a mid-file line may
    parse but lack span fields.  Such lines are **skipped with a
    warning** — one bad tail must not make a whole trace directory
    unexportable."""
    spans: "list[dict]" = []
    try:
        names = sorted(os.listdir(trace_dir))
    except FileNotFoundError:
        return spans
    for name in names:
        if not (name.startswith("spans-") and name.endswith(".jsonl")):
            continue
        with open(os.path.join(trace_dir, name), encoding="utf-8") as fh:
            for number, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    span = json.loads(line)
                except json.JSONDecodeError:
                    span = None
                if not isinstance(span, dict) or \
                        any(key not in span for key in _SPAN_KEYS):
                    warnings.warn(
                        f"skipping malformed span line {name}:{number} "
                        f"({line[:40]!r}...)", stacklevel=2)
                    continue
                spans.append(span)
    return spans


def write_chrome_trace(trace_dir: str, out_path: str) -> int:
    """Merge the span logs into one Chrome ``trace_event`` JSON file
    (complete events, ``ph="X"``, microsecond timestamps) loadable in
    ``chrome://tracing`` or https://ui.perfetto.dev; returns the number
    of spans exported."""
    spans = load_spans(trace_dir)
    processes = sorted({span["process"] for span in spans})
    pids = {process: index + 1 for index, process in enumerate(processes)}
    traces = sorted({span["trace"] for span in spans})
    tids = {trace: index + 1 for index, trace in enumerate(traces)}
    events: "list[dict]" = [
        {"ph": "M", "name": "process_name", "pid": pids[process], "tid": 0,
         "args": {"name": process}}
        for process in processes
    ]
    for span in spans:
        args = dict(span.get("attrs") or {})
        args.update(trace=span["trace"], span=span["span"],
                    parent=span.get("parent"))
        events.append({
            "ph": "X",
            "name": span["name"],
            "cat": "span",
            "ts": span["ts"] * 1e6,
            "dur": span["dur"] * 1e6,
            "pid": pids[span["process"]],
            "tid": tids[span["trace"]],
            "args": args,
        })
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events,
                   "displayTimeUnit": "ms"}, fh)
    return len(spans)
