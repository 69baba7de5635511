"""Micro-batching request queue for the async serving tier.

The production GIANT services sit behind RPC under heavy concurrent
traffic; per-request execution would serialize N client streams while
the batched APIs (:meth:`OntologyService.tag_documents`,
:meth:`~OntologyService.interpret_queries`) amortise candidate
generation best over *merged* batches.  The :class:`MicroBatcher` is the
funnel between the two worlds:

* callers ``await submit(kind, items)`` — requests enter a **bounded**
  :class:`asyncio.Queue` (backpressure instead of unbounded growth);
* a dispatcher coroutine takes the first request, then drains only
  what is **already queued**, merging consecutive requests of the same
  mergeable ``kind`` until the batch reaches ``max_batch_size`` items,
  the queue runs empty or a different kind is next — and flushes at
  once.  It never waits for more requests: they merge under load
  because they queue while the worker executes the previous batch;
* each merged batch executes via ``execute(kind, items)`` on a single
  worker thread, and the aligned result list is scattered back to every
  caller's future by its slice.

Non-mergeable kinds (point lookups, profile updates, ``refresh``) flow
through the *same* queue as singleton batches, so every backend call is
serialized on one worker thread: a delta refresh runs **between**
merged batches, never mid-batch, and the sync backend needs no locking.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..errors import ReproError
from ..obs.metrics import Scope, get_registry
from ..obs.tracing import (
    TraceContext,
    current_context,
    get_tracer,
    pop_context,
    push_context,
)


@dataclass
class _Request:
    """One queued request: ``items`` to execute and the caller's future.

    ``ctx`` is the submitter's trace context, captured at submit time —
    the dispatcher task and the executor thread have their own context
    vars, so the link across the queue must travel with the request.
    ``enqueued`` stamps the registry clock for the queue-wait histogram.
    """

    kind: str
    items: "list[Any]"
    mergeable: bool
    future: "asyncio.Future"
    ctx: "TraceContext | None" = None
    enqueued: float = 0.0


_SHUTDOWN = object()

#: Request-queue bound; ``submit`` applies backpressure (awaits) when
#: the queue is full.
_MAX_QUEUE = 1024


class MicroBatcher:
    """Bounded request queue that batches what is already queued.

    Args:
        execute: ``execute(kind, items) -> Sequence`` run on the worker
            thread; must return one result per item, in order.
        max_batch_size: flush a merged batch once it holds this many
            items (documents/queries), even if more are queued.
        metrics: registry :class:`~repro.obs.metrics.Scope` for the
            batcher's counters/histograms (queue depth, queue wait,
            batch size, flush reason); defaults to a fresh ``batcher``
            scope on the process registry.
    """

    def __init__(self, execute: "Callable[[str, list], Sequence]", *,
                 max_batch_size: int = 32,
                 metrics: "Scope | None" = None) -> None:
        if max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        self._execute = execute
        self._max_batch_size = max_batch_size
        self._queue: "asyncio.Queue | None" = None
        self._task: "asyncio.Task | None" = None
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._executor: "ThreadPoolExecutor | None" = None
        self._carry: "Any | None" = None
        self._closed = False
        self._metrics = metrics if metrics is not None \
            else get_registry().scope("batcher")
        self._requests = self._metrics.counter("requests")
        self._batches = self._metrics.counter("batches")
        self._items = self._metrics.counter("items")
        self._size_flushes = self._metrics.counter("size_flushes")
        # Batches flushed because nothing mergeable was queued.  The name
        # predates that meaning and stays: bench/ and dashboards read the
        # series by key.
        self._deadline_flushes = self._metrics.counter("deadline_flushes")
        # Flushes forced by a kind change / non-mergeable request (the
        # carry path) or by shutdown — previously uncounted.
        self._barrier_flushes = self._metrics.counter("barrier_flushes")
        self._queue_depth = self._metrics.gauge("queue_depth")
        self._queue_wait = self._metrics.histogram("queue_wait_seconds")
        self._execute_seconds = self._metrics.histogram("execute_seconds")
        self._batch_items = self._metrics.histogram("batch_items", base=1.0)

    # ------------------------------------------------------------------
    def _ensure_running(self) -> None:
        loop = asyncio.get_running_loop()
        if self._closed:
            raise ReproError("MicroBatcher is closed")
        if self._task is None:
            self._loop = loop
            self._queue = asyncio.Queue(maxsize=_MAX_QUEUE)
            self._executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-aio")
            self._task = loop.create_task(self._run())
        elif self._loop is not loop:
            raise ReproError(
                "MicroBatcher is bound to a different event loop; create "
                "one batcher per asyncio.run()"
            )

    async def submit(self, kind: str, items: "Sequence[Any]",
                     mergeable: bool = True) -> list:
        """Enqueue ``items`` under ``kind``; returns their results once
        the batch holding them has executed."""
        self._ensure_running()
        future = self._loop.create_future()
        request = _Request(kind, list(items), mergeable, future,
                           ctx=current_context(),
                           enqueued=self._metrics.registry.clock())
        await self._queue.put(request)
        self._requests.inc()
        self._queue_depth.set(self._queue.qsize())
        return await future

    async def close(self) -> None:
        """Drain already-queued requests, then stop the dispatcher."""
        if self._closed:
            return
        self._closed = True
        if self._task is None:
            return
        await self._queue.put(_SHUTDOWN)
        await self._task
        self._executor.shutdown(wait=True)

    # ------------------------------------------------------------------
    async def _next_request(self) -> Any:
        if self._carry is not None:
            request, self._carry = self._carry, None
            return request
        request = await self._queue.get()
        self._queue_depth.set(self._queue.qsize())
        return request

    async def _run(self) -> None:
        queue = self._queue
        while True:
            request = await self._next_request()
            if request is _SHUTDOWN:
                return
            batch = [request]
            size = len(request.items)
            if request.mergeable:
                while size < self._max_batch_size:
                    if queue.empty():
                        self._deadline_flushes.inc()
                        break
                    nxt = queue.get_nowait()
                    self._queue_depth.set(queue.qsize())
                    if (nxt is _SHUTDOWN or nxt.kind != request.kind
                            or not nxt.mergeable):
                        self._carry = nxt
                        self._barrier_flushes.inc()
                        break
                    batch.append(nxt)
                    size += len(nxt.items)
                else:
                    self._size_flushes.inc()
            else:
                self._barrier_flushes.inc()
            await self._flush(batch, size)

    def _run_batch(self, kind: str, merged: list,
                   ctx: "TraceContext | None") -> Sequence:
        """Executor-thread entry: install the batch span's context on
        the worker thread (``run_in_executor`` does not carry context
        vars), so downstream spans — e.g. the scatter paths — connect
        to this batch."""
        if ctx is None:
            return self._execute(kind, merged)
        token = push_context(ctx)
        try:
            return self._execute(kind, merged)
        finally:
            pop_context(token)

    async def _flush(self, batch: "list[_Request]", size: int) -> None:
        merged = [item for request in batch for item in request.items]
        now = self._metrics.registry.clock()
        for request in batch:
            self._queue_wait.observe(now - request.enqueued)
        self._batch_items.observe(size)
        tracer = get_tracer()
        try:
            # The batch span's parent is the first merged request's
            # context (later requests in a merged batch share the
            # execution; only the first keeps the cross-request link).
            with tracer.span(f"batch.{batch[0].kind}", parent=batch[0].ctx,
                             items=size, requests=len(batch)) as span:
                with self._metrics.time("execute_seconds"):
                    results = await self._loop.run_in_executor(
                        self._executor, self._run_batch, batch[0].kind,
                        merged, span.ctx if span is not None else None)
        except Exception as exc:  # scatter the failure to every caller
            for request in batch:
                if not request.future.done():
                    request.future.set_exception(exc)
            return
        finally:
            self._batches.inc()
            self._items.inc(size)
        if len(results) != len(merged):
            exc = ReproError(
                f"batch executor returned {len(results)} results for "
                f"{len(merged)} items (kind {batch[0].kind!r})"
            )
            for request in batch:
                if not request.future.done():
                    request.future.set_exception(exc)
            return
        offset = 0
        for request in batch:
            chunk = list(results[offset:offset + len(request.items)])
            offset += len(request.items)
            if not request.future.done():
                request.future.set_result(chunk)

    # ------------------------------------------------------------------
    @property
    def metrics(self) -> Scope:
        return self._metrics

    @property
    def stats(self) -> "dict[str, int]":
        """Merge/flush counters for introspection and benchmarks — a
        thin view over one scope snapshot (single registry-lock
        acquisition, so the fields are a consistent cut)."""
        snap = self._metrics.snapshot()
        batch_items = snap.get("batch_items") or {}
        return {
            "requests": snap.get("requests", 0),
            "batches": snap.get("batches", 0),
            "items": snap.get("items", 0),
            "max_batch_items": int(batch_items.get("max", 0)),
            "size_flushes": snap.get("size_flushes", 0),
            "deadline_flushes": snap.get("deadline_flushes", 0),
        }
