"""AsyncOntologyService: the asyncio front of the serving tier.

GIANT's deployment serves tagging and query interpretation as RPC
services under heavy concurrent traffic.  The sync
:class:`~repro.serving.service.OntologyService` (and its sharded drop-in
:class:`~repro.cluster.service.ClusterService`) execute one call at a
time in the caller's thread, so one slow caller stalls every stream.
This module puts an asyncio façade in front of *any* backend exposing
the ``OntologyService`` API:

* every endpoint is awaitable — N client streams interleave on the
  event loop instead of serializing behind a blocking call;
* batchable endpoints (``tag_documents`` / ``interpret_queries``) funnel
  through a bounded :class:`~repro.serving.batcher.MicroBatcher` that
  merges concurrent requests into larger backend batches (it drains
  what is already queued, up to max-batch-size, and never waits for
  more) executed on a worker thread;
* point endpoints (neighborhood, profiles, stories) ride the same
  serialized queue, so the single-threaded sync backend never sees
  concurrent access;
* :meth:`refresh` applies delta batches **between** merged batches,
  never mid-batch — every response is computed against exactly one
  store version, and the backend's version-keyed caches stay correct.

Results are the same objects the sync backend returns, so sync and
async answers to identical requests are byte-identical (the aio tests
assert this, black-box consistency-checker style).
"""

from __future__ import annotations

import asyncio
from typing import Any, Iterable, Sequence

from ..core.store import EdgeType, OntologyDelta
from ..obs.metrics import MetricsRegistry, get_registry
from ..obs.recorder import get_recorder
from ..obs.slo import get_slo_engine
from ..obs.timeseries import get_collector
from ..obs.tracing import get_tracer
from .batcher import MicroBatcher

#: Endpoints the async façade (and the RPC wrapper) expose.
SERVING_METHODS = (
    "tag_documents",
    "interpret_queries",
    "neighborhood",
    "concepts_of_entity",
    "record_read",
    "user_interests",
    "recommend_for_user",
    "track_events",
    "follow_ups",
    "refresh",
    "stats",
    "obs_status",
    "obs_watch",
    "obs_dump",
)


class AsyncOntologyService:
    """Awaitable micro-batched access to a sync serving backend.

    Args:
        backend: any object with the :class:`OntologyService` API —
            a single-store service or a :class:`ClusterService`.
        max_batch_size: items per merged batch, forwarded to the
            :class:`MicroBatcher`.
        registry: metrics registry for this façade's ``aio`` scope and
            its batcher's child scope; defaults to the process registry.

    Use as an async context manager (or call :meth:`close`) so the
    dispatcher task and worker thread shut down cleanly.
    """

    def __init__(self, backend, *, max_batch_size: int = 32,
                 registry: "MetricsRegistry | None" = None) -> None:
        self._backend = backend
        self._registry = registry if registry is not None else get_registry()
        self._metrics = self._registry.scope("aio")
        self._batcher = MicroBatcher(
            self._execute, max_batch_size=max_batch_size,
            metrics=self._metrics.scope("batcher"),
        )

    # ------------------------------------------------------------------
    # worker-thread execution (single-threaded; called by the batcher)
    # ------------------------------------------------------------------
    def _execute(self, kind: str, items: list) -> Sequence:
        if kind == "tag":
            return self._backend.tag_documents(items)
        if kind == "query":
            return self._backend.interpret_queries(items)
        if kind.startswith("stamped:"):
            # Stamped execution (the consistency auditor's observable
            # read): pair each result with the backend version it was
            # answered at.  Every backend mutation — refresh, sync,
            # rebalance steps — rides this same serialized queue, so the
            # version read *after* the call is exactly the version the
            # call executed against; the stamp cannot tear.
            return [(self._dispatch(method, args, kwargs),
                     self._backend.version)
                    for method, args, kwargs in items]
        # Generic endpoint calls: items are (method, args, kwargs)
        # singletons, executed one by one on the same worker thread.
        return [self._dispatch(method, args, kwargs)
                for method, args, kwargs in items]

    def _dispatch(self, method: str, args: tuple, kwargs: dict) -> Any:
        if method == "stats":
            # Gather backend and batcher stats together on the
            # serialized worker thread, so concurrent streams never
            # observe a torn pair (e.g. batcher counters from after
            # a flush glued to backend counters from before it).
            stats = self._backend.stats()
            stats["async"] = self._batcher.stats
            return stats
        if method == "obs_status":
            return self._obs_status()
        if method == "obs_watch":
            return self._obs_watch(*args, **kwargs)
        if method == "obs_dump":
            return self._obs_dump()
        return getattr(self._backend, method)(*args, **kwargs)

    def _obs_status(self) -> dict:
        status = {"metrics": self._registry.snapshot(),
                  "tracer": get_tracer().describe()}
        catalog = getattr(self._backend, "views", None)
        if catalog is not None:
            # Headline view-maintenance counters (views maintained,
            # deltas folded, maintenance p95) alongside the raw
            # serving.views.* instruments in the metrics snapshot.
            status["views"] = catalog.stats()
        backend_obs = getattr(self._backend, "obs_status", None)
        if callable(backend_obs):
            status["backend"] = backend_obs()
        return status

    def _obs_watch(self, points: int = 30,
                   prefix: "str | None" = None) -> dict:
        """The continuous-telemetry payload (DESIGN.md §14): collector
        series tails, SLO verdicts, and the flight-recorder summary.
        Runs on the serialized worker thread like ``obs_status``, so the
        series/verdict pair is a consistent cut.  With no background
        collector thread the call samples on demand — each ``watch``
        poll advances the series (pull-based collection)."""
        watch: dict = {"recorder": get_recorder().describe()}
        collector = get_collector()
        if collector is None:
            watch["collector"] = None
            watch["series"] = {}
            watch["slo"] = []
            return watch
        if not collector.running:
            collector.sample()
        watch["collector"] = collector.describe()
        watch["series"] = collector.tail(points, prefix=prefix)
        engine = get_slo_engine()
        watch["slo"] = engine.evaluate_all() if engine is not None else []
        return watch

    def _obs_dump(self) -> dict:
        """Dump the flight-recorder ring on demand; returns the events
        themselves too, so a remote operator gets them even when the
        serving process has no recorder directory configured."""
        recorder = get_recorder()
        path = recorder.dump(reason="on-demand")
        return {"path": path, "events": recorder.events(),
                "recorder": recorder.describe()}

    async def _call(self, method: str, *args, **kwargs) -> Any:
        [result] = await self._batcher.submit(
            f"call:{method}", [(method, args, kwargs)], mergeable=False)
        return result

    async def stamped(self, method: str, *args,
                      **kwargs) -> "tuple[Any, int]":
        """Execute one serving call and return ``(result, version)``
        where ``version`` is the backend version the call was answered
        at — captured atomically on the serialized worker thread (see
        :meth:`_execute`).  This is the server half of the auditor's
        stamped-read protocol; stamped ``tag_documents`` /
        ``interpret_queries`` calls trade batch merging for the exact
        stamp (they flush as singleton barrier batches)."""
        [pair] = await self._batcher.submit(
            f"stamped:{method}", [(method, args, kwargs)], mergeable=False)
        return pair

    # ------------------------------------------------------------------
    # batchable serving APIs (merged across concurrent callers)
    # ------------------------------------------------------------------
    async def tag_documents(self, documents: Sequence) -> list:
        """Tag a batch of documents; concurrent calls may be merged into
        one backend batch, each caller still gets exactly its slice."""
        return await self._batcher.submit("tag", list(documents))

    async def interpret_queries(self, queries: "Sequence[str]") -> list:
        """Analyze a batch of raw query strings (merged like tagging)."""
        return await self._batcher.submit("query", list(queries))

    # ------------------------------------------------------------------
    # point endpoints (serialized, singleton batches)
    # ------------------------------------------------------------------
    async def neighborhood(self, node_id: str, depth: int = 1,
                           edge_type: "EdgeType | None" = None
                           ) -> "tuple[str, ...]":
        return await self._call("neighborhood", node_id, depth=depth,
                                edge_type=edge_type)

    async def concepts_of_entity(self, entity_phrase: str
                                 ) -> "tuple[str, ...]":
        return await self._call("concepts_of_entity", entity_phrase)

    async def record_read(self, user_id: str, tags: "list[str]",
                          weight: float = 1.0):
        return await self._call("record_read", user_id, tags, weight=weight)

    async def user_interests(self, user_id: str, k: int = 10,
                             node_type=None):
        return await self._call("user_interests", user_id, k=k,
                                node_type=node_type)

    async def recommend_for_user(self, user_id: str, k: int = 5):
        return await self._call("recommend_for_user", user_id, k=k)

    async def track_events(self, events) -> int:
        return await self._call("track_events", list(events))

    async def follow_ups(self, read_phrase: str, limit: int = 3) -> tuple:
        return await self._call("follow_ups", read_phrase, limit=limit)

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    async def refresh(self, deltas: "Iterable[OntologyDelta]") -> int:
        """Apply pipeline delta batches on the backend.

        The refresh rides the serialized request queue, so it executes
        *between* merged batches — in-flight batches finish against the
        old version, later ones see the new one; no response mixes two
        store versions.
        """
        return await self._call("refresh", list(deltas))

    async def stats(self) -> dict:
        """Backend counters plus the async tier's batching stats.

        Both halves are collected inside one serialized worker-thread
        call (see :meth:`_execute`), so the combined dict is a
        consistent snapshot even under concurrent request streams.
        """
        return await self._call("stats")

    async def obs_status(self) -> dict:
        """Registry snapshot + tracer state (the ``obs_status`` RPC
        payload), taken on the serialized worker thread."""
        return await self._call("obs_status")

    async def obs_watch(self, points: int = 30,
                        prefix: "str | None" = None) -> dict:
        """Collector series tails + SLO verdicts + recorder summary
        (the ``obs_watch`` RPC payload / ``cli watch`` view)."""
        return await self._call("obs_watch", points=points, prefix=prefix)

    async def obs_dump(self) -> dict:
        """Dump the flight-recorder ring (the ``obs_dump`` RPC
        payload); returns the dump path and the events."""
        return await self._call("obs_dump")

    @property
    def backend(self):
        return self._backend

    @property
    def version(self) -> int:
        """Store version the backend currently serves (snapshot read)."""
        return self._backend.version

    async def close(self) -> None:
        """Drain queued requests and stop the dispatcher/worker."""
        await self._batcher.close()

    async def __aenter__(self) -> "AsyncOntologyService":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()
