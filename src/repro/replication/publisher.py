"""LogPublisher: the delta log behind a socket (DESIGN.md §8).

The builder owns the :class:`~repro.replication.log.DeltaLog`; followers
live in other processes (shard workers, serving replicas, other
machines).  The publisher puts the log — and its
:class:`~repro.replication.catalog.SnapshotCatalog` — behind the same
length-prefixed JSON framing as :mod:`repro.serving.rpc`:

* ``log_fetch(since, max_count)`` — range read: deltas advancing a
  consumer at version ``since``; a consumer behind the GC'd prefix gets
  a ``DeltaGapError`` back (typed over the wire) and re-bootstraps;
* ``log_wait(since, timeout)`` — the subscribe primitive: long-poll
  until the log grows past ``since`` (or the timeout lapses), then
  behave like ``log_fetch``;
* ``log_snapshot()`` — newest catalog snapshot (the JSON store
  snapshot) + version, the bootstrap half of snapshot-plus-tail
  recovery;
* ``log_status()`` — retained range and segment/snapshot bookkeeping;
* ``log_register(follower, since)`` / ``log_forget(follower)`` —
  follower-offset tracking: a *registered* follower's last-fetched-from
  position caps how far the :class:`SnapshotCatalog` garbage-collects
  folded segments (the publisher binds itself as the catalog's GC
  floor), so a slow registered follower catches up from the log instead
  of falling back to a snapshot re-bootstrap.  ``log_fetch``/``log_wait``
  accept an optional ``follower`` name and update its position.

:class:`PublisherThread` runs the publisher on a private event loop in
a daemon thread so a synchronous builder can serve followers while it
keeps building; all log access is marshalled onto that loop thread
(``publish`` / ``call``), keeping the single-writer log unshared.
"""

from __future__ import annotations

import asyncio
import threading
from collections import deque
from typing import Any, Callable, Iterable, Sequence

from ..core.serialize import delta_to_dict
from ..core.store import OntologyDelta
from ..errors import ReproError
from ..obs.metrics import MetricsRegistry, get_registry
from ..serving.rpc import Dispatcher, StreamServer
from .catalog import SnapshotCatalog
from .log import DeltaLog

#: Methods a publisher answers over the wire.
PUBLISHER_METHODS = ("log_fetch", "log_wait", "log_snapshot", "log_status",
                     "log_register", "log_forget")

_POLL_INTERVAL = 0.05  # seconds between growth re-checks in log_wait


class LogPublisher(StreamServer):
    """Serves one :class:`DeltaLog` (and optional catalog) over TCP: the
    :data:`PUBLISHER_METHODS` table behind the shared envelope
    dispatcher, one request per connection at a time.

    Args:
        log: the delta log to publish.
        catalog: optional snapshot catalog backing ``log_snapshot``.
        host / port: bind address (port 0 picks an ephemeral port).
        registry: metrics registry holding this publisher's
            ``replication`` scope (follower lag gauges, fetch/snapshot
            counters, frame bytes); defaults to the process registry.
    """

    def __init__(self, log: DeltaLog,
                 catalog: "SnapshotCatalog | None" = None,
                 host: str = "127.0.0.1", port: int = 0,
                 registry: "MetricsRegistry | None" = None) -> None:
        self._log = log
        self._catalog = catalog
        self._grew = asyncio.Event()
        # Registered follower name -> the version it last fetched from
        # ("everything at or below this is applied over there").
        self._followers: dict[str, int] = {}
        registry = registry if registry is not None else get_registry()
        self._metrics = registry.scope("replication")
        self._publishes = self._metrics.counter("publishes")
        self._published_deltas = self._metrics.counter("published_deltas")
        self._fetches = self._metrics.counter("fetches")
        self._fetched_deltas = self._metrics.counter("fetched_deltas")
        self._waits = self._metrics.counter("waits")
        self._snapshots_served = self._metrics.counter("snapshots_served")
        self._followers_gauge = self._metrics.gauge("followers")
        self._last_version_gauge = self._metrics.gauge("last_version")
        self._gc_floor_gauge = self._metrics.gauge("gc_floor")
        # (version, clock) stamp per publish — the substrate for
        # follower lag *in seconds*: a follower's seconds-lag is the age
        # of the oldest publish it has not yet consumed.
        self._append_times: "deque[tuple[int, float]]" = deque(maxlen=4096)
        # Fault injection (the audit campaign's follower-side faults):
        # per-follower artificial fetch/wait delay in seconds, and a
        # partition set whose members' fetches fail outright.
        self._injected_delay: "dict[str, float]" = {}
        self._injected_partition: "set[str]" = set()
        if catalog is not None:
            catalog.bind_gc_floor(self.follower_floor)
        super().__init__(
            Dispatcher("publisher",
                       {name: getattr(self, "_" + name)
                        for name in PUBLISHER_METHODS},
                       self._metrics, span="replication.publisher"),
            host, port)

    # ------------------------------------------------------------------
    # fault injection (test/audit hooks; loop thread only)
    # ------------------------------------------------------------------
    def inject_fault(self, follower: str, *,
                     delay: "float | None" = None,
                     partition: "bool | None" = None) -> None:
        """Install an artificial fault on one follower's log reads:
        ``delay`` sleeps every ``log_fetch``/``log_wait`` that long
        before answering; ``partition=True`` makes them fail outright
        (``False`` heals).  Must run on the event-loop thread — marshal
        through :meth:`PublisherThread.call` from other threads.  Used
        by the fault-injection campaign to lag and partition followers
        without touching their processes."""
        name = str(follower)
        if delay is not None:
            if delay > 0:
                self._injected_delay[name] = float(delay)
            else:
                self._injected_delay.pop(name, None)
        if partition is not None:
            if partition:
                self._injected_partition.add(name)
            else:
                self._injected_partition.discard(name)

    def clear_faults(self) -> None:
        """Drop every injected delay and heal every partition."""
        self._injected_delay.clear()
        self._injected_partition.clear()

    async def _maybe_inject(self, follower: "str | None") -> None:
        if follower is None:
            return
        name = str(follower)
        if name in self._injected_partition:
            raise ReproError(
                f"injected partition: follower {name!r} is cut off "
                f"from the log")
        delay = self._injected_delay.get(name)
        if delay:
            await asyncio.sleep(delay)

    # ------------------------------------------------------------------
    # follower offsets
    # ------------------------------------------------------------------
    def follower_floor(self) -> "int | None":
        """The slowest registered follower's position (``None`` when no
        follower is registered) — the catalog's segment-GC floor."""
        floor = min(self._followers.values()) if self._followers else None
        self._gc_floor_gauge.set(-1 if floor is None else floor)
        return floor

    def followers(self) -> "dict[str, int]":
        return dict(self._followers)

    def _lag_seconds(self, since: int, now: float) -> float:
        """Age of the oldest publish a follower at ``since`` has not yet
        consumed; 0.0 when it is caught up."""
        for version, stamped in self._append_times:
            if version > since:
                return max(0.0, now - stamped)
        return 0.0

    def _note_follower(self, follower: "str | None", since: int) -> None:
        """Record a follower position and refresh the lag gauges —
        ``follower.<name>.lag_versions`` / ``.lag_seconds`` — plus the
        aggregate follower count and GC floor."""
        if follower is not None:
            self._followers[str(follower)] = since
        self._followers_gauge.set(len(self._followers))
        self._last_version_gauge.set(self._log.last_version)
        now = self._metrics.registry.clock()
        for name, position in self._followers.items():
            scope_name = f"follower.{name}"
            self._metrics.gauge(f"{scope_name}.lag_versions").set(
                max(0, self._log.last_version - position))
            self._metrics.gauge(f"{scope_name}.lag_seconds").set(
                self._lag_seconds(position, now))
        self.follower_floor()

    # ------------------------------------------------------------------
    # producer side
    # ------------------------------------------------------------------
    def publish(self, deltas: "Iterable[OntologyDelta]") -> int:
        """Append new batches to the log and wake ``log_wait`` waiters.

        Must run on the publisher's event-loop thread (use
        :meth:`PublisherThread.publish` from other threads).
        """
        appended = self._log.extend(deltas)
        if appended:
            self._grew.set()
            self._grew = asyncio.Event()
            self._publishes.inc()
            self._published_deltas.inc(appended)
            self._append_times.append(
                (self._log.last_version, self._metrics.registry.clock()))
            self._last_version_gauge.set(self._log.last_version)
        return appended

    # ------------------------------------------------------------------
    # methods (wire handlers)
    # ------------------------------------------------------------------
    async def _log_fetch(self, since: int = 0,
                         max_count: "int | None" = None,
                         follower: "str | None" = None) -> dict:
        # A fetch from `since` means everything <= since is applied
        # on that follower; last write wins so a re-bootstrapped
        # follower's position can also jump (or fall) legitimately.
        await self._maybe_inject(follower)
        self._note_follower(follower, since)
        self._fetches.inc()
        deltas = self._log.read(since, max_count=max_count)
        self._fetched_deltas.inc(len(deltas))
        return {
            "deltas": [delta_to_dict(delta) for delta in deltas],
            "first_version": self._log.first_version,
            "last_version": self._log.last_version,
        }

    async def _log_register(self, follower: str, since: int = 0) -> dict:
        self._note_follower(follower, since)
        return {"followers": len(self._followers)}

    async def _log_forget(self, follower: str) -> dict:
        removed = self._followers.pop(str(follower), None) is not None
        self._note_follower(None, 0)
        return {"removed": removed, "followers": len(self._followers)}

    async def _log_wait(self, since: int = 0, timeout: float = 10.0,
                        max_count: "int | None" = None,
                        follower: "str | None" = None) -> dict:
        """Long-poll: resolve as soon as the log grows past ``since``."""
        await self._maybe_inject(follower)
        self._note_follower(follower, since)
        self._waits.inc()
        deadline = asyncio.get_running_loop().time() + max(0.0, timeout)
        while self._log.last_version <= since:
            remaining = deadline - asyncio.get_running_loop().time()
            if remaining <= 0:
                break
            # The event wakes publish()-driven growth instantly; the
            # short timeout also catches direct log appends made behind
            # the publisher's back.
            try:
                await asyncio.wait_for(self._grew.wait(),
                                       min(remaining, _POLL_INTERVAL))
            except asyncio.TimeoutError:
                pass
        if self._log.last_version <= since:
            return {"deltas": [],
                    "first_version": self._log.first_version,
                    "last_version": self._log.last_version}
        return await self._log_fetch(since, max_count=max_count)

    async def _log_snapshot(self) -> dict:
        if self._catalog is None:
            return {"snapshot": None, "version": 0}
        self._snapshots_served.inc()
        snapshot, version = self._catalog.latest()
        return {"snapshot": snapshot, "version": version}

    async def _log_status(self) -> dict:
        status = {"log": self._log.describe()}
        if self._catalog is not None:
            status["catalog"] = self._catalog.describe()
        return status


class PublisherThread:
    """Runs a :class:`LogPublisher` on a daemon thread's event loop.

    The thread owns all log/catalog access after :meth:`start`:
    :meth:`publish` and :meth:`call` marshal work onto the loop, so the
    builder thread never races the request handlers on the log's file
    handles.
    """

    def __init__(self, log: DeltaLog,
                 catalog: "SnapshotCatalog | None" = None,
                 host: str = "127.0.0.1", port: int = 0,
                 registry: "MetricsRegistry | None" = None) -> None:
        self._publisher = LogPublisher(log, catalog, host, port,
                                       registry=registry)
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._thread: "threading.Thread | None" = None
        self._started = threading.Event()
        self._start_error: "BaseException | None" = None

    # ------------------------------------------------------------------
    def start(self, timeout: float = 30.0) -> "tuple[str, int]":
        """Start the loop thread and bind; returns the address."""
        if self._thread is not None:
            return self._publisher.address
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="log-publisher")
        self._thread.start()
        if not self._started.wait(timeout):
            raise ReproError("log publisher failed to start in time")
        if self._start_error is not None:
            raise ReproError(
                f"log publisher failed to bind: {self._start_error!r}")
        return self._publisher.address

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._publisher.start())
        except BaseException as exc:  # surface bind failures to start()
            self._start_error = exc
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_forever()
        finally:
            try:
                loop.run_until_complete(self._publisher.close())
            finally:
                loop.close()

    @property
    def address(self) -> "tuple[str, int]":
        return self._publisher.address

    # ------------------------------------------------------------------
    def call(self, fn: Callable[[], Any], timeout: float = 60.0) -> Any:
        """Run ``fn()`` on the publisher's loop thread (e.g. a catalog
        ``maybe_compact`` against the builder's store) and return its
        result."""
        if self._loop is None:
            raise ReproError("the publisher thread is not running")

        async def _invoke():
            return fn()

        future = asyncio.run_coroutine_threadsafe(_invoke(), self._loop)
        return future.result(timeout)

    def inject_fault(self, follower: str, *,
                     delay: "float | None" = None,
                     partition: "bool | None" = None) -> None:
        """Thread-safe :meth:`LogPublisher.inject_fault` (marshalled
        onto the loop thread) — the fault campaign's follower-side
        delay/partition switch."""
        self.call(lambda: self._publisher.inject_fault(
            follower, delay=delay, partition=partition))

    def clear_faults(self) -> None:
        """Thread-safe :meth:`LogPublisher.clear_faults`."""
        self.call(self._publisher.clear_faults)

    def publish(self, deltas: "Sequence[OntologyDelta]",
                timeout: float = 60.0) -> int:
        """Thread-safe :meth:`LogPublisher.publish`."""
        deltas = list(deltas)
        return self.call(lambda: self._publisher.publish(deltas),
                         timeout=timeout)

    def stop(self, timeout: float = 10.0) -> None:
        if self._loop is None or self._thread is None:
            return
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout)
        self._thread = None
        self._loop = None

    def __enter__(self) -> "PublisherThread":
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()
