"""Cross-process shards: worker processes follower-fed from the delta log.

The in-process :class:`~repro.cluster.service.ClusterService` holds its N
:class:`~repro.cluster.shards.ShardReplica` stores in one address space.
This module moves each shard into its own **worker process** (DESIGN.md
§8/§9):

* data flows through the **replicated delta log** — every worker, and
  the parent, runs a :class:`~repro.replication.follower.LogFollower`
  against the shared :class:`~repro.replication.publisher.LogPublisher`
  (snapshot-plus-tail bootstrap, catch-up on demand, gap recovery by
  re-bootstrapping, GC-floor registration: DESIGN.md §8).  A worker's
  follower feeds a :class:`~repro.cluster.shards.ShardSet` holding its
  one shard; the parent's feeds the parent itself — a routing-only
  shard set plus the front's maintained views;
* reads flow over **RPC** — the parent's
  :class:`~repro.cluster.shards.ShardedStoreView` talks to
  :class:`RemoteShardReplica` proxies speaking the shard read interface
  (the same methods a local ``ShardReplica`` serves) over the
  :mod:`repro.serving.rpc` length-prefixed framing and codec, so
  scatter-gather merges cross process boundaries unchanged;
* **rebalances flow through both**: :meth:`RemoteClusterService.
  rebalance` publishes the ring-epoch record to the log, then seeds each
  *new* worker over RPC with the parent's routing state plus the
  :class:`~repro.cluster.ring.TransferSlice` frames pulled from the
  current owners — streaming only the moved node records, their incident
  edges and ghost endpoints, not a full snapshot.  Surviving workers
  cross the flip as they consume the log record
  (:meth:`~repro.cluster.shards.ShardSet._flip`: demote locally, or
  re-bootstrap from snapshot + tail — which is also the recovery path
  for a worker that crashed mid-rebalance);
* :class:`RemoteClusterService` assembles the pieces into a drop-in for
  ``ClusterService`` whose serving responses are **byte-identical**
  (``rpc.dumps``) to the in-process cluster and to a single store at the
  same stream version — the tests assert all three.

Workers never receive pushed deltas: ``sync(version)`` is a control
signal ("the log now holds version v; catch up from it"), keeping the
log the single source of truth.  The one exception is the seed of a
freshly added shard, which is pure *state transfer* at a pinned version,
not stream data.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import socket
import time
from typing import Any, Iterable

from ..core.store import OntologyDelta
from ..errors import OntologyError, ReproError, ShardUnavailableError
from ..obs.metrics import MetricsRegistry, get_registry
from ..obs.recorder import (
    RECORDER_DIR_ENV,
    configure_recorder,
    get_recorder,
)
from ..obs.tracing import TRACE_DIR_ENV, configure_tracer, get_tracer
from ..replication.follower import LogFollower, SyncLogClient
from ..serving.rpc import BlockingRpcClient, Dispatcher, serve_blocking
from .ring import TransferSlice
from .router import ShardRouter
from .service import ShardedFront
from .shards import ShardReplica, ShardSet

#: Shard read-interface methods a worker dispatches by name.
SHARD_READ_METHODS = frozenset({
    "node", "find", "owns", "owned_ids", "owned_count", "alias_claim",
    "owned_token_ids", "owned_candidate_ids", "successor_ids",
    "predecessor_ids", "has_edge", "edges", "describe", "transfer_slice",
})

#: What a :class:`RemoteShardReplica` forwards by name.
_PROXIED_METHODS = SHARD_READ_METHODS | {"seed", "sync", "obs_status"}


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------
class _ShardWorker:
    """One shard's follower and the methods its worker process answers:
    :data:`SHARD_READ_METHODS` straight off the replica, plus the
    control methods below."""

    def __init__(self, shard_id: int, follower: LogFollower) -> None:
        self.shard_id = shard_id
        # Feeds a one-shard ShardSet; ``follower.replica`` is None in a
        # rebalance-spawned worker until its seed arrives.
        self.follower = follower
        self.stopped = False

    def methods(self) -> "dict[str, Any]":
        return dict({name: functools.partial(self._read, name)
                     for name in SHARD_READ_METHODS},
                    seed=self.seed, sync=self.sync, stop=self.stop,
                    ghost_count=self.ghost_count, obs_status=self.obs_status)

    def _seeded(self) -> ShardReplica:
        if self.follower.replica is None:
            raise ReproError(
                f"shard {self.shard_id} is awaiting its rebalance seed")
        return self.follower.replica.held[self.shard_id]

    def _read(self, method: str, *args, **kwargs) -> Any:
        return getattr(self._seeded(), method)(*args, **kwargs)

    def ghost_count(self) -> int:
        return self._seeded().ghost_count

    def seed(self, state: dict, transfers: "list[TransferSlice]") -> dict:
        if self.follower.replica is not None:
            raise ReproError(f"shard {self.shard_id} already holds state")
        shards = ShardSet(ShardRouter.from_state(state), (self.shard_id,))
        replica = shards.held[self.shard_id]
        for transfer in transfers:
            replica.adopt_slice(transfer)
        shards.router.sync_shard_version(self.shard_id,
                                         replica.store.version)
        self.follower.seat(shards)
        return dict(replica.describe(), epoch=shards.router.epoch,
                    stream_version=shards.version)

    def sync(self, target: int) -> dict:
        self._seeded()
        recoveries = self.follower.recoveries
        self.follower.catch_up(target)
        return dict(self._seeded().describe(),
                    recovered=self.follower.recoveries > recoveries,
                    epoch=self.follower.replica.router.epoch)

    def obs_status(self) -> dict:
        return {"metrics": get_registry().snapshot(),
                "tracer": get_tracer().describe(),
                "recorder": get_recorder().describe()}

    def stop(self) -> bool:
        self.stopped = True
        return True


def _shard_worker_main(shard_id: int, num_shards: int,
                       publisher_host: str, publisher_port: int,
                       ready, accept_timeout: float,
                       seed: bool = False,
                       trace_dir: "str | None" = None,
                       recorder_dir: "str | None" = None) -> None:
    """One shard behind a socket: bootstrap from the log (or, for a
    rebalance-spawned worker, await the parent's seed of routing state
    plus TransferSlice frames), then serve the parent's one connection."""
    # The worker's span log: explicit argument first, inherited
    # environment second (spawn passes the parent's env through), so
    # ``cli serve --trace-dir`` traces the whole process tree while an
    # untraced cluster pays nothing.  The flight recorder follows the
    # same rule, so a worker anomaly dumps next to the parent's dumps.
    configure_tracer(trace_dir or os.environ.get(TRACE_DIR_ENV) or None,
                     process=f"shard-{shard_id}")
    configure_recorder(
        recorder_dir or os.environ.get(RECORDER_DIR_ENV) or None,
        process=f"shard-{shard_id}")
    try:
        client = SyncLogClient.connect(publisher_host, publisher_port,
                                       follower_id=f"shard-{shard_id}")
        follower = LogFollower(client, lambda head: ShardSet.build(
            head, num_shards, (shard_id,)))
        if not seed:
            follower.bootstrap()
        server = socket.create_server(("127.0.0.1", 0))
        server.settimeout(accept_timeout)
        ready.put(("ready", shard_id, server.getsockname()[1]))
    except Exception as exc:
        ready.put(("error", shard_id, f"bootstrap failed: {exc!r}"))
        return
    worker = _ShardWorker(shard_id, follower)
    serve_blocking(
        server,
        Dispatcher("shard", worker.methods(),
                   get_registry().scope("shard_worker"), span="shard",
                   timer="request_seconds", shard=shard_id),
        lambda: worker.stopped)
    client.close()
    server.close()
    get_tracer().close()


# ----------------------------------------------------------------------
# parent-side proxy
# ----------------------------------------------------------------------
class RemoteShardReplica:
    """Client proxy speaking the shard read interface over a socket.

    Implements exactly the methods
    :class:`~repro.cluster.shards.ShardedStoreView` consumes from a
    local :class:`ShardReplica`, so the view scatter-gathers across
    processes without knowing it.
    """

    def __init__(self, shard_id: int, host: str, port: int,
                 timeout: float = 120.0) -> None:
        self.shard_id = shard_id
        self._rpc = BlockingRpcClient(host, port, timeout,
                                      unavailable=self._unavailable)
        # The scatter paths in ShardedStoreView dispatch to every shard
        # first (begin_call) and collect second (finish_call),
        # overlapping the per-shard work instead of serializing one
        # blocking round trip per shard.
        self.begin_call = self._rpc.begin_call
        self.finish_call = self._rpc.finish_call

    def _unavailable(self, detail: str) -> ShardUnavailableError:
        """A connection-level failure, typed: the worker process died or
        its socket broke.  Raw ``OSError``s must not escape to serving
        callers — the typed error names the shard so the cluster's
        recovery path can respawn it and retry."""
        return ShardUnavailableError(
            self.shard_id,
            f"shard {self.shard_id} worker unavailable: {detail}")

    def __getattr__(self, name: str):
        """The shard read interface (see :class:`ShardReplica`) and the
        control calls: each is the worker method of the same name, one
        round trip.  ``sync(version)`` tells the worker the log holds
        ``version`` and returns its ``describe()`` line plus
        ``recovered`` and ``epoch``; ``seed(state, transfers)`` hands a
        freshly spawned worker its routing state and slices."""
        if name in _PROXIED_METHODS:
            return functools.partial(self._rpc.call, name)
        raise AttributeError(name)

    @property
    def ghost_count(self) -> int:
        return self._rpc.call("ghost_count")

    def stop(self) -> None:
        try:
            self._rpc.call("stop")
        except (ReproError, OSError):
            pass

    def close(self) -> None:
        self._rpc.close()


# ----------------------------------------------------------------------
# the remote cluster
# ----------------------------------------------------------------------
def _terminate(process) -> None:
    """``terminate``, escalating to ``kill`` if the process lingers."""
    process.terminate()
    process.join(timeout=10.0)
    if process.is_alive():
        process.kill()
        process.join(timeout=10.0)


def _join(process) -> None:
    """Wait for a stopped worker to exit; ``terminate`` a lingerer."""
    process.join(timeout=10.0)
    if process.is_alive():
        process.terminate()
        process.join(timeout=5.0)


class RemoteClusterService(ShardedFront):
    """A :class:`ClusterService` whose shards run in worker processes.

    Args:
        publisher_address: ``(host, port)`` of the
            :class:`~repro.replication.publisher.LogPublisher` feeding
            the fleet.
        num_shards: worker process count (= ring shards) for a log that
            has no recorded ring epoch; when the log *does* record one
            (it has been rebalanced), the ring is authoritative and the
            fleet comes up at its shard count.
        ner / duet / tagger_options / max_rewrites /
            max_recommendations / cache_size: as for
            :class:`~repro.serving.service.OntologyService`.
        start_timeout: seconds to wait for every worker to bootstrap.
        trace_dir: span-log directory handed to every spawned worker
            (workers also inherit ``REPRO_TRACE_DIR`` from the
            environment; the explicit argument wins).
        registry: metrics registry shared by the serving scope, the
            scatter view and the cluster's ``cluster`` scope; defaults
            to the process registry.

    The parent holds no shard store: its follower feeds it the same log
    into a routing-only :class:`~repro.cluster.shards.ShardSet` (owner
    lookups) and the front's maintained views, and it serves over a
    :class:`~repro.cluster.shards.ShardedStoreView` of
    :class:`RemoteShardReplica` proxies.
    """

    def __init__(self, publisher_address: "tuple[str, int]",
                 num_shards: int = 4, ner=None, duet=None,
                 tagger_options: "dict[str, Any] | None" = None,
                 max_rewrites: int = 5, max_recommendations: int = 5,
                 cache_size: int = 4096,
                 start_timeout: float = 180.0,
                 trace_dir: "str | None" = None,
                 recorder_dir: "str | None" = None,
                 registry: "MetricsRegistry | None" = None) -> None:
        if num_shards <= 0:
            raise OntologyError("a cluster needs at least one shard")
        self._trace_dir = trace_dir
        self._recorder_dir = recorder_dir
        registry = registry if registry is not None else get_registry()
        metrics = registry.scope("cluster")
        self._rebalances = metrics.counter("rebalances")
        self._moved_nodes = metrics.counter("rebalance_moved_nodes")
        self._seeded_records = metrics.counter("rebalance_seeded_records")
        self._recovered_shards = metrics.counter("recovered_shards")
        self._worker_restarts = metrics.counter("worker_restarts")
        self._shard_unavailable = metrics.counter("shard_unavailable")
        self._transfer_chunks = metrics.counter("transfer_chunks")
        self._host, self._port = publisher_address
        # Spawn (not fork): the parent may run a publisher event loop in
        # a thread, and forked children could inherit its lock state.
        self._context = multiprocessing.get_context("spawn")
        self._start_timeout = start_timeout
        self._processes: "dict[int, multiprocessing.Process]" = {}
        # One ready-queue per worker: a shared queue is unreliable once
        # any consumer process has been terminated (puts from later
        # children can vanish), and rebalance/restart terminate workers.
        self._ready_queues: "dict[int, Any]" = {}
        self._replicas: "list[RemoteShardReplica]" = []
        self._view = None
        self._client: "SyncLogClient | None" = None
        self._closed = False
        # In-progress chunked resize (begin_rebalance .. finish_rebalance):
        # the staged router/plan/chunk queue; None outside a resize.
        self._staged: "dict | None" = None
        try:
            self._client = SyncLogClient.connect(self._host, self._port)
            self._follower = LogFollower(
                self._client, lambda head: self._seat(
                    ShardSet.build(head, num_shards, ())))
            self._follower.bootstrap()
            for shard_id in range(self._router.num_shards):
                self._spawn(shard_id)
            ports = self._await_ready(set(range(self._router.num_shards)))
            self._replicas = [
                RemoteShardReplica(shard_id, "127.0.0.1", ports[shard_id])
                for shard_id in range(self._router.num_shards)
            ]
            # Workers bootstrapped independently; align them with the
            # parent's log position before the first read.
            for replica in self._replicas:
                replica.sync(self._router.version)
        except Exception:
            self.close()
            raise
        super().__init__(
            self._shards, self._replicas, registry, ner=ner, duet=duet,
            tagger_options=tagger_options, max_rewrites=max_rewrites,
            max_recommendations=max_recommendations, cache_size=cache_size)
        # Reads that hit a dead worker's proxy raise a typed
        # ShardUnavailableError; the view calls back here to respawn the
        # worker, then retries the read (see _recover_shard).
        self._view.bind_recovery(self._recover_shard)

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, shard_id: int, seed: bool = False) -> None:
        queue = self._context.Queue()
        process = self._context.Process(
            target=_shard_worker_main,
            args=(shard_id, self._router.num_shards, self._host, self._port,
                  queue, self._start_timeout, seed, self._trace_dir,
                  self._recorder_dir),
            daemon=True,
        )
        process.start()
        self._processes[shard_id] = process
        self._ready_queues[shard_id] = queue

    def _connect(self, shard_id: int,
                 seed: bool = False) -> RemoteShardReplica:
        """Spawn one worker, wait for its port, connect its proxy."""
        self._spawn(shard_id, seed)
        port = self._await_ready({shard_id})[shard_id]
        return RemoteShardReplica(shard_id, "127.0.0.1", port)

    def _await_ready(self, expected: "set[int]") -> "dict[int, int]":
        """Collect (shard_id -> port) ready messages for ``expected``."""
        ports: dict[int, int] = {}
        deadline = time.monotonic() + self._start_timeout
        while set(ports) != expected:
            for shard_id in sorted(expected - set(ports)):
                try:
                    message = self._ready_queues[shard_id].get(timeout=0.5)
                except Exception:
                    process = self._processes.get(shard_id)
                    if process is not None and not process.is_alive():
                        try:  # drain an error posted just before death
                            message = self._ready_queues[shard_id].get(
                                timeout=0.5)
                        except Exception:
                            raise ReproError(
                                f"shard worker process {shard_id} died "
                                "before reporting ready") from None
                    else:
                        continue
                if message[0] != "ready":
                    raise ReproError(
                        f"shard worker {message[1]} failed: {message[2]}")
                ports[shard_id] = message[2]
            if set(ports) != expected and time.monotonic() > deadline:
                raise ReproError(
                    "timed out waiting for shard workers to "
                    "bootstrap from the log")
        return ports

    def _stop_worker(self, shard_id: int,
                     proxy: "RemoteShardReplica | None") -> None:
        if proxy is not None:
            proxy.stop()
            proxy.close()
        process = self._processes.pop(shard_id, None)
        if process is not None:
            _join(process)
        # A gracefully stopped worker deregisters itself; a crashed one
        # cannot, and a retired shard is never respawned to overwrite
        # its registration — so its stale position would pin the log's
        # segment-GC floor forever.  Clear it from here (idempotent).
        if self._client is not None:
            try:
                self._client.forget(f"shard-{shard_id}")
            except (ReproError, OSError):
                pass

    def _reap(self, shard_id: int) -> None:
        """Make sure the outgoing worker process is actually dead before
        a replacement is spawned: ``terminate`` escalates to ``kill``,
        and a corpse that survives both is a hard error — respawning
        over a wedged process would leak it (and whatever it still has
        bound) for the rest of the run."""
        process = self._processes.pop(shard_id, None)
        if process is None:
            return
        _terminate(process)
        if process.is_alive() or process.exitcode is None:
            self._processes[shard_id] = process  # keep it visible
            raise ReproError(
                f"shard {shard_id} worker (pid {process.pid}) survived "
                "terminate and kill; refusing to respawn over a wedged "
                "process")

    def _restart(self, shard_id: int) -> RemoteShardReplica:
        """Respawn one worker via the standard snapshot-plus-tail
        bootstrap (crossing any ring flips) and reconnect its proxy.

        The corpse is reaped (kill-escalated) *before* the respawn; a
        respawn that fails to come up raises without having touched the
        caller's proxy table, so the old proxy keeps its retry path."""
        self._reap(shard_id)
        try:
            proxy = self._connect(shard_id)
            proxy.sync(self._router.version)
        except Exception:
            # The failed respawn's process must not linger either.
            failed = self._processes.pop(shard_id, None)
            if failed is not None:
                failed.kill()
                failed.join(timeout=10.0)
            raise
        self._worker_restarts.inc()
        get_recorder().record("worker.restart", f"shard-{shard_id}",
                              version=self._router.version)
        return proxy

    def restart_shard(self, shard_id: int) -> dict:
        """Replace a crashed worker: the respawn re-bootstraps from the
        newest catalog snapshot plus the log tail — landing in the
        current ring epoch with no gap — and rejoins the view.  Returns
        the revived worker's ``describe()`` line.

        The swap is all-or-nothing: the replacement worker is spawned,
        readied and synced *before* the old proxy is replaced and
        closed.  A failed respawn raises with the old proxy still seated
        (and still open), so the caller can retry."""
        if not 0 <= shard_id < len(self._replicas):
            raise OntologyError(f"no shard {shard_id} in this cluster")
        proxy = self._restart(shard_id)
        old = self._replicas[shard_id]
        self._replicas[shard_id] = proxy
        self._view.reseat(self._router, self._replicas)
        old.close()
        return proxy.describe()

    def terminate_worker(self, shard_id: int) -> None:
        """Failure injection (tests/ops): kill a worker process outright,
        leaving its stale proxy in place — the next read through the
        proxy raises :class:`~repro.errors.ShardUnavailableError` and
        triggers :meth:`restart_shard` recovery (as does the next sync
        or rebalance finding the corpse)."""
        process = self._processes.get(shard_id)
        if process is not None:
            _terminate(process)

    # ------------------------------------------------------------------
    # cluster state
    # ------------------------------------------------------------------
    @property
    def rebalance_staged(self) -> bool:
        """True while a chunked rebalance is staged but not flipped."""
        return self._staged is not None

    def _seat(self, shards: ShardSet) -> "RemoteClusterService":
        """The build half of the parent as its follower's replica: adopt
        the routing-only shard set folded from a bootstrapped head.  On
        a gap re-bootstrap (the log GC'd past the parent; workers
        recover on their own) the serving view still routes on the old
        router object — without a reseat every node past the gap stays
        "unrouted" for point reads even though the workers hold it.
        The view catalog's version now trails the router's; the next
        view-backed read rehydrates it from the scatter view."""
        self._shards = shards
        if self._view is not None:
            self._view.reseat(shards.router, self._replicas)
        return self

    def _recover_shard(self, shard_id: int) -> None:
        """Serving-read recovery (the :class:`ShardedStoreView` calls
        back here when a scatter/point read raises
        :class:`~repro.errors.ShardUnavailableError`): respawn the dead
        worker and reseat the view, after which the view retries the
        read.  During a staged chunked rebalance the respawn would
        bootstrap across the pending ring record and land in the new
        epoch while the live view still routes on the old one — so the
        staged resize is driven to completion first (its reconciliation
        revives corpses on the way)."""
        self._shard_unavailable.inc()
        get_recorder().record("shard.unavailable", f"shard-{shard_id}",
                              version=self._router.version,
                              staged=self._staged is not None)
        if self._staged is not None:
            self.finish_rebalance()
        else:
            self.restart_shard(shard_id)

    def sync(self) -> int:
        """Pull new batches from the shared log — the parent is the only
        process that sees the actual delta objects, so its follower
        routes them (ring flips apply in place) and folds them into the
        front's maintained views — and fan the catch-up signal to every
        worker; returns batches newly routed."""
        if self._staged is not None:
            raise OntologyError(
                "a staged rebalance is in progress (its ring record is "
                "already in the log); drive it through rebalance_step() "
                "to finish_rebalance() before syncing")
        advanced = self._follower.poll()
        if self._router.num_shards != len(self._replicas):
            raise OntologyError(
                f"the log's ring epoch spans {self._router.num_shards} "
                f"shards but this cluster runs {len(self._replicas)} "
                f"workers — complete the resize with "
                f"rebalance({self._router.num_shards}, ...)")
        for replica in self._replicas:
            replica.sync(self._router.version)
        return advanced

    def refresh(self, deltas: "Iterable[OntologyDelta]") -> int:
        """API parity with :meth:`ClusterService.refresh` for follower-
        fed clusters: the batches must already be *published to the
        shared log* (the log is the only data path to the workers);
        refresh then syncs the fleet and verifies it caught up."""
        target = max((delta.version for delta in deltas), default=0)
        applied = self.sync()
        if self._router.version < target:
            raise OntologyError(
                f"remote shards are fed from the shared log, which is at "
                f"version {self._router.version} < {target}; publish the "
                f"deltas to the log before refreshing"
            )
        return applied

    # ------------------------------------------------------------------
    # rebalancing (ring epochs)
    # ------------------------------------------------------------------
    def rebalance(self, num_shards: int, publish=None,
                  vnodes: "int | None" = None) -> "OntologyDelta | None":
        """Resize the worker fleet to ``num_shards`` via a ring-epoch
        flip recorded in the shared log (see the module docstring), in
        one call: the staged protocol below with one unbounded chunk
        per (source, destination) pair.

        ``publish`` bridges the record to the log's writer (e.g.
        :meth:`~repro.replication.publisher.PublisherThread.publish`) —
        data still flows to workers only through the log.  A worker
        that died mid-rebalance is respawned through snapshot + tail,
        so re-invoking ``rebalance`` after a partial failure completes
        the outstanding reconciliation.  Returns the ring record
        (``None`` when the fleet was already at ``num_shards`` and only
        reconciliation ran).
        """
        pending = self.begin_rebalance(num_shards, publish=publish,
                                       vnodes=vnodes, chunk_nodes=None)
        if self._staged is None:
            return None  # already at size; reconciliation ran
        while pending:
            pending = self.rebalance_step()
        return self.finish_rebalance()

    # ------------------------------------------------------------------
    # staged rebalancing: serving interleaves between chunks
    # ------------------------------------------------------------------
    def begin_rebalance(self, num_shards: int, publish=None,
                        vnodes: "int | None" = None,
                        chunk_nodes: "int | None" = 256) -> int:
        """Stage a resize: publish the ring record, compute the move
        plan on a *staged copy* of the router, and queue the transfer
        work as chunks of at most ``chunk_nodes`` node records each
        (``None``: one chunk per (source, destination) pair).  Returns
        the number of chunks queued.

        The live router and read view are **not** flipped — reads keep
        serving the old placement (stale relative to the pending ring
        record but internally consistent, which is exactly what the
        stamped-read auditor checks) while :meth:`rebalance_step` calls
        interleave with them on the serialized serving queue.
        ``sync``/``refresh`` are refused while staged: the ring record
        already sits in the log, and consuming it mid-stage would flip
        survivors under the old view.
        """
        if num_shards <= 0:
            raise OntologyError("a cluster needs at least one shard")
        if chunk_nodes is not None and chunk_nodes <= 0:
            raise OntologyError("chunk_nodes must be positive")
        if self._staged is not None:
            raise OntologyError(
                "a staged rebalance is already in progress; drive it to "
                "finish_rebalance() first")
        # The whole fleet must be at the pre-flip head before slices are
        # extracted: a lagging source would seed a new shard with stale
        # node state that nothing ever repairs.  A dead worker found
        # here is revived through snapshot + tail first.
        self._follower.poll()
        recovered: "list[int]" = []
        self._sync_workers(recovered)
        if self._router.num_shards == num_shards and \
                (vnodes is None or vnodes == self._router.vnodes):
            self._reconcile(None, recovered, {})
            return 0
        if publish is None:
            raise OntologyError(
                "remote shards are fed from the shared log; pass "
                "publish= (e.g. PublisherThread.publish) so the "
                "ring-epoch record reaches it")
        delta = self._router.next_ring_delta(num_shards, vnodes)
        publish([delta])
        # Plan on a staged router copy: apply_ring mutates in place, and
        # the live router must keep routing reads on the old placement
        # until every chunk has been pulled.
        staged_router = ShardRouter.from_state(self._router.export_state())
        plan = staged_router.apply_ring(delta)
        chunks: "list[tuple[int, int, list[str]]]" = []
        for (src, dst), node_ids in plan.by_pair():
            if dst < len(self._replicas):
                # Moves into survivors (shrink) are not sliced — those
                # workers re-bootstrap from snapshot + tail at the flip.
                continue
            step = chunk_nodes or max(len(node_ids), 1)
            for start in range(0, len(node_ids), step):
                chunks.append((src, dst, list(node_ids[start:start + step])))
        self._staged = {
            "delta": delta,
            "plan": plan,
            "recovered": recovered,
            "chunks": chunks,
            "chunk_count": len(chunks),
            "transfers": {dst: []
                          for dst in range(len(self._replicas), num_shards)},
        }
        return len(chunks)

    def rebalance_step(self) -> int:
        """Pull one bounded :class:`TransferSlice` chunk from its source
        worker into the staged transfer set; returns the number of
        chunks still pending.  Serving reads interleave between steps —
        each step holds the serialized queue only for its own chunk.  A
        source that fails mid-stream drops its destination to the
        snapshot-plus-tail bootstrap path (remaining chunks for that
        destination are discarded)."""
        staged = self._staged
        if staged is None:
            raise OntologyError(
                "no staged rebalance; call begin_rebalance first")
        if staged["chunks"]:
            src, dst, node_ids = staged["chunks"].pop(0)
            transfers = staged["transfers"]
            if transfers.get(dst) is not None:
                try:
                    if src >= len(self._replicas):
                        raise OntologyError(
                            f"transfer source shard {src} is not running")
                    transfers[dst].append(self._replicas[src].transfer_slice(
                        node_ids, staged["plan"].ring.epoch, dst))
                    self._transfer_chunks.inc()
                except (ReproError, OSError):
                    transfers[dst] = None
                    staged["chunks"] = [chunk for chunk in staged["chunks"]
                                        if chunk[1] != dst]
        return len(staged["chunks"])

    def finish_rebalance(self) -> OntologyDelta:
        """Flip the live router and read view to the staged ring epoch
        and reconcile the fleet with the chunk-collected transfers
        (draining any chunks still pending first).  Returns the ring
        record."""
        staged = self._staged
        if staged is None:
            raise OntologyError("no staged rebalance to finish")
        while staged["chunks"]:
            self.rebalance_step()
        self._staged = None
        delta = staged["delta"]
        self.apply(delta)
        self._reconcile(staged["plan"], staged["recovered"],
                        staged["transfers"])
        self.last_rebalance["transfer_chunks"] = staged["chunk_count"]
        return delta

    def _sync_workers(self, recovered: "list[int]") -> None:
        """Bring every worker to the parent's log position, respawning
        dead ones through snapshot + tail (their ids join
        ``recovered``)."""
        for index, replica in enumerate(self._replicas):
            try:
                replica.sync(self._router.version)
            except (ReproError, OSError):
                # Respawn first, swap second, close last (all-or-nothing
                # like restart_shard): a failed respawn leaves the old
                # proxy seated for the next attempt.
                self._replicas[index] = self._restart(replica.shard_id)
                replica.close()
                if replica.shard_id not in recovered:
                    recovered.append(replica.shard_id)

    def _reconcile(self, plan, recovered: "list[int]",
                   transfers: "dict[int, list[TransferSlice] | None]"
                   ) -> None:
        """Drive the fleet to the parent router's ring: retire shards
        that left the ring, cross survivors over the flip (restarting
        corpses), seed new shards from their collected ``transfers`` —
        or bootstrap them from snapshot + tail where a source failed
        (``None``) or nothing was collected (a reconciliation-only call,
        ``plan is None``) — and flip the read view."""
        target = self._router.num_shards
        new_ids = list(range(len(self._replicas), target))
        # Shards beyond the ring retire (their keys were sliced away or,
        # if the slices failed, will come from re-bootstrap folds).
        for proxy in self._replicas[target:]:
            self._stop_worker(proxy.shard_id, proxy)
        del self._replicas[target:]
        moved_records = sum(
            transfer.moved_nodes
            for slices in transfers.values() if slices is not None
            for transfer in slices)
        # Survivors cross the flip from the log; a dead worker is
        # respawned through snapshot + tail, landing in the new epoch.
        recovered = list(recovered)
        self._sync_workers(recovered)
        for shard_id in new_ids:
            self._replicas.append(
                self._seed_or_bootstrap(shard_id, transfers.get(shard_id)))
        self._view.reseat(self._router, self._replicas)
        self._rebalances.inc()
        self._moved_nodes.inc(plan.moved_nodes if plan is not None else 0)
        self._seeded_records.inc(moved_records)
        self._recovered_shards.inc(len(recovered))
        self.last_rebalance = {
            "epoch": self._router.epoch,
            "num_shards": target,
            "moved_nodes": plan.moved_nodes if plan is not None else 0,
            "seeded_records": moved_records,
            "recovered_shards": recovered,
        }

    def _seed_or_bootstrap(self, shard_id: int,
                           slices: "list[TransferSlice] | None"
                           ) -> RemoteShardReplica:
        """Bring one new shard's worker up — seeded with its slices when
        they were all collected, via full snapshot-plus-tail otherwise."""
        if slices is not None:
            for transfer in slices:
                self._router.note_materialized(
                    shard_id,
                    [node.node_id for node in transfer.nodes] +
                    [ghost.node_id for ghost in transfer.ghosts])
            proxy = None
            try:
                proxy = self._connect(shard_id, seed=True)
                seeded = proxy.seed(self._router.export_state(), slices)
                self._router.sync_shard_version(shard_id,
                                                seeded["version"])
                return proxy
            except (ReproError, OSError):
                self._stop_worker(shard_id, proxy)
        proxy = self._connect(shard_id)
        proxy.sync(self._router.version)
        return proxy

    # ------------------------------------------------------------------
    # introspection / lifecycle
    # ------------------------------------------------------------------
    def obs_status(self) -> dict:
        """Per-worker observability: each shard worker's own registry
        snapshot and tracer state (the parent's registry is reported by
        the serving tier's ``obs_status``, which nests this dict)."""
        return {"shards": [replica.obs_status()
                           for replica in self._replicas]}

    def close(self) -> None:
        """Stop workers and close sockets (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for replica in self._replicas:
            replica.stop()
            replica.close()
        if self._client is not None:
            self._client.close()
        for process in self._processes.values():
            _join(process)

    def __enter__(self) -> "RemoteClusterService":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
