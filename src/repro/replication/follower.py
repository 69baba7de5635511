"""LogFollower: snapshot-plus-tail recovery over a published delta log.

Every process that consumes the log runs one :class:`LogFollower`
(DESIGN.md §8 "Log shipping" lists them): the only code that bootstraps
from ``latest_snapshot()`` + ``fetch(tail)`` (through
:meth:`OntologyStore.bootstrap`), polls or long-polls for new batches,
turns a :class:`~repro.errors.DeltaGapError` into a rebuild, and
confirms the applied position to the publisher's segment-GC floor.  What
it feeds is a *replica* — anything with ``version`` and ``apply(delta)
-> bool``, built from the bootstrapped head store (by default the head
store itself) — whose state therefore always equals *snapshot +
contiguous delta suffix*, the invariant incremental view maintenance
assumes.  A rebuild *replaces* the replica object, which is why
consumers reach it through :attr:`LogFollower.replica` rather than
holding the reference.

The log is read through a small client interface:
:class:`SyncLogClient`, a blocking TCP client for
:class:`~repro.replication.publisher.LogPublisher` (the
:mod:`repro.serving.rpc` envelope), and :class:`LocalLogClient`, the
same reads served off in-process :class:`~repro.replication.log.DeltaLog`
/ :class:`~repro.replication.catalog.SnapshotCatalog` objects.
"""

from __future__ import annotations

import base64
import time

from ..core.serialize import delta_from_dict
from ..core.store import OntologyDelta, OntologyStore
from ..errors import DeltaGapError, ReproError
from ..obs.recorder import get_recorder
from ..serving.rpc import BlockingRpcClient
from .catalog import SnapshotCatalog
from .log import DeltaLog


class SyncLogClient:
    """Blocking client for a :class:`LogPublisher` (one request at a
    time over one connection — followers are sequential consumers).

    With a ``follower_id`` the client identifies itself on every fetch:
    the publisher tracks the position, and the snapshot catalog delays
    segment GC until this follower passed a segment (:meth:`register` /
    the publisher's GC floor).  ``close`` deregisters best-effort so a
    departed follower stops pinning the log.
    """

    def __init__(self, rpc: BlockingRpcClient,
                 follower_id: "str | None" = None) -> None:
        self._rpc = rpc
        self.follower_id = follower_id

    @classmethod
    def connect(cls, host: str, port: int, timeout: float = 30.0,
                follower_id: "str | None" = None) -> "SyncLogClient":
        return cls(BlockingRpcClient(
            host, port, timeout, unavailable=lambda detail: ReproError(
                f"log publisher unavailable: {detail}")),
            follower_id=follower_id)

    # ------------------------------------------------------------------
    def fetch(self, since: int = 0,
              max_count: "int | None" = None) -> "list[OntologyDelta]":
        """Deltas advancing a consumer at ``since`` (may raise
        :class:`DeltaGapError` when that prefix was GC'd)."""
        kwargs = {"since": since, "max_count": max_count}
        if self.follower_id is not None:
            kwargs["follower"] = self.follower_id
        result = self._rpc.call("log_fetch", **kwargs)
        return [delta_from_dict(d) for d in result["deltas"]]

    def register(self, since: int = 0) -> None:
        """Register this follower's position with the publisher so the
        catalog's segment GC waits for it (requires ``follower_id``)."""
        if self.follower_id is None:
            raise ReproError("registering requires a follower_id")
        self._rpc.call("log_register", follower=self.follower_id, since=since)

    def forget(self, follower_id: str) -> None:
        """Deregister *another* follower by name — the janitor path: a
        supervisor reaping a crashed follower process clears its pin on
        the GC floor (the corpse can no longer send its own goodbye)."""
        self._rpc.call("log_forget", follower=follower_id)

    def wait(self, since: int = 0, timeout: float = 10.0,
             max_count: "int | None" = None) -> "list[OntologyDelta]":
        """Long-poll fetch: blocks server-side until the log grows past
        ``since`` or ``timeout`` lapses (then returns ``[]``)."""
        kwargs = {"since": since, "timeout": timeout, "max_count": max_count}
        if self.follower_id is not None:
            kwargs["follower"] = self.follower_id
        # The socket must outwait the server-side long poll.
        result = self._rpc.finish_call(
            self._rpc.begin_call("log_wait", **kwargs),
            timeout=max(timeout * 2, timeout + 10.0))
        return [delta_from_dict(d) for d in result["deltas"]]

    def latest_snapshot(self) -> "tuple[dict | None, int]":
        """Newest snapshot + version for bootstrap.  Advertises columnar
        acceptance so a publisher with columnar segments ships the packed
        bytes (decoded — and checksum-verified — here)."""
        result = self._rpc.call("log_snapshot", accept=["columnar"])
        if result.get("format") == "columnar" \
                and result.get("segment") is not None:
            from ..core.columnar import decode_store_segment

            segment = base64.b64decode(result["segment"])
            return decode_store_segment(segment), result["version"]
        return result["snapshot"], result["version"]

    def status(self) -> dict:
        return self._rpc.call("log_status")

    def close(self) -> None:
        if self.follower_id is not None:
            try:  # best-effort: stop pinning the log's GC floor
                self._rpc.call("log_forget", follower=self.follower_id)
            except Exception:
                pass
        self._rpc.close()

    def __enter__(self) -> "SyncLogClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class LocalLogClient:
    """The read half of the client interface served directly off
    in-process objects (a reader that shares the builder's log has no
    GC floor to pin, hence no follower id)."""

    follower_id = None

    def __init__(self, log: DeltaLog,
                 catalog: "SnapshotCatalog | None" = None) -> None:
        self._log = log
        self._catalog = catalog

    def fetch(self, since: int = 0,
              max_count: "int | None" = None) -> "list[OntologyDelta]":
        return self._log.read(since, max_count=max_count)

    def wait(self, since: int = 0, timeout: float = 10.0,
             max_count: "int | None" = None) -> "list[OntologyDelta]":
        # In-process there is no separate producer to wait on.
        return self.fetch(since, max_count=max_count)

    def latest_snapshot(self) -> "tuple[dict | None, int]":
        if self._catalog is None:
            return None, 0
        return self._catalog.latest()


#: One long-poll slice, and when to give up, in :meth:`LogFollower.catch_up`.
_CATCH_UP_WAIT_SECONDS = 2.0
_CATCH_UP_MAX_SECONDS = 120.0


class LogFollower:
    """A replica fed from a published log.

    Args:
        client: a :class:`SyncLogClient` or :class:`LocalLogClient`.
        build: ``build(head) -> replica`` turning the bootstrapped head
            :class:`OntologyStore` into what this follower feeds;
            ``None`` feeds the head store itself.

    Attributes:
        replica: what is being fed (``None`` until :meth:`bootstrap` or
            :meth:`seat`).
        bootstraps: times the replica was (re)built from snapshot + tail.
        recoveries: times a :class:`DeltaGapError` forced a re-bootstrap
            (the follower had fallen behind the GC'd prefix).
        deltas_applied: tail batches applied across the follower's life.
    """

    def __init__(self, client, build=None) -> None:
        self._client = client
        self._build = build
        self.replica = None
        self.bootstraps = 0
        self.recoveries = 0
        self.deltas_applied = 0

    @property
    def version(self) -> int:
        return self.replica.version

    # ------------------------------------------------------------------
    def bootstrap(self):
        """(Re)build the replica from catalog snapshot + log tail."""
        snapshot, version = self._client.latest_snapshot()
        tail = self._client.fetch(version if snapshot is not None else 0)
        head = OntologyStore.bootstrap(snapshot, tail)
        self.bootstraps += 1
        self.deltas_applied += len(tail)
        return self.seat(self._build(head) if self._build else head)

    def seat(self, replica):
        """Adopt ``replica`` as the state to feed from its version on (a
        bootstrap's result, or state transferred at a pinned version —
        a rebalance-seeded shard), and pin the GC floor there."""
        self.replica = replica
        self._confirm()
        return replica

    def _confirm(self) -> None:
        """A follower's pinned position is the ``since`` of its last
        fetch, which trails the version it just applied by one batch;
        confirm the applied position so the segment-GC floor reflects
        reality."""
        if self._client.follower_id is not None:
            self._client.register(self.replica.version)

    def poll(self, timeout: float = 0.0, upto: "int | None" = None) -> int:
        """Apply new batches; returns how many were applied this call
        (including a recovery re-bootstrap's tail).

        With ``timeout > 0`` the fetch long-polls (subscribe semantics);
        with ``upto`` batches ending past that version stay in the log
        for a later poll.  A :class:`DeltaGapError` from the fetch or
        the apply — the log's retained prefix moved past this follower,
        or a ring flip it cannot absorb — triggers recovery by
        re-bootstrapping from the newest snapshot.
        """
        if self.replica is None:
            self.bootstrap()
            return 0
        before = self.deltas_applied
        try:
            if timeout > 0:
                deltas = self._client.wait(self.replica.version,
                                           timeout=timeout)
            else:
                deltas = self._client.fetch(self.replica.version)
            for delta in deltas:
                if upto is not None and delta.version > upto:
                    break
                if self.replica.apply(delta):
                    self.deltas_applied += 1
        except DeltaGapError as exc:
            self.recoveries += 1
            get_recorder().record(
                "replication.gap_rebootstrap",
                self._client.follower_id or "replication.follower",
                version=self.replica.version, error=str(exc))
            self.bootstrap()
        if self.deltas_applied > before:
            self._confirm()
        return self.deltas_applied - before

    def catch_up(self, target: int) -> None:
        """Long-poll until the replica reaches ``target`` (a version the
        caller knows the log holds)."""
        deadline = time.monotonic() + _CATCH_UP_MAX_SECONDS
        while self.replica.version < target:
            if time.monotonic() > deadline:
                raise ReproError(
                    f"follower {self._client.follower_id} could not catch "
                    f"up to version {target} (at {self.replica.version})")
            self.poll(timeout=_CATCH_UP_WAIT_SECONDS)
