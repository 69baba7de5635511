"""LogFollower: snapshot-plus-tail recovery over a published delta log.

A follower holds an :class:`~repro.core.store.OntologyStore` replica
whose state always equals *snapshot + contiguous delta suffix* — the
invariant incremental view-maintenance systems assume.  It is fed
through a small client interface with two implementations:

* :class:`SyncLogClient` — a blocking TCP client for
  :class:`~repro.replication.publisher.LogPublisher` (length-prefixed
  JSON frames, the :mod:`repro.serving.rpc` wire layout); used by shard
  worker processes and standalone serving replicas;
* :class:`LocalLogClient` — the same interface served directly off
  in-process :class:`~repro.replication.log.DeltaLog` /
  :class:`~repro.replication.catalog.SnapshotCatalog` objects (the CLI's
  ``serve --from-log`` path, tests).

``bootstrap()`` cold-starts from the newest catalog snapshot plus the
log tail; ``poll()`` keeps the store current.  When the follower has
fallen behind the log's garbage-collected prefix, the fetch (or the
apply) raises :class:`~repro.errors.DeltaGapError`; ``poll()`` recovers
by re-bootstrapping from the newest snapshot — the follower's store
object is *replaced*, which is why consumers reach it through
:attr:`store` rather than holding the reference.
"""

from __future__ import annotations

import base64

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
        bytes (decoded — and checksum-verified — here); an old publisher
        rejects the unknown ``accept`` kwarg, so the client retries the
        plain form and gets the decoded-JSON snapshot instead."""
        try:
            result = self._rpc.call("log_snapshot", accept=["columnar"])
        except DeltaGapError:
            raise
        except ReproError:
            result = self._rpc.call("log_snapshot")
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
    """The client interface served directly off in-process objects."""

    def __init__(self, log: DeltaLog,
                 catalog: "SnapshotCatalog | None" = None,
                 follower_id: "str | None" = None) -> None:
        self._log = log
        self._catalog = catalog
        # Interface parity with SyncLogClient; an in-process reader
        # shares the builder's log, so there is no GC floor to pin.
        self.follower_id = follower_id

    def register(self, since: int = 0) -> None:
        """No-op twin of :meth:`SyncLogClient.register`."""

    def forget(self, follower_id: str) -> None:
        """No-op twin of :meth:`SyncLogClient.forget`."""

    def fetch(self, since: int = 0,
              max_count: "int | None" = None) -> "list[OntologyDelta]":
        return self._log.read(since, max_count=max_count)

    def wait(self, since: int = 0, timeout: float = 10.0,
             max_count: "int | None" = None) -> "list[OntologyDelta]":
        # In-process there is no separate producer to wait on.
        if self._log.last_version <= since:
            return []
        return self.fetch(since, max_count=max_count)

    def latest_snapshot(self) -> "tuple[dict | None, int]":
        if self._catalog is None:
            return None, 0
        return self._catalog.latest()

    def status(self) -> dict:
        status = {"log": self._log.describe()}
        if self._catalog is not None:
            status["catalog"] = self._catalog.describe()
        return status

    def close(self) -> None:  # interface parity with SyncLogClient
        pass


class LogFollower:
    """An :class:`OntologyStore` replica fed from a published log.

    Attributes:
        bootstraps: times a store was (re)built from snapshot + tail.
        recoveries: times a :class:`DeltaGapError` forced a re-bootstrap
            (the follower had fallen behind the GC'd prefix).
        deltas_applied: tail batches applied across the follower's life.
    """

    def __init__(self, client) -> None:
        self._client = client
        self._store: "OntologyStore | None" = None
        self.bootstraps = 0
        self.recoveries = 0
        self.deltas_applied = 0

    # ------------------------------------------------------------------
    @property
    def store(self) -> OntologyStore:
        if self._store is None:
            self.bootstrap()
        return self._store

    @property
    def version(self) -> int:
        return self.store.version

    # ------------------------------------------------------------------
    def bootstrap(self) -> OntologyStore:
        """(Re)build the replica from catalog snapshot + log tail."""
        snapshot, version = self._client.latest_snapshot()
        tail = self._client.fetch(version if snapshot is not None else 0)
        self._store = OntologyStore.bootstrap(snapshot, tail)
        self.bootstraps += 1
        self.deltas_applied += len(tail)
        return self._store

    def poll(self, timeout: float = 0.0) -> int:
        """Apply new batches; returns how many were applied this call
        (including a recovery re-bootstrap's tail).

        With ``timeout > 0`` the fetch long-polls (subscribe semantics).
        A :class:`DeltaGapError` from the fetch or the apply — the log's
        retained prefix moved past this follower — triggers recovery by
        re-bootstrapping from the newest snapshot.
        """
        if self._store is None:
            self.bootstrap()
            return 0
        before = self.deltas_applied
        try:
            if timeout > 0:
                deltas = self._client.wait(self._store.version,
                                           timeout=timeout)
            else:
                deltas = self._client.fetch(self._store.version)
            for delta in deltas:
                if not DeltaGapError.check("follower", self._store.version,
                                           delta):
                    continue
                self._store.apply_delta(delta)
                self.deltas_applied += 1
        except DeltaGapError as exc:
            self.recoveries += 1
            get_recorder().record(
                "replication.gap_rebootstrap", "replication.follower",
                version=self._store.version, error=str(exc))
            self.bootstrap()
        return self.deltas_applied - before
