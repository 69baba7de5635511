"""Replicated delta log: the durability and fan-out substrate (DESIGN.md §8).

GIANT's ontology is rebuilt continuously and consumed online, so the
*delta stream* — not any single in-memory store — is the system of
record.  This package makes that stream durable and shippable, following
the log-shipping / snapshot-plus-tail recovery discipline of incremental
view-maintenance systems: every follower state must equal replay of a
snapshot plus a contiguous delta suffix.

* :mod:`repro.replication.log` — :class:`DeltaLog`: a durable, segmented
  write-ahead log of :class:`~repro.core.store.OntologyDelta` batches
  (size-bounded JSON-lines segments, manifest, fsync-on-commit option,
  contiguity checks on append, range reads by version, torn-tail crash
  recovery);
* :mod:`repro.replication.catalog` — :class:`SnapshotCatalog`: triggers
  :meth:`OntologyStore.compact` when the un-folded log prefix crosses a
  size threshold, records snapshots alongside the log, and garbage-
  collects folded segments while retaining a configurable tail;
* :mod:`repro.replication.publisher` — :class:`LogPublisher`: serves
  ``fetch(since, max)`` / long-poll ``wait`` / snapshot hand-off over
  the :mod:`repro.serving.rpc` length-prefixed framing (plus
  :class:`PublisherThread` to run it next to a builder);
* :mod:`repro.replication.follower` — :class:`LogFollower`: bootstraps
  a replica (a store, a shard set, a serving tier) from catalog
  snapshot + log tail and keeps it current, recovering from
  :class:`~repro.errors.DeltaGapError` (a GC'd prefix) by
  re-bootstrapping; :class:`SyncLogClient` / :class:`LocalLogClient`
  are the blocking transports behind it.

:mod:`repro.cluster.remote` builds on this package to run every shard of
a :class:`~repro.cluster.service.ClusterService` in its own
follower-fed worker process.
"""

from .catalog import SNAPSHOT_FORMATS, SnapshotCatalog
from .follower import LocalLogClient, LogFollower, SyncLogClient
from .log import DeltaLog
from .publisher import LogPublisher, PublisherThread

__all__ = [
    "DeltaLog",
    "LocalLogClient",
    "LogFollower",
    "LogPublisher",
    "PublisherThread",
    "SNAPSHOT_FORMATS",
    "SnapshotCatalog",
    "SyncLogClient",
]
