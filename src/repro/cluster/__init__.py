"""Sharded ontology cluster: partitioned stores + scatter-gather serving.

The production GIANT system scales by fleet: the MySQL-backed ontology is
replicated and fronted by Tars RPC services, and tagging traffic fans out
over many machines.  This package is the reproduction's cluster tier
(DESIGN.md §6), built on PR 1's store/serving split:

* :mod:`repro.cluster.ring` — :class:`HashRing`: the consistent-hash
  ring (virtual nodes, blake2s placement) plus the versioned ring-epoch
  records and :class:`TransferSlice` rebalance frames (DESIGN.md §9);
* :mod:`repro.cluster.router` — :class:`ShardRouter`: ring-based
  partitioning of node ids by canonical phrase key, splitting of the
  global :class:`~repro.core.store.OntologyDelta` stream into per-shard
  sub-deltas with ghost replication for cross-shard edges, and
  :meth:`ShardRouter.apply_ring` epoch flips producing the
  :class:`RebalancePlan` of moved records;
* :mod:`repro.cluster.shards` — :class:`ShardReplica` (one shard's store
  + owned/ghost bookkeeping), :class:`ShardSet` (a router plus the
  replicas one process holds: where deltas are split and applied) and
  :class:`ShardedStoreView` (a read-only object implementing the store
  read API by deterministic scatter-gather merges);
* :mod:`repro.cluster.service` — :class:`ClusterService`: an
  :class:`~repro.serving.service.OntologyService` over that view, with
  results byte-identical to a single store at the same stream version;
* :mod:`repro.cluster.remote` — :class:`RemoteClusterService` /
  :class:`RemoteShardReplica`: every shard in its own worker process,
  follower-fed from the :mod:`repro.replication` delta log, with the
  scatter-gather reads crossing process boundaries over RPC
  (DESIGN.md §8).
"""

from .remote import RemoteClusterService, RemoteShardReplica
from .ring import HashRing, TransferSlice, ring_delta, ring_op_of
from .router import RebalancePlan, ShardRouter, stable_hash
from .service import ClusterService
from .shards import ShardReplica, ShardSet, ShardedStoreView

__all__ = [
    "ClusterService",
    "HashRing",
    "RebalancePlan",
    "RemoteClusterService",
    "RemoteShardReplica",
    "ShardReplica",
    "ShardRouter",
    "ShardSet",
    "ShardedStoreView",
    "TransferSlice",
    "ring_delta",
    "ring_op_of",
    "stable_hash",
]
