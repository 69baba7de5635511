"""ClusterService: scatter-gather serving over hash-partitioned shards.

The production GIANT deployment fronts a *fleet* of ontology stores with
RPC services; this is the reproduction's cluster tier (DESIGN.md §6).  A
:class:`ClusterService` owns

* a :class:`~repro.cluster.router.ShardRouter` that hash-partitions node
  ids and splits every incoming :class:`~repro.core.store.OntologyDelta`
  batch into per-shard sub-deltas,
* N :class:`~repro.cluster.shards.ShardReplica` stores, and
* a :class:`~repro.cluster.shards.ShardedStoreView` that reconstructs
  exact single-store read semantics by deterministic scatter-gather
  merges,

and exposes the *same* serving API as
:class:`~repro.serving.service.OntologyService` — ``tag_documents``,
``interpret_queries``, ``neighborhood``, ``concepts_of_entity``, user
profiles and story follow-ups — by running an ordinary
``OntologyService`` over the view.  Results are therefore byte-identical
to a single-store service at the same stream version (the cluster tests
assert this), while storage, inverted indexes and candidate generation
are partitioned N ways.

Since the consistent-hash ring (DESIGN.md §9) the partition is no longer
frozen: :meth:`ClusterService.rebalance` grows or shrinks the shard set
live by flipping a ring epoch, streaming only the moved node records
between shards as :class:`~repro.cluster.ring.TransferSlice` transfers,
and the same flip replays deterministically from the recorded ring-epoch
delta on any other consumer of the stream.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from ..core.ontology import AttentionOntology
from ..core.serialize import store_to_delta
from ..core.store import EdgeType, OntologyDelta, OntologyStore
from ..errors import DeltaGapError, OntologyError
from ..obs.metrics import MetricsRegistry, get_registry
from ..serving.service import OntologyService
from .ring import HashRing, ring_delta, ring_op_of
from .router import RebalancePlan, ShardRouter
from .shards import ShardReplica, ShardedStoreView


class ShardedFront:
    """What every sharded front is, declared once: the cluster state
    properties, the nine serving endpoints (an ordinary
    :class:`OntologyService` over the scatter-gather view) and
    ``stats()``, over ``(_router, _replicas, _view, _service)``.
    Subclasses add how deltas arrive and how a ring flip moves data.
    """

    #: Shard-read reply encoding; ``None`` when shards are in-process.
    _wire: "str | None" = None

    def __init__(self, router: ShardRouter, replicas: list,
                 registry: MetricsRegistry, **service_options: Any) -> None:
        self._router = router
        self._replicas = replicas
        self._view = ShardedStoreView(router, replicas, registry=registry)
        self._service = OntologyService(
            AttentionOntology(store=self._view), registry=registry,
            **service_options)
        self._deltas_applied = 0
        self.last_rebalance: "dict | None" = None

    # ------------------------------------------------------------------
    # cluster state
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return self._router.num_shards

    @property
    def version(self) -> int:
        """Global delta-stream version the cluster serves."""
        return self._router.version

    @property
    def ontology(self) -> AttentionOntology:
        """The merged read view, as an :class:`AttentionOntology` façade."""
        return self._service.ontology

    @property
    def views(self):
        """The serving facade's maintained-view catalog (per-shard
        posting fragments live on each replica's own catalog)."""
        return self._service.views

    @property
    def router(self) -> ShardRouter:
        return self._router

    @property
    def replicas(self) -> list:
        return list(self._replicas)

    # ------------------------------------------------------------------
    # serving APIs (delegated to the inner service over the view)
    # ------------------------------------------------------------------
    def tag_documents(self, documents: Sequence):
        """Tag a batch of documents via scatter-gather candidate reads."""
        return self._service.tag_documents(documents)

    def interpret_queries(self, queries: Sequence[str]):
        """Analyze a batch of raw query strings."""
        return self._service.interpret_queries(queries)

    def neighborhood(self, node_id: str, depth: int = 1,
                     edge_type: "EdgeType | None" = None) -> tuple[str, ...]:
        return self._service.neighborhood(node_id, depth=depth,
                                          edge_type=edge_type)

    def concepts_of_entity(self, entity_phrase: str) -> tuple[str, ...]:
        return self._service.concepts_of_entity(entity_phrase)

    def record_read(self, user_id: str, tags: "list[str]",
                    weight: float = 1.0):
        return self._service.record_read(user_id, tags, weight=weight)

    def user_interests(self, user_id: str, k: int = 10, node_type=None):
        return self._service.user_interests(user_id, k=k, node_type=node_type)

    def recommend_for_user(self, user_id: str, k: int = 5):
        return self._service.recommend_for_user(user_id, k=k)

    def track_events(self, events) -> int:
        return self._service.track_events(events)

    def follow_ups(self, read_phrase: str, limit: int = 3):
        return self._service.follow_ups(read_phrase, limit=limit)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Inner serving stats plus per-shard placement/version lines."""
        stats = self._service.stats()
        stats["num_shards"] = self.num_shards
        if self._wire is not None:
            stats["wire"] = self._wire
        stats["cluster_deltas_applied"] = self._deltas_applied
        stats["ring"] = {"epoch": self._router.epoch,
                         "num_shards": self._router.num_shards,
                         "vnodes": self._router.vnodes}
        if self.last_rebalance is not None:
            stats["last_rebalance"] = dict(self.last_rebalance)
        stats["shards"] = [replica.describe() for replica in self._replicas]
        return stats


class ClusterService(ShardedFront):
    """Sharded drop-in for :class:`OntologyService`: in-process shards,
    deltas handed straight to :meth:`refresh`.

    Args:
        num_shards: number of hash partitions.
        ner / duet / tagger_options / max_rewrites / max_recommendations /
            cache_size: forwarded to the inner :class:`OntologyService`.
        deltas: optional delta stream to apply at construction.
        ontology: optional existing :class:`AttentionOntology` (or bare
            store) to shard — folded into one synthetic bootstrap delta
            via :func:`~repro.core.serialize.store_to_delta`.  Mutually
            exclusive with ``deltas``: a folded dump starts a *new*
            stream whose versions do not align with previously recorded
            batches.
        snapshot: optional :meth:`OntologyStore.compact` dump to cold-
            start the shards from.  The snapshot is folded through the
            router (ghost replicas included) and the router is fast-
            forwarded to the snapshot's stream version, so ``deltas``
            may then be the *tail* recorded after the snapshot — the
            cluster-side bootstrap protocol, mirroring
            :meth:`OntologyStore.bootstrap`.  Mutually exclusive with
            ``ontology``.  A snapshot recording a ring epoch is
            authoritative: the cluster comes up on that ring, whatever
            ``num_shards`` says.
        registry: metrics registry shared by the inner service, the
            scatter view and the cluster's own ``cluster`` scope;
            defaults to the process registry.
    """

    def __init__(self, num_shards: int = 4, ner=None, duet=None,
                 tagger_options: "dict[str, Any] | None" = None,
                 max_rewrites: int = 5, max_recommendations: int = 5,
                 cache_size: int = 4096,
                 deltas: "Iterable[OntologyDelta] | None" = None,
                 ontology: "AttentionOntology | OntologyStore | None" = None,
                 snapshot: "dict | None" = None,
                 registry: "MetricsRegistry | None" = None) -> None:
        registry = registry if registry is not None else get_registry()
        super().__init__(
            ShardRouter(num_shards),
            [ShardReplica(i) for i in range(num_shards)], registry,
            ner=ner, duet=duet, tagger_options=tagger_options,
            max_rewrites=max_rewrites,
            max_recommendations=max_recommendations, cache_size=cache_size)
        self._metrics = registry.scope("cluster")
        self._rebalances = self._metrics.counter("rebalances")
        self._moved_nodes = self._metrics.counter("rebalance_moved_nodes")
        self._transfer_ops = self._metrics.counter("rebalance_transfer_ops")
        if ontology is not None and deltas is not None:
            raise OntologyError(
                "pass either a delta stream or an ontology to fold, not "
                "both — store_to_delta starts a new stream whose versions "
                "do not align with previously recorded deltas"
            )
        if ontology is not None and snapshot is not None:
            raise OntologyError(
                "pass either a snapshot to bootstrap from or an ontology "
                "to fold, not both"
            )
        if snapshot is not None:
            self.bootstrap(snapshot)
        if ontology is not None:
            store = ontology.store if isinstance(ontology, AttentionOntology) \
                else ontology
            self.refresh([store_to_delta(store)])
        if deltas is not None:
            self.refresh(deltas)

    def bootstrap(self, snapshot: dict) -> None:
        """Cold-start the shards from an :meth:`OntologyStore.compact`
        dump: fold it into one synthetic delta, route it (materialising
        ghost replicas for cross-shard edges), then fast-forward the
        router to the snapshot's stream version so the tail recorded
        after the snapshot applies through :meth:`refresh`.
        """
        if self._router.version or len(self._router):
            raise OntologyError(
                "snapshot bootstrap requires a fresh cluster — these "
                "shards already hold routed state"
            )
        from ..core.serialize import store_from_dict  # local: avoid cycle

        ring_meta = snapshot.get("ring")
        if ring_meta is not None:
            # The snapshot records the ring epoch active at its stream
            # version; it is authoritative — a cluster bootstrapping
            # from a post-rebalance snapshot must come up on the
            # rebalanced ring, whatever shard count it was constructed
            # with, or its placement would disagree with every other
            # consumer of the stream.
            ring = HashRing.from_op(ring_meta)
            if ring != self._router.ring:
                self._router = ShardRouter.from_ring(ring)
                self._replicas = [ShardReplica(i)
                                  for i in range(ring.num_shards)]
                self._view.reseat(self._router, self._replicas)
        fold = store_to_delta(store_from_dict(snapshot))
        for replica, sub in zip(self._replicas, self._router.split(fold)):
            if sub is not None:
                replica.apply(sub)
        self._router.fast_forward(snapshot["store_version"])
        # The fold delta's versions do not align with the snapshot's
        # stream version line; rebuild the front views from the hydrated
        # shards and adopt the stream version directly.
        self._service.fast_forward_views(snapshot["store_version"])

    def refresh(self, deltas: "Iterable[OntologyDelta]") -> int:
        """Route update batches to their shards; returns batches applied.

        Mirrors :meth:`OntologyService.refresh`: already-applied batches
        are skipped (at-least-once delivery), a gap in the stream — or a
        batch straddling the cluster's version, e.g. a tail whose base
        predates the bootstrap snapshot — raises
        :class:`~repro.errors.DeltaGapError` before any shard is touched.
        """
        applied = 0
        for delta in deltas:
            if not DeltaGapError.check("cluster", self._router.version,
                                       delta):
                continue
            if ring_op_of(delta) is not None:
                # A ring-epoch record replayed from the stream (or log):
                # perform the same live rebalance the recording cluster
                # did, so replay reproduces the rebalanced topology.
                self._apply_ring_delta(delta)
            else:
                sub_deltas = self._router.split(delta)
                for replica, sub in zip(self._replicas, sub_deltas):
                    if sub is None:
                        continue
                    try:
                        replica.apply(sub)
                    except Exception as exc:
                        # The router already advanced past this batch;
                        # like a single store's mid-replay failure (see
                        # OntologyStore.apply_delta), the cluster is now
                        # inconsistent and must be rebuilt, not retried.
                        raise OntologyError(
                            f"shard {replica.shard_id} failed mid-refresh "
                            f"({exc}); cluster replicas are inconsistent — "
                            "rebuild from a snapshot plus a clean delta "
                            "stream"
                        ) from exc
            # Advance the front-level maintained views (interest lists,
            # follow-up sequences) from the same delta the shards
            # consumed; per-shard posting fragments already advanced
            # inside replica.apply().
            self._service.fold_views(delta)
            applied += 1
            self._deltas_applied += 1
        return applied

    # ------------------------------------------------------------------
    # rebalancing (ring epochs)
    # ------------------------------------------------------------------
    def rebalance(self, num_shards: int,
                  vnodes: "int | None" = None) -> OntologyDelta:
        """Grow (or shrink) the cluster to ``num_shards`` shards by
        flipping to a new consistent-hash ring epoch.

        Mints the ring-epoch record at the cluster's current stream
        version, streams the moved node records (plus the ghost replicas
        and incident edges they need) to their new shards as
        :class:`~repro.cluster.ring.TransferSlice` transfers, and flips
        the read view atomically once every transfer landed — readers
        never observe a mixed epoch.  Returns the ring-epoch delta,
        which the caller must feed to every *other* consumer of the
        stream (the single-store oracle, the replicated log) so all
        version lines stay aligned.  Transfer accounting lands on
        :attr:`last_rebalance`.
        """
        ring = HashRing(num_shards,
                        self._router.vnodes if vnodes is None else vnodes,
                        self._router.epoch + 1)
        delta = ring_delta(self.version, ring)
        self._apply_ring_delta(delta)
        self._service.fold_views(delta)
        self._deltas_applied += 1
        return delta

    def _apply_ring_delta(self, delta: OntologyDelta) -> dict:
        """Execute one ring-epoch record: plan, transfer, demote, flip."""
        plan = self._router.apply_ring(delta)
        sources = list(self._replicas)
        for shard_id in range(len(self._replicas), plan.ring.num_shards):
            self._replicas.append(ShardReplica(shard_id))
        transferred = self._run_transfers(plan, sources)
        for shard_id, moved in enumerate(
                map(plan.moved_out_of, range(len(sources)))):
            if moved:
                sources[shard_id].demote(moved)
        if plan.ring.num_shards < len(self._replicas):
            del self._replicas[plan.ring.num_shards:]
        self._view.reseat(self._router, self._replicas)
        self._rebalances.inc()
        self._moved_nodes.inc(plan.moved_nodes)
        self._transfer_ops.inc(transferred)
        self.last_rebalance = {
            "epoch": plan.ring.epoch,
            "num_shards": plan.ring.num_shards,
            "moved_nodes": plan.moved_nodes,
            "transfer_ops": transferred,
        }
        return self.last_rebalance

    def _run_transfers(self, plan: RebalancePlan, sources) -> int:
        """Stream every (source, destination) slice of the plan; returns
        total ops applied on destinations."""
        total_ops = 0
        for (src, dst), node_ids in plan.by_pair():
            transfer = sources[src].transfer_slice(node_ids,
                                                   plan.ring.epoch, dst)
            dest = self._replicas[dst]
            result = dest.adopt_slice(transfer)
            self._router.note_materialized(
                dst, [node.node_id for node in transfer.nodes] +
                [ghost.node_id for ghost in transfer.ghosts])
            self._router.sync_shard_version(dst, dest.store.version)
            total_ops += result["ops"]
        return total_ops
