"""ClusterService: scatter-gather serving over hash-partitioned shards.

The production GIANT deployment fronts a *fleet* of ontology stores with
RPC services; this is the reproduction's cluster tier (DESIGN.md §6).
:class:`ShardedFront` *is* an
:class:`~repro.serving.service.OntologyService` whose store is a
:class:`~repro.cluster.shards.ShardedStoreView` — exact single-store
read semantics by deterministic scatter-gather merges — and whose
"advance one delta" step moves a :class:`~repro.cluster.shards.ShardSet`
(router + locally held replicas) instead of a store.  The nine serving
endpoints, ``refresh`` and the view fold are therefore the single-store
code, and results are byte-identical to a single-store service at the
same stream version (the cluster tests assert this), while storage,
inverted indexes and candidate generation are partitioned N ways.

:class:`ClusterService` is the in-process front: it holds every shard,
and deltas are handed straight to :meth:`~ShardedFront.refresh`.  It
comes up empty, from a delta stream, or from a head store folded through
the router — a snapshot plus tail is
``ontology=OntologyStore.bootstrap(snapshot, tail)``.  Since
the consistent-hash ring (DESIGN.md §9) the partition is not frozen:
:meth:`ClusterService.rebalance` grows or shrinks the shard set live by
applying a ring-epoch record — moved node records stream between shards
as :class:`~repro.cluster.ring.TransferSlice` transfers — and the same
flip replays deterministically from the recorded delta on any other
consumer of the stream.
"""

from __future__ import annotations

from typing import Any, Iterable

from ..core.ontology import AttentionOntology
from ..core.store import OntologyDelta, OntologyStore
from ..errors import OntologyError
from ..obs.metrics import MetricsRegistry, get_registry
from ..serving.service import OntologyService
from .router import ShardRouter
from .shards import ShardSet, ShardedStoreView


class ShardedFront(OntologyService):
    """What every sharded front is, declared once: an
    :class:`OntologyService` over the scatter-gather view of
    ``(_shards, _replicas)``, plus the cluster state properties and the
    cluster lines of ``stats()``.  Subclasses add how deltas arrive and
    how a ring flip moves data.
    """

    def __init__(self, shards: ShardSet, replicas: list,
                 registry: MetricsRegistry, **service_options: Any) -> None:
        self._shards = shards
        self._replicas = replicas
        self._view = ShardedStoreView(shards.router, replicas,
                                      registry=registry)
        super().__init__(AttentionOntology(store=self._view),
                         registry=registry, **service_options)
        self.last_rebalance: "dict | None" = None

    # ------------------------------------------------------------------
    # cluster state
    # ------------------------------------------------------------------
    @property
    def router(self) -> ShardRouter:
        return self._shards.router

    _router = router

    @property
    def num_shards(self) -> int:
        return self._router.num_shards

    @property
    def replicas(self) -> list:
        return list(self._replicas)

    def _advance(self, delta: OntologyDelta) -> bool:
        return self._shards.apply(delta)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Serving stats plus per-shard placement/version lines."""
        stats = super().stats()
        stats["num_shards"] = self.num_shards
        stats["cluster_deltas_applied"] = stats["deltas_applied"]
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
            cache_size: as for :class:`OntologyService`.
        deltas: optional delta stream to apply at construction.
        ontology: optional existing :class:`AttentionOntology` (or bare
            store) to shard: its head state is folded through the router
            and the cluster comes up at the store's version.  Mutually
            exclusive with ``deltas``.  A head recording a ring epoch is
            authoritative: the cluster comes up on that ring, whatever
            ``num_shards`` says.
        registry: metrics registry shared by the serving scope, the
            scatter view and the cluster's own ``cluster`` scope;
            defaults to the process registry.
    """

    def __init__(self, num_shards: int = 4, ner=None, duet=None,
                 tagger_options: "dict[str, Any] | None" = None,
                 max_rewrites: int = 5, max_recommendations: int = 5,
                 cache_size: int = 4096,
                 deltas: "Iterable[OntologyDelta] | None" = None,
                 ontology: "AttentionOntology | OntologyStore | None" = None,
                 registry: "MetricsRegistry | None" = None) -> None:
        registry = registry if registry is not None else get_registry()
        shards = ShardSet(ShardRouter(num_shards))
        super().__init__(
            shards, shards.replicas, registry,
            ner=ner, duet=duet, tagger_options=tagger_options,
            max_rewrites=max_rewrites,
            max_recommendations=max_recommendations, cache_size=cache_size)
        metrics = registry.scope("cluster")
        self._rebalances = metrics.counter("rebalances")
        self._moved_nodes = metrics.counter("rebalance_moved_nodes")
        self._transfer_ops = metrics.counter("rebalance_transfer_ops")
        if ontology is not None and deltas is not None:
            raise OntologyError(
                "pass either a delta stream or an ontology to shard, not "
                "both — the ontology is head state, not a version to "
                "replay a recorded stream onto"
            )
        if ontology is not None:
            self._seat(ontology.store if isinstance(
                ontology, AttentionOntology) else ontology)
        if deltas is not None:
            self.refresh(deltas)

    def _seat(self, head: OntologyStore) -> None:
        self._shards = ShardSet.build(head, self.num_shards)
        self._reseat()
        # The shards were hydrated out of band: rebuild the front views
        # from them and adopt the head's stream version directly.
        self._views.rehydrate(head.version, count=False)

    def _reseat(self) -> None:
        self._replicas = self._shards.replicas
        self._view.reseat(self._router, self._replicas)

    def _advance(self, delta: OntologyDelta) -> bool:
        epoch = self._router.epoch
        applied = super()._advance(delta)
        if self._router.epoch != epoch:
            # A ring-epoch record (minted by rebalance(), or replayed
            # from the stream): the shard set moved the data; flip the
            # read view — readers never observe a mixed epoch.
            self._reseat()
            self.last_rebalance = flip = self._shards.last_flip
            self._rebalances.inc()
            self._moved_nodes.inc(flip["moved_nodes"])
            self._transfer_ops.inc(flip["transfer_ops"])
        return applied

    # ------------------------------------------------------------------
    # rebalancing (ring epochs)
    # ------------------------------------------------------------------
    def rebalance(self, num_shards: int,
                  vnodes: "int | None" = None) -> OntologyDelta:
        """Grow (or shrink) the cluster to ``num_shards`` shards by
        flipping to a new consistent-hash ring epoch.

        Mints the ring-epoch record at the cluster's current stream
        version and applies it like any other delta: the shard set
        streams the moved node records (plus the ghost replicas and
        incident edges they need) to their new shards as
        :class:`~repro.cluster.ring.TransferSlice` transfers, and the
        read view flips once every transfer landed.  Returns the
        ring-epoch delta, which the caller must feed to every *other*
        consumer of the stream (the single-store oracle, the replicated
        log) so all version lines stay aligned.  Transfer accounting
        lands on :attr:`last_rebalance`.
        """
        delta = self._router.next_ring_delta(num_shards, vnodes)
        self.apply(delta)
        return delta
