"""Shard replicas, the shard set, and the scatter-gather read view
(DESIGN.md §6).

:class:`ShardReplica` wraps one shard's :class:`~repro.core.store.
OntologyStore`: it applies the sub-deltas the
:class:`~repro.cluster.router.ShardRouter` routes to it and tracks which
local nodes are *owned* (hash-assigned) versus *ghost* endpoint replicas
materialised for cross-shard edges.

:class:`ShardSet` is a router plus the replicas one process holds — all
of them in a :class:`~repro.cluster.service.ClusterService`, one in a
shard worker, none in a remote cluster's routing-only parent.  It is
where a delta is split and applied, where a head store is folded into
shards, and where a ring-epoch record is executed.

:class:`ShardedStoreView` then exposes the cluster as one read-only
object implementing the :class:`OntologyStore` read API, so the ordinary
:class:`~repro.apps.tagging.DocumentTagger` /
:class:`~repro.apps.query.QueryUnderstander` /
:class:`~repro.serving.service.OntologyService` stack runs over a
partitioned cluster unchanged.  Merge semantics are deterministic and
reconstruct single-store behaviour exactly:

* point lookups (``node``) route to the owning shard;
* index scans (``candidates``, ``nodes_with_token``) scatter to every
  shard, drop ghost duplicates, merge by sorted node id — the same order
  a single store returns;
* ``nodes`` merges owned partitions in creation order (ids embed the
  global counter);
* traversals (``successors`` / ``predecessors`` / ``has_path``) read the
  owner shard's edge lists — complete by the ghost-replication invariant
  — and resolve every returned node through *its* owner shard, so
  payloads are never served from a stale ghost;
* ``stats`` counts owned nodes per shard and de-duplicates gathered
  edges, reproducing the single store's Table 1/2 numbers exactly.

Mutations raise: cluster replicas are serving replicas, fed exclusively
by the delta stream through :meth:`ShardSet.apply`.
"""

from __future__ import annotations

import copy

from ..core.serialize import store_to_delta
from ..core.store import (
    AttentionNode,
    Edge,
    EdgeType,
    NodeType,
    OntologyDelta,
    OntologyStore,
    creation_order,
)
from ..core.zsets import delta_to_zsets, token_rows
from ..errors import (
    DeltaGapError,
    OntologyError,
    ReproError,
    RingEpochError,
    ShardUnavailableError,
)
from ..obs.metrics import MetricsRegistry, get_registry
from ..obs.recorder import get_recorder
from ..obs.tracing import get_tracer
from ..views import ShardPostingsFragment, ViewCatalog
from ..views.zset import ZSet
from .ring import HashRing, TransferSlice, ring_op_of
from .router import ShardRouter


class ShardReplica:
    """One shard: a store plus owned/ghost bookkeeping."""

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        self.store = OntologyStore()
        self._owned: dict[NodeType, set[str]] = {t: set() for t in NodeType}
        self._ghosts: set[str] = set()
        # alias key -> {node_id: global stream pos of that node's first
        # claim}.  Per-node granularity survives rebalances: when a node
        # moves shards its claims travel with it, without contaminating
        # (or being contaminated by) claims other local nodes hold on
        # the same contested key.
        self._alias_claims: dict[str, dict[str, int]] = {}
        # canonical (source, target, type) -> global stream pos.  The
        # single store returns traversals in edge *insertion* order;
        # replicas sort adjacency by these positions so the order
        # survives a rebalance interleaving adopted and local edges.
        self._edge_pos: dict[tuple, int] = {}
        self.deltas_applied = 0
        # Per-shard maintained views (DESIGN.md §13): the posting
        # fragment holds this shard's *owned* slice of the inverted
        # index, advanced from every routed sub-delta — so scatter reads
        # merge maintained fragments instead of re-filtering the store
        # per read.  Ghost ops lower to zero posting rows, keeping the
        # fragment owned-only by construction.
        self.views = ViewCatalog(
            metrics=get_registry().scope(f"shard.{shard_id}.views"))
        self._postings = self.views.register(
            "tag_postings", ShardPostingsFragment(self))

    @staticmethod
    def _edge_key(source: str, target: str,
                  edge_type: EdgeType) -> tuple:
        if edge_type == EdgeType.CORRELATE:  # symmetric, stored mirrored
            return (min(source, target), max(source, target), edge_type)
        return (source, target, edge_type)

    def apply(self, sub_delta: OntologyDelta) -> None:
        """Apply one routed sub-delta, tracking owned vs ghost nodes and
        the global stream position of each alias key's first claim."""
        self.store.apply_delta(sub_delta)
        for op in sub_delta.ops:
            if op["op"] == "alias":
                pos = op.get("pos")
                if pos is not None:
                    node = self.store.node(op["node_id"])
                    key = f"{node.node_type.value}::{op['alias'].lower()}"
                    self._alias_claims.setdefault(key, {}).setdefault(
                        op["node_id"], pos)
                continue
            if op["op"] == "edge":
                pos = op.get("pos")
                if pos is not None:
                    self._edge_pos.setdefault(
                        self._edge_key(op["source"], op["target"],
                                       EdgeType(op["type"])), pos)
                continue
            if op["op"] != "node" or not op.get("created"):
                continue
            if op.get("ghost"):
                self._ghosts.add(op["node_id"])
            else:
                self._owned[NodeType(op["type"])].add(op["node_id"])
        self.views.advance(delta_to_zsets(sub_delta),
                           version=self.store.version)
        self.deltas_applied += 1

    def alias_claim(self, key: str,
                    node_id: "str | None" = None) -> "int | None":
        """Stream position at which ``node_id`` (or, with ``None``,
        anyone on this shard) first claimed ``key``."""
        claims = self._alias_claims.get(key)
        if not claims:
            return None
        if node_id is not None:
            return claims.get(node_id)
        return min(claims.values())

    # ------------------------------------------------------------------
    # rebalance: slice extraction / adoption / demotion
    # ------------------------------------------------------------------
    def transfer_slice(self, node_ids, epoch: int,
                       shard: int) -> TransferSlice:
        """Extract the state a rebalance moves to ``shard``: the named
        nodes in full, every edge incident to them, ghost records for
        the foreign endpoints of those edges, and the nodes' alias
        claims.  Read-only — the source keeps (and later demotes) its
        records, so slices can be re-extracted after a failed transfer.
        """
        ids = sorted(set(node_ids), key=creation_order)
        id_set = set(ids)
        nodes = []
        for node_id in ids:
            node = self.store.node(node_id)
            nodes.append(AttentionNode(
                node.node_id, node.node_type, node.phrase,
                aliases=set(node.aliases),
                payload=copy.deepcopy(node.payload)))
        # Incident edges via the store's per-node adjacency (not a full
        # edge scan), de-duplicated on the canonical key — correlate
        # mirrors collapse to the (min, max) direction.
        incident: dict[tuple, Edge] = {}
        for node_id in ids:
            for edge in (self.store.out_edges(node_id)
                         + self.store.in_edges(node_id)):
                key = self._edge_key(edge.source, edge.target,
                                     edge.edge_type)
                if key not in incident:
                    if (edge.source, edge.target) != (key[0], key[1]):
                        edge = Edge(key[0], key[1], edge.edge_type,
                                    edge.weight)
                    incident[key] = edge
        edges = sorted(incident.values(),
                       key=lambda e: (e.source, e.target, e.edge_type.value))
        edge_positions = []
        for edge in edges:
            pos = self._edge_pos.get(
                self._edge_key(edge.source, edge.target, edge.edge_type))
            edge_positions.append(pos if pos is not None else 1 << 62)
        ghost_ids = sorted(
            {endpoint for edge in edges
             for endpoint in (edge.source, edge.target)} - id_set,
            key=creation_order)
        ghosts = []
        for ghost_id in ghost_ids:
            ghost = self.store.node(ghost_id)
            ghosts.append(AttentionNode(ghost.node_id, ghost.node_type,
                                        ghost.phrase))
        claims: dict[str, dict[str, int]] = {}
        for node in nodes:
            for alias in sorted(node.aliases):
                key = f"{node.node_type.value}::{alias.lower()}"
                pos = self.alias_claim(key, node.node_id)
                if pos is not None:
                    claims.setdefault(key, {})[node.node_id] = pos
        return TransferSlice(epoch=epoch, shard=shard, nodes=nodes,
                             ghosts=ghosts, edges=edges,
                             edge_positions=edge_positions,
                             alias_claims=claims)

    def adopt_slice(self, transfer: TransferSlice) -> dict:
        """Apply a :meth:`transfer_slice` to this shard.

        The slice is diffed against the local store — a moved node this
        shard already ghosts is *promoted* (payload merged, aliases
        attached) instead of re-created, present edges and ghosts are
        skipped — and the remainder applies as one delta on this shard's
        own version line, so the store's replay discipline holds.
        Returns ``{"node_records", "ops"}`` transfer accounting.
        """
        ops: list[dict] = []
        for node in sorted(transfer.nodes,
                           key=lambda n: creation_order(n.node_id)):
            if node.node_id not in self.store:
                ops.append({"op": "node", "type": node.node_type.value,
                            "phrase": node.phrase,
                            "payload": copy.deepcopy(node.payload),
                            "node_id": node.node_id, "created": True})
                existing_aliases: set[str] = set()
            else:
                existing = self.store.node(node.node_id)
                existing_aliases = set(existing.aliases)
                fresh = {key: value for key, value in node.payload.items()
                         if key not in existing.payload
                         or existing.payload[key] != value}
                if fresh:
                    ops.append({"op": "payload", "node_id": node.node_id,
                                "payload": copy.deepcopy(fresh)})
            for alias in sorted(node.aliases - existing_aliases):
                ops.append({"op": "alias", "node_id": node.node_id,
                            "alias": alias})
        for ghost in sorted(transfer.ghosts,
                            key=lambda n: creation_order(n.node_id)):
            if ghost.node_id not in self.store:
                ops.append({"op": "node", "type": ghost.node_type.value,
                            "phrase": ghost.phrase, "payload": {},
                            "node_id": ghost.node_id, "created": True,
                            "ghost": True})
        positions = transfer.edge_positions or [None] * len(transfer.edges)
        for edge, pos in zip(transfer.edges, positions):
            if not self.store.has_edge(edge.source, edge.target,
                                       edge.edge_type):
                op = {"op": "edge", "source": edge.source,
                      "target": edge.target,
                      "type": edge.edge_type.value,
                      "weight": edge.weight}
                if pos is not None:
                    op["pos"] = pos
                ops.append(op)
        if ops:
            base = self.store.version
            self.apply(OntologyDelta(
                stage=f"rebalance-epoch-{transfer.epoch}",
                base_version=base, version=base + len(ops), ops=ops))
        # Promote: adopted nodes are owned here even when the node op
        # was elided because a ghost record already existed.  The
        # posting fragment gains every adopted node's token rows — the
        # elided-ghost case emitted none during apply() (ghosts never
        # post), and re-adding an existing row is idempotent.
        promoted = ZSet()
        for node in transfer.nodes:
            self._ghosts.discard(node.node_id)
            self._owned[node.node_type].add(node.node_id)
            for row in token_rows(node.node_type.value, node.phrase,
                                  node.node_id):
                promoted.add(row)
        if promoted:
            self.views.advance({"tokens": promoted},
                               version=self.store.version)
        for key, per_node in transfer.alias_claims.items():
            claims = self._alias_claims.setdefault(key, {})
            for node_id, pos in per_node.items():
                claims.setdefault(node_id, pos)
        return {"node_records": len(transfer.nodes), "ops": len(ops)}

    def demote(self, node_ids) -> int:
        """Mark moved-away nodes as ghosts: their records (and incident
        edges) stay in the store — a store has no delete — but they no
        longer count as owned, so index scans and stats skip them and
        reads resolve through the new owner.  Returns how many were
        owned here."""
        demoted = 0
        retracted = ZSet()
        for node_id in node_ids:
            for owned in self._owned.values():
                if node_id in owned:
                    owned.discard(node_id)
                    demoted += 1
                    node = self.store.node(node_id)
                    for row in token_rows(node.node_type.value,
                                          node.phrase, node_id):
                        retracted.add(row, -1)
                    break
            if node_id in self.store:
                self._ghosts.add(node_id)
        if retracted:
            # Weight -1 rows: the Z-set retraction half of the algebra —
            # moved-away nodes leave the posting fragment immediately.
            self.views.advance({"tokens": retracted},
                               version=self.store.version)
        return demoted

    # ------------------------------------------------------------------
    # the shard read interface
    #
    # Everything ShardedStoreView needs from a shard goes through these
    # methods (never through ``.store`` directly), so a replica can live
    # in another process behind RPC (cluster/remote.RemoteShardReplica)
    # and the view works unchanged.  Traversal/scan methods deal in node
    # *ids*: the view resolves every returned node through its owner
    # shard anyway, and ids keep the wire payloads small.
    # ------------------------------------------------------------------
    def node(self, node_id: str) -> AttentionNode:
        return self.store.node(node_id)

    def find(self, node_type: NodeType,
             phrase: str) -> "AttentionNode | None":
        return self.store.find(node_type, phrase)

    def owned_token_ids(self, token: str, node_type: NodeType) -> list[str]:
        """Owned (non-ghost) ids for ``token``, read off this shard's
        maintained posting fragment (no per-read ownership filtering)."""
        return sorted(self._postings.ids(node_type.value, token))

    def owned_candidate_ids(self, tokens: "list[str] | set[str]",
                            node_type: NodeType) -> list[str]:
        """Owned ids sharing at least one phrase token with ``tokens``."""
        return sorted(self._postings.candidate_ids(node_type.value, tokens))

    def _ordered_neighbors(self, incident: "list[Edge]", pick,
                           edge_type: "EdgeType | None") -> list[str]:
        """Neighbor ids in global stream order: sort the adjacency by
        each edge's recorded stream position (insertion sequence breaks
        ties for unstamped edges), reproducing the single store's
        insertion order even when adopted edges arrived out of band."""
        ranked = []
        for sequence, edge in enumerate(incident):
            if edge_type is not None and edge.edge_type != edge_type:
                continue
            pos = self._edge_pos.get(
                self._edge_key(edge.source, edge.target, edge.edge_type))
            ranked.append((pos if pos is not None else 1 << 62,
                           sequence, pick(edge)))
        ranked.sort()
        return [node_id for _pos, _sequence, node_id in ranked]

    def successor_ids(self, node_id: str,
                      edge_type: "EdgeType | None" = None) -> list[str]:
        return self._ordered_neighbors(self.store.out_edges(node_id),
                                       lambda edge: edge.target, edge_type)

    def predecessor_ids(self, node_id: str,
                        edge_type: "EdgeType | None" = None) -> list[str]:
        return self._ordered_neighbors(self.store.in_edges(node_id),
                                       lambda edge: edge.source, edge_type)

    def has_edge(self, source_id: str, target_id: str,
                 edge_type: EdgeType) -> bool:
        return self.store.has_edge(source_id, target_id, edge_type)

    def edges(self, edge_type: "EdgeType | None" = None) -> list[Edge]:
        return self.store.edges(edge_type)

    # ------------------------------------------------------------------
    def owns(self, node_id: str) -> bool:
        return any(node_id in ids for ids in self._owned.values())

    def owned_ids(self, node_type: "NodeType | None" = None) -> set[str]:
        if node_type is not None:
            return set(self._owned[node_type])
        out: set[str] = set()
        for ids in self._owned.values():
            out.update(ids)
        return out

    def owned_count(self, node_type: "NodeType | None" = None) -> int:
        if node_type is not None:
            return len(self._owned[node_type])
        return sum(len(ids) for ids in self._owned.values())

    @property
    def ghost_count(self) -> int:
        return len(self._ghosts)

    def describe(self) -> dict:
        """Per-shard introspection line for cluster stats."""
        return {
            "shard": self.shard_id,
            "version": self.store.version,
            "owned": self.owned_count(),
            "ghosts": self.ghost_count,
            "deltas_applied": self.deltas_applied,
        }


class ShardSet:
    """A :class:`ShardRouter` plus the :class:`ShardReplica` s held in
    this process: the replica (``version`` + ``apply``) a sharded tier
    is fed through.

    Args:
        router: placement and stream position.
        hold: shard ids whose replicas live here — ``None`` for every
            shard of the ring, whatever it grows to; a tuple for exactly
            those (``()``: routing only).

    Attributes:
        held: shard id -> the local replica.
        last_flip: accounting of the last ring flip executed here.
    """

    def __init__(self, router: ShardRouter,
                 hold: "tuple[int, ...] | None" = None) -> None:
        self.router = router
        self._hold = hold
        self._check_hold()
        self.held = {shard_id: ShardReplica(shard_id)
                     for shard_id in range(router.num_shards)
                     if self._holds(shard_id)}
        self.last_flip: "dict | None" = None

    @classmethod
    def build(cls, head: OntologyStore, num_shards: int,
              hold: "tuple[int, ...] | None" = None) -> "ShardSet":
        """Fold a head store (snapshot + tail, already materialised)
        into a fresh shard set at the head's stream version, on the
        head's recorded ring (``num_shards`` is the ring to assume for a
        stream that never recorded one).  Every process folds the *same*
        head through the *same* deterministic router, so all agree on
        ownership and ghost placement — and a fold at the head crosses
        any number of ring-epoch flips in one step."""
        ring = HashRing.from_op(head.ring) if head.ring is not None \
            else HashRing(num_shards)
        shards = cls(ShardRouter.from_ring(ring), hold)
        shards._route(store_to_delta(head))
        # The fold starts its own version line; realign the router with
        # the stream so the tail recorded after the head applies.
        shards.router.fast_forward(head.version)
        return shards

    @property
    def version(self) -> int:
        """Global delta-stream version routed so far."""
        return self.router.version

    @property
    def replicas(self) -> "list[ShardReplica]":
        return [self.held[shard_id] for shard_id in sorted(self.held)]

    def _holds(self, shard_id: int) -> bool:
        return self._hold is None or shard_id in self._hold

    def _check_hold(self) -> None:
        for shard_id in self._hold or ():
            if shard_id >= self.router.num_shards:
                raise ReproError(
                    f"shard {shard_id} is not in the ring (epoch "
                    f"{self.router.epoch} spans {self.router.num_shards} "
                    f"shards)")

    def apply(self, delta: OntologyDelta) -> bool:
        """Route one global delta, under the same contract as
        :meth:`OntologyStore.apply` (skip / gap error before any shard
        is touched / apply); a ring-epoch record is executed instead of
        split."""
        if not DeltaGapError.check("shard set", self.router.version, delta):
            return False
        if ring_op_of(delta) is not None:
            self._flip(delta)
        else:
            self._route(delta)
        return True

    def _route(self, delta: OntologyDelta) -> None:
        for shard_id, sub in enumerate(self.router.split(delta)):
            replica = self.held.get(shard_id)
            if sub is None or replica is None:
                continue  # routed for ownership bookkeeping only
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

    def _flip(self, delta: OntologyDelta) -> None:
        """Execute one ring-epoch record on what is held here
        (DESIGN.md §9): held -> held is a local :class:`TransferSlice`;
        into a held shard from one that is not raises
        :class:`~repro.errors.RingEpochError` (the state lives in
        another process; a re-bootstrap crosses the flip with the full
        store in hand); out of a held shard demotes; held shards beyond
        the new ring are dropped."""
        plan = self.router.apply_ring(delta)
        ring = plan.ring
        get_recorder().record("ring.epoch_flip", "cluster.shards",
                              epoch=ring.epoch, num_shards=ring.num_shards,
                              held=sorted(self.held))
        self._check_hold()
        sources = dict(self.held)
        for shard_id in range(plan.old_num_shards, ring.num_shards):
            if self._holds(shard_id):
                self.held[shard_id] = ShardReplica(shard_id)
        transfer_ops = 0
        for (src, dst), node_ids in plan.by_pair():
            dest = self.held.get(dst)
            if dest is None:
                continue
            if src not in sources:
                raise RingEpochError(
                    f"ring epoch {ring.epoch} moves {len(node_ids)} node "
                    f"records into shard {dst} from shard {src}, which is "
                    f"not held here; re-bootstrap from snapshot + tail")
            transfer = sources[src].transfer_slice(node_ids, ring.epoch, dst)
            transfer_ops += dest.adopt_slice(transfer)["ops"]
            self.router.note_materialized(
                dst, [node.node_id for node in transfer.nodes] +
                [ghost.node_id for ghost in transfer.ghosts])
            self.router.sync_shard_version(dst, dest.store.version)
        for shard_id, replica in sources.items():
            if shard_id < ring.num_shards:
                replica.demote(plan.moved_out_of(shard_id))
            else:
                del self.held[shard_id]
        self.last_flip = {"epoch": ring.epoch,
                          "num_shards": ring.num_shards,
                          "moved_nodes": plan.moved_nodes,
                          "transfer_ops": transfer_ops}


class ShardedStoreView:
    """Read-only OntologyStore-compatible view over the shard set.

    Args:
        router: shard placement (hash ring) for the current epoch.
        replicas: one replica per shard, local or remote.
        registry: metrics registry for the view's ``scatter`` scope
            (fan-out latency, per-shard completion times, straggler
            shard id); defaults to the process registry.
    """

    def __init__(self, router: ShardRouter,
                 replicas: "list[ShardReplica]",
                 registry: "MetricsRegistry | None" = None) -> None:
        self.reseat(router, replicas)
        registry = registry if registry is not None else get_registry()
        self._metrics = registry.scope("scatter")
        self._scatters = self._metrics.counter("scatters")
        self._resolves = self._metrics.counter("resolves")
        self._fanout_seconds = self._metrics.histogram("fanout_seconds")
        self._shard_seconds = self._metrics.histogram("shard_seconds")
        # Which shard finished last on the most recent scatter — the
        # read path's straggler (with remote replicas, usually the one
        # whose worker process is slow or backlogged).
        self._straggler = self._metrics.gauge("straggler_shard")
        self._recover = None

    def reseat(self, router: ShardRouter, replicas) -> None:
        """Swap in a rebalanced topology.

        This is the reader-visible *flip* of a ring-epoch change: the
        cluster service completes every slice transfer first, then
        reseats the view in one call, so reads before it see the old
        placement completely and reads after it the new one — never a
        mix.  (The async tier serializes reads against refresh, so no
        read is in flight across the call; a read that *fails* over a
        dead worker re-enters through :meth:`bind_recovery`'s hook,
        which may reseat before the retry.)
        """
        replicas = list(replicas)
        if router.num_shards != len(replicas):
            raise OntologyError("router/replica shard counts disagree")
        self._router = router
        self._replicas = replicas

    def bind_recovery(self, hook) -> None:
        """Install the cluster's shard-recovery hook: called with the
        dead ``shard_id`` when a read surfaces
        :class:`ShardUnavailableError`, expected to respawn the worker
        (and :meth:`reseat` this view) before the read retries.  Only
        *reads* retry — they are idempotent; mutating endpoints such as
        ``record_read`` apply their decay before resolving phrases, so
        a blind endpoint-level replay would double-apply it."""
        self._recover = hook

    def _with_recovery(self, attempt):
        """Run one idempotent read closure, routing a dead worker
        through the recovery hook and retrying exactly once.  The
        closure must re-read ``self._replicas`` / ``self._router`` on
        entry — recovery reseats them."""
        try:
            return attempt()
        except ShardUnavailableError as exc:
            if self._recover is None:
                raise
            self._recover(exc.shard_id)
            return attempt()

    # ------------------------------------------------------------------
    # versioning (read side only)
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Version of the global delta stream the cluster has applied."""
        return self._router.version

    # ------------------------------------------------------------------
    # mutations are rejected: replicas are fed by the delta stream
    # ------------------------------------------------------------------
    def _read_only(self, *_args, **_kwargs):
        raise OntologyError(
            "the sharded view is read-only — route OntologyDelta batches "
            "through ClusterService.refresh()"
        )

    add_node = _read_only
    add_alias = _read_only
    add_edge = _read_only
    update_payload = _read_only
    begin_delta = _read_only
    commit_delta = _read_only
    apply_delta = _read_only
    snapshot = _read_only

    # ------------------------------------------------------------------
    # pipelined scatter plumbing
    # ------------------------------------------------------------------
    def _scatter(self, method: str, *args) -> list:
        """Invoke ``method(*args)`` on every replica, dispatching all
        requests *before* collecting any reply: a remote replica
        (anything exposing ``begin_call``/``finish_call``) has its
        request on the wire while the other shards work, so a scatter
        costs one overlapped round trip instead of one per shard.
        Local replicas run inline.  Results arrive in shard order, so
        merges are byte-identical to the sequential loop.  A dead
        worker surfaces :class:`ShardUnavailableError`; the healthy
        shards' in-flight replies are drained first (keeping each
        socket's request/reply pairing intact), then the recovery hook
        respawns the worker and the whole scatter retries."""
        return self._with_recovery(lambda: self._scatter_once(method, *args))

    def _scatter_once(self, method: str, *args) -> list:
        clock = self._metrics.registry.clock
        self._scatters.inc()
        with get_tracer().span(f"scatter.{method}",
                               shards=len(self._replicas)) as span:
            start = clock()
            handles = []
            failed: "ShardUnavailableError | None" = None
            for replica in self._replicas:
                begin = getattr(replica, "begin_call", None)
                if begin is None:
                    handles.append(None)
                    continue
                try:
                    handles.append(begin(method, *args))
                except ShardUnavailableError as exc:
                    # Marker: nothing went on this wire, nothing to
                    # collect — but keep dispatching so the healthy
                    # shards' sockets stay begin/finish-paired.
                    handles.append(exc)
                    failed = failed if failed is not None else exc
            out = []
            done_at = []
            for replica, handle in zip(self._replicas, handles):
                try:
                    if isinstance(handle, ShardUnavailableError):
                        raise handle
                    if handle is None:
                        out.append(getattr(replica, method)(*args))
                    else:
                        out.append(replica.finish_call(handle))
                except ShardUnavailableError as exc:
                    failed = failed if failed is not None else exc
                    continue
                # Completion is observed at collect time (in shard
                # order), so per-shard readings include any wait behind
                # earlier shards — an upper bound that still singles
                # out the shard the fan-out actually waited on last.
                done_at.append(clock() - start)
            if failed is not None:
                raise failed
            for elapsed in done_at:
                self._shard_seconds.observe(elapsed)
            self._fanout_seconds.observe(clock() - start)
            straggler = max(range(len(done_at)),
                            key=done_at.__getitem__) if done_at else 0
            self._straggler.set(straggler)
            if span is not None:
                span.set(straggler=straggler)
            # Only a straggler that crossed the recorder's slow-call
            # threshold is an event — every scatter has *some* last
            # shard, and recording them all would flood the ring.
            recorder = get_recorder()
            if done_at and done_at[straggler] >= recorder.slow_call_seconds:
                recorder.record("scatter.straggler", f"shard-{straggler}",
                                method=method,
                                seconds=done_at[straggler],
                                shards=len(self._replicas))
        return out

    def _resolve(self, node_ids) -> list[AttentionNode]:
        """Owner-shard point lookups for an id sequence, pipelined per
        owning replica (each owner answers its socket in request order,
        so replies pair up deterministically).  Dead-worker failures
        recover and retry like :meth:`_scatter`."""
        node_ids = list(node_ids)
        return self._with_recovery(lambda: self._resolve_once(node_ids))

    def _resolve_once(self, node_ids) -> list[AttentionNode]:
        self._resolves.inc()
        with self._metrics.time("resolve_seconds"):
            handles = []
            failed: "ShardUnavailableError | None" = None
            for node_id in node_ids:
                replica = self._replicas[self._router.owner_of(node_id)]
                begin = getattr(replica, "begin_call", None)
                if begin is None:
                    handles.append((replica, node_id, None))
                    continue
                try:
                    handles.append((replica, node_id,
                                    begin("node", node_id)))
                except ShardUnavailableError as exc:
                    handles.append((replica, node_id, exc))
                    failed = failed if failed is not None else exc
            out = []
            for replica, node_id, handle in handles:
                try:
                    if isinstance(handle, ShardUnavailableError):
                        raise handle
                    out.append(replica.node(node_id) if handle is None
                               else replica.finish_call(handle))
                except ShardUnavailableError as exc:
                    failed = failed if failed is not None else exc
            if failed is not None:
                raise failed
            return out

    # ------------------------------------------------------------------
    # point lookups
    # ------------------------------------------------------------------
    def node(self, node_id: str) -> AttentionNode:
        """Canonical node object, resolved through its owner shard."""
        return self._with_recovery(
            lambda: self._replicas[self._router.owner_of(node_id)]
            .node(node_id))

    def find(self, node_type: NodeType, phrase: str) -> "AttentionNode | None":
        """Exact phrase/alias lookup.

        Canonical phrases hash straight to their owner shard, but alias
        keys live wherever the *target* node is owned, so the lookup
        scatters.  Merges reproduce single-store semantics exactly: a
        canonical-phrase claimant always wins (in a single store, a node
        whose canonical phrase is the key must have been created before
        any alias could claim it — later ``add_node`` calls merge rather
        than create); otherwise the *earliest alias claim* in the global
        stream wins, matching the store's ``setdefault`` first-wins rule
        (replicas record each key's first claim position as routed).
        """
        ids = {hit.node_id
               for hit in self._scatter("find", node_type, phrase)
               if hit is not None}
        if not ids:
            return None
        if len(ids) > 1:
            exact = {nid for nid in ids
                     if self.node(nid).phrase.lower() == phrase.lower()}
            if exact:
                ids = exact
            else:
                key = f"{node_type.value}::{phrase.lower()}"

                def first_claim(nid: str) -> "tuple[int, tuple[int, str]]":
                    claim = self._with_recovery(
                        lambda: self._owner(nid).alias_claim(key, nid))
                    return (claim if claim is not None else 1 << 62,
                            creation_order(nid))

                return self.node(min(ids, key=first_claim))
        return self.node(min(ids, key=creation_order))

    def nodes(self, node_type: "NodeType | None" = None) -> list[AttentionNode]:
        ids: list[str] = []
        for owned in self._scatter("owned_ids", node_type):
            ids.extend(owned)
        ids.sort(key=creation_order)
        return self._resolve(ids)

    def count(self, node_type: "NodeType | None" = None) -> int:
        return sum(self._scatter("owned_count", node_type))

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._router

    def __len__(self) -> int:
        return self.count()

    # ------------------------------------------------------------------
    # inverted-index candidate generation (scatter-gather)
    # ------------------------------------------------------------------
    def nodes_with_token(self, token: str, node_type: NodeType
                         ) -> list[AttentionNode]:
        ids: set[str] = set()
        for shard_ids in self._scatter("owned_token_ids", token, node_type):
            ids.update(shard_ids)
        return self._resolve(sorted(ids))

    def candidates(self, tokens: "list[str] | set[str]", node_type: NodeType
                   ) -> list[AttentionNode]:
        ids: set[str] = set()
        for shard_ids in self._scatter("owned_candidate_ids", tokens,
                                       node_type):
            ids.update(shard_ids)
        return self._resolve(sorted(ids))

    def contained_phrases(self, tokens: list[str], node_type: NodeType
                          ) -> list[AttentionNode]:
        out: list[AttentionNode] = []
        for node in self.candidates(tokens, node_type):
            ptoks = node.tokens
            if not ptoks or len(ptoks) > len(tokens):
                continue
            k = len(ptoks)
            if any(tokens[i:i + k] == ptoks
                   for i in range(len(tokens) - k + 1)):
                out.append(node)
        return out

    # ------------------------------------------------------------------
    # edges / traversal
    # ------------------------------------------------------------------
    def _owner(self, node_id: str) -> ShardReplica:
        return self._replicas[self._router.owner_of(node_id)]

    def successors(self, node_id: str, edge_type: "EdgeType | None" = None
                   ) -> list[AttentionNode]:
        local = self._with_recovery(
            lambda: self._owner(node_id).successor_ids(node_id, edge_type))
        return self._resolve(local)

    def predecessors(self, node_id: str, edge_type: "EdgeType | None" = None
                     ) -> list[AttentionNode]:
        local = self._with_recovery(
            lambda: self._owner(node_id).predecessor_ids(node_id, edge_type))
        return self._resolve(local)

    def has_edge(self, source_id: str, target_id: str,
                 edge_type: EdgeType) -> bool:
        return self._with_recovery(
            lambda: self._owner(source_id).has_edge(source_id, target_id,
                                                    edge_type))

    def edges(self, edge_type: "EdgeType | None" = None) -> list[Edge]:
        """All edges, gathered and de-duplicated (each cross-shard edge
        is stored on both endpoint owner shards)."""
        seen: set[tuple[str, str, EdgeType]] = set()
        out: list[Edge] = []
        for shard_edges in self._scatter("edges", edge_type):
            for edge in shard_edges:
                if edge.edge_type == EdgeType.CORRELATE:
                    key = (min(edge.source, edge.target),
                           max(edge.source, edge.target), edge.edge_type)
                else:
                    key = (edge.source, edge.target, edge.edge_type)
                if key in seen:
                    continue
                seen.add(key)
                out.append(edge)
        return out

    def has_path(self, start: str, goal: str,
                 edge_type: EdgeType = EdgeType.ISA) -> bool:
        """Distributed reachability: BFS hopping owner shards per node."""
        stack = [start]
        visited = {start}
        while stack:
            current = stack.pop()
            if current == goal:
                return True
            targets = self._with_recovery(
                lambda: self._owner(current).successor_ids(current,
                                                           edge_type))
            for target_id in targets:
                if target_id not in visited:
                    visited.add(target_id)
                    stack.append(target_id)
        return False

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Cluster-wide Table 1/2-shape stats (owned nodes, unique edges)."""
        out: dict[str, int] = {t.value: self.count(t) for t in NodeType}
        for etype in EdgeType:
            out[etype.value] = len(self.edges(etype))
        return out
