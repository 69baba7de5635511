"""Ring-based partitioning and per-shard delta routing (DESIGN.md §6/§9).

The cluster partitions the ontology across its shards by a **consistent
hash of the canonical phrase key** (``type::phrase``, lower-cased — the
same key the store's exact-match map uses) over a
:class:`~repro.cluster.ring.HashRing`.  Ownership is a pure function of
the key and the ring's current epoch, so every component recomputes it
from the node's type and canonical phrase — no shared mutable state is
needed to agree on placement, and a ring-epoch record in the stream
moves every consumer to the new placement at the same version.

:class:`ShardRouter` consumes the global :class:`~repro.core.store.
OntologyDelta` stream in order and splits each batch into per-shard
sub-deltas:

* **node / alias / payload ops** go to the owning shard only;
* **edge ops** go to the owner shard of *each* endpoint; when an edge
  crosses shards, the router first materialises a **ghost replica** of
  the foreign endpoint (a node op marked ``"ghost": true`` carrying the
  explicit node id), so each shard holds every edge incident to its
  owned nodes — the edge-cut partitioning used by distributed graph
  systems.  Ghosts never receive payload/alias updates; readers resolve
  node objects through the owner shard (see ``ShardedStoreView``).
* **ring ops** (``{"op": "ring", ...}``) are epoch flips: they are not
  split but applied via :meth:`ShardRouter.apply_ring`, which recomputes
  placement for every routed node and returns the
  :class:`RebalancePlan` — which node records move where — that the
  cluster service turns into
  :class:`~repro.cluster.ring.TransferSlice` streams.

Per-shard version lines are independent: a sub-delta's
``base_version``/``version`` count only that shard's ops, so the strict
consistency checks of :meth:`OntologyStore.apply_delta` hold shard-
locally, and the router's ``version`` mirrors the global stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.store import NodeType, OntologyDelta
from ..errors import OntologyError
from .ring import DEFAULT_VNODES, HashRing, ring_delta, ring_op_of, stable_hash

__all__ = ["RebalancePlan", "ShardRouter", "stable_hash"]


@dataclass
class RebalancePlan:
    """What a ring-epoch flip moves: node ids keyed by (source,
    destination) shard pair, plus the ring that now owns them.  Produced
    by :meth:`ShardRouter.apply_ring`; the cluster service (or a remote
    parent) is responsible for completing the slice transfers the plan
    describes before serving reads at the new epoch."""

    ring: HashRing
    old_num_shards: int
    # node_id -> (source shard, destination shard); only changed owners.
    moves: "dict[str, tuple[int, int]]" = field(default_factory=dict)

    @property
    def moved_nodes(self) -> int:
        """Owned node records the flip relocates — strictly fewer than a
        full re-route from version 0 whenever placement is ring-based."""
        return len(self.moves)

    def moved_out_of(self, shard: int) -> "list[str]":
        return sorted(node_id for node_id, (src, _dst) in self.moves.items()
                      if src == shard)

    def by_pair(self) -> "list[tuple[tuple[int, int], list[str]]]":
        """Moves grouped by (source, destination), deterministically
        ordered — the slice-transfer work list."""
        pairs: "dict[tuple[int, int], list[str]]" = {}
        for node_id in sorted(self.moves):
            pairs.setdefault(self.moves[node_id], []).append(node_id)
        return sorted(pairs.items())


class ShardRouter:
    """Assigns nodes to shards and splits the delta stream per shard."""

    def __init__(self, num_shards: int, vnodes: int = DEFAULT_VNODES,
                 ring: "HashRing | None" = None) -> None:
        if ring is None:
            ring = HashRing(num_shards, vnodes)
        elif ring.num_shards != num_shards:
            raise OntologyError(
                f"ring has {ring.num_shards} shards, router asked for "
                f"{num_shards}")
        self._ring = ring
        self._owner: dict[str, int] = {}
        self._meta: dict[str, tuple[str, str]] = {}  # id -> (type, phrase)
        self._materialized: list[set[str]] = [set()
                                              for _ in range(ring.num_shards)]
        self._shard_versions = [0] * ring.num_shards
        self._version = 0

    @classmethod
    def from_ring(cls, ring: HashRing) -> "ShardRouter":
        return cls(ring.num_shards, ring.vnodes, ring=ring)

    # ------------------------------------------------------------------
    @property
    def ring(self) -> HashRing:
        return self._ring

    @property
    def epoch(self) -> int:
        return self._ring.epoch

    @property
    def vnodes(self) -> int:
        return self._ring.vnodes

    @property
    def num_shards(self) -> int:
        return self._ring.num_shards

    @property
    def version(self) -> int:
        """Version of the global delta stream routed so far."""
        return self._version

    @property
    def shard_versions(self) -> tuple[int, ...]:
        """Per-shard store versions after the routed stream."""
        return tuple(self._shard_versions)

    def fast_forward(self, version: int) -> None:
        """Jump the *global* stream position to ``version`` without
        touching per-shard version lines.

        Used by snapshot bootstrap: a catalog snapshot is folded into
        one synthetic delta (``store_to_delta``, base version 0) and
        routed, after which the router's global position must realign
        with the stream the snapshot compacted — tail deltas recorded
        after the snapshot carry its ``store_version`` as their base.
        Per-shard versions stay as-is: sub-delta bounds count only each
        shard's ops, so the shard stores' replay checks already hold.
        """
        if version < self._version:
            raise OntologyError(
                f"cannot fast-forward the router backwards "
                f"({self._version} -> {version})"
            )
        self._version = version

    def shard_of_phrase(self, node_type: NodeType, phrase: str) -> int:
        """The sharding function: consistent hash of the canonical
        phrase key on the current ring epoch."""
        return self._ring.shard_of_key(f"{node_type.value}::{phrase.lower()}")

    def owner_of(self, node_id: str) -> int:
        """Owning shard of a routed node id."""
        try:
            return self._owner[node_id]
        except KeyError:
            raise OntologyError(f"unrouted node {node_id!r}") from None

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._owner

    def __len__(self) -> int:
        return len(self._owner)

    # ------------------------------------------------------------------
    # ring epochs
    # ------------------------------------------------------------------
    def next_ring_delta(self, num_shards: int,
                        vnodes: "int | None" = None) -> OntologyDelta:
        """Mint the ring-epoch record resizing to ``num_shards`` at the
        current stream version (``vnodes`` defaults to the current)."""
        return ring_delta(self._version, HashRing(
            num_shards, self.vnodes if vnodes is None else vnodes,
            self.epoch + 1))

    def apply_ring(self, delta: OntologyDelta) -> RebalancePlan:
        """Flip to the ring a ring-epoch record announces.

        Recomputes placement for every routed node under the new ring,
        rewrites the ownership map, resizes per-shard bookkeeping, and
        advances the global stream position past the record.  Returns
        the :class:`RebalancePlan` of node records whose owner changed;
        the caller must complete those transfers (slice extraction from
        the sources, adoption on the destinations) before serving reads
        — the router assumes they happen and marks moved ids as
        materialised on their destinations.
        """
        op = ring_op_of(delta)
        if op is None:
            raise OntologyError("not a ring-epoch record")
        if delta.base_version != self._version:
            raise OntologyError(
                f"ring record expects stream version {delta.base_version}, "
                f"router is at {self._version}")
        ring = HashRing.from_op(op)
        if ring.epoch <= self._ring.epoch:
            raise OntologyError(
                f"ring epoch must advance ({self._ring.epoch} -> "
                f"{ring.epoch})")
        moves: "dict[str, tuple[int, int]]" = {}
        for node_id, (type_value, phrase) in self._meta.items():
            new_shard = ring.shard_of_key(f"{type_value}::{phrase.lower()}")
            old_shard = self._owner[node_id]
            if new_shard != old_shard:
                moves[node_id] = (old_shard, new_shard)
        old_num = self._ring.num_shards
        if ring.num_shards > old_num:
            self._materialized.extend(
                set() for _ in range(old_num, ring.num_shards))
            self._shard_versions.extend(
                0 for _ in range(old_num, ring.num_shards))
        elif ring.num_shards < old_num:
            del self._materialized[ring.num_shards:]
            del self._shard_versions[ring.num_shards:]
        for node_id, (_src, dst) in moves.items():
            self._owner[node_id] = dst
            self._materialized[dst].add(node_id)
        self._ring = ring
        self._version = delta.version
        return RebalancePlan(ring=ring, old_num_shards=old_num, moves=moves)

    def note_materialized(self, shard: int, node_ids) -> None:
        """Record that ``node_ids`` now have node records on ``shard``
        (slice adoption materialises moved nodes and ghost endpoints
        outside the routed stream)."""
        self._materialized[shard].update(node_ids)

    def sync_shard_version(self, shard: int, version: int) -> None:
        """Align a shard's sub-delta version line after out-of-stream
        ops (slice adoption) advanced its store."""
        if version < self._shard_versions[shard]:
            raise OntologyError(
                f"cannot rewind shard {shard} version line "
                f"({self._shard_versions[shard]} -> {version})")
        self._shard_versions[shard] = version

    # ------------------------------------------------------------------
    # routing-state export (seeding a remote worker without a snapshot)
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """The full routing state as a JSON-ready dict — everything a
        freshly seeded shard worker needs to continue routing the stream
        from this exact position without folding a snapshot."""
        return {
            "ring": {"epoch": self._ring.epoch,
                     "num_shards": self._ring.num_shards,
                     "vnodes": self._ring.vnodes},
            "version": self._version,
            "owner": dict(self._owner),
            "meta": {node_id: [type_value, phrase]
                     for node_id, (type_value, phrase) in self._meta.items()},
            "materialized": [sorted(ids) for ids in self._materialized],
            "shard_versions": list(self._shard_versions),
        }

    @classmethod
    def from_state(cls, state: dict) -> "ShardRouter":
        """Rebuild a router from :meth:`export_state` output."""
        router = cls.from_ring(HashRing.from_op(state["ring"]))
        router._owner = dict(state["owner"])
        router._meta = {node_id: (meta[0], meta[1])
                        for node_id, meta in state["meta"].items()}
        router._materialized = [set(ids) for ids in state["materialized"]]
        router._shard_versions = list(state["shard_versions"])
        router._version = state["version"]
        return router

    # ------------------------------------------------------------------
    def split(self, delta: OntologyDelta) -> "list[OntologyDelta | None]":
        """Split one global delta into per-shard sub-deltas (``None`` for
        shards the batch does not touch).

        The router must see the stream gap-free and in order — exactly
        the contract :meth:`OntologyStore.apply_delta` enforces for a
        single store.  Ring-epoch records are not splittable: they go
        through :meth:`apply_ring` (the cluster service dispatches).
        """
        if ring_op_of(delta) is not None:
            raise OntologyError(
                "ring-epoch records rebalance the cluster — route them "
                "through apply_ring()/ClusterService.refresh, not split()")
        if delta.base_version != self._version:
            raise OntologyError(
                f"delta expects stream version {delta.base_version}, "
                f"router is at {self._version}"
            )
        num_shards = self._ring.num_shards
        per_shard: list[list[dict]] = [[] for _ in range(num_shards)]
        for index, op in enumerate(delta.ops):
            kind = op["op"]
            if kind == "node":
                node_id = op.get("node_id")
                if node_id is None:
                    raise OntologyError(
                        "cannot route a node op without a node_id — "
                        "re-record the delta stream with a current store"
                    )
                if node_id not in self._owner:
                    shard = self.shard_of_phrase(NodeType(op["type"]),
                                                 op["phrase"])
                    self._owner[node_id] = shard
                    self._meta[node_id] = (op["type"], op["phrase"])
                    self._materialized[shard].add(node_id)
                per_shard[self._owner[node_id]].append(dict(op))
            elif kind == "alias":
                routed = dict(op)
                # Global stream position: lets replicas rank competing
                # setdefault claims on a contested alias key across
                # shards exactly as a single store would.
                routed["pos"] = delta.base_version + index + 1
                per_shard[self.owner_of(op["node_id"])].append(routed)
            elif kind == "payload":
                per_shard[self.owner_of(op["node_id"])].append(dict(op))
            elif kind == "edge":
                endpoints = (op["source"], op["target"])
                shards = {self.owner_of(nid) for nid in endpoints}
                # Global stream position (same convention as alias ops):
                # replicas order their adjacency by it, so traversals
                # keep single-store insertion order even after a
                # rebalance interleaves adopted edges with local ones.
                routed = dict(op)
                routed["pos"] = delta.base_version + index + 1
                for shard in sorted(shards):
                    for node_id in endpoints:
                        if node_id in self._materialized[shard]:
                            continue
                        type_value, phrase = self._meta[node_id]
                        per_shard[shard].append({
                            "op": "node", "type": type_value,
                            "phrase": phrase, "payload": {},
                            "node_id": node_id, "created": True,
                            "ghost": True,
                        })
                        self._materialized[shard].add(node_id)
                    per_shard[shard].append(dict(routed))
            else:
                raise OntologyError(f"unknown delta op {kind!r}")
        subs: "list[OntologyDelta | None]" = []
        for shard, ops in enumerate(per_shard):
            if not ops:
                subs.append(None)
                continue
            base = self._shard_versions[shard]
            sub = OntologyDelta(stage=delta.stage, base_version=base,
                                version=base + len(ops), ops=ops)
            self._shard_versions[shard] = sub.version
            subs.append(sub)
        self._version = delta.version
        return subs
