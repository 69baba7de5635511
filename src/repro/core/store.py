"""Indexed storage engine behind the Attention Ontology.

The production GIANT system keeps the ontology in MySQL behind Tars RPC
services and serves millions of tagging/interpretation requests against it.
This module is the reproduction's equivalent storage layer, split out from
the :class:`~repro.core.ontology.AttentionOntology` façade so storage and
serving can evolve independently (see DESIGN.md):

* **type-partitioned node tables** — one id->node table per
  :class:`NodeType`, so per-type scans never touch other partitions;
* **inverted token index** — phrase token -> node ids, the candidate
  generator behind serving-time tagging and query interpretation (replaces
  the seed's O(all-nodes) scans);
* **phrase/alias exact-match map** — lower-cased ``type::phrase`` -> id,
  covering canonical phrases and merged aliases;
* **versioned snapshots and deltas** — every mutation bumps ``version``;
  mutations can be recorded into :class:`OntologyDelta` batches that a
  serving process replays to refresh its store incrementally (in the
  spirit of answering-queries-under-updates incremental view maintenance).
"""

from __future__ import annotations

import copy
import enum
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable

from ..errors import DeltaGapError, OntologyError
from ..text.tokenizer import tokenize


def creation_order(node_id: str) -> "tuple[int, str]":
    """Sort key restoring store creation order — ids embed the global
    counter (``con_000042``); ids without a numeric suffix sort after,
    by string.  Shared by serialization and the cluster's merge rules so
    the ordering convention lives next to the id format."""
    try:
        return (int(node_id.rsplit("_", 1)[1]), node_id)
    except (IndexError, ValueError):
        return (1 << 62, node_id)


class NodeType(enum.Enum):
    CATEGORY = "category"
    CONCEPT = "concept"
    ENTITY = "entity"
    EVENT = "event"
    TOPIC = "topic"


class EdgeType(enum.Enum):
    ISA = "isA"
    INVOLVE = "involve"
    CORRELATE = "correlate"


@dataclass
class AttentionNode:
    """One ontology node.

    Attributes:
        node_id: unique id, assigned by the store.
        node_type: one of the five attention types.
        phrase: canonical surface phrase.
        aliases: merged near-duplicate phrases (attention normalization).
        payload: free-form attributes — events store trigger/time/location,
            concepts may store member hints, etc.
    """

    node_id: str
    node_type: NodeType
    phrase: str
    aliases: set[str] = field(default_factory=set)
    payload: dict = field(default_factory=dict)

    @property
    def tokens(self) -> list[str]:
        return tokenize(self.phrase)


@dataclass(frozen=True)
class Edge:
    """A typed directed edge source -> target."""

    source: str
    target: str
    edge_type: EdgeType
    weight: float = 1.0


@dataclass
class OntologyDelta:
    """One ordered batch of ontology mutations.

    Each pipeline stage commits one delta; replaying the same deltas, in
    order, against a fresh :class:`OntologyStore` reproduces the store
    exactly (node ids are assigned deterministically from creation order).
    ``ops`` entries are JSON-ready dicts with an ``op`` discriminator:

    * ``{"op": "node", "type", "phrase", "payload", "node_id"}`` —
      create-or-merge; ``node_id`` pins the id the recording store
      assigned, so a replay on any store (a shard, a replica whose
      counter has diverged) addresses the same node — older deltas
      without it fall back to counter-assigned ids;
    * ``{"op": "alias", "node_id", "alias"}`` — attach an alias;
    * ``{"op": "edge", "source", "target", "type", "weight"}``;
    * ``{"op": "payload", "node_id", "payload"}`` — merge payload keys;
    * ``{"op": "ring", "epoch", "num_shards", "vnodes"}`` — a cluster
      ring-epoch flip (no content change; see
      :meth:`OntologyStore.set_ring_epoch`).  Ring records travel alone,
      one op per delta, so the flip lands on a batch boundary.
    """

    stage: str = ""
    base_version: int = 0
    version: int = 0
    ops: list[dict] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.ops)

    def __bool__(self) -> bool:
        return bool(self.ops)

    @property
    def nodes_added(self) -> int:
        return sum(1 for op in self.ops if op["op"] == "node" and op.get("created"))

    @property
    def edges_added(self) -> int:
        return sum(1 for op in self.ops if op["op"] == "edge")


@dataclass(frozen=True)
class StoreSnapshot:
    """A point-in-time marker: store version plus Table 1/2-shape stats."""

    version: int
    stats: dict


class OntologyStore:
    """Mutable, indexed attention-ontology storage.

    isA edges must stay acyclic (the ontology is a DAG); correlate edges
    are symmetric and stored in both directions.
    """

    def __init__(self) -> None:
        self._tables: dict[NodeType, dict[str, AttentionNode]] = {
            t: {} for t in NodeType
        }
        self._by_id: dict[str, AttentionNode] = {}
        self._by_phrase: dict[str, str] = {}
        self._token_index: dict[NodeType, dict[str, set[str]]] = {
            t: defaultdict(set) for t in NodeType
        }
        self._out: dict[str, dict[tuple[str, EdgeType], Edge]] = defaultdict(dict)
        self._in: dict[str, dict[tuple[str, EdgeType], Edge]] = defaultdict(dict)
        # (source, target, type) of every edge in first-insertion order,
        # a correlate pair once in the direction first added.  Adjacency
        # dicts iterate in this order restricted to one node, so a
        # snapshot or fold that re-adds edges in it rebuilds the same
        # successors()/predecessors() order a delta replay produces.
        self._edge_order: dict[tuple[str, str, EdgeType], None] = {}
        self._counter = 0
        self._version = 0
        self._ring: "dict | None" = None
        self._snapshots: list[StoreSnapshot] = []
        self._recording: "OntologyDelta | None" = None
        self._delta_depth = 0

    # ------------------------------------------------------------------
    # versioning / deltas
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Monotonic mutation counter (bumps once per effective change)."""
        return self._version

    @property
    def ring(self) -> "dict | None":
        """Consistent-hash ring metadata from the last applied ``ring``
        op (``{"epoch", "num_shards", "vnodes"}``), or ``None`` when the
        stream never recorded a ring epoch.  The store itself ignores
        the placement — it is cluster metadata riding the delta stream
        so snapshots carry the active ring to every bootstrapping
        follower (see :mod:`repro.cluster.ring`)."""
        return dict(self._ring) if self._ring is not None else None

    def set_ring_epoch(self, epoch: int, num_shards: int,
                       vnodes: int) -> dict:
        """Record a cluster ring-epoch flip in the mutation stream.

        The op changes no ontology content — it bumps the version by one
        and pins the consistent-hash ring (shard count and virtual-node
        fan-out) that owns every key from this stream position on, so
        all consumers derive the same placement at the same version.
        Returns the recorded op.
        """
        if num_shards <= 0:
            raise OntologyError("a ring epoch needs at least one shard")
        if vnodes <= 0:
            raise OntologyError("a ring epoch needs at least one vnode")
        if self._ring is not None and epoch <= self._ring["epoch"]:
            raise OntologyError(
                f"ring epoch must advance ({self._ring['epoch']} -> "
                f"{epoch})")
        op = {"op": "ring", "epoch": int(epoch),
              "num_shards": int(num_shards), "vnodes": int(vnodes)}
        self._ring = {"epoch": op["epoch"], "num_shards": op["num_shards"],
                      "vnodes": op["vnodes"]}
        self._record(op)
        return op

    def snapshot(self) -> StoreSnapshot:
        """Record and return a version-stamped stats snapshot."""
        snap = StoreSnapshot(self._version, self.stats())
        self._snapshots.append(snap)
        return snap

    def snapshots(self) -> list[StoreSnapshot]:
        return list(self._snapshots)

    def begin_delta(self, stage: str = "") -> None:
        """Start recording mutations into a delta (nesting-safe)."""
        if self._delta_depth == 0:
            self._recording = OntologyDelta(stage=stage,
                                            base_version=self._version,
                                            version=self._version)
        self._delta_depth += 1

    def commit_delta(self) -> "OntologyDelta | None":
        """Finish recording; returns the delta at the outermost commit."""
        if self._delta_depth == 0:
            raise OntologyError("commit_delta without begin_delta")
        self._delta_depth -= 1
        if self._delta_depth > 0:
            return None
        delta = self._recording
        self._recording = None
        delta.version = self._version
        return delta

    def apply_delta(self, delta: OntologyDelta) -> None:
        """Replay a recorded delta; the store must be at its base version.

        Recording bumps the version exactly once per op, so a well-formed
        delta satisfies ``base_version + len(ops) == version``; that is
        checked *before* any op is applied, rejecting truncated or
        inconsistent batches while the store is still untouched.  A delta
        whose ops themselves diverge mid-replay (corrupted content) still
        raises afterwards — the store is then partially updated and should
        be rebuilt from a snapshot plus a clean delta stream.
        """
        if self._version != delta.base_version:
            raise OntologyError(
                f"delta expects store version {delta.base_version}, "
                f"store is at {self._version}"
            )
        if delta.base_version + len(delta.ops) != delta.version:
            raise OntologyError(
                f"delta is internally inconsistent: {len(delta.ops)} ops "
                f"cannot advance version {delta.base_version} to "
                f"{delta.version} (truncated batch?)"
            )
        for op in delta.ops:
            kind = op["op"]
            if kind == "node":
                self.add_node(NodeType(op["type"]), op["phrase"],
                              payload=copy.deepcopy(op["payload"]) or None,
                              node_id=op.get("node_id"))
            elif kind == "alias":
                self.add_alias(op["node_id"], op["alias"])
            elif kind == "edge":
                self.add_edge(op["source"], op["target"],
                              EdgeType(op["type"]), weight=op["weight"])
            elif kind == "payload":
                self.update_payload(op["node_id"], copy.deepcopy(op["payload"]))
            elif kind == "ring":
                self.set_ring_epoch(op["epoch"], op["num_shards"],
                                    op["vnodes"])
            else:
                raise OntologyError(f"unknown delta op {kind!r}")
        if self._version != delta.version:
            raise OntologyError(
                f"delta replay ended at version {self._version}, "
                f"expected {delta.version}"
            )

    def apply(self, delta: OntologyDelta) -> bool:
        """The replica protocol every delta consumer is fed through
        (``version`` + ``apply``): a batch fully at or behind the store
        is skipped (returns ``False`` — at-least-once delivery is
        harmless); a gap, or a batch *straddling* the store's version
        (its base behind, its end ahead: part of it is already folded
        in, so it can be neither skipped nor replayed), raises
        :class:`~repro.errors.DeltaGapError` before any op touches the
        store; a contiguous one is replayed."""
        if not DeltaGapError.check("replica", self._version, delta):
            return False
        self.apply_delta(delta)
        return True

    def _record(self, op: dict) -> None:
        self._version += 1
        if self._recording is not None:
            self._recording.ops.append(op)

    # ------------------------------------------------------------------
    # compaction / bootstrap
    # ------------------------------------------------------------------
    def compact(self) -> dict:
        """Fold the store's state into a full snapshot dump (a JSON-ready
        dict preserving node ids, version and id counter).

        Long delta histories replay linearly; compaction lets a cold
        replica bootstrap from ``snapshot + tail deltas`` instead — see
        :meth:`bootstrap` and :func:`repro.core.serialize.store_to_dict`.
        """
        from .serialize import store_to_dict  # local: avoids import cycle

        return store_to_dict(self)

    @classmethod
    def bootstrap(cls, snapshot: "dict | None" = None,
                  deltas: "Iterable[OntologyDelta] | None" = None
                  ) -> "OntologyStore":
        """Cold-start a store from a :meth:`compact` snapshot plus tail
        deltas.

        The tail goes through :meth:`apply`, so it may overlap the
        compacted prefix (at-least-once delivery) but not straddle the
        snapshot's version; the result is identical to replaying the
        full delta stream.
        """
        from .serialize import store_from_dict  # local: avoids import cycle

        store = store_from_dict(snapshot) if snapshot is not None else cls()
        for delta in deltas or ():
            store.apply(delta)
        return store

    # ------------------------------------------------------------------
    # nodes
    # ------------------------------------------------------------------
    def add_node(self, node_type: NodeType, phrase: str,
                 payload: "dict | None" = None,
                 node_id: "str | None" = None) -> AttentionNode:
        """Add (or return the existing) node for ``phrase``/``node_type``.

        ``node_id`` pins an explicit id (shard-aware delta addressing): a
        replayed op carries the id the recording store assigned, so every
        replica — including hash-partitioned shards that only see a
        subset of the stream — agrees on global node ids.  The counter is
        advanced past any explicit id so later auto-assigned ids never
        collide.
        """
        key = self._phrase_key(node_type, phrase)
        existing_id = self._by_phrase.get(key)
        if existing_id is not None:
            node = self._by_id[existing_id]
            if node_id is not None and node_id != existing_id:
                raise OntologyError(
                    f"node {phrase!r} already exists as {existing_id}, "
                    f"cannot re-create it as {node_id}"
                )
            if payload:
                node.payload.update(payload)
                self._record({"op": "node", "type": node_type.value,
                              "phrase": phrase,
                              "payload": copy.deepcopy(payload),
                              "node_id": existing_id,
                              "created": False})
            return node
        if node_id is None:
            self._counter += 1
            node_id = f"{node_type.value[:3]}_{self._counter:06d}"
        else:
            if node_id in self._by_id:
                raise OntologyError(f"node id {node_id!r} is already taken")
            try:
                self._counter = max(self._counter,
                                    int(node_id.rsplit("_", 1)[1]))
            except (IndexError, ValueError):
                pass
        node = AttentionNode(node_id, node_type, phrase, payload=dict(payload or {}))
        self._tables[node_type][node_id] = node
        self._by_id[node_id] = node
        self._by_phrase[key] = node_id
        index = self._token_index[node_type]
        for token in set(node.tokens):
            index[token].add(node_id)
        self._record({"op": "node", "type": node_type.value, "phrase": phrase,
                      "payload": copy.deepcopy(payload or {}),
                      "node_id": node_id, "created": True})
        return node

    @staticmethod
    def _phrase_key(node_type: NodeType, phrase: str) -> str:
        return f"{node_type.value}::{phrase.lower()}"

    def add_alias(self, node_id: str, alias: str) -> None:
        node = self.node(node_id)
        if alias in node.aliases:
            return
        node.aliases.add(alias)
        self._by_phrase.setdefault(self._phrase_key(node.node_type, alias), node_id)
        self._record({"op": "alias", "node_id": node_id, "alias": alias})

    def update_payload(self, node_id: str, payload: dict) -> None:
        """Merge ``payload`` keys into a node (recorded in deltas)."""
        node = self.node(node_id)
        if not payload:
            return
        node.payload.update(payload)
        self._record({"op": "payload", "node_id": node_id,
                      "payload": copy.deepcopy(payload)})

    def node(self, node_id: str) -> AttentionNode:
        try:
            return self._by_id[node_id]
        except KeyError:
            raise OntologyError(f"unknown node {node_id!r}") from None

    def find(self, node_type: NodeType, phrase: str) -> "AttentionNode | None":
        node_id = self._by_phrase.get(self._phrase_key(node_type, phrase))
        return self._by_id[node_id] if node_id is not None else None

    def nodes(self, node_type: "NodeType | None" = None) -> list[AttentionNode]:
        if node_type is None:
            return list(self._by_id.values())
        return list(self._tables[node_type].values())

    def count(self, node_type: "NodeType | None" = None) -> int:
        """Node count, O(1) per partition."""
        if node_type is None:
            return len(self._by_id)
        return len(self._tables[node_type])

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._by_id

    def __len__(self) -> int:
        return len(self._by_id)

    # ------------------------------------------------------------------
    # inverted-index candidate generation
    # ------------------------------------------------------------------
    def nodes_with_token(self, token: str, node_type: NodeType
                         ) -> list[AttentionNode]:
        """Nodes of ``node_type`` whose canonical phrase contains ``token``."""
        index = self._token_index[node_type]
        ids = index.get(token)
        if not ids:
            return []
        table = self._tables[node_type]
        return [table[node_id] for node_id in sorted(ids)]

    def candidates(self, tokens: "list[str] | set[str]", node_type: NodeType
                   ) -> list[AttentionNode]:
        """Nodes of ``node_type`` sharing at least one phrase token with
        ``tokens`` — the serving-time candidate set (any phrase whose LCS
        overlap with ``tokens`` is non-zero is in it)."""
        index = self._token_index[node_type]
        ids: set[str] = set()
        for token in set(tokens):
            hit = index.get(token)
            if hit:
                ids.update(hit)
        table = self._tables[node_type]
        return [table[node_id] for node_id in sorted(ids)]

    def contained_phrases(self, tokens: list[str], node_type: NodeType
                          ) -> list[AttentionNode]:
        """Nodes whose phrase occurs as a contiguous token subsequence of
        ``tokens``, via the inverted index (no full partition scan)."""
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
    # edges
    # ------------------------------------------------------------------
    def add_edge(self, source_id: str, target_id: str, edge_type: EdgeType,
                 weight: float = 1.0) -> Edge:
        """Add a typed edge; isA edges are checked for cycles.

        Correlate edges are stored in both directions (symmetric relation).
        """
        if source_id not in self._by_id or target_id not in self._by_id:
            raise OntologyError("both endpoints must exist before adding an edge")
        if source_id == target_id:
            raise OntologyError("self-loops are not allowed")
        if edge_type == EdgeType.ISA and self._reaches(target_id, source_id, EdgeType.ISA):
            raise OntologyError(
                f"isA edge {source_id}->{target_id} would create a cycle"
            )
        edge = Edge(source_id, target_id, edge_type, weight)
        self._out[source_id][(target_id, edge_type)] = edge
        self._in[target_id][(source_id, edge_type)] = edge
        if edge_type == EdgeType.CORRELATE:
            mirror = Edge(target_id, source_id, edge_type, weight)
            self._out[target_id][(source_id, edge_type)] = mirror
            self._in[source_id][(target_id, edge_type)] = mirror
        if edge_type != EdgeType.CORRELATE or \
                (target_id, source_id, edge_type) not in self._edge_order:
            self._edge_order.setdefault((source_id, target_id, edge_type))
        self._record({"op": "edge", "source": source_id, "target": target_id,
                      "type": edge_type.value, "weight": weight})
        return edge

    def has_edge(self, source_id: str, target_id: str, edge_type: EdgeType) -> bool:
        return (target_id, edge_type) in self._out.get(source_id, {})

    def edges(self, edge_type: "EdgeType | None" = None) -> list[Edge]:
        """All edges in insertion order (correlate pairs reported once,
        in the direction first added)."""
        return [self._out[source][(target, etype)]
                for source, target, etype in self._edge_order
                if edge_type is None or etype == edge_type]

    def out_edges(self, node_id: str) -> list[Edge]:
        """Outgoing edges of ``node_id`` in insertion order (correlate
        mirrors included) — the edge-level twin of :meth:`successors`,
        used by the cluster tier to preserve traversal order across
        shard moves."""
        return list(self._out.get(node_id, {}).values())

    def in_edges(self, node_id: str) -> list[Edge]:
        """Incoming edges of ``node_id`` in insertion order."""
        return list(self._in.get(node_id, {}).values())

    def successors(self, node_id: str, edge_type: "EdgeType | None" = None
                   ) -> list[AttentionNode]:
        out = []
        for (target, etype) in self._out.get(node_id, {}):
            if edge_type is None or etype == edge_type:
                out.append(self._by_id[target])
        return out

    def predecessors(self, node_id: str, edge_type: "EdgeType | None" = None
                     ) -> list[AttentionNode]:
        out = []
        for (source, etype) in self._in.get(node_id, {}):
            if edge_type is None or etype == edge_type:
                out.append(self._by_id[source])
        return out

    def has_path(self, start: str, goal: str,
                 edge_type: EdgeType = EdgeType.ISA) -> bool:
        """True when ``goal`` is reachable from ``start`` along edges of
        ``edge_type`` (e.g. start is an isA ancestor of goal)."""
        return self._reaches(start, goal, edge_type)

    def _reaches(self, start: str, goal: str, edge_type: EdgeType) -> bool:
        stack = [start]
        visited = {start}
        while stack:
            current = stack.pop()
            if current == goal:
                return True
            for (target, etype) in self._out.get(current, {}):
                if etype == edge_type and target not in visited:
                    visited.add(target)
                    stack.append(target)
        return False

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Node counts per type and edge counts per type (Table 1-2 shape)."""
        out: dict[str, int] = {
            t.value: len(self._tables[t]) for t in NodeType
        }
        for etype in EdgeType:
            out[etype.value] = len(self.edges(etype))
        return out
