"""Ontology persistence: one JSON snapshot format for stores, plus deltas.

The production system stores the ontology in MySQL behind Tars RPC
services; this module provides the equivalent durable representation for
the reproduction.  There is exactly one whole-ontology representation,
the **store snapshot** (:func:`store_to_dict`): node ids, the mutation
``version``, the id counter, the contested alias-key winners and edge
insertion order all survive the round trip, so a reloaded store answers
every read (``nodes()`` order and adjacency order included) exactly as
the store it was taken from, and tail
:class:`~repro.core.store.OntologyDelta` batches recorded *after* the
snapshot apply cleanly.  The CLI's ``--out`` file
(:func:`save_ontology`), the snapshot catalog next to the delta log and
the publisher's ``log_snapshot`` reply all carry it.

The :class:`~repro.core.store.OntologyDelta` round-trip lets a serving
process refresh its :class:`~repro.core.store.OntologyStore`
incrementally from pipeline-emitted update batches instead of reloading
a full snapshot.  :func:`store_to_delta` additionally folds a whole
store into one synthetic bootstrap delta (explicit node ids, base
version 0) — the form the cluster's
:class:`~repro.cluster.router.ShardRouter` can split across shards when
only a saved ontology, not its delta history, is available.
"""

from __future__ import annotations

import copy
import json
import os
from typing import Any

from ..errors import OntologyError
from .ontology import AttentionOntology, EdgeType, NodeType
from .store import OntologyDelta, OntologyStore, creation_order

DELTA_FORMAT_VERSION = 1
STORE_FORMAT_VERSION = 1


def write_json_atomic(path: "str | os.PathLike", payload: Any, *,
                      fsync: bool = True) -> None:
    """Replace ``path`` with ``payload`` as JSON, all or nothing: the
    document is encoded in full, written to ``<path>.tmp`` (fsynced
    when ``fsync``) and renamed over ``path``, so an encoding error or
    a crash leaves the previous file byte-identical.  A write or fsync
    that raises unlinks the temp before re-raising."""
    text = json.dumps(payload, indent=1, sort_keys=True)
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    os.replace(tmp, path)


def _jsonable(value: Any) -> Any:
    """Coerce payload values to JSON-compatible structures."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def delta_to_dict(delta: OntologyDelta) -> dict:
    """Serialise one update batch to a plain dict."""
    return {
        "version": DELTA_FORMAT_VERSION,
        "stage": delta.stage,
        "base_version": delta.base_version,
        "store_version": delta.version,
        "ops": [_jsonable(op) for op in delta.ops],
    }


def delta_from_dict(data: dict) -> OntologyDelta:
    """Reconstruct an update batch from :func:`delta_to_dict` output.

    Payload tuples become lists on the way through JSON (exactly as in the
    store snapshot); node/edge structure replays identically.
    """
    if data.get("version") != DELTA_FORMAT_VERSION:
        raise OntologyError(f"unsupported delta format: {data.get('version')!r}")
    return OntologyDelta(
        stage=data.get("stage", ""),
        base_version=data["base_version"],
        version=data["store_version"],
        ops=[dict(op) for op in data["ops"]],
    )


def delta_to_json_line(delta: OntologyDelta) -> str:
    """One delta as a single canonical JSON line (no trailing newline) —
    the record format of the replication log's segment files.  Canonical
    form (sorted keys, compact separators) makes the on-disk bytes
    deterministic, so identical streams produce identical segments."""
    return json.dumps(delta_to_dict(delta), sort_keys=True,
                      separators=(",", ":"))


def delta_from_json_line(line: str) -> OntologyDelta:
    """Inverse of :func:`delta_to_json_line`.

    Raises ``ValueError`` on a syntactically torn line (the replication
    log's crash recovery catches it to find the last good record) and
    :class:`~repro.errors.OntologyError` on a well-formed JSON document
    of the wrong shape.
    """
    data = json.loads(line)
    if not isinstance(data, dict):
        raise OntologyError("delta log line is not a JSON object")
    return delta_from_dict(data)


def save_deltas(deltas: "list[OntologyDelta]", path: str) -> None:
    """Write a delta sequence (one pipeline run's update batches) to JSON."""
    write_json_atomic(path, [delta_to_dict(d) for d in deltas])


def load_deltas(path: str) -> "list[OntologyDelta]":
    """Read a delta sequence written by :func:`save_deltas`."""
    with open(path, encoding="utf-8") as handle:
        return [delta_from_dict(d) for d in json.load(handle)]


def _alias_key_map(store: OntologyStore) -> dict[str, str]:
    """The store's exact-match entries that come from *aliases* (not
    canonical phrases) — key -> winning node id.  Contested alias keys
    resolve by first registration (``setdefault``); the map preserves
    that outcome across snapshot/bootstrap round-trips, where aliases
    are otherwise re-registered in node-creation order."""
    out: dict[str, str] = {}
    for key, node_id in store._by_phrase.items():
        node = store.node(node_id)
        if key != store._phrase_key(node.node_type, node.phrase):
            out[key] = node_id
    return out


def store_to_dict(store: OntologyStore) -> dict:
    """Serialise a store to a snapshot dict preserving ids and version.

    The snapshot is *addressable*: node ids, the mutation version, the
    id counter and the alias-key winners survive the round-trip, so
    deltas recorded after the snapshot apply to the reloaded store and
    exact-match lookups answer identically.
    """
    nodes = []
    for node in sorted(store.nodes(), key=lambda n: creation_order(n.node_id)):
        nodes.append({
            "id": node.node_id,
            "type": node.node_type.value,
            "phrase": node.phrase,
            "aliases": sorted(node.aliases),
            "payload": _jsonable(node.payload),
        })
    edges = [
        {
            "source": e.source,
            "target": e.target,
            "type": e.edge_type.value,
            "weight": e.weight,
        }
        for e in store.edges()  # insertion order: see OntologyStore.edges
    ]
    out = {
        "format": STORE_FORMAT_VERSION,
        "store_version": store.version,
        "counter": store._counter,
        "alias_map": _alias_key_map(store),
        "nodes": nodes,
        "edges": edges,
    }
    ring = store.ring
    if ring is not None:
        # The active consistent-hash ring epoch rides the snapshot, so a
        # follower bootstrapping from it derives the same placement as
        # one that replayed the stream's ring records (cluster/ring.py).
        out["ring"] = ring
    return out


def store_from_dict(data: dict) -> OntologyStore:
    """Reconstruct a store from :func:`store_to_dict` output.

    Nodes keep their recorded ids; the mutation version and id counter
    are restored afterwards, so a tail delta whose ``base_version``
    equals the snapshot's ``store_version`` applies directly.
    """
    if data.get("format") != STORE_FORMAT_VERSION:
        raise OntologyError(
            f"unsupported store snapshot format: {data.get('format')!r}")
    store = OntologyStore()
    for node_data in data["nodes"]:
        store.add_node(NodeType(node_data["type"]), node_data["phrase"],
                       payload=node_data.get("payload") or None,
                       node_id=node_data["id"])
        for alias in node_data.get("aliases", []):
            store.add_alias(node_data["id"], alias)
    for edge_data in data["edges"]:
        etype = EdgeType(edge_data["type"])
        if not store.has_edge(edge_data["source"], edge_data["target"], etype):
            store.add_edge(edge_data["source"], edge_data["target"], etype,
                           weight=edge_data.get("weight", 1.0))
    # Contested alias keys: restore the original first-registration
    # winners (the rebuild above registered aliases in node order).
    for key, node_id in data.get("alias_map", {}).items():
        store._by_phrase[key] = node_id
    ring = data.get("ring")
    if ring is not None:
        store._ring = {"epoch": ring["epoch"],
                       "num_shards": ring["num_shards"],
                       "vnodes": ring["vnodes"]}
    store._version = data["store_version"]
    store._counter = data["counter"]
    return store


def store_to_delta(store: OntologyStore, stage: str = "bootstrap"
                   ) -> OntologyDelta:
    """Fold a whole store into one synthetic, replayable bootstrap delta.

    Ops carry explicit node ids (shard-aware addressing) and are ordered
    so replay is valid on a fresh store: nodes in creation order (with
    their full merged payloads), then aliases — the current exact-match
    *winners* first, so replayed ``setdefault`` claims resolve contested
    alias keys exactly as the source store does — then edges.  The delta
    starts a *new* stream (``base_version`` 0); its version is the op
    count, not the source store's mutation version.
    """
    ops: list[dict] = []
    nodes = sorted(store.nodes(), key=lambda n: creation_order(n.node_id))
    for node in nodes:
        ops.append({"op": "node", "type": node.node_type.value,
                    "phrase": node.phrase,
                    "payload": copy.deepcopy(node.payload),
                    "node_id": node.node_id, "created": True})
    winner_ops: list[dict] = []
    loser_ops: list[dict] = []
    for node in nodes:
        for alias in sorted(node.aliases):
            op = {"op": "alias", "node_id": node.node_id, "alias": alias}
            key = store._phrase_key(node.node_type, alias)
            if store._by_phrase.get(key) == node.node_id:
                winner_ops.append(op)
            else:
                loser_ops.append(op)
    ops.extend(winner_ops)
    ops.extend(loser_ops)
    for edge in store.edges():
        ops.append({"op": "edge", "source": edge.source,
                    "target": edge.target, "type": edge.edge_type.value,
                    "weight": edge.weight})
    return OntologyDelta(stage=stage, base_version=0, version=len(ops),
                         ops=ops)


def save_ontology(ontology: AttentionOntology, path: str) -> None:
    """Write the ontology's store snapshot (:func:`store_to_dict`) to a
    JSON file."""
    write_json_atomic(path, store_to_dict(ontology.store))


def load_ontology(path: str) -> AttentionOntology:
    """Read an ontology written by :func:`save_ontology`."""
    with open(path, encoding="utf-8") as handle:
        return AttentionOntology(store=store_from_dict(json.load(handle)))
