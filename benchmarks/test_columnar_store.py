"""Columnar segments and the binary message codec (DESIGN.md §10).

Measures, at a ~10x-scale synthetic ontology:

* **bytes/node** of the canonical-JSON snapshot vs the packed columnar
  segment — the storage acceptance gate asserts the columnar encoding is
  at least 3x denser (structure-dependent, so never timing-gated);
* snapshot **encode/decode MB/s** for both formats;
* shard-read RPC response **docs/sec** through the JSON codec vs the
  binary message codec, which no socket carries any more and which is
  kept as a measured codec (the timing assertion arms only on >=2
  cores, like the other throughput gates);
* **round_trip_identical** — both decoders must reproduce inputs
  ``rpc.dumps``-byte-identically; CI fails the job when this flag is
  missing from ``results/BENCH_tagging.json`` (identity check skipped)
  or false.

Everything lands in the ``columnar`` section of
``results/BENCH_tagging.json`` so the density/throughput trajectory is
trackable across PRs.
"""

from __future__ import annotations

import json
import os
import random
import time

from repro.core.columnar import decode_store_segment, encode_store_segment
from repro.core.ontology import AttentionOntology, EdgeType, NodeType
from repro.core.serialize import store_to_dict
from repro.serving.rpc import decode, dumps, dumps_binary, loads_binary

from bench_common import SCALE, write_json

_ADJS = ["solar", "lunar", "hyper", "rapid", "silent", "crimson",
         "golden", "arctic", "neon", "quiet"]
_NOUNS = ["cars", "movies", "phones", "novels", "recipes", "trails",
          "startups", "satellites", "teams", "gadgets"]


def _scaled_store(scale: int) -> AttentionOntology:
    """A deterministic ontology ~``scale``x the unit-test worlds: every
    concept carries entities, aliases and isA/correlate edges, so the
    snapshot exercises id interning, alias maps and edge columns the way
    a pipeline-built store does."""
    rng = random.Random(0)
    onto = AttentionOntology()
    for index in range(40 * scale):
        adj, noun = rng.choice(_ADJS), rng.choice(_NOUNS)
        concept = onto.add_node(
            NodeType.CONCEPT, f"{adj} {noun} {index}",
            payload={"support": index % 17} if index % 3 else {})
        if index % 4 == 0:
            onto.add_alias(concept.node_id, f"best {adj} {noun} {index}")
        entities = []
        for sub in range(rng.randint(3, 6)):
            entity = onto.add_node(NodeType.ENTITY,
                                   f"{adj} {noun} model {index}-{sub}")
            onto.add_edge(concept.node_id, entity.node_id, EdgeType.ISA)
            entities.append(entity)
        if len(entities) >= 2:
            onto.add_edge(entities[0].node_id, entities[1].node_id,
                          EdgeType.CORRELATE,
                          weight=round(rng.random(), 3))
    return onto


def _mb_per_sec(num_bytes: int, seconds: float) -> float:
    return round(num_bytes / max(seconds, 1e-9) / 1e6, 1)


def test_columnar_density_and_codec_throughput():
    scale = 10 if SCALE == "small" else 20
    onto = _scaled_store(scale)
    store = onto.store
    snapshot = store_to_dict(store)

    # --- snapshot density + encode/decode throughput -----------------
    start = time.perf_counter()
    json_bytes = dumps(snapshot)
    json_encode_s = time.perf_counter() - start
    start = time.perf_counter()
    json.loads(json_bytes.decode("utf-8"))
    json_decode_s = time.perf_counter() - start

    start = time.perf_counter()
    segment = encode_store_segment(snapshot)
    col_encode_s = time.perf_counter() - start
    start = time.perf_counter()
    decoded = decode_store_segment(segment)
    col_decode_s = time.perf_counter() - start

    # JSON is the oracle: the segment must reproduce it byte-for-byte.
    round_trip_identical = dumps(decoded) == json_bytes

    n_nodes = len(store)
    json_bpn = len(json_bytes) / n_nodes
    col_bpn = len(segment) / n_nodes
    ratio = json_bpn / col_bpn

    # --- shard-read RPC response codec throughput --------------------
    # A representative scatter reply: the node objects one shard returns
    # to a candidates/nodes read (what the hot path actually ships).
    reply = store.nodes()[: 400 * scale // 2]
    rounds = 3 if SCALE == "small" else 6

    start = time.perf_counter()
    for _ in range(rounds):
        wire = dumps(reply)
        decode(json.loads(wire.decode("utf-8")))
    json_codec_s = time.perf_counter() - start
    json_docs_sec = rounds * len(reply) / max(json_codec_s, 1e-9)

    start = time.perf_counter()
    for _ in range(rounds):
        frame = dumps_binary(reply)
        binary_reply = loads_binary(frame)
    binary_codec_s = time.perf_counter() - start
    binary_docs_sec = rounds * len(reply) / max(binary_codec_s, 1e-9)

    wire_identical = dumps(binary_reply) == dumps(reply)
    round_trip_identical = round_trip_identical and wire_identical

    write_json("BENCH_tagging", {
        "columnar": {
            "nodes": n_nodes,
            "edges": len(store.edges()),
            "bytes_per_node": {
                "json": round(json_bpn, 1),
                "columnar": round(col_bpn, 1),
                "ratio": round(ratio, 2),
            },
            "snapshot_mb_per_sec": {
                "json_encode": _mb_per_sec(len(json_bytes), json_encode_s),
                "json_decode": _mb_per_sec(len(json_bytes), json_decode_s),
                "columnar_encode": _mb_per_sec(len(segment), col_encode_s),
                "columnar_decode": _mb_per_sec(len(segment), col_decode_s),
            },
            "rpc_docs_per_sec": {
                "json": round(json_docs_sec, 1),
                "binary": round(binary_docs_sec, 1),
                "reply_docs": len(reply),
            },
            "round_trip_identical": round_trip_identical,
        },
    })
    print(f"\ncolumnar: {json_bpn:.1f} -> {col_bpn:.1f} bytes/node "
          f"({ratio:.2f}x); rpc {json_docs_sec:.0f} -> "
          f"{binary_docs_sec:.0f} docs/sec")

    # Identity and density gates are structural, never timing-gated.
    assert round_trip_identical, \
        "columnar/binary decode diverged from the JSON oracle"
    assert ratio >= 3.0, \
        f"columnar segment only {ratio:.2f}x denser than JSON (need >=3x)"
    # Codec throughput is timing: arm only off contended single cores.
    if (os.cpu_count() or 1) >= 2:
        assert binary_docs_sec > json_docs_sec, \
            (f"binary wire {binary_docs_sec:.0f} docs/sec did not beat "
             f"JSON {json_docs_sec:.0f}")
