"""The packed binary message codec, pipelined scatter reads and
remote-cluster byte-identity across a rebalance (DESIGN.md §10).

Every socket carries canonical JSON replies; the binary codec survives
only as a codec that ``bench/layers.py`` times against ``rpc.dumps``.
``rpc.dumps`` is the oracle throughout: a binary round trip and every
remote result must be byte-identical to it.
"""

import pytest

from repro.cluster import ClusterService, RemoteClusterService
from repro.cluster.shards import ShardedStoreView
from repro.core.ontology import AttentionOntology, EdgeType, NodeType
from repro.core.store import OntologyStore
from repro.errors import ReproError, SegmentIntegrityError
from repro.replication import DeltaLog, PublisherThread, SnapshotCatalog
from repro.serving import OntologyService
from repro.serving.rpc import (
    BINARY_CODEC_VERSION,
    BINARY_MAGIC,
    dumps,
    dumps_binary,
    is_binary_frame,
    loads_binary,
)
from repro.text.ner import NerTagger
from repro.text.tokenizer import tokenize

TAGGER_OPTIONS = {"coherence_threshold": 0.01, "lcs_threshold": 0.6}


def _sample_ontology():
    onto = AttentionOntology()
    onto.begin_delta("build")
    concept = onto.add_node(NodeType.CONCEPT, "marvel movies")
    for name in ("iron man", "thor", "hulk", "black widow", "wasp"):
        entity = onto.add_node(NodeType.ENTITY, name)
        onto.add_edge(concept.node_id, entity.node_id, EdgeType.ISA)
    onto.add_alias(concept.node_id, "mcu films")
    delta = onto.commit_delta()
    return onto, delta


# ----------------------------------------------------------------------
# binary frame codec
# ----------------------------------------------------------------------
class TestBinaryCodec:
    def test_values_round_trip_byte_identical(self):
        onto, _delta = _sample_ontology()
        node = onto.find(NodeType.CONCEPT, "marvel movies")
        values = [
            None, True, False, 1, 1.0, -7, 2 ** 70, 0.25, "héllo wörld",
            ["a", "b", "c"], (1, "two", 3.0), {"k": [None, {"n": 2}]},
            {"__esc__": "dunder", "__dc__": "shield"},
            {1.5, "x", None}, NodeType.CONCEPT, EdgeType.CORRELATE,
            node, onto.nodes(), onto.store.edges(),
            {"analysis": onto.nodes()[:2], "count": 5},
        ]
        for value in values:
            frame = dumps_binary(value)
            assert is_binary_frame(frame)
            assert dumps(loads_binary(frame)) == dumps(value), value

    def test_int_vs_float_distinction_survives(self):
        assert dumps(loads_binary(dumps_binary(1))) == b"1"
        assert dumps(loads_binary(dumps_binary(1.0))) == b"1.0"

    def test_json_frames_are_not_binary(self):
        assert not is_binary_frame(dumps({"a": 1}))
        assert is_binary_frame(BINARY_MAGIC + b"\x01")

    def test_codec_version_mismatch_rejected(self):
        frame = bytearray(dumps_binary([1, 2, 3]))
        frame[len(BINARY_MAGIC)] = BINARY_CODEC_VERSION + 1
        with pytest.raises(ReproError, match="codec version"):
            loads_binary(bytes(frame))

    def test_truncated_binary_frame_rejected(self):
        frame = dumps_binary({"k": ["deep", {"er": 1}]})
        with pytest.raises((ReproError, SegmentIntegrityError)):
            loads_binary(frame[: len(frame) - 3])


# ----------------------------------------------------------------------
# pipelined scatter: merged results identical to the sequential path
# ----------------------------------------------------------------------
class _PipelinedReplica:
    """A local :class:`ShardReplica` wrapped in the begin/finish
    pipelining interface a :class:`RemoteShardReplica` exposes, with the
    actual work deferred to ``finish_call`` — so the view's scatter
    paths exercise the dispatch-all-then-collect ordering."""

    def __init__(self, replica) -> None:
        self._replica = replica
        self._pending: dict = {}
        self._next = 0
        self.begun = 0

    def begin_call(self, method, *args, **kwargs) -> int:
        handle = self._next
        self._next += 1
        self._pending[handle] = (method, args, kwargs)
        self.begun += 1
        return handle

    def finish_call(self, handle):
        method, args, kwargs = self._pending.pop(handle)
        return getattr(self._replica, method)(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._replica, name)


class TestPipelinedScatter:
    def _views(self):
        onto, delta = _sample_ontology()
        cluster = ClusterService(num_shards=4, deltas=[delta])
        pipelined = ShardedStoreView(
            cluster.router,
            [_PipelinedReplica(replica) for replica in cluster.replicas])
        sequential = ShardedStoreView(cluster.router, cluster.replicas)
        return onto, sequential, pipelined

    def test_scatter_merges_byte_identical(self):
        onto, sequential, pipelined = self._views()
        concept = onto.find(NodeType.CONCEPT, "marvel movies")
        for call in (
            lambda v: v.nodes(),
            lambda v: v.nodes(NodeType.ENTITY),
            lambda v: v.count(),
            lambda v: v.find(NodeType.CONCEPT, "mcu films"),
            lambda v: v.nodes_with_token("thor", NodeType.ENTITY),
            lambda v: v.candidates({"iron", "wasp"}, NodeType.ENTITY),
            lambda v: v.edges(),
            lambda v: v.edges(EdgeType.ISA),
            lambda v: v.successors(concept.node_id),
            lambda v: v.predecessors(
                onto.find(NodeType.ENTITY, "thor").node_id),
            lambda v: v.stats(),
        ):
            assert dumps(call(pipelined)) == dumps(call(sequential))

    def test_scatter_actually_pipelines(self):
        _onto, _sequential, pipelined = self._views()
        replicas = pipelined._replicas
        pipelined.nodes()
        # Every shard got a dispatched (not inline) owned_ids call.
        assert all(replica.begun > 0 for replica in replicas)


# ----------------------------------------------------------------------
# remote cluster: byte-identity at 4 shards with a mid-stream rebalance
# ----------------------------------------------------------------------
class TestRemoteClusterRebalance:
    def _seed_log(self, log_dir):
        producer, delta = _sample_ontology()
        log = DeltaLog(log_dir, segment_max_bytes=512)
        log.append(delta)
        catalog = SnapshotCatalog(log, compact_bytes=1, retain_segments=0)
        catalog.record(OntologyStore.bootstrap(None, [delta]))
        ner = NerTagger()
        for name in ("iron man", "thor", "hulk", "black widow", "wasp"):
            ner.register(name, "WORK")
        return producer, log, catalog, ner

    def test_cluster_byte_identical_with_rebalance(self, tmp_path):
        """4 shard workers bootstrapped from the catalog snapshot serve
        responses byte-identical to a single store — before and after a
        mid-stream delta plus a ring rebalance."""
        producer, log, catalog, ner = self._seed_log(tmp_path / "log")
        single = OntologyService(producer, ner=ner,
                                 tagger_options=TAGGER_OPTIONS)
        queries = ["best marvel movies", "thor review"]
        request = ("doc-1", tokenize("iron man and wasp team up"),
                   [tokenize("the hulk arrives")])
        with log, PublisherThread(log, catalog) as publisher:
            with RemoteClusterService(publisher.address, num_shards=4,
                                      ner=ner,
                                      tagger_options=TAGGER_OPTIONS) as remote:
                assert dumps(single.interpret_queries(queries)) == \
                    dumps(remote.interpret_queries(queries))
                assert dumps(single.tag_documents([request])) == \
                    dumps(remote.tag_documents([request]))
                assert dumps(single.stats()["ontology"]) == \
                    dumps(remote.stats()["ontology"])
                view = remote.ontology.store
                assert dumps(view.nodes()) == dumps(producer.store.nodes())
                assert dumps(view.edges()) == dumps(producer.store.edges())
                # Mid-stream: publish a late delta, then flip the ring.
                producer.begin_delta("late")
                ant = producer.add_node(NodeType.ENTITY, "ant man")
                concept = producer.find(NodeType.CONCEPT, "marvel movies")
                producer.add_edge(concept.node_id, ant.node_id,
                                  EdgeType.ISA)
                late = producer.commit_delta()
                publisher.publish([late])
                delta = remote.rebalance(5, publish=publisher.publish)
                single.refresh([late, delta])
                assert remote.num_shards == 5
                assert dumps(single.interpret_queries(queries)) == \
                    dumps(remote.interpret_queries(queries))
                assert dumps(single.stats()["ontology"]) == \
                    dumps(remote.stats()["ontology"])
                assert dumps(remote.ontology.store.nodes()) == \
                    dumps(producer.store.nodes())
