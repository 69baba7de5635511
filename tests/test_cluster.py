"""Tests for repro.cluster: routing, sharded replay, scatter-gather
serving equality, and the multi-process tagging pool."""

import pytest

from repro.cluster import ClusterService, ShardRouter, TaggingWorkerPool
from repro.core.ontology import AttentionOntology, EdgeType, NodeType
from repro.core.serialize import store_to_delta
from repro.core.store import OntologyDelta, OntologyStore
from repro.errors import DeltaGapError, OntologyError
from repro.serving import OntologyService
from repro.text.ner import NerTagger
from repro.text.tokenizer import tokenize

ENTITIES = ("iron man", "captain america", "black panther", "thor",
            "hulk", "black widow", "doctor strange", "ant man")


def _build_producer():
    """A producer ontology recorded as three delta batches, with every
    node/edge type and cross-type edges that will straddle shards."""
    producer = AttentionOntology()
    producer.begin_delta("build")
    category = producer.add_node(NodeType.CATEGORY, "movies")
    concept = producer.add_node(
        NodeType.CONCEPT, "marvel superhero movies",
        payload={"context_titles": [tokenize("best marvel superhero movies")]},
    )
    producer.add_edge(category.node_id, concept.node_id, EdgeType.ISA)
    for name in ENTITIES[:6]:
        entity = producer.add_node(NodeType.ENTITY, name)
        producer.add_edge(concept.node_id, entity.node_id, EdgeType.ISA)
    event = producer.add_node(
        NodeType.EVENT, "black panther premiere breaks box office record")
    producer.add_edge(
        event.node_id,
        producer.find(NodeType.ENTITY, "black panther").node_id,
        EdgeType.INVOLVE)
    producer.add_alias(concept.node_id, "mcu films")
    first = producer.commit_delta()

    producer.begin_delta("day2")
    topic = producer.add_node(NodeType.TOPIC, "marvel phase four")
    producer.add_edge(topic.node_id, event.node_id, EdgeType.INVOLVE)
    a = producer.find(NodeType.ENTITY, "iron man")
    b = producer.find(NodeType.ENTITY, "captain america")
    producer.add_edge(a.node_id, b.node_id, EdgeType.CORRELATE)
    producer.update_payload(concept.node_id, {"support": 9})
    second = producer.commit_delta()

    producer.begin_delta("day3")
    for name in ENTITIES[6:]:
        entity = producer.add_node(NodeType.ENTITY, name)
        producer.add_edge(
            producer.find(NodeType.CONCEPT, "marvel superhero movies").node_id,
            entity.node_id, EdgeType.ISA)
    producer.add_node(
        NodeType.EVENT, "doctor strange sequel announced at comic con")
    third = producer.commit_delta()
    return producer, [first, second, third]


@pytest.fixture
def producer_and_deltas():
    return _build_producer()


@pytest.fixture
def ner():
    tagger = NerTagger()
    for name in ENTITIES:
        tagger.register(name, "WORK")
    return tagger


TAGGER_OPTIONS = {"coherence_threshold": 0.01, "lcs_threshold": 0.6}

DOCS = [
    ("d1", tokenize("iron man and captain america reviewed"),
     [tokenize("both iron man and captain america delight fans")]),
    ("d2", tokenize("black panther premiere breaks box office record"),
     [tokenize("a huge premiere for black panther")]),
    ("d3", tokenize("doctor strange sequel announced at comic con"),
     [tokenize("doctor strange returns")]),
    ("d4", tokenize("gardening tips for small balconies"),
     [tokenize("nothing about movies here")]),
]

QUERIES = ["best marvel superhero movies", "iron man review",
           "mcu films ranked", "unrelated gardening query"]


class TestShardRouter:
    def test_assignment_deterministic_across_routers(self, producer_and_deltas):
        _producer, deltas = producer_and_deltas
        first = ShardRouter(4)
        second = ShardRouter(4)
        subs_a = [first.split(d) for d in deltas]
        subs_b = [second.split(d) for d in deltas]
        assert subs_a == subs_b
        assert first.shard_versions == second.shard_versions

    def test_partitioning_spreads_nodes(self, producer_and_deltas):
        _producer, deltas = producer_and_deltas
        router = ShardRouter(4)
        for delta in deltas:
            router.split(delta)
        owners = {router.owner_of(node_id)
                  for node_id in _producer.store._by_id}
        assert len(owners) > 1  # hash partitioning uses several shards

    def test_split_preserves_real_ops_and_version_math(self,
                                                       producer_and_deltas):
        _producer, deltas = producer_and_deltas
        router = ShardRouter(4)
        for delta in deltas:
            subs = router.split(delta)
            flat = [op for sub in subs if sub for op in sub.ops]
            # Node/alias/payload ops appear exactly once, on the owner.
            point_ops = [op for op in flat
                         if op["op"] != "edge" and not op.get("ghost")]
            assert len(point_ops) == sum(
                1 for op in delta.ops if op["op"] != "edge")
            # Edge ops appear once per distinct endpoint-owner shard.
            routed_edges = [op for op in flat if op["op"] == "edge"]
            expected = sum(
                len({router.owner_of(op["source"]),
                     router.owner_of(op["target"])})
                for op in delta.ops if op["op"] == "edge")
            assert len(routed_edges) == expected
            for sub in subs:
                if sub is not None:
                    assert sub.base_version + len(sub.ops) == sub.version
        assert router.version == deltas[-1].version

    def test_gap_in_stream_rejected(self, producer_and_deltas):
        _producer, deltas = producer_and_deltas
        router = ShardRouter(4)
        with pytest.raises(OntologyError):
            router.split(deltas[1])  # skipped deltas[0]

    def test_edge_ops_route_to_both_owner_shards(self, producer_and_deltas):
        _producer, deltas = producer_and_deltas
        router = ShardRouter(4)
        sub_streams = [router.split(d) for d in deltas]
        seen = set()
        for subs in sub_streams:
            for shard, sub in enumerate(subs):
                if sub is None:
                    continue
                for op in sub.ops:
                    if op["op"] == "edge":
                        seen.add((shard, op["source"], op["target"]))
                        assert shard in (router.owner_of(op["source"]),
                                         router.owner_of(op["target"]))
        # At least one edge crossed shards (stored on two shards).
        doubled = {(s, t) for _shard, s, t in seen
                   if sum(1 for sh, a, b in seen
                          if (a, b) == (s, t)) == 2}
        assert doubled


class TestClusterReplay:
    @pytest.mark.parametrize("num_shards", [1, 2, 4, 7])
    def test_sharded_replay_reproduces_single_store_stats(
            self, producer_and_deltas, num_shards):
        producer, deltas = producer_and_deltas
        cluster = ClusterService(num_shards=num_shards, deltas=deltas)
        assert cluster.stats()["ontology"] == producer.stats()
        assert cluster.version == producer.version

    def test_refresh_skips_applied_batches(self, producer_and_deltas):
        _producer, deltas = producer_and_deltas
        cluster = ClusterService(num_shards=4, deltas=deltas[:2])
        assert cluster.refresh(deltas) == 1  # only the third is new
        assert cluster.refresh(deltas) == 0

    def test_refresh_gap_rejected_before_any_shard_applies(
            self, producer_and_deltas):
        """Mirrors OntologyService.refresh: a gapped stream raises a
        serving-level DeltaGapError naming the missing range, with no
        shard advanced past the contiguous prefix."""
        _producer, deltas = producer_and_deltas
        cluster = ClusterService(num_shards=4, deltas=deltas[:1])
        with pytest.raises(DeltaGapError, match="missing versions"):
            cluster.refresh(deltas[2:])  # deltas[1] is missing
        assert cluster.version == deltas[0].version
        # Re-delivering the full tail catches the cluster up cleanly.
        assert cluster.refresh(deltas[1:]) == len(deltas) - 1

    def test_refresh_rejects_tail_straddling_cluster_version(
            self, producer_and_deltas):
        """Regression: a batch straddling the cluster's stream version
        (base behind, end ahead — e.g. a tail predating the bootstrap
        snapshot) raises DeltaGapError naming the overlap before any
        shard is touched, instead of a raw router error."""
        _producer, deltas = producer_and_deltas
        cluster = ClusterService(num_shards=4, deltas=deltas[:1])
        straddling = OntologyDelta(
            stage="merged", base_version=deltas[0].base_version,
            version=deltas[1].version, ops=deltas[0].ops + deltas[1].ops)
        with pytest.raises(DeltaGapError, match="double-apply"):
            cluster.refresh([straddling])
        assert cluster.version == deltas[0].version
        assert cluster.refresh(deltas[1:]) == len(deltas) - 1

    def test_bootstrap_from_existing_ontology(self, producer_and_deltas):
        producer, _deltas = producer_and_deltas
        cluster = ClusterService(num_shards=4, ontology=producer)
        assert cluster.stats()["ontology"] == producer.stats()

    def test_bootstrap_from_snapshot_plus_tail(self, producer_and_deltas):
        """Snapshot plus tail: fold the bootstrapped head through the
        router — state identical to routing the full stream — then a
        tail predating the snapshot is rejected as an overlap."""
        producer, deltas = producer_and_deltas
        snapshot = OntologyStore.bootstrap(None, deltas[:2]).compact()
        cluster = ClusterService(
            num_shards=4,
            ontology=OntologyStore.bootstrap(snapshot, deltas[2:]))
        assert cluster.version == producer.version
        assert cluster.stats()["ontology"] == producer.stats()
        full = ClusterService(num_shards=4, deltas=deltas)
        assert cluster.stats()["ontology"] == full.stats()["ontology"]
        fresh = ClusterService(num_shards=4,
                               ontology=OntologyStore.bootstrap(snapshot))
        straddling = OntologyDelta(
            stage="merged", base_version=deltas[1].base_version,
            version=deltas[2].version, ops=deltas[1].ops + deltas[2].ops)
        with pytest.raises(DeltaGapError, match="double-apply"):
            fresh.refresh([straddling])

    def test_ontology_and_deltas_mutually_exclusive(self,
                                                    producer_and_deltas):
        producer, deltas = producer_and_deltas
        with pytest.raises(OntologyError):
            ClusterService(num_shards=4, ontology=producer, deltas=deltas)

    def test_view_rejects_direct_mutation(self, producer_and_deltas):
        producer, deltas = producer_and_deltas
        cluster = ClusterService(num_shards=4, deltas=deltas)
        with pytest.raises(OntologyError):
            cluster.ontology.add_node(NodeType.TOPIC, "forbidden")
        with pytest.raises(OntologyError):
            cluster.ontology.apply_delta(
                OntologyDelta(version=1, ops=[{"op": "explode"}]))


class TestScatterGatherReads:
    @pytest.fixture
    def pair(self, producer_and_deltas, ner):
        producer, deltas = producer_and_deltas
        single = OntologyService(producer, ner=ner,
                                 tagger_options=TAGGER_OPTIONS)
        cluster = ClusterService(num_shards=4, ner=ner,
                                 tagger_options=TAGGER_OPTIONS, deltas=deltas)
        return producer, single, cluster

    def test_find_resolves_canonical_and_alias(self, pair):
        producer, _single, cluster = pair
        view = cluster.ontology
        concept = producer.find(NodeType.CONCEPT, "marvel superhero movies")
        assert view.find(NodeType.CONCEPT,
                         "Marvel Superhero Movies").node_id == concept.node_id
        assert view.find(NodeType.CONCEPT, "mcu films").node_id == concept.node_id
        assert view.find(NodeType.CONCEPT, "unknown") is None
        # Canonical resolution serves fresh payloads, never ghost copies.
        assert view.find(NodeType.CONCEPT,
                         "mcu films").payload["support"] == 9

    def test_indexed_reads_match_single_store(self, pair):
        producer, _single, cluster = pair
        store, view = producer.store, cluster.ontology.store
        for token in ("marvel", "panther", "sequel", "absent"):
            for node_type in (NodeType.CONCEPT, NodeType.EVENT):
                assert (
                    [n.node_id for n in view.nodes_with_token(token, node_type)]
                    == [n.node_id
                        for n in store.nodes_with_token(token, node_type)]
                )
        tokens = tokenize("black panther premiere breaks box office record")
        assert ([n.node_id for n in view.candidates(tokens, NodeType.EVENT)]
                == [n.node_id for n in store.candidates(tokens, NodeType.EVENT)])
        assert ([n.node_id
                 for n in view.contained_phrases(tokens, NodeType.ENTITY)]
                == [n.node_id
                    for n in store.contained_phrases(tokens, NodeType.ENTITY)])

    def test_traversals_match_single_store(self, pair):
        producer, single, cluster = pair
        concept = producer.find(NodeType.CONCEPT, "marvel superhero movies")
        category = producer.find(NodeType.CATEGORY, "movies")
        entity = producer.find(NodeType.ENTITY, "thor")
        view = cluster.ontology
        assert ([n.node_id for n in view.successors(concept.node_id,
                                                    EdgeType.ISA)]
                == [n.node_id for n in producer.successors(concept.node_id,
                                                           EdgeType.ISA)])
        assert view.has_path(category.node_id, entity.node_id)
        assert not view.has_path(entity.node_id, category.node_id)
        assert (cluster.neighborhood(concept.node_id, depth=2)
                == single.neighborhood(concept.node_id, depth=2))
        assert (cluster.concepts_of_entity("hulk")
                == single.concepts_of_entity("hulk"))

    def test_nodes_and_counts_exclude_ghosts(self, pair):
        producer, _single, cluster = pair
        view = cluster.ontology
        for node_type in NodeType:
            assert ([n.node_id for n in view.nodes(node_type)]
                    == [n.node_id for n in producer.nodes(node_type)])
        assert len(view) == len(producer)
        ghost_total = sum(r.ghost_count for r in cluster.replicas)
        stored_total = sum(len(r.store) for r in cluster.replicas)
        assert stored_total == len(producer) + ghost_total
        assert ghost_total > 0  # cross-shard edges exist at 4 shards


class TestContestedAliasKeys:
    """A contested alias key (two nodes claiming the same alias phrase)
    must resolve to the single store's setdefault winner — the first
    registration in the global stream, not the earliest-created node."""

    @staticmethod
    def _contested_stream():
        producer = AttentionOntology()
        producer.begin_delta("build")
        early = producer.add_node(NodeType.CONCEPT, "alpha movies")
        late = producer.add_node(NodeType.CONCEPT, "beta movies")
        # The *later-created* node claims the shared alias first.
        producer.add_alias(late.node_id, "shared phrase")
        producer.add_alias(early.node_id, "shared phrase")
        delta = producer.commit_delta()
        return producer, early, late, delta

    def test_cluster_find_matches_single_store_winner(self):
        producer, _early, late, delta = self._contested_stream()
        assert producer.find(NodeType.CONCEPT,
                             "shared phrase").node_id == late.node_id
        for num_shards in (1, 2, 4, 7):
            cluster = ClusterService(num_shards=num_shards, deltas=[delta])
            found = cluster.ontology.find(NodeType.CONCEPT, "shared phrase")
            assert found.node_id == late.node_id, num_shards

    def test_bootstrap_delta_preserves_winner(self):
        producer, _early, late, _delta = self._contested_stream()
        cold = OntologyStore()
        cold.apply_delta(store_to_delta(producer.store))
        assert cold.find(NodeType.CONCEPT,
                         "shared phrase").node_id == late.node_id

    def test_canonical_phrase_beats_alias_claim(self):
        producer = AttentionOntology()
        producer.begin_delta("build")
        named = producer.add_node(NodeType.CONCEPT, "space probes")
        other = producer.add_node(NodeType.CONCEPT, "deep space missions")
        producer.add_alias(other.node_id, "space probes")  # losing claim
        delta = producer.commit_delta()
        assert producer.find(NodeType.CONCEPT,
                             "space probes").node_id == named.node_id
        cluster = ClusterService(num_shards=4, deltas=[delta])
        assert cluster.ontology.find(
            NodeType.CONCEPT, "space probes").node_id == named.node_id


class TestClusterServing:
    def test_tagging_identical_to_single_store(self, producer_and_deltas, ner):
        producer, deltas = producer_and_deltas
        single = OntologyService(producer, ner=ner,
                                 tagger_options=TAGGER_OPTIONS)
        cluster = ClusterService(num_shards=4, ner=ner,
                                 tagger_options=TAGGER_OPTIONS, deltas=deltas)
        assert cluster.tag_documents(DOCS) == single.tag_documents(DOCS)

    def test_queries_identical_to_single_store(self, producer_and_deltas, ner):
        producer, deltas = producer_and_deltas
        single = OntologyService(producer, ner=ner,
                                 tagger_options=TAGGER_OPTIONS)
        cluster = ClusterService(num_shards=4, ner=ner,
                                 tagger_options=TAGGER_OPTIONS, deltas=deltas)
        assert (cluster.interpret_queries(QUERIES)
                == single.interpret_queries(QUERIES))

    def test_incremental_refresh_keeps_results_identical(
            self, producer_and_deltas, ner):
        producer, deltas = producer_and_deltas
        single = OntologyService(AttentionOntology(), ner=ner,
                                 tagger_options=TAGGER_OPTIONS)
        cluster = ClusterService(num_shards=3, ner=ner,
                                 tagger_options=TAGGER_OPTIONS)
        for delta in deltas:  # day-by-day convergence
            single.refresh([delta])
            cluster.refresh([delta])
            assert cluster.tag_documents(DOCS) == single.tag_documents(DOCS)

    def test_bootstrap_delta_equivalent_to_stream(self, producer_and_deltas,
                                                  ner):
        producer, deltas = producer_and_deltas
        from_stream = ClusterService(num_shards=4, ner=ner,
                                     tagger_options=TAGGER_OPTIONS,
                                     deltas=deltas)
        from_dump = ClusterService(num_shards=4, ner=ner,
                                   tagger_options=TAGGER_OPTIONS,
                                   deltas=[store_to_delta(producer.store)])
        assert (from_dump.stats()["ontology"]
                == from_stream.stats()["ontology"])
        assert (from_dump.tag_documents(DOCS)
                == from_stream.tag_documents(DOCS))


class TestTaggingWorkerPool:
    def test_pool_matches_single_process_and_refreshes(
            self, producer_and_deltas, ner):
        producer, deltas = producer_and_deltas
        single = OntologyService(producer, ner=ner,
                                 tagger_options=TAGGER_OPTIONS)
        snapshot = OntologyStore.bootstrap(None, deltas[:2]).compact()
        with TaggingWorkerPool(deltas, ner=ner, snapshot=snapshot,
                               tagger_options=TAGGER_OPTIONS,
                               num_workers=2, timeout=120.0) as pool:
            assert pool.tag_documents(DOCS * 3) == single.tag_documents(
                DOCS * 3)
            # A new delta broadcast reaches every replica.
            producer.begin_delta("day4")
            producer.add_node(NodeType.EVENT,
                              "hulk cameo confirmed in new trailer")
            fourth = producer.commit_delta()
            assert pool.refresh([fourth]) == 1
            single.refresh([fourth])
            fresh_doc = [("n", tokenize("hulk cameo confirmed in new trailer"),
                          [])]
            assert pool.tag_documents(fresh_doc) == single.tag_documents(
                fresh_doc)

    def test_empty_batch_and_close_idempotent(self, producer_and_deltas, ner):
        _producer, deltas = producer_and_deltas
        pool = TaggingWorkerPool(deltas, ner=ner,
                                 tagger_options=TAGGER_OPTIONS,
                                 num_workers=1, timeout=120.0)
        assert pool.tag_documents([]) == []
        pool.close()
        pool.close()
        from repro.errors import ReproError
        with pytest.raises(ReproError):
            pool.tag_documents(DOCS)
