"""Tests for ontology serialization and the concept-correlate extension."""

import json
import random

import pytest

from repro.core.columnar import (
    check_segment,
    decode_store_segment,
    encode_store_segment,
)
from repro.core.linking.concept_concept import (
    concept_cooccurrence_pairs,
    link_concept_correlations,
)
from repro.core.ontology import AttentionOntology, EdgeType, NodeType
from repro.pipeline import GiantPipeline
from repro.core.serialize import (
    load_ontology,
    save_ontology,
    store_from_dict,
    store_to_delta,
    store_to_dict,
)
from repro.core.store import OntologyStore
from repro.errors import OntologyError, SegmentIntegrityError
from repro.serving.rpc import dumps


@pytest.fixture
def ontology():
    onto = AttentionOntology()
    c1 = onto.add_node(NodeType.CONCEPT, "economy cars",
                       payload={"context_titles": [["economy", "cars", "ranked"]]})
    c2 = onto.add_node(NodeType.CONCEPT, "fuel efficient cars")
    c3 = onto.add_node(NodeType.CONCEPT, "detective fiction")
    e1 = onto.add_node(NodeType.ENTITY, "honda civic")
    e2 = onto.add_node(NodeType.ENTITY, "toyota corolla")
    e3 = onto.add_node(NodeType.ENTITY, "sherlock")
    onto.add_edge(c1.node_id, e1.node_id, EdgeType.ISA)
    onto.add_edge(c1.node_id, e2.node_id, EdgeType.ISA)
    onto.add_edge(c2.node_id, e1.node_id, EdgeType.ISA)
    onto.add_edge(c2.node_id, e2.node_id, EdgeType.ISA)
    onto.add_edge(c3.node_id, e3.node_id, EdgeType.ISA)
    onto.add_edge(e1.node_id, e2.node_id, EdgeType.CORRELATE, weight=0.9)
    onto.add_alias(c1.node_id, "cheap cars")
    return onto


def _round_trip(ontology: AttentionOntology) -> AttentionOntology:
    return AttentionOntology(
        store=store_from_dict(store_to_dict(ontology.store)))


@pytest.fixture(scope="module")
def pipeline_ontology(click_graph, pos_tagger, ner_tagger, sessions, world):
    pipeline = GiantPipeline(
        click_graph, pos_tagger, ner_tagger,
        categories=sorted({c[2] for c in world.categories}))
    return pipeline.run(sessions=sessions)


class TestSerialization:
    def test_round_trip_preserves_stats(self, ontology):
        rebuilt = _round_trip(ontology)
        assert rebuilt.stats() == ontology.stats()

    def test_round_trip_preserves_aliases(self, ontology):
        rebuilt = _round_trip(ontology)
        node = rebuilt.find(NodeType.CONCEPT, "cheap cars")
        assert node is not None
        assert node.phrase == "economy cars"

    def test_round_trip_preserves_payload(self, ontology):
        rebuilt = _round_trip(ontology)
        node = rebuilt.find(NodeType.CONCEPT, "economy cars")
        assert node.payload["context_titles"] == [["economy", "cars", "ranked"]]

    def test_round_trip_preserves_edge_weights(self, ontology):
        rebuilt = _round_trip(ontology)
        edges = rebuilt.edges(EdgeType.CORRELATE)
        assert len(edges) == 1
        assert edges[0].weight == 0.9

    def test_file_round_trip(self, ontology, tmp_path):
        path = tmp_path / "onto.json"
        save_ontology(ontology, str(path))
        rebuilt = load_ontology(str(path))
        assert rebuilt.stats() == ontology.stats()

    def test_file_round_trip_keeps_pipeline_ontology(self, pipeline_ontology,
                                                     tmp_path):
        """Regression: the saved file reloads the built ontology's node
        ids, version, ``nodes()`` order and adjacency order (payload
        tuples still come back as lists, as in any JSON round trip)."""
        path = tmp_path / "onto.json"
        save_ontology(pipeline_ontology, str(path))
        rebuilt = load_ontology(str(path))

        def shape(onto):
            def ids(nodes):
                return [node.node_id for node in nodes]

            return dumps([onto.version] + [
                [node.node_id, ids(onto.store.successors(node.node_id)),
                 ids(onto.store.predecessors(node.node_id))]
                for node in onto.nodes()])

        assert len(pipeline_ontology) > 100
        assert shape(rebuilt) == shape(pipeline_ontology)

    def test_serialized_is_valid_json(self, ontology, tmp_path):
        path = tmp_path / "onto.json"
        save_ontology(ontology, str(path))
        data = json.loads(path.read_text())
        assert data["format"] == 1
        assert len(data["nodes"]) == len(ontology)

    def test_failed_save_leaves_previous_file(self, ontology, tmp_path,
                                              monkeypatch):
        """Regression: ``save_ontology`` / ``save_deltas`` wrote their
        target in place, so an encoder failing part-way left half a file
        where the loaders look.  The previous file must survive
        byte-identical and no new loadable file may appear."""
        from repro.core import serialize

        path = tmp_path / "onto.json"
        save_ontology(ontology, str(path))
        before = path.read_bytes()
        to_dict, delta_to_dict = serialize.store_to_dict, \
            serialize.delta_to_dict
        monkeypatch.setattr(serialize, "store_to_dict", lambda store: dict(
            to_dict(store), zz_unencodable=object()))
        monkeypatch.setattr(serialize, "delta_to_dict", lambda delta: dict(
            delta_to_dict(delta), zz_unencodable=object()))
        with pytest.raises(TypeError):
            save_ontology(ontology, str(path))
        delta = store_to_delta(ontology.store)
        with pytest.raises(TypeError):
            serialize.save_deltas([delta, delta], str(tmp_path / "d.json"))
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.glob("*.json")) == \
            ["onto.json"]

    def test_unknown_version_rejected(self):
        with pytest.raises(OntologyError):
            store_from_dict({"format": 99, "store_version": 0, "counter": 0,
                             "nodes": [], "edges": []})

    def test_dangling_edge_rejected(self):
        with pytest.raises(OntologyError):
            store_from_dict({
                "format": 1, "store_version": 0, "counter": 0,
                "nodes": [],
                "edges": [{"source": "x", "target": "y", "type": "isA"}],
            })

    def test_tuple_payload_becomes_list(self):
        onto = AttentionOntology()
        onto.add_node(NodeType.TOPIC, "t", payload={"pattern": ("X", "wins")})
        rebuilt = _round_trip(onto)
        node = rebuilt.find(NodeType.TOPIC, "t")
        assert node.payload["pattern"] == ["X", "wins"]


def _random_store(seed: int) -> OntologyStore:
    """A seeded store stressing the columnar encoder: unicode phrases,
    contested aliases (several nodes claiming the same text, several
    aliases equal to other nodes' phrases — maximal interning overlap),
    int-vs-float payload cells and mixed edge weights."""
    rng = random.Random(seed)
    onto = AttentionOntology()
    phrases = ["café crème", "東京 ニュース", "naïve bayes", "zebra fish",
               "fußball heute", "Ω résumé", "plain phrase", "🚗 cars"]
    payload_cells = [1, 1.0, -7, 0.25, True, False, None, "käse",
                     [1, 2.5, "三"], {"nested": {"k": [None, "v"]}}]
    nodes = []
    for index in range(rng.randint(0, 14)):
        node_type = rng.choice(list(NodeType))
        phrase = f"{rng.choice(phrases)} {index}"
        payload = {f"k{j}": rng.choice(payload_cells)
                   for j in range(rng.randint(0, 3))}
        nodes.append(onto.add_node(node_type, phrase, payload=payload))
    for node in nodes:
        if rng.random() < 0.5:
            # Contested alias text plus aliases colliding with phrases
            # already interned — the pool must dedupe, not duplicate.
            alias = rng.choice(["shared alias", "çommon", nodes[0].phrase])
            onto.add_alias(node.node_id, alias)
    for _ in range(rng.randint(0, 12)):
        if len(nodes) < 2:
            break
        source, target = rng.sample(nodes, 2)
        edge_type = rng.choice(list(EdgeType))
        if not onto.store.has_edge(source.node_id, target.node_id,
                                   edge_type):
            try:
                onto.add_edge(source.node_id, target.node_id, edge_type,
                              weight=rng.choice([1, 1.0, 0.5, 3]))
            except OntologyError:
                pass  # random pick closed an isA cycle; skip it
    return onto.store


class TestColumnarSegments:
    def test_random_stores_round_trip_byte_identical(self):
        """Property: for seeded random stores, snapshot -> columnar
        segment -> decode reproduces the snapshot dict *byte-identically*
        under the canonical rpc.dumps encoding — including the int/float
        distinction (1 vs 1.0) JSON text preserves."""
        for seed in range(12):
            snapshot = store_to_dict(_random_store(seed))
            segment = encode_store_segment(snapshot)
            assert dumps(decode_store_segment(segment)) == \
                dumps(snapshot), f"seed {seed} round trip diverged"

    def test_empty_store_round_trips(self):
        snapshot = store_to_dict(OntologyStore())
        decoded = decode_store_segment(encode_store_segment(snapshot))
        assert dumps(decoded) == dumps(snapshot)

    def test_unicode_phrases_and_alias_collisions_survive(self):
        onto = AttentionOntology()
        a = onto.add_node(NodeType.CONCEPT, "café crème")
        b = onto.add_node(NodeType.ENTITY, "café crème")  # same text
        onto.add_alias(a.node_id, "kaffee sahne")
        onto.add_alias(b.node_id, "kaffee sahne")  # contested claim
        onto.add_alias(b.node_id, "café crème extra")
        snapshot = store_to_dict(onto.store)
        decoded = decode_store_segment(encode_store_segment(snapshot))
        assert dumps(decoded) == dumps(snapshot)

    def test_footer_counts_match_tables(self):
        store = _random_store(5)
        segment = encode_store_segment(store_to_dict(store))
        n_nodes, n_edges, _n_strings = check_segment(segment)
        assert n_nodes == len(store)
        assert n_edges == len(store.edges())

    def test_truncated_segment_refused_by_name(self):
        segment = encode_store_segment(store_to_dict(_random_store(7)))
        for cut in (0, 10, len(segment) // 2, len(segment) - 1):
            with pytest.raises(SegmentIntegrityError):
                decode_store_segment(segment[:cut])

    def test_bit_flip_refused_by_checksum(self):
        segment = encode_store_segment(store_to_dict(_random_store(9)))
        corrupt = bytearray(segment)
        corrupt[len(segment) // 3] ^= 0xFF
        with pytest.raises(SegmentIntegrityError,
                           match="checksum mismatch"):
            decode_store_segment(bytes(corrupt))


def _adjacency(store: OntologyStore) -> bytes:
    return dumps([[node.node_id, store.successors(node.node_id),
                   store.predecessors(node.node_id)]
                  for node in store.nodes()])


class TestAdjacencyOrder:
    def test_every_bootstrap_form_keeps_insertion_order(self):
        """Regression (bench/README "Anomalies" (a)): successors() /
        predecessors() iterate in edge insertion order, so a replica
        rebuilt from a JSON snapshot, a columnar segment or a fold delta
        must list them exactly as one that replayed the stream."""
        onto = AttentionOntology()
        onto.begin_delta("edges")
        a, b, c, d = (onto.add_node(NodeType.CONCEPT, phrase).node_id
                      for phrase in "abcd")
        onto.add_edge(a, d, EdgeType.ISA)
        onto.add_edge(b, c, EdgeType.ISA)
        onto.add_edge(a, b, EdgeType.CORRELATE)
        replayed = OntologyStore.bootstrap(None, [onto.store.commit_delta()])
        assert [n.node_id for n in replayed.successors(b)] == [c, a]
        for store in [replayed] + [_random_store(seed) for seed in range(12)]:
            snapshot = store_to_dict(store)
            forms = {
                "json": store_from_dict(json.loads(json.dumps(snapshot))),
                "columnar": store_from_dict(
                    decode_store_segment(encode_store_segment(snapshot))),
                "fold": OntologyStore.bootstrap(None, [store_to_delta(store)]),
            }
            for name, rebuilt in forms.items():
                assert _adjacency(rebuilt) == _adjacency(store), name


class TestConceptCorrelate:
    def test_cooccurrence_counts_shared_members(self, ontology):
        pairs = concept_cooccurrence_pairs(ontology)
        assert pairs[("economy cars", "fuel efficient cars")] == 2
        assert ("economy cars", "detective fiction") not in pairs

    def test_link_creates_correlate_edges(self, ontology):
        created = link_concept_correlations(ontology, epochs=60, seed=0)
        assert created >= 1
        a = ontology.find(NodeType.CONCEPT, "economy cars")
        b = ontology.find(NodeType.CONCEPT, "fuel efficient cars")
        assert ontology.has_edge(a.node_id, b.node_id, EdgeType.CORRELATE)

    def test_no_concepts_no_edges(self):
        onto = AttentionOntology()
        assert link_concept_correlations(onto) == 0

    def test_unrelated_concepts_not_linked(self, ontology):
        link_concept_correlations(ontology, epochs=60, seed=0)
        a = ontology.find(NodeType.CONCEPT, "economy cars")
        c = ontology.find(NodeType.CONCEPT, "detective fiction")
        assert not ontology.has_edge(a.node_id, c.node_id, EdgeType.CORRELATE)
