"""Tests for repro.core.store: indexes, deltas, snapshots, invariants."""

import pytest

from repro.core.ontology import AttentionOntology
from repro.core.serialize import (
    delta_from_dict,
    delta_to_dict,
    load_deltas,
    save_deltas,
)
from repro.core.store import EdgeType, NodeType, OntologyDelta, OntologyStore
from repro.errors import DeltaGapError, OntologyError


@pytest.fixture
def store():
    s = OntologyStore()
    concept = s.add_node(NodeType.CONCEPT, "fuel efficient cars")
    entity = s.add_node(NodeType.ENTITY, "honda civic")
    category = s.add_node(NodeType.CATEGORY, "cars")
    s.add_edge(concept.node_id, entity.node_id, EdgeType.ISA)
    s.add_edge(category.node_id, concept.node_id, EdgeType.ISA)
    return s


class TestPartitionsAndIndexes:
    def test_type_partitioned_counts(self, store):
        assert store.count(NodeType.CONCEPT) == 1
        assert store.count(NodeType.ENTITY) == 1
        assert store.count() == 3

    def test_nodes_with_token(self, store):
        hits = store.nodes_with_token("cars", NodeType.CONCEPT)
        assert [n.phrase for n in hits] == ["fuel efficient cars"]
        assert store.nodes_with_token("cars", NodeType.ENTITY) == []

    def test_candidates_union_over_tokens(self, store):
        store.add_node(NodeType.CONCEPT, "detective fiction")
        hits = store.candidates(["fuel", "fiction"], NodeType.CONCEPT)
        assert {n.phrase for n in hits} == {"fuel efficient cars",
                                           "detective fiction"}

    def test_candidates_no_overlap_empty(self, store):
        assert store.candidates(["gardening"], NodeType.CONCEPT) == []

    def test_contained_phrases_contiguous_only(self, store):
        tokens = "best fuel efficient cars of 2020".split()
        hits = store.contained_phrases(tokens, NodeType.CONCEPT)
        assert [n.phrase for n in hits] == ["fuel efficient cars"]
        # Shared tokens but not contiguous: no match.
        scattered = "fuel prices hurt efficient compact cars".split()
        assert store.contained_phrases(scattered, NodeType.CONCEPT) == []

    def test_index_covers_new_nodes(self, store):
        store.add_node(NodeType.EVENT, "honda recalls civic models")
        hits = store.candidates(["recalls"], NodeType.EVENT)
        assert len(hits) == 1


class TestInvariants:
    def test_isa_cycle_rejected(self, store):
        concept = store.find(NodeType.CONCEPT, "fuel efficient cars")
        category = store.find(NodeType.CATEGORY, "cars")
        with pytest.raises(OntologyError):
            store.add_edge(concept.node_id, category.node_id, EdgeType.ISA)

    def test_deep_isa_cycle_rejected(self, store):
        entity = store.find(NodeType.ENTITY, "honda civic")
        category = store.find(NodeType.CATEGORY, "cars")
        with pytest.raises(OntologyError):
            store.add_edge(entity.node_id, category.node_id, EdgeType.ISA)

    def test_alias_merge_on_duplicate_phrase(self, store):
        node = store.find(NodeType.CONCEPT, "fuel efficient cars")
        store.add_alias(node.node_id, "economical cars")
        # Adding the alias phrase as a node merges into the alias target.
        merged = store.add_node(NodeType.CONCEPT, "economical cars",
                                payload={"x": 1})
        assert merged.node_id == node.node_id
        assert node.payload["x"] == 1
        assert store.count(NodeType.CONCEPT) == 1

    def test_alias_is_exact_match_lookup(self, store):
        node = store.find(NodeType.CONCEPT, "fuel efficient cars")
        store.add_alias(node.node_id, "economical cars")
        assert store.find(NodeType.CONCEPT, "Economical Cars") is node

    def test_version_bumps_on_mutation(self, store):
        before = store.version
        store.add_node(NodeType.TOPIC, "car recalls")
        assert store.version == before + 1
        # Idempotent re-add without payload is not a mutation.
        store.add_node(NodeType.TOPIC, "car recalls")
        assert store.version == before + 1

    def test_snapshot_records_version_and_stats(self, store):
        snap = store.snapshot()
        assert snap.version == store.version
        assert snap.stats == store.stats()
        assert store.snapshots() == [snap]


class TestDeltas:
    def _record_build(self):
        store = OntologyStore()
        store.begin_delta("build")
        concept = store.add_node(NodeType.CONCEPT, "marvel movies",
                                 payload={"support": 3})
        entity = store.add_node(NodeType.ENTITY, "iron man")
        store.add_alias(concept.node_id, "marvel films")
        store.add_edge(concept.node_id, entity.node_id, EdgeType.ISA,
                       weight=0.8)
        store.update_payload(entity.node_id, {"seen": 1})
        delta = store.commit_delta()
        return store, delta

    def test_replay_reproduces_store(self):
        store, delta = self._record_build()
        fresh = OntologyStore()
        fresh.apply_delta(delta)
        assert fresh.stats() == store.stats()
        assert fresh.version == store.version
        node = fresh.find(NodeType.CONCEPT, "marvel films")
        assert node is not None and node.phrase == "marvel movies"
        assert fresh.find(NodeType.ENTITY, "iron man").payload == {"seen": 1}

    def test_serialize_round_trip_of_delta_built_store(self, tmp_path):
        store, delta = self._record_build()
        path = tmp_path / "deltas.json"
        save_deltas([delta], str(path))
        fresh = OntologyStore()
        for loaded in load_deltas(str(path)):
            fresh.apply_delta(loaded)
        assert fresh.stats() == store.stats()
        edges = fresh.edges(EdgeType.ISA)
        assert len(edges) == 1 and edges[0].weight == 0.8

    def test_delta_counters(self):
        _store, delta = self._record_build()
        assert delta.nodes_added == 2
        assert delta.edges_added == 1
        assert delta.stage == "build"
        assert len(delta) == 5

    def test_apply_delta_version_mismatch_rejected(self):
        _store, delta = self._record_build()
        fresh = OntologyStore()
        fresh.add_node(NodeType.TOPIC, "already ahead")
        with pytest.raises(OntologyError):
            fresh.apply_delta(delta)

    def test_truncated_delta_rejected_before_mutation(self):
        _store, delta = self._record_build()
        delta.ops.pop()  # simulate a truncated batch
        fresh = OntologyStore()
        with pytest.raises(OntologyError):
            fresh.apply_delta(delta)
        assert fresh.version == 0 and len(fresh) == 0  # untouched

    def test_unknown_op_rejected(self):
        fresh = OntologyStore()
        bad = OntologyDelta(version=1, ops=[{"op": "explode"}])
        with pytest.raises(OntologyError):
            fresh.apply_delta(bad)

    def test_nested_delta_recording(self):
        store = OntologyStore()
        store.begin_delta("outer")
        store.add_node(NodeType.CONCEPT, "a")
        store.begin_delta("inner")
        store.add_node(NodeType.CONCEPT, "b")
        assert store.commit_delta() is None  # inner commit: still recording
        delta = store.commit_delta()
        assert delta is not None and delta.nodes_added == 2

    def test_delta_dict_round_trip(self):
        _store, delta = self._record_build()
        clone = delta_from_dict(delta_to_dict(delta))
        assert clone.stage == delta.stage
        assert clone.base_version == delta.base_version
        assert clone.version == delta.version
        fresh = OntologyStore()
        fresh.apply_delta(clone)
        assert fresh.stats() == _store.stats()

    def test_commit_without_begin_rejected(self):
        with pytest.raises(OntologyError):
            OntologyStore().commit_delta()


class TestCompaction:
    def _record_days(self):
        """Three delta batches simulating a growing ontology."""
        store = OntologyStore()
        store.begin_delta("day1")
        concept = store.add_node(NodeType.CONCEPT, "fuel efficient cars")
        entity = store.add_node(NodeType.ENTITY, "honda civic")
        store.add_edge(concept.node_id, entity.node_id, EdgeType.ISA)
        store.add_alias(concept.node_id, "economical cars")
        first = store.commit_delta()
        store.begin_delta("day2")
        other = store.add_node(NodeType.ENTITY, "toyota prius")
        store.add_edge(concept.node_id, other.node_id, EdgeType.ISA)
        store.update_payload(entity.node_id, {"support": 3})
        second = store.commit_delta()
        store.begin_delta("day3")
        topic = store.add_node(NodeType.TOPIC, "hybrid car reviews")
        store.add_edge(topic.node_id, other.node_id, EdgeType.INVOLVE)
        third = store.commit_delta()
        return store, [first, second, third]

    def test_bootstrap_equals_full_replay(self):
        full, deltas = self._record_days()
        # Compact the two-delta prefix; bootstrap from snapshot + tail.
        prefix = OntologyStore.bootstrap(None, deltas[:2])
        snapshot = prefix.compact()
        cold = OntologyStore.bootstrap(snapshot, deltas)
        replayed = OntologyStore.bootstrap(None, deltas)
        assert cold.stats() == replayed.stats() == full.stats()
        assert cold.version == replayed.version == full.version
        node = cold.find(NodeType.ENTITY, "honda civic")
        assert node.payload == {"support": 3}
        assert node.node_id == full.find(NodeType.ENTITY,
                                         "honda civic").node_id

    def test_bootstrap_skips_already_compacted_deltas(self):
        full, deltas = self._record_days()
        snapshot = OntologyStore.bootstrap(None, deltas).compact()
        # The whole stream overlaps the snapshot: everything is skipped.
        cold = OntologyStore.bootstrap(snapshot, deltas)
        assert cold.stats() == full.stats() and cold.version == full.version

    def test_bootstrap_rejects_tail_straddling_snapshot(self):
        """Regression: a tail batch whose base version predates the
        snapshot but whose end is ahead of it must raise DeltaGapError
        naming the overlapping range — part of the batch is already
        folded into the snapshot, so replaying it would double-apply
        (and silently merge payload/alias ops a second time)."""
        _full, deltas = self._record_days()
        snapshot = OntologyStore.bootstrap(None, deltas[:2]).compact()
        straddling = OntologyDelta(
            stage="merged", base_version=deltas[1].base_version,
            version=deltas[2].version, ops=deltas[1].ops + deltas[2].ops)
        with pytest.raises(DeltaGapError, match="double-apply") as err:
            OntologyStore.bootstrap(snapshot, [straddling])
        # The message names the already-applied overlap range.
        assert f"{deltas[1].base_version + 1}..{deltas[1].version}" in \
            str(err.value)

    def test_snapshot_preserves_ids_version_and_counter(self):
        from repro.core.serialize import store_from_dict, store_to_dict

        full, _deltas = self._record_days()
        clone = store_from_dict(store_to_dict(full))
        assert clone.version == full.version
        assert clone._counter == full._counter
        for node in full.nodes():
            assert clone.node(node.node_id).phrase == node.phrase
        assert clone.find(NodeType.CONCEPT, "economical cars") is not None

    def test_new_deltas_carry_explicit_node_ids(self):
        full, deltas = self._record_days()
        for delta in deltas:
            for op in delta.ops:
                if op["op"] == "node":
                    assert op["node_id"] in full._by_id
        # Replay on a store whose counter diverged still lands same ids.
        fresh = OntologyStore()
        for delta in deltas:
            fresh.apply_delta(delta)
        assert {n.node_id for n in fresh.nodes()} == {
            n.node_id for n in full.nodes()}

    def test_explicit_id_conflicts_rejected(self):
        store = OntologyStore()
        store.add_node(NodeType.CONCEPT, "space probes", node_id="con_000009")
        with pytest.raises(OntologyError):
            store.add_node(NodeType.ENTITY, "voyager 1", node_id="con_000009")
        with pytest.raises(OntologyError):
            store.add_node(NodeType.CONCEPT, "space probes",
                           node_id="con_000010")
        # Counter advanced past the explicit id: no collision follows.
        auto = store.add_node(NodeType.ENTITY, "voyager 1")
        assert auto.node_id == "ent_000010"

    def test_snapshot_preserves_contested_alias_winner(self):
        from repro.core.serialize import (
            store_from_dict,
            store_to_dict,
        )

        store = OntologyStore()
        early = store.add_node(NodeType.CONCEPT, "alpha movies")
        late = store.add_node(NodeType.CONCEPT, "beta movies")
        store.add_alias(late.node_id, "shared phrase")   # first claim wins
        store.add_alias(early.node_id, "shared phrase")  # losing claim
        assert store.find(NodeType.CONCEPT,
                          "shared phrase").node_id == late.node_id
        clone = store_from_dict(store_to_dict(store))
        assert clone.find(NodeType.CONCEPT,
                          "shared phrase").node_id == late.node_id

    def test_store_file_round_trip(self, tmp_path):
        from repro.core.serialize import load_ontology, save_ontology

        full, deltas = self._record_days()
        prefix = OntologyStore.bootstrap(None, deltas[:2])
        path = tmp_path / "snapshot.json"
        save_ontology(AttentionOntology(store=prefix), str(path))
        cold = load_ontology(str(path)).store
        assert cold.version == prefix.version
        cold.apply_delta(deltas[2])
        assert cold.stats() == full.stats()


class TestFacade:
    def test_facade_wraps_given_store(self, store):
        onto = AttentionOntology(store=store)
        assert onto.store is store
        assert len(onto) == len(store)
        assert onto.version == store.version

    def test_facade_mutations_reach_store(self):
        onto = AttentionOntology()
        onto.begin_delta("x")
        node = onto.add_node(NodeType.CONCEPT, "space probes")
        onto.update_payload(node.node_id, {"k": "v"})
        delta = onto.commit_delta()
        fresh = AttentionOntology()
        fresh.apply_delta(delta)
        assert fresh.find(NodeType.CONCEPT, "space probes").payload == {"k": "v"}
