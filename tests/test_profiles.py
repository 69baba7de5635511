"""Tests for repro.apps.profiles (user interest modeling)."""

import os
import subprocess
import sys

import pytest

from repro.apps.profiles import UserProfiler
from repro.core.ontology import AttentionOntology, EdgeType, NodeType


@pytest.fixture
def ontology():
    onto = AttentionOntology()
    category = onto.add_node(NodeType.CATEGORY, "cars")
    concept = onto.add_node(NodeType.CONCEPT, "economy cars")
    civic = onto.add_node(NodeType.ENTITY, "honda civic")
    corolla = onto.add_node(NodeType.ENTITY, "toyota corolla")
    onto.add_edge(category.node_id, concept.node_id, EdgeType.ISA)
    onto.add_edge(concept.node_id, civic.node_id, EdgeType.ISA)
    onto.add_edge(concept.node_id, corolla.node_id, EdgeType.ISA)
    onto.add_edge(civic.node_id, corolla.node_id, EdgeType.CORRELATE)
    topic = onto.add_node(NodeType.TOPIC, "car recall events")
    event = onto.add_node(NodeType.EVENT, "honda civic recalls vehicles")
    onto.add_edge(topic.node_id, event.node_id, EdgeType.ISA)
    return onto


@pytest.fixture
def profiler(ontology):
    return UserProfiler(ontology)


class TestRecording:
    def test_observed_tags_weighted(self, profiler, ontology):
        profile = profiler.record_read("u1", ["honda civic"])
        top = profile.top(ontology, k=1)
        assert top == [("honda civic", 1.0)]

    def test_repeat_reads_accumulate(self, profiler, ontology):
        profiler.record_read("u1", ["honda civic"])
        profile = profiler.record_read("u1", ["honda civic"])
        assert profile.top(ontology, k=1)[0][1] > 1.0

    def test_decay_applied(self, profiler, ontology):
        profiler.record_read("u1", ["honda civic"])
        profile = profiler.record_read("u1", ["economy cars"])
        weights = dict(profile.top(ontology, k=5))
        assert weights["honda civic"] == pytest.approx(0.9)

    def test_unknown_tags_ignored(self, profiler, ontology):
        profile = profiler.record_read("u1", ["not a node"])
        assert profile.top(ontology) == []

    def test_profiles_isolated_per_user(self, profiler, ontology):
        profiler.record_read("u1", ["honda civic"])
        assert profiler.profile("u2").top(ontology) == []


class TestInference:
    def test_parent_concept_inferred(self, profiler, ontology):
        profiler.record_read("u1", ["honda civic"])
        profile = profiler.infer("u1")
        concepts = dict(profile.top(ontology, node_type=NodeType.CONCEPT))
        assert "economy cars" in concepts

    def test_correlated_entity_inferred(self, profiler, ontology):
        profiler.record_read("u1", ["honda civic"])
        profile = profiler.infer("u1")
        entities = dict(profile.top(ontology, node_type=NodeType.ENTITY))
        assert "toyota corolla" in entities

    def test_two_hops_reach_category(self, profiler, ontology):
        profiler.record_read("u1", ["honda civic"])
        profile = profiler.infer("u1", hops=2)
        categories = dict(profile.top(ontology, node_type=NodeType.CATEGORY))
        assert "cars" in categories

    def test_inferred_weight_below_observed(self, profiler, ontology):
        profiler.record_read("u1", ["honda civic"])
        profile = profiler.infer("u1")
        weights = dict(profile.top(ontology, k=10))
        assert weights["economy cars"] < weights["honda civic"]

    def test_inference_does_not_override_observed(self, profiler, ontology):
        profiler.record_read("u1", ["honda civic", "economy cars"])
        profile = profiler.infer("u1")
        weights = dict(profile.top(ontology, k=10))
        assert weights["economy cars"] == pytest.approx(1.0)


class TestRecommendation:
    def test_recommends_unobserved_nodes(self, profiler, ontology):
        profiler.record_read("u1", ["honda civic"])
        recs = [p for p, _w in profiler.recommend_tags("u1")]
        assert "economy cars" in recs
        assert "honda civic" not in recs

    def test_topic_event_extrapolation(self, profiler, ontology):
        # Reading the event suggests the topic (the paper's Brexit example).
        profiler.record_read("u1", ["honda civic recalls vehicles"])
        recs = [p for p, _w in profiler.recommend_tags("u1")]
        assert "car recall events" in recs

    def test_k_limits_output(self, profiler, ontology):
        profiler.record_read("u1", ["honda civic"])
        assert len(profiler.recommend_tags("u1", k=1)) == 1


_HASH_SEED_CHILD = """
from repro.apps.profiles import UserProfiler
from repro.core.ontology import AttentionOntology, EdgeType, NodeType
from repro.serving.rpc import dumps

onto = AttentionOntology()
concept = onto.add_node(NodeType.CONCEPT, "economy cars")
names = [f"car model {i}" for i in range(24)]
for name in names:
    entity = onto.add_node(NodeType.ENTITY, name)
    onto.add_edge(concept.node_id, entity.node_id, EdgeType.ISA)
profiler = UserProfiler(onto)
for i, name in enumerate(names):
    profiler.record_read("u1", [name], weight=0.1 + i / 7)
print(dumps(profiler.recommend_tags("u1")).decode("ascii"))
print(dumps(profiler.infer("u1").top(onto, k=30)).decode("ascii"))
"""


class TestHashSeedIndependence:
    def test_replies_identical_across_hash_seeds(self):
        """``infer`` sums float weights over the observed *set*; the
        replies must not depend on the interpreter's hash seed, or
        processes disagree in the last digit (byte identity across
        workers would need PYTHONHASHSEED pinned)."""
        outputs = []
        for seed in ("1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            outputs.append(subprocess.run(
                [sys.executable, "-c", _HASH_SEED_CHILD], env=env,
                check=True, capture_output=True, text=True).stdout)
        assert outputs[0] and outputs[0] == outputs[1] == outputs[2]
