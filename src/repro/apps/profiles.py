"""User interest profiles over the Attention Ontology.

Paper Figure 2 (application component): "we can also integrate different
nodes to user profiles to characterize the interest of different users
based on his/her historical viewing behavior", and Section 2: "a plethora
of edges enables the inference of more hidden interests of a user beyond
the content he/she has browsed by moving along the edges ... and
recommending other related nodes at a coarser or finer granularity".

:class:`UserProfiler` consumes a user's reading history (documents already
tagged with ontology nodes), accumulates decayed tag weights, and *expands*
the profile along ontology edges:

* isA parents (entity -> concept, concept -> category): coarser interests;
* isA children (concept -> entities, topic -> events): finer interests;
* correlate neighbours: lateral interests.

Expansion weights are discounted so observed tags dominate inferred ones.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from ..core.ontology import AttentionOntology, EdgeType, NodeType


@dataclass
class InterestProfile:
    """A user's ranked interests, observed and inferred."""

    user_id: str
    weights: dict[str, float] = field(default_factory=dict)  # node_id -> weight
    observed: set[str] = field(default_factory=set)

    def top(self, ontology: AttentionOntology, k: int = 10,
            node_type: "NodeType | None" = None) -> list[tuple[str, float]]:
        """Top-k (phrase, weight) interests, optionally filtered by type."""
        items = []
        for node_id, weight in self.weights.items():
            node = ontology.node(node_id)
            if node_type is None or node.node_type == node_type:
                items.append((node.phrase, weight))
        items.sort(key=lambda pw: (-pw[1], pw[0]))
        return items[:k]


class UserProfiler:
    """Builds and updates interest profiles from tagged reading history."""

    def __init__(self, ontology: AttentionOntology,
                 decay: float = 0.9,
                 parent_discount: float = 0.5,
                 child_discount: float = 0.3,
                 correlate_discount: float = 0.4) -> None:
        """
        Args:
            ontology: the attention ontology.
            decay: multiplicative decay applied to existing weights per
                update (older reads matter less).
            parent_discount: weight share propagated to isA parents.
            child_discount: weight share propagated to isA children.
            correlate_discount: weight share propagated along correlate
                edges.
        """
        self._ontology = ontology
        self._decay = decay
        self._parent_discount = parent_discount
        self._child_discount = child_discount
        self._correlate_discount = correlate_discount
        self._profiles: dict[str, InterestProfile] = {}

    def profile(self, user_id: str) -> InterestProfile:
        if user_id not in self._profiles:
            self._profiles[user_id] = InterestProfile(user_id)
        return self._profiles[user_id]

    def users(self) -> list[str]:
        """Ids of every user with a profile, in first-seen order (the
        maintained interests view enumerates these when rehydrating)."""
        return list(self._profiles)

    # ------------------------------------------------------------------
    def _resolve(self, phrase: str) -> "str | None":
        for node_type in (NodeType.CONCEPT, NodeType.EVENT, NodeType.TOPIC,
                          NodeType.ENTITY, NodeType.CATEGORY):
            node = self._ontology.find(node_type, phrase)
            if node is not None:
                return node.node_id
        return None

    def record_read(self, user_id: str, tags: "list[str]",
                    weight: float = 1.0) -> InterestProfile:
        """Update a profile with the tags of one read document."""
        profile = self.profile(user_id)
        for node_id in list(profile.weights):
            profile.weights[node_id] *= self._decay
        for phrase in tags:
            node_id = self._resolve(phrase)
            if node_id is None:
                continue
            profile.weights[node_id] = profile.weights.get(node_id, 0.0) + weight
            profile.observed.add(node_id)
        return profile

    # ------------------------------------------------------------------
    def infer(self, user_id: str, hops: int = 1) -> InterestProfile:
        """Expand a profile along ontology edges (hidden interests).

        Inferred weights never overwrite observed ones; repeated expansion
        is idempotent on structure (weights recomputed from observations).
        """
        profile = self.profile(user_id)
        onto = self._ontology
        inferred: dict[str, float] = defaultdict(float)
        # Sorted: float sums below follow frontier order, and set order
        # differs between processes with different hash seeds.
        frontier = {nid: profile.weights[nid]
                    for nid in sorted(profile.observed)
                    if nid in profile.weights}
        for _hop in range(hops):
            next_frontier: dict[str, float] = defaultdict(float)
            for node_id, weight in frontier.items():
                for parent in onto.predecessors(node_id, EdgeType.ISA):
                    next_frontier[parent.node_id] += weight * self._parent_discount
                for child in onto.successors(node_id, EdgeType.ISA):
                    next_frontier[child.node_id] += weight * self._child_discount
                for peer in onto.successors(node_id, EdgeType.CORRELATE):
                    next_frontier[peer.node_id] += weight * self._correlate_discount
            for node_id, weight in next_frontier.items():
                inferred[node_id] += weight
            frontier = dict(next_frontier)

        for node_id, weight in inferred.items():
            if node_id not in profile.observed:
                profile.weights[node_id] = max(
                    profile.weights.get(node_id, 0.0), weight
                )
        return profile

    # ------------------------------------------------------------------
    def recommend_tags(self, user_id: str, k: int = 5,
                       exclude_observed: bool = True) -> list[tuple[str, float]]:
        """Ranked *inferred* tags — the extrapolation the paper motivates
        (read about "honda civic", get "economy cars")."""
        profile = self.infer(user_id)
        items = []
        for node_id, weight in profile.weights.items():
            if exclude_observed and node_id in profile.observed:
                continue
            items.append((self._ontology.node(node_id).phrase, weight))
        items.sort(key=lambda pw: (-pw[1], pw[0]))
        return items[:k]
