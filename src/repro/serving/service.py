"""OntologyService: the online serving facade over an OntologyStore.

The production GIANT system serves two heavy-traffic workloads against the
ontology — tagging ~1.5M documents/day and interpreting user queries — via
RPC services backed by the MySQL store.  This module is the reproduction's
equivalent: a process-local service that

* answers **batched** ``tag_documents()`` / ``interpret_queries()``
  requests with taggers whose candidate generation reads a **maintained
  posting view** (no full node scans, no per-version cache misses);
* serves its four hot read paths — tag postings, ``user_interests``,
  ``recommend_for_user``, story ``follow_ups`` — from **incrementally
  maintained views** (DESIGN.md §13): a :class:`~repro.views.ViewCatalog`
  folds every applied :class:`~repro.core.store.OntologyDelta` (lowered
  to per-relation Z-sets) into the registered views, so ``refresh()``
  cost is proportional to the delta, not to cache churn;
* keeps the version-keyed LRU only for truly **ad-hoc** graph queries
  (neighborhood expansion, concept-of-entity lookups), and purges
  superseded-version entries eagerly on every applied delta;
* **refreshes incrementally** from pipeline-emitted delta batches — a
  serving replica replays the day's deltas instead of rebuilding or
  reloading a full snapshot.  The view catalog keeps its *own* version
  line: a delta that skips the store (already applied there) still
  folds into the views, a gap marks the catalog stale, and a stale or
  out-of-sync catalog rehydrates from the store at the next view-backed
  read — so out-of-band store mutations degrade to a rebuild, never to
  wrong answers.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from ..apps.profiles import InterestProfile, UserProfiler
from ..apps.query import QueryAnalysis, QueryUnderstander
from ..apps.story_tracker import StoryTracker
from ..apps.tagging import DocumentTagger, TaggedDocument
from ..core.ontology import AttentionOntology, NodeType
from ..core.store import EdgeType, OntologyDelta, OntologyStore
from ..core.zsets import delta_to_zsets
from ..errors import ReproError
from ..obs.metrics import MetricsRegistry, get_registry
from ..views import (
    PostingsStoreAdapter,
    StoryFollowUpsView,
    TokenPostingsView,
    UserInterestsView,
    ViewCatalog,
)
from .cache import LruCache

#: LRU key tags that remain version-keyed (the ad-hoc query cache);
#: entries from superseded versions are purged eagerly on refresh.
_VERSIONED_CACHE_TAGS = ("nbhd", "coe")


class OntologyService:
    """Batched online access to one ontology replica.

    Args:
        ontology: the :class:`AttentionOntology` façade (or a bare
            :class:`OntologyStore`) this replica serves.
        ner: gazetteer NER used by document tagging; ``tag_documents``
            raises without it, query interpretation works regardless.
        duet: optional Duet semantic matcher forwarded to the tagger.
        tagger_options: extra :class:`DocumentTagger` keyword arguments
            (thresholds).
        max_rewrites / max_recommendations: query-understanding caps.
        cache_size: LRU capacity for neighborhood/concept caches.
        profiler_options: :class:`UserProfiler` keyword arguments
            (decay/discounts).
        tracker_options: :class:`StoryTracker` keyword arguments.
        registry: metrics registry holding this replica's ``serving``
            scope (counters, latency histograms, and the cache's child
            scope); defaults to the process registry.
    """

    def __init__(self, ontology: "AttentionOntology | OntologyStore",
                 ner=None, duet=None,
                 tagger_options: "dict[str, Any] | None" = None,
                 max_rewrites: int = 5, max_recommendations: int = 5,
                 cache_size: int = 4096,
                 profiler_options: "dict[str, Any] | None" = None,
                 tracker_options: "dict[str, Any] | None" = None,
                 registry: "MetricsRegistry | None" = None) -> None:
        if isinstance(ontology, OntologyStore):
            ontology = AttentionOntology(store=ontology)
        self._ontology = ontology
        self._store = ontology.store
        self._ner = ner
        self._duet = duet
        self._tagger_options = dict(tagger_options or {})
        self._max_rewrites = max_rewrites
        self._max_recommendations = max_recommendations
        registry = registry if registry is not None else get_registry()
        self._metrics = registry.scope("serving")
        self._cache = LruCache(cache_size,
                               metrics=self._metrics.scope("cache"))
        self._tagger: "DocumentTagger | None" = None
        self._understander: "QueryUnderstander | None" = None
        self._built_version = -1
        self._documents_tagged = self._metrics.counter("documents_tagged")
        self._queries_interpreted = \
            self._metrics.counter("queries_interpreted")
        self._deltas_applied = self._metrics.counter("deltas_applied")
        self._profiler_options = dict(profiler_options or {})
        self._tracker_options = dict(tracker_options or {})
        self._profiler: "UserProfiler | None" = None
        self._tracker: "StoryTracker | None" = None
        self._profile_revisions: dict[str, int] = {}
        self._events_tracked = self._metrics.counter("events_tracked")

        # Maintained views (DESIGN.md §13).  The catalog is fed by
        # fold_views() on every refresh; reads go through _sync_views()
        # so a stale catalog (gap, or out-of-band store mutation)
        # rehydrates before serving.
        self._views = ViewCatalog(metrics=self._metrics.scope("views"))
        self._interests = self._views.register(
            "interests", UserInterestsView(self._get_profiler,
                                           self._ontology))
        self._followups = self._views.register(
            "story_follow_ups", StoryFollowUpsView(lambda: self._tracker))
        if isinstance(self._store, OntologyStore):
            # Single-replica serving: posting lookups come from a local
            # maintained view spliced under the tagger via an adapter.
            self._postings = self._views.register(
                "tag_postings", TokenPostingsView(self._store))
            self._tagger_ontology = AttentionOntology(
                store=PostingsStoreAdapter(self._store, self._postings))
        else:
            # Cluster serving: the store is a scatter-gather view whose
            # shards each maintain their own posting fragment
            # (ShardReplica.views); nothing to materialize here.
            self._postings = None
            self._tagger_ontology = self._ontology
        self._views.rehydrate(self._store.version, count=False)

    # ------------------------------------------------------------------
    # replica state
    # ------------------------------------------------------------------
    @property
    def ontology(self) -> AttentionOntology:
        return self._ontology

    @property
    def version(self) -> int:
        """Store version this replica currently serves."""
        return self._store.version

    def refresh(self, deltas: "Iterable[OntologyDelta]") -> int:
        """Apply pipeline update batches; returns how many were applied.

        Each delta is either fully applied, skipped as already applied,
        or cleanly rejected with :class:`~repro.errors.DeltaGapError`
        (the contract of :meth:`OntologyStore.apply`) — contiguous
        prefixes applied earlier in the same call remain valid and the
        missing range can be re-delivered.
        """
        return sum(self.apply(delta) for delta in deltas)

    def apply(self, delta: OntologyDelta) -> bool:
        """Advance this tier by one delta — with :attr:`version`, the
        replica protocol a :class:`~repro.replication.follower.
        LogFollower` feeds.  Returns whether the backing state took it."""
        applied = self._advance(delta)
        if applied:
            self._deltas_applied.inc()
        # Fold even skipped deltas: the catalog keeps its own version
        # line (a shared-store deployment may have applied the delta to
        # the store out-of-band already).
        self.fold_views(delta)
        return applied

    def _advance(self, delta: OntologyDelta) -> bool:
        """The per-tier half of :meth:`apply`: move the backing state
        (here the store; a sharded front moves its shard set)."""
        return self._store.apply(delta)

    # ------------------------------------------------------------------
    # maintained views
    # ------------------------------------------------------------------
    @property
    def views(self) -> ViewCatalog:
        """This replica's maintained-view catalog."""
        return self._views

    def fold_views(self, delta: OntologyDelta) -> str:
        """Advance the view catalog by one delta (refresh = "apply the
        delta to the catalog", not "bump the version and let caches
        miss").

        Gated on the *catalog's* version line: a delta at or behind it
        is skipped, a contiguous one is lowered to per-relation Z-sets
        and folded into every view in one pass, and a gap marks the
        catalog stale (repaired by rehydration at the next view read).
        Returns ``"applied"`` / ``"skipped"`` / ``"stale"``.
        """
        if delta.version <= self._views.version:
            return "skipped"
        if delta.base_version != self._views.version:
            self._views.mark_stale()
            return "stale"
        self._views.advance(delta_to_zsets(delta), version=delta.version)
        self._purge_superseded()
        return "applied"

    def _sync_views(self) -> None:
        """Repair the catalog before a view-backed read if it missed
        anything: a marked gap, or a store version the fold stream never
        delivered (out-of-band mutation)."""
        if self._views.stale or self._views.version != self._store.version:
            self._views.rehydrate(self._store.version)

    def _purge_superseded(self) -> None:
        """Eagerly drop ad-hoc cache entries keyed to older versions."""
        version = self._store.version
        self._cache.purge(
            lambda key: key[1] == version
            if isinstance(key, tuple) and len(key) > 1
            and key[0] in _VERSIONED_CACHE_TAGS else True)

    def _ensure_current(self) -> None:
        """(Re)build version-bound helpers after any store change."""
        if self._built_version == self._store.version:
            return
        self._understander = QueryUnderstander(
            self._ontology, max_rewrites=self._max_rewrites,
            max_recommendations=self._max_recommendations,
        )
        self._tagger = None  # rebuilt lazily; needs the NER gazetteer
        self._built_version = self._store.version

    def _get_tagger(self) -> DocumentTagger:
        self._sync_views()
        self._ensure_current()
        if self._tagger is None:
            if self._ner is None:
                raise ReproError(
                    "OntologyService needs a NER tagger to tag documents"
                )
            # The tagger's candidate generation reads posting lists off
            # the maintained view (via the adapter ontology) instead of
            # re-filtering the store per version.
            self._tagger = DocumentTagger(self._tagger_ontology, self._ner,
                                          duet=self._duet,
                                          **self._tagger_options)
        return self._tagger

    # ------------------------------------------------------------------
    # batched serving APIs
    # ------------------------------------------------------------------
    def tag_documents(self, documents: Sequence) -> list[TaggedDocument]:
        """Tag a batch of documents.

        Each item is either an object with ``doc_id`` / ``title_tokens`` /
        ``sentences`` attributes (e.g. the synth corpus documents) or a
        ``(doc_id, title_tokens, sentences)`` tuple.
        """
        tagger = self._get_tagger()
        out: list[TaggedDocument] = []
        with self._metrics.time("tag_seconds"):
            for doc in documents:
                if isinstance(doc, tuple):
                    doc_id, title_tokens, sentences = doc
                else:
                    doc_id, title_tokens, sentences = (
                        doc.doc_id, doc.title_tokens, doc.sentences
                    )
                out.append(tagger.tag(doc_id, title_tokens, sentences))
        self._documents_tagged.inc(len(out))
        return out

    def interpret_queries(self, queries: Sequence[str]) -> list[QueryAnalysis]:
        """Analyze a batch of raw query strings."""
        self._ensure_current()
        with self._metrics.time("query_seconds"):
            out = [self._understander.analyze(query) for query in queries]
        self._queries_interpreted.inc(len(out))
        return out

    # ------------------------------------------------------------------
    # cached graph expansion
    # ------------------------------------------------------------------
    def neighborhood(self, node_id: str, depth: int = 1,
                     edge_type: "EdgeType | None" = None) -> tuple[str, ...]:
        """Node ids reachable from ``node_id`` within ``depth`` hops
        (undirected over ``edge_type``, or all edge types when ``None``);
        LRU-cached per store version."""
        key = ("nbhd", self._store.version, node_id, depth,
               edge_type.value if edge_type is not None else None)
        return self._cache.get_or_compute(
            key, lambda: self._expand(node_id, depth, edge_type),
            endpoint="neighborhood",
        )

    def _expand(self, node_id: str, depth: int,
                edge_type: "EdgeType | None") -> tuple[str, ...]:
        store = self._store
        frontier = {node_id}
        visited = {node_id}
        for _hop in range(depth):
            nxt: set[str] = set()
            for current in frontier:
                for node in store.successors(current, edge_type):
                    if node.node_id not in visited:
                        nxt.add(node.node_id)
                for node in store.predecessors(current, edge_type):
                    if node.node_id not in visited:
                        nxt.add(node.node_id)
            visited.update(nxt)
            frontier = nxt
            if not frontier:
                break
        visited.discard(node_id)
        return tuple(sorted(visited))

    def concepts_of_entity(self, entity_phrase: str) -> tuple[str, ...]:
        """Concept phrases whose isA instances include the entity; cached."""
        key = ("coe", self._store.version, entity_phrase)
        return self._cache.get_or_compute(
            key,
            lambda: tuple(sorted(
                c.phrase
                for c in self._ontology.concepts_of_entity(entity_phrase)
            )),
            endpoint="concepts_of_entity",
        )

    # ------------------------------------------------------------------
    # user-profile endpoints (paper Figure 2 application component)
    # ------------------------------------------------------------------
    def _get_profiler(self) -> UserProfiler:
        if self._profiler is None:
            self._profiler = UserProfiler(self._ontology,
                                          **self._profiler_options)
        return self._profiler

    def record_read(self, user_id: str, tags: "list[str]",
                    weight: float = 1.0) -> InterestProfile:
        """Fold one read document's tags into a user's interest profile.

        Bumps the user's profile revision, so cached recommendation /
        interest entries for that user invalidate themselves.
        """
        self._sync_views()
        profile = self._get_profiler().record_read(user_id, tags,
                                                   weight=weight)
        self._profile_revisions[user_id] = (
            self._profile_revisions.get(user_id, 0) + 1)
        # The profile stream does not travel in the ontology delta log,
        # so it feeds the interests view out-of-band (timed like a fold).
        self._views.feed(
            "interests", lambda: self._interests.user_touched(user_id))
        return profile

    def user_interests(self, user_id: str, k: int = 10,
                       node_type: "NodeType | None" = None
                       ) -> tuple[tuple[str, float], ...]:
        """Top-k (phrase, weight) interests after edge expansion, read
        straight off the maintained interests view (a filtered prefix of
        the user's ranked list — no cache, no recompute)."""
        self._sync_views()
        return tuple(self._interests.interests(user_id, k=k,
                                               node_type=node_type))

    def recommend_for_user(self, user_id: str, k: int = 5
                           ) -> tuple[tuple[str, float], ...]:
        """Ranked *inferred* tags (hidden interests) for a user — the
        non-observed prefix of the same maintained ranked list that
        serves :meth:`user_interests`."""
        self._sync_views()
        return tuple(self._interests.recommendations(user_id, k=k))

    # ------------------------------------------------------------------
    # story-tracking endpoints (developing stories, paper Section 2/4)
    # ------------------------------------------------------------------
    def _get_tracker(self) -> StoryTracker:
        if self._tracker is None:
            self._tracker = StoryTracker(**self._tracker_options)
        return self._tracker

    def track_events(self, events) -> int:
        """Route a batch of event records into tracked stories; returns
        the number of stories currently tracked.  The tracker's routing
        decisions feed the follow-ups view, so follow-up reads stay a
        lookup instead of a per-revision recompute."""
        events = list(events)
        self._sync_views()
        tracker = self._get_tracker()
        assignments = tracker.add_events(events)
        self._views.feed(
            "story_follow_ups", lambda: self._followups.feed(assignments))
        self._events_tracked.inc(len(events))
        return len(tracker)

    def follow_ups(self, read_phrase: str, limit: int = 3) -> tuple:
        """Fresh unseen events in the story of a just-read event, read
        off the maintained (story, phrase) follow-up sequences."""
        self._sync_views()
        return tuple(self._followups.follow_ups(read_phrase, limit=limit))

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Serving counters plus the replica's ontology stats.

        ``stories_tracked`` is ``None`` until story tracking is first
        used and a count (possibly 0) afterwards — ``is not None``
        rather than truthiness, so an instantiated-but-empty tracker is
        distinguishable from no tracker at all.

        The counters are one scope snapshot (a single registry-lock
        acquisition), so the dict is a consistent cut — this method is
        the legacy view over the :mod:`repro.obs` registry.
        """
        snap = self._metrics.snapshot()
        return {
            "version": self._store.version,
            "documents_tagged": snap.get("documents_tagged", 0),
            "queries_interpreted": snap.get("queries_interpreted", 0),
            "deltas_applied": snap.get("deltas_applied", 0),
            "profiles": len(self._profile_revisions),
            "events_tracked": snap.get("events_tracked", 0),
            "stories_tracked": (len(self._tracker)
                                if self._tracker is not None else None),
            "cache": self._cache.stats,
            "views": self._views.stats(),
            "ontology": self._store.stats(),
        }

    @property
    def metrics(self):
        """This replica's ``serving`` registry scope."""
        return self._metrics
