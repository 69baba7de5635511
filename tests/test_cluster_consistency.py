"""Randomized cluster-consistency harness for consistent-hash rebalancing.

The oracle (DESIGN.md §9): every serving response must be byte-identical
(``rpc.dumps``) between a single :class:`OntologyService` and the
sharded :class:`ClusterService` at the same stream version — before,
during, and after a mid-stream ring-epoch rebalance.  This is the
black-box consistency-checking discipline: the sharded system is
trustworthy exactly when reads under updates are indistinguishable from
the unsharded baseline.

Scenarios are *generated* from a seeded RNG as a *recorded op list* — a
JSON-able script of delta batches, serving probes, profile/story
traffic, and one mid-stream rebalance — then replayed.  On failure the
op list is written to ``REPRO_CONSISTENCY_ARTIFACTS`` (when set; CI
uploads it), so a failing schedule reproduces from the artifact alone
(`replay_op_list`) and shrinks by deleting ops from the JSON.

The remote crash test spawns real worker processes; the module is a
real file, so the ``spawn`` start method can re-import it safely.
"""

import json
import os
import pathlib

import pytest

from repro.apps.story_tree import EventRecord
from repro.cluster import ClusterService, HashRing, RemoteClusterService
from repro.core.ontology import AttentionOntology, EdgeType, NodeType
from repro.core.store import OntologyStore
from repro.replication import DeltaLog, PublisherThread, SnapshotCatalog
from repro.serving import OntologyService
from repro.serving.rpc import dumps
from repro.text.ner import NerTagger
from repro.text.tokenizer import tokenize

TAGGER_OPTIONS = {"coherence_threshold": 0.01, "lcs_threshold": 0.6}

_ADJS = ["solar", "lunar", "hyper", "rapid", "silent", "crimson",
         "golden", "arctic"]
_NOUNS = ["engine", "market", "festival", "league", "garden", "reactor",
          "summit", "archive"]


# ----------------------------------------------------------------------
# op-script generation (pure: same seed -> same JSON-able list)
# ----------------------------------------------------------------------
def generate_ops(seed: int, steps: int, rebalance_to: int) -> list:
    """A recorded op list: delta batches, serving probes, profile/story
    traffic, and exactly one mid-stream rebalance."""
    import random

    rng = random.Random(seed)
    ops: list = []
    concepts: list[str] = []
    entities: list[str] = []
    events: list[str] = []
    serial = 0

    def fresh_phrase(kind: str) -> str:
        nonlocal serial
        serial += 1
        return (f"{rng.choice(_ADJS)} {rng.choice(_NOUNS)} "
                f"{kind} {serial}")

    def delta_op() -> dict:
        spec = {"op": "delta", "nodes": [], "aliases": [], "edges": [],
                "payloads": []}
        concept = fresh_phrase("systems")
        spec["nodes"].append(["concept", concept,
                              {"support": rng.randrange(1, 9)}])
        concepts.append(concept)
        if rng.random() < 0.5:
            category = fresh_phrase("category")
            spec["nodes"].append(["category", category, {}])
            spec["edges"].append(["category", category,
                                  "concept", concept, "isA"])
        for _ in range(rng.randrange(1, 4)):
            entity = fresh_phrase("unit")
            spec["nodes"].append(["entity", entity, {}])
            entities.append(entity)
            spec["edges"].append(["concept", rng.choice(concepts),
                                  "entity", entity, "isA"])
        if rng.random() < 0.6:
            event = fresh_phrase("launch")
            spec["nodes"].append(["event", event, {}])
            events.append(event)
            spec["edges"].append(["event", event, "entity",
                                  rng.choice(entities), "involve"])
        if len(entities) >= 2 and rng.random() < 0.4:
            first, second = rng.sample(entities, 2)
            spec["edges"].append(["entity", first, "entity", second,
                                  "correlate"])
        if rng.random() < 0.7:
            owner_type, owner = rng.choice(
                [("concept", rng.choice(concepts)),
                 ("entity", rng.choice(entities))])
            spec["aliases"].append([owner_type, owner,
                                    fresh_phrase("alias")])
        if rng.random() < 0.3 and len(concepts) >= 2:
            # A contested alias: the same surface string claimed by two
            # different nodes, stressing the first-claim-wins merge.
            alias = fresh_phrase("shared")
            first, second = rng.sample(concepts, 2)
            spec["aliases"].append(["concept", first, alias])
            spec["aliases"].append(["concept", second, alias])
        if rng.random() < 0.5:
            spec["payloads"].append(["concept", rng.choice(concepts),
                                     {"clicks": rng.randrange(1, 99)}])
        return spec

    def serve_op() -> dict:
        sample = rng.sample(entities, min(len(entities), 3))
        title = " ".join(sample[:2]) if sample else "empty probe"
        queries = [f"best {rng.choice(concepts)}",
                   f"{rng.choice(entities)} review"]
        return {"op": "serve",
                "docs": [["doc", title,
                          [f"all about {phrase}" for phrase in sample]]],
                "queries": queries,
                "probe_concept": rng.choice(concepts)}

    def profile_op() -> dict:
        return {"op": "profile", "user": f"u{rng.randrange(3)}",
                "tags": rng.sample(concepts + entities,
                                   min(2, len(concepts) + len(entities))),
                "k": 3}

    def story_op() -> dict:
        phrase = events[-1] if events else "quiet day"
        return {"op": "story",
                "events": [[phrase, "launch",
                            rng.sample(entities,
                                       min(2, len(entities))), day]
                           for day in range(2)],
                "read": phrase, "limit": 3}

    ops.append(delta_op())  # never start empty
    rebalance_at = rng.randrange(1, steps)
    for step in range(1, steps):
        if step == rebalance_at:
            ops.append({"op": "rebalance", "num_shards": rebalance_to})
            ops.append(serve_op())  # always probe right after the flip
            continue
        kind = rng.choice(["delta", "delta", "serve", "profile", "story"])
        ops.append({"delta": delta_op, "serve": serve_op,
                    "profile": profile_op, "story": story_op}[kind]())
    ops.append(serve_op())  # and at the very end
    return ops


# ----------------------------------------------------------------------
# replay: execute an op list against single store + cluster, asserting
# byte-identity of every serving response
# ----------------------------------------------------------------------
_TYPES = {"category": NodeType.CATEGORY, "concept": NodeType.CONCEPT,
          "entity": NodeType.ENTITY, "event": NodeType.EVENT,
          "topic": NodeType.TOPIC}
_EDGES = {"isA": EdgeType.ISA, "involve": EdgeType.INVOLVE,
          "correlate": EdgeType.CORRELATE}


class _Replay:
    """One scenario's live state: the producer (oracle recorder), the
    single-store service, the cluster under test, and the recorded
    delta stream (including ring records) for the replay checks."""

    def __init__(self, start_shards: int) -> None:
        self.producer = AttentionOntology()
        self.ner = NerTagger()
        self.single = OntologyService(self.producer, ner=self.ner,
                                      tagger_options=TAGGER_OPTIONS)
        self.cluster = ClusterService(num_shards=start_shards, ner=self.ner,
                                      tagger_options=TAGGER_OPTIONS)
        self.recorded = []

    # -- op handlers ---------------------------------------------------
    def _find(self, type_name: str, phrase: str):
        node = self.producer.find(_TYPES[type_name], phrase)
        assert node is not None, f"script references unknown {phrase!r}"
        return node

    def apply_delta(self, spec: dict) -> None:
        self.producer.begin_delta("script")
        for type_name, phrase, payload in spec["nodes"]:
            self.producer.add_node(_TYPES[type_name], phrase,
                                   payload=payload or None)
            if type_name == "entity":
                self.ner.register(phrase, "MISC")
        for src_t, src, dst_t, dst, edge in spec["edges"]:
            self.producer.add_edge(self._find(src_t, src).node_id,
                                   self._find(dst_t, dst).node_id,
                                   _EDGES[edge])
        for type_name, phrase, alias in spec["aliases"]:
            self.producer.add_alias(self._find(type_name, phrase).node_id,
                                    alias)
        for type_name, phrase, payload in spec["payloads"]:
            self.producer.update_payload(
                self._find(type_name, phrase).node_id, payload)
        delta = self.producer.commit_delta()
        self.recorded.append(delta)
        self.single.refresh([delta])
        self.cluster.refresh([delta])

    def rebalance(self, num_shards: int) -> None:
        before = len(self.producer.store)
        delta = self.cluster.rebalance(num_shards)
        self.recorded.append(delta)
        self.single.refresh([delta])
        moved = self.cluster.last_rebalance["moved_nodes"]
        # The consistent-hash guarantee: strictly fewer node records
        # move than a full re-route from version 0 would touch.
        assert moved < before, (moved, before)
        assert self.cluster.num_shards == num_shards
        assert self.cluster.version == self.producer.store.version

    def serve(self, spec: dict) -> None:
        docs = [(doc_id, tokenize(title), [tokenize(s) for s in sentences])
                for doc_id, title, sentences in spec["docs"]]
        probe = self._find("concept", spec["probe_concept"])
        for label, call in [
            ("tag", lambda s: s.tag_documents(docs)),
            ("query", lambda s: s.interpret_queries(spec["queries"])),
            ("neighborhood",
             lambda s: s.neighborhood(probe.node_id, depth=2)),
            ("stats", lambda s: s.stats()["ontology"]),
        ]:
            assert dumps(call(self.single)) == dumps(call(self.cluster)), \
                f"{label} diverged at version {self.cluster.version}"

    def profile(self, spec: dict) -> None:
        self.single.record_read(spec["user"], spec["tags"])
        self.cluster.record_read(spec["user"], spec["tags"])
        for label, call in [
            ("interests",
             lambda s: s.user_interests(spec["user"], k=spec["k"])),
            ("recsys",
             lambda s: s.recommend_for_user(spec["user"], k=spec["k"])),
        ]:
            assert dumps(call(self.single)) == dumps(call(self.cluster)), \
                f"{label} diverged at version {self.cluster.version}"

    def story(self, spec: dict) -> None:
        events = [EventRecord(phrase=phrase, trigger=trigger,
                              entities=list(entities), day=day)
                  for phrase, trigger, entities, day in spec["events"]]
        assert self.single.track_events(events) == \
            self.cluster.track_events(events)
        assert dumps(self.single.follow_ups(spec["read"],
                                            limit=spec["limit"])) == \
            dumps(self.cluster.follow_ups(spec["read"],
                                          limit=spec["limit"]))

    # -- coherence of replay and bootstrap ------------------------------
    def check_replay_and_bootstrap(self, start_shards: int,
                                   spec: dict) -> None:
        """A fresh cluster replaying the recorded stream (including the
        ring record) and one bootstrapped from a compacted snapshot must
        both serve byte-identically to the single store."""
        docs = [(doc_id, tokenize(title), [tokenize(s) for s in sentences])
                for doc_id, title, sentences in spec["docs"]]
        fresh = ClusterService(num_shards=start_shards, ner=self.ner,
                               tagger_options=TAGGER_OPTIONS,
                               deltas=self.recorded)
        assert fresh.num_shards == self.cluster.num_shards
        booted = ClusterService(
            num_shards=start_shards, ner=self.ner,
            tagger_options=TAGGER_OPTIONS,
            ontology=OntologyStore.bootstrap(self.producer.store.compact()))
        assert booted.num_shards == self.cluster.num_shards
        for service in (fresh, booted):
            assert dumps(service.tag_documents(docs)) == \
                dumps(self.single.tag_documents(docs))
            assert dumps(service.interpret_queries(spec["queries"])) == \
                dumps(self.single.interpret_queries(spec["queries"]))
            assert dumps(service.stats()["ontology"]) == \
                dumps(self.single.stats()["ontology"])


def replay_op_list(ops: list, start_shards: int) -> _Replay:
    """Replay a recorded op list (the shrinkable failure artifact) —
    asserts serving byte-identity at every probe."""
    replay = _Replay(start_shards)
    last_serve = None
    for spec in ops:
        kind = spec["op"]
        if kind == "delta":
            replay.apply_delta(spec)
        elif kind == "rebalance":
            replay.rebalance(spec["num_shards"])
        elif kind == "serve":
            replay.serve(spec)
            last_serve = spec
        elif kind == "profile":
            replay.profile(spec)
        elif kind == "story":
            replay.story(spec)
        else:  # pragma: no cover - scripts are generated
            raise AssertionError(f"unknown scripted op {kind!r}")
    if last_serve is not None:
        replay.check_replay_and_bootstrap(start_shards, last_serve)
    return replay


def _artifact_dir() -> "pathlib.Path | None":
    root = os.environ.get("REPRO_CONSISTENCY_ARTIFACTS")
    if not root:
        return None
    path = pathlib.Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _run_scenario(seed: int, steps: int, start_shards: int,
                  rebalance_to: int) -> None:
    ops = generate_ops(seed, steps, rebalance_to)
    try:
        replay_op_list(ops, start_shards)
    except AssertionError:
        artifacts = _artifact_dir()
        if artifacts is not None:
            name = f"oplist-seed{seed}-s{start_shards}-to{rebalance_to}.json"
            (artifacts / name).write_text(json.dumps(
                {"seed": seed, "start_shards": start_shards,
                 "rebalance_to": rebalance_to, "ops": ops}, indent=1))
            raise AssertionError(
                f"consistency violation (op list recorded at "
                f"{artifacts / name}; replay with "
                f"replay_op_list(ops, {start_shards}))")
        raise


# ----------------------------------------------------------------------
# the ring itself
# ----------------------------------------------------------------------
class TestHashRing:
    def test_deterministic_across_instances(self):
        first, second = HashRing(5), HashRing(5)
        keys = [f"concept::thing {i}" for i in range(200)]
        assert [first.shard_of_key(k) for k in keys] == \
            [second.shard_of_key(k) for k in keys]

    def test_growth_moves_keys_only_to_new_shards(self):
        """The consistent-hashing contract: growing N -> M strands no
        key between old shards — every moved key lands on a new one."""
        old, new = HashRing(2), HashRing(4, epoch=1)
        keys = [f"entity::item {i}" for i in range(800)]
        moved = [(old.shard_of_key(k), new.shard_of_key(k))
                 for k in keys if old.shard_of_key(k) != new.shard_of_key(k)]
        assert moved, "growth should move some keys"
        assert all(dst >= 2 for _src, dst in moved)
        # ... and far fewer than a full re-route of all keys.
        assert len(moved) < len(keys)

    def test_spread_covers_all_shards(self):
        ring = HashRing(5)
        owners = {ring.shard_of_key(f"concept::key {i}") for i in range(500)}
        assert owners == set(range(5))


# ----------------------------------------------------------------------
# the randomized consistency harness
# ----------------------------------------------------------------------
class TestRandomizedConsistency:
    # Start shard counts {1, 2, 3, 5} with a mid-stream rebalance each —
    # growth, shrink, and the degenerate 1-shard cluster all covered.
    @pytest.mark.parametrize("start_shards,rebalance_to,seed", [
        (1, 3, 0), (1, 3, 1),
        (2, 4, 0), (2, 4, 1),
        (3, 5, 0), (3, 5, 1),
        (5, 2, 0), (5, 2, 1),
    ])
    def test_random_interleaving_stays_byte_identical(
            self, start_shards, rebalance_to, seed):
        _run_scenario(seed=seed, steps=8, start_shards=start_shards,
                      rebalance_to=rebalance_to)

    def test_op_list_round_trips_through_json(self):
        """The failure artifact is self-sufficient: an op list serialized
        to JSON and reloaded replays identically (shrink a failing case
        by deleting ops from the file)."""
        ops = generate_ops(seed=7, steps=6, rebalance_to=3)
        reloaded = json.loads(json.dumps(ops))
        assert reloaded == ops
        replay_op_list(reloaded, start_shards=2)

    def test_rebalance_2_to_4_moves_fewer_records_than_full_reroute(self):
        """Acceptance gate: growing 2 -> 4 relocates strictly fewer node
        records than re-routing the stream from version 0 (which touches
        every node record), and some records do move."""
        ops = [spec for spec in generate_ops(seed=3, steps=10,
                                             rebalance_to=4)
               if spec["op"] == "delta"]
        replay = _Replay(start_shards=2)
        for spec in ops:
            replay.apply_delta(spec)
        total = len(replay.producer.store)
        delta = replay.cluster.rebalance(4)
        replay.single.refresh([delta])
        moved = replay.cluster.last_rebalance["moved_nodes"]
        assert 0 < moved < total
        # The routed stream agrees: every record is still served.
        assert dumps(replay.single.stats()["ontology"]) == \
            dumps(replay.cluster.stats()["ontology"])


# ----------------------------------------------------------------------
# crash recovery: a worker killed mid-rebalance re-bootstraps from
# snapshot + tail into the new ring epoch
# ----------------------------------------------------------------------
@pytest.fixture
def log_dir(tmp_path, request):
    """Log directory — under REPRO_CONSISTENCY_ARTIFACTS when set, so a
    failing CI run uploads the on-disk state that broke."""
    root = os.environ.get("REPRO_CONSISTENCY_ARTIFACTS")
    if root:
        path = pathlib.Path(root) / request.node.name.replace("/", "_")
        path.mkdir(parents=True, exist_ok=True)
        return path
    return tmp_path / "log"


def _resize(remote, num_shards, publish, chunked: bool):
    """One remote resize, driven in one call or — the same protocol by
    hand — as begin/step/finish with single-node chunks."""
    if not chunked:
        return remote.rebalance(num_shards, publish=publish)
    pending = remote.begin_rebalance(num_shards, publish=publish,
                                     chunk_nodes=1)
    assert pending > 0 and remote.rebalance_staged
    while pending:
        pending = remote.rebalance_step()
    return remote.finish_rebalance()


def _resize_outcome(remote, replies) -> tuple:
    """What one-shot and chunked drives of the same resize must agree
    on: reply bytes, per-shard describe() lines, transfer accounting
    (``transfer_chunks`` is the one counter that names the drive)."""
    counters = dict(remote.last_rebalance)
    chunks = counters.pop("transfer_chunks")
    assert chunks == remote.stats()["last_rebalance"]["transfer_chunks"]
    return (dumps(replies),
            [replica.describe() for replica in remote.replicas], counters)


class TestRemoteRebalanceCrashRecovery:
    def _seed_log(self, log_dir):
        producer = AttentionOntology()
        producer.begin_delta("build")
        concept = producer.add_node(NodeType.CONCEPT, "marvel movies")
        for name in ("iron man", "thor", "hulk", "black widow", "wasp"):
            entity = producer.add_node(NodeType.ENTITY, name)
            producer.add_edge(concept.node_id, entity.node_id, EdgeType.ISA)
        producer.add_alias(concept.node_id, "mcu films")
        delta = producer.commit_delta()
        log = DeltaLog(log_dir, segment_max_bytes=512)
        log.append(delta)
        catalog = SnapshotCatalog(log, compact_bytes=1, retain_segments=0)
        catalog.record(OntologyStore.bootstrap(None, [delta]))
        ner = NerTagger()
        for name in ("iron man", "thor", "hulk", "black widow", "wasp"):
            ner.register(name, "WORK")
        return producer, log, catalog, ner

    def test_worker_killed_mid_rebalance_rejoins_new_epoch(self, log_dir):
        """Kill a shard worker, then rebalance 2 -> 3: the ring record
        is already published when the dead worker is discovered, so its
        replacement must re-bootstrap from snapshot + tail *across* the
        flip — landing in the new epoch with no delta gap — while the
        cluster stays byte-identical to the single store.  Driven
        one-shot and chunked; both must land in the same state."""
        queries = ["best marvel movies", "thor review"]
        outcomes = []
        for chunked in (False, True):
            producer, log, catalog, ner = self._seed_log(
                log_dir / ("chunked" if chunked else "one_shot"))
            single = OntologyService(producer, ner=ner,
                                     tagger_options=TAGGER_OPTIONS)
            with PublisherThread(log, catalog) as publisher:
                with RemoteClusterService(publisher.address, num_shards=2,
                                          ner=ner,
                                          tagger_options=TAGGER_OPTIONS
                                          ) as remote:
                    remote.terminate_worker(1)
                    delta = _resize(remote, 3, publisher.publish, chunked)
                    single.refresh([delta])
                    # The corpse was found and re-bootstrapped
                    # mid-rebalance.
                    assert remote.last_rebalance["recovered_shards"] == [1]
                    assert remote.num_shards == 3
                    assert remote.version == producer.store.version
                    # Every worker (revived, surviving, and newly
                    # seeded) serves the new epoch...
                    syncs = [replica.sync(remote.version)
                             for replica in remote.replicas]
                    assert [line["epoch"] for line in syncs] == [1, 1, 1]
                    # ...the revival came from snapshot + tail, not a
                    # gap (a gap would surface as recovered=True on
                    # re-sync).
                    assert all(not line["recovered"] for line in syncs)
                    # ...and the cluster is still byte-identical.
                    replies = remote.interpret_queries(queries)
                    assert dumps(single.interpret_queries(queries)) == \
                        dumps(replies)
                    assert dumps(single.stats()["ontology"]) == \
                        dumps(remote.stats()["ontology"])
                    outcomes.append(_resize_outcome(remote, replies))
        assert outcomes[0] == outcomes[1]

    def test_rebalance_syncs_lagging_workers_before_slicing(self, log_dir):
        """Regression (review finding): a rebalance must bring every
        worker to the log head *before* extracting transfer slices —
        otherwise a delta published since the last sync is missing from
        the slice, and the seeded shard serves stale state forever.
        Driven one-shot and chunked; both must land in the same state."""
        queries = ["best marvel movies", "iron man review"]
        outcomes = []
        for chunked in (False, True):
            producer, log, catalog, ner = self._seed_log(
                log_dir / ("chunked" if chunked else "one_shot"))
            single = OntologyService(producer, ner=ner,
                                     tagger_options=TAGGER_OPTIONS)
            with PublisherThread(log, catalog) as publisher:
                with RemoteClusterService(publisher.address, num_shards=2,
                                          ner=ner,
                                          tagger_options=TAGGER_OPTIONS
                                          ) as remote:
                    # Publish payload updates to *every* node (whichever
                    # ones move, their latest state is post-update)
                    # without syncing the cluster...
                    producer.begin_delta("late")
                    for node in list(producer.nodes()):
                        producer.update_payload(node.node_id, {"late": 1})
                    late = producer.commit_delta()
                    publisher.publish([late])
                    single.refresh([late])
                    assert remote.version < producer.store.version  # lagging
                    # ...then rebalance straight away: slices must
                    # reflect the late delta, not the workers' stale
                    # replicas.
                    delta = _resize(remote, 4, publisher.publish, chunked)
                    single.refresh([delta])
                    assert remote.version == producer.store.version
                    replies = remote.interpret_queries(queries)
                    assert dumps(single.interpret_queries(queries)) == \
                        dumps(replies)
                    moved = [node_id for node_id in remote.router._owner
                             if remote.router.owner_of(node_id) >= 2]
                    assert moved, "growth to 4 shards should move some nodes"
                    for node_id in moved:
                        assert remote.ontology.store.node(
                            node_id).payload.get("late") == 1, \
                            f"moved node {node_id} lost the late " \
                            "payload update"
                    outcomes.append(_resize_outcome(remote, replies))
        assert outcomes[0] == outcomes[1]

    def test_worker_killed_after_rebalance_restarts_into_epoch(self,
                                                               log_dir):
        """A crash after a completed rebalance: restart_shard respawns
        the worker, which bootstraps from snapshot + tail directly into
        the rebalanced ring epoch."""
        producer, log, catalog, ner = self._seed_log(log_dir)
        single = OntologyService(producer, ner=ner,
                                 tagger_options=TAGGER_OPTIONS)
        queries = ["best marvel movies", "hulk review"]
        with PublisherThread(log, catalog) as publisher:
            with RemoteClusterService(publisher.address, num_shards=2,
                                      ner=ner,
                                      tagger_options=TAGGER_OPTIONS
                                      ) as remote:
                delta = remote.rebalance(4, publish=publisher.publish)
                single.refresh([delta])
                remote.terminate_worker(2)
                line = remote.restart_shard(2)
                assert line["shard"] == 2
                synced = remote.replicas[2].sync(remote.version)
                assert synced["epoch"] == 1
                assert not synced["recovered"]
                assert dumps(single.interpret_queries(queries)) == \
                    dumps(remote.interpret_queries(queries))
                assert dumps(single.stats()["ontology"]) == \
                    dumps(remote.stats()["ontology"])
