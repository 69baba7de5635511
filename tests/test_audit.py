"""The online consistency auditor and its fault-injection campaign.

Covers the auditor's checks in isolation (unstamped / session-echo /
monotonic / value-divergence / read-your-writes), the crash-path fixes
the campaign flushed out — typed ``ShardUnavailableError`` recovery on
scatter reads through a dead worker's stale proxy, the all-or-nothing
``restart_shard`` swap, kill-escalated corpse reaping — the
view-rehydration path after a GC-forced parent re-bootstrap, the full
seeded campaign (every fault kind plus one mid-traffic chunked
rebalance, zero violations expected), and the negative control: a
deliberately stale-reading backend rig must be *caught*, with a
shrinkable artifact naming the violating session.

Worker processes are spawned for the cluster topologies; the module is
a real file so the ``spawn`` start method can re-import it safely.
"""

import gc
import json
import os
import pathlib
import warnings

import pytest

from repro.audit import (
    AuditLog,
    generate_schedule,
    run_campaign,
)
from repro.cluster import RemoteClusterService
from repro.core.ontology import AttentionOntology, EdgeType, NodeType
from repro.core.store import OntologyStore
from repro.errors import DeltaGapError, ReproError, ShardUnavailableError
from repro.replication import DeltaLog, PublisherThread, SnapshotCatalog
from repro.replication.follower import SyncLogClient
from repro.serving import OntologyService
from repro.serving.rpc import dumps
from repro.text.ner import NerTagger
from repro.text.tokenizer import tokenize

TAGGER_OPTIONS = {"coherence_threshold": 0.01, "lcs_threshold": 0.6}

_CAST = ("iron man", "thor", "hulk", "black widow", "wasp")


@pytest.fixture
def log_dir(tmp_path, request):
    """Log directory — under REPRO_AUDIT_ARTIFACTS when set, so a
    failing CI run uploads the on-disk state that broke."""
    root = os.environ.get("REPRO_AUDIT_ARTIFACTS")
    if root:
        path = pathlib.Path(root) / request.node.name.replace("/", "_")
        path.mkdir(parents=True, exist_ok=True)
        return path
    return tmp_path / "log"


@pytest.fixture
def seeded(log_dir):
    """``(producer, log, catalog, ner)`` over a one-delta log with its
    snapshot recorded; the log is closed at teardown."""
    producer = AttentionOntology()
    producer.begin_delta("build")
    concept = producer.add_node(NodeType.CONCEPT, "marvel movies")
    for name in _CAST:
        entity = producer.add_node(NodeType.ENTITY, name)
        producer.add_edge(concept.node_id, entity.node_id, EdgeType.ISA)
    producer.add_alias(concept.node_id, "mcu films")
    delta = producer.commit_delta()
    ner = NerTagger()
    for name in _CAST:
        ner.register(name, "WORK")
    with DeltaLog(log_dir, segment_max_bytes=512) as log:
        log.append(delta)
        catalog = SnapshotCatalog(log, compact_bytes=1, retain_segments=0)
        catalog.record(OntologyStore.bootstrap(None, [delta]))
        yield producer, log, catalog, ner


def _grow(producer, ner, tag: str):
    """One fresh delta: a concept with two entities, NER-registered."""
    producer.begin_delta("grow")
    concept = producer.add_node(NodeType.CONCEPT, f"{tag} movies")
    for name in (f"{tag} hero", f"{tag} villain"):
        entity = producer.add_node(NodeType.ENTITY, name)
        producer.add_edge(concept.node_id, entity.node_id, EdgeType.ISA)
        ner.register(name, "WORK")
    return producer.commit_delta()


# ----------------------------------------------------------------------
# the schedule generator
# ----------------------------------------------------------------------
class TestSchedule:
    def test_deterministic_and_json_round_trip(self):
        first = generate_schedule(seed=11, steps=14)
        second = generate_schedule(seed=11, steps=14)
        assert first == second
        assert first == json.loads(json.dumps(first))
        assert generate_schedule(seed=12, steps=14) != first

    def test_covers_the_fault_matrix(self):
        ops = generate_schedule(seed=4, steps=12)["ops"]
        kinds = [op["op"] for op in ops]
        assert kinds[0] == "seed"
        for required in ("kill", "restart", "delay", "heal", "lag_gc",
                         "rebalance"):
            assert required in kinds, required
        assert kinds.count("rebalance") == 1
        rebalance = next(op for op in ops if op["op"] == "rebalance")
        assert rebalance["probes"], "rebalance must interleave reads"
        # The reads right after the kill are the typed-recovery probe.
        assert kinds[kinds.index("kill") + 1] == "read"


# ----------------------------------------------------------------------
# the audit log's checks, in isolation (no cluster)
# ----------------------------------------------------------------------
class TestAuditLogChecks:
    def test_session_guarantees(self, seeded):
        producer, log, catalog, ner = seeded
        single = OntologyService(producer, ner=ner,
                                 tagger_options=TAGGER_OPTIONS)
        with PublisherThread(log, catalog) as publisher:
            audit = AuditLog(publisher.address, ner=ner,
                             tagger_options=TAGGER_OPTIONS)
            try:
                version = producer.store.version
                result = single.concepts_of_entity("thor")
                ok = audit.observe("s0", "concepts_of_entity", ("thor",),
                                   {}, result,
                                   {"version": version, "session": "s0"})
                assert ok is None

                unstamped = audit.observe("s0", "concepts_of_entity",
                                          ("thor",), {}, result, None)
                assert unstamped.kind == "unstamped"

                echoed = audit.observe("s0", "concepts_of_entity",
                                       ("thor",), {}, result,
                                       {"version": version,
                                        "session": "someone-else"})
                assert echoed.kind == "session-mismatch"

                backwards = audit.observe(
                    "s0", "concepts_of_entity", ("thor",), {}, result,
                    {"version": version - 1, "session": "s0"})
                assert backwards.kind == "monotonic-reads"
                assert "backwards" in backwards.detail

                torn = audit.observe(
                    "s1", "concepts_of_entity", ("thor",), {},
                    ("not", "the", "answer"),
                    {"version": version, "session": "s1"})
                assert torn.kind == "value-divergence"

                # A session's write applies to the oracle; a later read
                # that does not reflect it is read-your-writes.
                profile = single.record_read("u-9", ["thor", "hulk"])
                assert audit.observe(
                    "s2", "record_read", ("u-9", ["thor", "hulk"]), {},
                    profile,
                    {"version": version, "session": "s2"}) is None
                stale = audit.observe(
                    "s2", "user_interests", ("u-9",), {"k": 3}, (),
                    {"version": version, "session": "s2"})
                assert stale.kind == "read-your-writes"
                assert stale.session == "s2"

                assert [v.kind for v in audit.violations] == [
                    "unstamped", "session-mismatch", "monotonic-reads",
                    "value-divergence", "read-your-writes"]
            finally:
                audit.close()

    def test_stamp_ahead_of_log_is_hard_error(self, seeded):
        producer, log, catalog, ner = seeded
        with PublisherThread(log, catalog) as publisher:
            audit = AuditLog(publisher.address, ner=ner,
                             tagger_options=TAGGER_OPTIONS)
            try:
                with pytest.raises(ReproError, match="system of record"):
                    audit.observe("s0", "concepts_of_entity", ("thor",),
                                  {}, (),
                                  {"version": producer.store.version + 5,
                                   "session": "s0"})
            finally:
                audit.close()


# ----------------------------------------------------------------------
# crash-path regressions the campaign flushed out
# ----------------------------------------------------------------------
class TestCrashPathFixes:
    def test_dead_worker_scatter_read_recovers_typed(self, seeded):
        """Bug (a): a scatter read between ``terminate_worker`` and the
        next sync used to surface a raw OSError/ConnectionError from the
        dead worker's stale proxy.  Now the proxy maps connection
        failures to ``ShardUnavailableError`` and the serving view's
        recovery hook respawns the worker and retries — the read
        succeeds and stays byte-identical to the single store."""
        producer, log, catalog, ner = seeded
        single = OntologyService(producer, ner=ner,
                                 tagger_options=TAGGER_OPTIONS)
        docs = [("d1", tokenize("thor and hulk"),
                 [tokenize("iron man meets thor"),
                  tokenize("the wasp helps black widow")])]
        with PublisherThread(log, catalog) as publisher:
            with RemoteClusterService(publisher.address, num_shards=2,
                                      ner=ner,
                                      tagger_options=TAGGER_OPTIONS
                                      ) as remote:
                remote.terminate_worker(1)
                # The stale proxy itself raises the *typed* error now.
                with pytest.raises(ShardUnavailableError) as excinfo:
                    remote.replicas[1].describe()
                assert excinfo.value.shard_id == 1
                # The view-level read recovers end to end.
                assert dumps(remote.tag_documents(docs)) == \
                    dumps(single.tag_documents(docs))
                assert dumps(remote.interpret_queries(["best marvel movies"])
                             ) == \
                    dumps(single.interpret_queries(["best marvel movies"]))
                # And the worker really was respawned, not just retried.
                assert remote.replicas[1].describe()["shard"] == 1

    def test_restart_shard_failed_respawn_keeps_old_proxy(self, seeded):
        """Bug (b): ``restart_shard`` used to close the old proxy before
        the respawn was known-good — a failed respawn left a dead socket
        seated with no retry path.  The swap is all-or-nothing now."""
        producer, log, catalog, ner = seeded
        single = OntologyService(producer, ner=ner,
                                 tagger_options=TAGGER_OPTIONS)
        with PublisherThread(log, catalog) as publisher:
            with RemoteClusterService(publisher.address, num_shards=2,
                                      ner=ner,
                                      tagger_options=TAGGER_OPTIONS
                                      ) as remote:
                original_await = remote._await_ready
                attempts = {"count": 0}

                def flaky(expected):
                    attempts["count"] += 1
                    if attempts["count"] == 1:
                        raise ReproError("injected respawn failure")
                    return original_await(expected)

                remote._await_ready = flaky
                try:
                    old_proxy = remote.replicas[1]
                    with pytest.raises(ReproError, match="injected"):
                        remote.restart_shard(1)
                    # The swap never happened: same proxy object seated.
                    assert remote.replicas[1] is old_proxy
                    # The retry path works and serves correctly.
                    line = remote.restart_shard(1)
                    assert line["shard"] == 1
                    assert remote.replicas[1] is not old_proxy
                finally:
                    remote._await_ready = original_await
                queries = ["best marvel movies", "thor review"]
                assert dumps(remote.interpret_queries(queries)) == \
                    dumps(single.interpret_queries(queries))

    def test_reap_escalates_and_refuses_wedged_corpse(self, seeded):
        """Bug (c): the old restart joined the outgoing worker with a
        timeout but never checked it died — ``_reap`` now escalates
        terminate -> kill and refuses to respawn over a survivor."""

        class FakeProcess:
            pid = 4242
            exitcode = None

            def __init__(self, dies_on_kill):
                self._alive = True
                self._dies_on_kill = dies_on_kill
                self.calls = []

            def is_alive(self):
                return self._alive

            def terminate(self):
                self.calls.append("terminate")

            def kill(self):
                self.calls.append("kill")
                if self._dies_on_kill:
                    self._alive = False
                    self.exitcode = -9

            def join(self, timeout=None):
                self.calls.append("join")

        producer, log, catalog, ner = seeded
        with PublisherThread(log, catalog) as publisher:
            with RemoteClusterService(publisher.address, num_shards=2,
                                      ner=ner,
                                      tagger_options=TAGGER_OPTIONS
                                      ) as remote:
                # terminate is ignored -> kill escalation reaps it.
                stubborn = FakeProcess(dies_on_kill=True)
                remote._processes[91] = stubborn
                remote._reap(91)
                assert "kill" in stubborn.calls
                assert 91 not in remote._processes
                # Nothing kills it -> hard refusal, corpse kept visible.
                wedged = FakeProcess(dies_on_kill=False)
                remote._processes[92] = wedged
                with pytest.raises(ReproError, match="wedged"):
                    remote._reap(92)
                assert remote._processes.pop(92) is wedged


# ----------------------------------------------------------------------
# view rehydration across a GC-forced parent re-bootstrap (DeltaGapError)
# ----------------------------------------------------------------------
class TestGapRebootstrapRehydration:
    def test_view_reads_rehydrate_byte_identical(self, seeded):
        """The parent's routing client is unregistered on purpose, so a
        log GC at the worker/auditor floor strands it: the next sync
        meets ``DeltaGapError`` and rebuilds the router from snapshot +
        tail.  The view catalog trails that rebuild — the next
        view-backed read must rehydrate to byte-identical results."""
        producer, log, catalog, ner = seeded
        single = OntologyService(producer, ner=ner,
                                 tagger_options=TAGGER_OPTIONS)
        with PublisherThread(log, catalog) as publisher:
            with RemoteClusterService(publisher.address, num_shards=2,
                                      ner=ner,
                                      tagger_options=TAGGER_OPTIONS
                                      ) as remote:
                for service in (single, remote):
                    service.record_read("u-1", ["marvel movies", "thor"])
                stranded_at = remote.version
                for tag in ("alpha", "beta", "gamma"):
                    delta = _grow(producer, ner, tag)
                    publisher.publish([delta])
                    single.refresh([delta])
                head = producer.store.version
                # Workers advance directly (their registrations move the
                # GC floor to head); the parent stays at stranded_at.
                for replica in remote.replicas:
                    replica.sync(head)
                publisher.call(lambda: catalog.record(producer.store))
                # Prove the prefix is really gone.
                probe = SyncLogClient.connect(*publisher.address)
                try:
                    with pytest.raises(DeltaGapError):
                        probe.fetch(stranded_at)
                finally:
                    probe.close()
                remote.sync()
                assert remote.version == head
                # View-backed reads (interests / recsys ride the view
                # catalog) match the single store byte for byte.
                assert dumps(remote.user_interests("u-1", k=5)) == \
                    dumps(single.user_interests("u-1", k=5))
                assert dumps(remote.recommend_for_user("u-1", k=3)) == \
                    dumps(single.recommend_for_user("u-1", k=3))
                assert dumps(remote.concepts_of_entity("gamma hero")) == \
                    dumps(single.concepts_of_entity("gamma hero"))


# ----------------------------------------------------------------------
# the campaign end to end
# ----------------------------------------------------------------------
class TestCampaign:
    def test_seeded_campaign_runs_clean(self, log_dir):
        """The acceptance gate: a seeded campaign covering worker kills,
        an operator restart, follower delay, log GC under lag, and one
        mid-traffic chunked rebalance completes with zero violations,
        and closes the delta log it opened."""
        schedule = generate_schedule(seed=3, steps=12)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            report = run_campaign(schedule, log_dir)
            gc.collect()  # an unclosed segment file warns when collected
        assert not [str(w.message) for w in caught
                    if str(log_dir) in str(w.message)]
        assert report["violations"] == []
        fault_kinds = {fault["kind"] for fault in report["faults"]}
        assert {"kill_worker", "restart_worker", "delay_follower",
                "heal", "sync_workers", "gc_log"} <= fault_kinds
        rebalance = report["rebalance"]
        assert rebalance is not None
        assert rebalance["transfer_chunks"] >= 1
        assert rebalance["interleaved_read_latencies"], \
            "reads must be served between transfer chunks"
        assert report["reads"] > 0 and report["writes"] > 0
        assert report["final_version"] > 0

    def test_stale_read_backend_is_caught(self, tmp_path, monkeypatch):
        """The negative control: a backend rig that serves a cached
        (stale) ``user_interests`` answer after a newer profile write
        must trip the auditor — read-your-writes, naming the violating
        session — and drop a shrinkable schedule artifact."""

        class StaleInterestsRig:
            """Caches the first user_interests answer per (user, k) and
            serves it forever — a stale read bug in a box."""

            def __init__(self, backend):
                self._backend = backend
                self._cache = {}

            def __getattr__(self, name):
                return getattr(self._backend, name)

            def user_interests(self, user_id, k=10, **kwargs):
                key = (user_id, k)
                if key not in self._cache:
                    self._cache[key] = self._backend.user_interests(
                        user_id, k=k, **kwargs)
                return self._cache[key]

        artifacts = tmp_path / "artifacts"
        monkeypatch.setenv("REPRO_AUDIT_ARTIFACTS", str(artifacts))
        seed_schedule = generate_schedule(seed=1, steps=4)
        seed_op = seed_schedule["ops"][0]
        tags = [entry[1] for entry in seed_op["nodes"]]
        schedule = {
            "seed": 1, "start_shards": 2,
            "ops": [
                seed_op,
                {"op": "write", "session": "s0", "kind": "profile",
                 "user": "u-s0", "tags": tags[:2]},
                {"op": "read", "session": "s0", "kind": "interests",
                 "user": "u-s0", "k": 5},
                {"op": "write", "session": "s0", "kind": "profile",
                 "user": "u-s0", "tags": tags[2:4]},
                {"op": "read", "session": "s0", "kind": "interests",
                 "user": "u-s0", "k": 5},
            ],
        }
        report = run_campaign(schedule, tmp_path / "log",
                              backend_rig=StaleInterestsRig,
                              name="stale-rig")
        kinds = {violation["kind"] for violation in report["violations"]}
        assert "read-your-writes" in kinds
        assert all(violation["session"] == "s0"
                   for violation in report["violations"])
        # The artifact alone reproduces: schedule + report, shrinkable.
        artifact = pathlib.Path(report["artifact"])
        assert artifact.exists()
        payload = json.loads(artifact.read_text())
        assert payload["schedule"]["ops"] == schedule["ops"]
        assert payload["report"]["violations"]


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------
class TestCli:
    def test_parser_wiring(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(
            ["audit", "--seed", "7", "--steps", "9", "--chunk-nodes", "4"])
        assert args.seed == 7 and args.steps == 9
        assert args.chunk_nodes == 4 and args.func is not None

    def test_malformed_connect_refused(self, capsys):
        from repro.cli import build_parser
        args = build_parser().parse_args(["audit", "--connect", "nonsense"])
        assert args.func(args) == 2
        assert "malformed" in capsys.readouterr().out
