"""Tests for repro.replication: the segmented delta log (durability and
crash recovery), snapshot catalog retention, publisher/follower log
shipping, and the cross-process remote shard cluster's byte-identity.

Durability tests honour ``REPRO_REPLICATION_ARTIFACTS``: when set, log
and catalog fixture directories are created under it (instead of pytest
tmp dirs) so CI can upload them as artifacts on failure.
"""

import contextlib
import errno
import json
import os
import pathlib
import re
import stat
import sys

import pytest

from repro.cluster import ClusterService, RemoteClusterService, ShardSet
from repro.core.ontology import AttentionOntology, EdgeType, NodeType
from repro.core.serialize import store_to_dict
from repro.core.store import OntologyDelta, OntologyStore
from repro.errors import DeltaGapError, OntologyError
from repro.replication import (
    DeltaLog,
    LocalLogClient,
    LogFollower,
    PublisherThread,
    SnapshotCatalog,
    SyncLogClient,
)
from repro.serving import OntologyService
from repro.serving.rpc import dumps
from repro.text.ner import NerTagger
from repro.text.tokenizer import tokenize

ENTITIES = ("iron man", "captain america", "black panther", "thor",
            "hulk", "black widow", "doctor strange", "ant man")

TAGGER_OPTIONS = {"coherence_threshold": 0.01, "lcs_threshold": 0.6}

DOCS = [
    ("d1", tokenize("iron man and captain america reviewed"),
     [tokenize("both iron man and captain america delight fans")]),
    ("d2", tokenize("black panther premiere breaks box office record"),
     [tokenize("a huge premiere for black panther")]),
    ("d3", tokenize("doctor strange sequel announced at comic con"),
     [tokenize("doctor strange returns")]),
]

QUERIES = ["best marvel superhero movies", "mcu films ranked",
           "iron man review"]


def _build_producer():
    """Three recorded delta batches over every node/edge type."""
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


@pytest.fixture
def log_dir(tmp_path, request):
    """Log directory — under REPRO_REPLICATION_ARTIFACTS when set, so a
    failing CI run uploads the on-disk state that broke."""
    root = os.environ.get("REPRO_REPLICATION_ARTIFACTS")
    if root:
        path = pathlib.Path(root) / request.node.name.replace("/", "_")
        path.mkdir(parents=True, exist_ok=True)
        return path
    return tmp_path / "log"


@pytest.fixture
def open_log():
    """``DeltaLog(...)`` closed at teardown, so a test that ends (or
    fails) with its log open leaves no segment append handle behind."""
    with contextlib.ExitStack() as stack:
        yield lambda *args, **kwargs: stack.enter_context(
            DeltaLog(*args, **kwargs))


# ----------------------------------------------------------------------
# DeltaLog
# ----------------------------------------------------------------------
class TestDeltaLog:
    def test_append_read_roundtrip(self, producer_and_deltas, log_dir):
        _producer, deltas = producer_and_deltas
        with DeltaLog(log_dir) as log:
            assert log.extend(deltas) == len(deltas)
            assert log.first_version == 0
            assert log.last_version == deltas[-1].version
            assert len(log) == len(deltas)
            out = log.read(0)
        assert [d.version for d in out] == [d.version for d in deltas]
        assert [d.ops for d in out] == [d.ops for d in deltas]

    def test_read_since_and_max_count(self, producer_and_deltas, log_dir,
                                      open_log):
        _producer, deltas = producer_and_deltas
        log = open_log(log_dir)
        log.extend(deltas)
        tail = log.read(deltas[0].version)
        assert [d.version for d in tail] == [d.version for d in deltas[1:]]
        assert len(log.read(0, max_count=2)) == 2
        assert log.read(deltas[-1].version) == []

    def test_duplicate_append_skipped(self, producer_and_deltas, log_dir,
                                      open_log):
        _producer, deltas = producer_and_deltas
        log = open_log(log_dir)
        log.extend(deltas)
        assert log.append(deltas[1]) is False  # at-least-once producer
        assert len(log) == len(deltas)

    def test_gap_and_overlap_rejected(self, producer_and_deltas, log_dir,
                                      open_log):
        _producer, deltas = producer_and_deltas
        log = open_log(log_dir)
        log.append(deltas[0])
        with pytest.raises(DeltaGapError, match="missing versions"):
            log.append(deltas[2])  # skipped deltas[1]
        straddling = OntologyDelta(
            stage="bad", base_version=deltas[0].base_version,
            version=deltas[1].version,
            ops=deltas[0].ops + deltas[1].ops)
        with pytest.raises(DeltaGapError, match="double-apply"):
            log.append(straddling)
        inconsistent = OntologyDelta(stage="bad",
                                     base_version=deltas[0].version,
                                     version=deltas[0].version + 5,
                                     ops=[{"op": "noop"}])
        with pytest.raises(OntologyError, match="internally inconsistent"):
            log.append(inconsistent)

    def test_segment_roll_and_reopen(self, producer_and_deltas, log_dir,
                                     open_log):
        _producer, deltas = producer_and_deltas
        log = DeltaLog(log_dir, segment_max_bytes=256)
        log.extend(deltas)
        assert len(log.segments()) > 1  # small bound forces rolls
        log.close()
        reopened = open_log(log_dir, segment_max_bytes=256)
        assert reopened.last_version == deltas[-1].version
        assert [d.version for d in reopened.read(0)] == \
            [d.version for d in deltas]
        # Appends continue the stream across a reopen.
        producer = OntologyStore.bootstrap(None, deltas)
        producer.begin_delta("day4")
        producer.add_node(NodeType.EVENT, "hulk cameo confirmed")
        fourth = producer.commit_delta()
        assert reopened.append(fourth) is True
        assert reopened.last_version == fourth.version

    def test_divergent_stream_rejected_not_skipped(self,
                                                   producer_and_deltas,
                                                   log_dir, open_log):
        """Regression (review finding): appending a *different* stream
        whose version range the log already retains must fail loudly —
        silently skipping it as a duplicate would lose the new build's
        deltas while the log pretends to hold them (and a later
        snapshot would poison the directory for good)."""
        _producer, deltas = producer_and_deltas
        log = open_log(log_dir)
        log.extend(deltas)
        other = AttentionOntology()
        other.begin_delta("rebuild")
        for index in range(len(deltas[0].ops)):
            other.add_node(NodeType.CONCEPT, f"different concept {index}")
        divergent = other.commit_delta()
        assert divergent.version <= log.last_version  # same range...
        with pytest.raises(OntologyError, match="different delta stream"):
            log.append(divergent)  # ...different content
        # A true at-least-once duplicate still skips silently.
        assert log.append(deltas[0]) is False

    def test_readonly_open_never_repairs(self, producer_and_deltas,
                                         log_dir):
        """Regression (review finding): a read-only open — the serve
        path next to a live builder — must not truncate an in-flight
        tail record or rewrite the manifest; it reads the committed
        prefix and leaves the directory byte-identical."""
        _producer, deltas = producer_and_deltas
        log = DeltaLog(log_dir)
        log.extend(deltas[:2])
        log.close()
        from repro.core.serialize import delta_to_json_line

        segment = log.path / log.segments()[-1].name
        line = delta_to_json_line(deltas[2]) + "\n"
        with open(segment, "ab") as handle:  # writer's in-flight append
            handle.write(line.encode("utf-8")[: len(line) // 2])

        before = {p.name: p.read_bytes() for p in log.path.iterdir()
                  if p.is_file()}
        reader = DeltaLog(log_dir, readonly=True)
        assert reader.last_version == deltas[1].version
        assert [d.version for d in reader.read(0)] == \
            [d.version for d in deltas[:2]]
        with pytest.raises(OntologyError, match="read-only"):
            reader.append(deltas[2])
        after = {p.name: p.read_bytes() for p in log.path.iterdir()
                 if p.is_file()}
        assert after == before  # nothing repaired, nothing rewritten
        # The writer's handle can still complete the record afterwards.
        with open(segment, "ab") as handle:
            handle.write(line.encode("utf-8")[len(line) // 2:])
        assert [d.version for d in DeltaLog(log_dir).read(0)] == \
            [d.version for d in deltas]

    def test_fsync_mode_appends(self, producer_and_deltas, log_dir, open_log):
        _producer, deltas = producer_and_deltas
        log = open_log(log_dir, fsync=True)
        assert log.extend(deltas) == len(deltas)
        assert [d.version for d in log.read(0)] == \
            [d.version for d in deltas]


# ----------------------------------------------------------------------
# crash-window durability (satellite: torn-tail recovery)
# ----------------------------------------------------------------------
class TestCrashDurability:
    @staticmethod
    def _active_segment(log: DeltaLog) -> pathlib.Path:
        return log.path / log.segments()[-1].name

    def test_torn_tail_dropped_prefix_preserved(self, producer_and_deltas,
                                                log_dir, open_log):
        """A writer killed mid-append leaves a truncated last line; the
        reopened log drops the torn record, keeps the contiguous prefix,
        and replays to the exact same stats as a clean stream."""
        _producer, deltas = producer_and_deltas
        log = DeltaLog(log_dir)
        log.extend(deltas[:2])
        log.close()
        # Simulate the crash: the third delta's record is half-written.
        from repro.core.serialize import delta_to_json_line

        segment = self._active_segment(log)
        line = delta_to_json_line(deltas[2]) + "\n"
        with open(segment, "ab") as handle:
            handle.write(line.encode("utf-8")[: len(line) // 2])

        recovered = open_log(log_dir)
        assert recovered.last_recovery["dropped_lines"] == 1
        assert recovered.last_recovery["truncated_bytes"] > 0
        assert recovered.last_version == deltas[1].version
        replayed = OntologyStore.bootstrap(None, recovered.read(0))
        reference = OntologyStore.bootstrap(None, deltas[:2])
        assert replayed.stats() == reference.stats()
        assert replayed.version == reference.version
        # The committed prefix accepts the re-delivered third batch.
        assert recovered.append(deltas[2]) is True
        assert OntologyStore.bootstrap(None, recovered.read(0)).stats() == \
            OntologyStore.bootstrap(None, deltas).stats()

    def test_torn_tail_with_garbage_bytes(self, producer_and_deltas,
                                          log_dir, open_log):
        _producer, deltas = producer_and_deltas
        log = DeltaLog(log_dir)
        log.extend(deltas)
        log.close()
        with open(self._active_segment(log), "ab") as handle:
            handle.write(b'{"not a delta" \xff\xfe')
        recovered = open_log(log_dir)
        assert recovered.last_version == deltas[-1].version
        assert recovered.last_recovery["truncated_bytes"] > 0

    def test_fully_torn_segment_recovers_empty(self, log_dir, open_log):
        log = DeltaLog(log_dir)
        log.close()
        with open(self._active_segment(log), "ab") as handle:
            handle.write(b"garbage-without-newline")
        recovered = open_log(log_dir)
        assert recovered.first_version == recovered.last_version == 0
        assert recovered.read(0) == []

    def test_clean_log_recovery_is_noop(self, producer_and_deltas, log_dir,
                                        open_log):
        _producer, deltas = producer_and_deltas
        log = DeltaLog(log_dir, segment_max_bytes=256)
        log.extend(deltas)
        log.close()
        recovered = open_log(log_dir, segment_max_bytes=256)
        assert recovered.last_recovery["dropped_lines"] == 0
        assert recovered.last_recovery["truncated_bytes"] == 0
        assert [d.version for d in recovered.read(0)] == \
            [d.version for d in deltas]


# ----------------------------------------------------------------------
# file names are the only log / catalog metadata
# ----------------------------------------------------------------------
_WRITE_FLAGS = os.O_WRONLY | os.O_RDWR | os.O_CREAT | os.O_TRUNC | os.O_APPEND
_audited: "list | None" = None


def _audit_writes(event: str, args: tuple) -> None:
    if _audited is not None and (
            (event == "open" and args[2] & _WRITE_FLAGS)
            or event in ("os.rename", "os.remove", "os.truncate")):
        _audited.append((event, str(args[0])))


@contextlib.contextmanager
def _writes_under(root: pathlib.Path):
    """Collect the open-for-write, rename, unlink and truncate calls the
    block issues under ``root``, through a process-wide audit hook that
    is inert outside such a block."""
    global _audited
    if not getattr(_audit_writes, "installed", False):
        sys.addaudithook(_audit_writes)
        _audit_writes.installed = True
    _audited, seen = [], []
    try:
        yield seen
    finally:
        seen += [event for event in _audited
                 if event[1].startswith(str(root))]
        _audited = None


class TestNamesAreTheMetadata:
    def test_segments_and_snapshots_named_by_version(self,
                                                     producer_and_deltas,
                                                     log_dir, open_log):
        _producer, deltas = producer_and_deltas
        log = open_log(log_dir, segment_max_bytes=256)
        log.extend(deltas)
        catalog = SnapshotCatalog(log, compact_bytes=1, retain_segments=1)
        catalog.record(OntologyStore.bootstrap(None, deltas))
        assert sorted(p.name for p in log.path.glob("*.jsonl")) == \
            [f"seg-{seg.base_version:012d}.jsonl" for seg in log.segments()]
        assert sorted(p.name for p in catalog.path.iterdir()) == \
            [f"snapshot-{deltas[-1].version:012d}.json"]
        assert catalog.snapshots() == [catalog.latest_entry()] == [
            {"name": f"snapshot-{deltas[-1].version:012d}.json",
             "version": deltas[-1].version}]

    def test_clean_reopen_writes_nothing(self, producer_and_deltas,
                                         log_dir):
        """Opening a clean log and catalog lists the directory and scans
        the segments; it opens nothing for writing, renames nothing and
        unlinks nothing."""
        _producer, deltas = producer_and_deltas
        log = DeltaLog(log_dir, segment_max_bytes=256, fsync=True)
        log.extend(deltas[:2])
        SnapshotCatalog(log, compact_bytes=1, retain_segments=1).record(
            OntologyStore.bootstrap(None, deltas[:2]))
        log.append(deltas[2])
        log.close()
        with _writes_under(log_dir) as writes:
            reopened = DeltaLog(log_dir, segment_max_bytes=256, fsync=True)
            catalog = SnapshotCatalog(reopened, compact_bytes=1)
            reopened.close()
        assert writes == []
        assert reopened.last_version == deltas[-1].version
        assert catalog.latest_version == deltas[1].version

    def test_manifest_layout_directory_rejected(self, producer_and_deltas,
                                                log_dir, open_log):
        """A directory written by the older manifest layout (ordinal
        segment names, ``MANIFEST.json``, ``snapshots/CATALOG.json``)
        raises a typed error naming it and is never truncated: its
        ``seg-000001.jsonl`` must not be read as base version 1."""
        from repro.core.serialize import delta_to_json_line

        _producer, deltas = producer_and_deltas
        log_dir.mkdir(parents=True, exist_ok=True)
        segment = log_dir / "seg-000001.jsonl"
        segment.write_text("".join(delta_to_json_line(delta) + "\n"
                                   for delta in deltas))
        (log_dir / "MANIFEST.json").write_text(
            '{"format": 1, "segments": [{"base_version": 0, '
            '"name": "seg-000001.jsonl"}]}\n')
        before = segment.read_bytes()
        for readonly in (False, True):
            with pytest.raises(OntologyError,
                               match=re.escape(f"{log_dir} holds "
                                               f"MANIFEST.json")):
                DeltaLog(log_dir, readonly=readonly)
        (log_dir / "MANIFEST.json").unlink()
        with pytest.raises(OntologyError, match="seg-000001.jsonl"):
            DeltaLog(log_dir)  # an ordinal name is not a base version
        assert segment.read_bytes() == before

        fresh = open_log(log_dir / "fresh")
        (fresh.path / "snapshots").mkdir()
        (fresh.path / "snapshots" / "CATALOG.json").write_text("{}\n")
        for readonly in (False, True):
            with pytest.raises(OntologyError, match="CATALOG.json"):
                SnapshotCatalog(fresh, readonly=readonly)

    def test_directory_fsync_errors_raise(self, producer_and_deltas,
                                          log_dir, open_log, monkeypatch):
        """Regression: ``fsync_dir`` swallowed every ``OSError``, EIO
        included, so a roll on an fsyncing log could report success
        with the new segment's name not on disk.  Only ``EINVAL`` (a
        directory cannot be fsynced here) is tolerated."""
        _producer, deltas = producer_and_deltas
        log = open_log(log_dir, segment_max_bytes=1, fsync=True)
        log.append(deltas[0])
        real_fsync = os.fsync

        def failing(code: int):
            def fsync(fd):
                if stat.S_ISDIR(os.fstat(fd).st_mode):
                    raise OSError(code, os.strerror(code))
                real_fsync(fd)
            return fsync

        monkeypatch.setattr(os, "fsync", failing(errno.EINVAL))
        assert log.append(deltas[1]) is True  # rolls; EINVAL tolerated
        monkeypatch.setattr(os, "fsync", failing(errno.EIO))
        with pytest.raises(OSError) as raised:
            log.append(deltas[2])  # rolls again
        assert raised.value.errno == errno.EIO


# ----------------------------------------------------------------------
# SnapshotCatalog
# ----------------------------------------------------------------------
class TestSnapshotCatalog:
    def test_threshold_triggers_compaction_and_gc(self, producer_and_deltas,
                                                  log_dir, open_log):
        producer, deltas = producer_and_deltas
        log = open_log(log_dir, segment_max_bytes=256)
        catalog = SnapshotCatalog(log, compact_bytes=1 << 20,
                                  retain_segments=0)
        log.extend(deltas)
        store = OntologyStore.bootstrap(None, deltas)
        # Below the threshold: nothing happens.
        assert catalog.maybe_compact(store) is None
        tight = SnapshotCatalog(log, path=log_dir / "snapshots",
                                compact_bytes=64, retain_segments=0)
        version = tight.maybe_compact(store)
        assert version == store.version
        assert tight.latest_version == store.version
        # Folded segments are gone; only the active segment remains.
        assert len(log.segments()) == 1
        assert log.first_version > 0
        snapshot, snap_version = tight.latest()
        assert snap_version == store.version
        assert OntologyStore.bootstrap(snapshot, []).stats() == \
            producer.stats()

    def test_retained_tail_survives_gc(self, producer_and_deltas, log_dir,
                                       open_log):
        _producer, deltas = producer_and_deltas
        log = open_log(log_dir, segment_max_bytes=256)
        log.extend(deltas)
        sealed = len(log.segments()) - 1
        assert sealed >= 2  # the roll bound must give us a real tail
        catalog = SnapshotCatalog(log, compact_bytes=1, retain_segments=1)
        catalog.record(OntologyStore.bootstrap(None, deltas))
        # One folded segment was kept for slightly-stale followers.
        assert len(log.segments()) == 2

    def test_snapshot_plus_tail_equals_full_replay(self, producer_and_deltas,
                                                   log_dir, open_log):
        producer, deltas = producer_and_deltas
        log = open_log(log_dir)
        log.extend(deltas[:2])
        catalog = SnapshotCatalog(log, compact_bytes=1, retain_segments=0)
        catalog.record(OntologyStore.bootstrap(None, deltas[:2]))
        log.append(deltas[2])
        snapshot, version = catalog.latest()
        tail = log.read(version)
        bootstrapped = OntologyStore.bootstrap(snapshot, tail)
        assert bootstrapped.stats() == producer.stats()
        assert bootstrapped.version == producer.version

    def test_old_snapshots_pruned(self, producer_and_deltas, log_dir,
                                  open_log):
        _producer, deltas = producer_and_deltas
        log = open_log(log_dir)
        catalog = SnapshotCatalog(log, compact_bytes=1, retain_snapshots=2)
        for upto in range(1, len(deltas) + 1):
            log.extend(deltas[:upto])
            catalog.record(OntologyStore.bootstrap(None, deltas[:upto]))
        assert len(catalog.snapshots()) == 2
        on_disk = sorted(p.name for p in catalog.path.glob("snapshot-*.json"))
        assert len(on_disk) == 2
        assert catalog.latest_version == deltas[-1].version

    def test_snapshot_durable_before_segment_gc(self, producer_and_deltas,
                                                log_dir, open_log,
                                                monkeypatch):
        """On an fsyncing log the new snapshot file is fsynced before any
        folded segment is unlinked: a power loss cannot keep the GC and
        lose the snapshot that made it safe."""
        _producer, deltas = producer_and_deltas
        log = open_log(log_dir, segment_max_bytes=256, fsync=True)
        log.extend(deltas)
        catalog = SnapshotCatalog(log, compact_bytes=1, retain_segments=0)
        events = []
        real_fsync, real_unlink = os.fsync, pathlib.Path.unlink

        def fsync(fd):
            events.append(("fsync", os.fstat(fd).st_ino))
            real_fsync(fd)

        def unlink(path, *args, **kwargs):
            events.append(("unlink", path.name))
            real_unlink(path, *args, **kwargs)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(pathlib.Path, "unlink", unlink)
        catalog.record(OntologyStore.bootstrap(None, deltas))
        monkeypatch.undo()
        snapshot = catalog.path / catalog.latest_entry()["name"]
        unlinks = [i for i, (kind, name) in enumerate(events)
                   if kind == "unlink" and name.endswith(".jsonl")]
        assert unlinks, "the record must GC at least one folded segment"
        assert ("fsync", snapshot.stat().st_ino) in events[:unlinks[0]]

    def test_writable_open_unlinks_stale_temps(self, producer_and_deltas,
                                               log_dir):
        """A crash between a snapshot's temp write and its rename leaves
        ``snapshot-<v>.json.tmp``; a writable open unlinks it, a
        read-only open touches nothing."""
        _producer, deltas = producer_and_deltas
        log = DeltaLog(log_dir)
        log.extend(deltas)
        catalog = SnapshotCatalog(log, compact_bytes=1)
        catalog.record(OntologyStore.bootstrap(None, deltas))
        stale = catalog.path / "snapshot-000000000099.json.tmp"
        stale.write_text("{")
        log.close()
        reader = SnapshotCatalog(DeltaLog(log_dir, readonly=True),
                                 readonly=True)
        assert stale.exists()
        assert reader.latest_version == deltas[-1].version
        SnapshotCatalog(DeltaLog(log_dir), compact_bytes=1)
        assert not stale.exists()
        assert len(list(catalog.path.glob("snapshot-*.json"))) == 1

    def test_failed_atomic_write_leaves_no_temp(self, tmp_path,
                                                monkeypatch):
        from repro.core.serialize import write_json_atomic

        target = tmp_path / "doc.json"
        write_json_atomic(target, {"v": 1})

        def fail(_fd):
            raise OSError("injected fsync failure")

        monkeypatch.setattr(os, "fsync", fail)
        with pytest.raises(OSError, match="injected"):
            write_json_atomic(target, {"v": 2})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["doc.json"]
        assert json.loads(target.read_text()) == {"v": 1}

    def test_stale_record_rejected(self, producer_and_deltas, log_dir,
                                   open_log):
        _producer, deltas = producer_and_deltas
        log = open_log(log_dir)
        log.extend(deltas)
        catalog = SnapshotCatalog(log, compact_bytes=1)
        catalog.record(OntologyStore.bootstrap(None, deltas))
        behind = OntologyStore.bootstrap(None, deltas[:1])
        with pytest.raises(OntologyError, match="behind the catalog"):
            catalog.record(behind)


# ----------------------------------------------------------------------
# publisher + follower (log shipping over the wire)
# ----------------------------------------------------------------------
#: What a LogFollower feeds, as its ``build(head)``: the head store
#: itself, a worker's one-shard set, a remote parent's routing-only set.
REPLICA_KINDS = {
    "store": None,
    "one-shard": lambda head: ShardSet.build(head, 2, (1,)),
    "routing-only": lambda head: ShardSet.build(head, 2, ()),
}


def _state(replica) -> bytes:
    """Everything a replica serves, canonically."""
    if isinstance(replica, OntologyStore):
        return dumps(store_to_dict(replica))
    routing = replica.router.export_state()
    del routing["shard_versions"]  # a fold and a replay count ops apart
    shards = [[shard.shard_id, shard.ghost_count,
               [[node_id, shard.node(node_id),
                 shard.successor_ids(node_id),
                 shard.predecessor_ids(node_id)]
                for node_id in sorted(shard.owned_ids())]]
              for shard in replica.replicas]
    return dumps([routing, shards])


def _replayed(kind: str, deltas) -> bytes:
    """The state of a ``kind`` replica fed ``deltas`` from version 0."""
    build = REPLICA_KINDS[kind]
    replica = OntologyStore() if build is None else build(OntologyStore())
    for delta in deltas:
        assert replica.apply(delta)
    return _state(replica)


def over_replica_kinds(case):
    """Run one follower case per replica kind, each on its own log
    directory — the kind is one more input to the same test."""
    def test(self, producer_and_deltas, log_dir, open_log):
        for kind in REPLICA_KINDS:
            case(self, producer_and_deltas, log_dir / kind, open_log, kind)
    test.__name__, test.__doc__ = case.__name__, case.__doc__
    return test


class TestPublisherFollower:
    @over_replica_kinds
    def test_local_follower_snapshot_plus_tail(self, producer_and_deltas,
                                               log_dir, open_log, kind):
        producer, deltas = producer_and_deltas
        log = open_log(log_dir)
        log.extend(deltas[:2])
        catalog = SnapshotCatalog(log, compact_bytes=1, retain_segments=0)
        catalog.record(OntologyStore.bootstrap(None, deltas[:2]))
        log.append(deltas[2])
        follower = LogFollower(LocalLogClient(log, catalog),
                               REPLICA_KINDS[kind])
        follower.bootstrap()
        assert _state(follower.replica) == _replayed(kind, deltas)
        assert follower.version == producer.version
        assert follower.poll() == 0  # already current
        assert (follower.bootstraps, follower.recoveries) == (1, 0)

    @over_replica_kinds
    def test_socket_follower_bootstrap_poll_and_wait(self,
                                                     producer_and_deltas,
                                                     log_dir, open_log, kind):
        producer, deltas = producer_and_deltas
        log = open_log(log_dir)
        log.extend(deltas[:2])
        catalog = SnapshotCatalog(log, compact_bytes=1, retain_segments=0)
        catalog.record(OntologyStore.bootstrap(None, deltas[:2]))
        with PublisherThread(log, catalog) as publisher:
            host, port = publisher.address
            with SyncLogClient.connect(host, port) as client:
                follower = LogFollower(client, REPLICA_KINDS[kind])
                follower.bootstrap()
                assert _state(follower.replica) == \
                    _replayed(kind, deltas[:2])
                publisher.publish([deltas[2]])
                assert follower.poll(timeout=5.0) == 1
                assert _state(follower.replica) == _replayed(kind, deltas)
                assert (follower.bootstraps, follower.recoveries) == (1, 0)
                status = client.status()
                assert status["log"]["last_version"] == producer.version
                assert status["catalog"]["latest_version"] == \
                    deltas[1].version

    @over_replica_kinds
    def test_follower_recovers_from_gc_gap(self, producer_and_deltas,
                                           log_dir, open_log, kind):
        """A follower that fell behind the GC'd prefix hits
        DeltaGapError on fetch and recovers by re-bootstrapping from the
        newest snapshot."""
        producer, deltas = producer_and_deltas
        log = open_log(log_dir, segment_max_bytes=128)
        log.append(deltas[0])
        catalog = SnapshotCatalog(log, compact_bytes=1, retain_segments=0)
        with PublisherThread(log, catalog) as publisher:
            host, port = publisher.address
            with SyncLogClient.connect(host, port) as client:
                follower = LogFollower(client, REPLICA_KINDS[kind])
                follower.bootstrap()  # full replay: no snapshot yet
                assert follower.version == deltas[0].version
                # The log moves on and compacts past the follower.
                publisher.publish(deltas[1:])
                publisher.call(lambda: catalog.record(
                    OntologyStore.bootstrap(None, deltas)))
                assert log.first_version > deltas[0].version
                applied = follower.poll()
                assert follower.recoveries == 1
                assert follower.bootstraps == 2
                assert applied >= 0
                assert _state(follower.replica) == _replayed(kind, deltas)
                assert follower.version == producer.version

    def test_fetch_behind_gc_raises_gap(self, producer_and_deltas, log_dir,
                                        open_log):
        _producer, deltas = producer_and_deltas
        log = open_log(log_dir, segment_max_bytes=128)
        log.extend(deltas)
        catalog = SnapshotCatalog(log, compact_bytes=1, retain_segments=0)
        catalog.record(OntologyStore.bootstrap(None, deltas))
        with PublisherThread(log, catalog) as publisher:
            host, port = publisher.address
            with SyncLogClient.connect(host, port) as client:
                with pytest.raises(DeltaGapError):
                    client.fetch(0)

    def test_wait_times_out_empty(self, producer_and_deltas, log_dir,
                                  open_log):
        _producer, deltas = producer_and_deltas
        log = open_log(log_dir)
        log.extend(deltas)
        with PublisherThread(log) as publisher:
            host, port = publisher.address
            with SyncLogClient.connect(host, port) as client:
                assert client.wait(log.last_version, timeout=0.2) == []

    @over_replica_kinds
    def test_registered_follower_delays_segment_gc(self,
                                                   producer_and_deltas,
                                                   log_dir, open_log, kind):
        """Satellite regression (ROADMAP "publisher-side follower
        offsets"): a *registered* follower's position is a GC floor —
        compaction keeps the segments it still needs, so it catches up
        from the log with no DeltaGapError re-bootstrap; once it has
        advanced, re-recording the (idempotent) snapshot releases the
        delayed GC."""
        producer, deltas = producer_and_deltas
        log = open_log(log_dir, segment_max_bytes=128)
        log.append(deltas[0])
        catalog = SnapshotCatalog(log, compact_bytes=1, retain_segments=0)
        with PublisherThread(log, catalog) as publisher:
            host, port = publisher.address
            with SyncLogClient.connect(host, port,
                                       follower_id="slow") as client:
                follower = LogFollower(client, REPLICA_KINDS[kind])
                follower.bootstrap()  # ...and confirms where it landed
                assert follower.version == deltas[0].version
                # The log moves on and compacts past the follower...
                publisher.publish(deltas[1:])
                publisher.call(lambda: catalog.record(
                    OntologyStore.bootstrap(None, deltas)))
                # ...but the folded segments the follower still needs
                # survive: the GC floor held them back.
                assert log.first_version <= deltas[0].version
                assert follower.poll() > 0
                assert follower.recoveries == 0  # caught up from the log
                assert follower.bootstraps == 1  # no snapshot fallback
                assert _state(follower.replica) == _replayed(kind, deltas)
                # The poll confirmed the head position to the publisher;
                # the idempotent re-record now completes the delayed GC.
                assert follower.poll() == 0
                publisher.call(lambda: catalog.record(
                    OntologyStore.bootstrap(None, deltas)))
                # Everything but the never-dropped active segment went.
                assert len(log.segments()) == 1
                assert log.first_version > 0
            # close() deregistered the follower; nothing pins the floor.
            assert publisher.call(
                lambda: publisher._publisher.follower_floor()) is None

    @over_replica_kinds
    def test_unregistered_follower_still_rebootstraps(self,
                                                      producer_and_deltas,
                                                      log_dir, open_log, kind):
        """Without a follower_id nothing delays GC — the pre-offsets
        behavior (snapshot re-bootstrap on gap) still stands."""
        producer, deltas = producer_and_deltas
        log = open_log(log_dir, segment_max_bytes=128)
        log.append(deltas[0])
        catalog = SnapshotCatalog(log, compact_bytes=1, retain_segments=0)
        with PublisherThread(log, catalog) as publisher:
            host, port = publisher.address
            with SyncLogClient.connect(host, port) as client:
                follower = LogFollower(client, REPLICA_KINDS[kind])
                follower.bootstrap()
                publisher.publish(deltas[1:])
                publisher.call(lambda: catalog.record(
                    OntologyStore.bootstrap(None, deltas)))
                assert log.first_version > deltas[0].version  # GC ran
                follower.poll()
                assert (follower.bootstraps, follower.recoveries) == (2, 1)
                assert _state(follower.replica) == _replayed(kind, deltas)

    def test_follower_lag_gauges_reflect_induced_lag(self,
                                                     producer_and_deltas,
                                                     log_dir, open_log):
        """Observability satellite: the publisher's per-follower lag
        gauges — versions behind the head and the age (on the registry's
        injectable clock) of the oldest unconsumed publish — track
        induced lag exactly and return to zero once the follower
        catches up."""
        from repro.obs import MetricsRegistry

        class _Clock:
            now = 100.0

            def __call__(self):
                return self.now

        producer, deltas = producer_and_deltas
        clock = _Clock()
        registry = MetricsRegistry(clock=clock)
        log = open_log(log_dir)
        log.append(deltas[0])
        head = log.last_version
        with PublisherThread(log, registry=registry) as publisher:
            host, port = publisher.address
            with SyncLogClient.connect(host, port,
                                       follower_id="lagger") as lagger:
                lagger.fetch(0)     # registers at position 0
                lagger.fetch(head)  # ...then reports itself caught up
                snap = registry.snapshot()
                assert snap["replication.follower.lagger.lag_versions"] == 0
                assert snap["replication.follower.lagger.lag_seconds"] == 0.0
                assert snap["replication.gc_floor"] == head
                # Induce lag: two publishes age on the fake clock while
                # the follower fetches nothing.
                _Clock.now += 5.0
                publisher.publish([deltas[1]])  # stamped at t=105
                _Clock.now += 7.0
                publisher.publish([deltas[2]])  # stamped at t=112
                _Clock.now += 3.0               # readout time t=115
                # Any follower interaction refreshes every lag gauge —
                # here a second follower registering at the head.
                with SyncLogClient.connect(host, port,
                                           follower_id="probe") as probe:
                    probe.register(since=log.last_version)
                    snap = registry.snapshot()
                    assert snap["replication.followers"] == 2
                    assert snap[
                        "replication.follower.lagger.lag_versions"] == \
                        log.last_version - head
                    # Oldest unconsumed publish is deltas[1] at t=105.
                    assert snap[
                        "replication.follower.lagger.lag_seconds"] == \
                        pytest.approx(10.0)
                    assert snap[
                        "replication.follower.probe.lag_versions"] == 0
                    # The slowest registered follower pins the GC floor.
                    assert snap["replication.gc_floor"] == head
                    # Catching up zeroes both gauges again.
                    assert len(lagger.fetch(head)) == 2
                    lagger.fetch(log.last_version)
                    snap = registry.snapshot()
                    assert snap[
                        "replication.follower.lagger.lag_versions"] == 0
                    assert snap[
                        "replication.follower.lagger.lag_seconds"] == 0.0
                    assert snap["replication.gc_floor"] == log.last_version
                    assert snap["replication.publishes"] == 2
                    assert snap["replication.published_deltas"] == 2
                    assert snap["replication.fetches"] >= 3


# ----------------------------------------------------------------------
# remote shard cluster (the end-to-end byte-identity oracle)
# ----------------------------------------------------------------------
class TestRemoteShardCluster:
    def test_remote_cluster_byte_identical_to_single_and_inprocess(
            self, producer_and_deltas, ner, log_dir, open_log):
        """Acceptance gate: rpc.dumps of every serving endpoint response
        is identical across (a) a single store, (b) the in-process
        ClusterService, and (c) a remote-shard cluster whose follower
        workers bootstrapped from SnapshotCatalog snapshot + DeltaLog
        tail — including after a published refresh."""
        producer, deltas = producer_and_deltas
        log = open_log(log_dir, segment_max_bytes=512)
        log.extend(deltas[:2])
        catalog = SnapshotCatalog(log, compact_bytes=1, retain_segments=0)
        catalog.record(OntologyStore.bootstrap(None, deltas[:2]))
        log.append(deltas[2])  # the tail beyond the snapshot

        single = OntologyService(producer, ner=ner,
                                 tagger_options=TAGGER_OPTIONS)
        inproc = ClusterService(num_shards=2, ner=ner,
                                tagger_options=TAGGER_OPTIONS, deltas=deltas)
        concept = producer.find(NodeType.CONCEPT, "marvel superhero movies")

        def endpoint_bytes(service):
            service.record_read("u1", ["iron man", "marvel superhero movies"])
            return [
                dumps(service.tag_documents(DOCS)),
                dumps(service.interpret_queries(QUERIES)),
                dumps(service.neighborhood(concept.node_id, depth=2)),
                dumps(service.concepts_of_entity("hulk")),
                dumps(service.user_interests("u1", k=5)),
                dumps(service.recommend_for_user("u1", k=3)),
                dumps(service.stats()["ontology"]),
            ]

        with PublisherThread(log, catalog) as publisher:
            with RemoteClusterService(publisher.address, num_shards=2,
                                      ner=ner,
                                      tagger_options=TAGGER_OPTIONS
                                      ) as remote:
                assert remote.version == producer.version
                assert endpoint_bytes(single) == endpoint_bytes(inproc) \
                    == endpoint_bytes(remote)
                # A batch published to the log reaches every worker.
                producer.begin_delta("day4")
                producer.add_node(NodeType.EVENT,
                                  "hulk cameo confirmed in new trailer")
                fourth = producer.commit_delta()
                publisher.publish([fourth])
                single.refresh([fourth])
                inproc.refresh([fourth])
                assert remote.refresh([fourth]) == 1
                fresh = [("n", tokenize("hulk cameo confirmed in new trailer"),
                          [])]
                assert dumps(single.tag_documents(fresh)) \
                    == dumps(inproc.tag_documents(fresh)) \
                    == dumps(remote.tag_documents(fresh))
                shards = remote.stats()["shards"]
                assert len(shards) == 2
                assert sum(line["owned"] for line in shards) == \
                    len(producer.store)
                # Catch-up came from the log, not a gap re-bootstrap.
                syncs = [replica.sync(remote.version)
                         for replica in remote.replicas]
                assert all(not line["recovered"] for line in syncs)

    def test_remote_refresh_requires_published_deltas(
            self, producer_and_deltas, ner, log_dir, open_log):
        producer, deltas = producer_and_deltas
        log = open_log(log_dir)
        log.extend(deltas)
        with PublisherThread(log) as publisher:
            with RemoteClusterService(publisher.address, num_shards=2,
                                      ner=ner,
                                      tagger_options=TAGGER_OPTIONS
                                      ) as remote:
                producer.begin_delta("day4")
                producer.add_node(NodeType.EVENT, "unpublished event")
                fourth = producer.commit_delta()
                with pytest.raises(OntologyError, match="publish"):
                    remote.refresh([fourth])  # never written to the log
