"""Crash-state enumeration for the delta log and its snapshot catalog.

A fixed workload runs on an ``fsync=True`` :class:`DeltaLog` with a
:class:`SnapshotCatalog`: appends across several segment rolls, two
``record()`` calls that garbage-collect folded segments, and one
snapshot prune.  Every file-system operation it issues (create, write,
fsync, rename, unlink, truncate) is traced, and after each one the
directory is captured together with the states a power loss could leave
of it, in the model of Pillai et al., "All File Systems Are Not Created
Equal" (OSDI 2014):

* file data not yet fsynced is kept, cut to half, or lost (cut back to
  the file's last fsynced bytes);
* directory operations since that directory's last fsync are undone as
  a suffix, in order.

Every distinct state is reopened with ``DeltaLog`` + ``SnapshotCatalog``
and must (1) open, (2) hold a contiguous stream reaching at least the
last append that had returned, and (3) fold latest snapshot +
``log.read(version)`` ``rpc.dumps``-identical to the oracle store at that
version.  Everything runs in-process on the test's own temp files.

Honours ``REPRO_REPLICATION_ARTIFACTS``: violating states are written
under it for replay.
"""

import itertools
import os
import pathlib
import shutil
import stat

from repro.core import serialize as serialize_module
from repro.core.ontology import AttentionOntology, EdgeType, NodeType
from repro.core.serialize import store_to_dict
from repro.core.store import OntologyStore
from repro.replication import DeltaLog, SnapshotCatalog
from repro.replication import catalog as catalog_module
from repro.replication import log as log_module
from repro.serving.rpc import dumps

SEGMENT_BYTES = 512
DELTAS = 12


def _deltas():
    producer = AttentionOntology()
    deltas = []
    producer.begin_delta("day0")
    concept = producer.add_node(NodeType.CONCEPT, "marvel superhero movies")
    producer.add_edge(producer.add_node(NodeType.CATEGORY, "movies").node_id,
                      concept.node_id, EdgeType.ISA)
    deltas.append(producer.commit_delta())
    for day in range(1, DELTAS):
        producer.begin_delta(f"day{day}")
        entity = producer.add_node(NodeType.ENTITY, f"hero number {day}")
        producer.add_edge(concept.node_id, entity.node_id, EdgeType.ISA)
        producer.update_payload(concept.node_id, {"support": day})
        deltas.append(producer.commit_delta())
    return deltas


def _then_capture(name: str):
    def call(self, *args):
        out = getattr(self._handle, name)(*args)
        self._tracer.capture()
        return out
    return call


class _TracedFile:
    """A writable file object that captures the directory after every
    call that can change what is on disk."""

    def __init__(self, handle, tracer) -> None:
        self._handle, self._tracer = handle, tracer

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    write = _then_capture("write")
    flush = _then_capture("flush")
    truncate = _then_capture("truncate")
    close = _then_capture("close")


class _CrashTracer:
    """Follows the files in ``dirs`` through a traced workload and keeps,
    at every captured point, the crash states the model allows."""

    def __init__(self, dirs) -> None:
        self.dirs = list(dirs)
        self.live: "dict[pathlib.Path, tuple[int, int]]" = {}  # -> (ino, fid)
        self.data: "dict[int, bytes]" = {}  # fid -> bytes last seen
        self.synced: "dict[int, bytes]" = {}  # fid -> bytes at last fsync
        self.durable = {d: {} for d in self.dirs}  # name -> fid at fsync
        self.pending = {d: [] for d in self.dirs}  # dir ops since then
        self.acked = 0  # version of the last append that returned
        self.states: "dict[frozenset, int]" = {}  # state -> max acked
        self.points = 0
        self._fids = itertools.count()

    # -- following the live directory ---------------------------------
    def _sync_live(self) -> None:
        now = {}
        for d in self.dirs:
            for entry in os.scandir(d):
                if entry.is_file():
                    now[pathlib.Path(entry.path)] = entry.inode()
        prev = {path: ino for path, (ino, _fid) in self.live.items()}
        moved = {ino: path for path, ino in prev.items()
                 if now.get(path) != ino}
        live, ops = {}, []
        for path, ino in sorted(now.items()):
            if prev.get(path) == ino:
                live[path] = self.live[path]
            elif ino in moved and moved[ino] not in now:
                src = moved.pop(ino)
                live[path] = (ino, self.live[src][1])
                ops.append((path.parent, ("rename", src.name, path.name,
                                          live[path][1])))
            else:
                live[path] = (ino, next(self._fids))
                ops.append((path.parent, ("create", path.name,
                                          live[path][1])))
        ops += [(path.parent, ("unlink", path.name))
                for path in sorted(set(prev) - set(now))
                if path in moved.values()]
        for directory, op in ops:
            self.pending[directory].append(op)
        self.live = live
        for path, (_ino, fid) in live.items():
            self.data[fid] = path.read_bytes()

    def fsynced(self, fd: int) -> None:
        info = os.fstat(fd)
        if stat.S_ISDIR(info.st_mode):
            for d in self.dirs:
                if os.stat(d).st_ino == info.st_ino:
                    self.durable[d] = {path.name: fid for path, (_i, fid)
                                       in self.live.items()
                                       if path.parent == d}
                    self.pending[d] = []
            return
        for path, (ino, fid) in self.live.items():
            if ino == info.st_ino:
                self.synced[fid] = self.data[fid]

    # -- crash states --------------------------------------------------
    def _content(self, fid: int, mode: str) -> bytes:
        now, synced = self.data[fid], self.synced.get(fid, b"")
        if mode == "kept" or now == synced:
            return now
        if mode == "half" and now.startswith(synced):
            return now[:len(synced) + (len(now) - len(synced)) // 2]
        return synced

    def capture(self) -> None:
        self._sync_live()
        self.points += 1
        root = self.dirs[0]
        for kept in itertools.product(*(range(len(self.pending[d]) + 1)
                                        for d in self.dirs)):
            entries = []
            for d, count in zip(self.dirs, kept):
                names = dict(self.durable[d])
                for op in self.pending[d][:count]:
                    if op[0] == "create":
                        names[op[1]] = op[2]
                    elif op[0] == "rename":
                        names.pop(op[1], None)
                        names[op[2]] = op[3]
                    else:
                        names.pop(op[1], None)
                entries += [((d / name).relative_to(root), fid)
                            for name, fid in names.items()]
            for mode in ("kept", "half", "lost"):
                state = frozenset((str(rel), self._content(fid, mode))
                                  for rel, fid in entries)
                self.states[state] = max(self.states.get(state, 0),
                                         self.acked)


def _trace_workload(monkeypatch, root: pathlib.Path, deltas):
    log_dir = root / "log"
    (log_dir / "snapshots").mkdir(parents=True)
    tracer = _CrashTracer([log_dir, log_dir / "snapshots"])
    real_fsync, real_replace = os.fsync, os.replace
    real_unlink = pathlib.Path.unlink

    def fsync(fd):
        tracer.capture()
        real_fsync(fd)
        tracer.fsynced(fd)
        tracer.capture()

    def replace(src, dst):
        tracer.capture()
        real_replace(src, dst)
        tracer.capture()

    def unlink(path, *args, **kwargs):
        tracer.capture()
        real_unlink(path, *args, **kwargs)
        tracer.capture()

    def traced_open(file, mode="r", *args, **kwargs):
        handle = open(file, mode, *args, **kwargs)
        if not set(mode) & set("wax+"):
            return handle
        tracer.capture()
        return _TracedFile(handle, tracer)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    monkeypatch.setattr(pathlib.Path, "unlink", unlink)
    for module in (log_module, catalog_module, serialize_module):
        monkeypatch.setattr(module, "open", traced_open, raising=False)

    log = DeltaLog(log_dir, segment_max_bytes=SEGMENT_BYTES, fsync=True)
    catalog = SnapshotCatalog(log, compact_bytes=1, retain_segments=1,
                              retain_snapshots=1)
    for upto, delta in enumerate(deltas, start=1):
        assert log.append(delta)
        tracer.acked = delta.version
        if upto in (5, 9):  # two folds with GC; the second prunes
            catalog.record(OntologyStore.bootstrap(None, deltas[:upto]))
    log.close()
    monkeypatch.undo()
    assert len(list(log_dir.glob("seg-*.jsonl"))) < len(deltas) // 2, \
        "the workload must roll and garbage-collect segments"
    return tracer


def _check(log_dir: pathlib.Path, acked: int, oracle: dict) -> None:
    log = DeltaLog(log_dir, segment_max_bytes=SEGMENT_BYTES, fsync=True)
    catalog = SnapshotCatalog(log, compact_bytes=1, retain_segments=1,
                              retain_snapshots=1)
    version = log.first_version
    for delta in log.read(log.first_version):
        assert delta.base_version == version, f"stream gap at {version}"
        version = delta.version
    assert version == log.last_version, \
        f"stream ends at {version}, log claims {log.last_version}"
    assert log.last_version >= acked, \
        f"log ends at {log.last_version}, append {acked} was acked"
    snapshot, snap_version = catalog.latest()
    store = OntologyStore.bootstrap(snapshot, log.read(snap_version))
    assert store.version == log.last_version, \
        f"fold reaches {store.version}, log {log.last_version}"
    assert dumps(store_to_dict(store)) == oracle[store.version], \
        f"fold at version {store.version} differs from the oracle"
    log.close()


def _violation(log_dir: pathlib.Path, acked: int, oracle: dict):
    """The first rule the state at ``log_dir`` breaks, or ``None``."""
    try:
        _check(log_dir, acked, oracle)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def _materialize(state, root: pathlib.Path) -> pathlib.Path:
    shutil.rmtree(root, ignore_errors=True)
    (root / "snapshots").mkdir(parents=True)
    for rel, data in state:
        (root / rel).write_bytes(data)
    return root


def test_every_crash_state_reopens_to_the_acked_stream(monkeypatch,
                                                        tmp_path):
    deltas = _deltas()
    oracle = {0: dumps(store_to_dict(OntologyStore()))}
    for upto in range(1, len(deltas) + 1):
        store = OntologyStore.bootstrap(None, deltas[:upto])
        oracle[store.version] = dumps(store_to_dict(store))

    tracer = _trace_workload(monkeypatch, tmp_path / "work", deltas)
    violations = []
    for state, acked in tracer.states.items():
        problem = _violation(_materialize(state, tmp_path / "state"),
                             acked, oracle)
        if problem:
            violations.append((problem, state))
    artifacts = os.environ.get("REPRO_REPLICATION_ARTIFACTS")
    for index, (_problem, state) in enumerate(violations[:5]):
        if artifacts:
            _materialize(state, pathlib.Path(artifacts)
                         / f"crash-state-{index}")
    print(f"\n{len(tracer.states)} distinct crash states from "
          f"{tracer.points} captured points, {len(violations)} violating")
    assert tracer.points > 100 and len(tracer.states) > 50
    assert not violations, (
        f"{len(violations)} of {len(tracer.states)} crash states violate: "
        + "; ".join(f"{problem} [{', '.join(sorted(n for n, _ in state))}]"
                    for problem, state in violations[:5]))
