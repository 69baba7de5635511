"""SnapshotCatalog: compaction policy and snapshot retention for a log.

A long-running builder appends :class:`~repro.core.store.OntologyDelta`
batches to a :class:`~repro.replication.log.DeltaLog` forever; replaying
that history linearly gets slower every day.  The catalog implements the
retention policy (DESIGN.md §8):

* when the **un-folded prefix** of the log (segments holding deltas
  newer than the latest snapshot) crosses ``compact_bytes``,
  :meth:`maybe_compact` folds the builder's store into a snapshot via
  :meth:`OntologyStore.compact` and records it next to the log;
* folded segments are then **garbage-collected**
  (:meth:`DeltaLog.drop_segments_before`), keeping the newest
  ``retain_segments`` of them so followers slightly behind the snapshot
  catch up from the log instead of re-bootstrapping;
* a bound **GC floor** (:meth:`bind_gc_floor` — typically the
  :class:`~repro.replication.publisher.LogPublisher`'s registered
  follower positions) caps the GC point: segments a registered follower
  still needs are kept past a compaction, so slow followers never fall
  into the snapshot re-bootstrap path just because the builder
  compacted;
* old snapshots beyond ``retain_snapshots`` are pruned.

Every snapshot is a JSON store snapshot
(:func:`~repro.core.serialize.store_to_dict`), the repo's one
whole-ontology format, in ``snapshot-<version:012d>.json``: the sorted
listing is the catalog and each file name gives its snapshot's version.
A snapshot is written to a temp file and renamed into place
(:func:`~repro.core.serialize.write_json_atomic`); the rename is its
commit point, and a writable open unlinks any temp a crash left behind.
On a log opened with ``fsync=True`` the snapshot file and then the
snapshot directory are fsynced before any old snapshot is pruned or
folded segment unlinked, so a power loss can never keep the GC and lose
the snapshot that made it safe.

A follower cold-starts from ``latest()`` snapshot + ``log.read(version)``
tail — :meth:`OntologyStore.bootstrap` — with state identical to a full
replay; the :class:`~repro.replication.publisher.LogPublisher` serves
both halves over RPC.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Callable

from ..core.serialize import write_json_atomic
from ..core.store import OntologyStore
from ..errors import OntologyError
from .log import DeltaLog, fsync_dir, reject_manifest_layout


class SnapshotCatalog:
    """Snapshots recorded alongside a :class:`DeltaLog`.

    Args:
        log: the delta log this catalog manages retention for.
        path: snapshot directory (default ``<log dir>/snapshots``).
        compact_bytes: un-folded log prefix size that triggers
            compaction in :meth:`maybe_compact`.
        retain_segments: folded segments to keep after GC (the catch-up
            tail for slightly-stale followers).
        retain_snapshots: snapshots to keep on disk.
        readonly: open for reading snapshots only — nothing on disk is
            created or modified (``record``/``maybe_compact`` raise),
            matching a read-only :class:`DeltaLog` (the ``serve
            --from-log`` path, which must not touch a directory a live
            builder owns — possibly on a read-only mount).
    """

    def __init__(self, log: DeltaLog, path: "str | os.PathLike | None" = None,
                 *, compact_bytes: int = 256 * 1024,
                 retain_segments: int = 1,
                 retain_snapshots: int = 2,
                 readonly: bool = False) -> None:
        if compact_bytes <= 0:
            raise OntologyError("compact_bytes must be positive")
        if retain_snapshots <= 0:
            raise OntologyError("retain_snapshots must be positive")
        self._log = log
        self._readonly = readonly
        self.path = pathlib.Path(path) if path is not None \
            else log.path / "snapshots"
        if not readonly:
            self.path.mkdir(parents=True, exist_ok=True)
        reject_manifest_layout(self.path)
        if not readonly:
            # A crash between a snapshot's temp write and its rename
            # leaves the temp behind; it was never committed.
            for stale in self.path.glob("snapshot-*.json.tmp"):
                stale.unlink()
        self._compact_bytes = compact_bytes
        self._retain_segments = retain_segments
        self._retain_snapshots = retain_snapshots
        self._gc_floor: "Callable[[], int | None] | None" = None
        self._entries = [
            {"name": snap.name, "version": int(snap.stem[len("snapshot-"):])}
            for snap in sorted(self.path.glob("snapshot-*.json"))]

    def bind_gc_floor(self, provider: "Callable[[], int | None]") -> None:
        """Bind a GC floor provider (e.g. ``LogPublisher.follower_floor``):
        segment GC never drops past the version it returns, so registered
        followers keep a catch-up tail; ``None`` means no registered
        follower constrains GC."""
        self._gc_floor = provider

    def _gc_version(self, version: int) -> int:
        floor = self._gc_floor() if self._gc_floor is not None else None
        return version if floor is None else min(version, floor)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def latest_version(self) -> int:
        """Stream version of the newest snapshot (0 when none exists)."""
        return self._entries[-1]["version"] if self._entries else 0

    def snapshots(self) -> "list[dict]":
        return [dict(entry) for entry in self._entries]

    def latest_entry(self) -> "dict | None":
        """Newest catalog entry (file name and version) without loading
        the snapshot itself."""
        return dict(self._entries[-1]) if self._entries else None

    def latest(self) -> "tuple[dict | None, int]":
        """Newest snapshot document and its version (``(None, 0)`` when
        the catalog is empty — bootstrap then replays the log from 0)."""
        if not self._entries:
            return None, 0
        entry = self._entries[-1]
        data = json.loads((self.path / entry["name"]).read_text())
        return data, entry["version"]

    def unfolded_bytes(self) -> int:
        """Bytes of log segments holding deltas newer than the latest
        snapshot — the prefix a cold follower would have to replay on
        top of it."""
        latest = self.latest_version
        return sum(seg.size_bytes for seg in self._log.segments()
                   if seg.end_version > latest)

    def describe(self) -> dict:
        return {
            "path": str(self.path),
            "latest_version": self.latest_version,
            "snapshots": self.snapshots(),
            "unfolded_bytes": self.unfolded_bytes(),
            "compact_bytes": self._compact_bytes,
        }

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------
    def record(self, store: OntologyStore) -> int:
        """Fold ``store`` into a snapshot now and GC folded segments.

        The store must be a replica of this log's stream (its version is
        the snapshot's position); recording an older-than-latest state
        is rejected.  Returns the snapshot's version.
        """
        if self._readonly:
            raise OntologyError("the snapshot catalog was opened read-only")
        version = store.version
        if version < self.latest_version:
            raise OntologyError(
                f"refusing to record a snapshot at version {version} "
                f"behind the catalog's latest {self.latest_version}"
            )
        if version == self.latest_version and self._entries:
            # Idempotent fold — but a registered follower may have
            # advanced since, so re-evaluate the delayed segment GC.
            self._log.drop_segments_before(self._gc_version(version),
                                           retain_tail=self._retain_segments)
            return version
        name = f"snapshot-{version:012d}.json"
        write_json_atomic(self.path / name, store.compact(),
                          fsync=self._log.fsync)
        self._entries.append({"name": name, "version": version})
        pruned = self._entries[:-self._retain_snapshots]
        self._entries = self._entries[-self._retain_snapshots:]
        if self._log.fsync:
            fsync_dir(self.path)  # the rename durable before any unlink
        for entry in pruned:
            (self.path / entry["name"]).unlink(missing_ok=True)
        self._log.drop_segments_before(self._gc_version(version),
                                       retain_tail=self._retain_segments)
        return version

    def maybe_compact(self, store: OntologyStore) -> "int | None":
        """Compact when the un-folded prefix crossed ``compact_bytes``;
        returns the new snapshot version, or ``None`` when below the
        threshold (or the store has nothing newer than the snapshot)."""
        if store.version <= self.latest_version:
            return None
        if self.unfolded_bytes() < self._compact_bytes:
            return None
        return self.record(store)
