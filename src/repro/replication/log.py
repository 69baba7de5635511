"""DeltaLog: a durable, segmented write-ahead log of ontology deltas.

The builder's :class:`~repro.core.store.OntologyDelta` batches are the
system of record (DESIGN.md §4); this module gives them a crash-safe
on-disk form a serving fleet can be fed from:

* **Segments** — deltas append to ``seg-<base_version:012d>.jsonl``
  files (one canonical JSON line per delta,
  :func:`~repro.core.serialize.delta_to_json_line`); when the active
  segment would exceed ``segment_max_bytes`` the log rolls to a new one
  named by the version it starts at.  Whole segments are the unit of
  retention: the catalog garbage-collects folded segments, never
  individual records.
* **Names are the metadata** — the sorted ``seg-*.jsonl`` listing is
  the segment list and each file name is its segment's base version, so
  there is no second copy to keep in sync: opening a log lists the
  directory and scans the segments, and a clean reopen writes nothing.
* **Contiguity on append** — the log accepts exactly the stream
  discipline :meth:`OntologyStore.apply_delta` enforces: a batch must
  start at the log's last version (duplicates are skipped, gaps and
  straddling batches raise :class:`~repro.errors.DeltaGapError`), so a
  retained log prefix is always replayable.
* **Crash recovery** — a writer killed mid-append leaves a torn last
  line; :meth:`recover` (run automatically on open) truncates the
  segment back to its last intact, contiguous record, so replay after a
  crash reproduces exactly the committed prefix.
* **fsync-on-commit** — with ``fsync=True`` every append flushes and
  fsyncs before returning, a roll fsyncs the sealed segment before it
  creates the next one and fsyncs the directory, and GC unlinks the
  oldest segments first and then fsyncs the directory, so a power loss
  part-way leaves a contiguous suffix of segments — still a valid log.
  The default only flushes to the OS, which survives process crashes
  but not power loss.

One process writes; any number of readers consume via :meth:`read`
range reads (the publisher), or out-of-process through
:class:`~repro.replication.publisher.LogPublisher`.
"""

from __future__ import annotations

import bisect
import errno
import os
import pathlib
from dataclasses import dataclass, field
from typing import Iterable

from ..core.serialize import delta_from_json_line, delta_to_json_line
from ..core.store import OntologyDelta
from ..errors import DeltaGapError, OntologyError

_SEGMENT_GLOB = "seg-*.jsonl"


def fsync_dir(path: "str | os.PathLike") -> None:
    """Make a directory's entries (creates, renames, unlinks) durable.

    Only a platform that cannot fsync a directory is tolerated (no
    directory fds, or ``EINVAL`` from fsync); any other error, ``EIO``
    included, raises — the entries may not be on disk.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # platform without directory fds
        return
    try:
        os.fsync(fd)
    except OSError as exc:
        if exc.errno != errno.EINVAL:
            raise
    finally:
        os.close(fd)


def reject_manifest_layout(directory: pathlib.Path) -> None:
    """Refuse a directory written by the older manifest layout, whose
    ordinal segment names (``seg-000001.jsonl``) would otherwise read as
    base versions and be truncated as non-contiguous."""
    for name in ("MANIFEST.json", "CATALOG.json"):
        if (directory / name).exists():
            raise OntologyError(
                f"{directory} holds {name}: it was written by the older "
                f"manifest-based log format, which this version does not "
                f"read — rebuild into a fresh directory")


def _segment_name(base_version: int) -> str:
    return f"seg-{base_version:012d}.jsonl"


def _segment_base(name: str) -> int:
    digits = name[len("seg-"):-len(".jsonl")]
    if len(digits) != 12 or not digits.isdigit():
        raise OntologyError(
            f"{name} is not a seg-<base_version:012d>.jsonl segment")
    return int(digits)


@dataclass
class SegmentInfo:
    """Bookkeeping for one segment file."""

    name: str
    base_version: int  # log version before the segment's first delta
    end_version: int  # log version after the segment's last delta
    size_bytes: int
    deltas: int
    # In-memory record index: (record base_version, byte offset) per
    # retained record, in order — lets duplicate verification seek one
    # line instead of re-parsing the segment.
    index: "list[tuple[int, int]]" = field(default_factory=list,
                                           repr=False, compare=False)

    def describe(self) -> dict:
        return {
            "name": self.name,
            "base_version": self.base_version,
            "end_version": self.end_version,
            "size_bytes": self.size_bytes,
            "deltas": self.deltas,
        }


class DeltaLog:
    """Segmented, append-only delta log in a directory.

    Args:
        path: log directory (created if missing, unless read-only).
        segment_max_bytes: roll to a new segment once the active one
            holds at least one record and the next append would push it
            past this size.
        fsync: fsync every committed append (power-loss durability).
        readonly: open without writing anything — no tail truncation,
            no first segment created in an empty directory — and with
            every mutator disabled.  This is the mode for a
            *reader of someone else's log* (``serve --from-log`` next
            to a live builder): a half-written in-flight record is
            simply ignored instead of being mistaken for a torn write
            and truncated out from under the writer's append handle.
    """

    def __init__(self, path: "str | os.PathLike", *,
                 segment_max_bytes: int = 1 << 20,
                 fsync: bool = False, readonly: bool = False) -> None:
        if segment_max_bytes <= 0:
            raise OntologyError("segment_max_bytes must be positive")
        self.path = pathlib.Path(path)
        self._readonly = readonly
        if readonly:
            if not self.path.is_dir():
                raise OntologyError(
                    f"no delta log directory at {self.path}")
        else:
            self.path.mkdir(parents=True, exist_ok=True)
        reject_manifest_layout(self.path)
        self._segment_max_bytes = segment_max_bytes
        self._fsync = fsync
        self._segments: list[SegmentInfo] = []
        self._handle = None  # append handle for the active segment
        self._closed = False
        self.last_recovery: dict = {}
        self.recover()

    # ------------------------------------------------------------------
    # open / recover
    # ------------------------------------------------------------------
    def recover(self) -> dict:
        """Scan the segments, repair a torn tail, rebuild bookkeeping.

        The sorted ``seg-*.jsonl`` listing is the segment list and each
        file name gives its segment's base version; every segment must
        start where the previous one ended.  Returns a report
        ``{"segments", "dropped_lines", "dropped_ops",
        "truncated_bytes"}``; the same dict is kept on
        :attr:`last_recovery`.  A torn (partially written) last line of
        the final segment — the only damage a killed writer can inflict
        — is truncated away; an empty directory gets its first segment.
        A read-only log performs the same analysis without writing: the
        torn/in-flight tail is excluded from the readable range.
        """
        self._release_handle()
        names = sorted(p.name for p in self.path.glob(_SEGMENT_GLOB))
        report = {"segments": 0, "dropped_lines": 0, "dropped_ops": 0,
                  "truncated_bytes": 0}
        self._segments = []
        for index, name in enumerate(names):
            base = _segment_base(name)
            if self._segments and base != self.last_version:
                raise OntologyError(
                    f"delta log segment {name} starts at version {base}, "
                    f"expected {self.last_version} — segments are not "
                    f"contiguous"
                )
            self._segments.append(self._scan_segment(
                name, base, index == len(names) - 1, report))
        if not self._segments and self._readonly:
            self._segments.append(SegmentInfo(_segment_name(0), 0, 0, 0, 0))
        elif not self._segments:
            self._start_segment(0)
        report["segments"] = len(self._segments)
        self.last_recovery = report
        return report

    def _scan_segment(self, name: str, base_version: int, is_last: bool,
                      report: dict) -> SegmentInfo:
        """Parse one segment; on the last segment, truncate a torn or
        non-contiguous tail back to the last good record."""
        path = self.path / name
        raw = path.read_bytes()
        version = base_version
        good_bytes = 0
        deltas = 0
        offset = 0
        index: "list[tuple[int, int]]" = []
        while offset < len(raw):
            newline = raw.find(b"\n", offset)
            if newline < 0:
                break  # unterminated tail — torn write
            line = raw[offset:newline].decode("utf-8", errors="replace")
            try:
                delta = delta_from_json_line(line)
            except (ValueError, KeyError, OntologyError):
                break  # torn/corrupt record: keep the prefix before it
            if delta.base_version != version or \
                    delta.base_version + len(delta.ops) != delta.version:
                break  # non-contiguous record cannot be part of the log
            index.append((delta.base_version, offset))
            version = delta.version
            deltas += 1
            offset = newline + 1
            good_bytes = offset
        if good_bytes < len(raw):
            if not is_last:
                raise OntologyError(
                    f"delta log segment {name} is corrupt mid-log (only "
                    f"the newest segment can hold a torn tail); restore "
                    f"it or drop the log directory"
                )
            dropped = raw[good_bytes:]
            report["dropped_lines"] += dropped.count(b"\n") + (
                0 if dropped.endswith(b"\n") else 1)
            report["truncated_bytes"] += len(dropped)
            for line in dropped.split(b"\n"):
                try:
                    torn = delta_from_json_line(line.decode("utf-8"))
                except Exception:
                    continue
                report["dropped_ops"] += len(torn.ops)
            if not self._readonly:
                # A read-only opener leaves the tail alone — it may be
                # the writer's in-flight append, not a torn write.
                with open(path, "r+b") as handle:
                    handle.truncate(good_bytes)
                    if self._fsync:
                        os.fsync(handle.fileno())
        return SegmentInfo(name, base_version, version, good_bytes,
                           deltas, index)

    # ------------------------------------------------------------------
    # bounds / introspection
    # ------------------------------------------------------------------
    @property
    def fsync(self) -> bool:
        """Whether this log fsyncs its commits (the power-loss
        durability the snapshot catalog matches before segment GC)."""
        return self._fsync

    @property
    def first_version(self) -> int:
        """Version before the earliest retained delta (0 until GC)."""
        return self._segments[0].base_version

    @property
    def last_version(self) -> int:
        """Version after replaying every retained delta."""
        return self._segments[-1].end_version

    def segments(self) -> "list[SegmentInfo]":
        return list(self._segments)

    def size_bytes(self) -> int:
        return sum(seg.size_bytes for seg in self._segments)

    def __len__(self) -> int:
        """Number of retained deltas."""
        return sum(seg.deltas for seg in self._segments)

    def describe(self) -> dict:
        return {
            "path": str(self.path),
            "first_version": self.first_version,
            "last_version": self.last_version,
            "segments": [seg.describe() for seg in self._segments],
            "size_bytes": self.size_bytes(),
        }

    # ------------------------------------------------------------------
    # append
    # ------------------------------------------------------------------
    def append(self, delta: OntologyDelta) -> bool:
        """Commit one delta; returns ``False`` for an already-retained
        duplicate (at-least-once producers are safe).

        Raises :class:`DeltaGapError` when the batch does not continue
        the log's stream (a gap or a straddling batch), and
        :class:`OntologyError` for an internally inconsistent batch or
        a *divergent* one — a batch claiming an already-retained version
        range with different content, e.g. a fresh build appending into
        an old log directory — both *before* any byte is written.
        """
        self._ensure_open()
        if delta.base_version + len(delta.ops) != delta.version:
            raise OntologyError(
                f"delta is internally inconsistent: {len(delta.ops)} ops "
                f"cannot advance version {delta.base_version} to "
                f"{delta.version}"
            )
        if not DeltaGapError.check("log", self.last_version, delta):
            self._verify_duplicate(delta)
            return False
        line = delta_to_json_line(delta) + "\n"
        data = line.encode("utf-8")
        active = self._segments[-1]
        if active.size_bytes and active.size_bytes + len(data) > \
                self._segment_max_bytes:
            self._roll()
            active = self._segments[-1]
        handle = self._active_handle()
        handle.write(data)
        handle.flush()
        if self._fsync:
            os.fsync(handle.fileno())
        active.index.append((delta.base_version, active.size_bytes))
        active.size_bytes += len(data)
        active.end_version = delta.version
        active.deltas += 1
        return True

    def extend(self, deltas: "Iterable[OntologyDelta]") -> int:
        """Append a batch sequence; returns how many were new."""
        return sum(1 for delta in deltas if self.append(delta))

    def _verify_duplicate(self, delta: OntologyDelta) -> None:
        """A skipped "duplicate" must MATCH the retained record at its
        range.  A producer whose stream diverged — rebuilding into an
        existing log directory is the classic case — would otherwise
        silently lose its batches while the log pretends to hold them
        (and a later snapshot would poison the directory for good).

        The per-segment record index makes this one seek + line read
        per duplicate, so at-least-once full-stream re-delivery stays
        linear; the format is canonical JSON, so byte comparison is an
        exact content comparison.
        """
        segment = None
        for seg in self._segments:
            if seg.base_version <= delta.base_version < seg.end_version:
                segment = seg
                break
        if segment is None:
            return  # range already folded into a snapshot and GC'd
        at = bisect.bisect_right(segment.index,
                                 (delta.base_version, 1 << 62)) - 1
        retained_base, offset = segment.index[at]
        mismatch = retained_base != delta.base_version
        if not mismatch:
            with open(self.path / segment.name, "rb") as handle:
                handle.seek(offset)
                retained_line = handle.readline().rstrip(b"\n")
            mismatch = retained_line != delta_to_json_line(
                delta).encode("utf-8")
        if mismatch:
            raise OntologyError(
                f"delta {delta.base_version}..{delta.version} conflicts "
                f"with the retained record at version {retained_base}: "
                f"this log holds a different delta stream (rebuilding "
                f"into an existing log directory?) — use a fresh directory"
            )

    def _roll(self) -> None:
        self._release_handle()  # the sealed segment is durable first
        self._start_segment(self.last_version)

    def _start_segment(self, version: int) -> None:
        """Create an empty active segment at ``version`` and make its
        name durable."""
        self._segments.append(
            SegmentInfo(_segment_name(version), version, version, 0, 0))
        self._active_handle()
        if self._fsync:
            fsync_dir(self.path)

    def _active_handle(self):
        if self._handle is None:
            self._handle = open(self.path / self._segments[-1].name, "ab")
        return self._handle

    def _release_handle(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            if self._fsync:
                os.fsync(self._handle.fileno())
            self._handle.close()
            self._handle = None

    def _ensure_open(self) -> None:
        if self._closed:
            raise OntologyError("the delta log is closed")
        if self._readonly:
            raise OntologyError("the delta log was opened read-only")

    # ------------------------------------------------------------------
    # range reads
    # ------------------------------------------------------------------
    def read(self, since: int = 0,
             max_count: "int | None" = None) -> "list[OntologyDelta]":
        """Deltas advancing a consumer at version ``since``, in order.

        Raises :class:`DeltaGapError` when the log's retained prefix
        starts *after* ``since`` (the needed deltas were garbage-
        collected) — the consumer must re-bootstrap from a snapshot.
        """
        if since < self.first_version:
            raise DeltaGapError.for_stream("log reader", since,
                                           self.first_version)
        out: list[OntologyDelta] = []
        for seg in self._segments:
            if seg.end_version <= since:
                continue
            parsed = 0
            with open(self.path / seg.name, encoding="utf-8") as handle:
                for line in handle:
                    if parsed >= seg.deltas:
                        break  # past the validated prefix: a torn or
                        # in-flight tail a read-only open left in place
                    line = line.strip()
                    if not line:
                        continue
                    delta = delta_from_json_line(line)
                    parsed += 1
                    if delta.version <= since:
                        continue
                    out.append(delta)
                    if max_count is not None and len(out) >= max_count:
                        return out
        return out

    # ------------------------------------------------------------------
    # retention
    # ------------------------------------------------------------------
    def drop_segments_before(self, version: int,
                             retain_tail: int = 0) -> "list[str]":
        """Garbage-collect sealed segments fully folded into a snapshot
        at ``version``, keeping the newest ``retain_tail`` of them so
        followers slightly behind the snapshot can still catch up from
        the log instead of re-bootstrapping.  The active segment is
        never dropped.  Returns the names removed.
        """
        self._ensure_open()
        candidates = [seg for seg in self._segments[:-1]
                      if seg.end_version <= version]
        if retain_tail > 0:
            candidates = candidates[:-retain_tail] if \
                len(candidates) > retain_tail else []
        if not candidates:
            return []
        dropped = [seg.name for seg in candidates]
        del self._segments[:len(dropped)]
        for name in dropped:  # oldest first: a crash part-way leaves a
            (self.path / name).unlink()  # contiguous suffix, a valid log
        if self._fsync:
            fsync_dir(self.path)
        return dropped

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def sync(self) -> None:
        """Flush and fsync the active segment (regardless of ``fsync``)."""
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._release_handle()

    def __enter__(self) -> "DeltaLog":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
