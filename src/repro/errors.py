"""Exception hierarchy for the repro (GIANT reproduction) library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch a single base class at API boundaries.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """Raised when a configuration value is invalid or inconsistent."""


class GraphError(ReproError):
    """Raised for malformed click graphs or query-title interaction graphs."""


class OntologyError(ReproError):
    """Raised for invalid ontology operations (cycles, unknown nodes, ...)."""


class DeltaGapError(ReproError):
    """Raised by serving-tier ``refresh``, ``OntologyStore.bootstrap`` and
    the replication log when a delta stream is not contiguous with the
    consumer's version: either versions are *missing* (a gap) or a batch
    *straddles* the consumer's version (an overlap — part of the batch is
    already folded into the state, so replaying it would double-apply)."""

    @classmethod
    def for_stream(cls, role: str, at_version: int,
                   base_version: int) -> "DeltaGapError":
        """The standard gap message shared by every refresh path."""
        return cls(
            f"delta stream gap: {role} is at version {at_version} but "
            f"the next delta starts at {base_version}; missing versions "
            f"{at_version + 1}..{base_version}"
        )

    @classmethod
    def check(cls, role: str, at_version: int, delta) -> bool:
        """The shared stream-contiguity guard every delta consumer
        applies before touching state: returns ``False`` when ``delta``
        is a fully-covered duplicate (skip it), ``True`` when it starts
        exactly at ``at_version`` (apply it), and raises the gap or
        overlap error otherwise."""
        if delta.version <= at_version:
            return False
        if delta.base_version > at_version:
            raise cls.for_stream(role, at_version, delta.base_version)
        if delta.base_version < at_version:
            raise cls.for_overlap(role, at_version, delta.base_version,
                                  delta.version)
        return True

    @classmethod
    def for_overlap(cls, role: str, at_version: int, base_version: int,
                    version: int) -> "DeltaGapError":
        """The standard overlap message: a batch whose base version
        predates the consumer's state but whose end is ahead of it —
        versions ``base_version + 1..at_version`` are already applied
        (e.g. folded into a snapshot), so the batch can be neither
        skipped nor replayed."""
        return cls(
            f"delta stream overlap: {role} is at version {at_version} but "
            f"the next delta spans {base_version + 1}..{version}; versions "
            f"{base_version + 1}..{at_version} are already applied and "
            f"would double-apply — re-fetch a tail starting at "
            f"{at_version}"
        )


class RingEpochError(DeltaGapError):
    """Raised when a single-shard follower meets a ring-epoch flip it
    cannot apply locally: the new consistent-hash placement moves node
    records *into* its shard, and their state lives on other shards.
    Subclasses :class:`DeltaGapError` because the recovery is the same —
    re-bootstrap from the newest snapshot plus the log tail, which
    crosses the flip with the full store in hand."""


class ShardUnavailableError(ReproError):
    """Raised when a shard worker's connection fails mid-call — the
    socket broke, the peer closed it, or the worker process died.  The
    typed error (instead of a raw ``OSError`` escaping to the serving
    caller) carries the shard id so the cluster's recovery path knows
    which worker to respawn before retrying the read."""

    def __init__(self, shard_id: int, message: str) -> None:
        super().__init__(message)
        self.shard_id = shard_id


class SegmentIntegrityError(OntologyError):
    """Raised when a columnar segment (a packed store segment or a binary
    message) fails structural validation — bad magic, an
    unsupported format version, a footer checksum mismatch, or
    truncation.  Named so corruption surfaces as a typed refusal instead
    of a struct unpack traceback; recovery is to re-fetch, never to
    trust partial columns."""


class TrainingError(ReproError):
    """Raised when a model cannot be trained (empty dataset, shape errors)."""


class DecodingError(ReproError):
    """Raised when ATSP decoding cannot produce a valid phrase ordering."""
