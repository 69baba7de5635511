"""The online audit log: stamped observations vs. the delta-log oracle.

:class:`AuditLog` is a *follower* of the published delta log (it
registers as ``"auditor"``, so segment GC waits for it like any other
consumer) that maintains a private single-store
:class:`~repro.serving.service.OntologyService` — the oracle.  Each
stamped observation ``(session, method, args, result, stamp)`` handed to
:meth:`observe` is checked online:

1. the stamp must be present and echo the session id;
2. the stamp's version must be >= the session's previous stamp
   (**monotonic reads**);
3. the oracle is advanced to the stamped version by polling the log
   (the stamp names the exact state the serving side claims it
   answered from — the micro-batcher serializes reads against refresh,
   so a stamp never lands mid-batch);
4. the observed payload must byte-equal (``rpc.dumps``) the oracle's
   answer — for profile/story *writes* the call is applied to the
   oracle and its return value compared, which is what makes the
   session's later reads **read-your-writes** checkable; a scatter
   merge torn across versions equals the oracle at *no* version and
   surfaces here as a **version-consistency** violation.

An observation stamped *behind* the oracle (a concurrent session
already dragged the oracle forward) cannot be value-checked against
history — it still gets the monotonic check and is counted in
``unchecked``.  Violations are recorded on the
:class:`~repro.obs.recorder.FlightRecorder` (kind ``audit.violation``,
an anomaly — the surrounding ring dumps) and kept on
:attr:`AuditLog.violations` for the campaign's artifact.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from ..core.store import OntologyStore
from ..errors import ReproError
from ..obs.metrics import MetricsRegistry, get_registry
from ..obs.recorder import get_recorder
from ..replication.follower import LogFollower, SyncLogClient
from ..serving.rpc import dumps
from ..serving.service import OntologyService

#: Methods that mutate serving-side session state (profiles / story
#: tracker).  They are *applied* to the oracle rather than compared
#: read-only, so the oracle carries every session's writes in arrival
#: order — the precondition for read-your-writes checking.
WRITE_METHODS = frozenset({"record_read", "track_events"})

#: Methods whose payloads are telemetry, not serving answers — stamped
#: observations of these get the session checks but no value check.
UNCHECKED_METHODS = frozenset({"stats", "obs_status", "obs_watch",
                               "obs_dump", "refresh"})

#: Profile/story endpoints: a divergence here is the session failing to
#: see its own writes; anywhere else it is a torn or stale merge.
_SESSION_SCOPED = frozenset({"record_read", "track_events",
                             "user_interests", "recommend_for_user",
                             "follow_ups"})


@dataclasses.dataclass
class Violation:
    """One audited guarantee broken, with enough context to shrink."""

    kind: str          # monotonic-reads | read-your-writes | ...
    session: str
    method: str
    version: int       # the stamped version (or -1 when unstamped)
    detail: str

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


class AuditLog:
    """Online session-guarantee checker against the published log.

    Args:
        publisher_address: ``(host, port)`` of the
            :class:`~repro.replication.publisher.LogPublisher` that is
            the campaign's system of record.
        ner / duet / tagger_options: the serving stack configuration the
            cluster under test runs with — the oracle must tag and
            interpret with the same models to be byte-comparable.
        follower_id: the auditor's name in the publisher's follower
            table; registering pins the segment-GC floor so the oracle
            can always fetch the tail it still needs (call
            :meth:`catch_up` before a campaign GCs the log on purpose).
        registry: metrics registry for the ``audit`` scope.
    """

    def __init__(self, publisher_address: "tuple[str, int]", *,
                 ner=None, duet=None,
                 tagger_options: "dict[str, Any] | None" = None,
                 follower_id: str = "auditor",
                 registry: "MetricsRegistry | None" = None) -> None:
        host, port = publisher_address
        registry = registry if registry is not None else get_registry()
        self._metrics = registry.scope("audit")
        self._observed = self._metrics.counter("observed")
        self._violations_counter = self._metrics.counter("violations")
        self._unchecked = self._metrics.counter("unchecked")
        self._client = SyncLogClient.connect(host, port,
                                             follower_id=follower_id)

        def oracle_over(head: OntologyStore) -> OntologyService:
            if self._follower.replica is not None:
                # The auditor pins the GC floor, so a gap is a hard
                # auditing error, not a recoverable follower condition:
                # a rebuilt oracle would have lost every session's
                # writes.
                raise ReproError(
                    "the log was GC'd past the auditor's pinned position; "
                    "the oracle cannot be rebuilt mid-campaign")
            return OntologyService(head, ner=ner, duet=duet,
                                   tagger_options=tagger_options,
                                   registry=registry)

        self._follower = LogFollower(self._client, oracle_over)
        self._follower.bootstrap()
        self._sessions: "dict[str, int]" = {}
        self.violations: "list[Violation]" = []

    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Store version the oracle currently holds."""
        return self.oracle.version

    @property
    def oracle(self) -> OntologyService:
        return self._follower.replica

    def catch_up(self) -> int:
        """Advance the oracle to the log head (and move the auditor's
        GC-floor pin there).  A campaign calls this *before* forcing a
        log GC, so the fault never collides with the auditor's own
        tail."""
        return self._follower.poll()

    def close(self) -> None:
        self._client.close()

    # ------------------------------------------------------------------
    def observe(self, session: str, method: str, args: tuple,
                kwargs: dict, result: Any,
                stamp: "dict | None") -> "Violation | None":
        """Check one stamped call against the session guarantees;
        returns the violation (already recorded) or ``None``."""
        self._observed.inc()
        session = str(session)
        if stamp is None or "version" not in stamp:
            return self._flag("unstamped", session, method, -1,
                              "the serving side answered without a "
                              "stamp; stamped reads are the auditor's "
                              "only observable")
        version = int(stamp["version"])
        if stamp.get("session") != session:
            return self._flag("session-mismatch", session, method, version,
                              f"stamp echoed session "
                              f"{stamp.get('session')!r}")
        last = self._sessions.get(session)
        self._sessions[session] = max(version, last or 0)
        if last is not None and version < last:
            return self._flag(
                "monotonic-reads", session, method, version,
                f"session went backwards: previous read was stamped "
                f"{last}, this one {version}")
        if method in UNCHECKED_METHODS:
            return None
        if version < self.oracle.version:
            # A concurrent session already advanced the oracle past this
            # stamp; history is gone, so only the session checks above
            # apply.  (Campaign write ops serialize, so writes are never
            # skipped — a skipped *write* would poison later checks.)
            if method in WRITE_METHODS:
                raise ReproError(
                    f"audit write {method} stamped {version} behind the "
                    f"oracle ({self.oracle.version}); the campaign must "
                    f"serialize writes")
            self._unchecked.inc()
            return None
        self._advance(version)
        try:
            expected = getattr(self.oracle, method)(*args, **kwargs)
        except Exception as exc:
            return self._flag("oracle-error", session, method, version,
                              f"the oracle refused the call: {exc!r}")
        if dumps(result) != dumps(expected):
            kind = "read-your-writes" if method in _SESSION_SCOPED \
                else "value-divergence"
            return self._flag(
                kind, session, method, version,
                f"payload diverges from the oracle at version {version} "
                f"(got {dumps(result)[:160]!r}..., oracle "
                f"{dumps(expected)[:160]!r}...)")
        return None

    # ------------------------------------------------------------------
    def _advance(self, target: int) -> None:
        """Replay the log into the oracle up to exactly ``target``."""
        while self.oracle.version < target:
            if not self._follower.poll(upto=target):
                raise ReproError(
                    f"a read was stamped at version {target} but the "
                    f"published log replays to {self.oracle.version} and "
                    f"no batch ends at the stamp — the serving side "
                    f"claims state the system of record does not have "
                    f"(stamps must land on batch boundaries)")

    def _flag(self, kind: str, session: str, method: str, version: int,
              detail: str) -> Violation:
        violation = Violation(kind=kind, session=session, method=method,
                              version=version, detail=detail)
        self.violations.append(violation)
        self._violations_counter.inc()
        get_recorder().record("audit.violation", f"session-{session}",
                              violation=kind, method=method,
                              version=version, detail=detail)
        return violation
