"""Black-box flight recorder for the serving fabric (DESIGN.md §14).

When a check fires in production the question is never "what is the
state now" but "what did the system *do* just before".  The
:class:`FlightRecorder` answers it the way an aircraft recorder does:
every serving layer reports structured events into one bounded ring —
request errors and slow calls (``rpc.py``), scatter stragglers
(``cluster/shards.py``), ring-epoch flips, worker restarts and ``DeltaGapError`` re-bootstraps
(``cluster/remote.py``, ``replication``), view rehydrates
(``views/catalog.py``) — and the ring holds the last N of them at all
times, costing one lock and one deque append per event.

Events are plain dicts ``{seq, ts, kind, component, ...}`` so they ride
the RPC codec unchanged (the ``obs_dump`` method returns the ring).
*Anomalous* kinds additionally trigger an automatic JSON-lines dump of
the whole ring to the recorder directory — rate-limited, so an error
storm produces a few dumps, not thousands — which is what the
fault-injection campaign and CI read to explain a failed check.

Like the tracer, the process-wide recorder is configured lazily from an
environment variable (:data:`RECORDER_DIR_ENV`), so spawned shard
workers inherit the dump directory with zero plumbing; a recorder with
no directory still keeps its ring (``obs_dump`` works, auto-dump is
off).  The clock defaults to :func:`time.time` — event timestamps must
merge across processes — and is injectable for deterministic tests.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Any, Callable

#: Environment variable naming the dump directory.  ``cli serve
#: --recorder-dir`` sets it before spawning shard workers, so every
#: process in the tree dumps into one place.
RECORDER_DIR_ENV = "REPRO_RECORDER_DIR"

#: Event kinds that are anomalies by default: each one is a symptom the
#: fabric recovered from (or failed on) rather than normal operation,
#: so it is worth a dump of the surrounding ring.
ANOMALY_KINDS = frozenset({
    "rpc.error",
    "rpc.slow_call",
    "scatter.straggler",
    "worker.restart",
    "replication.gap_rebootstrap",
    "views.rehydrate",
    "shard.unavailable",
    "audit.violation",
})


class FlightRecorder:
    """A bounded ring of structured events with anomaly-triggered dumps.

    Args:
        recorder_dir: dump directory; ``None`` disables file dumps (the
            ring itself always records).
        process: name stamped on dump filenames and the dump header;
            unique per process within a recorder dir (workers use
            ``shard-<id>``; default ``pid-<pid>``).
        capacity: ring size — how far back a dump can see.
        slow_call_seconds: latency threshold the instrumented call
            sites compare against before reporting ``rpc.slow_call`` /
            ``scatter.straggler`` events.
        min_dump_interval: seconds between *automatic* anomaly dumps
            (explicit :meth:`dump` calls are never limited).
        clock: wall-clock source for event timestamps and dump rate
            limiting; injectable for deterministic tests.
    """

    def __init__(self, recorder_dir: "str | None" = None,
                 process: "str | None" = None, capacity: int = 256,
                 slow_call_seconds: float = 0.5,
                 min_dump_interval: float = 1.0,
                 clock: "Callable[[], float] | None" = None) -> None:
        if capacity <= 0:
            raise ValueError("recorder capacity must be positive")
        self.recorder_dir = recorder_dir
        self.process = process or f"pid-{os.getpid()}"
        self.capacity = capacity
        self.slow_call_seconds = slow_call_seconds
        self.min_dump_interval = min_dump_interval
        self._clock = clock or time.time
        self._lock = threading.RLock()
        self._ring: "deque[dict]" = deque(maxlen=capacity)
        self._seq = 0
        self._last_auto_dump: "float | None" = None
        self.events_recorded = 0
        self.anomalies = 0
        self.dumps_written = 0
        self.last_dump_path: "str | None" = None

    # ------------------------------------------------------------------
    def record(self, kind: str, component: str, *,
               anomaly: "bool | None" = None, **fields: Any) -> dict:
        """Append one event; returns it.

        ``component`` names the part of the fabric the event is about
        (``rpc.server.tag_documents``, ``shard-2``, ``cluster.parent``,
        …) — dumps must *name the failing component*, not just count.
        ``anomaly`` defaults by membership in :data:`ANOMALY_KINDS`;
        anomalous events auto-dump the ring when a recorder dir is
        configured (rate-limited by ``min_dump_interval``).
        """
        if anomaly is None:
            anomaly = kind in ANOMALY_KINDS
        auto_dump = False
        with self._lock:
            self._seq += 1
            event = {"seq": self._seq, "ts": self._clock(), "kind": kind,
                     "component": component, "anomaly": anomaly}
            event.update(fields)
            self._ring.append(event)
            self.events_recorded += 1
            if anomaly:
                self.anomalies += 1
                if self.recorder_dir is not None:
                    now = event["ts"]
                    if (self._last_auto_dump is None or
                            now - self._last_auto_dump
                            >= self.min_dump_interval):
                        self._last_auto_dump = now
                        auto_dump = True
        if auto_dump:
            self.dump(reason=kind)
        return event

    def events(self) -> "list[dict]":
        """The ring's events, oldest first (a copy)."""
        with self._lock:
            return [dict(event) for event in self._ring]

    # ------------------------------------------------------------------
    def dump(self, path: "str | None" = None,
             reason: str = "on-demand") -> "str | None":
        """Write the ring as JSON lines (one header record, then one
        line per event, oldest first); returns the path, or ``None``
        when there is nowhere to write (no dir and no explicit path).
        """
        with self._lock:
            events = [dict(event) for event in self._ring]
            if path is None:
                if self.recorder_dir is None:
                    return None
                path = os.path.join(
                    self.recorder_dir,
                    f"flight-{self.process}-{self.dumps_written + 1}.jsonl")
            header = {"dump": self.dumps_written + 1, "reason": reason,
                      "process": self.process, "ts": self._clock(),
                      "events": len(events)}
            self.dumps_written += 1
            self.last_dump_path = path
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for record in [header] + events:
                fh.write(json.dumps(record, sort_keys=True,
                                    separators=(",", ":")) + "\n")
        return path

    def describe(self) -> "dict[str, Any]":
        with self._lock:
            return {
                "process": self.process,
                "recorder_dir": self.recorder_dir,
                "capacity": self.capacity,
                "slow_call_seconds": self.slow_call_seconds,
                "events_recorded": self.events_recorded,
                "events_held": len(self._ring),
                "anomalies": self.anomalies,
                "dumps_written": self.dumps_written,
                "last_dump_path": self.last_dump_path,
            }


#: The process-wide recorder, created lazily from ``REPRO_RECORDER_DIR``
#: (spawned workers inherit the environment, exactly like the tracer).
_RECORDER: "FlightRecorder | None" = None


def get_recorder() -> FlightRecorder:
    global _RECORDER
    if _RECORDER is None:
        _RECORDER = FlightRecorder(os.environ.get(RECORDER_DIR_ENV) or None)
    return _RECORDER


def configure_recorder(recorder_dir: "str | None" = None,
                       process: "str | None" = None,
                       capacity: int = 256,
                       slow_call_seconds: float = 0.5,
                       min_dump_interval: float = 1.0,
                       clock: "Callable[[], float] | None" = None
                       ) -> FlightRecorder:
    """Replace the process-wide recorder.  Explicit arguments win over
    the environment; ``recorder_dir=None`` disables file dumps."""
    global _RECORDER
    _RECORDER = FlightRecorder(
        recorder_dir, process=process, capacity=capacity,
        slow_call_seconds=slow_call_seconds,
        min_dump_interval=min_dump_interval, clock=clock)
    return _RECORDER
