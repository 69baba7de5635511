"""The benchmark's own spans, recorded around its calls into each
layer's public functions.  Spans stay in memory until the run ends and
the per-layer numbers are taken from them; a disabled tracer records
nothing."""

from __future__ import annotations

import contextvars
import statistics
import time
from contextlib import contextmanager

_CURRENT = contextvars.ContextVar("bench_span", default=None)


class Tracer:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: "list[dict]" = []

    @contextmanager
    def span(self, name: str, request: "int | None" = None):
        """Record ``name`` from entry to exit.  The parent is the span
        open in this context (asyncio tasks inherit the context they
        were created in, so concurrent requests nest correctly)."""
        if not self.enabled:
            yield
            return
        record = {"id": len(self.spans), "name": name,
                  "parent": _CURRENT.get(), "request": request,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        token = _CURRENT.set(record["id"])
        try:
            yield
        finally:
            _CURRENT.reset(token)
            record["end"] = time.perf_counter()

    def seconds(self, name: str) -> "list[float]":
        return [span["end"] - span["start"] for span in self.spans
                if span["name"] == name]

    def median_ms(self, name: str) -> float:
        return statistics.median(self.seconds(name)) * 1e3

    def nesting_violations(self) -> "list[dict]":
        """Spans that start before or end after their parent."""
        return [span for span in self.spans
                if span["parent"] is not None
                and not (self.spans[span["parent"]]["start"] <= span["start"]
                         and span["end"] <= self.spans[span["parent"]]["end"])]
