"""Tests for repro.obs: registry/histogram math, tracing, and the
end-to-end trace propagation across the serving fabric (DESIGN.md §12).

The cross-process test drives a real ``cli serve --remote-shards 4
--listen --trace-dir`` subprocess and asserts one traced request yields
a single connected span tree spanning three process boundaries (client
-> server -> shard workers) while the byte-identity oracle still holds.
"""

import asyncio
import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import threading

import pytest

from repro.core.ontology import AttentionOntology, EdgeType, NodeType
from repro.core.store import OntologyStore
from repro.errors import ReproError
from repro.obs import (
    MetricsRegistry,
    TraceContext,
    Tracer,
    configure_tracer,
    current_context,
    get_registry,
    get_tracer,
    load_spans,
    pop_context,
    push_context,
    write_chrome_trace,
)
from repro.obs.metrics import _GROWTH
from repro.replication import DeltaLog, SnapshotCatalog
from repro.serving import (AsyncOntologyService, OntologyService,
                           RpcClient, RpcServer)
from repro.serving.rpc import dumps
from repro.text.ner import NerTagger
from repro.text.tokenizer import tokenize

ASYNC_TEST_TIMEOUT = 60.0


def run_async(coro, timeout: float = ASYNC_TEST_TIMEOUT):
    """Run ``coro`` under the per-test timeout guard (no hung loops)."""
    return asyncio.run(asyncio.wait_for(coro, timeout))


class FakeClock:
    """Deterministic injectable clock for registry/tracer tests."""

    def __init__(self, now: float = 1000.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


@pytest.fixture
def tracer_sandbox():
    """Restore the process-wide tracer to its disabled default after a
    test that calls configure_tracer."""
    yield
    configure_tracer(None)


# ----------------------------------------------------------------------
# Histogram bucket / percentile math
# ----------------------------------------------------------------------
class TestHistogram:
    def _histogram(self, base: float = 1e-6):
        return MetricsRegistry().histogram("h", base=base)

    def test_empty_state_is_zero(self):
        h = self._histogram()
        assert h.count == 0
        assert h.min == 0.0 and h.max == 0.0
        assert h.percentile(0.5) == 0.0
        assert h.state == {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                           "avg": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_constant_stream_reads_back_exactly(self):
        """Every quantile of a constant stream is the constant itself:
        the bucket upper bound is clamped to the observed [min, max]."""
        h = self._histogram()
        for _ in range(50):
            h.observe(0.123)
        state = h.state
        assert state["count"] == 50
        assert state["min"] == state["max"] == 0.123
        assert state["avg"] == pytest.approx(0.123)
        for q in (0.01, 0.5, 0.95, 0.99, 1.0):
            assert h.percentile(q) == 0.123

    def test_percentiles_bounded_by_min_and_max(self):
        h = self._histogram()
        values = [0.0001 * (i + 1) for i in range(100)]
        for value in values:
            h.observe(value)
        for q in (0.05, 0.5, 0.9, 0.95, 0.99, 1.0):
            p = h.percentile(q)
            assert min(values) <= p <= max(values)
        assert h.percentile(1.0) == max(values)

    def test_percentile_within_one_bucket_of_true_value(self):
        """Log bucketing (~19% width): the reported quantile is never
        below the true value and at most one growth factor above it."""
        h = self._histogram()
        for _ in range(90):
            h.observe(0.001)
        for _ in range(10):
            h.observe(1.0)
        p50 = h.percentile(0.50)
        assert 0.001 <= p50 <= 0.001 * _GROWTH
        # rank(0.99) = 99 > 90 small observations -> the tail bucket,
        # clamped to the exact observed max.
        assert h.percentile(0.99) == 1.0

    def test_count_valued_histogram_base_one(self):
        """Batch-size histograms use base=1.0 so tiny integer counts
        don't all collapse into one microsecond-scale bucket."""
        h = self._histogram(base=1.0)
        for size in (1, 2, 4, 8):
            h.observe(size)
        assert h.min == 1.0 and h.max == 8.0
        p50 = h.percentile(0.5)
        # Within one bucket (<19%) of the true median (2), allowing for
        # float error in the bucket bound (growth**4 = 1.9999999...).
        assert 2.0 / _GROWTH <= p50 <= 2.0 * _GROWTH

    def test_huge_observation_clamps_to_overflow_bucket(self):
        """An absurd value lands in the overflow bucket, but min/max
        (and the clamped percentiles) stay exact."""
        h = self._histogram()
        h.observe(1e30)
        assert h.max == 1e30
        assert h.percentile(0.5) == 1e30

    def test_sum_and_avg_exact(self):
        h = self._histogram()
        for value in (0.25, 0.5, 0.25):
            h.observe(value)
        state = h.state
        assert state["sum"] == pytest.approx(1.0)
        assert state["avg"] == pytest.approx(1.0 / 3.0)

    def test_non_positive_base_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ReproError):
            registry.histogram("bad", base=0.0)


# ----------------------------------------------------------------------
# MetricsRegistry / Scope
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_and_gauge_roundtrip(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        gauge = registry.gauge("depth")
        gauge.set(3.0)
        gauge.add(-1.0)
        assert gauge.value == 2.0

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")
        assert registry.histogram("h", base=1.0) is registry.histogram("h")

    def test_type_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("name")
        with pytest.raises(ReproError):
            registry.gauge("name")
        with pytest.raises(ReproError):
            registry.histogram("name")

    def test_time_contextmanager_with_fake_clock(self):
        clock = FakeClock()
        registry = MetricsRegistry(clock=clock)
        with registry.time("op_seconds"):
            clock.advance(0.25)
        h = registry.histogram("op_seconds")
        assert h.count == 1
        assert h.min == h.max == 0.25
        assert h.percentile(0.5) == 0.25

    def test_time_observes_on_error(self):
        clock = FakeClock()
        registry = MetricsRegistry(clock=clock)
        with pytest.raises(ValueError):
            with registry.time("boom_seconds"):
                clock.advance(1.5)
                raise ValueError("failures have latency too")
        assert registry.histogram("boom_seconds").max == 1.5

    def test_snapshot_sorted_and_json_encodable(self):
        registry = MetricsRegistry(clock=FakeClock())
        registry.counter("z").inc()
        registry.gauge("a").set(1.5)
        with registry.time("m"):
            pass
        snap = registry.snapshot()
        assert list(snap) == sorted(snap)
        assert snap["z"] == 1
        assert snap["a"] == 1.5
        assert snap["m"]["count"] == 1
        json.dumps(snap)  # the obs_status RPC payload must encode

    def test_scope_auto_suffix_per_instance(self):
        registry = MetricsRegistry()
        first = registry.scope("serving")
        second = registry.scope("serving")
        assert first.prefix == "serving"
        assert second.prefix == "serving.2"
        first.counter("requests").inc()
        second.counter("requests").inc(2)
        snap = registry.snapshot()
        assert snap["serving.requests"] == 1
        assert snap["serving.2.requests"] == 2

    def test_scope_snapshot_strips_prefix(self):
        registry = MetricsRegistry()
        scope = registry.scope("cache")
        scope.counter("hits").inc(3)
        child = scope.scope("inner")
        child.counter("misses").inc()
        registry.counter("unrelated").inc()
        snap = scope.snapshot()
        assert snap == {"hits": 3, "inner.misses": 1}

    def test_get_registry_is_process_singleton(self):
        assert get_registry() is get_registry()


# ----------------------------------------------------------------------
# Tracer / TraceContext
# ----------------------------------------------------------------------
class TestTracing:
    def test_disabled_tracer_fast_path_yields_none(self, tmp_path):
        tracer = Tracer(None, process="p")
        with tracer.span("op") as span:
            assert span is None
        assert tracer.spans_written == 0
        assert list(tmp_path.iterdir()) == []

    def test_disabled_tracer_still_propagates_parent(self):
        """A process with no trace dir must still mint child contexts so
        downstream tracing processes log a connected tree."""
        tracer = Tracer(None, process="p")
        parent = TraceContext("t1", "root:1")
        with tracer.span("op", parent=parent) as span:
            assert span is not None
            assert span.ctx.trace_id == "t1"
            assert span.ctx.span_id != "root:1"
            assert current_context() is span.ctx
        assert tracer.spans_written == 0

    def test_enabled_spans_written_with_parent_links(self, tmp_path):
        clock = FakeClock(now=10.0)
        tracer = Tracer(str(tmp_path), process="unit", clock=clock)
        with tracer.span("outer", depth=1) as outer:
            clock.advance(1.0)
            with tracer.span("inner") as inner:
                clock.advance(0.5)
                assert inner.ctx.trace_id == outer.ctx.trace_id
        tracer.close()
        spans = load_spans(str(tmp_path))
        assert [s["name"] for s in spans] == ["inner", "outer"]
        inner_rec, outer_rec = spans
        assert inner_rec["parent"] == outer_rec["span"]
        assert outer_rec["parent"] is None
        assert outer_rec["ts"] == 10.0 and outer_rec["dur"] == 1.5
        assert inner_rec["ts"] == 11.0 and inner_rec["dur"] == 0.5
        assert outer_rec["attrs"] == {"depth": 1}
        assert outer_rec["process"] == "unit"

    def test_span_set_attaches_attributes(self, tmp_path):
        tracer = Tracer(str(tmp_path), process="unit", clock=FakeClock())
        with tracer.span("scatter") as span:
            span.set(straggler=3)
        tracer.close()
        [record] = load_spans(str(tmp_path))
        assert record["attrs"] == {"straggler": 3}

    def test_context_to_wire_roundtrip(self):
        ctx = TraceContext("t-abc", "p:7")
        assert TraceContext.from_wire(ctx.to_wire()) == ctx

    @pytest.mark.parametrize("payload", [
        None, "nope", 7, [], {}, {"tid": "t"}, {"sid": "s"},
        {"tid": 1, "sid": "s"}, {"tid": "t", "sid": None},
    ])
    def test_malformed_wire_context_treated_as_absent(self, payload):
        assert TraceContext.from_wire(payload) is None

    def test_push_pop_context(self):
        assert current_context() is None
        ctx = TraceContext("t", "s")
        token = push_context(ctx)
        assert current_context() is ctx
        pop_context(token)
        assert current_context() is None

    def test_configure_tracer_replaces_global(self, tmp_path,
                                              tracer_sandbox):
        tracer = configure_tracer(str(tmp_path), process="cfg")
        assert get_tracer() is tracer
        assert get_tracer().enabled
        disabled = configure_tracer(None)
        assert get_tracer() is disabled
        assert not get_tracer().enabled

    def test_chrome_trace_export(self, tmp_path):
        clock = FakeClock(now=2.0)
        tracer = Tracer(str(tmp_path), process="exp", clock=clock)
        with tracer.span("a"):
            clock.advance(0.001)
            with tracer.span("b"):
                clock.advance(0.002)
        tracer.close()
        out = tmp_path / "chrome.json"
        assert write_chrome_trace(str(tmp_path), str(out)) == 2
        payload = json.loads(out.read_text())
        events = payload["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        complete = [e for e in events if e["ph"] == "X"]
        assert [e["args"]["name"] for e in meta] == ["exp"]
        assert {e["name"] for e in complete} == {"a", "b"}
        [b_event] = [e for e in complete if e["name"] == "b"]
        assert b_event["ts"] == pytest.approx(2.001e6)
        assert b_event["dur"] == pytest.approx(2000.0)


# ----------------------------------------------------------------------
# serving fixtures (mirrors test_serving_aio)
# ----------------------------------------------------------------------
@pytest.fixture
def small_ontology():
    onto = AttentionOntology()
    concept = onto.add_node(
        NodeType.CONCEPT, "marvel superhero movies",
        payload={"context_titles": [tokenize("best marvel superhero movies")]},
    )
    for name in ("iron man", "captain america", "black panther"):
        entity = onto.add_node(NodeType.ENTITY, name)
        onto.add_edge(concept.node_id, entity.node_id, EdgeType.ISA)
    onto.add_node(NodeType.EVENT,
                  "black panther premiere breaks box office record")
    return onto


@pytest.fixture
def ner():
    t = NerTagger()
    for name in ("iron man", "captain america", "black panther"):
        t.register(name, "WORK")
    return t


@pytest.fixture
def sync_service(small_ontology, ner):
    return OntologyService(
        small_ontology, ner=ner,
        tagger_options={"coherence_threshold": 0.01, "lcs_threshold": 0.6},
    )


def make_docs(n=4):
    return [
        (f"d{i}", tokenize("iron man and captain america reviewed"),
         [tokenize("both iron man and captain america delight fans")])
        for i in range(n)
    ]


# ----------------------------------------------------------------------
# torn-read regression: stats is one consistent cut (issue satellite 2)
# ----------------------------------------------------------------------
class TestStatsConsistency:
    def test_stats_not_torn_under_concurrent_traffic(self, sync_service):
        """Both stats halves are gathered on the serialized worker
        thread, so the k-th sequential stats call (0-based) must satisfy
        ``async.items == documents_tagged + k`` *exactly*: batcher items
        count tagged documents plus the k prior stats singletons, and no
        tag batch can land between the two reads.  The old code read the
        batcher's counters later on the event loop, so a batch flushed
        in between produced a torn (mismatched) pair."""

        async def main():
            running = {"on": True}
            async with AsyncOntologyService(
                    sync_service, registry=MetricsRegistry()) as service:

                async def tag_stream():
                    while running["on"]:
                        await service.tag_documents(make_docs(2))

                tasks = [asyncio.ensure_future(tag_stream())
                         for _ in range(3)]
                try:
                    observed = []
                    for k in range(8):
                        stats = await service.stats()
                        observed.append(
                            (k, stats["documents_tagged"],
                             stats["async"]["items"]))
                    return observed
                finally:
                    running["on"] = False
                    await asyncio.gather(*tasks)

        for k, tagged, items in run_async(main()):
            assert items == tagged + k, \
                f"torn stats read at call {k}: items={items} tagged={tagged}"

    def test_stats_legacy_shape_preserved(self, sync_service):
        """The unified registry still renders the historical dict shape
        (satellite 1): sync backend keys plus the batcher's view."""

        async def main():
            async with AsyncOntologyService(
                    sync_service, registry=MetricsRegistry()) as service:
                await service.tag_documents(make_docs(2))
                return await service.stats()

        stats = run_async(main())
        assert stats["documents_tagged"] == 2
        for key in ("queries_interpreted", "deltas_applied", "cache",
                    "ontology"):
            assert key in stats
        assert set(stats["async"]) == {
            "requests", "batches", "items", "max_batch_items",
            "size_flushes", "deadline_flushes"}
        assert stats["async"]["items"] >= 2


# ----------------------------------------------------------------------
# single-process span tree + registry coverage over real RPC
# ----------------------------------------------------------------------
class TestSingleProcessTraceAndMetrics:
    def test_rpc_request_yields_connected_span_tree(self, sync_service,
                                                    tmp_path,
                                                    tracer_sandbox):
        """client span -> server span -> batch span, one trace, written
        with exact fake-clock timestamps."""
        clock = FakeClock(now=500.0)
        configure_tracer(str(tmp_path / "trace"), process="solo",
                         clock=clock)
        registry = MetricsRegistry()

        async def main():
            async with AsyncOntologyService(
                    sync_service, registry=registry) as service:
                server = RpcServer(service, registry=registry)
                host, port = await server.start()
                try:
                    client = await RpcClient.connect(host, port,
                                                     registry=registry)
                    try:
                        return await client.call("tag_documents",
                                                 make_docs(2))
                    finally:
                        await client.close()
                finally:
                    await server.close()

        tagged = run_async(main())
        expected = sync_service.tag_documents(make_docs(2))
        assert dumps(tagged) == dumps(expected)  # tracing changes nothing

        get_tracer().close()
        spans = load_spans(str(tmp_path / "trace"))
        by_name = {span["name"]: span for span in spans}
        client_span = by_name["rpc.client.tag_documents"]
        server_span = by_name["rpc.server.tag_documents"]
        batch_span = by_name["batch.tag"]
        assert client_span["parent"] is None
        assert server_span["parent"] == client_span["span"]
        assert batch_span["parent"] == server_span["span"]
        assert len({span["trace"] for span in
                    (client_span, server_span, batch_span)}) == 1
        assert batch_span["attrs"]["items"] == 2
        # Never-advancing clock: deterministic timestamps throughout.
        assert all(span["ts"] == 500.0 and span["dur"] == 0.0
                   for span in spans)

    def test_registry_covers_rpc_batcher_and_cache_paths(self,
                                                         sync_service):
        """One shared registry, non-zero latency histograms for every
        instrumented tier the request touched (acceptance gate)."""
        registry = MetricsRegistry()

        async def main():
            async with AsyncOntologyService(
                    sync_service, registry=registry) as service:
                server = RpcServer(service, registry=registry)
                host, port = await server.start()
                try:
                    client = await RpcClient.connect(host, port,
                                                     registry=registry)
                    try:
                        await client.call("tag_documents", make_docs(2))
                        await client.call("concepts_of_entity", "iron man")
                        await client.call("concepts_of_entity", "iron man")
                        return await client.call("obs_status")
                    finally:
                        await client.close()
                finally:
                    await server.close()

        status = run_async(main())
        metrics = status["metrics"]
        for name in ("rpc.server.method.tag_documents.seconds",
                     "rpc.client.method.tag_documents.seconds",
                     "aio.batcher.execute_seconds",
                     "aio.batcher.queue_wait_seconds"):
            assert metrics[name]["count"] >= 1, name
            assert metrics[name]["max"] >= 0.0
        assert metrics["rpc.server.frames_in"] >= 4
        # The snapshot is taken while serving obs_status itself — the
        # one in-flight request is visible in its own readout.
        assert metrics["rpc.server.inflight"] == 1
        assert metrics["aio.batcher.batch_items"]["max"] >= 2
        assert status["tracer"]["enabled"] is False
        # The maintained-view catalog surfaces its headline counters in
        # the same payload (`cli stats --connect` prints this section).
        views = status["views"]
        assert views["views"] == 3 and not views["stale"]
        assert "maintain_p95" in views and "deltas_folded" in views
        # The sync backend writes through its own "serving" scope (the
        # fixture built it on the global registry); cache endpoint
        # counters and latency histograms are non-zero after the calls.
        backend = sync_service.metrics.snapshot()
        assert backend["cache.endpoint.concepts_of_entity.misses"] == 1
        assert backend["cache.endpoint.concepts_of_entity.hits"] == 1
        assert backend["cache.miss_compute_seconds"]["count"] >= 1
        assert backend["tag_seconds"]["count"] >= 1
        assert sync_service.stats()["cache"]["hits"] >= 1


# ----------------------------------------------------------------------
# cross-process: traced request through serve --remote-shards 4
# ----------------------------------------------------------------------
def _seed_log(log_dir):
    """A small ontology delta log + snapshot catalog on disk (the same
    substrate the consistency suite uses)."""
    producer = AttentionOntology()
    producer.begin_delta("build")
    concept = producer.add_node(NodeType.CONCEPT, "marvel movies")
    for name in ("iron man", "thor", "hulk", "black widow", "wasp"):
        entity = producer.add_node(NodeType.ENTITY, name)
        producer.add_edge(concept.node_id, entity.node_id, EdgeType.ISA)
    producer.add_alias(concept.node_id, "mcu films")
    delta = producer.commit_delta()
    with DeltaLog(log_dir, segment_max_bytes=512) as log:
        log.append(delta)
        catalog = SnapshotCatalog(log, compact_bytes=1, retain_segments=0)
        catalog.record(OntologyStore.bootstrap(None, [delta]))
    ner = NerTagger()
    for name in ("iron man", "thor", "hulk", "black widow", "wasp"):
        ner.register(name, "WORK")
    return producer, ner


class _ServeProcess:
    """`cli serve --listen` in a subprocess; parses the bound address."""

    PATTERN = re.compile(r"RPC serving on ([0-9.]+):(\d+)")

    def __init__(self, args, env):
        self.proc = subprocess.Popen(
            args, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        self.lines = []
        self.address = None
        self._bound = threading.Event()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self):
        for line in self.proc.stdout:
            self.lines.append(line)
            match = self.PATTERN.search(line)
            if match:
                self.address = (match.group(1), int(match.group(2)))
                self._bound.set()
        self._bound.set()  # EOF: unblock the waiter (startup failed)

    def wait_bound(self, timeout=120.0):
        if not self._bound.wait(timeout) or self.address is None:
            raise AssertionError(
                "serve subprocess never bound:\n" + "".join(self.lines))
        return self.address

    def shutdown(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        self._reader.join(timeout=10)


class TestCrossProcessTracePropagation:
    QUERIES = ["best marvel movies", "thor review"]

    def test_traced_request_spans_three_process_boundaries(
            self, tmp_path, tracer_sandbox):
        """One traced request through ``cli serve --remote-shards 4``
        produces a single connected span tree covering the client, the
        serving process, and all four spawned shard workers — while the
        RPC answer stays byte-identical to a single store and the
        server's registry reports non-zero latency histograms for the
        rpc, batcher and scatter paths."""
        log_dir = tmp_path / "log"
        trace_dir = tmp_path / "trace"
        producer, ner = _seed_log(log_dir)

        repo = pathlib.Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env.pop("REPRO_TRACE_DIR", None)  # only --trace-dir should set it
        serve = _ServeProcess([
            sys.executable, "-u", "-m", "repro.cli", "serve",
            "--from-log", str(log_dir), "--remote-shards", "4",
            "--listen", "127.0.0.1:0", "--trace-dir", str(trace_dir),
            "--threshold", "0.01", "--q", "warm up",
        ], env)
        try:
            host, port = serve.wait_bound()
            configure_tracer(str(trace_dir), process="client")

            async def drive():
                client = await RpcClient.connect(
                    host, port, registry=MetricsRegistry())
                try:
                    analyses = await client.call("interpret_queries",
                                                 self.QUERIES)
                    status = await client.call("obs_status")
                    return analyses, status
                finally:
                    await client.close()

            analyses, status = run_async(drive(), timeout=120.0)
        finally:
            serve.shutdown()
        get_tracer().close()

        # Byte identity holds with tracing enabled end to end (the serve
        # process used --threshold 0.01 and no lcs override).
        single = OntologyService(producer, ner=ner,
                                 tagger_options={"coherence_threshold": 0.01})
        assert dumps(analyses) == dumps(single.interpret_queries(self.QUERIES))

        # The server's registry snapshot covers every instrumented tier.
        metrics = status["metrics"]
        for name in ("rpc.server.method.interpret_queries.seconds",
                     "aio.batcher.execute_seconds",
                     "scatter.fanout_seconds",
                     "scatter.shard_seconds"):
            assert metrics[name]["count"] >= 1, name
            assert metrics[name]["max"] > 0.0, name
        assert status["tracer"]["enabled"] is True
        assert status["tracer"]["process"] == "serve"
        assert status["tracer"]["spans_written"] >= 1
        shards = status["backend"]["shards"]
        assert len(shards) == 4
        for shard in shards:
            assert shard["metrics"]["shard_worker.requests"] >= 1
            assert shard["metrics"][
                "shard_worker.request_seconds"]["count"] >= 1
            assert shard["tracer"]["enabled"] is True

        # One connected span tree across client / serve / shard-0..3.
        spans = load_spans(str(trace_dir))
        [client_span] = [s for s in spans
                         if s["name"] == "rpc.client.interpret_queries"]
        tree = [s for s in spans if s["trace"] == client_span["trace"]]
        ids = {s["span"] for s in tree}
        roots = [s for s in tree if s["parent"] is None]
        assert roots == [client_span]
        for span in tree:
            if span["parent"] is not None:
                assert span["parent"] in ids, \
                    f"orphan span {span['name']} in {span['process']}"
        assert {s["process"] for s in tree} == {
            "client", "serve", "shard-0", "shard-1", "shard-2", "shard-3"}
        names = {s["name"] for s in tree}
        assert {"rpc.client.interpret_queries",
                "rpc.server.interpret_queries", "batch.query"} <= names
        assert any(name.startswith("scatter.") for name in names)
        assert any(name.startswith("shard.") for name in names)
        # Parent-edge shape: server under client, batch under server.
        by_name = {}
        for span in tree:
            by_name.setdefault(span["name"], span)
        assert by_name["rpc.server.interpret_queries"]["parent"] == \
            client_span["span"]
        assert by_name["batch.query"]["parent"] == \
            by_name["rpc.server.interpret_queries"]["span"]

        # The merged timeline exports to a Chrome-loadable trace file.
        out = tmp_path / "chrome.json"
        assert write_chrome_trace(str(trace_dir), str(out)) == len(spans)
        assert json.loads(out.read_text())["traceEvents"]
