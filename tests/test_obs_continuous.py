"""Continuous telemetry: collector series math, SLO burn rates, the
flight recorder, and their wiring through the serving fabric.

Everything time-dependent here runs under fake clocks — the collector
derives timestamps from the registry's injectable clock (its snapshot's
``sampled_at`` stamp), and the recorder takes a ``clock`` argument — so
counter rates, burn-rate windows and dump rate limits are asserted
exactly, not approximately.
"""

import asyncio
import json
import os
import time

import pytest

import repro.obs.recorder as recorder_mod
import repro.obs.slo as slo_mod
import repro.obs.timeseries as timeseries_mod
from repro.obs import (
    ANOMALY_KINDS,
    FlightRecorder,
    MetricsCollector,
    MetricsRegistry,
    SeriesRing,
    SloEngine,
    SloSpec,
    configure_collector,
    configure_recorder,
    configure_slo_engine,
    default_slos,
    get_collector,
    get_recorder,
    load_spans,
    write_chrome_trace,
)
from repro.serving.aio import AsyncOntologyService
from repro.serving.rpc import RpcClient, RpcError, RpcServer
from repro.views.catalog import ViewCatalog

ASYNC_TEST_TIMEOUT = 60.0


def run_async(coro, timeout: float = ASYNC_TEST_TIMEOUT):
    return asyncio.run(asyncio.wait_for(coro, timeout))


class FakeClock:
    """Deterministic injectable clock."""

    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


@pytest.fixture(autouse=True)
def obs_sandbox():
    """Reset the process-wide recorder/collector/engine after each test
    (several tests call the configure_* entry points)."""
    yield
    collector = timeseries_mod._COLLECTOR
    if collector is not None:
        collector.stop()
    timeseries_mod._COLLECTOR = None
    slo_mod._ENGINE = None
    recorder_mod._RECORDER = None


# ----------------------------------------------------------------------
# SeriesRing
# ----------------------------------------------------------------------
class TestSeriesRing:
    def test_eviction_is_oldest_first(self):
        ring = SeriesRing("s", capacity=3)
        for i in range(5):
            ring.append(float(i), float(i * 10))
        assert len(ring) == 3
        assert ring.samples() == [(2.0, 20.0), (3.0, 30.0), (4.0, 40.0)]
        assert ring.latest() == (4.0, 40.0)
        assert ring.since(3.0) == [(3.0, 30.0), (4.0, 40.0)]

    def test_partial_fill_keeps_insert_order(self):
        ring = SeriesRing("s", capacity=8)
        ring.append(1.0, 1.0)
        ring.append(2.0, 4.0)
        assert ring.samples() == [(1.0, 1.0), (2.0, 4.0)]


# ----------------------------------------------------------------------
# MetricsCollector
# ----------------------------------------------------------------------
class TestCollector:
    def _collector(self, capacity: int = 240):
        clock = FakeClock(100.0)
        registry = MetricsRegistry(clock=clock)
        collector = MetricsCollector(registry, interval=1.0,
                                     capacity=capacity)
        return clock, registry, collector

    def test_snapshot_stamps_sampled_at(self):
        """Satellite: every registry snapshot carries the injectable
        clock's time, and the keys stay sorted."""
        clock, registry, _ = self._collector()
        registry.counter("c").inc(3)
        snap = registry.snapshot()
        assert snap["sampled_at"] == 100.0
        assert list(snap) == sorted(snap)
        clock.advance(5.0)
        assert registry.snapshot()["sampled_at"] == 105.0

    def test_bucketed_snapshot_is_opt_in(self):
        _clock, registry, _ = self._collector()
        h = registry.histogram("lat")
        h.observe(0.01)
        plain = registry.snapshot()["lat"]
        assert "buckets" not in plain and "base" not in plain
        rich = registry.snapshot(buckets=True)["lat"]
        assert rich["base"] == pytest.approx(1e-6)
        assert sum(rich["buckets"].values()) == 1

    def test_first_sample_has_no_derived_series(self):
        _clock, registry, collector = self._collector()
        registry.counter("reqs").inc(5)
        collector.sample()
        assert collector.series("reqs") == [(100.0, 5.0)]
        assert collector.series("reqs.rate") == []

    def test_counter_rate_across_wrapped_ring(self):
        clock, registry, collector = self._collector(capacity=2)
        reqs = registry.counter("reqs")
        # 4 samples into capacity-2 rings: the math must stay exact
        # after eviction wraps the buffer.
        increments = (5, 10, 20, 40)
        for inc in increments:
            reqs.inc(inc)
            collector.sample()
            clock.advance(10.0)
        # raw ring holds the last two cumulative values
        assert collector.series("reqs") == [(120.0, 35.0), (130.0, 75.0)]
        # rates: (15-5)/10, (35-15)/10, (75-35)/10 -> ring keeps last 2
        assert collector.series("reqs.rate") == [(120.0, 2.0), (130.0, 4.0)]

    def test_zero_dt_appends_no_rate(self):
        _clock, registry, collector = self._collector()
        reqs = registry.counter("reqs")
        reqs.inc(1)
        collector.sample()
        reqs.inc(1)
        collector.sample()  # clock did not advance: dt == 0
        assert collector.series("reqs.rate") == []

    def test_gauge_records_level(self):
        clock, registry, collector = self._collector()
        depth = registry.gauge("depth")
        depth.set(3)
        collector.sample()
        clock.advance(1.0)
        depth.set(7)
        collector.sample()
        assert collector.series("depth") == [(100.0, 3.0), (101.0, 7.0)]

    def test_windowed_percentiles_see_only_the_new_window(self):
        clock, registry, collector = self._collector()
        lat = registry.histogram("lat")
        for _ in range(10):
            lat.observe(0.001)
        collector.sample()
        clock.advance(10.0)
        for _ in range(90):
            lat.observe(1.0)
        collector.sample()
        # 90 observations over 10s
        assert collector.latest("lat.rate") == (110.0, 9.0)
        # The window held only 1.0s observations: every windowed
        # percentile clamps to the exact value, even though the
        # lifetime p50 would sit near 0.001.
        for label in ("p50", "p95", "p99"):
            t, value = collector.latest(f"lat.{label}")
            assert t == 110.0
            assert value == pytest.approx(1.0)

    def test_idle_window_appends_rate_but_no_percentiles(self):
        clock, registry, collector = self._collector()
        lat = registry.histogram("lat")
        lat.observe(0.5)
        collector.sample()
        clock.advance(1.0)
        collector.sample()
        clock.advance(1.0)
        lat.observe(0.5)
        collector.sample()
        # the idle middle window recorded rate 0 and skipped percentiles
        assert collector.series("lat.rate") == [(101.0, 0.0), (102.0, 1.0)]
        assert [t for t, _v in collector.series("lat.p95")] == [102.0]

    def test_tail_and_window_readout(self):
        clock, registry, collector = self._collector()
        reqs = registry.counter("reqs")
        for _ in range(5):
            reqs.inc(1)
            collector.sample()
            clock.advance(1.0)
        tail = collector.tail(points=2, prefix="reqs")
        assert set(tail) == {"reqs", "reqs.rate"}
        assert tail["reqs"] == [[103.0, 4.0], [104.0, 5.0]]
        assert len(collector.window("reqs", 2.0)) == 3  # t in [102, 104]
        assert collector.describe()["samples_taken"] == 5

    def test_configure_collector_replaces_global(self):
        registry = MetricsRegistry(clock=FakeClock())
        collector = configure_collector(registry, interval=0.5)
        assert get_collector() is collector
        replacement = configure_collector(registry, interval=0.25)
        assert get_collector() is replacement


# ----------------------------------------------------------------------
# SLO burn rates
# ----------------------------------------------------------------------
class TestSloEngine:
    def _seeded(self, budget: float):
        """Counter samples at t=0,10,20 then a 60s gap, then t=80,90:
        the short window's start (t=60) falls inside the gap."""
        clock = FakeClock(0.0)
        registry = MetricsRegistry(clock=clock)
        collector = MetricsCollector(registry)
        errors = registry.counter("errors")
        total = registry.counter("total")
        plan = [(0.0, 0, 100), (10.0, 0, 100), (20.0, 0, 100),
                (80.0, 40, 100), (90.0, 50, 100)]
        for t, err, tot in plan:
            clock.now = t
            errors.inc(err)
            total.inc(tot)
            collector.sample()
        spec = SloSpec(name="errs", error_series="errors",
                       total_series="total", error_budget=budget,
                       short_window=30.0, long_window=90.0,
                       warn_burn=1.0, page_burn=10.0)
        return SloEngine(collector, [spec]), spec

    def test_burn_windows_straddle_a_sampling_gap(self):
        engine, spec = self._seeded(budget=0.05)
        verdict = engine.evaluate(spec, now=90.0)
        windows = verdict["error_budget"]["windows"]
        # short window [60, 90]: no sample at t=60 -> the baseline is
        # the nearest sample at or before it (t=20), so the delta spans
        # the gap instead of collapsing to zero.
        assert windows["short"]["errors"] == pytest.approx(90.0)
        assert windows["short"]["total"] == pytest.approx(200.0)
        assert windows["short"]["burn"] == pytest.approx(0.45 / 0.05)
        # long window [0, 90]: baseline is the t=0 sample.
        assert windows["long"]["errors"] == pytest.approx(90.0)
        assert windows["long"]["total"] == pytest.approx(400.0)
        assert windows["long"]["burn"] == pytest.approx(0.225 / 0.05)
        # both windows over warn_burn, only one over page_burn -> warn
        assert verdict["verdict"] == "warn"

    def test_page_needs_both_windows_burning(self):
        engine, spec = self._seeded(budget=0.01)
        verdict = engine.evaluate(spec, now=90.0)
        burns = [w["burn"]
                 for w in verdict["error_budget"]["windows"].values()]
        assert min(burns) >= spec.page_burn
        assert verdict["verdict"] == "page"

    def test_healthy_before_the_errors_started(self):
        engine, spec = self._seeded(budget=0.05)
        assert engine.evaluate(spec, now=20.0)["verdict"] == "healthy"

    def test_unknown_when_collector_never_sampled(self):
        collector = MetricsCollector(MetricsRegistry(clock=FakeClock()))
        engine = SloEngine(collector, default_slos())
        assert all(v["verdict"] == "unknown"
                   for v in engine.evaluate_all())

    def test_latency_objective_escalates(self):
        clock = FakeClock(0.0)
        registry = MetricsRegistry(clock=clock)
        collector = MetricsCollector(registry)
        lat = registry.histogram("lat")
        lat.observe(0.01)
        collector.sample()
        clock.advance(1.0)
        lat.observe(0.30)
        collector.sample()
        engine = SloEngine(collector)
        warn_spec = SloSpec(name="lat", latency_series="lat.p95",
                            latency_target=0.25, latency_page_factor=2.0)
        page_spec = SloSpec(name="lat", latency_series="lat.p95",
                            latency_target=0.10, latency_page_factor=2.0)
        ok_spec = SloSpec(name="lat", latency_series="lat.p95",
                          latency_target=1.0)
        assert engine.evaluate(warn_spec)["verdict"] == "warn"
        assert engine.evaluate(page_spec)["verdict"] == "page"
        assert engine.evaluate(ok_spec)["verdict"] == "healthy"

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SloSpec(name="empty")  # no objective at all
        with pytest.raises(ValueError):
            SloSpec(name="b", error_series="e", total_series="t",
                    error_budget=0.0)
        with pytest.raises(ValueError):
            SloSpec(name="w", error_series="e", total_series="t",
                    short_window=60.0, long_window=30.0)

    def test_configure_slo_engine_installs_defaults(self):
        collector = MetricsCollector(MetricsRegistry(clock=FakeClock()))
        engine = configure_slo_engine(collector)
        assert [spec.name for spec in engine.specs] \
            == [spec.name for spec in default_slos()]


# ----------------------------------------------------------------------
# FlightRecorder
# ----------------------------------------------------------------------
class TestFlightRecorder:
    def test_ring_evicts_oldest_first(self):
        recorder = FlightRecorder(capacity=3, clock=FakeClock(50.0))
        for i in range(5):
            recorder.record("ring.epoch_flip", f"shard-{i}", epoch=i)
        events = recorder.events()
        assert [e["seq"] for e in events] == [3, 4, 5]
        assert [e["component"] for e in events] \
            == ["shard-2", "shard-3", "shard-4"]
        assert recorder.events_recorded == 5

    def test_anomaly_defaults_follow_the_taxonomy(self):
        recorder = FlightRecorder(clock=FakeClock())
        assert recorder.record("rpc.error", "rpc.server.x")["anomaly"]
        assert not recorder.record("ring.epoch_flip",
                                   "cluster.parent")["anomaly"]
        assert recorder.record("ring.epoch_flip", "cluster.parent",
                               anomaly=True)["anomaly"]  # explicit wins
        assert "ring.epoch_flip" not in ANOMALY_KINDS

    def test_anomaly_auto_dump_names_the_component(self, tmp_path):
        clock = FakeClock(1000.0)
        recorder = FlightRecorder(str(tmp_path), process="t",
                                  min_dump_interval=10.0, clock=clock)
        recorder.record("views.rehydrate", "serving.views", version=7)
        assert recorder.dumps_written == 1
        path = recorder.last_dump_path
        lines = [json.loads(line)
                 for line in open(path, encoding="utf-8")]
        header, event = lines
        assert header["reason"] == "views.rehydrate"
        assert header["process"] == "t"
        assert event["component"] == "serving.views"
        assert event["version"] == 7

    def test_auto_dumps_are_rate_limited(self, tmp_path):
        clock = FakeClock(0.0)
        recorder = FlightRecorder(str(tmp_path), process="t",
                                  min_dump_interval=5.0, clock=clock)
        recorder.record("rpc.error", "rpc.server.a")
        recorder.record("rpc.error", "rpc.server.b")  # inside the limit
        assert recorder.dumps_written == 1
        clock.advance(5.0)
        recorder.record("rpc.error", "rpc.server.c")
        assert recorder.dumps_written == 2
        # explicit dumps are never limited
        assert recorder.dump(reason="manual") is not None
        assert recorder.dumps_written == 3

    def test_non_anomalies_never_dump(self, tmp_path):
        recorder = FlightRecorder(str(tmp_path), clock=FakeClock())
        for _ in range(10):
            recorder.record("ring.epoch_flip", "cluster.parent")
        assert recorder.dumps_written == 0

    def test_dump_without_a_directory(self, tmp_path):
        recorder = FlightRecorder(clock=FakeClock())
        recorder.record("rpc.error", "rpc.server.x")  # no dir: ring only
        assert recorder.dump() is None
        explicit = str(tmp_path / "ring.jsonl")
        assert recorder.dump(path=explicit) == explicit
        assert os.path.exists(explicit)

    def test_rehydrate_reports_to_the_recorder(self):
        configure_recorder(None, process="t")
        catalog = ViewCatalog()
        catalog.rehydrate(3, count=False)  # initial hydration: silent
        assert get_recorder().events() == []
        catalog.rehydrate(5)
        [event] = get_recorder().events()
        assert event["kind"] == "views.rehydrate"
        assert event["version"] == 5


# ----------------------------------------------------------------------
# fault injection through the serving stack
# ----------------------------------------------------------------------
class _FaultyBackend:
    """Minimal serving backend: one endpoint that can be slow or fail."""

    version = 0

    def neighborhood(self, node_id, depth=1, edge_type=None):
        if node_id == "slow":
            time.sleep(0.05)
            return ("ok",)
        if node_id == "boom":
            raise RuntimeError("injected fault")
        return ("ok",)

    def stats(self):
        return {"backend": "faulty"}


class TestServingFaults:
    def test_slow_call_and_error_reach_the_recorder(self, tmp_path):
        """A forced slow call and an injected failure both produce
        flight-recorder events (and dumps) naming the failing
        component — the PR's acceptance fault-injection check."""
        configure_recorder(str(tmp_path), process="t",
                           slow_call_seconds=0.01, min_dump_interval=0.0)
        registry = MetricsRegistry()

        async def drive():
            async with AsyncOntologyService(_FaultyBackend(),
                                            registry=registry) as service:
                server = RpcServer(service, registry=registry)
                host, port = await server.start()
                client = await RpcClient.connect(host, port,
                                                 registry=registry)
                try:
                    result = await client.call("neighborhood", "slow")
                    assert tuple(result) == ("ok",)
                    with pytest.raises(RpcError):
                        await client.call("neighborhood", "boom")
                finally:
                    await client.close()
                    await server.close()

        run_async(drive())
        kinds = {(e["kind"], e["component"])
                 for e in get_recorder().events()}
        assert ("rpc.slow_call", "rpc.server.neighborhood") in kinds
        assert ("rpc.error", "rpc.server.neighborhood") in kinds
        dumps = sorted(tmp_path.glob("flight-t-*.jsonl"))
        assert dumps, "anomalies must auto-dump when a dir is configured"
        dumped = dumps[-1].read_text(encoding="utf-8")
        assert "rpc.server.neighborhood" in dumped

    def test_obs_watch_and_dump_round_trip(self):
        registry = MetricsRegistry()
        collector = configure_collector(registry, interval=30.0)
        configure_slo_engine(collector)
        configure_recorder(None, process="t")

        async def drive():
            async with AsyncOntologyService(_FaultyBackend(),
                                            registry=registry) as service:
                await service.neighborhood("n1")
                watch = await service.obs_watch(points=5)
                dump = await service.obs_dump()
                return watch, dump

        watch, dump = run_async(drive())
        # the pull path samples on demand (no background thread)
        assert watch["collector"]["samples_taken"] >= 1
        assert isinstance(watch["series"], dict)
        assert {v["slo"] for v in watch["slo"]} \
            == {"serving-latency", "rpc-errors"}
        assert watch["recorder"]["process"] == "t"
        assert dump["path"] is None  # no recorder dir configured
        assert isinstance(dump["events"], list)

    def test_obs_watch_without_a_collector(self):
        configure_recorder(None, process="t")
        timeseries_mod._COLLECTOR = None

        async def drive():
            async with AsyncOntologyService(
                    _FaultyBackend(),
                    registry=MetricsRegistry()) as service:
                return await service.obs_watch()

        watch = run_async(drive())
        assert watch["collector"] is None
        assert watch["series"] == {} and watch["slo"] == []

    def test_cli_watch_renders_a_live_frame(self, capsys):
        """``cli watch``'s renderer must handle a real ``obs_watch``
        payload — regression: it read ``verdict["name"]`` where the SLO
        engine keys its verdicts as ``"slo"``, crashing on the second
        output line."""
        from repro.cli import _print_watch

        registry = MetricsRegistry()
        collector = configure_collector(registry, interval=30.0)
        configure_slo_engine(collector)
        configure_recorder(None, process="t")

        async def drive():
            async with AsyncOntologyService(_FaultyBackend(),
                                            registry=registry) as service:
                await service.neighborhood("n1")
                return await service.obs_watch(points=5)

        _print_watch(run_async(drive()))
        out = capsys.readouterr().out
        assert "slo serving-latency" in out and "slo rpc-errors" in out
        assert "recorder: events=" in out


# ----------------------------------------------------------------------
# torn span logs (satellite: tolerant chrome-trace export)
# ----------------------------------------------------------------------
class TestTornSpanLog:
    def _span(self, name: str, ts: float) -> dict:
        return {"name": name, "trace": "t1", "span": "s1",
                "process": "serve", "ts": ts, "dur": 0.001}

    def test_torn_tail_is_skipped_with_a_warning(self, tmp_path):
        log = tmp_path / "spans-serve.jsonl"
        good = [self._span("a", 1.0), self._span("b", 2.0)]
        with open(log, "w", encoding="utf-8") as fh:
            for span in good:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"looks": "like json",
                                 "but": "not a span"}) + "\n")
            # a process died mid-write: the classic torn tail
            fh.write('{"name": "c", "trace": "t1", "sp')
        with pytest.warns(UserWarning, match="malformed span line"):
            spans = load_spans(str(tmp_path))
        assert [span["name"] for span in spans] == ["a", "b"]
        out = tmp_path / "trace.json"
        with pytest.warns(UserWarning):
            exported = write_chrome_trace(str(tmp_path), str(out))
        assert exported == 2
        payload = json.loads(out.read_text(encoding="utf-8"))
        names = {event.get("name") for event in payload["traceEvents"]}
        assert {"a", "b"} <= names

    def test_clean_logs_warn_nothing(self, tmp_path):
        log = tmp_path / "spans-serve.jsonl"
        log.write_text(json.dumps(self._span("a", 1.0)) + "\n",
                       encoding="utf-8")
        spans = load_spans(str(tmp_path))
        assert len(spans) == 1
