"""Live traffic scenarios: mixed workloads under continuous telemetry.

The deployed GIANT services face mixed interactive traffic — tagging,
query interpretation, profile reads, story follow-ups — arriving
stochastically, not in neat benchmark batches.  This harness replays
seeded open-loop scenarios (Poisson arrivals at a configurable rate)
against the async serving tier (single store and 2-shard cluster
backends), with the PR's continuous-telemetry stack watching:

* a :class:`~repro.obs.MetricsCollector` samples the scenario registry
  throughout the run, so each scenario yields latency-percentile
  *series*, not just end-of-run numbers;
* an :class:`~repro.obs.SloEngine` turns the series into burn-rate
  verdicts per scenario;
* the fault-injection scenario drives a real RPC server whose backend
  is rigged to fail and stall, and asserts the flight recorder dumps
  events naming the failing component (the PR's acceptance check).

Per-scenario percentiles and SLO verdicts land in
``results/BENCH_tagging.json`` under ``traffic_scenarios`` /
``fault_injection``.  When ``REPRO_OBS_ARTIFACTS`` names a directory
(CI does this), recorder dumps and collector series are written there
for upload.
"""

from __future__ import annotations

import asyncio
import json
import os
import pathlib
import random
import time

import pytest

import repro.obs.recorder as recorder_mod
from repro import GiantPipeline
from repro.apps.story_tree import EventRecord
from repro.cluster import ClusterService
from repro.core.ontology import NodeType
from repro.obs import (
    MetricsCollector,
    MetricsRegistry,
    SloEngine,
    SloSpec,
    configure_recorder,
)
from repro.serving import AsyncOntologyService, OntologyService
from repro.serving.rpc import RpcClient, RpcError, RpcServer
from repro.synth.documents import DocumentGenerator
from repro.synth.querylog import build_click_graph

from bench_common import SCALE, percentiles, write_json

TAGGER_OPTIONS = {"coherence_threshold": 0.02, "lcs_threshold": 0.6}

#: Directory CI exports telemetry artifacts into (dumps + series).
ARTIFACTS_ENV = "REPRO_OBS_ARTIFACTS"

#: Requests per scenario; the small profile is the CI smoke run.
REQUESTS = 120 if SCALE == "full" else 40

SCENARIOS = [
    {"name": "steady-mixed", "rate": 150.0, "requests": REQUESTS,
     "mix": {"query": 0.4, "tag": 0.2, "profile": 0.2, "story": 0.2},
     "latency_target": 0.25},
    {"name": "tag-heavy", "rate": 80.0, "requests": REQUESTS,
     "mix": {"tag": 0.7, "query": 0.3}, "latency_target": 0.5},
    {"name": "interactive-burst", "rate": 400.0, "requests": REQUESTS,
     "mix": {"query": 0.55, "profile": 0.25, "story": 0.2},
     "latency_target": 0.25},
]


@pytest.fixture(scope="module")
def traffic_world(bench_days, bench_taggers, bench_sessions, bench_world):
    """Ontology + request corpora for the scenarios (no trained models:
    the harness measures the serving fabric, not mining quality)."""
    pos, ner = bench_taggers
    pipe = GiantPipeline(
        build_click_graph(bench_days), pos, ner,
        categories=sorted({c[2] for c in bench_world.categories}),
    )
    pipe.run(sessions=bench_sessions)
    docs = DocumentGenerator(bench_world).corpus(12, 6)
    concepts = [node.phrase
                for node in pipe.ontology.nodes(NodeType.CONCEPT)][:20]
    queries = [f"best {phrase}" for phrase in concepts] or ["best cars"]
    tags = concepts or ["cars"]
    events = [EventRecord(f"{phrase} update {i}", "update", [phrase], day=i)
              for i, phrase in enumerate(tags[:6])]
    return {"pipe": pipe, "ner": ner, "docs": docs, "queries": queries,
            "tags": tags, "events": events}


def _artifacts_dir() -> "pathlib.Path | None":
    value = os.environ.get(ARTIFACTS_ENV)
    if not value:
        return None
    path = pathlib.Path(value)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _scenario_specs(scenario: dict) -> "list[SloSpec]":
    return [
        SloSpec(name=f"{scenario['name']}-latency",
                latency_series="traffic.request_seconds.p95",
                latency_target=scenario["latency_target"],
                short_window=1.0, long_window=5.0),
        SloSpec(name=f"{scenario['name']}-errors",
                error_series="traffic.errors",
                total_series="traffic.requests",
                error_budget=0.02,
                short_window=1.0, long_window=5.0),
    ]


async def _drive_scenario(service, scenario: dict, world: dict,
                          registry: MetricsRegistry,
                          collector: MetricsCollector, seed: int) -> None:
    """Open-loop seeded arrivals: requests launch on their Poisson
    arrival times regardless of completions (the arrival process never
    slows down to hide a slow server), while a sampler task keeps the
    collector's series advancing mid-run."""
    rng = random.Random(seed)
    requests = registry.counter("traffic.requests")
    errors = registry.counter("traffic.errors")
    ops = list(scenario["mix"])
    weights = [scenario["mix"][op] for op in ops]

    async def one_request(op: str, index: int) -> None:
        requests.inc()
        start = registry.clock()
        try:
            if op == "tag":
                doc = world["docs"][index % len(world["docs"])]
                await service.tag_documents([doc])
            elif op == "query":
                query = world["queries"][index % len(world["queries"])]
                await service.interpret_queries([query])
            elif op == "profile":
                user = f"user-{index % 7}"
                tag = world["tags"][index % len(world["tags"])]
                await service.record_read(user, [tag])
                await service.user_interests(user, k=5)
            elif op == "story":
                event = world["events"][index % len(world["events"])]
                await service.track_events([event])
                await service.follow_ups(event.phrase, limit=3)
        except Exception:
            errors.inc()
            raise
        finally:
            registry.histogram("traffic.request_seconds").observe(
                registry.clock() - start)

    stop_sampling = asyncio.Event()

    async def sampler() -> None:
        while not stop_sampling.is_set():
            collector.sample()
            try:
                await asyncio.wait_for(stop_sampling.wait(), 0.05)
            except asyncio.TimeoutError:
                pass
        collector.sample()  # one closing cut after the last completion

    sampling = asyncio.ensure_future(sampler())
    inflight = []
    try:
        for index in range(scenario["requests"]):
            await asyncio.sleep(rng.expovariate(scenario["rate"]))
            [op] = rng.choices(ops, weights=weights)
            inflight.append(asyncio.ensure_future(one_request(op, index)))
        await asyncio.gather(*inflight)
    finally:
        stop_sampling.set()
        await sampling


def _run_scenarios(backend, tier: str, world: dict,
                   scenarios: "list[dict] | None" = None) -> dict:
    results = {}
    artifacts = _artifacts_dir()
    for seed, scenario in enumerate(scenarios if scenarios is not None
                                    else SCENARIOS):
        registry = MetricsRegistry()
        collector = MetricsCollector(registry, interval=0.05, capacity=600)
        engine = SloEngine(collector, _scenario_specs(scenario))

        async def drive() -> None:
            async with AsyncOntologyService(backend, max_batch_size=16,
                                            registry=registry) as service:
                await _drive_scenario(service, scenario, world, registry,
                                      collector, seed=seed)

        start = time.perf_counter()
        asyncio.run(asyncio.wait_for(drive(), 300))
        wall = time.perf_counter() - start
        verdicts = engine.evaluate_all()
        snap = registry.snapshot()
        p95_series = collector.series("traffic.request_seconds.p95")
        assert snap["traffic.requests"] == scenario["requests"]
        assert snap["traffic.errors"] == 0
        assert p95_series, "the collector must capture mid-run percentiles"
        assert all(v["verdict"] in ("healthy", "warn", "page", "unknown")
                   for v in verdicts)
        results[scenario["name"]] = {
            "requests": scenario["requests"],
            "errors": snap["traffic.errors"],
            "arrival_rate": scenario["rate"],
            "achieved_rps": round(scenario["requests"] / wall, 1),
            "mix": scenario["mix"],
            "latency": percentiles(snap, "traffic.request_seconds"),
            "p95_series_points": len(p95_series),
            "collector_samples": collector.samples_taken,
            "slo": [{"slo": v["slo"], "verdict": v["verdict"]}
                    for v in verdicts],
        }
        if artifacts is not None:
            series_path = artifacts / f"series-{tier}-{scenario['name']}.json"
            series_path.write_text(
                json.dumps(collector.tail(points=600), indent=1,
                           sort_keys=True) + "\n")
    return results


def test_traffic_scenarios_single_store(traffic_world):
    """The scenario suite against the async front on a single store."""
    world = traffic_world
    backend = OntologyService(world["pipe"].ontology, ner=world["ner"],
                              tagger_options=dict(TAGGER_OPTIONS))
    results = _run_scenarios(backend, "single", world)
    write_json("BENCH_tagging", {
        "traffic_scenarios": {"tier": "async-single", "scale": SCALE,
                              "scenarios": results},
    })


def test_traffic_scenarios_cluster(traffic_world):
    """One mixed scenario against the async front on a 2-shard
    scatter-gather cluster (the full suite would double bench wall
    time for the same fabric paths)."""
    world = traffic_world
    cluster = ClusterService(num_shards=2, ner=world["ner"],
                             tagger_options=dict(TAGGER_OPTIONS),
                             deltas=world["pipe"].deltas)
    results = _run_scenarios(cluster, "cluster", world,
                             scenarios=[SCENARIOS[0]])
    write_json("BENCH_tagging", {
        "traffic_scenarios_cluster": {"tier": "async-cluster",
                                      "num_shards": 2, "scale": SCALE,
                                      "scenarios": results},
    })


class _RiggedBackend:
    """Delegates to a real service, but ``interpret_queries`` fails on
    ``"boom"`` queries and stalls on ``"slow"`` ones — the forced-fault
    half of the acceptance criteria."""

    def __init__(self, inner, stall_seconds: float) -> None:
        self._inner = inner
        self._stall = stall_seconds

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def interpret_queries(self, queries):
        if any(q == "boom" for q in queries):
            raise RuntimeError("injected backend fault")
        if any(q == "slow" for q in queries):
            time.sleep(self._stall)
        return self._inner.interpret_queries(
            [q for q in queries if q not in ("boom", "slow")]) or [None]


def test_fault_scenario_dumps_flight_recorder(traffic_world, tmp_path):
    """Acceptance: an injected fault (forced slow call + failing call)
    through the live RPC stack produces flight-recorder dumps whose
    events name the failing component."""
    world = traffic_world
    artifacts = _artifacts_dir()
    recorder_dir = str(artifacts) if artifacts is not None else str(tmp_path)
    configure_recorder(recorder_dir, process="traffic-bench",
                       slow_call_seconds=0.02, min_dump_interval=0.0)
    registry = MetricsRegistry()
    collector = MetricsCollector(registry, interval=0.05, capacity=600)
    # Both windows span the whole (sub-second) run, so the verdict is
    # about the burn math, not about where the shuffled faults landed.
    engine = SloEngine(collector, [
        SloSpec(name="rpc-errors", error_series="rpc.server.errors",
                total_series="rpc.server.frames_in", error_budget=0.02,
                short_window=60.0, long_window=60.0),
    ])
    inner = OntologyService(world["pipe"].ontology, ner=world["ner"],
                            tagger_options=dict(TAGGER_OPTIONS))
    backend = _RiggedBackend(inner, stall_seconds=0.05)
    rng = random.Random(17)
    plan = (["boom"] * 6 + ["slow"] * 3
            + world["queries"][:9])
    rng.shuffle(plan)
    errors_seen = 0

    async def drive() -> int:
        nonlocal errors_seen
        async with AsyncOntologyService(backend,
                                        registry=registry) as service:
            server = RpcServer(service, registry=registry)
            host, port = await server.start()
            client = await RpcClient.connect(host, port, registry=registry)
            try:
                for query in plan:
                    collector.sample()
                    try:
                        await client.call("interpret_queries", [query])
                    except RpcError:
                        errors_seen += 1
                collector.sample()
            finally:
                await client.close()
                await server.close()
        return errors_seen

    try:
        asyncio.run(asyncio.wait_for(drive(), 300))
        recorder = recorder_mod.get_recorder()
        kinds = {(e["kind"], e["component"]) for e in recorder.events()}
        assert errors_seen == 6
        assert ("rpc.error", "rpc.server.interpret_queries") in kinds
        assert ("rpc.slow_call", "rpc.server.interpret_queries") in kinds
        dumps = sorted(pathlib.Path(recorder_dir)
                       .glob("flight-traffic-bench-*.jsonl"))
        assert dumps, "anomalies must dump when a recorder dir is set"
        assert "rpc.server.interpret_queries" \
            in dumps[-1].read_text(encoding="utf-8")
        verdicts = engine.evaluate_all()
        [errors_verdict] = verdicts
        # a third of calls failed against a 2% budget: the burn pages
        assert errors_verdict["verdict"] in ("warn", "page")
        write_json("BENCH_tagging", {
            "fault_injection": {
                "injected_errors": 6,
                "injected_slow_calls": 3,
                "errors_observed": errors_seen,
                "recorder_dumps": len(dumps),
                "anomalies": recorder.anomalies,
                "failing_component": "rpc.server.interpret_queries",
                "slo": [{"slo": v["slo"], "verdict": v["verdict"]}
                        for v in verdicts],
            },
        })
    finally:
        recorder_mod._RECORDER = None
