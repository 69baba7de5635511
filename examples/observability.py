#!/usr/bin/env python
"""Observability walkthrough: metrics registry + cross-process tracing.

Runs the replicated shard cluster (DESIGN.md §8) under a mixed
tag/query/stats load through the async micro-batching front, with the
full repro.obs telemetry stack (DESIGN.md §12) armed:

1. the process-wide MetricsRegistry picks up every instrumented layer —
   rpc client frames, micro-batcher queue/batch histograms, scatter
   fan-out latency, publisher follower-lag gauges — in one snapshot;
2. the tracer stamps each request with a TraceContext that rides the
   RPC frames into the spawned shard-worker processes (they inherit
   REPRO_TRACE_DIR), so one request becomes one connected span tree
   spanning driver -> worker process boundaries;
3. the continuous-telemetry layer (DESIGN.md §14) runs alongside: a
   MetricsCollector samples the registry into time series, an SloEngine
   turns them into burn-rate verdicts, and the FlightRecorder rings up
   structured events from every instrumented layer;
4. a late delta is published and the follower-lag gauges are read
   before and after the workers catch up;
5. a shard worker is restarted — an *anomaly* — which auto-dumps the
   flight-recorder ring to disk; the dump is read back and shown;
6. the per-process span logs are merged into a Chrome trace_event file
   loadable in chrome://tracing or https://ui.perfetto.dev.

Run:  python examples/observability.py
"""

import asyncio
import json
import os
import shutil
import tempfile

from repro import GiantPipeline, WorldConfig, build_world
from repro.cluster import RemoteClusterService
from repro.core.ontology import NodeType
from repro.obs import (
    RECORDER_DIR_ENV,
    TRACE_DIR_ENV,
    configure_collector,
    configure_recorder,
    configure_slo_engine,
    configure_tracer,
    get_recorder,
    get_registry,
    get_tracer,
    load_spans,
    write_chrome_trace,
)
from repro.replication import DeltaLog, PublisherThread, SnapshotCatalog
from repro.serving import AsyncOntologyService
from repro.synth.documents import DocumentGenerator
from repro.synth.querylog import QueryLogGenerator, build_click_graph


def show(snapshot: dict, keys: "list[str]") -> None:
    """Pretty-print selected registry entries (histograms as p50/p95/p99)."""
    for key in keys:
        value = snapshot.get(key)
        if value is None:
            continue
        if isinstance(value, dict):
            print(f"  {key}: n={value['count']} "
                  f"p50={value['p50'] * 1e3:.2f}ms "
                  f"p95={value['p95'] * 1e3:.2f}ms "
                  f"p99={value['p99'] * 1e3:.2f}ms "
                  f"max={value['max'] * 1e3:.2f}ms")
        else:
            print(f"  {key}: {value:g}")


def run(log_dir: str) -> None:
    # Arm the tracer first: the env var makes every process spawned
    # below (shard workers inherit the environment) trace into the same
    # directory, one spans-<process>.jsonl each.
    trace_dir = tempfile.mkdtemp(prefix="giant-trace-")
    os.environ[TRACE_DIR_ENV] = trace_dir
    configure_tracer(trace_dir, process="driver")
    tracer = get_tracer()

    # Arm the continuous-telemetry layer the same way: the recorder env
    # var makes spawned workers dump anomalies into the same directory,
    # the collector samples the registry into series, and the SLO
    # engine watches the default serving objectives over them.
    os.environ[RECORDER_DIR_ENV] = trace_dir
    configure_recorder(trace_dir, process="driver")
    collector = configure_collector(interval=0.2)
    engine = configure_slo_engine(collector)
    collector.start()

    # --- build a small world into a durable log (the system of record).
    world = build_world(WorldConfig(num_days=2, seed=0))
    days = QueryLogGenerator(world).generate_days()
    pos_tagger, ner_tagger = world.register_text_models()
    pipeline = GiantPipeline(
        build_click_graph(days), pos_tagger, ner_tagger,
        categories=sorted({c[2] for c in world.categories}),
    )
    pipeline.run(sessions=[s for d in days for s in d.sessions])
    log = DeltaLog(log_dir, segment_max_bytes=64 * 1024)
    log.extend(pipeline.deltas)
    catalog = SnapshotCatalog(log, compact_bytes=96 * 1024)
    catalog.maybe_compact(pipeline.ontology.store)

    corpus = DocumentGenerator(world).corpus(num_concept_docs=8,
                                             num_event_docs=4)
    queries = [f"best {c}" for c in sorted(world.concepts)[:6]]
    options = {"coherence_threshold": 0.02}

    with PublisherThread(log, catalog) as publisher, \
            RemoteClusterService(publisher.address, num_shards=2,
                                 ner=ner_tagger,
                                 tagger_options=options) as remote:
        print(f"2 follower-fed shard workers up at v{remote.version}; "
              f"tracing into {trace_dir}")

        # --- mixed load: concurrent tag / query / stats streams through
        # the async front; each request gets its own root span, which
        # the batcher and the shard RPC clients extend across processes.
        async def tag_stream(aio):
            for start in range(0, len(corpus), 3):
                batch = corpus[start:start + 3]
                with tracer.span("load.tag", docs=len(batch)):
                    await aio.tag_documents(batch)

        async def query_stream(aio):
            for query in queries:
                with tracer.span("load.query"):
                    await aio.interpret_queries([query])

        async def stats_stream(aio):
            for _ in range(3):
                with tracer.span("load.stats"):
                    await aio.stats()

        async def drive():
            async with AsyncOntologyService(remote) as aio:
                await asyncio.gather(tag_stream(aio), query_stream(aio),
                                     query_stream(aio), stats_stream(aio))

        asyncio.run(asyncio.wait_for(drive(), 120))
        snapshot = get_registry().snapshot()
        print(f"\nregistry snapshot after mixed load "
              f"({len(snapshot)} instruments); highlights:")
        show(snapshot, [
            "aio.batcher.requests",
            "aio.batcher.batches",
            "aio.batcher.queue_wait_seconds",
            "aio.batcher.execute_seconds",
            "scatter.fanout_seconds",
            "scatter.shard_seconds",
            "replication.fetches",
            "replication.followers",
            "replication.gc_floor",
        ])

        # --- follower lag: publish a late delta and refresh the fleet.
        # Each lag gauge holds the follower's position as of its last
        # call to the publisher, so the catch-up fetch itself records
        # the induced lag (1 version, a few ms old) that it then closes.
        pipeline.ontology.begin_delta("late-news")
        pipeline.ontology.add_node(
            NodeType.EVENT, "surprise sequel announced at midnight")
        late = pipeline.ontology.store.commit_delta()
        publisher.publish([late])
        remote.refresh([late])
        lag_keys = sorted(k for k in get_registry().snapshot()
                          if ".lag_" in k or k.endswith("last_version"))
        print(f"\ninduced follower lag, stamped by the catch-up fetch "
              f"(workers now at v{remote.version}):")
        show(get_registry().snapshot(), lag_keys)

        # --- continuous telemetry (DESIGN.md §14): the collector has
        # been sampling the registry in the background through the load
        # above, deriving counter rates and windowed percentiles; the
        # SLO engine turns those series into burn-rate verdicts.
        collector.sample()  # close the window with one final sample
        desc = collector.describe()
        print(f"\ncollector: {desc['samples_taken']} samples across "
              f"{desc['series']} series; highlights:")
        for name in ("aio.batcher.requests.rate",
                     "aio.batcher.execute_seconds.p95",
                     "scatter.fanout_seconds.p95"):
            point = collector.latest(name)
            if point is not None:
                print(f"  {name}: {point[1]:g} (t={point[0]:.2f})")
        for verdict in engine.evaluate_all():
            print(f"  slo {verdict['slo']}: {verdict['verdict']}")

        # --- the flight recorder has been ringing up events from the
        # same load (scatter stragglers, ...).  Restart a
        # shard worker: ``worker.restart`` is in the anomaly taxonomy,
        # so the recorder auto-dumps its ring — the black box names the
        # affected component with no debugger attached.
        print("\nrestarting shard 0 (an anomaly -> flight-recorder dump)")
        remote.restart_shard(0)
        recorder = get_recorder()
        rdesc = recorder.describe()
        print(f"recorder ring: {rdesc['events_held']} events held, "
              f"{rdesc['anomalies']} anomalies, "
              f"{rdesc['dumps_written']} dumps written")
        dump_path = recorder.last_dump_path or recorder.dump()
        print(f"flight-recorder dump: {dump_path}")
        with open(dump_path, encoding="utf-8") as handle:
            dumped = [json.loads(line) for line in handle]
        header, events = dumped[0], dumped[1:]
        anomalies = [e for e in events if e["anomaly"]]
        print(f"  dump reason={header['reason']!r} holds "
              f"{header['events']} events, {len(anomalies)} anomalous;"
              " last anomaly:")
        last = anomalies[-1]
        print(f"  {last['kind']} component={last['component']!r} "
              f"seq={last['seq']}")

        # --- persist the snapshot for offline diffing.
        snap_path = os.path.join(trace_dir, "registry-snapshot.json")
        with open(snap_path, "w") as handle:
            json.dump(get_registry().snapshot(), handle, indent=1,
                      sort_keys=True)
        print(f"\nfull registry snapshot dumped to {snap_path}")

    collector.stop()
    log.close()

    # --- merge the per-process span logs into one Chrome trace.
    spans = load_spans(trace_dir)
    by_process: "dict[str, int]" = {}
    for span in spans:
        by_process[span["process"]] = by_process.get(span["process"], 0) + 1
    chrome_path = os.path.join(trace_dir, "trace.json")
    exported = write_chrome_trace(trace_dir, chrome_path)
    print(f"{exported} spans from {len(by_process)} processes "
          + str(dict(sorted(by_process.items()))))
    roots = [s for s in spans if s.get("parent") is None]
    print(f"{len(roots)} root spans (one per driven request); open "
          f"{chrome_path} in chrome://tracing or ui.perfetto.dev "
          "for the timeline")


def main() -> None:
    # The delta log is scratch; the trace directory is this example's
    # output and stays.
    log_dir = tempfile.mkdtemp(prefix="giant-obs-log-")
    try:
        run(log_dir)
    finally:
        shutil.rmtree(log_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
