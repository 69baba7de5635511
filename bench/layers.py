"""The traced run's per-layer numbers.

Spans are recorded here, in the benchmark, around calls into each
layer's public functions; counters are read from the program's own
``obs_status`` / ``MetricsRegistry.snapshot()`` output.  Where a layer
cannot be called on its own its cost is a difference: the same seeded
requests sent through two neighbouring tiers (direct -> aio -> rpc, and
direct -> in-process cluster -> remote cluster).  Every probe is the
same on every workload; only the ``bench.*`` metrics and the ledger
read the workload's own traffic.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import shutil
import statistics

from repro.core.columnar import decode_store_segment, encode_store_segment
from repro.core.serialize import store_from_dict, store_to_dict
from repro.core.store import OntologyStore
from repro.obs import MetricsRegistry
from repro.replication import DeltaLog, PublisherThread, SnapshotCatalog
from repro.replication.follower import SyncLogClient
from repro.serving import AsyncOntologyService, OntologyService
from repro.serving.rpc import dumps, dumps_binary, loads, loads_binary
from repro.text.tokenizer import tokenize

from . import stack
from .harness import (
    Environment,
    Oracle,
    Outcome,
    attempt,
    band_mean,
    closed_window,
    freshness_cycle,
    open_window,
    percentile,
)
from .trace import Tracer
from .workloads import (
    TAGGER_OPTIONS,
    RequestStream,
    Workload,
)

#: Requests per class and tier in the differential probes.
PROBE_SAMPLES = 40
CODEC_REPEATS = 3
TAGGER_BUILDS = 3

#: Request classes each probe tier is sent.
TIER_KINDS = {
    "single": ("batch", "tag", "query", "profile", "story", "neighborhood"),
    "aio": ("tag", "query", "profile", "story"),
    "rpc": ("tag", "query", "profile", "story"),
    "cluster": ("tag", "query", "neighborhood"),
    "remote": ("tag", "query", "neighborhood"),
}
#: Serving methods behind each request class.
KIND_METHODS = {"tag": ("tag_documents",), "query": ("interpret_queries",),
                "profile": ("record_read", "user_interests"),
                "story": ("track_events", "follow_ups")}


def _one_class(workload: Workload, kind: str) -> Workload:
    return dataclasses.replace(workload, name="layer_probe",
                               mix=((kind, 1.0),), rate=None)


async def _prime(call, stream: RequestStream) -> None:
    """Seat the state the probe requests build on (first story events)."""
    for request in stream.prime():
        _reply, error = await attempt(call, request, Tracer(False), "probe")
        if error is not None:
            raise RuntimeError(f"probe warm-up failed: {error}")


def _class_medians(name: str, records: list) -> dict:
    """Median request milliseconds per class; a failed probe is fatal."""
    for record in records:
        if record.error is not None:
            raise RuntimeError(f"probe {name}/{record.request.kind} "
                               f"failed: {record.error}")
    return {kind: statistics.median(
        r.seconds for r in records if r.request.kind == kind) * 1e3
        for kind in {r.request.kind for r in records}}


async def _probe_closed(name: str, call, env: Environment,
                        workload: Workload, own: dict, tracer: Tracer,
                        seed: int, samples: int) -> "tuple[dict, list]":
    """``samples`` requests of each class, one after the other: the
    workload's own first requests of the class where it has any (so the
    ledger compares a request with itself), seeded draws otherwise."""
    records = []
    for kind in TIER_KINDS[name]:
        stream = RequestStream(_one_class(workload, kind), env.built.pools,
                               seed)
        await _prime(call, stream)
        requests = ([record.request for record in own.get(kind, ())]
                    or list(itertools.islice(stream, samples)))
        records += (await closed_window(
            call, iter(requests[:samples]), float("inf"), tracer,
            f"probe.{name}"))[0]
    return _class_medians(name, records), records


def _mean_ms(snapshot: dict, name: str, since: "dict | None" = None) -> float:
    """Exact mean of a registry histogram (its buckets are 19 % wide,
    its sum and count are exact), optionally of what it observed after
    the earlier snapshot ``since``."""
    hist = snapshot.get(name) or {"sum": 0.0, "count": 0}
    base = (since or {}).get(name) or {"sum": 0.0, "count": 0}
    count = hist["count"] - base["count"]
    return (hist["sum"] - base["sum"]) / count * 1e3 if count else 0.0


def _server_ms(kind: str, snapshot: dict, since: "dict | None" = None
               ) -> float:
    """Mean milliseconds the serving child spent inside the handlers of
    one request class (queue wait + execute, by its own clock)."""
    return sum(_mean_ms(snapshot, f"rpc.server.method.{method}.seconds",
                        since) for method in KIND_METHODS[kind])


def _core(built: stack.Built, tracer: Tracer, out: dict) -> None:
    """core.store / core.serialize / core.columnar / views on the
    pipeline's own store and delta stream."""
    store = built.pipeline.ontology.store
    nodes = len(store)
    for _ in range(CODEC_REPEATS):
        with tracer.span("core.store.compact"):
            snapshot = store.compact()
        with tracer.span("core.serialize.json_encode"):
            text = json.dumps(store_to_dict(store), sort_keys=True)
        with tracer.span("core.serialize.json_decode"):
            store_from_dict(json.loads(text))
        with tracer.span("core.columnar.encode"):
            segment = encode_store_segment(snapshot)
        with tracer.span("core.columnar.decode"):
            decode_store_segment(segment)
    replay = OntologyStore()
    service = OntologyService(replay, ner=built.ner,
                              tagger_options=dict(TAGGER_OPTIONS),
                              registry=MetricsRegistry())
    for delta in built.deltas:
        with tracer.span("core.store.apply_delta"):
            replay.apply_delta(delta)
        with tracer.span("views.fold"):
            service.fold_views(delta)
    views = service.views.stats()
    for name in ("core.store.compact", "core.serialize.json_encode",
                 "core.serialize.json_decode", "core.columnar.encode",
                 "core.columnar.decode", "core.store.apply_delta"):
        out[f"{name}_ms"] = (tracer.median_ms(name), "ms")
    out["views.fold_ms"] = (tracer.median_ms("views.fold"), "ms")
    out["views.rows_folded"] = (views["rows_folded"], "count")
    out["views.rehydrations"] = (views["rehydrations"], "count")
    out["core.serialize.bytes_per_node"] = (len(text) / nodes, "B")
    out["core.columnar.bytes_per_node"] = (len(segment) / nodes, "B")


def _replication(built: stack.Built, tracer: Tracer, out: dict) -> None:
    """replication.log / catalog / publisher on a scratch log fed the
    run's delta stream, plus the worker bootstrap it enables."""
    workdir = stack.make_workdir()
    try:
        log = DeltaLog(os.path.join(workdir, "log"),
                       segment_max_bytes=stack.LOG_SEGMENT_BYTES)
        for delta in built.deltas:
            with tracer.span("replication.log.append"):
                log.append(delta)
        out["replication.log.bytes_per_delta"] = (
            log.size_bytes() / len(built.deltas), "B")
        with tracer.span("replication.log.read"):
            log.read(0)
        with PublisherThread(log, registry=MetricsRegistry()) as publisher:
            with SyncLogClient.connect(*publisher.address) as client:
                for _ in range(10):
                    with tracer.span("replication.publisher.fetch"):
                        client.fetch(since=0)
        catalog = SnapshotCatalog(
            log, compact_bytes=stack.CATALOG_COMPACT_BYTES,
            retain_segments=1)
        with tracer.span("replication.catalog.compact"):
            catalog.record(built.pipeline.ontology.store)
        out["replication.catalog.snapshot_bytes"] = (os.path.getsize(
            catalog.path / catalog.latest_entry()["name"]), "B")
        snapshot, version = catalog.latest()
        with tracer.span("core.store.bootstrap"):
            OntologyStore.bootstrap(snapshot, log.read(version))
        log.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name in ("replication.log.append", "replication.log.read",
                 "replication.catalog.compact", "core.store.bootstrap",
                 "replication.publisher.fetch"):
        out[f"{name}_ms"] = (tracer.median_ms(name), "ms")


def _codec(records: list, tracer: Tracer, out: dict) -> None:
    """serving.rpc codec cost on payloads captured from the tag probe."""
    sizes = []
    for record in records:
        args, reply = list(record.request.calls[0][1]), record.reply
        with tracer.span("serving.rpc.request_encode"):
            dumps(args)
        with tracer.span("serving.rpc.reply_encode"):
            wire = dumps(reply)
        sizes.append(len(wire))
        with tracer.span("serving.rpc.reply_decode"):
            loads(wire)
        with tracer.span("serving.rpc.reply_encode_binary"):
            packed = dumps_binary(reply)
        with tracer.span("serving.rpc.reply_decode_binary"):
            loads_binary(packed)
    for name in ("request_encode", "reply_encode", "reply_decode",
                 "reply_encode_binary", "reply_decode_binary"):
        out[f"serving.rpc.{name}_us"] = (
            tracer.median_ms(f"serving.rpc.{name}") * 1e3, "us")
    out["serving.rpc.bytes_per_reply"] = (statistics.mean(sizes), "B")


def _worker_requests(remote) -> int:
    return sum(shard["metrics"]["shard_worker.requests"]
               for shard in remote.obs_status()["shards"])


async def per_layer(workload: Workload, env: Environment, oracle: Oracle,
                    tracer: Tracer, plain: Outcome, traced: Outcome,
                    seed: int, samples: int = PROBE_SAMPLES
                    ) -> "tuple[dict, list]":
    """Every per-layer metric of ``BENCHMARK.json`` plus the ledger."""
    built, tier = env.built, env.tier
    few = max(2, samples // 4)  # remote probes: a request costs 50-250 ms
    out: dict = {}
    store = built.pipeline.ontology.store

    # -- set-up spans ------------------------------------------------------
    build_s = tracer.seconds("pipeline.build")[0]
    out["synth.world_build_s"] = (tracer.seconds("synth.world_build")[0], "s")
    out["pipeline.build_s"] = (build_s, "s")
    out["pipeline.nodes"] = (len(store), "count")
    out["pipeline.edges"] = (len(store.edges()), "count")
    out["pipeline.deltas"] = (len(built.pipeline.deltas), "count")
    out["pipeline.nodes_per_s"] = (len(store) / build_s, "1/s")

    _core(built, tracer, out)
    _replication(built, tracer, out)

    # -- direct -> aio -> rpc ----------------------------------------------
    medians = {}
    own = {kind: [r for r in plain.records
                  if r.request.kind == kind and r.error is None]
           for kind, _share in workload.mix}
    direct = stack.single_service(built)
    medians["single"], _records = await _probe_closed(
        "single", stack.direct_call(direct), env, workload, own, tracer,
        seed, samples)
    out["apps.tagging.doc_ms"] = (medians["single"]["tag"], "ms")
    out["apps.query.query_ms"] = (medians["single"]["query"], "ms")
    for method, metric in (
            ("record_read", "apps.profiles.write_ms"),
            ("user_interests", "apps.profiles.read_ms"),
            ("track_events", "apps.story_tracker.write_ms"),
            ("follow_ups", "apps.story_tracker.read_ms")):
        out[metric] = (tracer.median_ms(f"probe.single.{method}"), "ms")
    cache = direct.stats()["cache"]
    out["serving.service.cache_hit_ratio"] = (
        cache["hits"] / max(1, cache["hits"] + cache["misses"]), "ratio")

    async with AsyncOntologyService(direct,
                                    registry=MetricsRegistry()) as aio:
        async def aio_call(method: str, *args, **kwargs):
            return await getattr(aio, method)(*args, **kwargs)
        medians["aio"], _records = await _probe_closed(
            "aio", aio_call, env, workload, own, tracer, seed, samples)

    rpc = tier if tier.name == "rpc" else await stack.start_rpc(
        built, tracer, clients=1)
    try:
        # The child's clocks so far saw the workload's arrival process
        # (when this is its tier); after the probe, the difference is
        # what they saw of lone requests.
        loaded = (await rpc.calls[0]("obs_status"))["metrics"]
        medians["rpc"], records = await _probe_closed(
            "rpc", rpc.calls[0], env, workload, own, tracer, seed, samples)
        child = (await rpc.calls[0]("obs_status"))["metrics"]
    finally:
        if rpc is not tier:
            await rpc.close()
    _codec([r for r in records if r.request.kind == "tag"], tracer, out)
    flushes = sum(child.get(f"aio.batcher.{reason}_flushes", 0)
                  for reason in ("size", "deadline", "barrier"))
    out["serving.batcher.queue_wait_ms"] = (
        _mean_ms(child, "aio.batcher.queue_wait_seconds"), "ms")
    out["serving.batcher.execute_ms"] = (
        _mean_ms(child, "aio.batcher.execute_seconds"), "ms")
    out["serving.batcher.items_per_batch"] = (
        child["aio.batcher.items"] / max(1, child["aio.batcher.batches"]),
        "count")
    out["serving.batcher.deadline_flush_ratio"] = (
        child["aio.batcher.deadline_flushes"] / max(1, flushes), "ratio")
    out["serving.batcher.overhead_ms"] = (
        medians["aio"]["tag"] - medians["single"]["tag"], "ms")
    out["serving.rpc.overhead_ms"] = (
        medians["rpc"]["tag"] - medians["aio"]["tag"], "ms")
    out["serving.rpc.binary_negotiated"] = (
        child["rpc.server.negotiated_binary"], "count")

    # -- direct -> in-process cluster -> remote cluster --------------------
    cluster = stack.start_cluster(built, tracer)
    medians["cluster"], probed_cluster = await _probe_closed(
        "cluster", cluster.calls[0], env, workload, own, tracer, seed,
        samples)
    scatter = cluster.registry.snapshot()
    out["cluster.service.bootstrap_ms"] = (
        tracer.median_ms("cluster.service.bootstrap"), "ms")
    out["cluster.shards.scatter_overhead_ms"] = (
        medians["cluster"]["query"] - medians["single"]["query"], "ms")
    out["cluster.shards.scatters_per_req"] = (
        scatter["scatter.scatters"] / len(probed_cluster), "count")
    out["cluster.shards.fanin_rows_per_req"] = (
        scatter["scatter.resolves"] / len(probed_cluster), "count")

    remote = tier if tier.name == "remote" else await stack.start_remote(
        built, tracer)
    try:
        node_id = built.pools.node_ids[0]
        for _ in range(samples):
            with tracer.span("cluster.remote.shard_call"):
                remote.service.replicas[0].owns(node_id)
        before = _worker_requests(remote.service)
        medians["remote"], probed_remote = await _probe_closed(
            "remote", remote.calls[0], env, workload, own, tracer, seed,
            few)
        # obs_status is itself one request per worker
        served = (_worker_requests(remote.service) - before
                  - stack.REMOTE_SHARDS)
        took, _reads, error = await freshness_cycle(
            remote, built, oracle, tracer, seed)
        if error is not None:
            raise RuntimeError(f"remote freshness probe failed: {error}")
        lag = [value for name, value in remote.registry.snapshot().items()
               if name.startswith("replication.follower.")
               and name.endswith(".lag_versions")]
    finally:
        if remote is not tier:
            await remote.close()
    out["cluster.remote.start_s"] = (
        statistics.median(tracer.seconds("cluster.remote.start")), "s")
    out["cluster.remote.shard_call_ms"] = (
        tracer.median_ms("cluster.remote.shard_call"), "ms")
    out["cluster.remote.shard_calls_per_req"] = (
        served / len(probed_remote), "count")
    out["cluster.remote.rpc_overhead_ms"] = (
        medians["remote"]["query"] - medians["cluster"]["query"], "ms")
    out["cluster.remote.refresh_ms"] = (
        tracer.median_ms("cluster.remote.refresh"), "ms")
    out["cluster.remote.first_read_after_refresh_ms"] = (took * 1e3, "ms")
    out["replication.publisher.publish_ms"] = (
        tracer.median_ms("replication.publisher.publish"), "ms")
    out["replication.follower.lag_versions_max"] = (max(lag), "count")

    # -- first tag after a refresh on the single store (last: these
    #    deltas reach no other tier) -----------------------------------------
    for _ in range(TAGGER_BUILDS):
        phrase, _delta = built.commit_fresh_event(seed)
        direct.refresh(built.deltas)  # skips what it already holds
        with tracer.span("apps.tagging.tagger_build"):
            direct.tag_documents([("probe", tokenize(phrase), [])])
    out["apps.tagging.tagger_build_ms"] = (
        tracer.median_ms("apps.tagging.tagger_build"), "ms")

    # -- the workload's own traffic ----------------------------------------
    late = [record.late * 1e3 for record in plain.records]
    out["bench.generator_late_ms_p99"] = (
        percentile(late, 99) if workload.loop == "open" else 0.0, "ms")
    untraced_mid = band_mean(plain.latencies_ms(), 0.25, 0.75)
    out["bench.trace_overhead_ratio"] = (
        band_mean(traced.latencies_ms(), 0.25, 0.75) / untraced_mid
        if untraced_mid else 0.0, "ratio")
    out["bench.known_mismatches"] = (
        plain.known_mismatches + traced.known_mismatches, "count")
    for q in (50, 90, 99):
        out[f"bench.req_p{q}_ms"] = (percentile(plain.latencies_ms(), q),
                                     "ms")
    ledger = []
    for kind, _share in workload.mix:
        if not own[kind]:
            continue  # a capped smoke run may miss a rare class
        # Like with like: the requests the probes replayed (the remote
        # tier replays fewer; a remote request costs 50-250 ms).
        compared = own[kind][:few if tier.name == "remote" else samples]
        measured = statistics.median(r.seconds for r in compared) * 1e3
        parts = {"direct": medians["single"][kind]}
        if tier.name == "rpc":
            # Three clocks: the direct probe, the child's handler time
            # under the workload's load, and client-minus-child on lone
            # requests (wire + codec, free of queueing).  The child's
            # histograms give exact means only, so this row is in means.
            compared = own[kind]
            measured = statistics.mean(r.seconds for r in compared) * 1e3
            parts["generator"] = statistics.mean(
                r.late for r in compared) * 1e3
            parts["batcher"] = _server_ms(kind, loaded) - parts["direct"]
            parts["rpc"] = (medians["rpc"][kind]
                            - _server_ms(kind, child, since=loaded))
        elif tier.name == "remote":
            parts["scatter"] = medians["cluster"][kind] - parts["direct"]
            parts["remote"] = (medians["remote"][kind]
                               - medians["cluster"][kind])
        residual = measured - sum(parts.values())
        ledger.append({"class": kind, "measured_ms": measured,
                       "parts_ms": parts, "residual_ms": residual,
                       "residual_ratio": residual / measured,
                       "samples": len(compared)})
    # A row of under ten requests is printed but not summarised: five
    # neighborhood reads flip between a cached 1 ms and a stalled 44 ms.
    summarised = [row for row in ledger if row["samples"] >= 10] or ledger
    out["bench.ledger_residual_ratio_max"] = (
        max((abs(row["residual_ratio"]) for row in summarised), default=0.0),
        "ratio")
    return ({name: {"value": value, "unit": unit}
             for name, (value, unit) in out.items()}, ledger)
