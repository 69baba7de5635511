"""Builds what a run serves from: the seeded world, the model-free
pipeline output, and one serving tier per workload — each started
through the tier's public entry points, exactly as a deployment would.

Every tier is reached through one awaitable ``call(method, *args,
**kwargs)``, the signature of ``RpcClient.call``, so the request loops
and the oracle are tier-agnostic.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import shutil
import tempfile
import time
from contextlib import AsyncExitStack
from dataclasses import dataclass, field

from repro import GiantPipeline, WorldConfig, build_world
from repro.cluster import ClusterService, RemoteClusterService
from repro.core.ontology import NodeType
from repro.core.serialize import save_deltas
from repro.core.store import OntologyStore
from repro.obs import MetricsRegistry
from repro.replication import DeltaLog, PublisherThread, SnapshotCatalog
from repro.serving import OntologyService
from repro.serving.rpc import RpcClient
from repro.synth.querylog import QueryLogGenerator, build_click_graph

from . import rpc_child
from .trace import Tracer
from .workloads import (
    TAGGER_OPTIONS,
    WORLD,
    Pools,
    build_pools,
    fresh_event_phrase,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Scratch space inside the checkout (delta files, logs, catalogs).
WORK_ROOT = os.path.join(ROOT, ".bench_build")

REMOTE_SHARDS = 2
LOG_SEGMENT_BYTES = 64 * 1024
CATALOG_COMPACT_BYTES = 96 * 1024
CHILD_START_SECONDS = 60.0


@dataclass
class Built:
    """One world and its pipeline output.  ``pipeline.ontology`` stays
    the *writer*: freshness cycles commit their deltas on it, and no
    served tier shares its store.  ``generator_s`` is what building the
    request pools took — the generator's cost, not the program's."""

    world: object
    ner: object
    pipeline: GiantPipeline
    pools: Pools
    deltas: list
    generator_s: float

    def commit_fresh_event(self, seed: int) -> tuple:
        """Commit one delta adding an EVENT node no one has seen;
        returns ``(phrase, delta)``.  The delta joins ``deltas``, so a
        tier started later replays it."""
        phrase = fresh_event_phrase(seed, len(self.deltas))
        ontology = self.pipeline.ontology
        ontology.begin_delta("bench-freshness")
        ontology.add_node(NodeType.EVENT, phrase)
        delta = ontology.store.commit_delta()
        self.deltas.append(delta)
        return phrase, delta


def build(tracer: Tracer, world: "dict | None" = None) -> Built:
    with tracer.span("synth.world_build"):
        built_world = build_world(WorldConfig(**(world or WORLD)))
        days = QueryLogGenerator(built_world).generate_days()
        pos, ner = built_world.register_text_models()
        graph = build_click_graph(days)
    with tracer.span("pipeline.build"):
        pipeline = GiantPipeline(
            graph, pos, ner,
            categories=sorted({c[2] for c in built_world.categories}))
        pipeline.run(sessions=[s for day in days for s in day.sessions])
    began = time.perf_counter()
    pools = build_pools(built_world, pipeline.ontology)
    return Built(built_world, ner, pipeline, pools, list(pipeline.deltas),
                 time.perf_counter() - began)


def single_service(built: Built) -> OntologyService:
    """A single-store service over its own replay of the delta stream
    (the shape of every tier's backend, and of the oracle)."""
    return OntologyService(
        OntologyStore.bootstrap(None, built.deltas), ner=built.ner,
        tagger_options=dict(TAGGER_OPTIONS), registry=MetricsRegistry())


def direct_call(service):
    """``call`` for a tier that lives in this process."""
    async def call(method: str, *args, **kwargs):
        return getattr(service, method)(*args, **kwargs)
    return call


@dataclass
class Tier:
    """A started serving tier.  ``calls`` holds one ``call`` per client
    connection; ``exits`` unwinds what starting it opened."""

    name: str
    calls: list = field(default_factory=list)
    service: object = None
    registry: "MetricsRegistry | None" = None
    exits: AsyncExitStack = field(default_factory=AsyncExitStack)

    async def publish(self, delta) -> None:
        """Hand a committed delta to the tier."""
        await self.calls[0]("refresh", [delta])

    async def close(self) -> None:
        await self.exits.aclose()


@dataclass
class RemoteTier(Tier):
    """Shards fed from the log: a delta goes into the log first, then
    the workers are told to catch up."""

    publisher: "PublisherThread | None" = None
    tracer: "Tracer | None" = None

    async def publish(self, delta) -> None:
        with self.tracer.span("replication.publisher.publish"):
            self.publisher.publish([delta])
        with self.tracer.span("cluster.remote.refresh"):
            self.service.refresh([delta])


def make_workdir() -> str:
    os.makedirs(WORK_ROOT, exist_ok=True)
    return tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=WORK_ROOT)


async def start_single(built: Built, tracer: Tracer) -> Tier:
    with tracer.span("serving.service.start"):
        service = single_service(built)
    return Tier("single", [direct_call(service)], service=service)


async def start_rpc(built: Built, tracer: Tracer, clients: int = 2) -> Tier:
    """Spawn the serving child and connect ``clients`` connections."""
    workdir = make_workdir()
    tier = Tier("rpc")
    tier.exits.callback(shutil.rmtree, workdir, ignore_errors=True)
    with tracer.span("serving.rpc.start"):
        deltas_path = os.path.join(workdir, "deltas.json")
        save_deltas(built.deltas, deltas_path)
        context = multiprocessing.get_context("spawn")
        parent_end, child_end = context.Pipe()
        process = context.Process(
            target=rpc_child.serve, daemon=True,
            args=(child_end, deltas_path, built.ner, dict(TAGGER_OPTIONS)))
        process.start()
        child_end.close()

        def stop_child() -> None:
            try:
                parent_end.send("stop")
            except OSError:
                pass
            process.join(10.0)
            if process.is_alive():
                process.terminate()
                process.join(5.0)
            parent_end.close()

        tier.exits.callback(stop_child)
        try:
            if not parent_end.poll(CHILD_START_SECONDS):
                raise RuntimeError("the rpc child did not come up in time")
            host, port = parent_end.recv()
            for _ in range(clients):
                client = await RpcClient.connect(
                    host, port, registry=MetricsRegistry())
                tier.exits.push_async_callback(client.close)
                tier.calls.append(client.call)
        except BaseException:
            await tier.close()
            raise
    return tier


def start_cluster(built: Built, tracer: Tracer) -> Tier:
    """The in-process 2-shard cluster (per-layer probes only)."""
    registry = MetricsRegistry()
    with tracer.span("cluster.service.bootstrap"):
        service = ClusterService(
            num_shards=REMOTE_SHARDS, ner=built.ner,
            tagger_options=dict(TAGGER_OPTIONS), deltas=built.deltas,
            registry=registry)
    return Tier("cluster", [direct_call(service)], service=service,
                registry=registry)


async def start_remote(built: Built, tracer: Tracer) -> Tier:
    """Compacted ``DeltaLog`` + ``SnapshotCatalog`` behind a
    ``PublisherThread``, feeding a 2-worker ``RemoteClusterService``."""
    workdir = make_workdir()
    registry = MetricsRegistry()
    tier = RemoteTier("remote", registry=registry, tracer=tracer)
    tier.exits.callback(shutil.rmtree, workdir, ignore_errors=True)
    try:
        with tracer.span("replication.start"):
            log = DeltaLog(os.path.join(workdir, "log"),
                           segment_max_bytes=LOG_SEGMENT_BYTES)
            tier.exits.callback(log.close)
            catalog = SnapshotCatalog(
                log, compact_bytes=CATALOG_COMPACT_BYTES, retain_segments=1)
            log.extend(built.deltas)
            catalog.maybe_compact(built.pipeline.ontology.store)
            publisher = PublisherThread(log, catalog, registry=registry)
            publisher.start()
            tier.exits.callback(publisher.stop)
        with tracer.span("cluster.remote.start"):
            remote = RemoteClusterService(
                publisher.address, num_shards=REMOTE_SHARDS, ner=built.ner,
                tagger_options=dict(TAGGER_OPTIONS), registry=registry)
            tier.exits.callback(remote.close)
    except BaseException:
        await tier.close()
        raise
    tier.service, tier.publisher = remote, publisher
    tier.calls = [direct_call(remote)]
    return tier


async def start_tier(name: str, built: Built, tracer: Tracer,
                     clients: int = 1) -> Tier:
    if name == "single":
        return await start_single(built, tracer)
    if name == "rpc":
        return await start_rpc(built, tracer, clients)
    if name == "remote":
        return await start_remote(built, tracer)
    raise ValueError(f"unknown tier {name!r}")


def stop_processes() -> None:
    """Stop every process this one started and wait until each has
    ended, so that none outlives the run.  A tier joins its own children
    when it closes (a run cut short may not get that far: those are
    killed here); what is left then is ``multiprocessing``'s resource
    tracker, which the first ``spawn`` child brings up and which ends
    only when this process's exit closes its pipe — *after* the caller
    has seen this process gone.  Closing that pipe here and waiting ends
    it first."""
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    # A closed remote tier is a reference cycle that still holds its
    # workers' ready queues; collected now, their semaphores are
    # unlinked before the tracker goes, not reported by it as leaked.
    gc.collect()
    resource_tracker._resource_tracker._stop()


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus every live child
    (``VmHWM`` from ``/proc``), in MiB."""
    pids = [os.getpid()] + [child.pid for child
                            in multiprocessing.active_children()]
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0
