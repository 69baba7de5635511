"""Seeded, replayable fault-injection campaigns over a live cluster.

A campaign is a *recorded schedule* — a JSON-able op list mixing delta
publishes, per-session stamped reads and writes, and fault injections
(worker kills/restarts, follower delay/partition, GC-under-lag, one
mid-traffic **chunked** rebalance) — driven against a real
:class:`~repro.cluster.remote.RemoteClusterService` behind a real
:class:`~repro.serving.rpc.RpcServer`.  Every serving call goes through
:meth:`RpcClient.call_stamped` with the op's session id and is handed
to the :class:`~repro.audit.log.AuditLog` for online checking.

Same artifact discipline as the consistency harness: when a run ends
with violations, the schedule + report is written to
``$REPRO_AUDIT_ARTIFACTS`` — the file alone reproduces the failure
(:func:`replay_artifact`) and shrinks by deleting ops from the JSON.

The schedule drives ops *sequentially* (each op fully awaited), so the
oracle sees writes in the exact order the serving side executed them;
the only concurrency is read traffic interleaved with
``rebalance_step`` calls during the staged resize — reads only, all
stamped at the pre-flip version, which is precisely the window the
auditor exists to check.
"""

from __future__ import annotations

import asyncio
import json
import os
import pathlib
import random
import time
from typing import Any

from ..apps.story_tree import EventRecord
from ..cluster import RemoteClusterService
from ..core.ontology import AttentionOntology, EdgeType, NodeType
from ..core.store import OntologyStore
from ..errors import ReproError
from ..replication import DeltaLog, PublisherThread, SnapshotCatalog
from ..serving.aio import AsyncOntologyService
from ..serving.rpc import RpcClient, RpcServer
from ..text.ner import NerTagger
from ..text.tokenizer import tokenize
from .faults import FaultInjector
from .log import AuditLog

#: Where failing campaigns drop their shrinkable schedule artifacts.
AUDIT_ARTIFACTS_ENV = "REPRO_AUDIT_ARTIFACTS"

#: Serving options every campaign component shares (cluster under test,
#: oracle) — they must match for byte-comparability.
TAGGER_OPTIONS = {"coherence_threshold": 0.01, "lcs_threshold": 0.6}

_ADJS = ["brisk", "coral", "ember", "frosty", "molten", "quiet",
         "vivid", "zonal"]
_NOUNS = ["anchor", "circuit", "harbor", "ledger", "orchard", "prism",
          "relay", "turbine"]

_TYPES = {"category": NodeType.CATEGORY, "concept": NodeType.CONCEPT,
          "entity": NodeType.ENTITY, "event": NodeType.EVENT,
          "topic": NodeType.TOPIC}
_EDGES = {"isA": EdgeType.ISA, "involve": EdgeType.INVOLVE,
          "correlate": EdgeType.CORRELATE}


# ----------------------------------------------------------------------
# schedule generation (pure: same seed -> same JSON-able schedule)
# ----------------------------------------------------------------------
def generate_schedule(seed: int = 0, steps: int = 18,
                      start_shards: int = 2, rebalance_to: int = 3,
                      chunk_nodes: int = 2, sessions: int = 3) -> dict:
    """A seeded campaign schedule covering the whole fault matrix:
    worker kill (+ recovery reads), operator restart, follower delay,
    GC under a lagging consumer, and one mid-traffic chunked rebalance
    with interleaved read probes — wrapped in randomized delta/read/
    write traffic across ``sessions`` client sessions."""
    rng = random.Random(seed)
    serial = 0
    concepts: "list[str]" = []
    entities: "list[str]" = []
    profiled: "set[str]" = set()
    session_ids = [f"s{i}" for i in range(max(1, sessions))]

    def fresh(kind: str) -> str:
        nonlocal serial
        serial += 1
        return f"{rng.choice(_ADJS)} {rng.choice(_NOUNS)} {kind} {serial}"

    def delta_spec(op: str = "delta") -> dict:
        spec = {"op": op, "nodes": [], "edges": [], "aliases": [],
                "payloads": []}
        concept = fresh("systems")
        spec["nodes"].append(["concept", concept,
                              {"support": rng.randrange(1, 9)}])
        concepts.append(concept)
        for _ in range(rng.randrange(2, 4)):
            entity = fresh("unit")
            spec["nodes"].append(["entity", entity, {}])
            entities.append(entity)
            spec["edges"].append(["concept", rng.choice(concepts),
                                  "entity", entity, "isA"])
        if rng.random() < 0.5:
            spec["aliases"].append(["concept", rng.choice(concepts),
                                    fresh("alias")])
        if rng.random() < 0.5:
            spec["payloads"].append(["concept", rng.choice(concepts),
                                     {"clicks": rng.randrange(1, 99)}])
        return spec

    def read_op(session: str) -> dict:
        kinds = ["tag", "query", "neighborhood", "concepts"]
        if session in profiled:
            kinds += ["interests", "recsys"]
        kind = rng.choice(kinds)
        op = {"op": "read", "session": session, "kind": kind}
        if kind == "tag":
            sample = rng.sample(entities, min(len(entities), 2))
            op["docs"] = [["doc", " ".join(sample) or "probe",
                           [f"all about {phrase}" for phrase in sample]]]
        elif kind == "query":
            op["queries"] = [f"best {rng.choice(concepts)}",
                             f"{rng.choice(entities)} review"]
        elif kind == "neighborhood":
            op["concept"] = rng.choice(concepts)
            op["depth"] = 2
        elif kind == "concepts":
            op["entity"] = rng.choice(entities)
        else:
            op["user"] = f"u-{session}"
            op["k"] = 3
        return op

    def write_op(session: str) -> dict:
        if rng.random() < 0.65 or len(entities) < 2:
            profiled.add(session)
            pool = concepts + entities
            return {"op": "write", "session": session, "kind": "profile",
                    "user": f"u-{session}",
                    "tags": rng.sample(pool, min(2, len(pool)))}
        phrase = fresh("launch")
        return {"op": "write", "session": session, "kind": "story",
                "events": [[phrase, "launch",
                            rng.sample(entities, 2), day]
                           for day in range(2)],
                "read": phrase, "limit": 3}

    def traffic(count: int) -> "list[dict]":
        block = []
        for _ in range(count):
            roll = rng.random()
            if roll < 0.3:
                block.append(delta_spec())
            elif roll < 0.7:
                block.append(read_op(rng.choice(session_ids)))
            else:
                block.append(write_op(rng.choice(session_ids)))
        return block

    ops: "list[dict]" = [delta_spec("seed")]
    # Every session writes its profile early, so interests/recsys reads
    # are meaningful (and read-your-writes checkable) everywhere after.
    for session in session_ids:
        ops.append(write_op(session))
        profiled.add(session)
    ops += traffic(max(2, steps // 4))
    # Worker kill, then scatter reads through the dead worker's stale
    # proxy: the typed-recovery regression (bugfix a) under audit.
    ops.append({"op": "kill", "shard": rng.randrange(start_shards)})
    ops.append(read_op(rng.choice(session_ids)))
    ops.append(read_op(rng.choice(session_ids)))
    ops += traffic(2)
    ops.append({"op": "restart", "shard": rng.randrange(start_shards)})
    ops += traffic(2)
    follower = f"shard-{rng.randrange(start_shards)}"
    ops.append({"op": "delay", "follower": follower, "seconds": 0.05})
    ops.append(delta_spec())
    ops.append(read_op(rng.choice(session_ids)))
    ops.append({"op": "heal", "follower": follower})
    ops += traffic(2)
    # GC the log under the (deliberately unregistered) parent: the next
    # sync meets the gap, rebuilds the router, and the view catalog must
    # rehydrate — checked by the interests read right after.
    ops.append({"op": "lag_gc",
                "deltas": [delta_spec(), delta_spec(), delta_spec()]})
    ops.append(read_op(rng.choice(session_ids)))
    ops.append({"op": "read", "session": session_ids[0],
                "kind": "interests", "user": f"u-{session_ids[0]}", "k": 3})
    ops += traffic(2)
    probes = [read_op(rng.choice(session_ids)) for _ in range(3)]
    ops.append({"op": "rebalance", "num_shards": rebalance_to,
                "chunk_nodes": chunk_nodes, "probes": probes})
    ops.append(read_op(rng.choice(session_ids)))
    ops += traffic(max(2, steps // 6))
    return {"seed": seed, "start_shards": start_shards, "ops": ops}


# ----------------------------------------------------------------------
# schedule replay (the live campaign)
# ----------------------------------------------------------------------
def _find(producer: AttentionOntology, type_name: str, phrase: str):
    node = producer.find(_TYPES[type_name], phrase)
    if node is None:
        raise ReproError(f"schedule references unknown {phrase!r}")
    return node


def _apply_spec(producer: AttentionOntology, ner: NerTagger,
                spec: dict) -> Any:
    """Commit one delta spec on the producer (the campaign's builder
    mirror) and return the delta; entities register with the shared
    NER so the cluster and the oracle tag identically."""
    producer.begin_delta("audit-script")
    for type_name, phrase, payload in spec.get("nodes", []):
        producer.add_node(_TYPES[type_name], phrase,
                          payload=payload or None)
        if type_name == "entity":
            ner.register(phrase, "MISC")
    for src_t, src, dst_t, dst, edge in spec.get("edges", []):
        producer.add_edge(_find(producer, src_t, src).node_id,
                          _find(producer, dst_t, dst).node_id,
                          _EDGES[edge])
    for type_name, phrase, alias in spec.get("aliases", []):
        producer.add_alias(_find(producer, type_name, phrase).node_id,
                           alias)
    for type_name, phrase, payload in spec.get("payloads", []):
        producer.update_payload(_find(producer, type_name, phrase).node_id,
                                payload)
    return producer.commit_delta()


def _read_call(op: dict, producer: AttentionOntology
               ) -> "tuple[str, tuple, dict]":
    """Lower a read op to ``(method, args, kwargs)`` — the same values
    go over the RPC and into the oracle."""
    kind = op["kind"]
    if kind == "tag":
        docs = [(doc_id, tokenize(title),
                 [tokenize(sentence) for sentence in sentences])
                for doc_id, title, sentences in op["docs"]]
        return "tag_documents", (docs,), {}
    if kind == "query":
        return "interpret_queries", (list(op["queries"]),), {}
    if kind == "neighborhood":
        node = _find(producer, "concept", op["concept"])
        return "neighborhood", (node.node_id,), {"depth": op.get("depth", 2)}
    if kind == "concepts":
        return "concepts_of_entity", (op["entity"],), {}
    if kind == "interests":
        return "user_interests", (op["user"],), {"k": op.get("k", 3)}
    if kind == "recsys":
        return "recommend_for_user", (op["user"],), {"k": op.get("k", 3)}
    if kind == "follow":
        return "follow_ups", (op["read"],), {"limit": op.get("limit", 3)}
    raise ReproError(f"unknown read kind {kind!r}")


async def _drive(schedule: dict, backend, remote: RemoteClusterService,
                 publisher: PublisherThread,
                 producer: AttentionOntology, ner: NerTagger,
                 audit: AuditLog, injector: FaultInjector,
                 report: dict) -> None:
    async with AsyncOntologyService(backend) as aio:
        server = RpcServer(aio)
        host, port = await server.start()
        clients: "dict[str, RpcClient]" = {}

        async def issue(session: str, method: str, args: tuple,
                        kwargs: dict) -> float:
            client = clients.get(session)
            if client is None:
                client = clients[session] = await RpcClient.connect(host,
                                                                    port)
            start = time.perf_counter()
            result, stamp = await client.call_stamped(
                method, *args, session=session, **kwargs)
            elapsed = time.perf_counter() - start
            audit.observe(session, method, args, kwargs, result, stamp)
            return elapsed

        async def issue_read(op: dict) -> float:
            method, args, kwargs = _read_call(op, producer)
            elapsed = await issue(op["session"], method, args, kwargs)
            report["reads"] += 1
            return elapsed

        async def issue_write(op: dict) -> None:
            session = op["session"]
            if op["kind"] == "profile":
                await issue(session, "record_read",
                            (op["user"], list(op["tags"])), {})
            else:
                events = [EventRecord(phrase=phrase, trigger=trigger,
                                      entities=list(involved), day=day)
                          for phrase, trigger, involved, day
                          in op["events"]]
                await issue(session, "track_events", (events,), {})
                await issue(session, "follow_ups", (op["read"],),
                            {"limit": op.get("limit", 3)})
            report["writes"] += 1

        async def do_rebalance(op: dict) -> None:
            # Stage the resize, then interleave one stamped probe read
            # with every transfer chunk: the window the throttled
            # rebalance exists to protect, measured and audited.
            probes = op.get("probes") or []
            pending = await aio._call(
                "begin_rebalance", op["num_shards"],
                publish=publisher.publish,
                chunk_nodes=op.get("chunk_nodes", 2))
            latencies: "list[float]" = []
            cursor = 0
            if remote.rebalance_staged:
                while pending:
                    step = asyncio.ensure_future(
                        aio._call("rebalance_step"))
                    reads = []
                    if probes:
                        reads.append(issue_read(probes[cursor
                                                       % len(probes)]))
                        cursor += 1
                    results = await asyncio.gather(step, *reads)
                    pending = results[0]
                    latencies.extend(results[1:])
                ring_delta = await aio._call("finish_rebalance")
                # The ring record is in the log now; the producer must
                # cross it too or its next commit overlaps the stream.
                producer.store.apply_delta(ring_delta)
            report["rebalance"] = {
                "num_shards": op["num_shards"],
                "chunk_nodes": op.get("chunk_nodes", 2),
                "transfer_chunks": (remote.last_rebalance or {}).get(
                    "transfer_chunks", 0),
                "interleaved_read_latencies": latencies,
            }

        try:
            for op in schedule["ops"]:
                kind = op["op"]
                if kind == "seed":
                    continue  # applied before the cluster came up
                report["ops"] += 1
                if kind == "delta":
                    delta = _apply_spec(producer, ner, op)
                    publisher.publish([delta])
                    await aio._call("refresh", [delta])
                elif kind == "read":
                    await issue_read(op)
                elif kind == "write":
                    await issue_write(op)
                elif kind == "kill":
                    injector.kill_worker(op["shard"])
                elif kind == "restart":
                    injector.restart_worker(op["shard"])
                elif kind == "delay":
                    injector.delay_follower(op["follower"], op["seconds"])
                elif kind == "heal":
                    injector.heal(op.get("follower"))
                elif kind == "lag_gc":
                    # Publish fresh deltas, pull the auditor and every
                    # *worker* to the new head, then GC: the registered
                    # floor is at head, so the unregistered parent's
                    # prefix drops and its next sync re-bootstraps.
                    for spec in op["deltas"]:
                        publisher.publish([_apply_spec(producer, ner,
                                                       spec)])
                    audit.catch_up()
                    injector.sync_workers(producer.store.version)
                    injector.gc_log(producer.store)
                    await aio._call("sync")
                elif kind == "rebalance":
                    await do_rebalance(op)
                else:
                    raise ReproError(f"unknown campaign op {kind!r}")
        finally:
            for client in clients.values():
                await client.close()
            await server.close()


def run_campaign(schedule: dict, log_dir, *, backend_rig=None,
                 name: "str | None" = None) -> dict:
    """Run one campaign schedule end to end; returns the report dict
    (``violations`` empty on a clean run).  ``backend_rig`` wraps the
    live :class:`RemoteClusterService` before serving — the test hook
    for deliberately-buggy backends the auditor must catch.  On
    violations the schedule + report is written under
    ``$REPRO_AUDIT_ARTIFACTS`` (path in ``report["artifact"]``)."""
    ops = schedule.get("ops") or []
    if not ops or ops[0].get("op") != "seed":
        raise ReproError("a campaign schedule must start with a seed op")
    producer = AttentionOntology()
    ner = NerTagger()
    seed_delta = _apply_spec(producer, ner, ops[0])
    log = DeltaLog(log_dir, segment_max_bytes=512)
    log.append(seed_delta)
    catalog = SnapshotCatalog(log, compact_bytes=1, retain_segments=0)
    catalog.record(OntologyStore.bootstrap(None, [seed_delta]))
    report: dict = {"seed": schedule.get("seed"), "ops": 0, "reads": 0,
                    "writes": 0, "rebalance": None}
    start_shards = int(schedule.get("start_shards", 2))
    with PublisherThread(log, catalog) as publisher:
        with RemoteClusterService(publisher.address,
                                  num_shards=start_shards, ner=ner,
                                  tagger_options=TAGGER_OPTIONS) as remote:
            backend = remote if backend_rig is None else backend_rig(remote)
            audit = AuditLog(publisher.address, ner=ner,
                             tagger_options=TAGGER_OPTIONS)
            injector = FaultInjector(remote, publisher, catalog)
            try:
                asyncio.run(_drive(schedule, backend, remote, publisher,
                                   producer, ner, audit, injector,
                                   report))
            finally:
                audit.close()
    report["faults"] = list(injector.injected)
    report["violations"] = [v.to_dict() for v in audit.violations]
    report["final_version"] = producer.store.version
    if report["violations"]:
        path = _write_artifact(schedule, report, name)
        if path is not None:
            report["artifact"] = str(path)
    return report


def replay_artifact(path, log_dir) -> dict:
    """Re-run the schedule recorded in a violation artifact — the
    shrink loop: delete ops from the JSON, replay, repeat."""
    payload = json.loads(pathlib.Path(path).read_text())
    return run_campaign(payload["schedule"], log_dir)


def _write_artifact(schedule: dict, report: dict,
                    name: "str | None") -> "pathlib.Path | None":
    root = os.environ.get(AUDIT_ARTIFACTS_ENV)
    if not root:
        return None
    directory = pathlib.Path(root)
    directory.mkdir(parents=True, exist_ok=True)
    label = name or "campaign"
    path = directory / f"audit-{label}-seed{schedule.get('seed', 0)}.json"
    path.write_text(json.dumps({"schedule": schedule, "report": report},
                               indent=1, sort_keys=True))
    return path
