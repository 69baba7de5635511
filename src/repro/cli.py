"""Command-line interface for the GIANT reproduction.

Subcommands::

    python -m repro.cli build    --days 4 --out ontology.json
    python -m repro.cli build    --days 4 --out ontology.json \
                                 --log-dir ./delta-log
    python -m repro.cli stats    --ontology ontology.json
    python -m repro.cli tag      --ontology ontology.json --title "..." --body "..."
    python -m repro.cli query    --ontology ontology.json --q "best economy cars"
    python -m repro.cli showcase --ontology ontology.json
    python -m repro.cli serve    --ontology ontology.json --shards 4 \
                                 --q "best economy cars" --compare
    python -m repro.cli serve    --from-log ./delta-log --shards 4 --compare
    python -m repro.cli serve    --from-log ./delta-log --remote-shards 2 \
                                 --q "best economy cars" --compare
    python -m repro.cli serve    --from-log ./delta-log --shards 2 \
                                 --rebalance-to 4 --compare
    python -m repro.cli serve    --ontology ontology.json --shards 4 \
                                 --listen 127.0.0.1:8750

``build`` generates a synthetic world, trains a small GCTSP-Net, runs the
full pipeline and writes the ontology JSON; with ``--log-dir`` it also
appends the run's delta stream to a durable replicated log (and lets the
snapshot catalog compact it).  The other commands operate on a saved
ontology — or, for ``serve``, on a delta log directory (``--from-log``):
the serving store is then bootstrapped from catalog snapshot + log tail,
and ``--remote-shards N`` runs the cluster's shards in follower-fed
worker processes behind RPC.  Entities for NER are reconstructed from
the ontology's entity nodes, so a saved ontology (or log) is
self-sufficient.
"""

from __future__ import annotations

import argparse
import os
import sys

from .apps.query import QueryUnderstander
from .apps.tagging import DocumentTagger
from .config import GCTSPConfig
from .core.ontology import NodeType
from .core.serialize import load_ontology, save_ontology
from .text.ner import NerTagger
from .text.tokenizer import tokenize


def _build(args: argparse.Namespace) -> int:
    from .core.features import NodeFeatureExtractor
    from .core.gctsp import GCTSPNet, prepare_example
    from .datasets import build_cmd, split_dataset
    from .pipeline import GiantPipeline
    from .synth.querylog import QueryLogGenerator, build_click_graph
    from .synth.world import WorldConfig, build_world
    from .text.dependency import DependencyParser

    world = build_world(WorldConfig(num_days=args.days, seed=args.seed,
                                    num_extra_domains=args.extra_domains))
    days = QueryLogGenerator(world).generate_days()
    graph = build_click_graph(days)
    sessions = [s for d in days for s in d.sessions]
    pos, ner = world.register_text_models()

    model = None
    if args.train:
        extractor = NodeFeatureExtractor(pos, ner)
        parser = DependencyParser(pos)
        cmd = build_cmd(world, examples_per_concept=2)
        train, _dev, _test = split_dataset(cmd)
        examples = [
            prepare_example(e.queries, e.titles, extractor, parser,
                            gold_tokens=e.gold_tokens)
            for e in train[:60]
        ]
        model = GCTSPNet(GCTSPConfig(num_layers=3, hidden_size=24,
                                     num_bases=4, epochs=args.epochs))
        model.fit(examples)

    pipeline = GiantPipeline(
        graph, pos, ner, concept_model=model,
        categories=sorted({c[2] for c in world.categories}),
    )
    ontology = pipeline.run(sessions=sessions)
    save_ontology(ontology, args.out)
    print(f"wrote {args.out}: {ontology.stats()}")
    if args.log_dir:
        from .errors import DeltaGapError, OntologyError
        from .replication import DeltaLog, SnapshotCatalog

        try:
            with DeltaLog(args.log_dir,
                          segment_max_bytes=args.log_segment_bytes,
                          fsync=args.fsync) as log:
                appended = log.extend(pipeline.deltas)
                catalog = SnapshotCatalog(log,
                                          compact_bytes=args.compact_bytes)
                compacted = catalog.maybe_compact(ontology.store)
                print(f"log {args.log_dir}: +{appended} deltas, versions "
                      f"{log.first_version}..{log.last_version} in "
                      f"{len(log.segments())} segment(s)"
                      + (f"; compacted at v{compacted}" if compacted
                         else f"; snapshot at v{catalog.latest_version}"))
        except (DeltaGapError, OntologyError) as exc:
            # Typically: --log-dir points at a log holding a different
            # build's stream. The ontology JSON was already written.
            print(f"delta log error: {exc}", file=sys.stderr)
            return 1
    return 0


def _load_with_ner(path: str):
    ontology = load_ontology(path)
    ner = NerTagger()
    for node in ontology.nodes(NodeType.ENTITY):
        ner.register(node.phrase, "MISC")
    return ontology, ner


def _format_metric(value) -> str:
    if isinstance(value, dict):  # a histogram's snapshot state
        return (f"count={value.get('count', 0)} "
                f"avg={value.get('avg', 0.0):.6g} "
                f"p50={value.get('p50', 0.0):.6g} "
                f"p95={value.get('p95', 0.0):.6g} "
                f"p99={value.get('p99', 0.0):.6g} "
                f"max={value.get('max', 0.0):.6g}")
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _print_obs_status(status: dict) -> None:
    tracer = status.get("tracer") or {}
    print(f"tracer: enabled={tracer.get('enabled')} "
          f"process={tracer.get('process')} "
          f"trace_dir={tracer.get('trace_dir')} "
          f"spans_written={tracer.get('spans_written')}")
    views = status.get("views")
    if views:
        print(f"views: registered={views.get('views')} "
              f"version={views.get('version')} "
              f"deltas_folded={views.get('deltas_folded')} "
              f"rows_folded={views.get('rows_folded')} "
              f"rehydrations={views.get('rehydrations')} "
              f"stale={views.get('stale')} "
              f"maintain_p95={views.get('maintain_p95'):.6g}")
    print("metrics:")
    for name, value in sorted((status.get("metrics") or {}).items()):
        print(f"  {name:52s} {_format_metric(value)}")
    shards = (status.get("backend") or {}).get("shards") or []
    for shard in shards:
        worker_tracer = shard.get("tracer") or {}
        print(f"shard worker {worker_tracer.get('process')}: "
              f"spans_written={worker_tracer.get('spans_written')}")
        for name, value in sorted((shard.get("metrics") or {}).items()):
            print(f"  {name:52s} {_format_metric(value)}")


def _stats_connect(args: argparse.Namespace) -> int:
    """Fetch a live server's ``obs_status`` over RPC and pretty-print
    its registry snapshot (counters, gauges, latency percentiles) —
    or emit the raw payload with ``--json`` for scripts/dashboards."""
    import asyncio
    import json

    from .serving.rpc import RpcClient

    address = _parse_listen(args.connect)
    if address is None:
        print(f"--connect expects HOST:PORT, got {args.connect!r}",
              file=sys.stderr)
        return 2

    async def _run() -> dict:
        client = await RpcClient.connect(*address)
        try:
            return await client.call("obs_status")
        finally:
            await client.close()

    status = asyncio.run(_run())
    if getattr(args, "json", False):
        print(json.dumps(status, indent=2, sort_keys=True))
    else:
        _print_obs_status(status)
    return 0


def _stats(args: argparse.Namespace) -> int:
    if bool(args.ontology) == bool(args.connect):
        print("pass exactly one of --ontology / --connect",
              file=sys.stderr)
        return 2
    if args.connect:
        return _stats_connect(args)
    ontology, _ner = _load_with_ner(args.ontology)
    for key, value in ontology.stats().items():
        print(f"{key:12s} {value}")
    return 0


def _print_watch(watch: dict) -> None:
    """One ``obs_watch`` frame: collector/recorder summaries, SLO
    verdicts, and the latest value of every derived series."""
    collector = watch.get("collector")
    if collector is None:
        print("collector: not configured (serve with --collect-interval)")
    else:
        print(f"collector: interval={collector.get('interval')} "
              f"samples={collector.get('samples_taken')} "
              f"series={collector.get('series')} "
              f"last_sampled_at={collector.get('last_sampled_at')}")
    for verdict in watch.get("slo") or []:
        print(f"slo {verdict.get('slo', '?'):24s} {verdict.get('verdict')}")
    series = watch.get("series") or {}
    derived = {name: points for name, points in sorted(series.items())
               if name.rsplit(".", 1)[-1] in ("rate", "p50", "p95", "p99")
               and points}
    for name, points in derived.items():
        t, value = points[-1]
        print(f"  {name:52s} {value:.6g} (t={t:.3f}, {len(points)} pts)")
    recorder = watch.get("recorder") or {}
    print(f"recorder: events={recorder.get('events_recorded')} "
          f"held={recorder.get('events_held')} "
          f"anomalies={recorder.get('anomalies')} "
          f"dumps={recorder.get('dumps_written')} "
          f"last_dump={recorder.get('last_dump_path')}")


def _watch(args: argparse.Namespace) -> int:
    """Live telemetry view: poll a running server's ``obs_watch`` at a
    fixed interval, printing collector series tails, SLO burn-rate
    verdicts, and the flight-recorder summary each frame."""
    import asyncio
    import json

    from .serving.rpc import RpcClient

    address = _parse_listen(args.connect)
    if address is None:
        print(f"--connect expects HOST:PORT, got {args.connect!r}",
              file=sys.stderr)
        return 2

    async def _run() -> None:
        client = await RpcClient.connect(*address)
        frames = 0
        try:
            while True:
                watch = await client.call("obs_watch", points=args.points)
                if args.json:
                    print(json.dumps(watch, sort_keys=True))
                else:
                    if frames:
                        print()
                    _print_watch(watch)
                frames += 1
                if args.count and frames >= args.count:
                    return
                await asyncio.sleep(args.interval)
        finally:
            await client.close()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("watch stopped")
    return 0


def _tag(args: argparse.Namespace) -> int:
    ontology, ner = _load_with_ner(args.ontology)
    tagger = DocumentTagger(ontology, ner, coherence_threshold=args.threshold)
    title = tokenize(args.title)
    sentences = [tokenize(s) for s in args.body.split(".") if s.strip()]
    result = tagger.tag("cli-doc", title, sentences)
    print("concepts:", result.concepts[:5])
    print("events:  ", result.events[:5])
    print("topics:  ", result.topics[:5])
    return 0


def _query(args: argparse.Namespace) -> int:
    ontology, _ner = _load_with_ner(args.ontology)
    understander = QueryUnderstander(ontology)
    analysis = understander.analyze(args.q)
    print("concepts:       ", analysis.concepts[:3])
    print("entities:       ", analysis.entities[:3])
    print("rewrites:       ", analysis.rewrites)
    print("recommendations:", analysis.recommendations)
    return 0


def _parse_listen(listen: str) -> "tuple[str, int] | None":
    """``HOST:PORT`` -> (host, port), or None when malformed."""
    host, _, port_text = listen.rpartition(":")
    # isascii() guards against exotic "digits" like '²' that isdigit()
    # accepts but int() rejects; 0 means "bind an ephemeral port".
    if not host or not (port_text.isascii() and port_text.isdigit()):
        return None
    port = int(port_text)
    if port > 65535:
        return None
    return host, port


def _serve_rpc(backend, host: str, port: int,
               args: argparse.Namespace) -> int:
    """Put an async micro-batching front over ``backend`` behind RPC."""
    import asyncio

    from .serving.aio import AsyncOntologyService
    from .serving.rpc import RpcServer

    async def _run() -> None:
        async with AsyncOntologyService(
                backend, max_batch_size=args.max_batch_size) as service:
            server = RpcServer(service, host, port)
            bound_host, bound_port = await server.start()
            print(f"RPC serving on {bound_host}:{bound_port} "
                  f"(length-prefixed JSON; Ctrl-C to stop)")
            try:
                await server.serve_forever()
            finally:
                await server.close()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("shutting down")
    return 0


def _load_from_log(log_dir: str, readonly: bool = True):
    """Bootstrap a serving ontology (and NER) from a delta log directory
    via snapshot + tail (a :class:`LogFollower` over the in-process
    log); returns (ontology, ner, log, catalog).

    The log is opened read-only by default: a serve process must never
    repair (or truncate) a directory a live builder may still be
    appending to.  ``--rebalance-to`` with remote shards needs to append
    the ring-epoch record, so that path opens the log writable — the
    serve process then *owns* the directory.
    """
    from .core.ontology import AttentionOntology
    from .replication import (
        DeltaLog,
        LocalLogClient,
        LogFollower,
        SnapshotCatalog,
    )

    log = DeltaLog(log_dir, readonly=readonly)
    catalog = SnapshotCatalog(log, readonly=readonly)
    store = LogFollower(LocalLogClient(log, catalog)).bootstrap()
    print(f"log {log_dir}: versions {log.first_version}.."
          f"{log.last_version}, snapshot at v{catalog.latest_version}; "
          f"bootstrapped store at v{store.version}")
    ontology = AttentionOntology(store=store)
    ner = NerTagger()
    for node in ontology.nodes(NodeType.ENTITY):
        ner.register(node.phrase, "MISC")
    return ontology, ner, log, catalog


def _serve(args: argparse.Namespace) -> int:
    """Shard an ontology (saved file or delta log) and serve requests
    scatter-gather — in-process, or with --remote-shards across worker
    processes follower-fed from the published log."""
    from .cluster import ClusterService
    from .serving import OntologyService

    # Validate the listen address up front: a malformed --listen should
    # fail fast, not after minutes of ontology load + shard bootstrap.
    address = None
    if args.listen:
        address = _parse_listen(args.listen)
        if address is None:
            print(f"--listen expects HOST:PORT, got {args.listen!r}",
                  file=sys.stderr)
            return 2
    if bool(args.ontology) == bool(args.from_log):
        print("pass exactly one of --ontology / --from-log",
              file=sys.stderr)
        return 2
    if args.remote_shards and not args.from_log:
        print("--remote-shards requires --from-log (shard workers "
              "bootstrap from the published delta log)", file=sys.stderr)
        return 2

    if args.trace_dir:
        from .obs import TRACE_DIR_ENV, configure_tracer

        # Env first, so spawned shard workers inherit the span-log dir;
        # then this process's own tracer (spans land in spans-serve.jsonl).
        os.environ[TRACE_DIR_ENV] = args.trace_dir
        configure_tracer(args.trace_dir, process="serve")
        print(f"tracing spans to {args.trace_dir}")

    from .obs import RECORDER_DIR_ENV, configure_recorder

    if args.recorder_dir:
        # Same env-first rule as the tracer: spawned shard workers
        # inherit the dump directory, so a worker anomaly lands next to
        # the parent's flight-<serve>-*.jsonl dumps.
        os.environ[RECORDER_DIR_ENV] = args.recorder_dir
        print(f"flight-recorder dumps to {args.recorder_dir}")
    configure_recorder(args.recorder_dir or None, process="serve",
                       slow_call_seconds=args.slow_call)

    collector = None
    if args.collect_interval > 0:
        from .obs import (
            configure_collector,
            configure_slo_engine,
            default_slos,
        )

        collector = configure_collector(interval=args.collect_interval)
        configure_slo_engine(collector, default_slos())
        collector.start()
        print(f"collecting metrics every {args.collect_interval}s")

    tagger_options = {"coherence_threshold": args.threshold}
    publisher = None
    log = catalog = None
    if args.from_log:
        # A remote rebalance appends the ring-epoch record to the log,
        # so that combination opens it writable (this process must own
        # the directory); every other path stays read-only.
        writable = bool(args.remote_shards and args.rebalance_to)
        ontology, ner, log, catalog = _load_from_log(
            args.from_log, readonly=not writable)
    else:
        ontology, ner = _load_with_ner(args.ontology)

    cluster = None
    try:
        if args.remote_shards:
            from .cluster import RemoteClusterService
            from .replication import PublisherThread

            publisher = PublisherThread(log, catalog)
            host, port = publisher.start()
            print(f"publisher on {host}:{port}; starting "
                  f"{args.remote_shards} shard worker process(es)")
            cluster = RemoteClusterService((host, port),
                                           num_shards=args.remote_shards,
                                           ner=ner,
                                           tagger_options=tagger_options,
                                           trace_dir=args.trace_dir or None,
                                           recorder_dir=args.recorder_dir
                                           or None)
        else:
            cluster = ClusterService(num_shards=args.shards, ner=ner,
                                     tagger_options=tagger_options,
                                     ontology=ontology)

        if args.rebalance_to:
            if args.remote_shards:
                delta = cluster.rebalance(args.rebalance_to,
                                          publish=publisher.publish)
            else:
                delta = cluster.rebalance(args.rebalance_to)
                if delta is not None:
                    # Keep the --compare oracle's version line aligned
                    # with the cluster (the ring op changes no content).
                    ontology.store.apply_delta(delta)
            moved = cluster.last_rebalance or {}
            print(f"rebalanced to {cluster.num_shards} shards (ring epoch "
                  f"{moved.get('epoch')}): moved "
                  f"{moved.get('moved_nodes')} node records")

        stats = cluster.stats()
        mode = "remote worker" if args.remote_shards else "in-process"
        # The log's recorded ring epoch is authoritative over --shards/
        # --remote-shards, so report the cluster's actual count.
        print(f"cluster: {cluster.num_shards} {mode} shards at stream "
              f"version {cluster.version}")
        for line in stats["shards"]:
            print(f"  shard {line['shard']}: owned={line['owned']} "
                  f"ghosts={line['ghosts']} version={line['version']}")
        print("ontology:", stats["ontology"])

        queries = args.q or []
        if not queries:
            # No queries given: interpret one per sampled concept phrase.
            queries = [f"best {node.phrase}"
                       for node in ontology.nodes(NodeType.CONCEPT)[:3]]
        analyses = cluster.interpret_queries(queries)
        for analysis in analyses:
            print(f"query {analysis.query!r}: "
                  f"concepts={analysis.concepts[:2]} "
                  f"rewrites={analysis.rewrites[:2]}")

        tagged = None
        request = None
        if args.title:
            title = tokenize(args.title)
            sentences = [tokenize(s) for s in args.body.split(".")
                         if s.strip()]
            request = ("cli-doc", title, sentences)
            [tagged] = cluster.tag_documents([request])
            print("tag concepts:", tagged.concepts[:5])
            print("tag events:  ", tagged.events[:5])

        if args.compare:
            single = OntologyService(ontology, ner=ner,
                                     tagger_options=tagger_options)
            mismatch = single.interpret_queries(queries) != analyses
            if request is not None:
                [direct] = single.tag_documents([request])
                mismatch = mismatch or direct != tagged
            if mismatch:
                print("compare: MISMATCH between cluster and single store")
                return 1
            print("compare: cluster results identical to single store")

        # Last, so --q/--compare still run (and a failed compare refuses
        # to serve) before the cluster goes behind the socket.
        if address is not None:
            return _serve_rpc(cluster, address[0], address[1], args)
        return 0
    finally:
        if collector is not None:
            collector.stop()
        if args.remote_shards and cluster is not None:
            cluster.close()
        if publisher is not None:
            publisher.stop()
        if log is not None:
            log.close()


def _showcase(args: argparse.Namespace) -> int:
    ontology, _ner = _load_with_ner(args.ontology)
    print("== concepts ==")
    for node in ontology.nodes(NodeType.CONCEPT)[: args.limit]:
        instances = [e.phrase for e in ontology.entities_of_concept(node.phrase)]
        print(f"  {node.phrase!r} -> {instances[:4]}")
    print("== topics ==")
    for node in ontology.nodes(NodeType.TOPIC)[: args.limit]:
        print(f"  {node.phrase!r}")
    return 0


def _audit(args: argparse.Namespace) -> int:
    import json
    import pathlib
    import tempfile

    from .audit import generate_schedule, replay_artifact, run_campaign

    if args.connect:
        return _audit_connect(args)
    if args.replay:
        if args.log_dir:
            report = replay_artifact(args.replay, args.log_dir)
        else:
            with tempfile.TemporaryDirectory(prefix="repro-audit-") as tmp:
                report = replay_artifact(args.replay,
                                         pathlib.Path(tmp) / "log")
    else:
        schedule = generate_schedule(
            seed=args.seed, steps=args.steps, start_shards=args.shards,
            rebalance_to=args.rebalance_to, chunk_nodes=args.chunk_nodes,
            sessions=args.sessions)
        if args.log_dir:
            report = run_campaign(schedule, args.log_dir)
        else:
            with tempfile.TemporaryDirectory(prefix="repro-audit-") as tmp:
                report = run_campaign(schedule, pathlib.Path(tmp) / "log")
    if args.json:
        print(json.dumps(report, indent=1, sort_keys=True))
    else:
        rebalance = report.get("rebalance") or {}
        latencies = sorted(
            rebalance.get("interleaved_read_latencies") or [])
        print(f"campaign seed={report.get('seed')}: "
              f"{report['ops']} ops, {report['reads']} reads, "
              f"{report['writes']} writes, "
              f"{len(report['faults'])} faults, "
              f"final version {report['final_version']}")
        if latencies:
            p99 = latencies[min(len(latencies) - 1,
                                int(len(latencies) * 0.99))]
            print(f"rebalance: {rebalance.get('transfer_chunks')} chunks "
                  f"of <= {rebalance.get('chunk_nodes')} nodes, "
                  f"{len(latencies)} interleaved reads, "
                  f"p99 {p99 * 1000:.2f} ms")
        for violation in report["violations"]:
            print(f"VIOLATION [{violation['kind']}] session "
                  f"{violation['session']} {violation['method']} "
                  f"@v{violation['version']}: {violation['detail']}")
        if report.get("artifact"):
            print(f"artifact: {report['artifact']}")
    return 1 if report["violations"] else 0


def _audit_connect(args: argparse.Namespace) -> int:
    """Stamped probe sessions against an already-running ``serve
    --listen`` process.  Without the server's delta log there is no
    oracle, so only the session-local guarantees (stamp presence,
    session echo, monotonic reads) are checkable here — the full
    value-level audit needs ``--campaign``'s self-hosted topology."""
    import asyncio

    from .serving.rpc import RpcClient

    address = _parse_listen(args.connect)
    if address is None:
        print(f"malformed --connect {args.connect!r} (want HOST:PORT)")
        return 2
    queries = args.q or ["audit probe query"]

    async def probe() -> "tuple[int, int]":
        clients: dict = {}
        last: dict = {}
        observed = violations = 0
        try:
            for _ in range(args.rounds):
                for index in range(args.sessions):
                    session = f"cli-{index}"
                    client = clients.get(session)
                    if client is None:
                        client = await RpcClient.connect(*address)
                        clients[session] = client
                    _result, stamp = await client.call_stamped(
                        "interpret_queries", queries, session=session)
                    observed += 1
                    if stamp is None or "version" not in stamp:
                        violations += 1
                        print(f"VIOLATION [unstamped] session {session}")
                        continue
                    version = int(stamp["version"])
                    if stamp.get("session") != session:
                        violations += 1
                        print(f"VIOLATION [session-mismatch] session "
                              f"{session} echoed {stamp.get('session')!r}")
                    previous = last.get(session)
                    if previous is not None and version < previous:
                        violations += 1
                        print(f"VIOLATION [monotonic-reads] session "
                              f"{session}: {previous} -> {version}")
                    last[session] = max(version, previous or 0)
        finally:
            for client in clients.values():
                await client.close()
        return observed, violations

    observed, violations = asyncio.run(probe())
    print(f"probed {observed} stamped reads over {args.sessions} "
          f"session(s): {violations} violation(s)")
    return 1 if violations else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build an ontology from synthetic logs")
    p_build.add_argument("--days", type=int, default=4)
    p_build.add_argument("--seed", type=int, default=0)
    p_build.add_argument("--extra-domains", type=int, default=0)
    p_build.add_argument("--epochs", type=int, default=8)
    p_build.add_argument("--train", action="store_true",
                         help="train a GCTSP-Net (otherwise alignment fallback)")
    p_build.add_argument("--out", default="ontology.json")
    p_build.add_argument("--log-dir", default="",
                         help="append the run's delta stream to a durable "
                              "replicated log at this directory")
    p_build.add_argument("--log-segment-bytes", type=int, default=1 << 20,
                         help="segment roll size for --log-dir")
    p_build.add_argument("--compact-bytes", type=int, default=256 * 1024,
                         help="un-folded log bytes that trigger snapshot "
                              "compaction for --log-dir")
    p_build.add_argument("--fsync", action="store_true",
                         help="fsync every log append (power-loss "
                              "durability)")
    p_build.set_defaults(func=_build)

    p_stats = sub.add_parser(
        "stats", help="print node/edge counts, or a live server's "
                      "telemetry with --connect")
    p_stats.add_argument("--ontology", default="",
                         help="saved ontology JSON to summarize")
    p_stats.add_argument("--connect", default="",
                         help="HOST:PORT of a running `serve --listen` "
                              "process — fetch and pretty-print its "
                              "obs_status registry snapshot instead")
    p_stats.add_argument("--json", action="store_true",
                         help="with --connect: print the raw obs_status "
                              "payload as JSON (machine-readable)")
    p_stats.set_defaults(func=_stats)

    p_watch = sub.add_parser(
        "watch", help="live telemetry: poll a running server's obs_watch "
                      "(collector series, SLO verdicts, flight recorder)")
    p_watch.add_argument("--connect", required=True,
                         help="HOST:PORT of a running `serve --listen` "
                              "process")
    p_watch.add_argument("--interval", type=float, default=2.0,
                         help="seconds between polls")
    p_watch.add_argument("--count", type=int, default=0,
                         help="stop after N frames (0 = until Ctrl-C)")
    p_watch.add_argument("--points", type=int, default=30,
                         help="series tail length per frame")
    p_watch.add_argument("--json", action="store_true",
                         help="one JSON obs_watch payload per line "
                              "instead of the pretty view")
    p_watch.set_defaults(func=_watch)

    p_tag = sub.add_parser("tag", help="tag a document")
    p_tag.add_argument("--ontology", required=True)
    p_tag.add_argument("--title", required=True)
    p_tag.add_argument("--body", default="")
    p_tag.add_argument("--threshold", type=float, default=0.02)
    p_tag.set_defaults(func=_tag)

    p_query = sub.add_parser("query", help="analyze a search query")
    p_query.add_argument("--ontology", required=True)
    p_query.add_argument("--q", required=True)
    p_query.set_defaults(func=_query)

    p_serve = sub.add_parser(
        "serve", help="shard an ontology and serve scatter-gather requests")
    p_serve.add_argument("--ontology", default="",
                         help="saved ontology JSON (or use --from-log)")
    p_serve.add_argument("--from-log", default="",
                         help="bootstrap the serving store from a delta "
                              "log directory (catalog snapshot + tail)")
    p_serve.add_argument("--remote-shards", type=int, default=0,
                         help="run N shards in worker processes follower-"
                              "fed from the published log (needs "
                              "--from-log)")
    p_serve.add_argument("--shards", type=int, default=4)
    p_serve.add_argument("--rebalance-to", type=int, default=0,
                         help="grow/shrink the cluster to N shards via a "
                              "consistent-hash ring-epoch flip before "
                              "serving (with --remote-shards the ring "
                              "record is appended to the log, so this "
                              "process must own the log directory)")
    p_serve.add_argument("--q", action="append",
                         help="query to interpret (repeatable)")
    p_serve.add_argument("--title", default="",
                         help="optional document title to tag")
    p_serve.add_argument("--body", default="")
    p_serve.add_argument("--threshold", type=float, default=0.02)
    p_serve.add_argument("--compare", action="store_true",
                         help="verify cluster output against a single store")
    p_serve.add_argument("--listen", default="",
                         help="HOST:PORT — serve the cluster over the "
                              "length-prefixed JSON RPC protocol (async "
                              "micro-batched front) instead of exiting")
    p_serve.add_argument("--max-batch-size", type=int, default=32,
                         help="micro-batcher flush size for --listen")
    p_serve.add_argument("--trace-dir", default="",
                         help="append request spans to JSON-lines logs "
                              "in this directory (the whole process "
                              "tree: server, batcher, shard workers); "
                              "export with repro.obs.write_chrome_trace")
    p_serve.add_argument("--collect-interval", type=float, default=0.0,
                         help="sample the metrics registry into in-memory "
                              "time series every N seconds (enables the "
                              "obs_watch RPC's series and SLO verdicts; "
                              "0 disables collection)")
    p_serve.add_argument("--recorder-dir", default="",
                         help="dump flight-recorder anomaly rings as "
                              "JSON-lines files in this directory (the "
                              "whole process tree, like --trace-dir)")
    p_serve.add_argument("--slow-call", type=float, default=0.5,
                         help="seconds above which an RPC dispatch or a "
                              "scatter straggler is recorded as a "
                              "slow-call anomaly")
    p_serve.set_defaults(func=_serve)

    p_audit = sub.add_parser(
        "audit", help="online consistency audit: run a seeded fault-"
                      "injection campaign against a self-hosted cluster, "
                      "or stamped monotonic probes against --connect")
    p_audit.add_argument("--connect", default="",
                         help="HOST:PORT of a running `serve --listen` "
                              "process — stamped probe sessions checking "
                              "the session-local guarantees only (no log "
                              "access, so no value oracle)")
    p_audit.add_argument("--replay", default="",
                         help="violation artifact JSON to re-run (the "
                              "shrink loop) instead of generating a "
                              "schedule")
    p_audit.add_argument("--seed", type=int, default=0)
    p_audit.add_argument("--steps", type=int, default=18,
                         help="traffic volume knob for the generated "
                              "schedule")
    p_audit.add_argument("--shards", type=int, default=2,
                         help="shard workers the campaign topology starts "
                              "with")
    p_audit.add_argument("--rebalance-to", type=int, default=3,
                         help="target size of the mid-traffic chunked "
                              "rebalance")
    p_audit.add_argument("--chunk-nodes", type=int, default=2,
                         help="max nodes per transfer chunk during the "
                              "staged rebalance")
    p_audit.add_argument("--sessions", type=int, default=3,
                         help="concurrent client sessions")
    p_audit.add_argument("--rounds", type=int, default=5,
                         help="with --connect: probe rounds per session")
    p_audit.add_argument("--q", action="append",
                         help="with --connect: probe query (repeatable)")
    p_audit.add_argument("--log-dir", default="",
                         help="directory for the campaign's delta log "
                              "(default: a temporary directory)")
    p_audit.add_argument("--json", action="store_true",
                         help="print the full campaign report as JSON")
    p_audit.set_defaults(func=_audit)

    p_show = sub.add_parser("showcase", help="print sample concepts/topics")
    p_show.add_argument("--ontology", required=True)
    p_show.add_argument("--limit", type=int, default=10)
    p_show.set_defaults(func=_showcase)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
