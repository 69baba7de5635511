#!/usr/bin/env python
"""Replicated delta log + cross-process shard cluster walkthrough.

Shows the replication substrate (DESIGN.md §8) end to end:

1. a builder runs the pipeline and appends its OntologyDelta stream to
   a durable, segmented DeltaLog (the system of record);
2. a SnapshotCatalog compacts the log when the un-folded prefix grows,
   garbage-collecting folded segments;
3. a PublisherThread serves the log + snapshots over length-prefixed
   JSON RPC next to the builder;
4. a RemoteClusterService runs N shard worker *processes*, each a log
   follower that bootstraps from catalog snapshot + log tail and serves
   its shard's reads over RPC — scatter-gather results byte-identical
   to a single store;
5. the builder keeps building: new deltas published to the log reach
   every worker, and the cluster serves the new state.

Run:  python examples/replicated_cluster.py
"""

import shutil
import tempfile

from repro import ClusterService, GiantPipeline, OntologyService, WorldConfig, build_world
from repro.cluster import RemoteClusterService
from repro.core.ontology import NodeType
from repro.core.store import OntologyStore
from repro.replication import DeltaLog, PublisherThread, SnapshotCatalog
from repro.serving.rpc import dumps
from repro.synth.documents import DocumentGenerator
from repro.synth.querylog import QueryLogGenerator, build_click_graph


def run(log_dir: str) -> None:
    world = build_world(WorldConfig(num_days=3, seed=0))
    days = QueryLogGenerator(world).generate_days()
    pos_tagger, ner_tagger = world.register_text_models()

    # --- builder: click logs -> ontology, day by day, into the log.
    pipeline = GiantPipeline(
        build_click_graph(days), pos_tagger, ner_tagger,
        categories=sorted({c[2] for c in world.categories}),
    )
    log = DeltaLog(log_dir, segment_max_bytes=64 * 1024)
    catalog = SnapshotCatalog(log, compact_bytes=96 * 1024,
                              retain_segments=1)

    pipeline.run(sessions=[s for d in days for s in d.sessions])
    log.extend(pipeline.deltas)
    compacted = catalog.maybe_compact(pipeline.ontology.store)
    print(f"built {len(pipeline.deltas)} delta batches: log at "
          f"v{log.last_version} in {len(log.segments())} segment(s)"
          + (f", compacted at v{compacted} (folded segments GC'd)"
             if compacted else ""))

    # --- publish the log; spin up follower-fed shard worker processes.
    options = {"coherence_threshold": 0.02}
    with PublisherThread(log, catalog) as publisher:
        host, port = publisher.address
        print(f"\npublisher on {host}:{port}; starting 2 shard workers "
              "(each bootstraps from catalog snapshot + log tail)")
        with RemoteClusterService((host, port), num_shards=2,
                                  ner=ner_tagger,
                                  tagger_options=options) as remote:
            single = OntologyService(pipeline.ontology, ner=ner_tagger,
                                     tagger_options=options)
            inproc = ClusterService(num_shards=2, ner=ner_tagger,
                                    tagger_options=options,
                                    deltas=pipeline.deltas)
            for line in remote.stats()["shards"]:
                print(f"  shard {line['shard']}: owned={line['owned']} "
                      f"ghosts={line['ghosts']} version={line['version']}")

            # --- byte-identity across all three serving topologies.
            corpus = DocumentGenerator(world).corpus(num_concept_docs=6,
                                                     num_event_docs=3)
            queries = [f"best {c}" for c in sorted(world.concepts)[:3]]
            assert dumps(remote.tag_documents(corpus)) == \
                dumps(inproc.tag_documents(corpus)) == \
                dumps(single.tag_documents(corpus))
            assert dumps(remote.interpret_queries(queries)) == \
                dumps(inproc.interpret_queries(queries)) == \
                dumps(single.interpret_queries(queries))
            print(f"\nremote scatter-gather byte-identical to in-process "
                  f"cluster and single store ({len(corpus)} docs, "
                  f"{len(queries)} queries)")

            # --- the builder keeps building; the log ships the change.
            pipeline.ontology.begin_delta("late-news")
            pipeline.ontology.add_node(
                NodeType.EVENT, "surprise sequel announced at midnight")
            late = pipeline.ontology.store.commit_delta()
            publisher.publish([late])
            single.refresh([late])
            inproc.refresh([late])
            remote.refresh([late])
            fresh = [("late-doc",
                      "surprise sequel announced at midnight".split(), [])]
            assert dumps(remote.tag_documents(fresh)) == \
                dumps(inproc.tag_documents(fresh)) == \
                dumps(single.tag_documents(fresh))
            print("published one late delta; all replicas converged to "
                  f"v{remote.version} with identical tagging")

    # --- crash durability: a torn tail is dropped on recovery.
    log.close()
    segment = log.path / log.segments()[-1].name
    with open(segment, "ab") as handle:
        handle.write(b'{"torn": half-a-record')
    recovered = DeltaLog(log_dir)
    report = recovered.last_recovery
    print(f"\ntorn-write recovery: dropped {report['dropped_lines']} "
          f"line(s) / {report['truncated_bytes']} byte(s); log back at "
          f"v{recovered.last_version}")
    snapshot, snap_version = catalog.latest()
    tail = recovered.read(snap_version if snapshot is not None else 0)
    replay = OntologyStore.bootstrap(snapshot, tail)
    assert replay.stats() == pipeline.ontology.stats()
    recovered.close()
    print("snapshot + recovered tail replays to identical stats")


def main() -> None:
    log_dir = tempfile.mkdtemp(prefix="giant-delta-log-")
    try:
        run(log_dir)
    finally:
        shutil.rmtree(log_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
