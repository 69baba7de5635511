#!/usr/bin/env python
"""Cluster serving: sharded stores and scatter-gather requests.

Shows the cluster tier (DESIGN.md §6) end to end: a builder emits
OntologyDelta batches; a 4-shard ClusterService routes each batch to its
owning shards (with ghost replicas for cross-shard edges) and serves
tagging/query requests whose results are byte-identical to a single
store.  For shards in follower-fed worker processes behind the delta log,
see examples/replicated_cluster.py.

Run:  python examples/cluster_serving.py
"""

from repro import (
    ClusterService,
    GiantPipeline,
    OntologyService,
    WorldConfig,
    build_world,
)
from repro.synth.documents import DocumentGenerator
from repro.synth.querylog import QueryLogGenerator, build_click_graph


def main() -> None:
    world = build_world(WorldConfig(num_days=3, seed=0))
    days = QueryLogGenerator(world).generate_days()
    sessions = [s for d in days for s in d.sessions]
    pos_tagger, ner_tagger = world.register_text_models()

    # --- builder process: click logs -> ontology, emitted as deltas.
    pipeline = GiantPipeline(
        build_click_graph(days), pos_tagger, ner_tagger,
        categories=sorted({c[2] for c in world.categories}),
    )
    pipeline.run(sessions=sessions)
    print("builder ontology:", pipeline.ontology.stats())

    # --- 4-shard cluster: deltas routed per shard, reads scatter-gather.
    options = {"coherence_threshold": 0.02}
    cluster = ClusterService(num_shards=4, ner=ner_tagger,
                             tagger_options=options, deltas=pipeline.deltas)
    print(f"\ncluster at stream version {cluster.version}:")
    for line in cluster.stats()["shards"]:
        print(f"  shard {line['shard']}: owned={line['owned']} "
              f"ghosts={line['ghosts']} version={line['version']}")

    # --- identical results to a single-store service.
    single = OntologyService(pipeline.ontology, ner=ner_tagger,
                             tagger_options=options)
    corpus = DocumentGenerator(world).corpus(num_concept_docs=6,
                                             num_event_docs=3)
    assert cluster.tag_documents(corpus) == single.tag_documents(corpus)
    queries = [f"best {concept}" for concept in sorted(world.concepts)[:3]]
    assert cluster.interpret_queries(queries) == single.interpret_queries(queries)
    print("\nscatter-gather results identical to single store "
          f"({len(corpus)} docs, {len(queries)} queries)")
    for analysis in cluster.interpret_queries(queries):
        print(f"  {analysis.query!r} -> concepts={analysis.concepts[:1]} "
              f"rewrites={analysis.rewrites[:2]}")

    print("\ncluster stats:", {
        k: v for k, v in cluster.stats().items()
        if k not in ("ontology", "shards")
    })


if __name__ == "__main__":
    main()
