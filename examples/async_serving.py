#!/usr/bin/env python
"""Async serving: concurrent client streams over one micro-batched replica.

Shows the asyncio tier (DESIGN.md §7): a builder emits OntologyDelta
batches; a sync serving replica catches up; an `AsyncOntologyService`
fronts it with a bounded request queue + micro-batcher so eight
concurrent client streams overlap instead of serializing — with
byte-identical results to the sync path.  The same replica then goes
behind the length-prefixed JSON RPC wrapper and serves a socket client,
and a delta refresh lands *between* batches while streams are in
flight.

Run:  python examples/async_serving.py
"""

import asyncio

from repro import AsyncOntologyService, GiantPipeline, OntologyService, \
    WorldConfig, build_world
from repro.core.ontology import AttentionOntology
from repro.serving.rpc import RpcClient, RpcServer, dumps
from repro.synth.documents import DocumentGenerator
from repro.synth.querylog import QueryLogGenerator, build_click_graph

NUM_STREAMS = 8


async def client_stream(aio, corpus, stream_id: int):
    """One simulated client: tags its documents in small chunks."""
    tagged = []
    for start in range(0, len(corpus), 3):
        tagged.extend(await aio.tag_documents(corpus[start:start + 3]))
    return stream_id, tagged


async def main_async(replica, ner, deltas, corpus, queries) -> None:
    sync_tagged = replica.tag_documents(corpus)

    async with AsyncOntologyService(replica, max_batch_size=16) as aio:
        # --- eight concurrent client streams over one replica.
        results = await asyncio.gather(
            *[client_stream(aio, corpus, i) for i in range(NUM_STREAMS)])
        for stream_id, tagged in results:
            assert dumps(tagged) == dumps(sync_tagged), stream_id
        stats = await aio.stats()
        print(f"{NUM_STREAMS} concurrent streams, byte-identical to sync; "
              f"micro-batcher: {stats['async']}")

        # --- a delta refresh lands between batches, never mid-batch.
        tail, head = deltas[-1:], deltas[:-1]
        fresh = OntologyService(AttentionOntology(), ner=ner)
        fresh.refresh(head)
        async with AsyncOntologyService(fresh) as front:
            in_flight = [front.interpret_queries(queries) for _ in range(4)]
            applied = await front.refresh(tail)
            await asyncio.gather(*in_flight)
            print(f"refresh applied {applied} delta(s) between batches "
                  f"-> version {front.version}")

        # --- the same replica behind the JSON RPC socket.
        server = RpcServer(aio)
        host, port = await server.start()
        async with await RpcClient.connect(host, port) as client:
            remote = await client.call("tag_documents", corpus)
            assert dumps(remote) == dumps(sync_tagged)
            analyses = await client.call("interpret_queries", queries)
            print(f"RPC on {host}:{port} -> {len(remote)} docs tagged, "
                  f"{len(analyses)} queries interpreted, byte-identical")
            for analysis in analyses[:2]:
                print(f"  {analysis.query!r} -> "
                      f"concepts={analysis.concepts[:1]}")
        await server.close()


def main() -> None:
    world = build_world(WorldConfig(num_days=3, seed=0))
    days = QueryLogGenerator(world).generate_days()
    sessions = [s for d in days for s in d.sessions]
    pos_tagger, ner_tagger = world.register_text_models()

    pipeline = GiantPipeline(
        build_click_graph(days), pos_tagger, ner_tagger,
        categories=sorted({c[2] for c in world.categories}),
    )
    pipeline.run(sessions=sessions)

    replica = OntologyService(
        AttentionOntology(), ner=ner_tagger,
        tagger_options={"coherence_threshold": 0.02},
    )
    replica.refresh(pipeline.deltas)
    print(f"replica at version {replica.version} "
          f"({len(pipeline.deltas)} delta batches)")

    corpus = DocumentGenerator(world).corpus(num_concept_docs=6,
                                             num_event_docs=3)
    corpus = [(d.doc_id, d.title_tokens, d.sentences) for d in corpus]
    queries = [f"best {concept}" for concept in sorted(world.concepts)[:4]]
    asyncio.run(asyncio.wait_for(
        main_async(replica, ner_tagger, pipeline.deltas, corpus, queries), 120))


if __name__ == "__main__":
    main()
