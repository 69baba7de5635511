"""Section 5.1/5.3 text — document-tagging precision and throughput.

Paper: the deployed system tags ~1.5M documents/day (350 docs/second);
~35% of documents receive a concept tag and ~4% an event tag; human-judged
concept-tagging precision is 88% overall and event tagging 96%.

The bench tags a synthetic evaluation corpus through the serving layer's
batched :meth:`OntologyService.tag_documents` API (index-driven candidate
generation) and reports precision against gold document tags, the fraction
of documents tagged, and docs/second.  The cluster and serving benches then
(a) verify the 4-shard :class:`ClusterService` tags/interprets
byte-identically to the single store, and (b) measure the async
micro-batching front's docs/sec against the sync path, emitting
machine-readable numbers to ``results/BENCH_tagging.json`` so the perf
trajectory is trackable across PRs.
"""

from __future__ import annotations

import os
import time

import pytest

from repro import GiantPipeline
from repro.cluster import ClusterService
from repro.eval.reporting import render_table
from repro.obs import MetricsRegistry
from repro.serving import OntologyService
from repro.synth.documents import DocumentGenerator
from repro.synth.querylog import build_click_graph

from bench_common import SCALE, percentiles, write_json, write_result

TAGGER_OPTIONS = {"coherence_threshold": 0.02, "lcs_threshold": 0.6}


@pytest.fixture(scope="module")
def service_and_corpus(bench_days, bench_taggers, bench_sessions, bench_world,
                       concept_gctsp, key_element_gctsp):
    pos, ner = bench_taggers
    pipe = GiantPipeline(
        build_click_graph(bench_days), pos, ner,
        concept_model=concept_gctsp,
        key_element_model=key_element_gctsp,
        categories=sorted({c[2] for c in bench_world.categories}),
    )
    pipe.run(sessions=bench_sessions)
    service = OntologyService(
        pipe.ontology, ner=ner, tagger_options=dict(TAGGER_OPTIONS),
    )
    n_concept = 80 if SCALE == "full" else 40
    n_event = 40 if SCALE == "full" else 20
    corpus = DocumentGenerator(bench_world).corpus(n_concept, n_event)
    return service, corpus, pipe, ner


def test_tagging_precision_and_throughput(benchmark, service_and_corpus):
    service, corpus, _pipe, _ner = service_and_corpus

    # Tag in fixed-size chunks through a repro.obs latency histogram so
    # the recorded numbers carry a p50/p95/p99 distribution, not just a
    # mean (per-document results are independent, so chunking does not
    # change the tagging output).
    registry = MetricsRegistry()
    chunk = 10

    def tag_all():
        tagged = []
        for start in range(0, len(corpus), chunk):
            with registry.time("tag_chunk_seconds"):
                tagged.extend(service.tag_documents(corpus[start:start + chunk]))
        return tagged

    tagged = benchmark.pedantic(tag_all, iterations=1, rounds=3)

    from repro.core.ontology import NodeType

    ontology = service.ontology

    def concept_tag_correct(tag: str, gold_concepts: set[str]) -> bool:
        """A tag is judged correct when it IS the gold concept or an isA
        *ancestor* of it — e.g. "animated films" for a document whose gold
        concept is "hayao miyazaki animated films" (this mirrors the human
        judgement protocol: is the tag true of the document?)."""
        if tag in gold_concepts:
            return True
        tag_node = ontology.find(NodeType.CONCEPT, tag)
        if tag_node is None:
            return False
        for gold in gold_concepts:
            gold_node = ontology.find(NodeType.CONCEPT, gold)
            if gold_node is not None and ontology.has_path(
                    tag_node.node_id, gold_node.node_id):
                return True
        return False

    concept_tp = concept_fp = 0
    event_tp = event_fp = 0
    docs_with_concept = docs_with_event = 0
    for doc, result in zip(corpus, tagged):
        if result.concept_tags:
            docs_with_concept += 1
        if result.event_tags:
            docs_with_event += 1
        for tag in result.concept_tags[:1]:  # judge the top tag, as humans did
            if concept_tag_correct(tag, doc.gold_concepts):
                concept_tp += 1
            elif doc.gold_concepts:
                concept_fp += 1
        for tag in result.event_tags[:1]:
            # Judge-style: a mined event phrase may carry extra elements
            # (e.g. an "in <location>" suffix); the tag is correct when it
            # and a gold event contain each other as token subsequences.
            tag_tokens = tag.split()
            hit = False
            for gold in doc.gold_events:
                gold_tokens = gold.split()
                short, long_ = sorted((tag_tokens, gold_tokens), key=len)
                it = iter(long_)
                if all(tok in it for tok in short):
                    hit = True
                    break
            if hit:
                event_tp += 1
            elif doc.gold_events:
                event_fp += 1

    concept_precision = concept_tp / max(1, concept_tp + concept_fp)
    event_precision = event_tp / max(1, event_tp + event_fp)
    docs_per_sec = len(corpus) / benchmark.stats.stats.mean
    rows = [
        ("concept tagging", {
            "precision": concept_precision,
            "tagged%": docs_with_concept / len(corpus),
        }),
        ("event tagging", {
            "precision": event_precision,
            "tagged%": docs_with_event / len(corpus),
        }),
    ]
    table = render_table(
        "Document tagging: precision vs gold, fraction tagged, docs/sec",
        ["precision", "tagged%"], rows, precision=3,
    )
    table += (f"\nthroughput: {docs_per_sec:.1f} docs/sec "
              f"({len(corpus)} docs, serving batch API)")
    write_result("tagging_precision", table)
    write_json("BENCH_tagging", {
        "scale": SCALE,
        "single_process": {
            "docs_per_sec": round(docs_per_sec, 1),
            "corpus_docs": len(corpus),
            "concept_precision": round(concept_precision, 3),
            "event_precision": round(event_precision, 3),
            "latency": dict(
                percentiles(registry.snapshot(), "tag_chunk_seconds"),
                chunk_docs=chunk),
        },
    })

    # Paper shape: both precisions high; event tagging the more precise.
    assert concept_precision >= 0.6
    assert event_precision >= 0.6
    assert docs_with_concept > 0 and docs_with_event > 0


def test_cluster_service_identical_on_benchmark_world(service_and_corpus):
    """Acceptance gate: at 4 shards, scatter-gather serving output is
    byte-identical to the single-store service on the benchmark world."""
    service, corpus, pipe, ner = service_and_corpus
    cluster = ClusterService(num_shards=4, ner=ner,
                             tagger_options=dict(TAGGER_OPTIONS),
                             deltas=pipe.deltas)
    assert cluster.stats()["ontology"] == service.stats()["ontology"]
    assert cluster.tag_documents(corpus) == service.tag_documents(corpus)
    queries = [f"best {node.phrase}"
               for node in pipe.ontology.nodes()[:40]]
    # Per-query scatter-gather latency distribution (single-query calls
    # so each sample is one fan-out across all four shards).
    registry = MetricsRegistry()
    for query in queries:
        with registry.time("interpret_query_seconds"):
            cluster.interpret_queries([query])
    assert (cluster.interpret_queries(queries)
            == service.interpret_queries(queries))
    shards = cluster.stats()["shards"]
    write_json("BENCH_tagging", {
        "cluster_identity": {
            "num_shards": 4,
            "verified_docs": len(corpus),
            "verified_queries": len(queries),
            "owned_per_shard": [line["owned"] for line in shards],
            "ghosts_per_shard": [line["ghosts"] for line in shards],
            "interpret_latency": percentiles(
                registry.snapshot(), "interpret_query_seconds"),
        },
    })


def test_async_concurrent_streams_throughput(service_and_corpus):
    """Acceptance gate: ≥8 concurrent client streams through the async
    micro-batching front return byte-identical results to the sync
    service, and the concurrent-streams docs/sec is recorded.

    Wrapped in ``asyncio.wait_for`` (the suite's per-test timeout guard)
    so a hung event loop fails rather than wedging CI.
    """
    import asyncio

    from repro.serving import AsyncOntologyService
    from repro.serving.rpc import dumps

    service, corpus, _pipe, _ner = service_and_corpus
    streams = 8
    chunk = 5
    sync_start = time.perf_counter()
    sync_results = service.tag_documents(corpus * streams)
    sync_secs = time.perf_counter() - sync_start
    expected = sync_results[: len(corpus)]

    async def one_stream(aio):
        tagged = []
        for start in range(0, len(corpus), chunk):
            tagged.extend(await aio.tag_documents(corpus[start:start + chunk]))
        return tagged

    registry = MetricsRegistry()

    async def run():
        async with AsyncOntologyService(service, max_batch_size=4 * chunk,
                                        registry=registry) as aio:
            start = time.perf_counter()
            results = await asyncio.gather(
                *[one_stream(aio) for _ in range(streams)])
            secs = time.perf_counter() - start
            stats = await aio.stats()
        return results, secs, stats

    results, secs, stats = asyncio.run(asyncio.wait_for(run(), 600))
    assert len(results) == streams
    for stream_result in results:
        assert stream_result == expected
        assert dumps(stream_result) == dumps(expected)
    batcher = stats["async"]
    assert batcher["batches"] < batcher["requests"]  # merging happened

    total_docs = streams * len(corpus)
    async_dps = total_docs / secs
    sync_dps = total_docs / sync_secs
    snap = registry.snapshot()
    write_json("BENCH_tagging", {
        "async_streams": {
            "streams": streams,
            "docs_per_sec": round(async_dps, 1),
            "sync_docs_per_sec": round(sync_dps, 1),
            "corpus_docs": total_docs,
            "byte_identical": True,
            "batches": batcher["batches"],
            "requests": batcher["requests"],
            "max_batch_items": batcher["max_batch_items"],
            "execute_latency": percentiles(
                snap, "aio.batcher.execute_seconds"),
            "queue_wait_latency": percentiles(
                snap, "aio.batcher.queue_wait_seconds"),
        },
    })
    print(f"\nasync serving: {streams} streams at {async_dps:.1f} docs/sec "
          f"vs {sync_dps:.1f} sync ({batcher['requests']} requests merged "
          f"into {batcher['batches']} batches)")
    # Micro-batching amortises dispatch, so the async front should stay
    # within 2x of the raw sync path; the timing assertion only arms
    # with >=2 cores — a contended single-core runner can jitter
    # arbitrarily (numbers still recorded).
    if (os.cpu_count() or 1) >= 2:
        assert async_dps >= 0.5 * sync_dps

