"""Tests for repro.serving.aio/batcher/rpc: the async serving tier.

Every async test runs through ``run_async`` which wraps the coroutine in
``asyncio.wait_for`` — the suite's per-test timeout guard, so a hung
event loop fails fast instead of wedging CI.
"""

import asyncio
import threading

import pytest

from repro.core.ontology import AttentionOntology, EdgeType, NodeType
from repro.errors import ReproError
from repro.serving import (AsyncOntologyService, MicroBatcher,
                           OntologyService, RpcClient, RpcError, RpcServer)
from repro.serving import rpc
from repro.text.ner import NerTagger
from repro.text.tokenizer import tokenize

ASYNC_TEST_TIMEOUT = 60.0


def run_async(coro, timeout: float = ASYNC_TEST_TIMEOUT):
    """Run ``coro`` under the per-test timeout guard (no hung loops)."""
    return asyncio.run(asyncio.wait_for(coro, timeout))


@pytest.fixture
def small_ontology():
    onto = AttentionOntology()
    concept = onto.add_node(
        NodeType.CONCEPT, "marvel superhero movies",
        payload={"context_titles": [tokenize("best marvel superhero movies")]},
    )
    for name in ("iron man", "captain america", "black panther"):
        entity = onto.add_node(NodeType.ENTITY, name)
        onto.add_edge(concept.node_id, entity.node_id, EdgeType.ISA)
    onto.add_node(NodeType.EVENT, "black panther premiere breaks box office record")
    a = onto.find(NodeType.ENTITY, "iron man")
    b = onto.find(NodeType.ENTITY, "captain america")
    onto.add_edge(a.node_id, b.node_id, EdgeType.CORRELATE)
    return onto


@pytest.fixture
def ner():
    t = NerTagger()
    for name in ("iron man", "captain america", "black panther"):
        t.register(name, "WORK")
    return t


@pytest.fixture
def sync_service(small_ontology, ner):
    return OntologyService(
        small_ontology, ner=ner,
        tagger_options={"coherence_threshold": 0.01, "lcs_threshold": 0.6},
    )


def make_docs(n=6):
    return [
        (f"d{i}", tokenize("iron man and captain america reviewed"),
         [tokenize("both iron man and captain america delight fans")])
        for i in range(n)
    ]


QUERIES = ["best marvel superhero movies", "iron man review"]


def fresh_sync_pair(ner):
    """A producer ontology plus an empty serving replica, for refresh
    tests (the producer emits the delta stream the replica replays)."""
    producer = AttentionOntology()
    producer.begin_delta("build")
    concept = producer.add_node(NodeType.CONCEPT, "space probes")
    entity = producer.add_node(NodeType.ENTITY, "voyager 1")
    producer.add_edge(concept.node_id, entity.node_id, EdgeType.ISA)
    first = producer.commit_delta()
    producer.begin_delta("day2")
    other = producer.add_node(NodeType.ENTITY, "voyager 2")
    producer.add_edge(concept.node_id, other.node_id, EdgeType.ISA)
    second = producer.commit_delta()
    replica = OntologyService(AttentionOntology(), ner=ner)
    return replica, first, second


# ----------------------------------------------------------------------
# MicroBatcher mechanics
# ----------------------------------------------------------------------
class TestMicroBatcher:
    def test_flush_on_max_batch_size(self):
        executed = []

        def execute(kind, items):
            executed.append(list(items))
            return items

        async def main():
            batcher = MicroBatcher(execute, max_batch_size=4)
            results = await asyncio.gather(
                *[batcher.submit("echo", [i]) for i in range(10)])
            await batcher.close()
            return results

        results = run_async(main())
        assert [r for [r] in results] == list(range(10))
        # 10 singleton requests, all queued before the dispatcher runs:
        # flushed by size — batches of 4, 4, then the tail of 2 when the
        # queue runs empty.
        assert [len(batch) for batch in executed] == [4, 4, 2]

    def test_requests_queued_during_execution_merge(self):
        """The dispatcher never waits for more requests: a lone request
        flushes at once, and what queues while it executes merges into
        the next batch."""
        executed = []
        started = threading.Event()
        release = threading.Event()

        def execute(kind, items):
            executed.append(list(items))
            if items == [0]:
                started.set()
                release.wait(ASYNC_TEST_TIMEOUT)
            return items

        async def main():
            loop = asyncio.get_running_loop()
            batcher = MicroBatcher(execute, max_batch_size=100)
            first = asyncio.ensure_future(batcher.submit("echo", [0]))
            await loop.run_in_executor(None, started.wait,
                                       ASYNC_TEST_TIMEOUT)
            rest = [asyncio.ensure_future(batcher.submit("echo", [i]))
                    for i in range(1, 5)]
            while batcher.stats["requests"] < 5:
                await asyncio.sleep(0)
            release.set()
            results = await asyncio.gather(first, *rest)
            await batcher.close()
            return results, batcher.stats

        results, stats = run_async(main())
        assert [r for [r] in results] == [0, 1, 2, 3, 4]
        assert executed == [[0], [1, 2, 3, 4]]
        # both batches flushed because nothing mergeable was queued
        assert stats["deadline_flushes"] == 2
        assert stats["size_flushes"] == 0

    def test_kind_change_breaks_batch(self):
        executed = []

        def execute(kind, items):
            executed.append((kind, list(items)))
            return items

        async def main():
            batcher = MicroBatcher(execute, max_batch_size=100)
            await asyncio.gather(
                batcher.submit("a", [1]),
                batcher.submit("a", [2]),
                batcher.submit("b", [3]),
                batcher.submit("a", [4]),
            )
            await batcher.close()

        run_async(main())
        assert executed == [("a", [1, 2]), ("b", [3]), ("a", [4])]

    def test_non_mergeable_never_merged(self):
        executed = []

        def execute(kind, items):
            executed.append(list(items))
            return items

        async def main():
            batcher = MicroBatcher(execute, max_batch_size=100)
            await asyncio.gather(
                *[batcher.submit("solo", [i], mergeable=False)
                  for i in range(3)])
            await batcher.close()

        run_async(main())
        assert sorted(executed) == [[0], [1], [2]]

    def test_executor_failure_scatters_to_all_waiters(self):
        def execute(kind, items):
            raise ValueError("backend exploded")

        async def main():
            batcher = MicroBatcher(execute, max_batch_size=8)
            results = await asyncio.gather(
                *[batcher.submit("k", [i]) for i in range(3)],
                return_exceptions=True)
            # The dispatcher survives a failed batch.
            assert all(isinstance(r, ValueError) for r in results)
            await batcher.close()

        run_async(main())

    def test_misaligned_executor_output_rejected(self):
        async def main():
            batcher = MicroBatcher(lambda kind, items: [], max_batch_size=4)
            with pytest.raises(ReproError, match="0 results for 1 items"):
                await batcher.submit("k", ["x"])
            await batcher.close()

        run_async(main())

    def test_closed_batcher_rejects_submits(self):
        async def main():
            batcher = MicroBatcher(lambda kind, items: items)
            await batcher.submit("k", [1])
            await batcher.close()
            with pytest.raises(ReproError, match="closed"):
                await batcher.submit("k", [2])

        run_async(main())


# ----------------------------------------------------------------------
# AsyncOntologyService: sync/async byte-identity
# ----------------------------------------------------------------------
class TestAsyncService:
    def test_tag_and_query_match_sync(self, sync_service):
        docs = make_docs()
        expected_tags = sync_service.tag_documents(docs)
        expected_queries = sync_service.interpret_queries(QUERIES)

        async def main():
            async with AsyncOntologyService(sync_service) as aio:
                tags = await aio.tag_documents(docs)
                queries = await aio.interpret_queries(QUERIES)
            return tags, queries

        tags, queries = run_async(main())
        assert tags == expected_tags
        assert rpc.dumps(tags) == rpc.dumps(expected_tags)
        assert queries == expected_queries

    def test_eight_concurrent_streams_byte_identical(self, sync_service):
        docs = make_docs()
        expected = sync_service.tag_documents(docs)

        async def main():
            async with AsyncOntologyService(sync_service,
                                            max_batch_size=16) as aio:
                results = await asyncio.gather(
                    *[aio.tag_documents(docs) for _ in range(8)])
                stats = await aio.stats()
            return results, stats

        results, stats = run_async(main())
        assert len(results) == 8
        for stream_result in results:
            assert stream_result == expected
            assert rpc.dumps(stream_result) == rpc.dumps(expected)
        # Micro-batching actually merged concurrent streams.
        assert stats["async"]["batches"] < stats["async"]["requests"]

    def test_point_endpoints_match_sync(self, sync_service, small_ontology):
        concept = small_ontology.find(NodeType.CONCEPT,
                                      "marvel superhero movies")
        expected_nbhd = sync_service.neighborhood(concept.node_id, depth=2)
        sync_service.record_read("sync-user", ["iron man"])
        expected_rec = sync_service.recommend_for_user("sync-user")

        async def main():
            async with AsyncOntologyService(sync_service) as aio:
                nbhd = await aio.neighborhood(concept.node_id, depth=2)
                coe = await aio.concepts_of_entity("iron man")
                await aio.record_read("async-user", ["iron man"])
                rec = await aio.recommend_for_user("async-user")
                interests = await aio.user_interests(
                    "async-user", node_type=NodeType.CONCEPT)
            return nbhd, coe, rec, interests

        nbhd, coe, rec, interests = run_async(main())
        assert nbhd == expected_nbhd
        assert coe == ("marvel superhero movies",)
        assert rec == expected_rec
        assert [phrase for phrase, _w in interests] == [
            "marvel superhero movies"]

    def test_error_propagates_and_loop_survives(self, small_ontology):
        service = OntologyService(small_ontology)  # no NER

        async def main():
            async with AsyncOntologyService(service) as aio:
                with pytest.raises(ReproError):
                    await aio.tag_documents([("d", [], [])])
                # The dispatcher is still alive afterwards.
                analyses = await aio.interpret_queries(["iron man review"])
            return analyses

        [analysis] = run_async(main())
        assert analysis.query == "iron man review"

    def test_refresh_between_batches_is_version_consistent(self, ner):
        replica, first, second = fresh_sync_pair(ner)
        # Sync oracle: interpretation before and after the second delta.
        oracle, o_first, o_second = fresh_sync_pair(ner)
        oracle.refresh([o_first])
        before = oracle.interpret_queries(["famous space probes"])
        oracle.refresh([o_second])
        after = oracle.interpret_queries(["famous space probes"])
        assert before != after  # the refresh is observable

        async def main():
            async with AsyncOntologyService(replica) as aio:
                assert await aio.refresh([first]) == 1
                streams = [aio.interpret_queries(["famous space probes"])
                           for _ in range(4)]
                refresh_task = asyncio.ensure_future(aio.refresh([second]))
                results = await asyncio.gather(*streams)
                await refresh_task
                final = await aio.interpret_queries(["famous space probes"])
                stats = await aio.stats()
            return results, final, stats

        results, final, stats = run_async(main())
        # Every response equals exactly one version's sync answer —
        # never a mix of pre- and post-refresh state.
        for [analysis] in results:
            assert analysis in (before[0], after[0])
        assert final == after
        assert stats["deltas_applied"] == 2

    def test_async_stats_carry_batching_counters(self, sync_service):
        async def main():
            async with AsyncOntologyService(sync_service) as aio:
                await aio.interpret_queries(QUERIES)
                return await aio.stats()

        stats = run_async(main())
        assert stats["queries_interpreted"] == 2
        assert stats["async"]["requests"] >= 1
        assert stats["async"]["items"] >= 2


# ----------------------------------------------------------------------
# RPC wrapper
# ----------------------------------------------------------------------
class TestRpc:
    def test_codec_round_trips_serving_objects(self, sync_service):
        docs = make_docs(2)
        tagged = sync_service.tag_documents(docs)
        analyses = sync_service.interpret_queries(QUERIES)
        for obj in (tagged, analyses, ("a", 1.5), {"k": (1, 2)},
                    {"s": {"x", "y"}}, EdgeType.ISA, None, [True, 2, "3"]):
            assert rpc.loads(rpc.dumps(obj)) == obj

    def test_codec_sorts_sets_of_unorderable_encodings(self):
        # Encoded set elements can be dicts (tuples) or mixed types;
        # canonical-JSON keying keeps the order deterministic anyway.
        for obj in ({(1, 2), (3, 4)}, {1, "a"}, {(2, "b"), (1, "a")}):
            assert rpc.loads(rpc.dumps(obj)) == obj
        assert rpc.dumps({(3, 4), (1, 2)}) == rpc.dumps({(1, 2), (3, 4)})

    def test_codec_escapes_dunder_payload_keys(self):
        # Ontology payloads are arbitrary dicts; dunder keys must not
        # collide with the codec's type markers.
        for obj in ({"__meta": 1}, {"__tuple__": [1, 2]},
                    {"__esc__already": {"__dc__": "x"}}):
            assert rpc.loads(rpc.dumps(obj)) == obj

    def test_server_caps_inflight_requests_per_connection(self,
                                                          sync_service):
        """A tiny per-connection cap still serves every pipelined
        request correctly — reads just pause while the cap is hit."""
        expected = sync_service.interpret_queries(QUERIES)

        async def main():
            async with AsyncOntologyService(sync_service) as aio:
                server = RpcServer(aio, max_inflight=2)
                host, port = await server.start()
                async with await RpcClient.connect(host, port) as client:
                    results = await asyncio.gather(
                        *[client.call("interpret_queries", QUERIES)
                          for _ in range(10)])
                await server.close()
            return results

        for result in run_async(main()):
            assert result == expected

    def test_client_close_fails_in_flight_calls(self):
        """A closed client must fail pending calls, not hang them."""
        async def main():
            async def mute_server(reader, writer):
                await reader.read(-1)  # swallow requests, never reply
                writer.close()

            server = await asyncio.start_server(mute_server, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            client = await RpcClient.connect(host, port)
            call = asyncio.ensure_future(client.call("stats"))
            await asyncio.sleep(0.05)  # let the request hit the wire
            await client.close()
            with pytest.raises(ReproError, match="closed"):
                await asyncio.wait_for(call, 5)
            # Calls issued after the receive loop died fail fast too,
            # instead of registering futures nothing will resolve.
            with pytest.raises(ReproError, match="closed"):
                await client.call("stats")
            server.close()
            await server.wait_closed()

        run_async(main())

    def test_server_close_ends_connections_of_idle_peers(self,
                                                         sync_service):
        """close() must end a connection whose peer never hangs up, and
        return promptly instead of waiting for that peer."""
        async def main():
            async with AsyncOntologyService(sync_service) as aio:
                server = RpcServer(aio)
                host, port = await server.start()
                reader, writer = await asyncio.open_connection(host, port)
                rpc.write_frame(writer, rpc.build_request(0, "stats", (), {}))
                assert "result" in rpc.loads_envelope(
                    await rpc.read_frame(reader))
                await asyncio.wait_for(server.close(), 5)
                # The server side is gone: the idle peer reads EOF.
                eof = await asyncio.wait_for(reader.read(), 5)
                writer.close()
                await writer.wait_closed()
            return eof

        assert run_async(main()) == b""

    def test_rpc_results_byte_identical_to_sync(self, sync_service):
        docs = make_docs()
        expected_tags = sync_service.tag_documents(docs)
        expected_queries = sync_service.interpret_queries(QUERIES)

        async def main():
            async with AsyncOntologyService(sync_service) as aio:
                server = RpcServer(aio)
                host, port = await server.start()
                async with await RpcClient.connect(host, port) as client:
                    tags = await client.call("tag_documents", docs)
                    queries = await client.call("interpret_queries", QUERIES)
                    coe = await client.call("concepts_of_entity", "iron man")
                await server.close()
            return tags, queries, coe

        tags, queries, coe = run_async(main())
        assert tags == expected_tags
        assert rpc.dumps(tags) == rpc.dumps(expected_tags)
        assert queries == expected_queries
        assert coe == ("marvel superhero movies",)

    def test_eight_concurrent_rpc_clients(self, sync_service):
        docs = make_docs()
        expected = sync_service.tag_documents(docs)

        async def one_stream(host, port):
            async with await RpcClient.connect(host, port) as client:
                return await client.call("tag_documents", docs)

        async def main():
            async with AsyncOntologyService(sync_service,
                                            max_batch_size=16) as aio:
                server = RpcServer(aio)
                host, port = await server.start()
                results = await asyncio.gather(
                    *[one_stream(host, port) for _ in range(8)])
                await server.close()
            return results

        results = run_async(main())
        assert len(results) == 8
        for stream_result in results:
            assert stream_result == expected
            assert rpc.dumps(stream_result) == rpc.dumps(expected)

    def test_rpc_refresh_advances_replica(self, ner):
        replica, first, second = fresh_sync_pair(ner)

        async def main():
            async with AsyncOntologyService(replica) as aio:
                server = RpcServer(aio)
                host, port = await server.start()
                async with await RpcClient.connect(host, port) as client:
                    applied = await client.call("refresh", [first, second])
                    coe = await client.call("concepts_of_entity", "voyager 2")
                    stats = await client.call("stats")
                await server.close()
            return applied, coe, stats

        applied, coe, stats = run_async(main())
        assert applied == 2
        assert coe == ("space probes",)
        assert stats["version"] == replica.version

    def test_rpc_gap_reported_as_delta_gap_error(self, ner):
        replica, _first, second = fresh_sync_pair(ner)

        async def main():
            async with AsyncOntologyService(replica) as aio:
                server = RpcServer(aio)
                host, port = await server.start()
                async with await RpcClient.connect(host, port) as client:
                    with pytest.raises(RpcError) as excinfo:
                        await client.call("refresh", [second])
                await server.close()
            return excinfo.value

        error = run_async(main())
        assert error.error_type == "DeltaGapError"
        assert "missing versions" in error.message

    def test_unknown_method_rejected(self, sync_service):
        async def main():
            async with AsyncOntologyService(sync_service) as aio:
                server = RpcServer(aio)
                host, port = await server.start()
                async with await RpcClient.connect(host, port) as client:
                    with pytest.raises(RpcError, match="unknown RPC method"):
                        await client.call("no_such_method")
                    with pytest.raises(RpcError, match="unknown RPC method"):
                        await client.call("_execute")  # internals stay private
                await server.close()

        run_async(main())

    def test_server_error_propagates_with_type(self, small_ontology):
        service = OntologyService(small_ontology)  # no NER -> tagging raises

        async def main():
            async with AsyncOntologyService(service) as aio:
                server = RpcServer(aio)
                host, port = await server.start()
                async with await RpcClient.connect(host, port) as client:
                    with pytest.raises(RpcError) as excinfo:
                        await client.call("tag_documents", make_docs(1))
                await server.close()
            return excinfo.value

        error = run_async(main())
        assert error.error_type == "ReproError"
