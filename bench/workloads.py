"""The declarative workload table and the seeded request generator.

``--seed`` is the only input: it draws one pool item in ten, orders the
requests, times the open-loop arrivals and names the fresh event
phrases.  The world (``WORLD``), the
request pools with their popularity ranks and the shares of the stream
(class mix, Zipf(1.1) over each pool) are the same for every seed.
Seeding them too put into the run-to-run spread of every metric the
±5 % size difference between worlds, the cost of whichever ten
documents landed on the Zipf head (half the traffic; a 16-27 ms swing
in batch latency), and the sampling noise of a 100-request window.  The
program under test only ever receives the generated requests.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import math
import random
from dataclasses import dataclass

from repro.apps.story_tree import EventRecord
from repro.core.ontology import NodeType
from repro.serving.rpc import dumps
from repro.synth.documents import DocumentGenerator

#: One world for every workload (≈870 nodes / ≈2.1k edges / 14 deltas,
#: ≈2.3 s model-free pipeline build on a 2-core box).
WORLD = {"num_extra_domains": 5, "num_days": 5, "events_per_template": 3,
         "seed": 0}
TAGGER_OPTIONS = {"coherence_threshold": 0.02, "lcs_threshold": 0.6}

ZIPF_EXPONENT = 1.1
NUM_USERS = 64
NUM_STORIES = 48
POOL_DOCS = (200, 100)  # concept documents, event documents
BATCH_DOCS = 16


@dataclass(frozen=True)
class Workload:
    """One row of the workload table.

    ``loop`` is ``closed`` (one caller, next request after the reply),
    ``open`` (Poisson arrivals at ``rate`` per second over ``clients``
    connections, latency timed from each request's due time) or
    ``cycles`` (publish one delta, read until it is visible, then
    ``warm_reads`` reads).  ``check_every`` is the 1-in-N sample of pure
    reads the oracle re-checks after timing stops; stateful requests are
    always replayed in full.  ``visible_cycles`` freshness cycles run
    beside the timed window: after an ``open`` one, and one before each
    of as many equal stretches of a ``closed`` one (the ``cycles`` loop
    has them on its clock, as many as fit).  A reply slower than
    ``limit_ms`` counts as failed; the limits sit above the stalls a
    shared box inflicts (a neighbour's 0.3 s burst pushed 17 open-loop
    requests past 250 ms on an unchanged commit), since a failed run
    measures nothing and a slower program already shows in the latency
    bands.
    """

    name: str
    tier: str
    loop: str
    mix: "tuple[tuple[str, float], ...]"
    clients: int
    rate: "float | None"
    limit_ms: float
    check_every: int
    visible_cycles: int
    warm_reads: int
    why: str


WORKLOADS = {w.name: w for w in (
    Workload(
        name="tag_batch_single", tier="single", loop="closed",
        mix=(("batch", 1.0),), clients=1, rate=None, limit_ms=1000.0,
        check_every=8, visible_cycles=12, warm_reads=0,
        why="offline tagging straight into OntologyService: all time in "
            "apps.tagging/core.store/text, none in rpc, batcher, cluster or "
            "replication, so a fabric change must show no move here"),
    Workload(
        name="rpc_mixed_single", tier="rpc", loop="open",
        mix=(("query", 0.4), ("tag", 0.2), ("profile", 0.2),
             ("story", 0.2)),
        clients=2, rate=200.0, limit_ms=1000.0, check_every=1,
        visible_cycles=12, warm_reads=0,
        why="interactive users over RpcClient -> RpcServer -> "
            "AsyncOntologyService in a child process: most time is batcher "
            "wait, codec and framing, with view writes beside reads"),
    Workload(
        name="scatter_read_remote", tier="remote", loop="closed",
        mix=(("query", 0.7), ("tag", 0.2), ("neighborhood", 0.1)),
        clients=1, rate=None, limit_ms=2000.0, check_every=1,
        visible_cycles=2, warm_reads=0,
        why="reads on RemoteClusterService with 2 worker processes: same "
            "app work as the single tier but dominated by cluster.shards "
            "fan-out and cluster.remote proxy round trips"),
    Workload(
        name="publish_refresh_remote", tier="remote", loop="cycles",
        mix=(("query", 0.7), ("tag", 0.2), ("neighborhood", 0.1)),
        clients=1, rate=None, limit_ms=2000.0,
        check_every=1, visible_cycles=0, warm_reads=30,
        why="the remote topology used the other way: commit a delta, "
            "publish it to the log, refresh the workers and read until the "
            "new phrase is tagged - the paper's freshness path"),
)}


@dataclass(frozen=True)
class Request:
    """One generated request: ``calls`` are ``(method, args, kwargs)``
    against the serving API, executed in order.  Requests sharing a
    ``lane`` touch the same server-side state (one user's profile, the
    story tracker) and are delivered one at a time in index order, as a
    single user or a single event feed would send them."""

    index: int
    kind: str
    lane: "str | None"
    calls: tuple
    due: float = 0.0


@dataclass
class Pools:
    docs: list
    queries: "list[str]"
    tags: "list[str]"
    users: "list[str]"
    stories: "list[str]"
    node_ids: "list[str]"


def build_pools(world, ontology) -> Pools:
    """Request pools over the served ontology.  Pool order is the
    popularity rank; it is shuffled once so rank does not follow
    generation order."""
    rng = random.Random("pools")
    docs = [(doc.doc_id, doc.title_tokens, doc.sentences)
            for doc in DocumentGenerator(world).corpus(*POOL_DOCS)]
    concepts = ontology.nodes(NodeType.CONCEPT)
    tags = [node.phrase for node in concepts]
    node_ids = [node.node_id for node in concepts]
    queries = [f"best {phrase}" for phrase in tags]
    for pool in (docs, tags, node_ids, queries):
        rng.shuffle(pool)
    return Pools(docs=docs, queries=queries, tags=tags,
                 users=[f"user-{i}" for i in range(NUM_USERS)],
                 stories=tags[:NUM_STORIES], node_ids=node_ids)


class _Weighted:
    """Index ``i`` with probability proportional to ``weights[i]``."""

    def __init__(self, weights) -> None:
        self._cumulative = list(itertools.accumulate(weights))

    def pick(self, uniform: float) -> int:
        return bisect.bisect_right(self._cumulative,
                                   uniform * self._cumulative[-1])


def _zipf(n: int) -> _Weighted:
    return _Weighted(1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(n))


class _Evenly:
    """A low-discrepancy stream of uniforms: ``n * sqrt(prime)`` modulo 1.
    Any run of draws covers the unit interval evenly, so every stretch
    of a stream holds the class mix and the Zipf shares almost exactly."""

    def __init__(self, prime: int) -> None:
        self._value = 0.0
        self._step = math.sqrt(prime) % 1.0

    def next(self) -> float:
        self._value = (self._value + self._step) % 1.0
        return self._value


#: One independent draw sequence per dimension of a request.
_DIMENSIONS = {"kind": 2, "docs": 3, "queries": 5, "tags": 7, "users": 11,
               "stories": 13, "node_ids": 17}
#: Requests per shuffled block.
BLOCK = 20
#: Share of the item draws that are the seed's own.
SEEDED_SHARE = 0.1


class RequestStream:
    """Endless seeded request iterator for one workload.

    Classes and nine item draws in ten come off fixed low-discrepancy
    sequences; the tenth (``SEEDED_SHARE``) is the seed's own Zipf draw,
    so different seeds ask for different items and, between them, reach
    the whole pool.  The seed also decides the *order* — it shuffles
    each block of ``BLOCK`` requests — and the arrival times.  A remote
    window holds only ~100 requests, each costing a whole number of
    44 ms stalls that depends on the item: with every draw seeded,
    ``req_tail_ms`` of one commit spread 23 % over ten seeds, 3 % over
    ten runs of one seed."""

    def __init__(self, workload: Workload, pools: Pools, seed: int) -> None:
        self._workload = workload
        self._pools = pools
        self._rng = random.Random(f"{workload.name}:{seed}")
        self._kinds = [kind for kind, _share in workload.mix]
        self._weights = {"kind": _Weighted(
            share for _kind, share in workload.mix)}
        self._weights.update(
            (pool, _zipf(len(getattr(pools, pool))))
            for pool in _DIMENSIONS if pool != "kind")
        self._uniform = {name: _Evenly(prime)
                         for name, prime in _DIMENSIONS.items()}
        self._story_events = [0] * len(pools.stories)
        self._block: "list[tuple]" = []
        self._index = 0
        self._clock = 0.0

    def _draw(self, dimension: str) -> int:
        seeded = dimension != "kind" and self._rng.random() < SEEDED_SHARE
        return self._weights[dimension].pick(
            self._rng.random() if seeded
            else self._uniform[dimension].next())

    def _pick(self, pool: str):
        return getattr(self._pools, pool)[self._draw(pool)]

    def _spec(self, kind: str) -> tuple:
        """``(kind, what it asks for)``, one draw per item."""
        if kind == "batch":
            return kind, [self._pick("docs") for _ in range(BATCH_DOCS)]
        if kind == "tag":
            return kind, [self._pick("docs")]
        if kind == "query":
            return kind, self._pick("queries")
        if kind == "neighborhood":
            return kind, self._pick("node_ids")
        if kind == "profile":
            return kind, (self._pick("users"),
                          [self._pick("tags"), self._pick("tags")])
        if kind == "story":
            return kind, self._draw("stories")
        raise ValueError(f"unknown request kind {kind!r}")

    def _emit(self, kind: str, what) -> Request:
        """The request as the program receives it.  A story's events are
        numbered here, in sending order, so each write follows on the
        story's previous event."""
        lane = None
        if kind in ("batch", "tag"):
            calls = (("tag_documents", (what,), {}),)
        elif kind == "query":
            calls = (("interpret_queries", ([what],), {}),)
        elif kind == "neighborhood":
            calls = (("neighborhood", (what,), {"depth": 1}),)
        elif kind == "profile":
            lane, tags = what
            calls = (("record_read", (lane, tags), {}),
                     ("user_interests", (lane,), {"k": 5}))
        else:
            lane = "story"
            concept = self._pools.stories[what]
            count = self._story_events[what]
            self._story_events[what] = count + 1
            event = EventRecord(f"{concept} update {count}", "update",
                                [concept], day=count)
            calls = (("track_events", ([event],), {}),
                     ("follow_ups", (f"{concept} update {max(count - 1, 0)}",),
                      {"limit": 3}))
        request = Request(self._index, kind, lane, calls, self._clock)
        self._index += 1
        return request

    def prime(self) -> "list[Request]":
        """Warm-up requests: every story's first event (so timed story
        writes route by index, not by the similarity scan), then one
        request of every class in the mix (so what a class builds on
        first use, such as the tagger, exists before timing starts)."""
        stories = range(len(self._pools.stories)) \
            if "story" in self._kinds else ()
        return ([self._emit("story", story) for story in stories]
                + [self._emit(*self._spec(kind)) for kind in self._kinds])

    def __iter__(self) -> "RequestStream":
        return self

    def __next__(self) -> Request:
        if not self._block:
            self._block = [self._spec(self._kinds[self._draw("kind")])
                           for _ in range(BLOCK)]
            self._rng.shuffle(self._block)
        if self._workload.rate is not None:
            self._clock += self._rng.expovariate(self._workload.rate)
        return self._emit(*self._block.pop())


def stream_digest(workload: Workload, pools: Pools, seed: int,
                  count: int = 500) -> str:
    """SHA-256 over the first ``count`` requests (and the warm-up
    prefix) exactly as the program would receive them."""
    stream = RequestStream(workload, pools, seed)
    requests = stream.prime() + list(itertools.islice(stream, count))
    digest = hashlib.sha256()
    for request in requests:
        digest.update(dumps([request.kind, request.lane,
                             list(request.calls), round(request.due, 9)]))
    return digest.hexdigest()


def fresh_event_phrase(seed: int, cycle: int) -> str:
    """The event phrase one freshness cycle commits (never in the
    world, distinct per seed and cycle)."""
    return f"ledger bulletin {seed} number {cycle} confirmed overnight"
