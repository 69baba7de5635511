"""Drives one workload: repeated set-up, the timed window, the
freshness cycles, the oracle check, and the metric arithmetic."""

from __future__ import annotations

import asyncio
import itertools
import statistics
import time
from dataclasses import dataclass

from repro.apps.query import QueryUnderstander
from repro.core.ontology import AttentionOntology
from repro.core.store import OntologyStore
from repro.serving.rpc import dumps
from repro.text.tokenizer import tokenize

from . import stack
from .trace import Tracer
from .workloads import (
    WORKLOADS,
    Request,
    RequestStream,
    Workload,
)

#: Full set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 2
#: A freshness cycle that is not visible by then counts as failed.
VISIBLE_LIMIT_SECONDS = 30.0

#: The span prefix of the public API each tier is entered through.
TIER_LAYER = {"single": "serving.service", "rpc": "serving.rpc",
              "remote": "cluster.remote"}


@dataclass
class Record:
    request: Request
    reply: "list | None"
    error: "str | None"
    seconds: float
    late: float = 0.0


async def attempt(call, request: Request, tracer: Tracer, layer: str):
    """Run one request's calls in order; returns ``(reply, error)``."""
    try:
        with tracer.span(f"request.{request.kind}", request.index):
            reply = []
            for method, args, kwargs in request.calls:
                with tracer.span(f"{layer}.{method}", request.index):
                    reply.append(await call(method, *args, **kwargs))
        return reply, None
    except Exception as exc:  # a failed request is a counted outcome
        return None, f"{type(exc).__name__}: {exc}"


class Oracle:
    """A single-store ``OntologyService`` fed the same writes in the
    same order; replies must match it ``rpc.dumps`` byte for byte."""

    def __init__(self, built: stack.Built) -> None:
        self.service = stack.single_service(built)
        self._rebuilt: "tuple[int, QueryUnderstander] | None" = None

    def run(self, request: Request) -> list:
        return [getattr(self.service, method)(*args, **kwargs)
                for method, args, kwargs in request.calls]

    def order_unstable(self, request: Request, expected: bytes) -> bool:
        """Whether ``request`` is a query whose analysis changes when
        this oracle's own store is rebuilt from its ``compact()``
        snapshot.  Recommendations come in ``AttentionOntology.correlated``
        order, which is edge insertion order, so a replica bootstrapped
        from a snapshot (every remote shard worker) and one that replayed
        the deltas (this oracle) disagree on ~2 % of queries today.  Such
        a query has no single right answer yet: a differing reply to it
        is counted as a known mismatch, not as a failure."""
        if request.kind != "query":
            return False
        store = self.service.ontology.store
        if self._rebuilt is None or self._rebuilt[0] != store.version:
            self._rebuilt = (store.version, QueryUnderstander(
                AttentionOntology(store=OntologyStore.bootstrap(
                    store.compact()))))
        queries = request.calls[0][1][0]
        return dumps([[self._rebuilt[1].analyze(query)
                       for query in queries]]) != expected

    def mismatches(self, records: "list[Record]", check_every: int
                   ) -> "tuple[int, int]":
        """Replay ``records`` in request order.  Stateful requests (a
        lane) are always replayed; pure reads are re-checked 1 in
        ``check_every``.  Returns how many checked replies differ, as
        ``(mismatches, known mismatches)``."""
        bad = known = 0
        for record in sorted(records, key=lambda r: r.request.index):
            request = record.request
            if request.lane is None and request.index % check_every:
                continue
            expected = dumps(self.run(request))
            if record.error is None and dumps(record.reply) != expected:
                if self.order_unstable(request, expected):
                    known += 1
                else:
                    bad += 1
        return bad, known


async def closed_window(call, stream, seconds: float, tracer: Tracer,
                        layer: str) -> "tuple[list[Record], float]":
    """One caller; the next request leaves when the reply is in."""
    records = []
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        if begun - start >= seconds:
            return records, begun - start
        request = next(stream, None)
        if request is None:  # a capped stream ran out before the clock
            return records, begun - start
        reply, error = await attempt(call, request, tracer, layer)
        records.append(Record(request, reply, error,
                              time.perf_counter() - begun))


async def open_window(calls, stream, seconds: float, tracer: Tracer,
                      layer: str) -> "tuple[list[Record], float]":
    """Poisson arrivals on their due times whatever the server does;
    latency runs from the due time, so a stall is charged to every
    request it delays.  Requests of one lane leave in due order."""
    records = []
    lanes: "dict[str, asyncio.Lock]" = {}
    first = next(stream, None)
    if first is None:
        return records, 0.0
    origin = time.perf_counter() - first.due

    async def one(request: Request) -> None:
        due = origin + request.due
        late = time.perf_counter() - due
        call = calls[request.index % len(calls)]
        if request.lane is None:
            reply, error = await attempt(call, request, tracer, layer)
        else:
            async with lanes.setdefault(request.lane, asyncio.Lock()):
                reply, error = await attempt(call, request, tracer, layer)
        records.append(Record(request, reply, error,
                              time.perf_counter() - due, late))

    tasks = []
    for request in itertools.chain([first], stream):
        if request.due - first.due >= seconds:
            break
        delay = origin + request.due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.ensure_future(one(request)))
    await asyncio.gather(*tasks)
    return records, time.perf_counter() - origin - first.due


async def freshness_cycle(tier: stack.Tier, built: stack.Built,
                          oracle: Oracle, tracer: Tracer, seed: int
                          ) -> "tuple[float, int, str | None]":
    """Commit a fresh EVENT node, hand the delta to the tier, and read a
    document naming the new phrase until the reply equals the refreshed
    oracle's.  Returns ``(seconds from hand-over to the first correct
    read, reads made, error)``."""
    phrase, delta = built.commit_fresh_event(seed)
    cycle = len(built.deltas)
    probe = Request(-cycle, "tag", None, ((
        "tag_documents", ([(f"probe-{cycle}", tokenize(phrase), [])],),
        {}),))
    oracle.service.refresh([delta])
    expected = dumps(oracle.run(probe))
    layer = TIER_LAYER[tier.name]
    reads = 0
    start = time.perf_counter()
    try:
        with tracer.span("freshness.cycle", cycle):
            with tracer.span("freshness.publish", cycle):
                await tier.publish(delta)
            while True:
                reads += 1
                with tracer.span("freshness.read", cycle):
                    reply, error = await attempt(tier.calls[0], probe,
                                                 tracer, layer)
                elapsed = time.perf_counter() - start
                if error is None and dumps(reply) == expected:
                    return elapsed, reads, None
                if error is not None or elapsed > VISIBLE_LIMIT_SECONDS:
                    return elapsed, reads, error or "never became visible"
    except Exception as exc:  # a failed publish is a counted outcome
        return (time.perf_counter() - start, reads,
                f"{type(exc).__name__}: {exc}")


@dataclass
class Environment:
    """One finished set-up: what the timed window runs against."""

    built: stack.Built
    tier: stack.Tier
    stream: RequestStream
    warmup: "list[Record]"
    seconds: float


async def set_up(workload: Workload, seed: int, tracer: Tracer,
                 world: "dict | None" = None) -> Environment:
    """World + pipeline build, tier start and warm-up — everything
    between process start and the first timed request, less what the
    request generator spent building its pools."""
    start = time.perf_counter()
    built = stack.build(tracer, world)
    tier = await stack.start_tier(workload.tier, built, tracer,
                                  workload.clients)
    try:
        stream = RequestStream(workload, built.pools, seed)
        layer = TIER_LAYER[tier.name]
        warmup = []
        with tracer.span("bench.warmup"):
            for request in stream.prime():
                begun = time.perf_counter()
                reply, error = await attempt(tier.calls[0], request,
                                             Tracer(False), layer)
                if error is not None:
                    raise RuntimeError(f"warm-up request failed: {error}")
                warmup.append(Record(request, reply, error,
                                     time.perf_counter() - begun))
    except BaseException:
        await tier.close()
        raise
    return Environment(built, tier, stream, warmup,
                       time.perf_counter() - start - built.generator_s)


def percentile(values: "list[float]", q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0.0 of no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def band_mean(values: "list[float]", low: float, high: float) -> float:
    """Mean of the values between the ``low`` and ``high`` quantiles
    (0..1); 0.0 when nothing succeeded (the run then reports what
    failed).  A remote request costs a whole number of ~44 ms socket
    stalls, so a single percentile of its latencies jumps a full stall
    when the share of one request shape moves by a sample; the mean
    over a band moves in proportion."""
    if not values:
        return 0.0
    ordered = sorted(values)
    first = int(len(ordered) * low)
    last = max(first + 1, int(len(ordered) * high))
    return statistics.fmean(ordered[first:last])


def latencies_ms(records: "list[Record]", kind: "str | None" = None
                 ) -> "list[float]":
    """Milliseconds of the answered requests (of one class)."""
    return [r.seconds * 1e3 for r in records if r.error is None
            and (kind is None or r.request.kind == kind)]


@dataclass
class Stretch:
    """Requests sent back to back: ``seconds`` of wall time, which on
    the ``cycles`` loop includes the freshness cycle before them and
    its ``probe_reads``."""

    records: "list[Record]"
    seconds: float
    probe_reads: int = 0

    def latencies_ms(self) -> "list[float]":
        return latencies_ms(self.records)


@dataclass
class Outcome:
    """What one window with its freshness cycles measured."""

    stretches: "list[Stretch]"
    visible: "list[float]"
    cycle_errors: int
    mismatches: int
    known_mismatches: int

    @property
    def records(self) -> "list[Record]":
        return [r for stretch in self.stretches for r in stretch.records]

    @property
    def elapsed(self) -> float:
        return sum(stretch.seconds for stretch in self.stretches)

    @property
    def errors(self) -> int:
        return self.cycle_errors + sum(
            1 for r in self.records if r.error is not None)

    def latencies_ms(self, kind: "str | None" = None) -> "list[float]":
        return latencies_ms(self.records, kind)

    def over_stretches(self, stat) -> float:
        """Median of ``stat(stretch)``.  The box's speed wanders by
        ±10 % for seconds at a time; pooled over the window, the slow
        seconds fill the tail band of every run they touch, while the
        median stretch is one the neighbours left alone."""
        return statistics.median(stat(s) for s in self.stretches)


async def measure(workload: Workload, env: Environment, oracle: Oracle,
                  tracer: Tracer, seed: int, seconds: float,
                  max_requests: "int | None" = None) -> Outcome:
    """The timed window and the freshness cycles, the oracle checking
    in lockstep.  An ``open`` window runs whole, then the cycles.  A
    ``closed`` window is cut into ``visible_cycles`` stretches with a
    cycle (off the clock) before each, so that the cycles sample the
    whole window and not one moment of the box.  On the ``cycles`` loop
    the cycle is the work: it is on the clock, ``warm_reads`` follow it,
    and as many rounds run as fit.  ``max_requests`` caps the window
    (the smoke test's tiny runs)."""
    tier, stream = env.tier, env.stream
    if max_requests is not None:
        stream = itertools.islice(stream, max_requests)
    layer = TIER_LAYER[tier.name]
    stretches, visible, cycle_errors = [], [], 0
    mismatches = known = 0

    def check(records: "list[Record]") -> None:
        nonlocal mismatches, known
        bad, order = oracle.mismatches(records, workload.check_every)
        mismatches, known = mismatches + bad, known + order

    async def one_cycle() -> "tuple[float, int]":
        nonlocal cycle_errors
        took, reads, error = await freshness_cycle(
            tier, env.built, oracle, tracer, seed)
        if error is None:
            visible.append(took)
        else:
            cycle_errors += 1
        return took, reads

    check(env.warmup)
    env.warmup = []  # replayed once; a later window continues from here
    if workload.loop == "open":
        records, took = await open_window(
            tier.calls, stream, seconds, tracer, layer)
        check(records)
        stretches.append(Stretch(records, took))
        for _ in range(workload.visible_cycles):
            await one_cycle()
        return Outcome(stretches, visible, cycle_errors, mismatches, known)

    timed = workload.loop == "cycles"
    elapsed, sent = 0.0, 0
    while (elapsed < seconds if timed
           else len(stretches) < workload.visible_cycles) and (
               max_requests is None or sent < max_requests):
        took, reads = await one_cycle()
        if timed:
            part = itertools.islice(stream, workload.warm_reads)
            limit = VISIBLE_LIMIT_SECONDS
        else:
            took, reads, part = 0.0, 0, stream
            limit = seconds / workload.visible_cycles
        records, spent = await closed_window(
            tier.calls[0], part, limit, tracer, layer)
        check(records)
        stretches.append(Stretch(records, took + spent, reads))
        elapsed, sent = elapsed + took + spent, sent + len(records)
    return Outcome(stretches, visible, cycle_errors, mismatches, known)


def metric(value: float, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def end_to_end(outcome: Outcome, setups: "list[float]", rss_mb: float
               ) -> dict:
    """The end-to-end metrics of ``BENCHMARK.json``, each with its
    sample count."""
    answered = len(outcome.latencies_ms())
    visible = statistics.median(outcome.visible) if outcome.visible else 0.0
    return {
        "setup_s": metric(statistics.median(setups), "s", len(setups)),
        "req_per_s": metric(outcome.over_stretches(
            lambda s: (len(s.latencies_ms()) + s.probe_reads) / s.seconds),
            "1/s", answered + sum(s.probe_reads for s in outcome.stretches)),
        "req_mid_ms": metric(outcome.over_stretches(
            lambda s: band_mean(s.latencies_ms(), 0.25, 0.75)), "ms",
            answered),
        "req_tail_ms": metric(outcome.over_stretches(
            lambda s: band_mean(s.latencies_ms(), 0.85, 0.95)), "ms",
            answered),
        "visible_p50_ms": metric(visible * 1e3, "ms", len(outcome.visible)),
        "rss_mb": metric(rss_mb, "MiB", 1),
    }


def detail(workload: Workload, outcome: Outcome, result: dict) -> dict:
    """What only this workload has: the median latency of each request
    class of its mix (a class with a fifth of the traffic barely moves
    ``req_mid_ms``), documents tagged per second, and the failed share.
    ``BENCHMARK.json`` holds one metric list for all four workloads, so
    these ride beside it in the result record; ``bench/compare.py``
    bounds them like the contract metric they break down."""
    out = {}
    for kind, _share in workload.mix:
        latencies = outcome.latencies_ms(kind)
        out[f"{kind}_p50_ms"] = metric(
            statistics.median(latencies) if latencies else 0.0, "ms",
            len(latencies))
    documents = sum(len(r.request.calls[0][1][0]) for r in outcome.records
                    if r.error is None and r.request.kind in ("batch", "tag"))
    out["docs_per_s"] = metric(documents / outcome.elapsed, "1/s", documents)
    out["fail_ratio"] = metric(result["failed"] / result["attempted"],
                               "ratio", result["attempted"])
    return out


def verdict(workload: Workload, *outcomes: Outcome) -> dict:
    """``correct`` is the oracle's word (no error, no mismatch beyond
    the known order defect); ``failed`` also counts replies slower than
    the latency limit."""
    slow = sum(1 for outcome in outcomes for r in outcome.records
               if r.error is None and r.seconds * 1e3 > workload.limit_ms)
    broken = sum(o.errors + o.mismatches for o in outcomes)
    return {"correct": broken == 0,
            "attempted": sum(len(o.records) + len(o.visible) + o.cycle_errors
                             for o in outcomes),
            "failed": broken + slow,
            "known_mismatches": sum(o.known_mismatches for o in outcomes)}


async def run(name: str, seed: int, seconds: float, trace: bool,
              import_s: float = 0.0, world: "dict | None" = None,
              max_requests: "int | None" = None,
              repeats: int = SETUP_REPEATS) -> dict:
    """One benchmark run of workload ``name``; returns the result
    document (``metrics`` holds the end-to-end metrics when ``trace`` is
    false, the per-layer metrics when it is true)."""
    workload = WORKLOADS[name]
    tracer = Tracer(trace)
    setups = []
    env = None
    try:
        for _ in range(1 if trace else repeats):
            if env is not None:
                await env.tier.close()
            env = await set_up(workload, seed, tracer, world)
            setups.append(import_s + env.seconds)
        oracle = Oracle(env.built)
        if not trace:
            outcome = await measure(workload, env, oracle, tracer, seed,
                                    seconds, max_requests=max_requests)
            rss_mb = stack.peak_rss_mb()
            result = verdict(workload, outcome)
            result["metrics"] = end_to_end(outcome, setups, rss_mb)
            result["detail"] = detail(workload, outcome, result)
        else:
            from . import layers  # the probes are a traced-run concern

            plain = await measure(workload, env, oracle, Tracer(False),
                                  seed, seconds / 2,
                                  max_requests=max_requests)
            traced = await measure(workload, env, oracle, tracer, seed,
                                   seconds / 2, max_requests=max_requests)
            result = verdict(workload, plain, traced)
            result["metrics"], result["ledger"] = await layers.per_layer(
                workload, env, oracle, tracer, plain, traced, seed,
                samples=layers.PROBE_SAMPLES if max_requests is None
                else max(2, max_requests // 4))
            result["span_violations"] = len(tracer.nesting_violations())
    finally:
        if env is not None:
            await env.tier.close()
    result.update(workload=name, seed=seed, seconds=seconds,
                  trace=int(trace))
    return result
