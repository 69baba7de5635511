"""Smoke test of the perf ledger (collected by the tier-1 suite).

Runs every workload on a tiny world at a tiny request count and checks
the *shape* of what the benchmark emits against ``BENCHMARK.json`` —
never a timing.  The runs happen in a child interpreter under
``PYTHONHASHSEED=0``, exactly as ``bench/run.py`` pins itself, because
interest profiles are byte-identical across processes only when both
hash strings alike (see ``run.pin_hash_seed``).
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from bench import harness, stack  # noqa: E402
from bench.trace import Tracer  # noqa: E402
from bench.workloads import WORKLOADS, build_pools, stream_digest  # noqa: E402

SMOKE_WORLD = {"num_extra_domains": 0, "num_days": 2,
               "events_per_template": 1, "seed": 0}
SMOKE_REQUESTS = 16
#: Two children share the two cores: the remote runs mostly wait on
#: sockets while the single-tier and traced runs compute.
SMOKE_JOBS = (("tag_batch_single", "rpc_mixed_single",
               "rpc_mixed_single+trace"),
              ("scatter_read_remote", "publish_refresh_remote"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


async def _smoke(jobs: "list[str]") -> dict:
    """Tiny runs; ``name+trace`` asks for the traced run of ``name``."""
    results = {}
    for job in jobs:
        name, _plus, trace = job.partition("+")
        results[job] = await harness.run(
            name, seed=0, seconds=0.5, trace=bool(trace), world=SMOKE_WORLD,
            max_requests=SMOKE_REQUESTS, repeats=1)
    return results


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def test_benchmark_json_names_and_counts():
    benchmark = _benchmark()
    assert [w["name"] for w in benchmark["workloads"]] == list(WORKLOADS)
    assert 1 <= len(benchmark["end_to_end"]) <= 16
    assert 1 <= len(benchmark["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in benchmark[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in benchmark["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in benchmark["end_to_end"])


def test_same_seed_same_request_stream():
    built = stack.build(Tracer(False), SMOKE_WORLD)
    again = build_pools(built.world, built.pipeline.ontology)
    for workload in WORKLOADS.values():
        assert stream_digest(workload, built.pools, 0) \
            == stream_digest(workload, again, 0)
        assert stream_digest(workload, built.pools, 0) \
            != stream_digest(workload, built.pools, 1)


def test_tracer_flags_a_child_outside_its_parent():
    tracer = Tracer(True)
    with tracer.span("parent"):
        with tracer.span("child"):
            pass
    assert [span["parent"] for span in tracer.spans] == [None, 0]
    assert tracer.nesting_violations() == []
    tracer.spans[1]["end"] = tracer.spans[0]["end"] + 1.0
    assert tracer.nesting_violations() == [tracer.spans[1]]


def test_every_workload_emits_every_metric():
    env = dict(os.environ, PYTHONHASHSEED="0")
    children = [subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), *jobs], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for jobs in SMOKE_JOBS]
    smoke = {}
    for child in children:
        out, err = child.communicate(timeout=300)
        assert child.returncode == 0, err[-4000:]
        smoke.update(json.loads(out.strip().splitlines()[-1]))
    benchmark = _benchmark()
    traced = smoke.pop("rpc_mixed_single+trace")
    assert set(smoke) == set(WORKLOADS)

    for name, result in smoke.items():
        assert result["correct"] and result["failed"] == 0, (name, result)
        assert result["attempted"] >= 1
        assert set(result["metrics"]) == {
            m["name"] for m in benchmark["end_to_end"]}, name
        for metric in benchmark["end_to_end"]:
            emitted = result["metrics"][metric["name"]]
            assert emitted["unit"] == metric["unit"], (name, metric)
            assert emitted["value"] > 0, (name, metric)
            assert emitted["samples"] >= 1, (name, metric)
        # the workload's own numbers: one median per class of its mix
        assert set(result["detail"]) == {"docs_per_s", "fail_ratio"} | {
            f"{kind}_p50_ms" for kind, _share in WORKLOADS[name].mix}, name
        assert result["detail"]["fail_ratio"]["value"] == 0.0, name

    assert traced["correct"], traced
    assert set(traced["metrics"]) == {
        m["name"] for m in benchmark["per_layer"]}
    for metric in benchmark["per_layer"]:
        assert traced["metrics"][metric["name"]]["unit"] == metric["unit"]
    # spans nest: every child lies inside its parent
    assert traced["span_violations"] == 0
    # each ledger row adds up to what was measured, residual included
    assert traced["ledger"], "the traced run wrote no ledger row"
    for row in traced["ledger"]:
        explained = sum(row["parts_ms"].values()) + row["residual_ms"]
        assert abs(explained - row["measured_ms"]) < 1e-6, row


if __name__ == "__main__":
    print(json.dumps(asyncio.run(_smoke(sys.argv[1:]))))
