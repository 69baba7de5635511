"""Compare two result files written by ``bench/run.py --out``.

    python3 bench/compare.py A.jsonl B.jsonl

Applies the per-metric bounds of ``BENCHMARK.json`` to every (workload,
end-to-end metric) pair and prints one row each: ``ok``, ``regressed``
(B's median is worse than A's by more than the bound) or ``unresolved``
(the run-to-run spread of either side is wider than the bound, so the
medians cannot carry a verdict — unless every run of B reads better than
every run of A).  The workload's own ``detail`` metrics (per-class
medians, ``docs_per_s``) get rows too.  A higher ``fail_ratio`` in B
than in A is a regression whatever the timings say.  Exits 1 if any row
regressed.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> "list[dict]":
    """The untraced records of one result file."""
    with open(path, encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    return [record for record in records if not record["trace"]]


def spread(values: "list[float]") -> "float | None":
    """Interquartile range as a share of the median (needs >= 2 runs)."""
    if len(values) < 2:
        return None
    low, _mid, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def describe(path: str, records: "list[dict]") -> str:
    stamps = [record["stamp"] for record in records]
    seeds = sorted({record["seed"] for record in records})
    return (f"{path}: {len(records)} runs, seeds {seeds}, "
            f"commit {sorted({s['commit'][:12] for s in stamps})}, "
            f"nproc {sorted({s['nproc'] for s in stamps})}, "
            f"python {sorted({s['python'] for s in stamps})}, "
            f"load {min(s['loadavg'][0] for s in stamps):.2f}"
            f"-{max(s['loadavg'][0] for s in stamps):.2f}")


def workload_metrics(benchmark: dict, record: dict) -> "list[dict]":
    """The contract's end-to-end metrics, then the record's ``detail``
    metrics, each bounded like the contract metric it breaks down: a
    class median like ``req_mid_ms``, ``docs_per_s`` like ``req_per_s``.
    (``fail_ratio`` is judged on its own: any increase regresses.)"""
    contract = {m["name"]: m for m in benchmark["end_to_end"]}
    own = [dict(contract["req_per_s" if name == "docs_per_s"
                         else "req_mid_ms"], name=name, unit=emitted["unit"])
           for name, emitted in record["detail"].items()
           if name != "fail_ratio"]
    return benchmark["end_to_end"] + own


def compare(before: "list[dict]", after: "list[dict]",
            benchmark: dict) -> "list[dict]":
    rows = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        side = [[dict(r, metrics={**r["metrics"], **r["detail"]})
                 for r in records if r["workload"] == workload]
                for records in (before, after)]
        if not side[0] or not side[1]:
            continue
        for metric in workload_metrics(benchmark, side[1][-1]):
            name, bound = metric["name"], metric["bound"]
            a, b = ([r["metrics"][name]["value"] for r in runs]
                    for runs in side)
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (statistics.median(b) - statistics.median(a)) \
                / statistics.median(a)
            spreads = [s for s in (spread(a), spread(b)) if s is not None]
            if spreads and max(spreads) > bound and not (
                    max(sign * v for v in b) < min(sign * v for v in a)):
                verdict = "unresolved"
            else:
                verdict = "regressed" if worse > bound else "ok"
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "a": statistics.median(a), "b": statistics.median(b),
                "worse": worse, "bound": bound,
                "spread": max(spreads) if spreads else None,
                "samples": side[1][-1]["metrics"][name].get("samples"),
                "verdict": verdict})
        failed = [sum(r["failed"] for r in runs)
                  / sum(r["attempted"] for r in runs) for runs in side]
        rows.append({
            "workload": workload, "metric": "fail_ratio", "unit": "ratio",
            "a": failed[0], "b": failed[1], "worse": 0.0, "bound": 0.0,
            "spread": None,
            "samples": sum(r["attempted"] for r in side[1]),
            "verdict": "regressed" if failed[1] > failed[0] else "ok"})
    return rows


def main(argv: "list[str]") -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        benchmark = json.load(f)
    before, after = load(argv[0]), load(argv[1])
    print("A", describe(argv[0], before))
    print("B", describe(argv[1], after))
    rows = compare(before, after, benchmark)
    print(f"{'workload':24s} {'metric':19s} {'A':>12s} {'B':>12s} "
          f"{'worse':>8s} {'bound':>6s} {'spread':>7s} {'n':>6s}  verdict")
    for row in rows:
        spread_text = "-" if row["spread"] is None \
            else f"{row['spread']:.1%}"
        print(f"{row['workload']:24s} {row['metric']:19s} "
              f"{row['a']:12.3f} {row['b']:12.3f} {row['worse']:+8.1%} "
              f"{row['bound']:6.0%} {spread_text:>7s} "
              f"{row['samples'] or 0:6d}  {row['verdict']}")
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
