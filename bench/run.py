"""One command for the perf ledger.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload and prints, as the last line of its standard output,
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, the per-layer metrics
with ``--trace 1``.  The exit code is non-zero when anything failed.
Without ``--workload`` every workload runs in turn, each in a fresh
process.  ``--out FILE`` appends the stamped result record that
``bench/compare.py`` reads.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)


def stamp() -> dict:
    """Where and on what a result was measured."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"commit": commit, "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "loadavg": list(os.getloadavg()),
            "time": time.strftime("%Y-%m-%dT%H:%M:%S%z")}


def report(result: dict) -> None:
    """Every metric by name with its unit, then the ledger rows."""
    print(f"# {result['workload']} seed={result['seed']} "
          f"seconds={result['seconds']} trace={result['trace']}")
    for name, metric in (*result["metrics"].items(),
                         *result.get("detail", {}).items()):
        samples = f"  n={metric['samples']}" if "samples" in metric else ""
        print(f"{name:48s} {metric['value']:14.4f} {metric['unit']}{samples}")
    for row in result.get("ledger", ()):
        parts = " + ".join(f"{part} {value:.3f}"
                           for part, value in row["parts_ms"].items())
        print(f"ledger {row['class']:13s} measured {row['measured_ms']:.3f}"
              f" ms = {parts} + residual {row['residual_ms']:.3f} ms "
              f"({row['residual_ratio']:+.1%}, n={row['samples']})")
    print(f"attempted={result['attempted']} failed={result['failed']} "
          f"known_mismatches={result['known_mismatches']} "
          f"correct={result['correct']}")


def main(argv: "list[str] | None" = None) -> int:
    try:
        from bench.workloads import WORKLOADS
    except ModuleNotFoundError as exc:
        sys.exit(f"bench/run.py runs from a checkout holding src/repro: {exc}")

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the stamped result record")
    args = parser.parse_args(argv)

    if args.workload is None:
        status = 0
        for name in WORKLOADS:
            command = [sys.executable, os.path.abspath(__file__),
                       "--workload", name,
                       *(argv if argv is not None else sys.argv[1:])]
            status = max(status, subprocess.run(command).returncode)
        return status

    from bench import harness, stack

    # A terminated run unwinds like a failed one, children and all.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        result = asyncio.run(harness.run(
            args.workload, args.seed, args.seconds, bool(args.trace),
            import_s=time.perf_counter() - _PROCESS_START))
    finally:
        stack.stop_processes()  # none may outlive the run
    report(result)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(dict(result, stamp=stamp()),
                                    sort_keys=True) + "\n")
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metric["value"], "unit": metric["unit"]}
                    for name, metric in result["metrics"].items()}}))
    return 0 if result["correct"] and not result["failed"] else 1


def pin_hash_seed() -> None:
    """Re-execute under ``PYTHONHASHSEED=0`` (children inherit it).
    ``UserProfiler.infer`` adds float weights in set-iteration order, so
    an interest profile is byte-identical between the serving child and
    the oracle only when both processes hash strings alike."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__),
                                  *sys.argv[1:]])


if __name__ == "__main__":
    pin_hash_seed()
    sys.exit(main())
