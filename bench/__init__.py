"""The repo's performance ledger: four named workloads, end-to-end and
per-layer metrics with regression bounds, and a byte-identity oracle.

Run ``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repo root; see ``bench/README.md`` for the metric catalogue.
"""
