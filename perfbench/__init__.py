"""The repository benchmark: an offline campaign and cold/warm gateway traffic.

Run it from the repository root::

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 30 --trace 0

See ``perfbench/NOTES.md`` for the workloads, the metrics and how they
relate, and ``BENCHMARK.json`` at the repository root for the contract.
"""
