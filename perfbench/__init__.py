"""End-to-end benchmark of the taskmon execution monitor.

Run it from the root of a checkout:

    python3 perfbench/run.py --workload live_recover --seed 1 --seconds 12 --trace 0

See README.md in this directory for the workloads, the metrics and the
reference figures.
"""
