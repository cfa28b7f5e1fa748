"""Benchmark for curriculum-lab: four CLI workloads, end-to-end and per-layer
metrics, and correctness checks computed apart from the program.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root; see README.md.
"""
