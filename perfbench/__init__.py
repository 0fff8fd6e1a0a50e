"""Benchmark of the dynskip package.

Run ``python3 perfbench/run.py --workload eval-modes --seed 0 --seconds 10
--trace 0`` from the repository root. See ``run.py`` for the workloads and
the result format.
"""
