"""Session benchmark for the instrumentation pipeline.

Run it from the repository root::

    python3 perfbench/run.py --workload matmul_bb --seed 1 --seconds 20 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and the
layer map.
"""
