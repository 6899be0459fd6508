"""Benchmark harness for qperm: workloads, an independent optimum check and tracing.

Run it from the repository root with ``python3 perfbench/run.py --workload
dense-n40 --seed 1 --seconds 20 --trace 0``; see ``perfbench/README.md``.
"""
