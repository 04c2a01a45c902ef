"""Benchmark harness for logbound: seeded workloads, an independent
correctness oracle and an outside-in per-layer tracer.

Run it through ``perfbench/run.py``; see that file for the arguments.
"""
