"""Benchmark of the Network-in-Memory reproduction; run ``perfbench/run.py``."""
