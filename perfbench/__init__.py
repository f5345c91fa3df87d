"""Benchmark of the yinyang package; run perfbench/run.py."""
