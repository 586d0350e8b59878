"""Benchmark of the vgpricer engines; run with ``python3 vgbench/run.py``."""
