"""Benchmark for the edgemagic package; run it with ``python3 bench/run.py``."""
