"""Benchmark of the compassmodel package; see README.md."""
