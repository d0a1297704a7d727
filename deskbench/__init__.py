"""Benchmark for desklora: seeded workloads run through the public entry
points, output checks, and a separate traced run for per-layer metrics.
Run it with `python3 deskbench/run.py --help` from the repository root."""
