"""Benchmark of the hpss package: workloads, span tracing and metrics."""
