"""The repository's benchmark: workloads, tracer and correctness gate (see README.md)."""
