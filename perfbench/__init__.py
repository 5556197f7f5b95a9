"""Repository benchmark: four workloads through the public serving and
training APIs, end-to-end metrics untraced, per-layer metrics traced.
See ``perfbench/README.md``."""
