"""The benchmark of record: profiler overhead, stop-to-query and fleet costs.

``python -m repro.bench`` drives the public API from one process and one
thread — engines, the JIT, ``DeepContextProfiler``, ``ProfileDatabase``,
``ProfileStore``, ``FleetAggregator``, the analyzer and the GUI — over the
workloads listed in the repository's ``BENCHMARK.json``.  See ``README.md``
in this directory for the metric catalog and the noise rules.
"""
