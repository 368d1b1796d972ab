"""Fleet query index — stored summaries vs summaries rebuilt from bytes.

Microbenchmark for the query index's headline claim: over a large stored
population, ``FleetAggregator.top_kernels`` + ``aggregate_by_name`` served
from the **fleet query index** (per-run summaries + global name dictionary;
no profile opened at all) must beat ``use_index=False``, where every run
**rebuilds its summary from its profile bytes** (``RunSummary.from_view``:
every frames and column block decoded per run), by ≥10x — and return the
*identical* floats, because both gears fold the same per-name Welford rows
in the same order.  The ``use_index=False`` arm is what a run without a
valid stored summary pays on its first query.

The fixture is a store of 64 ingested runs (~122k stored nodes fleet-wide).
Each trial builds a fresh aggregator, so both gears pay their real
end-to-end cost: the fallback opens 64 mmaps and rebuilds 64 summaries; the
indexed path reads 64 small JSON summaries.  In the printed report,
``lazy_views_s`` is the ``use_index=False`` arm.

Run standalone with::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_fleet_index.py \
        --benchmark-only -q -s -m perf

(Tier-1 skips ``perf``-marked benchmarks via ``addopts``; the explicit
``-m perf`` on the command line overrides that.)
"""

from __future__ import annotations

import json
import time

import pytest

from conftest import print_block

from repro.core import ProfileDatabase, ProfileMetadata
from repro.core import metrics as M
from repro.core.cct import ShardedCallingContextTree
from repro.dlmonitor.callpath import (
    CallPath,
    framework_frame,
    gpu_kernel_frame,
    python_frame,
    root_frame,
    thread_frame,
)
from repro.fleet import ProfileStore

pytestmark = pytest.mark.perf

RUNS = 64
STEPS = 25
OPERATORS = 15
KERNELS = 4
# Per run: 1 shard × (1 thread + 25 steps + 375 ops + 1500 kernels) ≈ 1.9k
# nodes → ~122k stored nodes across the 64-run fleet.  Summaries stay small
# regardless: rows scale with *unique names* (~100 here), not nodes.

MIN_SPEEDUP = 10.0


def build_run(index: int) -> ProfileDatabase:
    tree = ShardedCallingContextTree("fleet-index-bench")
    scale = 1.0 + 0.01 * index
    shard = tree.shard_for_tid(1, thread_name="main")
    prefix = [root_frame("fleet-index-bench"), thread_frame("main", 1)]
    for step in range(STEPS):
        step_frame = python_frame("train.py", step, f"step_{step}")
        for op in range(OPERATORS):
            op_frame = framework_frame(f"aten::op_{op}")
            for kernel in range(KERNELS):
                path = CallPath.of(prefix + [
                    step_frame, op_frame,
                    gpu_kernel_frame(f"kernel_{op}_{kernel}"),
                ])
                node = shard.insert(path)
                shard.attribute_many(node, {
                    M.METRIC_GPU_TIME: 1.25e-4 * scale,
                    M.METRIC_KERNEL_COUNT: 1.0,
                })
    metadata = ProfileMetadata(program="fleet-index-bench",
                               workload=f"fleet-index-bench-{index}",
                               device="A100")
    return ProfileDatabase(tree, metadata)


def timed(func):
    start = time.perf_counter()
    result = func()
    return time.perf_counter() - start, result


def best_of(trials: int, func):
    """Minimum wall time over ``trials`` runs (cold-path latency; the
    minimum strips scheduler/GC noise on shared machines)."""
    best, result = float("inf"), None
    for _trial in range(trials):
        seconds, result = timed(func)
        best = min(best, seconds)
    return best, result


class TestFleetIndexQueries:
    def test_indexed_fleet_queries_vs_lazy_views(self, once, tmp_path):
        import gc

        store = ProfileStore(tmp_path / "fleet")
        stored_nodes = 0
        for index in range(RUNS):
            record = store.ingest(build_run(index))
            stored_nodes += record.nodes
        run_ids = store.run_ids()
        assert len(run_ids) == RUNS
        assert len(store.fleet_index.run_ids()) == RUNS

        def fleet_queries(**options):
            # A fresh aggregator per trial: each gear pays its full
            # end-to-end cost (open/validate + decode/read + fold).
            with store.aggregator(run_ids=run_ids, **options) as aggregator:
                top = aggregator.top_kernels(10)
                by_name = aggregator.aggregate_by_name(
                    kind=None, metric=M.METRIC_GPU_TIME)
                assert aggregator.hydrated_run_ids == []
                return top, by_name, list(aggregator.indexed_run_ids)

        gc.collect()
        gc.disable()  # GC pauses over decoded blocks would swamp timings
        try:
            lazy_seconds, (lazy_top, lazy_by_name, lazy_indexed) = best_of(
                3, lambda: fleet_queries(use_index=False))
            indexed_seconds, (top, by_name, indexed) = best_of(
                3, fleet_queries)
        finally:
            gc.enable()

        # The indexed gear answered every run from index rows...
        assert lazy_indexed == []
        assert len(indexed) == RUNS
        # ...and bit-for-bit identically to the rebuilt summaries: both
        # gears fold the same rows in the same order, so this is ==, not
        # approx.
        assert top == lazy_top
        assert by_name == lazy_by_name

        speedup = lazy_seconds / indexed_seconds
        once(lambda: None)  # record the run under pytest-benchmark
        print_block(
            f"fleet top_kernels + aggregate_by_name over {RUNS} stored runs "
            f"({stored_nodes} nodes fleet-wide)",
            json.dumps({
                "runs": RUNS,
                "stored_nodes": stored_nodes,
                "indexed_s": indexed_seconds,
                "lazy_views_s": lazy_seconds,
                "speedup_indexed_vs_lazy": speedup,
            }, indent=2))

        assert speedup >= MIN_SPEEDUP, (
            f"indexed fleet queries must be ≥{MIN_SPEEDUP}x faster than the "
            f"use_index=False path over {RUNS} runs, got {speedup:.1f}x "
            f"({indexed_seconds * 1e3:.2f} ms vs {lazy_seconds * 1e3:.2f} ms)")
