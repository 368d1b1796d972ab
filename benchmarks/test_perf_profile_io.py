"""Profile storage engine I/O — save/load wall time and first-query latency.

Microbenchmark for the pluggable storage backends on a large multi-shard
profile (~50k nodes across 4 per-thread shards, several metric columns per
node).  Three numbers matter per backend:

* **save** — serialize the sharded profile to disk;
* **load** — open the file (for the mmap-backed ``cct-binary-v1`` format this
  is one ``mmap`` plus a footer-TOC read, nothing decoded);
* **first query** — open the file *and* answer one query.  Two query shapes
  are measured: a cross-shard ``top_kernels`` (frame tables + one metric
  column per shard on the lazy path) and a single-shard bottom-up aggregation
  (one shard's frame table + one column).

The shape assertion is the paper-style claim the storage refactor was built
for: first-query latency on the binary backend must beat a full
columnar-JSON load by ≥5x, because the lazy view decodes only the
shards/columns the query touches while the JSON backends parse everything up
front.

Run standalone with::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_profile_io.py \
        --benchmark-only -q -s -m perf

(Tier-1 skips ``perf``-marked benchmarks via ``addopts``; the explicit
``-m perf`` on the command line overrides that.)
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict

import pytest

from conftest import print_block

from repro.core import (
    FORMAT_BINARY_V1,
    LazyProfileView,
    ProfileDatabase,
    backend_for,
)
from repro.core import metrics as M
from repro.core.cct import ShardedCallingContextTree
from repro.dlmonitor.callpath import (
    CallPath,
    FrameKind,
    framework_frame,
    gpu_kernel_frame,
    python_frame,
    root_frame,
    thread_frame,
)

pytestmark = pytest.mark.perf

SHARDS = 4
STEPS = 125
OPERATORS = 25
KERNELS = 4
# 4 shards × (1 thread + 125 steps + 125×25 ops + 125×25×4 kernels) ≈ 50k.
TARGET_NODES = 50_000

RECORD_METRICS = {
    M.METRIC_GPU_TIME: 1.25e-4,
    M.METRIC_KERNEL_COUNT: 1.0,
    M.METRIC_BLOCKS: 128.0,
    M.METRIC_THREADS_PER_BLOCK: 256.0,
}


def build_profile() -> ProfileDatabase:
    tree = ShardedCallingContextTree("profile-io")
    for tid in range(1, SHARDS + 1):
        shard = tree.shard_for_tid(tid, thread_name=f"thread-{tid}")
        prefix = [root_frame("profile-io"), thread_frame(f"thread-{tid}", tid)]
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
                    shard.attribute_many(node, RECORD_METRICS)
    return ProfileDatabase(tree)


def timed(func):
    start = time.perf_counter()
    result = func()
    return time.perf_counter() - start, result


def best_of(trials: int, func):
    """Minimum wall time over ``trials`` runs (first-query latency is a
    cold-path number; the minimum strips scheduler/GC noise on shared
    machines).  Returns (seconds, last result)."""
    best, result = float("inf"), None
    for _trial in range(trials):
        seconds, result = timed(func)
        best = min(best, seconds)
    return best, result


class TestProfileIo:
    def test_save_load_and_first_query_latency(self, once, tmp_path):
        import gc

        database = build_profile()
        stored_nodes = database.tree.stored_node_count()
        assert stored_nodes >= TARGET_NODES

        rows: Dict[str, Dict[str, float]] = {}
        paths = {}
        for format_name in ("columnar-json", "cct-binary-v1"):
            path = str(tmp_path / f"profile.{format_name}")
            save_seconds, _ = timed(lambda: database.save(path, format=format_name))
            paths[format_name] = path
            rows[format_name] = {
                "save_s": save_seconds,
                "file_mb": os.path.getsize(path) / 1e6,
            }
        expected_top = database.top_kernels(10)
        del database  # keep the measured heap small: files are the fixture now
        gc.collect()
        gc.disable()  # GC pauses over a large live heap would swamp the timings
        try:
            # Full columnar-JSON load: parses every shard and every column.
            columnar_load_seconds, columnar_db = best_of(
                2, lambda: ProfileDatabase.load(paths["columnar-json"]))
            rows["columnar-json"]["load_s"] = columnar_load_seconds
            columnar_query_seconds, columnar_top = timed(
                lambda: columnar_db.top_kernels(10))
            rows["columnar-json"]["first_query_s"] = (columnar_load_seconds
                                                      + columnar_query_seconds)
            assert columnar_top == expected_top
            del columnar_db
            gc.collect()

            # Binary open: mmap + TOC only.
            binary_open_seconds, binary_db = best_of(
                3, lambda: ProfileDatabase.load(paths["cct-binary-v1"]))
            assert isinstance(binary_db.tree, LazyProfileView)
            rows["cct-binary-v1"]["load_s"] = binary_open_seconds

            # Cross-shard first query on a fresh mapping: every shard's frame
            # table plus the GPU-time column, but no merged tree.
            def cross_shard_first_query():
                loaded = ProfileDatabase.load(paths["cct-binary-v1"])
                return loaded, loaded.top_kernels(10)

            binary_first_seconds, (binary_db, binary_top) = best_of(
                3, cross_shard_first_query)
            rows["cct-binary-v1"]["first_query_s"] = binary_first_seconds
            assert binary_top == expected_top
            assert not binary_db.tree.hydrated  # no merged tree was built

            # Single-shard first query on a fresh mapping: one shard's frame
            # table plus one metric column.
            def single_shard_first_query():
                view = ProfileDatabase.load(paths["cct-binary-v1"]).tree
                view.shard_aggregate_by_name(1, kind=FrameKind.GPU_KERNEL,
                                             metric=M.METRIC_GPU_TIME)
                return view

            shard_seconds, shard_view = best_of(3, single_shard_first_query)
            rows["cct-binary-v1"]["shard_query_s"] = shard_seconds
            assert shard_view.decoded_shard_ids() == {1}
            assert shard_view.decoded_columns() == {(1, M.METRIC_GPU_TIME)}
        finally:
            gc.enable()

        report = {
            "nodes": stored_nodes,
            "shards": SHARDS,
            "backends": rows,
            "speedup_shard_first_query_vs_columnar_load":
                columnar_load_seconds / rows["cct-binary-v1"]["shard_query_s"],
            "speedup_cross_shard_first_query_vs_columnar_load":
                columnar_load_seconds / rows["cct-binary-v1"]["first_query_s"],
        }
        once(lambda: None)  # record the run under pytest-benchmark
        print_block("profile storage I/O (50k-node, 4-shard profile)",
                    json.dumps(report, indent=2))

        # Shape assertions.  The headline claim: a single-shard first query —
        # open the profile, decode one shard's frame table plus one metric
        # column — beats even a bare full columnar-JSON load by ≥5x.  The
        # cross-shard first query still decodes every shard's frames (one
        # column each), so it wins by a smaller factor.
        assert rows["cct-binary-v1"]["shard_query_s"] * 5 <= columnar_load_seconds
        assert rows["cct-binary-v1"]["first_query_s"] * 1.5 <= columnar_load_seconds
        # Opening the mapping is near-instant compared to a JSON parse.
        assert binary_open_seconds * 20 <= columnar_load_seconds


class TestChecksumOverhead:
    def test_checksummed_io_within_budget_of_unchecksummed(self, once,
                                                           tmp_path):
        """Durability guard: per-block CRC-32 must cost ≤15% on the full
        save + lazily-verified-read cycle of the 50k-node profile.

        The read arm touches every block — the meta block at open, every
        shard's frame table through the per-name states a fleet summary
        stores, and every metric column through the totals — so each fresh
        view verifies each CRC exactly once, which is the worst case for the
        checksummed file.
        """
        database = build_profile()
        backend = backend_for(FORMAT_BINARY_V1)

        def roundtrip(path: str, checksums: bool) -> None:
            backend.save(database, path, checksums=checksums)
            with backend.open(path) as view:
                for metric in view.metric_names():
                    view.total_metric(metric)
                view.column_name_states(M.METRIC_GPU_TIME)

        plain_path = str(tmp_path / "plain.cctb")
        checked_path = str(tmp_path / "checked.cctb")
        roundtrip(plain_path, False)  # warm the code paths before timing
        plain_seconds, _ = best_of(3, lambda: roundtrip(plain_path, False))
        checked_seconds, _ = best_of(3, lambda: roundtrip(checked_path, True))
        ratio = checked_seconds / plain_seconds

        once(lambda: None)  # record the run under pytest-benchmark
        print_block("per-block checksum overhead (50k-node profile)",
                    json.dumps({
                        "unchecksummed_roundtrip_s": plain_seconds,
                        "checksummed_roundtrip_s": checked_seconds,
                        "ratio": ratio,
                    }, indent=2))
        assert ratio <= 1.15, (
            f"checksummed save + verified read took {ratio:.2f}x the "
            f"unchecksummed cycle (budget 1.15x)")
