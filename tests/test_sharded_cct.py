"""Tests for per-thread CCT shards merged at query time.

The sharded tree's contract is equivalence: for *any* interleaving of
per-thread observations, the merged view's structure, exclusive aggregates and
lazily materialized inclusive view must match a single shared tree fed the
same observations, to floating-point accuracy.  These tests pin that property
(with hypothesis), the shard lifecycle (handles, caching behind generation
counters), the multi-shard columnar persistence with provenance, and the
zero-row regressions fixed alongside (``aggregate_by_name`` count gating,
``MetricSet.as_dict`` zombie zero entries).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    CallingContextTree,
    DeepContextProfiler,
    ProfileDatabase,
    ProfilerConfig,
    ShardedCallingContextTree,
)
from repro.core import metrics as M
from repro.core.metrics import MetricSet
from repro.cpu.clock import MachineClock
from repro.dlmonitor.callpath import (
    CallPath,
    FrameKind,
    framework_frame,
    gpu_kernel_frame,
    python_frame,
    root_frame,
    thread_frame,
)
from repro.framework import EagerEngine, modules, tensor
from repro.framework import functional as F
from repro.framework.threads import THREAD_BACKWARD, ThreadRegistry

THREAD_NAMES = {1: "main", 2: "backward-0", 3: "worker-0"}


def _path(tid: int, module: str, kernel: str) -> CallPath:
    return CallPath.of([
        root_frame("sharded"), thread_frame(THREAD_NAMES[tid], tid),
        python_frame("train.py", 10 + tid, "train_step"),
        framework_frame(f"aten::{module}"),
        gpu_kernel_frame(kernel),
    ])


# One observation: which thread saw it, where, and how much GPU time.
observations_strategy = st.lists(
    st.tuples(
        st.sampled_from([1, 2, 3]),
        st.sampled_from(["conv", "linear", "norm"]),
        st.sampled_from(["k0", "k1"]),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    ),
    min_size=1, max_size=80,
)


def _build_single(observations) -> CallingContextTree:
    tree = CallingContextTree("sharded")
    for tid, module, kernel, gpu_time in observations:
        node = tree.insert(_path(tid, module, kernel))
        tree.attribute_many(node, {M.METRIC_GPU_TIME: gpu_time,
                                   M.METRIC_KERNEL_COUNT: 1.0})
    return tree


def _build_sharded(observations) -> ShardedCallingContextTree:
    tree = ShardedCallingContextTree("sharded")
    for tid, module, kernel, gpu_time in observations:
        shard = tree.shard_for_tid(tid, thread_name=THREAD_NAMES[tid])
        node = shard.insert(_path(tid, module, kernel))
        shard.attribute_many(node, {M.METRIC_GPU_TIME: gpu_time,
                                    M.METRIC_KERNEL_COUNT: 1.0})
    return tree


def _snapshot(tree: CallingContextTree):
    """Per-node exclusive states and inclusive (count, sum) pairs, keyed by path."""
    tree.ensure_inclusive()
    snapshot = {}
    for node in tree.all_nodes():
        key = tuple(frame.identity() for frame in
                    (n.frame for n in node.path_from_root()))
        exclusive = {name: aggregate.state()
                     for name, aggregate in node.exclusive.items() if aggregate.count}
        inclusive = {name: (aggregate.count, aggregate.total)
                     for name, aggregate in node.inclusive.items() if aggregate.count}
        snapshot[key] = (exclusive, inclusive)
    return snapshot


class TestShardMergeEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(observations_strategy)
    def test_merged_sharded_tree_matches_single_tree(self, observations):
        single = _build_single(observations)
        sharded = _build_sharded(observations)
        merged = sharded.merged()

        assert merged.node_count() == single.node_count()
        assert sharded.insertions == single.insertions

        expected = _snapshot(single)
        actual = _snapshot(merged)
        assert set(actual) == set(expected)
        for key, (exclusive, inclusive) in expected.items():
            actual_exclusive, actual_inclusive = actual[key]
            assert set(actual_exclusive) == set(exclusive)
            for name, state in exclusive.items():
                count, total, minimum, maximum, mean, m2 = state
                a_count, a_total, a_min, a_max, a_mean, a_m2 = actual_exclusive[name]
                assert a_count == count
                assert a_total == pytest.approx(total, rel=1e-9, abs=1e-12)
                assert a_min == pytest.approx(minimum, rel=1e-9, abs=1e-12)
                assert a_max == pytest.approx(maximum, rel=1e-9, abs=1e-12)
                assert a_mean == pytest.approx(mean, rel=1e-9, abs=1e-12)
                assert a_m2 == pytest.approx(m2, rel=1e-7, abs=1e-9)
            assert set(actual_inclusive) == set(inclusive)
            for name, (count, total) in inclusive.items():
                assert actual_inclusive[name][0] == count
                assert actual_inclusive[name][1] == pytest.approx(total, rel=1e-9,
                                                                  abs=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(observations_strategy)
    def test_merge_order_is_irrelevant(self, observations):
        forward = _build_sharded(observations)
        backward = ShardedCallingContextTree("sharded")
        for tid, module, kernel, gpu_time in reversed(observations):
            shard = backward.shard_for_tid(tid)
            node = shard.insert(_path(tid, module, kernel))
            shard.attribute_many(node, {M.METRIC_GPU_TIME: gpu_time,
                                        M.METRIC_KERNEL_COUNT: 1.0})
        assert forward.node_count() == backward.node_count()
        assert forward.root.inclusive.sum(M.METRIC_GPU_TIME) == pytest.approx(
            backward.root.inclusive.sum(M.METRIC_GPU_TIME), rel=1e-9, abs=1e-12)


class TestMergeFrom:
    def test_union_creates_missing_and_merges_existing(self):
        left = _build_single([(1, "conv", "k0", 1.0)])
        right = _build_single([(1, "conv", "k0", 3.0), (2, "norm", "k1", 5.0)])
        mapping = left.merge_from(right)
        assert len(mapping) == right.node_count()
        # The returned mapping covers every donor node, root included.
        assert all(id(node) in mapping for node in right.all_nodes())
        by_name = left.aggregate_by_name(kind=FrameKind.GPU_KERNEL,
                                         metric=M.METRIC_GPU_TIME)
        assert by_name["k0"] == pytest.approx(4.0)
        assert by_name["k1"] == pytest.approx(5.0)
        assert left.insertions == 3
        # The donor tree is untouched.
        assert right.root.inclusive.sum(M.METRIC_GPU_TIME) == pytest.approx(8.0)

    def test_merge_invalidates_inclusive_view(self):
        left = _build_single([(1, "conv", "k0", 1.0)])
        assert left.root.inclusive.sum(M.METRIC_GPU_TIME) == pytest.approx(1.0)
        left.merge_from(_build_single([(1, "conv", "k0", 2.0)]))
        assert left.root.inclusive.sum(M.METRIC_GPU_TIME) == pytest.approx(3.0)


class TestShardLifecycle:
    def test_shard_handle_memoized_on_thread(self):
        registry = ThreadRegistry(MachineClock())
        tree = ShardedCallingContextTree("handles")
        shard = tree.shard_for(registry.main)
        assert tree.shard_for(registry.main) is shard
        assert registry.main.cct_shard == (tree, shard)
        # A different owner tree must not reuse the stale handle.
        other = ShardedCallingContextTree("handles")
        assert other.shard_for(registry.main) is not shard
        assert registry.main.cct_shard[0] is other

    def test_merged_view_cached_behind_generation(self):
        tree = _build_sharded([(1, "conv", "k0", 1.0), (2, "norm", "k1", 2.0)])
        merged = tree.merged()
        assert tree.merged() is merged
        assert tree.merges == 1
        # Pure reads do not invalidate the cache...
        tree.node_count(), tree.kernels, tree.aggregate_by_name()
        assert tree.merges == 1
        # ...but mutating any shard does.
        shard = tree.shard_for_tid(1)
        shard.attribute(shard.kernels[0], M.METRIC_GPU_TIME, 4.0)
        assert tree.root.inclusive.sum(M.METRIC_GPU_TIME) == pytest.approx(7.0)
        assert tree.merges == 2

    def test_mutating_a_merged_view_node_is_rejected(self):
        # Nodes from a multi-shard read API live in the merged cache, which
        # is thrown away on the next shard mutation — attributing into them
        # would silently lose the observation.
        tree = _build_sharded([(1, "conv", "k0", 1.0), (2, "norm", "k1", 2.0)])
        merged_kernel = tree.kernels[0]
        with pytest.raises(ValueError, match="merged query view"):
            tree.attribute(merged_kernel, M.METRIC_GPU_TIME, 5.0)
        with pytest.raises(ValueError, match="merged query view"):
            tree.attribute_many(merged_kernel, {M.METRIC_GPU_TIME: 5.0})
        # Shard-owned nodes (including the degenerate default shard's) work.
        shard_node = tree.shard_for_tid(1).kernels[0]
        tree.attribute(shard_node, M.METRIC_GPU_TIME, 5.0)
        assert tree.root.inclusive.sum(M.METRIC_GPU_TIME) == pytest.approx(8.0)
        # A one-shard tree is its own union: its read API hands out the
        # shard's nodes, so attribution through them lands in the shard.
        single = _build_sharded([(1, "conv", "k0", 1.0)])
        kernel = single.kernels[0]
        assert kernel.tree is single.shard_for_tid(1)
        single.attribute(kernel, M.METRIC_GPU_TIME, 5.0)
        single.attribute_many(kernel, {M.METRIC_GPU_TIME: 2.0})
        assert single.shard_for_tid(1).kernels[0].exclusive.sum(
            M.METRIC_GPU_TIME) == pytest.approx(8.0)
        assert single.root.inclusive.sum(M.METRIC_GPU_TIME) == pytest.approx(8.0)
        assert single.merges == 0

    def test_mutating_a_stale_merged_view_node_is_rejected(self):
        # Nodes from a multi-shard view discarded by a rebuild are dead:
        # writing into their tree would lose the observation silently.
        tree = _build_sharded([(1, "conv", "k0", 1.0), (2, "norm", "k1", 2.0)])
        stale_node = tree.kernels[0]
        shard = tree.shard_for_tid(1)
        shard.insert(_path(1, "conv", "k9"))  # shard change → rebuild
        assert tree.kernels[0] is not stale_node  # view was rebuilt
        with pytest.raises(ValueError, match="merged query view"):
            tree.attribute(stale_node, M.METRIC_GPU_TIME, 5.0)
        # One shard: a node fetched before a structural change is still the
        # shard's own node, and attribution through it is kept.
        single = _build_sharded([(1, "conv", "k0", 1.0)])
        early_node = single.kernels[0]
        single.shard_for_tid(1).insert(_path(1, "conv", "k9"))
        assert single.kernels[0] is early_node
        single.attribute(early_node, M.METRIC_GPU_TIME, 5.0)
        assert single.root.inclusive.sum(M.METRIC_GPU_TIME) == pytest.approx(6.0)

    def test_metric_only_changes_rebuild_the_view(self):
        # Attribution into already-merged contexts makes the next query
        # rebuild the merged view in one pass; the new values show.
        tree = _build_sharded([(1, "conv", "k0", 1.0), (2, "norm", "k1", 2.0)])
        merged = tree.merged()
        assert tree.merges == 1
        shard = tree.shard_for_tid(1)
        shard.attribute(shard.kernels[0], M.METRIC_GPU_TIME, 4.0)
        shard.attribute_many(shard.kernels[0], {M.METRIC_KERNEL_COUNT: 1.0})
        rebuilt = tree.merged()
        assert rebuilt is not merged
        assert tree.merges == 2
        kernel = tree.kernels[0]
        assert kernel.exclusive.sum(M.METRIC_GPU_TIME) == pytest.approx(5.0)
        assert kernel.exclusive.sum(M.METRIC_KERNEL_COUNT) == 2.0
        assert tree.root.inclusive.sum(M.METRIC_GPU_TIME) == pytest.approx(7.0)
        assert tree.root.inclusive.sum(M.METRIC_KERNEL_COUNT) == 3.0
        assert tree.merged() is rebuilt  # queries between mutations reuse it
        assert tree.merges == 2
        # A structural change rebuilds it too.
        shard.insert(_path(1, "conv", "k9"))
        assert tree.merged() is not rebuilt
        assert tree.merges == 3

    def test_refresh_matches_rebuild_under_interleaving(self):
        observations = [(1, "conv", "k0", 0.5), (2, "norm", "k1", 1.5),
                        (3, "linear", "k0", 2.5)]
        tree = _build_sharded(observations)
        reference = _build_sharded(observations)
        tree.merged()  # prime the cache; each later query rebuilds it
        extra = [(1, "conv", "k0", 0.25), (2, "norm", "k1", 0.75),
                 (1, "conv", "k0", 1.25)]
        for tid, module, kernel, gpu_time in extra:
            for target in (tree, reference):
                shard = target.shard_for_tid(tid)
                node = shard.insert(_path(tid, module, kernel))
                shard.attribute_many(node, {M.METRIC_GPU_TIME: gpu_time,
                                            M.METRIC_KERNEL_COUNT: 1.0})
            _ = tree.root.inclusive  # query between mutations
        expected = _snapshot(reference.merged())
        actual = _snapshot(tree.merged())
        assert set(actual) == set(expected)
        for key, (exclusive, inclusive) in expected.items():
            actual_exclusive, actual_inclusive = actual[key]
            assert set(actual_exclusive) == set(exclusive)
            for name, state in exclusive.items():
                assert actual_exclusive[name][0] == state[0]
                assert actual_exclusive[name][1] == pytest.approx(state[1], rel=1e-9)
            for name, (count, total) in inclusive.items():
                assert actual_inclusive[name][0] == count
                assert actual_inclusive[name][1] == pytest.approx(total, rel=1e-9)

    def test_propagations_monotonic_across_rebuilds(self):
        tree = _build_sharded([(1, "conv", "k0", 1.0), (2, "norm", "k1", 2.0)])
        tree.root.inclusive.sum(M.METRIC_GPU_TIME)  # materialize view 1
        first = tree.propagations
        assert first > 0
        shard = tree.shard_for_tid(1)
        shard.attribute(shard.kernels[0], M.METRIC_GPU_TIME, 1.0)
        tree.root.inclusive.sum(M.METRIC_GPU_TIME)  # view 2 (view 1 retired)
        assert tree.propagations >= first * 2

    def test_overhead_probes_do_not_materialize_the_merged_view(self):
        tree = _build_sharded([(1, "conv", "k0", 1.0), (2, "norm", "k1", 2.0)])
        assert tree.stored_node_count() > 0
        assert tree.stored_size_bytes() > 0
        assert tree.merges == 0
        # The shard-summed count exceeds the merged count only by the
        # per-shard roots that union into one.
        assert tree.stored_node_count() == tree.node_count() + tree.shard_count() - 1

    def test_degenerate_single_shard_api(self):
        tree = ShardedCallingContextTree("degenerate")
        node = tree.insert(_path(1, "conv", "k0"))
        tree.attribute(node, M.METRIC_GPU_TIME, 0.5)
        tree.attribute_many(node, {M.METRIC_KERNEL_COUNT: 1.0})
        assert tree.shard_count() == 1
        assert tree.root.inclusive.sum(M.METRIC_GPU_TIME) == pytest.approx(0.5)
        assert tree.root.inclusive.sum(M.METRIC_KERNEL_COUNT) == 1.0
        single = _build_single([(1, "conv", "k0", 0.5)])
        assert tree.node_count() == single.node_count()


class TestShardedPersistence:
    def _sharded(self):
        return _build_sharded([
            (1, "conv", "k0", 1.5), (2, "norm", "k1", 0.5), (3, "linear", "k0", 2.0),
        ])

    def test_columnar_roundtrip_preserves_shards_and_provenance(self, tmp_path):
        tree = self._sharded()
        database = ProfileDatabase(tree)
        path = database.save(str(tmp_path / "sharded.json"),
                             format=ProfileDatabase.FORMAT_COLUMNAR)
        restored = ProfileDatabase.load(path)
        assert isinstance(restored.tree, ShardedCallingContextTree)
        assert restored.tree.shard_count() == 3
        names = {entry["thread_name"] for entry in restored.tree.shard_provenance()}
        assert names == {"main", "backward-0", "worker-0"}
        assert restored.total_gpu_time() == pytest.approx(database.total_gpu_time(),
                                                          rel=1e-9)
        assert restored.top_kernels(3) == database.top_kernels(3)
        assert restored.node_count() == database.node_count()

    def test_json_format_flattens_to_merged_view(self, tmp_path):
        tree = self._sharded()
        database = ProfileDatabase(tree)
        path = database.save(str(tmp_path / "flat.json"))
        restored = ProfileDatabase.load(path)
        assert isinstance(restored.tree, CallingContextTree)
        assert restored.node_count() == database.node_count()
        assert restored.total_gpu_time() == pytest.approx(database.total_gpu_time(),
                                                          rel=1e-9)


def _run_training(engine, profiler, iterations=2):
    with engine, profiler.profile():
        model = modules.Sequential(modules.Conv2d(3, 8), modules.ReLU(), name="net")
        head = modules.Linear(8, 4, name="head")
        loss_fn = modules.CrossEntropyLoss()
        optimizer = modules.SGD(model.parameters() + head.parameters())
        for _ in range(iterations):
            x = tensor((4, 3, 32, 32))
            y = tensor((4,), dtype="int64")
            features = model(x)
            pooled = F.avg_pool2d(features, kernel_size=features.shape[-1])
            flat = F.reshape(pooled, (pooled.shape[0], pooled.shape[1]))
            loss = loss_fn(head(flat), y)
            engine.backward(loss)
            optimizer.step()
            profiler.mark_iteration()
        engine.synchronize()
    return profiler.database


class TestShardedProfiling:
    def test_profiler_shards_per_thread(self):
        engine = EagerEngine("a100")
        profiler = DeepContextProfiler(engine, ProfilerConfig(program_name="sharded"))
        database = _run_training(engine, profiler)
        tree = database.tree
        assert isinstance(tree, ShardedCallingContextTree)
        # Main thread plus the dedicated backward thread, at minimum.
        assert tree.shard_count() >= 2
        kinds = {entry["thread_kind"] for entry in tree.shard_provenance()}
        assert THREAD_BACKWARD in kinds
        assert database.total_kernel_launches() == engine.kernel_launches
        assert database.total_gpu_time() > 0

    def test_sharded_equals_unsharded_end_to_end(self):
        sharded_engine = EagerEngine("a100")
        sharded = DeepContextProfiler(
            sharded_engine, ProfilerConfig(program_name="eq", sharded_cct=True))
        sharded_db = _run_training(sharded_engine, sharded)

        plain_engine = EagerEngine("a100")
        plain = DeepContextProfiler(
            plain_engine, ProfilerConfig(program_name="eq", sharded_cct=False))
        plain_db = _run_training(plain_engine, plain)

        assert isinstance(plain_db.tree, CallingContextTree)
        assert sharded_db.node_count() == plain_db.node_count()
        assert sharded_db.total_gpu_time() == pytest.approx(plain_db.total_gpu_time(),
                                                            rel=1e-9)
        assert sharded_db.total_cpu_time() == pytest.approx(plain_db.total_cpu_time(),
                                                            rel=1e-9)
        assert sharded_db.total_kernel_launches() == plain_db.total_kernel_launches()
        sharded_top = sharded_db.top_kernels(5)
        plain_top = plain_db.top_kernels(5)
        assert [row["kernel"] for row in sharded_top] == \
            [row["kernel"] for row in plain_top]
        for sharded_row, plain_row in zip(sharded_top, plain_top):
            assert sharded_row["gpu_time"] == pytest.approx(plain_row["gpu_time"],
                                                            rel=1e-9)


class TestZeroRowRegressions:
    def test_aggregate_by_name_keeps_zero_duration_kernels(self):
        tree = CallingContextTree("zero")
        node = tree.insert(_path(1, "conv", "instant_kernel"))
        tree.attribute_many(node, {M.METRIC_GPU_TIME: 0.0, M.METRIC_KERNEL_COUNT: 1.0})
        by_name = tree.aggregate_by_name(kind=FrameKind.GPU_KERNEL,
                                         metric=M.METRIC_GPU_TIME)
        assert "instant_kernel" in by_name
        assert by_name["instant_kernel"] == 0.0
        # Metrics that were never observed still produce no row.
        assert tree.aggregate_by_name(kind=FrameKind.GPU_KERNEL,
                                      metric=M.METRIC_MEMCPY_BYTES) == {}

    def test_metric_set_as_dict_skips_zombie_zero_aggregates(self):
        stale = MetricSet()
        stale.add(M.METRIC_GPU_TIME, 1.0)
        stale.add(M.METRIC_CPU_TIME, 2.0)
        fresh = MetricSet()
        fresh.add(M.METRIC_CPU_TIME, 3.0)
        # reset_to keeps the gpu_time aggregate object alive but zeroed...
        stale.reset_to(fresh)
        assert stale.get(M.METRIC_GPU_TIME).count == 0
        # ...and serialization must not leak the zombie.
        encoded = stale.as_dict()
        assert M.METRIC_GPU_TIME not in encoded
        assert encoded[M.METRIC_CPU_TIME]["sum"] == pytest.approx(3.0)

    def test_tree_roundtrip_drops_count_zero_inclusive_entries(self):
        tree = CallingContextTree("legacy")
        node = tree.insert(_path(1, "conv", "k0"))
        tree.attribute(node, M.METRIC_GPU_TIME, 1.0)
        payload = tree.to_dict()
        # A legacy file with a zombie count-0 aggregate in the root's
        # inclusive payload (written before as_dict skipped them).
        payload["root"]["inclusive"]["stale_metric"] = {
            "count": 0.0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0, "std": 0.0,
        }
        restored = CallingContextTree.from_dict(payload)
        reencoded = restored.to_dict()
        assert "stale_metric" not in reencoded["root"]["inclusive"]
        assert reencoded["root"]["inclusive"][M.METRIC_GPU_TIME]["sum"] == \
            pytest.approx(1.0)


class TestThreadRegistryIndex:
    def test_find_is_dict_backed_and_correct(self):
        registry = ThreadRegistry(MachineClock())
        created = [registry.create(f"worker-{i}") for i in range(5)]
        assert registry.find(registry.main.tid) is registry.main
        for thread in created:
            assert registry.find(thread.tid) is thread
        assert registry.find(10_000) is None
