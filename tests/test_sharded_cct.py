"""Tests for per-thread CCT shards merged at query time.

The sharded tree's contract is equivalence: for *any* interleaving of
per-thread observations, the merged view's structure, exclusive aggregates and
lazily materialized inclusive view must match a single shared tree fed the
same observations, to floating-point accuracy.  These tests pin that property
(with hypothesis), the shard lifecycle (the union view cached behind
generation counters), the multi-shard columnar persistence with provenance,
and the zero-row regressions fixed alongside (``aggregate_by_name`` count
gating, zombie count-0 entries in legacy files).
"""

import copy
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.analyzer import PerformanceAnalyzer
from repro.core import (
    CallingContextTree,
    DeepContextProfiler,
    ProfileDatabase,
    ProfilerConfig,
    ShardedCallingContextTree,
)
from repro.core import metrics as M
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
from repro.fleet import merge_population
from repro.framework import EagerEngine, modules, tensor
from repro.framework import functional as F
from repro.framework.dataloader import DataLoader
from repro.framework.threads import THREAD_BACKWARD, ThreadRegistry
from repro.workloads.models.unet import data_selection

THREAD_NAMES = {1: "main", 2: "backward-0", 3: "worker-0"}
LEGACY_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "legacy-nested-v0.json")


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


def _exact_states(tree: CallingContextTree):
    """Every node in registry order: its path and exact exclusive and
    inclusive Welford states."""
    return [(tuple(n.frame.identity() for n in node.path_from_root()),
             {name: aggregate.state() for name, aggregate in node.exclusive.items()},
             {name: aggregate.state() for name, aggregate in node.inclusive.items()})
            for node in tree.all_nodes()]


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
    def test_merged_view_cached_behind_generation(self):
        tree = _build_sharded([(1, "conv", "k0", 1.0), (2, "norm", "k1", 2.0)])
        merged = tree.merged()
        assert tree.merged() is merged
        # Pure reads do not invalidate the cache...
        tree.node_count(), tree.kernels, tree.aggregate_by_name()
        assert tree.merged() is merged
        # ...but mutating any shard does.
        shard = tree.shard_for_tid(1)
        shard.attribute(shard.kernels[0], M.METRIC_GPU_TIME, 4.0)
        assert tree.root.inclusive.sum(M.METRIC_GPU_TIME) == pytest.approx(7.0)
        assert tree.merged() is not merged

    def test_mutating_a_merged_view_node_is_rejected(self):
        # With several shards the union view owns one node, its root; every
        # other node of the read API is a shard's own node, so attribution
        # into its tree lands in that shard.
        tree = _build_sharded([(1, "conv", "k0", 1.0), (2, "norm", "k1", 2.0)])
        kernel = tree.kernels[0]
        assert kernel.tree is tree.shard_for_tid(1)
        kernel.tree.attribute(kernel, M.METRIC_GPU_TIME, 5.0)
        kernel.tree.attribute_many(kernel, {M.METRIC_GPU_TIME: 2.0})
        assert tree.shard_for_tid(1).kernels[0].exclusive.sum(
            M.METRIC_GPU_TIME) == pytest.approx(8.0)
        assert tree.root.inclusive.sum(M.METRIC_GPU_TIME) == pytest.approx(10.0)
        # The union's root is the view's own node: an observation there
        # would vanish with the view, so its tree rejects it.
        root = tree.root
        assert root.tree is tree.merged()
        with pytest.raises(ValueError, match="read-only view"):
            root.tree.attribute(root, M.METRIC_GPU_TIME, 5.0)
        with pytest.raises(ValueError, match="read-only view"):
            root.tree.attribute_many(root, {M.METRIC_GPU_TIME: 5.0})
        assert tree.root.inclusive.sum(M.METRIC_GPU_TIME) == pytest.approx(10.0)
        # A one-shard tree is its own union: its read API hands out the
        # shard's nodes, so attribution through them lands in the shard.
        single = _build_sharded([(1, "conv", "k0", 1.0)])
        kernel = single.kernels[0]
        assert kernel.tree is single.shard_for_tid(1)
        kernel.tree.attribute(kernel, M.METRIC_GPU_TIME, 5.0)
        kernel.tree.attribute_many(kernel, {M.METRIC_GPU_TIME: 2.0})
        assert single.shard_for_tid(1).kernels[0].exclusive.sum(
            M.METRIC_GPU_TIME) == pytest.approx(8.0)
        assert single.root.inclusive.sum(M.METRIC_GPU_TIME) == pytest.approx(8.0)
        assert single.merged() is single.shard_for_tid(1)

    def test_mutating_a_stale_merged_view_node_is_rejected(self):
        # Nodes fetched before a rebuild are still shard nodes, and
        # attribution through them is kept; the discarded view's root is not.
        tree = _build_sharded([(1, "conv", "k0", 1.0), (2, "norm", "k1", 2.0)])
        early_node = tree.kernels[0]
        stale_root = tree.root
        shard = tree.shard_for_tid(1)
        shard.insert(_path(1, "conv", "k9"))  # shard change → rebuild
        assert tree.root is not stale_root  # view was rebuilt
        assert tree.kernels[0] is early_node
        assert early_node.tree is shard
        early_node.tree.attribute(early_node, M.METRIC_GPU_TIME, 5.0)
        assert tree.root.inclusive.sum(M.METRIC_GPU_TIME) == pytest.approx(8.0)
        with pytest.raises(ValueError, match="read-only view"):
            stale_root.tree.attribute(stale_root, M.METRIC_GPU_TIME, 5.0)
        assert tree.root.inclusive.sum(M.METRIC_GPU_TIME) == pytest.approx(8.0)
        # One shard: a node fetched before a structural change is still the
        # shard's own node, and attribution through it is kept.
        single = _build_sharded([(1, "conv", "k0", 1.0)])
        early_node = single.kernels[0]
        single.shard_for_tid(1).insert(_path(1, "conv", "k9"))
        assert single.kernels[0] is early_node
        assert early_node.tree is single.shard_for_tid(1)
        early_node.tree.attribute(early_node, M.METRIC_GPU_TIME, 5.0)
        assert single.root.inclusive.sum(M.METRIC_GPU_TIME) == pytest.approx(6.0)

    def test_union_view_refuses_every_mutator(self):
        tree = _build_sharded([(1, "conv", "k0", 1.0), (2, "norm", "k1", 2.0)])
        view = tree.merged()
        kernel = view.kernels[0]
        donor = _build_single([(3, "linear", "k0", 1.0)])
        mutations = [
            lambda: view.insert(_path(1, "conv", "k9")),
            lambda: view.insert_below(kernel, [gpu_kernel_frame("k9")]),
            lambda: view.insert_and_attribute(_path(1, "conv", "k9"),
                                              {M.METRIC_GPU_TIME: 1.0}),
            lambda: view.attribute(kernel, M.METRIC_GPU_TIME, 1.0),
            lambda: view.attribute_many(kernel, {M.METRIC_GPU_TIME: 1.0}),
            lambda: view.merge_from(donor),
            lambda: view.install_exclusive_column(
                [kernel], M.METRIC_GPU_TIME, [0], [1], [1.0], [1.0], [1.0],
                [1.0], [0.0]),
            # The union root is the view's own node: a child or a value
            # written there would vanish at the next rebuild.
            lambda: view.root.child_for(gpu_kernel_frame("k9")),
            lambda: view.root.exclusive.add(M.METRIC_GPU_TIME, 5.0),
        ]
        for mutate in mutations:
            with pytest.raises(ValueError, match="read-only view"):
                mutate()
        assert tree.merged() is view
        assert len(view.root.children) == 2
        assert tree.node_count() == 9
        assert tree.total_metric(M.METRIC_GPU_TIME) == pytest.approx(3.0)
        assert view.root.inclusive.sum(M.METRIC_GPU_TIME) == pytest.approx(3.0)

    def test_metric_only_changes_rebuild_the_view(self):
        # Attribution into already-unioned contexts makes the next query
        # rebuild the union view in one pass; the new values show.
        tree = _build_sharded([(1, "conv", "k0", 1.0), (2, "norm", "k1", 2.0)])
        merged = tree.merged()
        assert tree.merged() is merged
        shard = tree.shard_for_tid(1)
        shard.attribute(shard.kernels[0], M.METRIC_GPU_TIME, 4.0)
        shard.attribute_many(shard.kernels[0], {M.METRIC_KERNEL_COUNT: 1.0})
        rebuilt = tree.merged()
        assert rebuilt is not merged
        kernel = tree.kernels[0]
        assert kernel.exclusive.sum(M.METRIC_GPU_TIME) == pytest.approx(5.0)
        assert kernel.exclusive.sum(M.METRIC_KERNEL_COUNT) == 2.0
        assert tree.root.inclusive.sum(M.METRIC_GPU_TIME) == pytest.approx(7.0)
        assert tree.root.inclusive.sum(M.METRIC_KERNEL_COUNT) == 3.0
        assert tree.merged() is rebuilt  # queries between mutations reuse it
        # A structural change rebuilds it too.
        shard.insert(_path(1, "conv", "k9"))
        assert tree.merged() is not rebuilt

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
        assert tree.propagations > first
        assert tree.propagations == sum(
            shard.propagations for shard in tree.shards().values())

    def test_overhead_probes_do_not_materialize_the_merged_view(self):
        tree = _build_sharded([(1, "conv", "k0", 1.0), (2, "norm", "k1", 2.0)])
        assert tree.stored_node_count() > 0
        assert tree.approximate_size_bytes() > 0
        assert tree.propagations == 0
        # The shard-summed count exceeds the union's count only by the
        # per-shard roots that the union replaces with one.
        assert tree.stored_node_count() == tree.node_count() + tree.shard_count() - 1


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

    @pytest.mark.parametrize("format_name", ["cct-binary-v1", "columnar-json"])
    def test_union_view_saves_as_one_tree(self, tmp_path, format_name):
        # The view's top-level nodes hang below their shards' roots; the
        # flat encodings must still give them the root as parent.
        view = self._sharded().merged()
        path = ProfileDatabase(view).save(str(tmp_path / "union"),
                                          format=format_name)
        restored = ProfileDatabase.load(path).tree
        if not isinstance(restored, CallingContextTree):
            restored = restored.hydrate()
        assert _exact_states(restored) == _exact_states(view)


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

    def test_same_named_threads_are_unioned_by_copying(self):
        # Two data loaders each start a "dataloader-worker-0" thread.  A
        # thread frame's identity is its name, so the two threads' shards
        # overlap, and their union is a read-only copy, as merge_from builds.
        engine = EagerEngine("a100")
        profiler = DeepContextProfiler(engine, ProfilerConfig(program_name="loaders"))
        with engine, profiler.profile():
            for _ in range(2):
                DataLoader(lambda i: [], num_batches=1, engine=engine, num_workers=2,
                           initial_load_cpu_seconds=2.0).initial_load(data_selection)
        database = profiler.database
        tree = database.tree
        names = [entry["thread_name"] for entry in tree.shard_provenance()]
        assert len(names) == 4 and len(set(names)) == 2
        reference = CallingContextTree("loaders")
        for shard in tree.shards().values():
            reference.merge_from(shard)
        view = tree.merged()
        assert _exact_states(view) == _exact_states(reference)
        assert PerformanceAnalyzer().analyze(database) is not None
        leaf = view.all_nodes()[-1]
        with pytest.raises(ValueError, match="read-only view"):
            view.attribute(leaf, M.METRIC_CPU_TIME, 1.0)

    def test_union_view_is_a_merge_from_donor(self):
        # A union view's top-level nodes hang below their shards' roots;
        # merge_from and merge_population must still graft them at the root.
        engine = EagerEngine("a100")
        database = _run_training(engine, DeepContextProfiler(
            engine, ProfilerConfig(program_name="donor")))
        shards = database.tree.shards()
        assert len(shards) == 2
        one_by_one = CallingContextTree("donor")
        for shard in shards.values():
            one_by_one.merge_from(shard)
        from_view = CallingContextTree("donor")
        from_view.merge_from(database.tree.merged())
        expected = _exact_states(one_by_one)
        assert len(expected) == one_by_one.node_count() > 2
        assert _exact_states(from_view) == expected
        assert _exact_states(merge_population([database], "donor")) == expected


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

    def test_tree_roundtrip_drops_count_zero_inclusive_entries(self):
        with open(LEGACY_PATH, encoding="utf-8") as handle:
            payload = json.load(handle)
        # A legacy file with a zombie count-0 aggregate in the root's
        # inclusive payload.  The reader derives the inclusive view from the
        # exclusive data, so the entry never reaches the loaded tree.
        zombie = copy.deepcopy(payload)
        zombie["tree"]["root"]["inclusive"]["stale_metric"] = {
            "count": 0.0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0, "std": 0.0,
        }
        restored = ProfileDatabase.from_dict(zombie).tree
        assert "stale_metric" not in restored.root.inclusive
        assert restored.root.inclusive.sum(M.METRIC_GPU_TIME) == \
            payload["tree"]["root"]["inclusive"][M.METRIC_GPU_TIME]["sum"] > 0


class TestThreadRegistryIndex:
    def test_find_is_dict_backed_and_correct(self):
        registry = ThreadRegistry(MachineClock())
        created = [registry.create(f"worker-{i}") for i in range(5)]
        assert registry.find(registry.main.tid) is registry.main
        for thread in created:
            assert registry.find(thread.tid) is thread
        assert registry.find(10_000) is None
