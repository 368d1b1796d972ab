"""Tests for the lazy inclusive-metric model and the iterative serializers.

The CCT attributes observations into exclusive aggregates only and rolls the
inclusive view up on demand with parallel Welford merges; these tests pin the
invariants that refactor relies on: merge ≡ sequential adds, the generation
counter invalidates the view after post-query mutations, kind indexes match
traversal results, and the columnar (de)serializers and default save
round-trip large and very deep trees.
"""

import json
import random
import sys

import pytest

from repro.core import (CallingContextTree, MetricAggregate, ProfileDatabase,
                        detect_format)
from repro.core import metrics as M
from repro.dlmonitor.callpath import (
    CallPath,
    FrameKind,
    framework_frame,
    gpu_kernel_frame,
    python_frame,
    root_frame,
    thread_frame,
)


def _path(module: str, kernel: str) -> CallPath:
    return CallPath.of([
        root_frame(), thread_frame("main", 1),
        python_frame("train.py", 12, "train_step"),
        framework_frame(module),
        gpu_kernel_frame(kernel),
    ])


def _random_tree(contexts: int, observations: int, seed: int = 7) -> CallingContextTree:
    rng = random.Random(seed)
    tree = CallingContextTree("lazy")
    modules = [f"aten::op_{i}" for i in range(contexts)]
    for _ in range(observations):
        module = rng.choice(modules)
        node = tree.insert(_path(module, f"{module}_kernel"))
        tree.attribute_many(node, {
            M.METRIC_GPU_TIME: rng.uniform(1e-6, 1e-2),
            M.METRIC_KERNEL_COUNT: 1.0,
        })
    return tree


class TestParallelWelfordMerge:
    def test_merge_equals_sequential_within_1e9(self):
        rng = random.Random(13)
        values = [rng.uniform(-100.0, 100.0) for _ in range(500)]
        for split in (1, 137, 250, 499):
            left, right = MetricAggregate(), MetricAggregate()
            for value in values[:split]:
                left.add(value)
            for value in values[split:]:
                right.add(value)
            left.merge(right)

            sequential = MetricAggregate()
            for value in values:
                sequential.add(value)

            assert left.count == sequential.count
            assert left.sum == pytest.approx(sequential.sum, rel=1e-9, abs=1e-9)
            assert left.min == sequential.min and left.max == sequential.max
            assert left.mean == pytest.approx(sequential.mean, rel=1e-9, abs=1e-9)
            assert left.variance == pytest.approx(sequential.variance, rel=1e-9, abs=1e-9)

    def test_state_roundtrip_is_lossless(self):
        aggregate = MetricAggregate()
        for value in (0.25, 1.5, -3.0, 7.125):
            aggregate.add(value)
        restored = MetricAggregate.from_state(*aggregate.state())
        assert restored.state() == aggregate.state()


class TestLazyInclusiveView:
    def test_inclusive_matches_eager_semantics(self):
        tree = CallingContextTree()
        node = tree.insert(_path("aten::relu", "relu_kernel"))
        tree.attribute(node, M.METRIC_GPU_TIME, 0.25)
        for ancestor in node.ancestors():
            assert ancestor.inclusive.sum(M.METRIC_GPU_TIME) == pytest.approx(0.25)
        assert node.exclusive.sum(M.METRIC_GPU_TIME) == pytest.approx(0.25)
        assert tree.root.exclusive.sum(M.METRIC_GPU_TIME) == 0.0

    def test_view_invalidates_after_post_query_attribution(self):
        tree = CallingContextTree()
        node = tree.insert(_path("aten::conv2d", "conv_kernel"))
        tree.attribute(node, M.METRIC_GPU_TIME, 1.0)
        assert tree.root.inclusive.sum(M.METRIC_GPU_TIME) == pytest.approx(1.0)
        # Mutating an already-queried tree must invalidate the cached view.
        tree.attribute(node, M.METRIC_GPU_TIME, 2.0)
        assert tree.root.inclusive.sum(M.METRIC_GPU_TIME) == pytest.approx(3.0)

    def test_view_invalidates_after_post_query_insert(self):
        tree = CallingContextTree()
        first = tree.insert(_path("aten::conv2d", "conv_kernel"))
        tree.attribute(first, M.METRIC_GPU_TIME, 1.0)
        assert tree.root.inclusive.sum(M.METRIC_GPU_TIME) == pytest.approx(1.0)
        second = tree.insert(_path("aten::relu", "relu_kernel"))
        tree.attribute_many(second, {M.METRIC_GPU_TIME: 0.5, M.METRIC_KERNEL_COUNT: 1.0})
        assert tree.root.inclusive.sum(M.METRIC_GPU_TIME) == pytest.approx(1.5)
        assert tree.root.inclusive.sum(M.METRIC_KERNEL_COUNT) == 1.0

    def test_generation_is_stable_across_pure_queries(self):
        tree = _random_tree(contexts=4, observations=50)
        generation = tree.generation
        tree.root.inclusive.sum(M.METRIC_GPU_TIME)
        tree.node_count()
        tree.approximate_size_bytes()
        _ = tree.kernels, tree.operators, tree.scopes
        assert tree.generation == generation

    def test_attribute_many_equals_repeated_attribute(self):
        batched, sequential = CallingContextTree(), CallingContextTree()
        metrics = {M.METRIC_GPU_TIME: 0.125, M.METRIC_KERNEL_COUNT: 1.0,
                   M.METRIC_BLOCKS: 96.0}
        node_batched = batched.insert(_path("aten::mm", "gemm"))
        node_sequential = sequential.insert(_path("aten::mm", "gemm"))
        batched.attribute_many(node_batched, metrics)
        for name, value in metrics.items():
            sequential.attribute(node_sequential, name, value)
        for name in metrics:
            assert batched.root.inclusive.sum(name) == sequential.root.inclusive.sum(name)
            assert node_batched.exclusive.get(name).state() == \
                node_sequential.exclusive.get(name).state()

    def test_kind_indexes_match_traversal(self):
        tree = _random_tree(contexts=6, observations=80)
        by_traversal = {id(n) for n in tree.nodes() if n.kind == FrameKind.GPU_KERNEL}
        assert {id(n) for n in tree.kernels} == by_traversal
        operators = {id(n) for n in tree.nodes()
                     if n.kind == FrameKind.FRAMEWORK and n.frame.tag != "scope"}
        assert {id(n) for n in tree.operators} == operators
        assert tree.node_count() == sum(1 for _ in tree.nodes())
        assert len(list(tree.bfs())) == tree.node_count()

    def test_bfs_is_level_order(self):
        tree = _random_tree(contexts=5, observations=30)
        depths = [node.depth for node in tree.bfs()]
        assert depths == sorted(depths)
        assert tree.max_depth() == max(depths)


class TestIncrementalMaterialization:
    def test_incremental_matches_full_rebuild(self):
        rng = random.Random(23)
        incremental = _random_tree(contexts=30, observations=200, seed=5)
        mirror = _random_tree(contexts=30, observations=200, seed=5)
        incremental.root.inclusive.sum(M.METRIC_GPU_TIME)  # prime the view
        for _round_index in range(12):
            module = f"aten::op_{rng.randrange(30)}"
            metrics = {M.METRIC_GPU_TIME: rng.uniform(1e-6, 1e-2),
                       M.METRIC_KERNEL_COUNT: 1.0}
            for tree in (incremental, mirror):
                tree.attribute_many(tree.insert(_path(module, f"{module}_kernel")),
                                    metrics)
            # Query the incremental tree every round (interleaved rebuilds);
            # the mirror materializes once at the end, from scratch.
            incremental.root.inclusive.sum(M.METRIC_GPU_TIME)
        for ours, theirs in zip(incremental.all_nodes(), mirror.all_nodes()):
            assert ours.frame.identity() == theirs.frame.identity()
            for name, aggregate in theirs.inclusive.items():
                mine = ours.inclusive.get(name)
                assert mine.count == aggregate.count
                assert mine.total == pytest.approx(aggregate.total, rel=1e-9,
                                                   abs=1e-12)

    def test_structure_only_changes_keep_view_valid(self):
        tree = _random_tree(contexts=10, observations=50)
        total = tree.root.inclusive.sum(M.METRIC_GPU_TIME)
        tree.insert(_path("aten::fresh", "fresh_kernel"))  # no attribution
        assert tree.root.inclusive.sum(M.METRIC_GPU_TIME) == total
        # The new node's (empty) inclusive is still correct and refreshable.
        fresh = tree.kernels[-1]
        assert fresh.inclusive.sum(M.METRIC_GPU_TIME) == 0.0
        tree.attribute(fresh, M.METRIC_GPU_TIME, 1.0)
        assert tree.root.inclusive.sum(M.METRIC_GPU_TIME) == pytest.approx(total + 1.0)

    def test_large_dirty_fraction_falls_back_to_full_pass(self):
        tree = _random_tree(contexts=6, observations=40)
        tree.root.inclusive.sum(M.METRIC_GPU_TIME)
        for node in tree.kernels:  # dirty most of the tree
            tree.attribute(node, M.METRIC_GPU_TIME, 0.1)
        # A stale view is rebuilt in one full pass however much changed.
        expected = sum(n.exclusive.sum(M.METRIC_GPU_TIME) for n in tree.all_nodes())
        assert tree.root.inclusive.sum(M.METRIC_GPU_TIME) == pytest.approx(expected)


class TestQueryLayerCaching:
    def test_aggregate_by_name_memoized_behind_generation(self):
        tree = _random_tree(contexts=8, observations=100)
        rows = tree.name_rows(M.METRIC_GPU_TIME)
        first = tree.aggregate_by_name(kind=FrameKind.GPU_KERNEL,
                                       metric=M.METRIC_GPU_TIME)
        tree.aggregate_by_name(metric=M.METRIC_GPU_TIME)
        # One rows walk per metric serves every kind between mutations.
        assert tree.name_rows(M.METRIC_GPU_TIME) is rows
        again = tree.aggregate_by_name(kind=FrameKind.GPU_KERNEL,
                                       metric=M.METRIC_GPU_TIME)
        assert again == first and again is not first
        # Callers get fresh dicts: mutating a result must not poison the memo.
        again["poison"] = 1.0
        assert "poison" not in tree.aggregate_by_name(kind=FrameKind.GPU_KERNEL,
                                                      metric=M.METRIC_GPU_TIME)
        assert tree.name_rows(M.METRIC_GPU_TIME) is rows
        # A mutation bumps the generation: the next query walks again.
        tree.attribute(tree.kernels[0], M.METRIC_GPU_TIME, 1.0)
        assert tree.name_rows(M.METRIC_GPU_TIME) is not rows

    def test_aggregate_cache_invalidated_by_attribution(self):
        tree = _random_tree(contexts=4, observations=30)
        kernel = tree.kernels[0]
        before = tree.aggregate_by_name(kind=FrameKind.GPU_KERNEL,
                                        metric=M.METRIC_GPU_TIME)
        tree.attribute(kernel, M.METRIC_GPU_TIME, 123.0)
        after = tree.aggregate_by_name(kind=FrameKind.GPU_KERNEL,
                                       metric=M.METRIC_GPU_TIME)
        assert after[kernel.name] == pytest.approx(before[kernel.name] + 123.0)

    def test_top_kernels_memoized_behind_generation(self, tmp_path):
        tree = _random_tree(contexts=6, observations=80)
        database = ProfileDatabase(tree)
        first = database.top_kernels(3)
        assert database.top_kernels(3) == first
        # Different k → recompute; same k after mutation → recompute.
        assert len(database.top_kernels(1)) == 1
        kernel = tree.kernels[0]
        tree.attribute(kernel, M.METRIC_GPU_TIME, 999.0)
        assert database.top_kernels(3)[0]["kernel"] == kernel.name

    def test_total_metric_matches_inclusive_root(self):
        tree = _random_tree(contexts=5, observations=60)
        assert tree.total_metric(M.METRIC_GPU_TIME) == pytest.approx(
            tree.root.inclusive.sum(M.METRIC_GPU_TIME), rel=1e-12)
        tree.attribute(tree.kernels[0], M.METRIC_GPU_TIME, 2.5)
        assert tree.total_metric(M.METRIC_GPU_TIME) == pytest.approx(
            tree.root.inclusive.sum(M.METRIC_GPU_TIME), rel=1e-12)


class TestIterativeSerialization:
    def test_roundtrip_5k_node_tree_identical(self):
        tree = CallingContextTree("big")
        for index in range(2500):
            node = tree.insert(_path(f"aten::op_{index}", f"kernel_{index}"))
            tree.attribute_many(node, {M.METRIC_GPU_TIME: 1e-5 * (index + 1),
                                       M.METRIC_KERNEL_COUNT: 1.0})
        assert tree.node_count() >= 5000
        encoded = tree.to_columnar()
        restored = CallingContextTree.from_columnar(encoded)
        assert restored.node_count() == tree.node_count()
        for original, copy in zip(tree.all_nodes(), restored.all_nodes()):
            assert copy.frame.identity() == original.frame.identity()
            assert copy.depth == original.depth
            for name, aggregate in original.exclusive.items():
                assert copy.exclusive.get(name).state() == aggregate.state()
        # Round-tripping the restored tree must reproduce the encoding exactly
        # (same registry order, same parents, same aggregate states).
        assert restored.to_columnar() == encoded

    def test_deep_tree_exceeding_recursion_limit(self):
        depth = sys.getrecursionlimit() + 500
        frames = [root_frame("deep")]
        frames += [python_frame("deep.py", line, f"f{line}") for line in range(depth)]
        tree = CallingContextTree("deep")
        leaf = tree.insert(CallPath.of(frames))
        tree.attribute(leaf, M.METRIC_CPU_TIME, 1.0)
        assert tree.max_depth() == depth
        restored = CallingContextTree.from_columnar(tree.to_columnar())
        assert restored.node_count() == tree.node_count()
        for original, copy in zip(tree.all_nodes(), restored.all_nodes()):
            assert copy.frame.identity() == original.frame.identity()
            assert copy.depth == original.depth
            assert copy.inclusive.sum(M.METRIC_CPU_TIME) == \
                original.inclusive.sum(M.METRIC_CPU_TIME)
        assert restored.root.inclusive.sum(M.METRIC_CPU_TIME) == pytest.approx(1.0)

    def test_roundtrip_preserves_registry_order_for_interleaved_creation(self):
        # Nodes created in an order that differs from pre-order: x, op2 first,
        # then y/op, then op under x.  Index-backed queries (all_nodes,
        # operators, ...) must enumerate identically before and after a
        # columnar round trip (tests/test_legacy_nested_json.py covers the
        # legacy nested reader).
        tree = CallingContextTree("order")
        tree.insert(CallPath.of([root_frame(), python_frame("a.py", 1, "x"),
                                 framework_frame("op2")]))
        tree.insert(CallPath.of([root_frame(), python_frame("b.py", 2, "y"),
                                 framework_frame("op", backward=True)]))
        tree.insert(CallPath.of([root_frame(), python_frame("a.py", 1, "x"),
                                 framework_frame("op", backward=True)]))
        live_order = [node.frame.identity() for node in tree.all_nodes()]
        from_cols = CallingContextTree.from_columnar(tree.to_columnar())
        assert [n.frame.identity() for n in from_cols.all_nodes()] == live_order
        assert [n.frame.identity() for n in from_cols.operators] == \
            [n.frame.identity() for n in tree.operators]

    def test_columnar_roundtrip_preserves_metrics(self):
        tree = _random_tree(contexts=8, observations=200)
        payload = json.loads(json.dumps(tree.to_columnar()))  # exercise JSON safety
        restored = CallingContextTree.from_columnar(payload)
        assert restored.node_count() == tree.node_count()
        assert restored.insertions == tree.insertions
        for original, copy in zip(tree.all_nodes(), restored.all_nodes()):
            assert original.frame.identity() == copy.frame.identity()
            assert original.depth == copy.depth
            for name, aggregate in original.exclusive.items():
                assert copy.exclusive.get(name).state() == aggregate.state()
        assert restored.root.inclusive.sum(M.METRIC_GPU_TIME) == pytest.approx(
            tree.root.inclusive.sum(M.METRIC_GPU_TIME), rel=1e-9)

    def test_columnar_database_save_load(self, tmp_path):
        tree = _random_tree(contexts=5, observations=120)
        database = ProfileDatabase(tree)
        binary_path = database.save(str(tmp_path / "profile.cctb"))
        columnar_path = database.save(str(tmp_path / "profile.columnar.json"),
                                      format=ProfileDatabase.FORMAT_COLUMNAR)
        from_binary = ProfileDatabase.load(binary_path)
        from_columnar = ProfileDatabase.load(columnar_path)
        with from_binary.tree:
            assert from_binary.node_count() == from_columnar.node_count() == \
                database.node_count()
            assert from_columnar.total_gpu_time() == pytest.approx(
                database.total_gpu_time(), rel=1e-9)
            assert from_columnar.top_kernels(5) == from_binary.top_kernels(5)

    def test_default_save_survives_json_recursion_limit(self, tmp_path):
        depth = sys.getrecursionlimit() + 500
        frames = [root_frame("deep")]
        frames += [python_frame("deep.py", line, f"f{line}") for line in range(depth)]
        tree = CallingContextTree("deep")
        tree.attribute(tree.insert(CallPath.of(frames)), M.METRIC_CPU_TIME, 2.0)
        database = ProfileDatabase(tree)
        for format_name, expected in ((None, ProfileDatabase.FORMAT_BINARY),
                                      (ProfileDatabase.FORMAT_COLUMNAR,
                                       ProfileDatabase.FORMAT_COLUMNAR)):
            path = database.save(str(tmp_path / f"deep.{expected}"),
                                 format=format_name)
            assert detect_format(path) == expected
            restored = ProfileDatabase.load(path)
            assert restored.node_count() == tree.node_count()
            assert restored.total_cpu_time() == pytest.approx(2.0)
            if expected == ProfileDatabase.FORMAT_BINARY:
                restored.tree.close()
