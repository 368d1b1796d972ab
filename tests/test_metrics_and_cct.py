"""Tests for metric aggregation and the calling context tree."""

import statistics
import struct

import pytest
from hypothesis import given, strategies as st

from repro.core import CallingContextTree, MetricAggregate, MetricSet
from repro.core import metrics as M
from repro.dlmonitor.callpath import (
    CallPath,
    FrameKind,
    framework_frame,
    gpu_kernel_frame,
    native_frame,
    python_frame,
    root_frame,
    thread_frame,
)

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)


class TestMetricAggregate:
    def test_empty_aggregate(self):
        aggregate = MetricAggregate()
        assert aggregate.count == 0 and aggregate.sum == 0.0
        assert aggregate.mean == 0.0 and aggregate.std == 0.0
        assert aggregate.min == 0.0 and aggregate.max == 0.0

    def test_single_value(self):
        aggregate = MetricAggregate()
        aggregate.add(3.5)
        assert aggregate.count == 1 and aggregate.sum == 3.5
        assert aggregate.min == aggregate.max == aggregate.mean == 3.5
        assert aggregate.std == 0.0

    @given(st.lists(finite_floats, min_size=1, max_size=200))
    def test_matches_statistics_module(self, values):
        aggregate = MetricAggregate()
        for value in values:
            aggregate.add(value)
        assert aggregate.count == len(values)
        assert aggregate.sum == pytest.approx(sum(values), rel=1e-9, abs=1e-6)
        assert aggregate.mean == pytest.approx(statistics.fmean(values), rel=1e-9, abs=1e-6)
        assert aggregate.min == min(values) and aggregate.max == max(values)
        expected_std = statistics.pstdev(values)
        assert aggregate.std == pytest.approx(expected_std, rel=1e-6, abs=1e-6)

    @given(st.lists(finite_floats, min_size=1, max_size=50),
           st.lists(finite_floats, min_size=1, max_size=50))
    def test_merge_equals_sequential(self, first, second):
        merged = MetricAggregate()
        for value in first:
            merged.add(value)
        other = MetricAggregate()
        for value in second:
            other.add(value)
        merged.merge(other)

        sequential = MetricAggregate()
        for value in first + second:
            sequential.add(value)
        assert merged.count == sequential.count
        assert merged.mean == pytest.approx(sequential.mean, rel=1e-9, abs=1e-6)
        assert merged.std == pytest.approx(sequential.std, rel=1e-6, abs=1e-6)

    def test_merge_into_empty(self):
        empty, filled = MetricAggregate(), MetricAggregate()
        filled.add(2.0)
        filled.add(4.0)
        empty.merge(filled)
        assert empty.count == 2 and empty.mean == 3.0

    def test_dict_roundtrip(self):
        aggregate = MetricAggregate()
        for value in (1.0, 2.0, 6.0):
            aggregate.add(value)
        # One aggregate of the legacy nested encoding, which stored std.
        std = 2.160246899469287
        restored = MetricAggregate.from_dict(
            {"count": 3.0, "sum": 9.0, "min": 1.0, "max": 6.0, "mean": 3.0,
             "std": std})
        assert (restored.count, restored.sum, restored.min, restored.max,
                restored.mean) == (3, 9.0, 1.0, 6.0, 3.0)
        assert restored.state()[5] == std * std * 3
        assert restored.mean == pytest.approx(aggregate.mean)
        assert restored.std == pytest.approx(aggregate.std)


class TestMetricSet:
    def test_add_and_query(self):
        metric_set = MetricSet()
        metric_set.add("gpu_time", 0.5)
        metric_set.add("gpu_time", 1.5)
        assert metric_set.sum("gpu_time") == 2.0
        assert metric_set.count("gpu_time") == 2
        assert "gpu_time" in metric_set and "cpu_time" not in metric_set
        assert metric_set.sum("missing") == 0.0

    @given(st.lists(st.dictionaries(
        st.sampled_from(["gpu_time", "blocks", "registers"]),
        st.one_of(st.floats(allow_nan=False), st.integers(-2**53, 2**53)),
        max_size=3), max_size=30))
    def test_add_many_folds_bit_for_bit_as_add(self, observations):
        """``add_many`` inlines ``MetricAggregate.add``'s arithmetic: every
        aggregate's state is bit-for-bit the one-at-a-time fold's."""
        many, one_at_a_time = MetricSet(), {}
        for values in observations:
            many.add_many(values)
            for name, value in values.items():
                one_at_a_time.setdefault(name, MetricAggregate()).add(value)
        assert list(many.names()) == list(one_at_a_time)
        for name, aggregate in one_at_a_time.items():
            assert (struct.pack("<q5d", *many.get(name).state())
                    == struct.pack("<q5d", *aggregate.state()))

    def test_merge(self):
        a, b = MetricSet(), MetricSet()
        a.add("x", 1.0)
        b.add("x", 2.0)
        b.add("y", 5.0)
        a.merge(b)
        assert a.sum("x") == 3.0 and a.sum("y") == 5.0

    def test_size_estimate_grows_with_metrics(self):
        metric_set = MetricSet()
        empty = metric_set.approximate_size_bytes()
        metric_set.add("a", 1.0)
        metric_set.add("b", 1.0)
        assert metric_set.approximate_size_bytes() > empty


def _make_path(module: str, kernel: str) -> CallPath:
    return CallPath.of([
        root_frame(), thread_frame("main", 1),
        python_frame("train.py", 12, "train_step"),
        framework_frame(module),
        native_frame(f"at::native::{module}", "libtorch_cuda.so", hash(module) % 4096),
        gpu_kernel_frame(kernel),
    ])


class TestCallingContextTree:
    def test_insert_collapses_identical_paths(self):
        tree = CallingContextTree()
        first = tree.insert(_make_path("aten::conv2d", "conv_kernel"))
        second = tree.insert(_make_path("aten::conv2d", "conv_kernel"))
        assert first is second
        assert tree.insertions == 2

    def test_different_leaves_share_prefix(self):
        tree = CallingContextTree()
        a = tree.insert(_make_path("aten::conv2d", "conv_kernel"))
        b = tree.insert(_make_path("aten::conv2d", "bias_kernel"))
        assert a is not b
        assert a.parent is b.parent

    def test_attribute_propagates_to_root(self):
        tree = CallingContextTree()
        node = tree.insert(_make_path("aten::relu", "relu_kernel"))
        tree.attribute(node, M.METRIC_GPU_TIME, 0.25)
        for ancestor in node.path_from_root():
            assert ancestor.inclusive.sum(M.METRIC_GPU_TIME) == pytest.approx(0.25)
        assert node.exclusive.sum(M.METRIC_GPU_TIME) == pytest.approx(0.25)
        assert tree.root.exclusive.sum(M.METRIC_GPU_TIME) == 0.0

    def test_traversals_and_selectors(self):
        tree = CallingContextTree()
        tree.insert_and_attribute(_make_path("aten::conv2d", "conv_kernel"), {"gpu_time": 1.0})
        tree.insert_and_attribute(_make_path("aten::relu", "relu_kernel"), {"gpu_time": 0.5})
        assert tree.node_count() == len(list(tree.nodes()))
        assert len(list(tree.bfs())) == tree.node_count()
        assert {node.name for node in tree.kernels} == {"conv_kernel", "relu_kernel"}
        assert {node.name for node in tree.operators} == {"aten::conv2d", "aten::relu"}
        assert len(list(tree.leaves())) == 2
        assert tree.max_depth() >= 5

    def test_aggregate_by_name_merges_contexts(self):
        tree = CallingContextTree()
        for module in ("aten::conv2d", "aten::linear"):
            node = tree.insert(_make_path(module, "shared_kernel"))
            tree.attribute(node, M.METRIC_GPU_TIME, 1.0)
        totals = tree.aggregate_by_name(kind=FrameKind.GPU_KERNEL, metric=M.METRIC_GPU_TIME)
        assert totals == {"shared_kernel": pytest.approx(2.0)}

    def test_callpath_roundtrip_from_node(self):
        tree = CallingContextTree()
        node = tree.insert(_make_path("aten::relu", "relu_kernel"))
        path = node.callpath()
        assert path.leaf.name == "relu_kernel"
        assert path.depth == node.depth + 1

    def test_serialization_roundtrip(self):
        tree = CallingContextTree()
        node = tree.insert(_make_path("aten::conv2d", "conv_kernel"))
        tree.attribute(node, M.METRIC_GPU_TIME, 0.125)
        tree.attribute(node, M.METRIC_KERNEL_COUNT, 1.0)
        restored = CallingContextTree.from_columnar(tree.to_columnar())
        assert restored.node_count() == tree.node_count()
        assert restored.root.inclusive.sum(M.METRIC_GPU_TIME) == pytest.approx(0.125)
        restored_kernels = restored.kernels
        assert restored_kernels[0].frame.name == "conv_kernel"

    def test_size_estimate_scales_with_nodes(self):
        small, large = CallingContextTree(), CallingContextTree()
        small.insert(_make_path("aten::relu", "k"))
        for index in range(50):
            large.insert(_make_path(f"aten::op{index}", f"k{index}"))
        assert large.approximate_size_bytes() > small.approximate_size_bytes()

    @given(st.lists(st.tuples(st.sampled_from(["a", "b", "c", "d"]),
                              st.floats(min_value=0.0, max_value=10.0, allow_nan=False)),
                    min_size=1, max_size=100))
    def test_invariant_root_inclusive_equals_sum_of_exclusive(self, observations):
        tree = CallingContextTree()
        for module, value in observations:
            node = tree.insert(_make_path(f"aten::{module}", f"{module}_kernel"))
            tree.attribute(node, M.METRIC_GPU_TIME, value)
        total_exclusive = sum(node.exclusive.sum(M.METRIC_GPU_TIME) for node in tree.nodes())
        assert tree.root.inclusive.sum(M.METRIC_GPU_TIME) == pytest.approx(total_exclusive)
        # Parent inclusive >= child inclusive for every edge (monotonicity).
        for node in tree.nodes():
            for child in node.children.values():
                assert node.inclusive.sum(M.METRIC_GPU_TIME) >= \
                    child.inclusive.sum(M.METRIC_GPU_TIME) - 1e-9
        # Insertions never shrink under collapsing.
        assert tree.node_count() <= 2 + 4 * 4 + len(observations) * 0 + 4 * 4
