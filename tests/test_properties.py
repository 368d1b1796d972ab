"""Property-based tests on cross-cutting invariants (hypothesis).

These complement the per-module tests: whatever call paths and metric values a
profile contains, the CCT, the flame-graph views and the exports must agree on
totals, and aggregation must stay consistent under collapsing.

:class:`TestPerNameReference` checks every per-name rollup path — live
sharded tree, each written format, single-shard reads and fleet queries —
against a naive per-kernel reference computed from the raw observation list.
:class:`TestPerContextReference` checks every calling context the same way:
plain, sharded and one-thread trees, queried while they are still being fed,
against a dict from call path to the raw values observed there.
"""

import math
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (CallingContextTree, ProfileDatabase,
                        ShardedCallingContextTree)
from repro.core import metrics as M
from repro.core.cct import states_by_name
from repro.fleet import ProfileStore
from repro.dlmonitor.callpath import (
    CallPath,
    FrameKind,
    framework_frame,
    gpu_kernel_frame,
    python_frame,
    root_frame,
    thread_frame,
)
from repro.gui import FlameGraphBuilder, flamegraph_to_dict, flamegraph_to_folded

# Strategy: a synthetic profile is a list of (module, kernel, gpu_time) tuples.
profiles = st.lists(
    st.tuples(
        st.sampled_from(["conv", "linear", "norm", "softmax", "index"]),
        st.sampled_from(["k0", "k1", "k2"]),
        st.floats(min_value=1e-6, max_value=1.0, allow_nan=False),
    ),
    min_size=1, max_size=60,
)


def build_tree(observations):
    tree = CallingContextTree("property")
    for module, kernel, gpu_time in observations:
        path = CallPath.of([
            root_frame("property"), thread_frame("main", 1),
            python_frame("train.py", 10, "train_step"),
            framework_frame(f"aten::{module}"),
            gpu_kernel_frame(f"{module}_{kernel}"),
        ])
        node = tree.insert(path)
        tree.attribute(node, M.METRIC_GPU_TIME, gpu_time)
        tree.attribute(node, M.METRIC_KERNEL_COUNT, 1.0)
    return tree


class TestProfileInvariants:
    @settings(max_examples=40, deadline=None)
    @given(profiles)
    def test_top_down_total_equals_tree_total(self, observations):
        tree = build_tree(observations)
        graph = FlameGraphBuilder().top_down(tree)
        assert graph.total == pytest.approx(tree.root.inclusive.sum(M.METRIC_GPU_TIME))
        # Every parent's value is at least the value of each of its children.
        for node in graph.root.walk():
            for child in node.children:
                assert node.value >= child.value - 1e-12

    @settings(max_examples=40, deadline=None)
    @given(profiles)
    def test_bottom_up_preserves_total_and_uniqueness(self, observations):
        tree = build_tree(observations)
        graph = FlameGraphBuilder().bottom_up(tree, kind=FrameKind.GPU_KERNEL)
        assert graph.total == pytest.approx(tree.root.inclusive.sum(M.METRIC_GPU_TIME))
        labels = [child.label for child in graph.root.children]
        assert len(labels) == len(set(labels))
        # Aggregation by name agrees with the tree's own aggregation.
        by_name = tree.aggregate_by_name(kind=FrameKind.GPU_KERNEL, metric=M.METRIC_GPU_TIME)
        for child in graph.root.children:
            assert child.value == pytest.approx(by_name[child.label])

    @settings(max_examples=30, deadline=None)
    @given(profiles)
    def test_folded_export_sums_to_total(self, observations):
        tree = build_tree(observations)
        graph = FlameGraphBuilder().top_down(tree)
        folded = flamegraph_to_folded(graph)
        total = sum(float(line.rsplit(" ", 1)[1]) for line in folded.splitlines() if line)
        assert total == pytest.approx(graph.total, rel=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(profiles)
    def test_serialization_preserves_totals_and_structure(self, observations):
        tree = build_tree(observations)
        restored = CallingContextTree.from_columnar(tree.to_columnar())
        assert restored.node_count() == tree.node_count()
        assert restored.root.inclusive.sum(M.METRIC_GPU_TIME) == pytest.approx(
            tree.root.inclusive.sum(M.METRIC_GPU_TIME))
        assert restored.root.inclusive.sum(M.METRIC_KERNEL_COUNT) == \
            tree.root.inclusive.sum(M.METRIC_KERNEL_COUNT)

    @settings(max_examples=30, deadline=None)
    @given(profiles)
    def test_kernel_count_equals_number_of_observations(self, observations):
        tree = build_tree(observations)
        assert tree.root.inclusive.sum(M.METRIC_KERNEL_COUNT) == len(observations)
        exported = flamegraph_to_dict(FlameGraphBuilder().top_down(tree))
        assert exported["root"]["value"] == pytest.approx(
            tree.root.inclusive.sum(M.METRIC_GPU_TIME))

    @settings(max_examples=20, deadline=None)
    @given(profiles, profiles)
    def test_insertion_order_does_not_change_the_tree(self, first, second):
        combined = first + second
        forward = build_tree(combined)
        backward = build_tree(list(reversed(combined)))
        assert forward.node_count() == backward.node_count()
        assert forward.root.inclusive.sum(M.METRIC_GPU_TIME) == pytest.approx(
            backward.root.inclusive.sum(M.METRIC_GPU_TIME))


# Strategy: (thread, operator, kernel, gpu_time) observations.  Kernel names
# are shared across operators and threads, so one kernel's rows fold many
# contexts and several shards; a zero duration is still an observation.
observations = st.lists(
    st.tuples(
        st.sampled_from([1, 2, 3]),
        st.sampled_from(["conv", "linear", "norm"]),
        st.sampled_from(["gemm", "relu", "reduce"]),
        st.one_of(st.just(0.0),
                  st.floats(min_value=0.0, max_value=1.0, allow_nan=False)),
    ),
    min_size=1, max_size=40,
)

#: How far a path's float statistics may sit from the ``math.fsum``
#: reference: the paths add at most a few dozen values in [0, 1] in node
#: and shard order, and merge variances with Chan's formula.
SUM_TOLERANCE = {"rel": 1e-9, "abs": 1e-12}
VARIANCE_TOLERANCE = {"rel": 1e-6, "abs": 1e-12}


def observed_path(program, tid, operator, kernel):
    return CallPath.of([
        root_frame(program), thread_frame(f"thread-{tid}", tid),
        python_frame("train.py", 10 + tid, "train_step"),
        framework_frame(f"aten::{operator}"),
        gpu_kernel_frame(kernel),
    ])


def build_sharded(observed, program="reference"):
    tree = ShardedCallingContextTree(program)
    for tid, operator, kernel, gpu_time in observed:
        shard = tree.shard_for_tid(tid, thread_name=f"thread-{tid}")
        node = shard.insert(observed_path(program, tid, operator, kernel))
        shard.attribute_many(node, {M.METRIC_GPU_TIME: gpu_time,
                                    M.METRIC_KERNEL_COUNT: 1.0})
    return tree


def reference(observed):
    """``kernel → (count, sum, min, max, mean, variance)`` from the raw
    observations alone (no CCT code involved)."""
    by_kernel = {}
    for _tid, _operator, kernel, gpu_time in observed:
        by_kernel.setdefault(kernel, []).append(gpu_time)
    expected = {}
    for kernel, values in by_kernel.items():
        total = math.fsum(values)
        mean = total / len(values)
        variance = math.fsum((value - mean) ** 2 for value in values) / len(values)
        expected[kernel] = (len(values), total, min(values), max(values),
                            mean, variance)
    return expected


def assert_states_match(states, expected, label):
    """Per-kernel ``(count, sum, min, max, mean, m2)`` against the reference."""
    assert set(states) == set(expected), label
    for kernel, (count, total, minimum, maximum, mean, variance) in expected.items():
        got_count, got_sum, got_min, got_max, got_mean, got_m2 = states[kernel]
        assert (got_count, got_min, got_max) == (count, minimum, maximum), (label, kernel)
        assert got_sum == pytest.approx(total, **SUM_TOLERANCE), (label, kernel)
        assert got_mean == pytest.approx(mean, **SUM_TOLERANCE), (label, kernel)
        assert got_m2 / got_count == pytest.approx(variance, **VARIANCE_TOLERANCE), \
            (label, kernel)


def assert_sums_match(sums, expected, label):
    assert set(sums) == set(expected), label
    for kernel, state in expected.items():
        assert sums[kernel] == pytest.approx(state[1], **SUM_TOLERANCE), (label, kernel)


def bits(rows, total):
    """Rows and total with every float as its exact hex spelling, in order."""
    return ([(key, tuple(value.hex() if isinstance(value, float) else value
                         for value in state)) for key, state in rows.items()],
            total.hex())


class TestPerNameReference:
    @settings(max_examples=100, deadline=None)
    @given(observations)
    def test_every_per_name_path_matches_the_naive_reference(self, observed):
        live = build_sharded(observed)
        expected = reference(observed)
        gpu = M.METRIC_GPU_TIME
        exact = {"live": bits(live.name_rows(gpu), live.total_metric(gpu))}
        with tempfile.TemporaryDirectory() as directory:
            database = ProfileDatabase(live)
            trees = {}
            for name in ("columnar-json", "cct-binary-v1"):
                path = database.save(os.path.join(directory, name), format=name)
                trees[name] = ProfileDatabase.load(path).tree
            hydrated = ProfileDatabase.load(os.path.join(directory, "cct-binary-v1")).tree
            hydrated.hydrate()
            trees["hydrated"] = hydrated
            # Every encoding must also reproduce the live rows exactly.
            for name, tree in (("live", live), *trees.items()):
                assert_states_match(
                    states_by_name(tree.name_rows(gpu), kind=FrameKind.GPU_KERNEL),
                    expected, name)
                assert tree.aggregate_by_name(
                    kind=FrameKind.GPU_KERNEL, metric=M.METRIC_KERNEL_COUNT) == \
                    {kernel: float(state[0]) for kernel, state in expected.items()}
                exact[name] = bits(tree.name_rows(gpu), tree.total_metric(gpu))
            lazy = trees["cct-binary-v1"]
            assert not lazy.hydrated
            for tid in lazy.shard_ids():
                assert_sums_match(
                    lazy.shard_aggregate_by_name(tid, kind=FrameKind.GPU_KERNEL,
                                                 metric=gpu),
                    reference([entry for entry in observed if entry[0] == tid]),
                    f"shard {tid}")

            # A two-run store: this profile plus a second one built from the
            # first half of the observations, reversed.
            second = list(reversed(observed[:(len(observed) + 1) // 2]))
            store = ProfileStore(os.path.join(directory, "store"))
            first_run = store.ingest(database, workload="first").run_id
            store.ingest(ProfileDatabase(build_sharded(second)), workload="second")
            indexed, _problem = store.fleet_index.summary_for(store.get(first_run))
            with store.aggregator(run_ids=[first_run]) as served:
                assert served.indexed_run_ids == [first_run]
                exact["index"] = bits(indexed.states[gpu], served.total_metric(gpu))
            both = reference(observed + second)
            top = []
            for use_index in (True, False):
                with store.aggregator(use_index=use_index) as fleet:
                    label = f"fleet use_index={use_index}"
                    assert_sums_match(fleet.aggregate_by_name(
                        kind=FrameKind.GPU_KERNEL, metric=gpu), both, label)
                    assert_states_match(fleet.name_states(
                        kind=FrameKind.GPU_KERNEL, metric=gpu), both, label)
                    ranked = fleet.top_kernels(k=len(both), metric=gpu)
                    assert_sums_match({row["kernel"]: row[gpu] for row in ranked},
                                      both, label)
                    values = [row[gpu] for row in ranked]
                    assert values == sorted(values, reverse=True)
                    top.append(ranked)
            assert top[0] == top[1]
            lazy.close()
            hydrated.close()
        reference_bits = exact.pop("live")
        for name, found in exact.items():
            assert found == reference_bits, name


@st.composite
def fed_and_queried(draw):
    """Observations plus the sorted positions at which to query mid-feed."""
    observed = draw(observations)
    positions = draw(st.lists(st.integers(0, len(observed)), max_size=5,
                              unique=True))
    return observed, sorted(positions)


def context_key(frames):
    """A call path below the root as ``(kind, name)`` per level."""
    return tuple((frame.kind, frame.name) for frame in frames)


def node_key(node):
    return context_key(entry.frame for entry in node.path_from_root()[1:])


def context_reference(observed):
    """``call path → raw gpu_time values`` from the observations alone."""
    by_path = {}
    for tid, operator, kernel, gpu_time in observed:
        frames = list(observed_path("reference", tid, operator, kernel))[1:]
        by_path.setdefault(context_key(frames), []).append(gpu_time)
    return by_path


def assert_contexts_match(tree, by_path, label):
    """Every node's exclusive and inclusive GPU time, the kernel nodes and
    the per-name sums of ``tree`` against the per-path reference."""
    gpu = M.METRIC_GPU_TIME
    below = {(): []}  # every prefix → the values observed beneath it
    for path, values in by_path.items():
        for depth in range(len(path) + 1):
            below.setdefault(path[:depth], []).extend(values)
    nodes = {node_key(node): node for node in tree.all_nodes()}
    assert len(nodes) == tree.node_count(), label
    assert set(nodes) == set(below), label
    for key, node in nodes.items():
        values = by_path.get(key, [])
        aggregate = node.exclusive.get(gpu)
        found = ((aggregate.count, aggregate.min, aggregate.max)
                 if aggregate is not None else (0, 0.0, 0.0))
        expected = ((len(values), min(values), max(values))
                    if values else (0, 0.0, 0.0))
        assert found == expected, (label, key)
        assert node.exclusive.sum(gpu) == pytest.approx(
            math.fsum(values), **SUM_TOLERANCE), (label, key)
        assert node.inclusive.count(gpu) == len(below[key]), (label, key)
        assert node.inclusive.sum(gpu) == pytest.approx(
            math.fsum(below[key]), **SUM_TOLERANCE), (label, key)
    kernels = [node_key(node) for node in tree.kernels]
    assert len(kernels) == len(by_path) and set(kernels) == set(by_path), label
    by_name = {}
    for path, values in by_path.items():
        by_name.setdefault(path[-1][1], []).extend(values)
    sums = tree.aggregate_by_name(kind=FrameKind.GPU_KERNEL, metric=gpu)
    assert set(sums) == set(by_name), label
    for name, values in by_name.items():
        assert sums[name] == pytest.approx(math.fsum(values), **SUM_TOLERANCE), \
            (label, name)


class TestPerContextReference:
    @settings(max_examples=100, deadline=None)
    @given(fed_and_queried())
    def test_every_context_matches_the_naive_reference(self, drawn):
        observed, positions = drawn
        plain = CallingContextTree("reference")
        sharded = ShardedCallingContextTree("reference")
        one_thread = ShardedCallingContextTree("reference")
        only_shard = one_thread.shard_for_tid(1, thread_name="thread-1")
        fed = 0
        for position in positions + [len(observed)]:
            for tid, operator, kernel, gpu_time in observed[fed:position]:
                path = observed_path("reference", tid, operator, kernel)
                metrics = {M.METRIC_GPU_TIME: gpu_time, M.METRIC_KERNEL_COUNT: 1.0}
                plain.insert_and_attribute(path, metrics)
                sharded.shard_for_tid(tid, thread_name=f"thread-{tid}") \
                    .insert_and_attribute(path, metrics)
                only_shard.insert_and_attribute(path, metrics)
            fed = position
            by_path = context_reference(observed[:fed])
            for label, tree in (("plain", plain), ("sharded", sharded),
                                ("one-thread", one_thread)):
                assert_contexts_match(tree, by_path, f"{label} after {fed}")
            # A one-shard tree is its own union, and a multi-shard union owns
            # only its root: every other node the read API returns belongs
            # to a shard, so attribution through it cannot be lost.
            assert all(node.tree is only_shard for node in one_thread.all_nodes())
            shards = list(sharded.shards().values())
            assert all(any(node.tree is shard for shard in shards)
                       for node in sharded.all_nodes() if node is not sharded.root)
        with tempfile.TemporaryDirectory() as directory:
            database = ProfileDatabase(sharded)
            binary = ProfileDatabase.load(database.save(
                os.path.join(directory, "binary"), format="cct-binary-v1")).tree
            binary.hydrate()
            assert_contexts_match(binary, by_path, "cct-binary-v1")
            binary.close()
            columnar = ProfileDatabase.load(database.save(
                os.path.join(directory, "columnar"), format="columnar-json")).tree
            assert_contexts_match(columnar, by_path, "columnar-json")
