"""The legacy nested-``json`` reader against a committed old profile.

``tests/data/legacy-nested-v0.json`` was written by ``ProfileDatabase.save``
while nested ``json`` was still its default format, from exactly the profile
:func:`build_legacy_profile` builds: three threads whose shards create nodes
interleaved (a late child under an early node, so registry order is not
pre-order), kernels observed repeatedly (non-zero variances) and one
0.0-duration kernel, under fixed file names.  The nested format is read but
never written any more, and the file stands for nested profiles already on
disk: never regenerate it.

The file stores the sharded profile flattened to its merged view, each
aggregate as ``(count, sum, min, max, mean, std)`` and a stored inclusive
view the reader ignores (it derives one from the exclusive data, as the
flat formats' loaders do).  So counts, sums, extrema and means must come
back exactly, and variances within the rounding of ``std``.
"""

import os

import pytest

from repro.core import (
    CallingContextTree,
    LazyProfileView,
    ProfileDatabase,
    ProfileMetadata,
    ShardedCallingContextTree,
    detect_format,
)
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
from repro.fleet import ProfileStore

LEGACY_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "legacy-nested-v0.json")

#: Thread id → (thread name, thread kind).
THREADS = {1: ("main", "main"), 2: ("backward-0", "backward"),
           3: ("worker-0", "dataloader")}

#: ``(thread, train.py line, operator, kernel, gpu seconds)`` in arrival order.
OBSERVATIONS = [
    (1, 10, "conv2d", "implicit_gemm", 1.5),
    (2, 40, "conv2d_backward", "wgrad_gemm", 0.75),
    (1, 12, "relu", "elementwise_relu", 0.25),
    (3, 70, "copy_", "memcpy_h2d", 0.5),
    (1, 10, "conv2d", "implicit_gemm", 1.25),
    (2, 40, "relu_backward", "elementwise_relu_bwd", 0.125),
    (1, 10, "batch_norm", "bn_fwd", 0.4),  # late child of an early node
    (3, 70, "copy_", "memcpy_h2d", 0.625),
    (1, 10, "conv2d", "implicit_gemm", 1.75),
    (2, 40, "conv2d_backward", "wgrad_gemm", 0.8),
    (3, 71, "zero_", "memset_zero", 0.0),
    (1, 12, "relu", "elementwise_relu", 0.3),
]

VARIANCE_TOLERANCE = {"rel": 1e-6, "abs": 1e-12}
METRICS = (M.METRIC_GPU_TIME, M.METRIC_KERNEL_COUNT, M.METRIC_CPU_TIME)


def build_legacy_profile() -> ProfileDatabase:
    """The profile the committed file was saved from."""
    tree = ShardedCallingContextTree("legacy")
    for tid, line, operator, kernel, gpu_time in OBSERVATIONS:
        thread_name, thread_kind = THREADS[tid]
        shard = tree.shard_for_tid(tid, thread_name=thread_name,
                                   thread_kind=thread_kind)
        node = shard.insert(CallPath.of([
            root_frame("legacy"), thread_frame(thread_name, tid),
            python_frame("train.py", line, "train_step"),
            framework_frame(f"aten::{operator}", backward=tid == 2),
            gpu_kernel_frame(kernel),
        ]))
        shard.attribute_many(node, {M.METRIC_GPU_TIME: gpu_time,
                                    M.METRIC_KERNEL_COUNT: 1.0})
        shard.attribute(node.parent, M.METRIC_CPU_TIME, gpu_time / 4 + 0.01)
    return ProfileDatabase(tree, metadata=ProfileMetadata(program="legacy",
                                                          iterations=3))


def _path_key(node):
    return tuple(step.frame.identity() for step in node.path_from_root())


def _exact_fields(aggregate):
    return (aggregate.count, aggregate.sum, aggregate.min, aggregate.max,
            aggregate.mean)


def _bits(values):
    return {name: value.hex() for name, value in values.items()}


def _states(metrics):
    return {name: aggregate.state() for name, aggregate in metrics.items()}


@pytest.fixture(scope="module")
def live() -> CallingContextTree:
    return build_legacy_profile().tree.merged()


@pytest.fixture
def legacy() -> ProfileDatabase:
    return ProfileDatabase.load(LEGACY_PATH)


def test_file_is_nested_json_and_loads_as_one_tree(legacy):
    assert os.path.getsize(LEGACY_PATH) <= 16 * 1024
    assert detect_format(LEGACY_PATH) == "json"
    assert type(legacy.tree) is CallingContextTree
    assert legacy.metadata.program == "legacy"


def test_registry_order_is_the_live_merged_order(legacy, live):
    assert [_path_key(node) for node in legacy.tree.all_nodes()] == \
        [_path_key(node) for node in live.all_nodes()]


def test_every_node_matches_the_live_merged_tree(legacy, live):
    loaded_nodes = legacy.tree.all_nodes()
    live_nodes = live.all_nodes()
    assert len(loaded_nodes) == len(live_nodes)
    for loaded, expected in zip(loaded_nodes, live_nodes):
        for view in ("exclusive", "inclusive"):
            got, want = getattr(loaded, view), getattr(expected, view)
            assert sorted(got.names()) == sorted(want.names()), \
                (view, _path_key(expected))
            for metric in want.names():
                assert _exact_fields(got.get(metric)) == \
                    _exact_fields(want.get(metric)), (view, metric)
                assert got.get(metric).variance == pytest.approx(
                    want.get(metric).variance, **VARIANCE_TOLERANCE)


def test_per_name_rollups_and_totals_are_bit_for_bit_equal(legacy, live):
    for metric in METRICS:
        assert legacy.tree.total_metric(metric).hex() == \
            live.total_metric(metric).hex()
        for kind in (None, FrameKind.GPU_KERNEL, FrameKind.FRAMEWORK):
            assert _bits(legacy.tree.aggregate_by_name(kind=kind, metric=metric)) \
                == _bits(live.aggregate_by_name(kind=kind, metric=metric))


@pytest.mark.parametrize("format_name", ["cct-binary-v1", "columnar-json"])
def test_resave_keeps_every_exclusive_state(legacy, tmp_path, format_name):
    path = legacy.save(str(tmp_path / "resaved"), format=format_name)
    assert detect_format(path) == format_name
    tree = ProfileDatabase.load(path).tree
    resaved = tree if isinstance(tree, CallingContextTree) else tree.merged()
    loaded_nodes = legacy.tree.all_nodes()
    assert len(resaved.all_nodes()) == len(loaded_nodes)
    for again, loaded in zip(resaved.all_nodes(), loaded_nodes):
        assert _path_key(again) == _path_key(loaded)
        assert _states(again.exclusive) == _states(loaded.exclusive)
    if isinstance(tree, LazyProfileView):
        tree.close()


def test_store_ingests_the_legacy_file(legacy, tmp_path):
    store = ProfileStore(str(tmp_path / "store"))
    record = store.ingest(LEGACY_PATH, workload="legacy")
    assert [run.run_id for run in store.runs()] == [record.run_id]
    assert record.workload == "legacy"
    assert record.nodes == legacy.node_count()
    assert record.metrics[M.METRIC_GPU_TIME] == legacy.total_gpu_time()
