"""End-to-end integration tests across modules.

These exercise the full pipeline — workload → DLMonitor → profiler → analyzer
→ GUI — on both simulated platforms and both execution modes, checking the
cross-cutting invariants the paper's design relies on.
"""

import pytest

from repro.analyzer import PerformanceAnalyzer
from repro.core import DeepContextProfiler, ProfileDatabase, ProfilerConfig
from repro.core import metrics as M
from repro.dlmonitor.callpath import FrameKind
from repro.experiments import (
    PROFILER_DEEPCONTEXT,
    PROFILER_DEEPCONTEXT_NATIVE,
    run_workload,
)
from repro.gui import FlameGraphBuilder, render_html
from repro.workloads import create_workload


@pytest.mark.parametrize("device", ["a100", "mi250"])
def test_full_pipeline_on_both_platforms(device):
    result = run_workload(create_workload("resnet", small=True), device=device,
                          profiler=PROFILER_DEEPCONTEXT_NATIVE, iterations=2)
    database = result.database
    assert database.metadata.device in ("A100 SXM", "MI250")

    # Every kernel node has the full multi-layer context above it.
    kernels = database.tree.kernels
    assert kernels
    for kernel in kernels[:20]:
        kinds = set(kernel.callpath().kinds())
        assert FrameKind.GPU_API in kinds and FrameKind.NATIVE in kinds
        assert FrameKind.FRAMEWORK in kinds

    # The attributed GPU time matches the runtime's accounting.
    assert database.total_gpu_time() == pytest.approx(result.gpu_kernel_seconds, rel=1e-6)
    assert database.total_kernel_launches() == result.kernel_launches

    # Analyzer and GUI run on the result without errors.
    report = PerformanceAnalyzer().analyze(database)
    html = render_html(FlameGraphBuilder().top_down(database.tree, issues=report.issues),
                       report=report)
    assert "<svg" in html


@pytest.mark.parametrize("model, shards", [("llama3", 1), ("resnet", 2)])
def test_report_is_identical_from_every_tree_shape(model, shards, tmp_path):
    """A one-shard profile answers structural queries from its shard, a
    two-shard one from their merged union; live or reloaded, the report —
    analyzer issues, rendered HTML, top kernels — must not depend on which
    tree answered."""
    database = run_workload(create_workload(model, small=True),
                            profiler=PROFILER_DEEPCONTEXT, iterations=2).database
    assert database.tree.shard_count() == shards
    paths = {name: database.save(str(tmp_path / name), format=name)
             for name in ("cct-binary-v1", "columnar-json")}

    def report(profile):
        analysis = PerformanceAnalyzer().analyze(profile)
        graph = FlameGraphBuilder().top_down(profile.tree, issues=analysis.issues)
        return ([issue.message for issue in analysis.issues],
                render_html(graph, report=analysis), profile.top_kernels(10))

    live = report(database)
    assert live[0] and live[2]
    for name, path in paths.items():
        reloaded = ProfileDatabase.load(path)
        try:
            assert report(reloaded) == live, name
        finally:
            close = getattr(reloaded.tree, "close", None)
            if close is not None:
                close()


def test_kernel_count_invariant_between_profiler_and_engine():
    engine_result = run_workload(create_workload("vit", small=True),
                                 profiler=PROFILER_DEEPCONTEXT_NATIVE, iterations=1)
    tree = engine_result.database.tree
    per_kernel = sum(int(node.exclusive.sum(M.METRIC_KERNEL_COUNT)) for node in tree.kernels)
    assert per_kernel == engine_result.kernel_launches


def test_profile_is_iteration_stable():
    """Two profiles of the same deterministic workload have identical structure."""
    def run_once():
        return run_workload(create_workload("gnn", small=True),
                            profiler=PROFILER_DEEPCONTEXT_NATIVE, iterations=2).database

    first, second = run_once(), run_once()
    assert first.node_count() == second.node_count()
    assert first.total_kernel_launches() == second.total_kernel_launches()
    assert first.total_gpu_time() == pytest.approx(second.total_gpu_time(), rel=1e-9)


def test_more_iterations_do_not_grow_the_cct():
    short = run_workload(create_workload("transformer_big", small=True),
                         profiler=PROFILER_DEEPCONTEXT_NATIVE, iterations=1).database
    long = run_workload(create_workload("transformer_big", small=True),
                        profiler=PROFILER_DEEPCONTEXT_NATIVE, iterations=4).database
    assert long.node_count() <= short.node_count() * 1.05
    assert long.total_kernel_launches() > 3 * short.total_kernel_launches()


def test_profiler_detach_leaves_engine_clean():
    from repro.framework import EagerEngine, functional as F, tensor

    engine = EagerEngine("a100")
    profiler = DeepContextProfiler(engine, ProfilerConfig(program_name="detach"))
    with engine:
        profiler.start()
        F.relu(tensor((8, 8)))
        database = profiler.stop()
        nodes_after_stop = database.node_count()
        F.relu(tensor((8, 8)))  # not profiled any more
    assert database.node_count() == nodes_after_stop
    assert not engine.has_callbacks
