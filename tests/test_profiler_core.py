"""Tests for the profiler core: collectors, orchestration, database persistence."""

import pytest

from repro.core import (
    CorrelationRegistry,
    DeepContextProfiler,
    ProfileDatabase,
    ProfilerConfig,
)
from repro.core import metrics as M
from repro.core.cct import CallingContextTree
from repro.dlmonitor.callpath import FrameKind
from repro.framework import EagerEngine, modules, tensor
from repro.framework import functional as F
from repro.framework.jit import JitCompiler, jit
from repro.workloads import create_workload


def run_small_training(engine, profiler, iterations=2):
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


class TestCorrelationRegistry:
    def test_register_resolve_release(self):
        tree = CallingContextTree()
        registry = CorrelationRegistry()
        node = tree.root
        registry.register(7, node, kernel_name="k")
        assert registry.resolve(7).node is node
        registry.release(7)
        assert registry.pending_count == 0
        assert registry.resolve(7) is None
        assert registry.resolved == 1 and registry.unresolved == 1


class TestDeepContextProfiler:
    def test_end_to_end_profile(self):
        engine = EagerEngine("a100")
        profiler = DeepContextProfiler(engine, ProfilerConfig(program_name="unit"))
        database = run_small_training(engine, profiler)
        assert database.total_gpu_time() > 0
        assert database.total_kernel_launches() == engine.kernel_launches
        assert database.node_count() > 20
        assert database.metadata.iterations == 2
        assert database.metadata.device == "A100 SXM"
        summary = database.summary()
        assert set(summary) >= {"gpu_time_seconds", "kernel_launches", "cct_nodes"}

    def test_database_unavailable_before_stop(self):
        engine = EagerEngine("a100")
        profiler = DeepContextProfiler(engine)
        with pytest.raises(RuntimeError):
            _ = profiler.database
        with pytest.raises(RuntimeError):
            profiler.stop()

    def test_without_native_config_has_no_native_frames(self):
        engine = EagerEngine("a100")
        profiler = DeepContextProfiler(engine, ProfilerConfig.without_native())
        database = run_small_training(engine, profiler, iterations=1)
        assert not database.tree.nodes_of_kind(FrameKind.NATIVE)
        assert database.tree.nodes_of_kind(FrameKind.FRAMEWORK)

    def test_full_config_collects_native_and_samples(self):
        engine = EagerEngine("a100")
        config = ProfilerConfig.full()
        config.pc_sampling = True
        profiler = DeepContextProfiler(engine, config)
        database = run_small_training(engine, profiler, iterations=1)
        assert database.tree.nodes_of_kind(FrameKind.NATIVE)
        instruction_nodes = database.tree.nodes_of_kind(FrameKind.GPU_INSTRUCTION)
        assert instruction_nodes
        assert any(node.inclusive.sum(M.METRIC_STALL_SAMPLES) > 0 for node in instruction_nodes)

    def test_kernel_launch_metrics_attributed(self):
        engine = EagerEngine("a100")
        profiler = DeepContextProfiler(engine, ProfilerConfig(program_name="metrics"))
        database = run_small_training(engine, profiler, iterations=1)
        root = database.tree.root.inclusive
        assert root.sum(M.METRIC_BLOCKS) > 0
        assert root.sum(M.METRIC_REGISTERS) > 0
        assert root.sum(M.METRIC_KERNEL_COUNT) == database.total_kernel_launches()

    def test_cpu_sampling_attributes_cpu_time(self):
        engine = EagerEngine("a100")
        config = ProfilerConfig(cpu_sample_period=1e-5, program_name="cpu")
        profiler = DeepContextProfiler(engine, config)
        database = run_small_training(engine, profiler, iterations=2)
        assert database.total_cpu_time() > 0

    def test_perf_events_collected_when_requested(self):
        engine = EagerEngine("a100")
        config = ProfilerConfig(cpu_sample_period=1e-5, perf_events=["instructions"])
        profiler = DeepContextProfiler(engine, config)
        database = run_small_training(engine, profiler, iterations=1)
        assert database.tree.root.inclusive.sum("perf::instructions") > 0

    def test_overhead_statistics(self):
        engine = EagerEngine("a100")
        profiler = DeepContextProfiler(engine)
        run_small_training(engine, profiler, iterations=1)
        stats = profiler.overhead_statistics()
        assert stats["cct_nodes"] > 0
        assert stats["profiler_wall_seconds"] > 0
        assert 0.0 <= stats["cache_hit_rate"] <= 1.0

    def test_jit_mode_profiling(self):
        engine = EagerEngine("a100")
        compiler = JitCompiler(engine)
        profiler = DeepContextProfiler(engine, ProfilerConfig.without_native(),
                                       jit_compiler=compiler)
        workload = create_workload("gnn", small=True)
        with engine, profiler.profile():
            workload.build(engine)
            compiled = jit(workload.step_fn(engine), engine=engine, with_grad=True,
                           compiler=compiler)
            compiled(*workload.make_batch(engine, 0))
            engine.synchronize()
        database = profiler.database
        assert database.total_gpu_time() > 0
        assert len(profiler.monitor.fusion_map) >= 1


class TestProfileDatabase:
    def _database(self):
        engine = EagerEngine("a100")
        profiler = DeepContextProfiler(engine, ProfilerConfig(program_name="persist"))
        return run_small_training(engine, profiler, iterations=1)

    def test_top_kernels_ordered(self):
        database = self._database()
        top = database.top_kernels(5)
        values = [row["gpu_time"] for row in top]
        assert values == sorted(values, reverse=True)
        assert all(0 <= row["fraction"] <= 1 for row in top)

    def test_default_save_roundtrip(self, tmp_path):
        database = self._database()
        path = database.save(str(tmp_path / "profile.cctb"))
        restored = ProfileDatabase.load(path)
        with restored.tree:
            assert restored.node_count() == database.node_count()
            assert restored.total_gpu_time() == pytest.approx(
                database.total_gpu_time())
            assert restored.metadata.program == "persist"
            assert restored.total_kernel_launches() == \
                database.total_kernel_launches()

    def test_size_bytes_positive_and_bounded_by_nodes(self):
        database = self._database()
        assert database.size_bytes() > 2048
        assert database.size_bytes() < database.node_count() * 4096
