"""Tests for the profiler core: collectors, orchestration, database persistence."""

import gc
import tracemalloc

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
from repro.framework.eager import PHASE_BEFORE
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
        registry.register(7, node)
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

    def test_real_time_samples_land_in_the_main_thread_shard(self):
        """The REAL_TIME timer runs off the machine clock and charges the main thread."""
        for collect_real_time in (True, False):
            engine = EagerEngine("a100")
            config = ProfilerConfig.without_native()
            config.collect_real_time = collect_real_time
            profiler = DeepContextProfiler(engine, config)
            workload = create_workload("gnn", small=True)
            with engine, profiler.profile():
                workload.build(engine)
                for iteration in range(2):
                    workload.run_iteration(engine, iteration)
                    profiler.mark_iteration()
                engine.synchronize()
            tree = profiler.database.tree
            assert tree.shard_count() >= 2
            timed = [node for shard in tree.shards().values()
                     for node in shard.all_nodes()
                     if node.exclusive.count(M.METRIC_REAL_TIME)]
            if collect_real_time:
                assert tree.total_metric(M.METRIC_REAL_TIME) > 0
                main = tree.shards()[engine.threads.main.tid]
                assert timed and all(node.tree is main for node in timed)
            else:
                assert not timed

    def test_sessions_on_one_engine_collect_into_their_own_trees(self):
        """Both sessions run on the engine's main and backward threads; each
        resolves those threads' shards from its own tree."""
        engine = EagerEngine("a100")
        sessions = []
        for _ in range(2):
            launches = engine.kernel_launches
            profiler = DeepContextProfiler(engine, ProfilerConfig(cpu_sample_period=1e-5))
            database = run_small_training(engine, profiler)
            assert database.total_kernel_launches() == engine.kernel_launches - launches > 0
            sessions.append(database)
        first, second = sessions
        assert not set(first.tree.shards().values()) & set(second.tree.shards().values())
        assert second.tree.shard_count() == first.tree.shard_count() == 2
        assert second.total_kernel_launches() == first.total_kernel_launches()
        assert second.node_count() == first.node_count()
        assert second.total_gpu_time() == pytest.approx(first.total_gpu_time(), rel=1e-9)
        assert second.total_cpu_time() == pytest.approx(first.total_cpu_time(), rel=1e-9)
        assert first.total_cpu_time() > 0

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
        assert 0.0 < stats["cache_hit_rate"] <= 1.0

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


def _profile_columns(model, mode, config, iterations=2):
    """The profile tree of ``iterations`` iterations of a small ``model`` as columns."""
    engine = EagerEngine("a100")
    compiler = JitCompiler(engine) if mode == "jit" else None
    profiler = DeepContextProfiler(engine, config, jit_compiler=compiler)
    workload = create_workload(model, small=True)
    with engine, profiler.profile():
        workload.build(engine)
        if compiler is not None:
            compiled = jit(workload.step_fn(engine), engine=engine,
                           with_grad=workload.training, compiler=compiler)
        for iteration in range(iterations):
            if compiler is not None:
                compiled(*workload.make_batch(engine, iteration))
            else:
                workload.run_iteration(engine, iteration)
            profiler.mark_iteration()
        engine.synchronize()
    return profiler.database.tree.to_columnar()


class TestCollectionPaths:
    @pytest.mark.parametrize("model, mode, preset", [
        ("gnn", "eager", ProfilerConfig.without_native),
        ("unet", "jit", ProfilerConfig.without_native),
        ("resnet", "eager", ProfilerConfig.full),  # native frames and PC sampling
        ("llama3", "eager", ProfilerConfig.without_native),
        ("llama3", "eager", ProfilerConfig.full),
        ("gnn", "jit", ProfilerConfig.without_native),
    ])
    def test_callpath_cache_on_and_off_build_the_same_profile(self, model, mode, preset):
        """With the cache off every launch inserts its full path: the reference.

        The first iteration fills the launch-context tables, the second
        reaches its nodes through them.
        """
        cached, uncached = preset(), preset()
        uncached.callpath_cache = False
        # One call site for both runs: the profile records this test's line.
        columns, reference = (_profile_columns(model, mode, config)
                              for config in (cached, uncached))
        assert columns == reference

    @pytest.mark.parametrize("preset", [ProfilerConfig.without_native, ProfilerConfig.full])
    def test_steady_iterations_build_call_paths_only_for_cpu_samples(self, preset):
        """Once every launch context has been seen, launches build no call path."""
        engine = EagerEngine("a100")
        profiler = DeepContextProfiler(engine, preset())
        workload = create_workload("gnn", small=True)
        deltas = []
        with engine, profiler.profile():
            workload.build(engine)
            stats, cpu = profiler.monitor.stats, profiler.cpu_collector
            for iteration in range(4):
                built, sampled = stats.callpaths_built, cpu.samples_attributed
                workload.run_iteration(engine, iteration)
                deltas.append((stats.callpaths_built - built,
                               cpu.samples_attributed - sampled))
        assert any(thread.kind == "backward" for thread in engine.threads)
        assert deltas[0][0] > deltas[0][1]
        for built, sampled in deltas[1:]:
            assert built == sampled, deltas

    @pytest.mark.parametrize("preset", [ProfilerConfig.without_native, ProfilerConfig.full])
    def test_copy_as_an_operator_enters_leaves_its_kernel_paths_alone(self, preset):
        """A hook copies memory as relu enters, before relu's kernel launch:
        the copy's native context, which lacks the launch API's frame, is
        not reused for the kernel."""
        def relu_kernels(callpath_cache):
            engine = EagerEngine("a100")
            config = preset()
            config.callpath_cache = callpath_cache
            profiler = DeepContextProfiler(engine, config)
            x = tensor((64, 64))

            def copy_in_relu(info):
                if info.phase == PHASE_BEFORE and info.op_name == "aten::relu":
                    engine.runtime.memcpy(1024, "h2d")

            with engine, profiler.profile():
                engine.add_global_callback(copy_in_relu)
                for _ in range(2):
                    F.relu(x)
                engine.synchronize()
            return [(kernel.callpath(), kernel.exclusive.count(M.METRIC_KERNEL_COUNT))
                    for kernel in profiler.database.tree.kernels]

        # One call site for both runs: the profile records this test's line.
        cached, reference = (relu_kernels(cache) for cache in (True, False))
        assert cached == reference and [count for _, count in cached] == [2]

    def test_live_memory_stays_flat_across_iterations(self):
        """Live memory is bounded by distinct contexts, not by iterations run."""
        engine = EagerEngine("a100")
        profiler = DeepContextProfiler(engine, ProfilerConfig.without_native())
        workload = create_workload("resnet", small=True)
        live = {}
        tracemalloc.start()
        try:
            with engine, profiler.profile():
                workload.build(engine)
                for iteration in range(1, 17):
                    workload.run_iteration(engine, iteration)
                    profiler.mark_iteration()
                    if iteration in (4, 16):
                        # Buffered activity records and their pending
                        # correlations, and the simulator's cyclic garbage,
                        # would otherwise move a reading by hundreds of KiB.
                        profiler.monitor.tracing_api.activity_flush_all()
                        gc.collect()
                        live[iteration] = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert live[16] <= 1.1 * live[4], live


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
