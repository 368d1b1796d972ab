"""Regression tests for the GPU correlation-ID lifecycle.

Two bugs are pinned here.  First, the collector used to ``release()`` a
correlation as soon as its activity record was attributed, so instruction
samples for the same correlation delivered afterwards (the activity buffer can
fill and flush *mid-launch*, before the exit-time sample delivery) resolved to
``None`` and were silently dropped — and miscounted as ``unresolved``.
Second, sample-only correlations were resolved but never released, so they
accumulated in ``CorrelationRegistry._pending`` for the life of the run.  The
fixed lifecycle marks each delivery attributed, releases an entry once both
sides have been seen (or the counterpart can never come), and sweeps the
remaining tombstones after the final flush in ``stop()``.
"""


from repro.core import (
    CorrelationRegistry,
    DeepContextProfiler,
    ProfilerConfig,
)
from repro.core import metrics as M
from repro.core.cct import CallingContextTree
from repro.dlmonitor.callpath import CallPath, gpu_kernel_frame, root_frame
from repro.framework import EagerEngine, modules, tensor
from repro.framework import functional as F


def _registry_with(node, *correlation_ids):
    registry = CorrelationRegistry()
    for correlation_id in correlation_ids:
        registry.register(correlation_id, node)
    return registry


def _node():
    tree = CallingContextTree("correlations")
    return tree.insert(CallPath.of([root_frame("correlations"),
                                    gpu_kernel_frame("kernel")]))


class TestRegistryTombstones:
    def test_attributed_entry_stays_resolvable_until_released(self):
        registry = _registry_with(_node(), 1)
        pending = registry.resolve(1)
        pending.activity_attributed = True
        # Still resolvable: the sample side has not been attributed yet.
        assert registry.resolve(1) is pending
        assert registry.unresolved == 0
        registry.release(1)
        assert registry.pending_count == 0

    def test_sweep_frees_only_attributed_entries(self):
        registry = _registry_with(_node(), 1, 2, 3)
        registry.resolve(1).activity_attributed = True
        registry.resolve(2).samples_attributed = True
        swept = registry.sweep_attributed()
        assert swept == 2
        assert registry.swept == 2
        # The never-attributed entry survives as a diagnostic signal.
        assert registry.pending_count == 1
        assert registry.resolve(3) is not None

    def test_attributed_property_tracks_either_side(self):
        registry = _registry_with(_node(), 1)
        pending = registry.resolve(1)
        assert not pending.attributed
        pending.samples_attributed = True
        assert pending.attributed


def _profile_tiny_training(config, iterations=2):
    engine = EagerEngine("a100")
    profiler = DeepContextProfiler(engine, config)
    with engine, profiler.profile():
        model = modules.Sequential(modules.Conv2d(3, 4), modules.ReLU(), name="net")
        loss_fn = modules.CrossEntropyLoss()
        for _ in range(iterations):
            x = tensor((2, 3, 16, 16))
            y = tensor((2,), dtype="int64")
            features = model(x)
            pooled = F.avg_pool2d(features, kernel_size=features.shape[-1])
            flat = F.reshape(pooled, (pooled.shape[0], pooled.shape[1]))
            loss = loss_fn(flat, y)
            engine.backward(loss)
            profiler.mark_iteration()
        engine.synchronize()
        mid_run_pending = profiler.correlations.pending_count
    return engine, profiler, mid_run_pending


class TestCollectorLifecycle:
    def test_samples_survive_mid_launch_buffer_flush(self):
        # A 1-record activity buffer flushes during the launch, *before* the
        # exit-time sample delivery — the order that used to drop samples.
        config = ProfilerConfig(program_name="lifecycle", pc_sampling=True,
                                activity_buffer_size=1, collect_cpu_time=False,
                                collect_native=False)
        engine, profiler, _ = _profile_tiny_training(config)
        collector = profiler.gpu_collector
        assert collector.samples_attributed > 0
        assert profiler.correlations.unresolved == 0
        tree = profiler.database.tree
        assert tree.root.inclusive.sum(M.METRIC_INSTRUCTION_SAMPLES) > 0

    def test_registry_drained_after_stop(self):
        config = ProfilerConfig(program_name="lifecycle", pc_sampling=True,
                                activity_buffer_size=1, collect_cpu_time=False,
                                collect_native=False)
        _, profiler, _ = _profile_tiny_training(config)
        assert profiler.correlations.pending_count == 0
        assert profiler.correlations.registered > 0

    def test_pending_bounded_during_the_run(self):
        # With a tiny buffer every correlation's deliveries complete within
        # (or right after) its launch, and kernels whose sample batch came up
        # empty are drained at the next GPU API callback — so the registry
        # holds at most the in-flight tail mid-run, not the run's history.
        config = ProfilerConfig(program_name="lifecycle", pc_sampling=True,
                                activity_buffer_size=1, collect_cpu_time=False,
                                collect_native=False)
        engine, profiler, mid_run_pending = _profile_tiny_training(config, iterations=4)
        assert profiler.correlations.registered > 40
        assert mid_run_pending <= 4
        assert profiler.correlations.pending_count == 0  # swept at stop()

    def test_buffer_size_restored_after_stop(self):
        config = ProfilerConfig(program_name="lifecycle", activity_buffer_size=1,
                                collect_cpu_time=False, collect_native=False)
        engine, profiler, _ = _profile_tiny_training(config)
        # The profiler applied its own size during the run, then put the
        # runtime's original configuration back.
        assert engine.runtime.activity.buffer_size == 512

    def test_activity_only_config_still_releases_promptly(self):
        # Without PC sampling no samples can ever arrive: activity attribution
        # releases immediately (the pre-existing fast path).
        config = ProfilerConfig(program_name="lifecycle", pc_sampling=False,
                                activity_buffer_size=1, collect_cpu_time=False,
                                collect_native=False)
        _, profiler, mid_run_pending = _profile_tiny_training(config)
        assert profiler.correlations.pending_count == 0
        assert mid_run_pending == 0
        assert profiler.correlations.unresolved == 0
