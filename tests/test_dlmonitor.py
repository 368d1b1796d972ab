"""Tests for DLMonitor: interception, call-path integration, the C-style API."""

import pytest

from repro.dlmonitor import (
    DLMONITOR_FRAMEWORK,
    DLMONITOR_GPU,
    CallPathSources,
    DLMonitor,
    FrameKind,
    dlmonitor_callback_register,
    dlmonitor_callpath_get,
    dlmonitor_finalize,
    dlmonitor_init,
    parse_interception_config,
)
from repro.core import DeepContextProfiler, ProfilerConfig
from repro.core.cct import CCTNode
from repro.dlmonitor.audit import CustomDriverInterceptor, LibraryAuditor
from repro.dlmonitor.domains import GpuEvent
from repro.framework import EagerEngine, modules, tensor
from repro.framework import functional as F
from repro.framework.eager import PHASE_BEFORE
from repro.framework.jit import JitCompiler, jit
from repro.gpu.kernels import KernelSpec
from repro.gpu.runtime import ApiPhase
from repro.native.symbols import LIBPYTHON
from repro.pycontext import capture_user_frames


@pytest.fixture
def engine():
    return EagerEngine("a100")


class TestLifecycle:
    def test_init_and_finalize(self, engine):
        monitor = dlmonitor_init(engine)
        assert monitor.initialized
        dlmonitor_finalize(monitor)
        assert not monitor.initialized
        # After finalize, operators no longer reach the shim.
        with engine:
            F.relu(tensor((2, 2)))
        assert monitor.stats.framework_events == 0

    def test_double_init_is_idempotent(self, engine):
        monitor = DLMonitor(engine)
        monitor.init()
        monitor.init()
        events = []
        monitor.callback_register(DLMONITOR_FRAMEWORK, events.append)
        with engine:
            F.relu(tensor((2, 2)))
        assert len(events) == 2  # enter + exit, not doubled

    def test_unknown_domain_rejected(self, engine):
        monitor = dlmonitor_init(engine)
        with pytest.raises(ValueError):
            monitor.callback_register("DLMONITOR_UNKNOWN", lambda event: None)


class TestFrameworkDomain:
    def test_operator_events_delivered(self, engine):
        monitor = dlmonitor_init(engine)
        events = []
        dlmonitor_callback_register(monitor, DLMONITOR_FRAMEWORK, events.append)
        with engine:
            layer = modules.Linear(8, 4, name="proj")
            layer(tensor((2, 8)))
        names = {event.op_name for event in events}
        assert "aten::linear" in names
        assert any(event.scope == ["proj"] for event in events)
        assert all(event.framework == "pytorch" for event in events)

    def test_shadow_stack_balanced_after_ops(self, engine):
        monitor = dlmonitor_init(engine)
        with engine:
            F.relu(tensor((2, 2)))
        assert monitor.thread_state(engine.threads.main).stack == []

    def test_backward_events_marked(self, engine):
        monitor = dlmonitor_init(engine)
        events = []
        monitor.callback_register(DLMONITOR_FRAMEWORK, events.append)
        with engine:
            w = tensor((4, 8), requires_grad=True)
            loss = F.sum_(F.linear(tensor((2, 8)), w))
            engine.backward(loss)
        backward_events = [event for event in events if event.is_backward]
        assert backward_events
        assert all(event.sequence_id is not None for event in backward_events)


class TestGpuDomain:
    def test_kernel_launch_events_carry_kernel_names(self, engine):
        monitor = dlmonitor_init(engine)
        events = []
        monitor.callback_register(DLMONITOR_GPU, events.append)
        with engine:
            F.relu(tensor((64, 64)))
        launches = [event for event in events if event.kernel_name]
        assert launches and launches[0].kernel_name.startswith("vectorized_elementwise")
        assert launches[0].correlation_id > 0


def _profiled_training(subscribe=None):
    """Two tiny training iterations under a full profiler, as profile columns.

    ``subscribe(engine, monitor)`` runs once the profiler has started.
    """
    engine = EagerEngine("a100")
    profiler = DeepContextProfiler(engine, ProfilerConfig.full())
    with engine, profiler.profile():
        if subscribe is not None:
            subscribe(engine, profiler.monitor)
        model = modules.Sequential(modules.Conv2d(3, 8), modules.ReLU(), name="net")
        for _ in range(2):
            engine.backward(F.sum_(model(tensor((2, 3, 16, 16)))))
            profiler.mark_iteration()
        engine.synchronize()
    return profiler.database.tree.to_columnar()


class TestSubscribers:
    def test_gpu_callback_beside_a_profiler_sees_every_api_call(self):
        """One enter and one exit ``GpuEvent`` per API call; the profile is unchanged."""
        raw, events = [], []

        def subscribe(engine, monitor):
            engine.runtime.subscribe(
                lambda data: raw.append((data, engine.threads.current.tid)))
            monitor.callback_register(DLMONITOR_GPU, events.append)

        # One call site for both runs: the profile records this test's line.
        observed, reference = (_profiled_training(hook) for hook in (subscribe, None))
        assert observed == reference
        expected = [GpuEvent(
            api_name=data.api_name,
            phase="enter" if data.phase is ApiPhase.ENTER else "exit",
            correlation_id=data.correlation_id, device=data.device,
            kernel_name=data.kernel_function.name if data.kernel_function else "",
            stream=data.stream, bytes=data.bytes, kind=data.kind, thread_tid=tid,
        ) for data, tid in raw]
        assert events and events == expected
        assert len(events) == 2 * len({event.correlation_id for event in events})

    def test_callpath_in_gpu_callback_has_the_operators_python_frames(self, engine):
        """The walk starts where the operator was entered, not at the request."""
        monitor = dlmonitor_init(engine)
        paths = []

        def on_gpu(event):
            if event.phase == "enter":
                paths.append(monitor.callpath_get())

        monitor.callback_register(DLMONITOR_GPU, on_gpu)
        with engine:
            x = tensor((64, 64))
            here = capture_user_frames()
            F.relu(x)
        file, line, function = here[-1]
        assert paths
        for path in paths:
            python = [(frame.file, frame.line, frame.name)
                      for frame in path.frames_of_kind(FrameKind.PYTHON)]
            assert python == here[:-1] + [(file, line + 1, function)]
            assert "on_gpu" not in {name for _file, _line, name in python}

    def test_python_frames_captured_only_when_needed(self, engine):
        """An operator that launches nothing walks no Python stack."""
        config = ProfilerConfig.without_native()
        config.collect_cpu_time = False
        profiler = DeepContextProfiler(engine, config)
        with engine, profiler.profile():
            stats = profiler.monitor.stats
            at_entry = {}
            profiler.monitor.callback_register(
                DLMONITOR_FRAMEWORK,
                lambda event: at_entry.setdefault(event.op_name, stats.python_captures)
                if event.phase == "enter" else None)
            x = tensor((8, 8))
            before = stats.python_captures
            F.reshape(x, (64,))
            assert stats.python_captures == before
            F.relu(x)
            assert stats.python_captures == before + 1
            assert at_entry["aten::relu"] == before

            before = stats.python_captures
            F.linear(x, tensor((4, 8), requires_grad=True))  # has a sequence ID
            assert at_entry["aten::linear"] == before + 1
            assert stats.python_captures == before + 1


class TestCallPathGet:
    def test_full_callpath_inside_gpu_callback(self, engine):
        monitor = dlmonitor_init(engine)
        paths = []
        monitor.callback_register(
            DLMONITOR_GPU,
            lambda event: paths.append(dlmonitor_callpath_get(monitor)) if event.phase == "enter" else None)
        with engine:
            layer = modules.Conv2d(3, 8, name="conv")
            layer(tensor((1, 3, 16, 16)))
        assert paths
        kinds = set()
        for path in paths:
            kinds.update(path.kinds())
        assert {FrameKind.PYTHON, FrameKind.FRAMEWORK, FrameKind.NATIVE,
                FrameKind.GPU_API, FrameKind.GPU_KERNEL} <= kinds

    def test_sources_disable_layers(self, engine):
        monitor = dlmonitor_init(engine)
        captured = {}

        def on_gpu(event):
            if event.phase != "enter" or captured:
                return
            captured["full"] = monitor.callpath_get(CallPathSources.all())
            captured["no_native"] = monitor.callpath_get(CallPathSources.without_native())
            captured["python_only"] = monitor.callpath_get(CallPathSources.python_only())

        monitor.callback_register(DLMONITOR_GPU, on_gpu)
        with engine:
            F.relu(tensor((8, 8)))
        assert captured["full"].has_kind(FrameKind.NATIVE)
        assert not captured["no_native"].has_kind(FrameKind.NATIVE)
        assert captured["no_native"].has_kind(FrameKind.FRAMEWORK)
        assert not captured["python_only"].has_kind(FrameKind.FRAMEWORK)
        assert not captured["python_only"].has_kind(FrameKind.GPU_API)

    def test_callpath_outside_any_operator(self, engine):
        monitor = dlmonitor_init(engine)
        with engine:
            path = monitor.callpath_get()
        assert path.root.kind == FrameKind.ROOT
        assert path.has_kind(FrameKind.THREAD)

    def test_callpath_cache_reduces_python_captures(self, engine):
        cached_monitor = dlmonitor_init(engine, enable_callpath_cache=True)
        with engine:
            layer = modules.Conv2d(3, 8, name="conv")
            layer(tensor((1, 3, 16, 16)))
        uncached_engine = EagerEngine("a100")
        uncached_monitor = dlmonitor_init(uncached_engine, enable_callpath_cache=False)
        uncached_monitor.callback_register(
            DLMONITOR_GPU,
            lambda event: uncached_monitor.callpath_get() if event.phase == "enter" else None)
        cached_monitor.callback_register(
            DLMONITOR_GPU,
            lambda event: cached_monitor.callpath_get() if event.phase == "enter" else None)
        with uncached_engine:
            layer = modules.Conv2d(3, 8, name="conv")
            layer(tensor((1, 3, 16, 16)))
        with engine:
            layer = modules.Conv2d(3, 8, name="conv")
            layer(tensor((1, 3, 16, 16)))
        assert cached_monitor.cache_hit_rate > 0
        assert cached_monitor.stats.python_captures < uncached_monitor.stats.python_captures

    def test_backward_thread_paths_reuse_forward_python_context(self, engine):
        monitor = dlmonitor_init(engine)
        backward_paths = []
        monitor.callback_register(
            DLMONITOR_GPU,
            lambda event: backward_paths.append(monitor.callpath_get())
            if event.phase == "enter" and engine.threads.current.kind == "backward" else None)
        with engine:
            embedding = modules.Embedding(1000, 16, use_index=True, name="table")
            indices = tensor((64,), dtype="int64", duplicate_fraction=0.5)
            loss = F.sum_(embedding(indices))
            engine.backward(loss)
        assert backward_paths
        grafted = [path for path in backward_paths if path.has_kind(FrameKind.PYTHON)]
        assert grafted, "backward call paths lost the forward Python context"
        assert any(frame.name == "aten::index" for path in grafted
                   for frame in path.frames_of_kind(FrameKind.FRAMEWORK))


class TestLaunchContext:
    def _launches(self, engine, sources):
        """(key, frames above the GPU leaf) of every launch of three relus."""
        monitor = dlmonitor_init(engine)
        launches = []

        def on_gpu(event):
            if event.phase != "enter":
                return
            thread = engine.threads.current
            state = monitor.thread_state(thread)
            read = monitor.native_read(state) if sources.native else None
            key = monitor.launch_context(sources, state, read)
            path = monitor.callpath_get(sources, thread)
            launches.append((key, path.frames[:-2]))

        monitor.callback_register(DLMONITOR_GPU, on_gpu)
        with engine:
            x = tensor((8, 8))
            for _ in range(2):
                F.relu(x)
            F.relu(x)
        return launches

    def test_same_operator_from_two_lines_gets_two_keys(self, engine):
        (first, above), (again, above_again), (other, _) = self._launches(
            engine, CallPathSources.without_native())
        assert first is not None
        assert first == again and above == above_again
        assert other != first

    def test_same_operator_from_two_lines_gets_two_native_keys(self, engine):
        """With native frames on, the key holds the pcs of the native frames
        the launch's call path holds, innermost first."""
        (first, above), (again, above_again), (other, _) = self._launches(
            engine, CallPathSources.all())
        assert first is not None
        assert first == again and above == above_again
        assert other != first
        native = [frame.pc for frame in above if frame.kind is FrameKind.NATIVE]
        assert native and first[2] == tuple(reversed(native))


class TestThreadState:
    def test_running_operator_is_the_stack_top(self, engine):
        monitor = dlmonitor_init(engine)
        state = monitor.thread_state(engine.threads.main)
        tops = []
        monitor.callback_register(
            DLMONITOR_GPU,
            lambda event: tops.append(state.stack[-1].op_name) if event.phase == "enter" else None)
        with engine:
            F.relu(tensor((8, 8)))
        assert tops and set(tops) == {"aten::relu"}
        assert state.stack == []

    def test_callpath_outside_an_operator_misses_and_inside_hits(self, engine):
        monitor = dlmonitor_init(engine)
        monitor.callback_register(
            DLMONITOR_GPU,
            lambda event: monitor.callpath_get()
            if event.phase == "enter" and not monitor.cache_hits else None)
        with engine:
            monitor.callpath_get()
            assert (monitor.cache_hits, monitor.cache_misses) == (0, 1)
            F.relu(tensor((8, 8)))
        assert (monitor.cache_hits, monitor.cache_misses) == (1, 1)
        assert monitor.cache_hit_rate == 0.5

    def test_gpu_call_is_set_only_while_the_launch_runs(self, engine):
        monitor = dlmonitor_init(engine)
        state = monitor.thread_state(engine.threads.main)
        calls = []
        monitor.callback_register(
            DLMONITOR_GPU,
            lambda event: calls.append((event.correlation_id, state.gpu_call))
            if event.phase == "enter" else None)
        with engine:
            F.relu(tensor((8, 8)))
        assert calls
        assert all(call is not None and call.correlation_id == correlation_id
                   for correlation_id, call in calls)
        assert state.gpu_call is None

    def test_finalize_drops_every_thread_record(self):
        engine = EagerEngine("a100")
        profiler = DeepContextProfiler(engine, ProfilerConfig.without_native())
        with engine, profiler.profile():
            w = tensor((4, 8), requires_grad=True)
            engine.backward(F.sum_(F.linear(tensor((2, 8)), w)))
            monitor = profiler.monitor
            states = {thread: monitor.thread_state(thread) for thread in engine.threads}
        assert len(states) > 1
        assert all(isinstance(node, CCTNode)
                   for state in states.values() for node in state.launch_nodes.values())
        assert any(state.launch_nodes for state in states.values())
        assert all(monitor.thread_state(thread) is not state
                   for thread, state in states.items())

    def test_operator_entered_inside_another_does_not_leak_its_context(self):
        """A hook runs sigmoid as relu enters; relu's kernel stays under relu's line."""
        def relu_kernel_python_paths(preset, callpath_cache):
            engine = EagerEngine("a100")
            config = preset()
            config.callpath_cache = callpath_cache
            profiler = DeepContextProfiler(engine, config)
            x = tensor((64, 64))

            def run_sigmoid_in_relu(info):
                if info.phase == PHASE_BEFORE and info.op_name == "aten::relu":
                    F.sigmoid(x)

            with engine, profiler.profile():
                engine.add_global_callback(run_sigmoid_in_relu)
                F.relu(x)
                engine.synchronize()
            paths = []
            for kernel in profiler.database.tree.kernels:
                path = kernel.callpath()
                operators = [frame.name for frame in path.frames_of_kind(FrameKind.FRAMEWORK)]
                if operators == ["aten::relu"]:
                    paths.append([(frame.file, frame.line, frame.name)
                                  for frame in path.frames_of_kind(FrameKind.PYTHON)])
            return paths

        for preset in (ProfilerConfig.without_native, ProfilerConfig.full):
            # One call site for both runs: the profile records this test's line.
            cached, reference = (relu_kernel_python_paths(preset, cache)
                                 for cache in (True, False))
            assert cached and cached == reference
            assert all(name != "run_sigmoid_in_relu"
                       for path in cached for _file, _line, name in path)


class TestJitInterception:
    def test_fusion_map_populated_from_compilation_callbacks(self, engine):
        compiler = JitCompiler(engine)
        monitor = dlmonitor_init(engine, jit_compiler=compiler)

        def step(x, w):
            return F.sum_(F.relu(F.gelu(F.linear(x, w))))

        with engine:
            compiled = jit(step, engine=engine, compiler=compiler)
            compiled(tensor((4, 16)), tensor((8, 16)))
        assert monitor.stats.compilation_events > 0
        assert len(monitor.fusion_map) >= 1
        record = monitor.fusion_map.records[0]
        assert len(record.originals) >= 2


class TestAuditing:
    def test_library_auditor_detects_python_boundary(self, engine):
        auditor = LibraryAuditor(engine.address_space)
        assert LIBPYTHON in auditor.loaded_libraries()
        py_eval = engine.address_space.library(LIBPYTHON).symbols["PyEval_EvalFrameDefault"]
        start, end = auditor.python_pc_range()
        assert start <= py_eval.address + 1 < end
        assert auditor.library_of(py_eval.address + 1) == LIBPYTHON

    def test_parse_interception_config(self):
        configs = parse_interception_config({
            "functions": ["customLaunch",
                          {"function": "vendorMemcpy", "signature": ["void*", "size_t"]}],
        })
        assert [config.function for config in configs] == ["customLaunch", "vendorMemcpy"]
        with pytest.raises(ValueError):
            parse_interception_config({"functions": [{"signature": []}]})

    def test_custom_driver_interceptor_filters_functions(self, engine):
        configs = parse_interception_config({"functions": ["cudaMemcpyAsync"]})
        interceptor = CustomDriverInterceptor(engine.runtime, configs)
        seen = []
        interceptor.install(lambda data: seen.append(data.api_name))
        engine.runtime.launch_kernel(KernelSpec(name="k"))
        engine.runtime.memcpy(1024, "h2d")
        assert set(seen) == {"cudaMemcpyAsync"}
        assert interceptor.intercepted == 2 and interceptor.skipped == 2
        interceptor.uninstall()
        engine.runtime.memcpy(1024, "h2d")
        assert interceptor.intercepted == 2
