"""Unit tests for the call-path integration rules (CallPathBuilder in isolation).

The end-to-end behaviour is covered in ``test_dlmonitor.py``; these tests
construct thread states by hand to pin down the individual integration rules:
the libpython boundary, operator insertion under the matching native frame,
the cached-prefix early stop, backward-thread grafting and source selection.
"""

import pytest

from repro.cpu.clock import MachineClock
from repro.dlmonitor.association import ForwardRecord
from repro.dlmonitor.audit import LibraryAuditor
from repro.dlmonitor.callpath import FrameKind
from repro.dlmonitor.integration import CallPathBuilder, CallPathSources
from repro.dlmonitor.shadow_stack import ShadowEntry
from repro.framework.threads import THREAD_BACKWARD, THREAD_MAIN, ThreadRegistry
from repro.gpu.runtime import ApiCallbackData, ApiPhase, KernelFunction
from repro.native.symbols import LIBCUDART, LIBPYTHON, LIBTORCH_CPU, LIBTORCH_CUDA, standard_address_space
from repro.native.unwinder import Unwinder


@pytest.fixture
def setup():
    """An address space, a main thread with a realistic native stack, a builder."""
    space = standard_address_space()
    registry = ThreadRegistry(MachineClock())
    thread = registry.main
    thread.kind = THREAD_MAIN
    # Simulated native stack: libc -> libpython -> dispatcher -> impl -> launch.
    for library, name in ((("libc.so", "__libc_start_main")),
                          (LIBPYTHON, "PyEval_EvalFrameDefault"),
                          (LIBTORCH_CPU, "at::_ops::conv2d::call"),
                          (LIBTORCH_CUDA, "at::native::cudnn_convolution"),
                          (LIBCUDART, "cudaLaunchKernel")):
        thread.native_stack.push(space.add_symbol(library, name))
    builder = CallPathBuilder(LibraryAuditor(space), Unwinder(space), "unit")
    return space, thread, builder


def _shadow_for(thread, op_name="aten::conv2d", backward=False, sequence_id=1):
    dispatch_frame = thread.native_stack.frames[2]  # at::_ops::conv2d::call
    return [ShadowEntry(op_name=op_name, is_backward=backward, sequence_id=sequence_id,
                        dispatch_pc=dispatch_frame.pc,
                        python_callpath=(("model.py", 42, "forward"),),
                        scope=("net", "conv1"))]


PYTHON_TRIPLES = (("train.py", 7, "train_step"), ("model.py", 42, "forward"))


def _launch(kernel_name):
    """The enter callback of a ``cudaLaunchKernel`` of ``kernel_name``."""
    return ApiCallbackData("cudaLaunchKernel", ApiPhase.ENTER, correlation_id=1,
                           device="A100", kernel_function=KernelFunction(kernel_name))


class TestIntegrationRules:
    def test_full_integration_order(self, setup):
        _space, thread, builder = setup
        path = builder.build(thread, _shadow_for(thread), PYTHON_TRIPLES,
                             CallPathSources.all(),
                             gpu_leaf=_launch("conv_kernel"))
        kinds = path.kinds()
        # Root/thread, then Python, then framework scopes+op, native, GPU API, kernel.
        assert kinds[0] == FrameKind.ROOT and kinds[1] == FrameKind.THREAD
        assert kinds.index(FrameKind.PYTHON) < kinds.index(FrameKind.FRAMEWORK)
        assert kinds.index(FrameKind.FRAMEWORK) < kinds.index(FrameKind.NATIVE)
        assert kinds[-2:] == [FrameKind.GPU_API, FrameKind.GPU_KERNEL]

    def test_libpython_frames_replaced_by_python_path(self, setup):
        _space, thread, builder = setup
        path = builder.build(thread, _shadow_for(thread), PYTHON_TRIPLES, CallPathSources.all())
        native_names = [frame.name for frame in path.frames_of_kind(FrameKind.NATIVE)]
        assert "PyEval_EvalFrameDefault" not in native_names
        assert "__libc_start_main" not in native_names
        python_files = [frame.file for frame in path.frames_of_kind(FrameKind.PYTHON)]
        assert python_files == ["train.py", "model.py"]

    def test_operator_inserted_above_its_dispatch_frame(self, setup):
        _space, thread, builder = setup
        path = builder.build(thread, _shadow_for(thread), PYTHON_TRIPLES, CallPathSources.all())
        labels = [frame.name for frame in path]
        op_index = labels.index("aten::conv2d")
        dispatch_index = labels.index("at::_ops::conv2d::call")
        assert op_index == dispatch_index - 1

    def test_innermost_operator_wins_a_shared_dispatch_pc(self, setup):
        _space, thread, builder = setup
        shadow = _shadow_for(thread, op_name="outer") + _shadow_for(thread, op_name="inner")
        path = builder.build(thread, shadow, PYTHON_TRIPLES, CallPathSources.all())
        labels = [frame.name for frame in path]
        assert labels[labels.index("at::_ops::conv2d::call") - 1] == "inner"

    def test_scope_frames_precede_operator(self, setup):
        _space, thread, builder = setup
        path = builder.build(thread, _shadow_for(thread), PYTHON_TRIPLES, CallPathSources.all())
        framework_frames = path.frames_of_kind(FrameKind.FRAMEWORK)
        assert [frame.name for frame in framework_frames] == ["net", "conv1", "aten::conv2d"]
        assert framework_frames[0].tag == "scope"

    def test_without_native_source(self, setup):
        _space, thread, builder = setup
        path = builder.build(thread, _shadow_for(thread), PYTHON_TRIPLES,
                             CallPathSources.without_native())
        assert not path.has_kind(FrameKind.NATIVE)
        assert path.has_kind(FrameKind.PYTHON) and path.has_kind(FrameKind.FRAMEWORK)

    def test_without_framework_source_hides_operators(self, setup):
        _space, thread, builder = setup
        sources = CallPathSources(python=True, framework=False, native=True, gpu=True)
        path = builder.build(thread, _shadow_for(thread), PYTHON_TRIPLES, sources)
        assert not path.has_kind(FrameKind.FRAMEWORK)
        assert path.has_kind(FrameKind.NATIVE)

    def test_gpu_leaf_omitted_when_gpu_source_disabled(self, setup):
        _space, thread, builder = setup
        sources = CallPathSources(python=True, framework=True, native=True, gpu=False)
        path = builder.build(thread, _shadow_for(thread), PYTHON_TRIPLES, sources,
                             gpu_leaf=_launch("k"))
        assert not path.has_kind(FrameKind.GPU_API)
        assert not path.has_kind(FrameKind.GPU_KERNEL)

    def test_cached_prefix_supplies_python_frames(self, setup):
        _space, thread, builder = setup
        shadow = _shadow_for(thread)
        cached = ShadowEntry(op_name="aten::conv2d", is_backward=False, sequence_id=None,
                             dispatch_pc=shadow[-1].dispatch_pc,
                             python_callpath=PYTHON_TRIPLES, scope=("net",))
        path = builder.build(thread, shadow, (), CallPathSources.all(), cached_prefix=cached)
        python_files = [frame.file for frame in path.frames_of_kind(FrameKind.PYTHON)]
        assert python_files == ["train.py", "model.py"]

    def test_cached_prefix_stops_unwinding_early(self, setup):
        space, thread, builder = setup
        shadow = _shadow_for(thread)
        cached = ShadowEntry(op_name="aten::conv2d", is_backward=False, sequence_id=None,
                             dispatch_pc=shadow[-1].dispatch_pc,
                             python_callpath=PYTHON_TRIPLES, scope=())
        steps_before = builder.unwinder.steps
        builder.build(thread, shadow, (), CallPathSources.all(), cached_prefix=cached)
        cached_steps = builder.unwinder.steps - steps_before

        fresh_builder = CallPathBuilder(LibraryAuditor(space), Unwinder(space), "unit")
        fresh_builder.build(thread, shadow, PYTHON_TRIPLES, CallPathSources.all())
        uncached_steps = fresh_builder.unwinder.steps
        assert cached_steps <= uncached_steps

    def test_backward_thread_grafts_forward_record(self, setup):
        space, _main, builder = setup
        registry = ThreadRegistry(MachineClock())
        backward = registry.create("backward-0", kind=THREAD_BACKWARD)
        for library, name in ((LIBTORCH_CUDA, "autograd::engine::evaluate_function"),
                              (LIBCUDART, "cudaLaunchKernel")):
            backward.native_stack.push(space.add_symbol(library, name))
        shadow = [ShadowEntry(op_name="aten::index", is_backward=True, sequence_id=9,
                              dispatch_pc=backward.native_stack.frames[0].pc,
                              python_callpath=(), scope=())]
        record = ForwardRecord(op_name="aten::index",
                               python_callpath=(("dlrm.py", 33, "forward"),),
                               scope=("table0",))
        path = builder.build(backward, shadow, (), CallPathSources.all(),
                             forward_record=record,
                             gpu_leaf=_launch("indexing_backward_kernel"))
        python_files = [frame.file for frame in path.frames_of_kind(FrameKind.PYTHON)]
        assert python_files == ["dlrm.py"]
        names = [frame.name for frame in path.frames_of_kind(FrameKind.FRAMEWORK)]
        assert "table0" in names and "aten::index" in names
        assert path.leaf.name == "indexing_backward_kernel"

    def test_backward_thread_without_record_has_no_python(self, setup):
        space, _main, builder = setup
        registry = ThreadRegistry(MachineClock())
        backward = registry.create("backward-0", kind=THREAD_BACKWARD)
        backward.native_stack.push(space.add_symbol(LIBCUDART, "cudaLaunchKernel"))
        path = builder.build(backward, [], (), CallPathSources.all())
        assert not path.has_kind(FrameKind.PYTHON)
        assert path.has_kind(FrameKind.NATIVE)
