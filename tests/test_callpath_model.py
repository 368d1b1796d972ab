"""Tests for the call-path model, forward/backward association and the fusion map."""

import dataclasses

from hypothesis import given, strategies as st

from repro.dlmonitor import (
    CallPath,
    ForwardBackwardAssociator,
    Frame,
    FrameKind,
    FusionMap,
    OriginalOperator,
    callpath,
    framework_frame,
    gpu_api_frame,
    gpu_kernel_frame,
    native_frame,
    python_frame,
    python_frames_from_triples,
    root_frame,
    thread_frame,
)
from repro.dlmonitor.callpath import (
    clear_frame_intern,
    frame_intern_size,
    gpu_instruction_frame,
    gpu_instruction_identity,
    gpu_leaf_frames,
    intern_frame,
    scope_frame,
)
from repro.gpu.runtime import ApiCallbackData, ApiPhase, KernelFunction


class TestFrameIdentity:
    def test_python_frames_compare_by_file_and_line(self):
        a = python_frame("model.py", 10, "forward")
        b = python_frame("model.py", 10, "forward_renamed")
        c = python_frame("model.py", 11, "forward")
        assert a.identity() == b.identity()
        assert a.identity() != c.identity()

    def test_native_frames_compare_by_library_and_pc(self):
        a = native_frame("f", "libtorch.so", 0x100)
        b = native_frame("g", "libtorch.so", 0x100)
        c = native_frame("f", "libtorch.so", 0x200)
        assert a.identity() == b.identity()
        assert a.identity() != c.identity()

    def test_framework_frames_compare_by_name_and_direction(self):
        forward = framework_frame("aten::conv2d")
        backward = framework_frame("aten::conv2d", backward=True)
        assert forward.identity() != backward.identity()
        assert "[backward]" in backward.label()

    def test_kernel_frames_compare_by_name(self):
        assert gpu_kernel_frame("k", "a100").identity() == gpu_kernel_frame("k", "mi250").identity()

    @given(st.text(max_size=8), st.integers(min_value=0, max_value=2**32),
           st.sampled_from(["", "none", "long_scoreboard", "memory_throttle"]))
    def test_instruction_identity_helper_matches_the_frame(self, kernel, pc_offset, stall):
        """A sample probes its instruction's node by this key; the stall reason is no part of it."""
        assert (gpu_instruction_identity(kernel, pc_offset)
                == gpu_instruction_frame(kernel, pc_offset, stall).identity())

    def test_labels_are_human_readable(self):
        assert "model.py:3" in python_frame("/x/model.py", 3, "f").label()
        assert "[libc.so]" in native_frame("f", "libc.so", 1).label()
        assert "long_scoreboard" in Frame(kind=FrameKind.GPU_INSTRUCTION, name="k",
                                          pc=16, tag="long_scoreboard").label()


def _helper_cases(name, text, number, flag):
    """(helper, arguments, directly constructed frame) for every interning helper."""
    python = Frame(kind=FrameKind.PYTHON, name=name, file=text, line=number)
    return [
        (python_frame, (text, number, name), python),
        (lambda *triple: python_frames_from_triples([triple])[0], (text, number, name), python),
        (framework_frame, (name, flag),
         Frame(kind=FrameKind.FRAMEWORK, name=name, tag="backward" if flag else "")),
        (native_frame, (name, text, number),
         Frame(kind=FrameKind.NATIVE, name=name, library=text, pc=number)),
        (gpu_api_frame, (name, text, number),
         Frame(kind=FrameKind.GPU_API, name=name, library=text, pc=number)),
        (scope_frame, (name,), Frame(kind=FrameKind.FRAMEWORK, name=name, tag="scope")),
        (gpu_kernel_frame, (name, text), Frame(kind=FrameKind.GPU_KERNEL, name=name, tag=text)),
        (root_frame, (name,), Frame(kind=FrameKind.ROOT, name=name)),
    ]


class TestFrameInterning:
    @given(name=st.text(max_size=6), text=st.text(max_size=6),
           number=st.integers(min_value=0, max_value=2**40), flag=st.booleans())
    def test_helpers_intern_by_constructor_arguments(self, name, text, number, flag):
        cases = _helper_cases(name, text, number, flag)
        for helper, args, direct in cases:
            frame = helper(*args)
            assert frame == direct and type(frame) is Frame
            assert frame.identity() == direct.identity()
            assert helper(*args) is frame
            assert intern_frame(dataclasses.replace(direct)) is frame

        api_name = ("cuda" if flag else "hip") + name
        launch = ApiCallbackData(api_name=api_name, phase=ApiPhase.ENTER, correlation_id=1,
                                 device=text, kernel_function=KernelFunction(name))
        api = Frame(kind=FrameKind.GPU_API, name=api_name,
                    library="libcudart.so" if flag else "libamdhip64.so")
        kernel = Frame(kind=FrameKind.GPU_KERNEL, name=name, tag=text)
        leaf = gpu_leaf_frames(launch)
        assert leaf == ((api, kernel) if name else (api,))
        assert gpu_leaf_frames(dataclasses.replace(launch)) is leaf
        assert leaf[0] is gpu_api_frame(api.name, api.library)

        clear_frame_intern()
        assert frame_intern_size() == 0 and not callpath._PYTHON_FRAMES
        assert not callpath._GPU_LEAVES
        # After a reset, whichever of intern_frame and a helper comes first
        # supplies the canonical object, and the leaf memo is rebuilt from it.
        for helper, args, direct in cases:
            clear_frame_intern()
            fresh = dataclasses.replace(direct)
            assert intern_frame(fresh) is fresh
            assert helper(*args) is fresh
        clear_frame_intern()
        fresh = dataclasses.replace(api)
        assert intern_frame(fresh) is fresh
        assert gpu_leaf_frames(launch) is not leaf and gpu_leaf_frames(launch)[0] is fresh

    def test_python_frames_from_triples_keeps_order_and_duplicates(self):
        triples = [("a.py", 1, "f"), ("b.py", 2, "g"), ("a.py", 1, "f")]
        frames = python_frames_from_triples(triples)
        assert [(f.file, f.line, f.name) for f in frames] == triples
        assert frames[0] is frames[2]


class TestCallPath:
    def _path(self):
        return CallPath.of([root_frame(), thread_frame("main", 1),
                            python_frame("a.py", 1, "main"),
                            framework_frame("aten::relu"),
                            gpu_kernel_frame("relu_kernel")])

    def test_accessors(self):
        path = self._path()
        assert path.depth == 5
        assert path.root.kind == FrameKind.ROOT
        assert path.leaf.kind == FrameKind.GPU_KERNEL
        assert path.has_kind(FrameKind.PYTHON)
        assert len(path.frames_of_kind(FrameKind.FRAMEWORK)) == 1
        assert bool(path) and not bool(CallPath())

    def test_extended_and_prefixed_do_not_mutate(self):
        path = self._path()
        longer = path.extended(gpu_kernel_frame("second"))
        assert longer.depth == path.depth + 1
        prefixed = path.prefixed(root_frame("other"))
        assert prefixed.depth == path.depth + 1
        assert path.depth == 5

    def test_format_is_indented(self):
        text = self._path().format()
        assert text.splitlines()[0].startswith("program")
        assert text.splitlines()[-1].strip().startswith("relu_kernel")

    @given(st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=10))
    def test_extended_preserves_order(self, names):
        path = CallPath()
        for name in names:
            path = path.extended(framework_frame(name))
        assert [frame.name for frame in path] == names


class TestForwardBackwardAssociator:
    def test_record_and_lookup(self):
        associator = ForwardBackwardAssociator()
        associator.record_forward(7, "aten::index", (("dlrm.py", 42, "forward"),), ("table0",))
        record = associator.lookup(7)
        assert record.op_name == "aten::index"
        assert record.python_callpath[0][2] == "forward"
        assert associator.lookup(99) is None
        assert associator.lookup(None) is None

    def test_none_sequence_id_not_recorded(self):
        associator = ForwardBackwardAssociator()
        associator.record_forward(None, "aten::relu", (), ())
        assert associator.size == 0

    def test_eviction_keeps_most_recent(self):
        associator = ForwardBackwardAssociator(max_records=4)
        for sequence_id in range(10):
            associator.record_forward(sequence_id, "op", (), ())
        assert associator.size == 4
        assert [sequence_id for sequence_id in range(10)
                if associator.lookup(sequence_id) is not None] == [6, 7, 8, 9]

    def test_record_released_when_its_backward_operator_exits(self):
        associator = ForwardBackwardAssociator()
        python_callpath = (("model.py", 3, "forward"),)
        for sequence_id in (1, 2):
            associator.record_forward(sequence_id, "aten::linear", python_callpath, ())
        assert associator.lookup(2).python_callpath is python_callpath
        associator.release(2)
        assert associator.lookup(2) is None
        assert associator.lookup(1) is not None and associator.size == 1

    def test_records_skipped_by_the_backward_pass_dropped_at_next_forward(self):
        associator = ForwardBackwardAssociator()
        for sequence_id in (1, 2, 3):
            associator.record_forward(sequence_id, "op", (), ())
        associator.release(3)  # the backward pass skips 2 and 1
        assert associator.size == 2
        associator.record_forward(4, "op", (), ())
        assert associator.size == 1
        assert associator.lookup(4) is not None
        assert associator.lookup(1) is None and associator.lookup(2) is None


class TestFusionMap:
    def test_record_and_lookup(self):
        fusion_map = FusionMap()
        originals = [OriginalOperator("aten::gelu", 1, (("model.py", 5, "ffn"),)),
                     OriginalOperator("aten::relu", 2, (("model.py", 6, "ffn"),))]
        fusion_map.record("xla::gelu_relu", "train_step", originals)
        assert "xla::gelu_relu" in fusion_map and len(fusion_map) == 1
        record = fusion_map.lookup("xla::gelu_relu")
        assert record.original_names == ["aten::gelu", "aten::relu"]
        callpaths = fusion_map.original_callpaths("xla::gelu_relu")
        assert len(callpaths) == 2 and callpaths[0][0][2] == "ffn"
        assert fusion_map.original_callpaths("xla::unknown") == []
