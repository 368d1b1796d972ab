"""Unified call-path representation.

A call path is an ordered sequence of frames from the outermost root to the
innermost leaf, mixing frame kinds from every level of the stack: Python
source frames, deep-learning framework operators, native C/C++ frames, GPU
runtime API calls, GPU kernels and (for fine-grained profiles) GPU
instructions.  Frame identity — which frames collapse into the same calling
context tree node — follows the paper: native/GPU frames compare by library
and program counter, Python frames by file and line, framework frames by
operator name.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


class FrameKind(Enum):
    """Which layer of the software stack a frame belongs to."""

    ROOT = "root"
    THREAD = "thread"
    PYTHON = "python"
    FRAMEWORK = "framework"
    NATIVE = "native"
    GPU_API = "gpu_api"
    GPU_KERNEL = "gpu_kernel"
    GPU_INSTRUCTION = "gpu_instruction"


@dataclass(frozen=True)
class Frame:
    """One frame of the unified call path."""

    kind: FrameKind
    name: str
    file: str = ""
    line: int = 0
    library: str = ""
    pc: int = 0
    #: Free-form annotation (e.g. "backward", a stall reason, a device name).
    tag: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "_identity", self._compute_identity())

    def identity(self) -> Tuple:
        """The key used to collapse equal frames in the calling context tree.

        Computed once per frame instance, at construction, because
        ``CallingContextTree.insert`` asks for it on every level of every
        inserted call path.
        """
        return self._identity

    def _compute_identity(self) -> Tuple:
        if self.kind == FrameKind.PYTHON:
            return (self.kind.value, self.file, self.line)
        if self.kind == FrameKind.FRAMEWORK:
            return (self.kind.value, self.name, self.tag)
        if self.kind in (FrameKind.NATIVE, FrameKind.GPU_API):
            return (self.kind.value, self.library, self.pc or self.name)
        if self.kind == FrameKind.GPU_INSTRUCTION:
            return gpu_instruction_identity(self.name, self.pc)
        return (self.kind.value, self.name)

    def label(self) -> str:
        """Human-readable label used by the GUI."""
        if self.kind == FrameKind.PYTHON:
            return f"{self.name} ({os.path.basename(self.file)}:{self.line})"
        if self.kind == FrameKind.FRAMEWORK and self.tag == "backward":
            return f"{self.name} [backward]"
        if self.kind == FrameKind.NATIVE and self.library:
            return f"{self.name} [{self.library}]"
        if self.kind == FrameKind.GPU_INSTRUCTION:
            return f"pc+0x{self.pc:x} ({self.tag})"
        return self.name

    def __str__(self) -> str:
        return self.label()


@dataclass(frozen=True)
class CallPath:
    """An immutable root→leaf sequence of frames."""

    frames: Tuple[Frame, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "frames", tuple(self.frames))

    # -- construction ------------------------------------------------------------

    @classmethod
    def of(cls, frames: Iterable[Frame]) -> "CallPath":
        return cls(frames=tuple(frames))

    def extended(self, *extra: Frame) -> "CallPath":
        """A new call path with ``extra`` frames appended at the leaf."""
        return CallPath(frames=self.frames + tuple(extra))

    def prefixed(self, *prefix: Frame) -> "CallPath":
        """A new call path with ``prefix`` frames inserted at the root."""
        return CallPath(frames=tuple(prefix) + self.frames)

    # -- accessors ----------------------------------------------------------------

    @property
    def depth(self) -> int:
        return len(self.frames)

    @property
    def leaf(self) -> Optional[Frame]:
        return self.frames[-1] if self.frames else None

    @property
    def root(self) -> Optional[Frame]:
        return self.frames[0] if self.frames else None

    def frames_of_kind(self, kind: FrameKind) -> List[Frame]:
        return [frame for frame in self.frames if frame.kind == kind]

    def has_kind(self, kind: FrameKind) -> bool:
        return any(frame.kind == kind for frame in self.frames)

    def kinds(self) -> List[FrameKind]:
        return [frame.kind for frame in self.frames]

    def __iter__(self):
        return iter(self.frames)

    def __len__(self) -> int:
        return len(self.frames)

    def __bool__(self) -> bool:
        return bool(self.frames)

    def format(self, indent: str = "  ") -> str:
        """Multi-line rendering, root at the top."""
        lines = []
        for depth, frame in enumerate(self.frames):
            lines.append(f"{indent * depth}{frame.label()}  <{frame.kind.value}>")
        return "\n".join(lines)


# -- frame interning --------------------------------------------------------------------

# Distinct frames built during live profiling are bounded by distinct code
# locations (the same argument that bounds the CCT's size).  Interning makes
# repeated call-path constructions reuse one Frame object, and so one
# identity tuple, per location.
#
# The table is keyed by the field tuple ``(kind value, name, file, line,
# library, pc, tag)`` — the same equivalence as Frame equality — so the
# helpers below look a frame up by their constructor arguments: a hit builds
# no Frame and hashes no FrameKind (whose hash is a Python-level call).
# ``_PYTHON_FRAMES`` maps ``(file, line, function)`` triples, which is what
# the Python part of every call path arrives as, to the same interned frames.
#
# ``_GPU_LEAVES`` maps ``(API name, kernel name, device)`` to the frames a
# GPU API call ends its call path with, so a launch builds no tuple either.
#
# Deserialization and thread frames deliberately do NOT intern (loaded trees
# build every frame exactly once, and tids are unbounded across sessions);
# long-lived processes can still call ``clear_frame_intern`` between sessions
# if they want a hard reset.
_FRAME_INTERN: Dict[Tuple, Frame] = {}
_PYTHON_FRAMES: Dict[Tuple[str, int, str], Frame] = {}
_GPU_LEAVES: Dict[Tuple[str, str, str], Tuple[Frame, ...]] = {}


def _interned(key: Tuple) -> Frame:
    """The canonical frame for a ``(kind value, name, file, line, library, pc, tag)`` key."""
    frame = _FRAME_INTERN.get(key)
    if frame is None:
        frame = _FRAME_INTERN[key] = Frame(FrameKind(key[0]), *key[1:])
    return frame


def intern_frame(frame: Frame) -> Frame:
    """Return the canonical instance for ``frame`` (by field equality)."""
    key = (frame.kind.value, frame.name, frame.file, frame.line,
           frame.library, frame.pc, frame.tag)
    cached = _FRAME_INTERN.get(key)
    if cached is None:
        _FRAME_INTERN[key] = frame
        return frame
    return cached


def frame_intern_size() -> int:
    """Number of frames currently pinned by the intern table."""
    return len(_FRAME_INTERN)


def clear_frame_intern() -> None:
    """Drop the intern tables (safe: interning is an identity optimisation only)."""
    _FRAME_INTERN.clear()
    _PYTHON_FRAMES.clear()
    _GPU_LEAVES.clear()


# -- frame construction helpers ---------------------------------------------------------

def python_frame(file: str, line: int, function: str) -> Frame:
    return _interned(("python", function, file, line, "", 0, ""))


def framework_frame(op_name: str, backward: bool = False) -> Frame:
    return _interned(("framework", op_name, "", 0, "", 0, "backward" if backward else ""))


def native_frame(function: str, library: str, pc: int = 0) -> Frame:
    return _interned(("native", function, "", 0, library, pc, ""))


def gpu_api_frame(api_name: str, library: str = "", pc: int = 0) -> Frame:
    return _interned(("gpu_api", api_name, "", 0, library, pc, ""))


def scope_frame(scope_name: str) -> Frame:
    """A module / semantic scope frame (``loss_fn``, layer names, ...)."""
    return _interned(("framework", scope_name, "", 0, "", 0, "scope"))


def gpu_kernel_frame(kernel_name: str, device: str = "") -> Frame:
    return _interned(("gpu_kernel", kernel_name, "", 0, "", 0, device))


def gpu_leaf_frames(data) -> Tuple[Frame, ...]:
    """The GPU API frame and, for a kernel launch, the kernel frame of ``data``.

    ``data`` is a GPU API call's ``ApiCallbackData``.  One memoized tuple
    serves every call of one API name, kernel name and device.
    """
    kernel = data.kernel_function
    key = (data.api_name, kernel.name if kernel is not None else "", data.device)
    leaf = _GPU_LEAVES.get(key)
    if leaf is None:
        api_name, kernel_name, device = key
        library = "libcudart.so" if api_name.startswith("cuda") else "libamdhip64.so"
        api_frame = gpu_api_frame(api_name, library=library)
        leaf = _GPU_LEAVES[key] = (
            (api_frame, gpu_kernel_frame(kernel_name, device=device)) if kernel_name
            else (api_frame,))
    return leaf


def gpu_instruction_frame(kernel_name: str, pc_offset: int, stall_reason: str) -> Frame:
    # Not interned: kernel × PC offset × stall reason is the highest-cardinality
    # frame space (one entry per sampled instruction), so pinning them in the
    # process-global table would dwarf the code-location-bounded entries.
    return Frame(kind=FrameKind.GPU_INSTRUCTION, name=kernel_name, pc=pc_offset, tag=stall_reason)


def gpu_instruction_identity(kernel_name: str, pc_offset: int) -> Tuple:
    """The identity of ``gpu_instruction_frame(kernel_name, pc_offset, ...)``.

    The stall reason is only a tag, so a sample can find the instruction's
    existing node without building its frame.
    """
    return ("gpu_instruction", kernel_name, pc_offset)


def thread_frame(thread_name: str, tid: int) -> Frame:
    # Not interned: tids are unbounded across a long-lived process's sessions,
    # unlike code locations, so interning here would grow the table forever.
    return Frame(kind=FrameKind.THREAD, name=f"thread:{thread_name}", pc=tid)


def root_frame(program: str = "program") -> Frame:
    return _interned(("root", program, "", 0, "", 0, ""))


def _python_frame_of(triple: Tuple[str, int, str]) -> Frame:
    frame = _PYTHON_FRAMES[triple] = python_frame(*triple)
    return frame


def python_frames_from_triples(triples: Sequence[Tuple[str, int, str]]) -> List[Frame]:
    """Convert ``(file, line, function)`` triples into Python frames."""
    table = _PYTHON_FRAMES
    return [table.get(triple) or _python_frame_of(triple) for triple in triples]
