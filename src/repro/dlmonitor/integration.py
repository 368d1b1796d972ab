"""Call-path integration: assembling the unified multi-layer call path.

This is the key innovation of DLMonitor (paper §4.1, "Call Path Integration"):
the Python call path, the framework operator shadow stack and the native C/C++
call path are merged into a single root→leaf call path, optionally extended
with the GPU API and GPU kernel frames at a kernel-launch callback.

The integration rules follow the paper:

* the native call path is traversed bottom-up; a native frame whose program
  counter matches a recorded operator dispatch address causes the operator
  frame to be inserted under its caller;
* native frames that fall inside ``libpython``'s address range are replaced by
  the Python call path (they are the interpreter executing the user's code);
* on backward threads (no Python context) the forward operator's Python and
  framework context — found through the sequence-ID association — is grafted
  in front of the backward native call path;
* at a GPU kernel launch, the GPU API frame and the kernel name are appended
  at the leaf.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..framework.threads import ThreadContext
from ..gpu.runtime import ApiCallbackData
from ..native.unwinder import NativeFrame, Unwinder
from ..pycontext import PyFrame
from .association import ForwardRecord
from .audit import LibraryAuditor
from .callpath import (
    CallPath,
    Frame,
    framework_frame,
    gpu_api_frame,
    gpu_kernel_frame,
    native_frame,
    python_frames_from_triples,
    scope_frame,
    root_frame,
    thread_frame,
)
from .shadow_stack import ShadowEntry


@dataclass(frozen=True)
class CallPathSources:
    """Which call-path sources to integrate (``dlmonitor_callpath_get`` argument).

    Disabling sources reduces overhead; the paper's evaluation compares the
    full configuration against the variant without native C/C++ frames.
    """

    python: bool = True
    framework: bool = True
    native: bool = True
    gpu: bool = True

    @classmethod
    def all(cls) -> "CallPathSources":
        return cls(True, True, True, True)

    @classmethod
    def without_native(cls) -> "CallPathSources":
        return cls(python=True, framework=True, native=False, gpu=True)

    @classmethod
    def python_only(cls) -> "CallPathSources":
        return cls(python=True, framework=False, native=False, gpu=False)


def gpu_leaf_frames(data: ApiCallbackData) -> Tuple[Frame, ...]:
    """The GPU API frame and, for a kernel launch, the kernel frame of ``data``."""
    library = "libcudart.so" if data.api_name.startswith("cuda") else "libamdhip64.so"
    api_frame = gpu_api_frame(data.api_name, library=library)
    kernel = data.kernel_function
    if kernel is None or not kernel.name:
        return (api_frame,)
    return (api_frame, gpu_kernel_frame(kernel.name, device=data.device))


class CallPathBuilder:
    """Builds unified call paths for a thread from the configured sources."""

    def __init__(self, auditor: LibraryAuditor, unwinder: Unwinder,
                 program_name: str = "program") -> None:
        self.auditor = auditor
        self.unwinder = unwinder
        self.program_name = program_name
        # The (root, thread) prefix of a thread's paths never changes; frames
        # are immutable, so one shared pair per tid serves every build — this
        # is a per-event path (every sample, launch and operator callback).
        self._thread_prefixes: Dict[int, Tuple[Frame, Frame]] = {}

    def build(
        self,
        thread: ThreadContext,
        stack: Sequence[ShadowEntry],
        python_triples: Sequence[PyFrame],
        sources: CallPathSources,
        gpu_leaf: Optional[ApiCallbackData] = None,
        cached_prefix: Optional[ShadowEntry] = None,
        forward_record: Optional[ForwardRecord] = None,
    ) -> CallPath:
        """Assemble the unified call path for ``thread``, ending at ``gpu_leaf``'s frames.

        ``stack`` is the thread's shadow stack, outermost operator first.
        """
        prefix = self._thread_prefixes.get(thread.tid)
        if prefix is None:
            prefix = (root_frame(self.program_name), thread_frame(thread.name, thread.tid))
            self._thread_prefixes[thread.tid] = prefix
        frames: List[Frame] = list(prefix)

        python_part = self._python_part(thread, python_triples, sources,
                                         cached_prefix, forward_record)
        framework_part = self._framework_part(stack, sources, forward_record)

        if sources.native and thread.native_stack.depth:
            frames.extend(self._integrate_native(thread, stack, python_part,
                                                 framework_part, cached_prefix,
                                                 include_operators=sources.framework))
        else:
            frames.extend(python_part)
            frames.extend(framework_part)

        if sources.gpu and gpu_leaf is not None:
            frames.extend(gpu_leaf_frames(gpu_leaf))
        return CallPath.of(frames)

    # -- parts ---------------------------------------------------------------------

    def _python_part(self, thread: ThreadContext, python_triples: Sequence[PyFrame],
                     sources: CallPathSources, cached_prefix: Optional[ShadowEntry],
                     forward_record: Optional[ForwardRecord]) -> List[Frame]:
        if not sources.python:
            return []
        if thread.has_python_context:
            triples = tuple(python_triples)
            if not triples and cached_prefix is not None:
                triples = cached_prefix.python_callpath
            return python_frames_from_triples(triples)
        # Backward / detached thread: graft the forward operator's Python path.
        if forward_record is not None:
            return python_frames_from_triples(forward_record.python_callpath)
        return []

    def _framework_part(self, stack: Sequence[ShadowEntry], sources: CallPathSources,
                        forward_record: Optional[ForwardRecord]) -> List[Frame]:
        if not sources.framework:
            return []
        frames: List[Frame] = []
        # A scope frame's identity is its name (operator frames never share
        # a scope's identity), so the names seen so far dedupe scopes.
        scopes_seen = set()
        if forward_record is not None:
            for scope_name in forward_record.scope:
                frames.append(scope_frame(scope_name))
            scopes_seen.update(forward_record.scope)
            frames.append(framework_frame(forward_record.op_name, backward=False))
        for entry in stack:
            for scope_name in entry.scope:
                if scope_name not in scopes_seen:
                    scopes_seen.add(scope_name)
                    frames.append(scope_frame(scope_name))
            frames.append(framework_frame(entry.op_name, backward=entry.is_backward))
        return frames

    def _integrate_native(self, thread: ThreadContext, stack: Sequence[ShadowEntry],
                          python_part: List[Frame], framework_part: List[Frame],
                          cached_prefix: Optional[ShadowEntry],
                          include_operators: bool = True) -> List[Frame]:
        """Merge native frames with the Python and framework parts.

        The native stack is unwound bottom-up (``unw_step``-style).  When call-
        path caching is active the unwind stops as soon as the cached
        operator's dispatch frame is reached; the cached prefix stands in for
        everything above it.
        """
        cursor = self.unwinder.cursor(thread.native_stack)
        collected: List[Tuple[NativeFrame, Optional[Frame]]] = []
        stop_pc = cached_prefix.dispatch_pc if cached_prefix is not None else None
        reached_python_boundary = False
        # Operators by dispatch pc: the innermost wins a pc several share.
        operators = {entry.dispatch_pc: entry for entry in stack} if include_operators else {}

        for frame in cursor:
            operator_frame: Optional[Frame] = None
            if operators:
                entry = operators.get(frame.pc)
                if entry is not None:
                    operator_frame = framework_frame(entry.op_name, backward=entry.is_backward)
            if self.auditor.is_python_frame_pc(frame.pc):
                # Everything above this point is the interpreter: it is
                # represented by the Python call path instead.
                reached_python_boundary = True
                break
            collected.append((frame, operator_frame))
            if stop_pc is not None and frame.pc == stop_pc:
                break
        self.unwinder.charge(cursor)

        # ``collected`` is bottom-up; emit top-down with operator frames
        # inserted under their caller (i.e. just before the matching native
        # frame in top-down order).
        native_top_down: List[Frame] = []
        for frame, operator_frame in reversed(collected):
            if operator_frame is not None:
                native_top_down.append(operator_frame)
            native_top_down.append(native_frame(frame.function, frame.library, frame.pc))

        merged: List[Frame] = []
        merged.extend(python_part)
        # Framework scope frames (module names) come from the shadow stack and
        # have no native address; keep them between Python and native parts.
        scope_frames = [f for f in framework_part if f.tag == "scope"]
        merged.extend(scope_frames)
        inserted_ops = {f.identity() for f in native_top_down}
        for frame in framework_part:
            if frame.tag != "scope" and frame.identity() not in inserted_ops:
                merged.append(frame)
        if not reached_python_boundary and not python_part:
            # Pure native thread with no Python context at all: nothing to graft.
            pass
        merged.extend(native_top_down)
        return merged
