"""The DLMonitor shim layer (paper §4.1).

DLMonitor sits between profilers and deep-learning frameworks: it intercepts
framework operations and GPU runtime APIs, converts them into a
framework-agnostic event format, and assembles unified call paths on demand.
The four core APIs of the paper are provided both as methods of
:class:`DLMonitor` and as module-level functions with the paper's C-style
names (``dlmonitor_init``, ``dlmonitor_callback_register``,
``dlmonitor_callpath_get``, ``dlmonitor_finalize``).

Per-event work is done only for a subscriber that asked for it.  Only a
forward operator with a sequence ID walks the Python stack at entry: the
backward pass reads those frames after that stack is gone.  Any other
operator walks it at the first call-path request inside it, from the frame
that entered it.  Events are built only for registered callbacks; the GPU
collector gets the raw ``ApiCallbackData`` and the calling thread's
:class:`ThreadState` record (see ``gpu_api_register``).  Each event resolves
that record once: the thread's shadow stack, its GPU API call in progress,
the collectors' shard and the GPU collector's launch-context table.

Call-path caching (paper §4.1, "Optimizations").  Many deep-learning
operators launch several GPU kernels that share the same Python and operator
call path.  The top of a thread's shadow stack is the cache: the entry pushed
when the innermost running operator was entered.  It holds the operator's
dispatch address, the GPU collector's launch-node memo and the Python call
path: walked at entry or at the first request inside the operator, then
reused by every later one.  Two modes exist:

* without native call-path collection, the cached Python path is concatenated
  with the shadow operator stack and the GPU API/kernel frames directly;
* with native collection, unwinding proceeds bottom-up only until the cached
  operator's dispatch frame is reached, then the cached prefix is reused.

The cache also spans invocations: ``launch_context`` keys the operator on
top of a thread's shadow stack by everything its call path holds above the
GPU leaf (the Python path, each stacked operator's name, direction and
scope, a backward thread's forward record, and with native collection the
pcs that bounded unwind reads and each stacked operator's dispatch pc).  The
GPU collector keeps, per thread, a table from those keys to the CCT node
above the launch leaves, so an operator called again from a context seen
before reaches that node without a new call path, as HPCToolkit's
trampolines let an unwind stop at the first frame an earlier one saw.  A
miss builds its call path from the frames the key's unwind read
(``native_read``), so no frame is unwound twice.  Walked Python paths, scope
tuples and native pcs tuples are interned per monitor, so equal keys and
forward records share their parts.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..framework.eager import CallbackInfo, EagerEngine, PHASE_BEFORE
from ..framework.jit import CompilationEvent, JitCompiler, PHASE_FUSION
from ..framework.threads import THREAD_BACKWARD, ThreadContext
from ..gpu.cupti import GpuTracingApi
from ..gpu.roctracer import tracing_api_for
from ..gpu.runtime import ApiCallbackData, ApiPhase
from ..native.unwinder import NativeFrame, Unwinder
from ..pycontext import PyFrame, capture_user_frames
from .association import ForwardBackwardAssociator, ForwardRecord
from .audit import CustomDriverInterceptor, LibraryAuditor, parse_interception_config
from .callpath import CallPath
from .domains import (
    DLMONITOR_FRAMEWORK,
    DLMONITOR_GPU,
    EVENT_COMPILATION,
    EVENT_OPERATOR,
    PHASE_ENTER,
    PHASE_EXIT,
    FrameworkEvent,
    GpuEvent,
)
from .fusion_map import FusionMap, OriginalOperator
from .integration import CallPathBuilder, CallPathSources
from .shadow_stack import ShadowEntry, ThreadState

FrameworkCallback = Callable[[FrameworkEvent], None]
GpuCallback = Callable[[GpuEvent], None]
#: A raw GPU API handler: the runtime's callback data and the calling thread's record.
GpuApiHandler = Callable[[ApiCallbackData, ThreadState], None]


@dataclass
class DLMonitorStats:
    """Bookkeeping used by tests and the overhead evaluation."""

    framework_events: int = 0
    gpu_events: int = 0
    compilation_events: int = 0
    callpaths_built: int = 0
    python_captures: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "framework_events": self.framework_events,
            "gpu_events": self.gpu_events,
            "compilation_events": self.compilation_events,
            "callpaths_built": self.callpaths_built,
            "python_captures": self.python_captures,
        }


class DLMonitor:
    """The shim layer between the profiler and the (simulated) framework."""

    def __init__(self, engine: EagerEngine, jit_compiler: Optional[JitCompiler] = None,
                 program_name: str = "program", enable_callpath_cache: bool = True,
                 interception_config: Optional[Dict[str, object]] = None) -> None:
        self.engine = engine
        self.jit_compiler = jit_compiler
        self.program_name = program_name
        self.enable_callpath_cache = enable_callpath_cache

        self.auditor = LibraryAuditor(engine.address_space)
        self.unwinder = Unwinder(engine.address_space)
        self.builder = CallPathBuilder(self.auditor, self.unwinder, program_name)
        self.associator = ForwardBackwardAssociator()
        self.fusion_map = FusionMap()
        self.tracing_api: GpuTracingApi = tracing_api_for(engine.runtime)
        self.stats = DLMonitorStats()
        #: Call-path requests the stack top served, and ones on an empty stack.
        self.cache_hits = 0
        self.cache_misses = 0

        self._framework_callbacks: List[FrameworkCallback] = []
        self._gpu_callbacks: List[GpuCallback] = []
        self._gpu_enter: Optional[GpuApiHandler] = None
        self._gpu_exit: Optional[GpuApiHandler] = None
        #: Per tid, the thread's collection record.
        self._states: Dict[int, ThreadState] = {}
        #: Interned Python paths, scope tuples and native pcs tuples: equal
        #: ones are one object, so launch-context keys and forward records
        #: share them.
        self._python_paths: Dict[Tuple[PyFrame, ...], Tuple[PyFrame, ...]] = {}
        self._scopes: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
        self._native_pcs: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        self._initialized = False
        self._custom_interceptor: Optional[CustomDriverInterceptor] = None
        if interception_config:
            configs = parse_interception_config(interception_config)
            self._custom_interceptor = CustomDriverInterceptor(engine.runtime, configs)

    # ------------------------------------------------------------------ lifecycle

    def init(self) -> "DLMonitor":
        """Load the shim: hook the framework, the GPU runtime and the JIT compiler."""
        if self._initialized:
            return self
        self.engine.add_global_callback(self._on_framework_event)
        self.tracing_api.subscribe(self._on_gpu_api)
        if self.jit_compiler is not None:
            self.jit_compiler.add_compilation_callback(self._on_compilation)
        if self._custom_interceptor is not None:
            self._custom_interceptor.install(self._on_gpu_api)
        self._initialized = True
        return self

    def finalize(self) -> None:
        """Disable monitoring and release every interception."""
        if not self._initialized:
            return
        self.engine.remove_global_callback(self._on_framework_event)
        self.tracing_api.finalize()
        if self.jit_compiler is not None:
            self.jit_compiler.remove_compilation_callback(self._on_compilation)
        if self._custom_interceptor is not None:
            self._custom_interceptor.uninstall()
        self._framework_callbacks.clear()
        self._gpu_callbacks.clear()
        self.gpu_api_unregister()
        self._states.clear()
        self._python_paths.clear()
        self._scopes.clear()
        self._native_pcs.clear()
        self._initialized = False

    @property
    def initialized(self) -> bool:
        return self._initialized

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def thread_state(self, thread: ThreadContext) -> ThreadState:
        """``thread``'s collection record, created at its first use."""
        state = self._states.get(thread.tid)
        if state is None:
            state = self._states[thread.tid] = ThreadState(thread)
        return state

    # ------------------------------------------------------------------ registration

    def callback_register(self, domain: str, callback) -> None:
        """Register a profiler callback for ``DLMONITOR_FRAMEWORK`` or ``DLMONITOR_GPU``."""
        if domain == DLMONITOR_FRAMEWORK:
            if callback not in self._framework_callbacks:
                self._framework_callbacks.append(callback)
        elif domain == DLMONITOR_GPU:
            if callback not in self._gpu_callbacks:
                self._gpu_callbacks.append(callback)
        else:
            raise ValueError(f"unknown DLMonitor domain: {domain!r}")

    def callback_unregister(self, domain: str, callback) -> None:
        if domain == DLMONITOR_FRAMEWORK and callback in self._framework_callbacks:
            self._framework_callbacks.remove(callback)
        elif domain == DLMONITOR_GPU and callback in self._gpu_callbacks:
            self._gpu_callbacks.remove(callback)

    def gpu_api_register(self, on_enter: GpuApiHandler,
                         on_exit: Optional[GpuApiHandler] = None) -> None:
        """Install the profiler's raw GPU API handlers, run before ``DLMONITOR_GPU``.

        One pair per monitor; exits are delivered only when ``on_exit`` is given.
        """
        self._gpu_enter = on_enter
        self._gpu_exit = on_exit

    def gpu_api_unregister(self) -> None:
        self._gpu_enter = None
        self._gpu_exit = None

    # ------------------------------------------------------------------ call paths

    def callpath_get(self, sources: Optional[CallPathSources] = None,
                     thread: Optional[ThreadContext] = None,
                     native_read: Optional[Sequence[NativeFrame]] = None) -> CallPath:
        """Construct the unified multi-layer call path for ``thread`` (default: current).

        A caller that has already unwound the thread as it stands passes
        :meth:`native_read`'s frames as ``native_read``: the path reuses them
        instead of unwinding again.
        """
        sources = sources if sources is not None else CallPathSources.all()
        thread = thread if thread is not None else self.engine.threads.current
        state = self._states.get(thread.tid) or self.thread_state(thread)
        stack = state.stack

        cached_prefix: Optional[ShadowEntry] = None
        if self.enable_callpath_cache:
            if stack:
                cached_prefix = stack[-1]
                self.cache_hits += 1
            else:
                self.cache_misses += 1

        python_triples = ()
        if sources.python and thread.has_python_context:
            if cached_prefix is not None:
                python_triples = self._python_callpath(cached_prefix)
            else:
                python_triples = tuple(capture_user_frames(skip=2))
                self.stats.python_captures += 1

        forward_record: Optional[ForwardRecord] = None
        if thread.kind == THREAD_BACKWARD and stack:
            forward_record = self.associator.lookup(stack[-1].sequence_id)

        path = self.builder.build(
            thread=thread,
            stack=stack,
            python_triples=python_triples,
            sources=sources,
            gpu_leaf=state.gpu_call if sources.gpu else None,
            cached_prefix=cached_prefix,
            forward_record=forward_record,
            native_read=native_read,
        )
        self.stats.callpaths_built += 1
        return path

    def native_read(self, state: ThreadState) -> Optional[List[NativeFrame]]:
        """The native frames of a launch's call path, innermost first.

        ``state`` has an operator on its shadow stack and the call-path cache
        is on: the unwind stops at that operator's dispatch frame or below
        the Python boundary (``CallPathBuilder.read_native``).  ``None`` for
        an empty native stack.
        """
        return self.builder.read_native(state.thread, state.stack[-1].dispatch_pc)

    def launch_context(self, sources: CallPathSources, state: ThreadState,
                       native_read: Optional[Sequence[NativeFrame]]) -> tuple:
        """A key for the frames ``callpath_get`` builds above a launch's GPU leaf.

        ``state`` is a thread's record with an operator on its shadow stack,
        and the call-path cache is on; ``native_read`` is
        :meth:`native_read`'s result for it with native frames on, ``None``
        with them off.  On one thread, equal keys give equal frames above
        the leaf, so a profiler can map a key to the CCT node those frames
        reach.  The key is ``(python, forward, native)``, then ``(op_name,
        is_backward, scope, dispatch_pc)`` of each shadow-stack entry,
        outermost first, when framework frames are on: ``python`` is the top
        entry's Python path (walked once per operator), ``forward`` the
        backward thread's forward record as ``(op_name, scope,
        python_callpath)`` and ``native`` the pcs of ``native_read``, each
        ``None`` where it has no part in the path.  An empty native stack's
        ``None`` read thus keys apart from an empty read's ``()``: the path
        then holds no native part at all.  ``dispatch_pc`` places an
        operator frame among the native ones.
        """
        thread, entry = state.thread, state.stack[-1]
        python = None
        if sources.python and thread.has_python_context:
            python = self._python_callpath(entry)
        forward = None
        if thread.kind == THREAD_BACKWARD:
            record = self.associator.lookup(entry.sequence_id)
            if record is not None:
                forward = (record.op_name, record.scope, record.python_callpath)
        operators = state.stack if sources.framework else ()
        native = None
        if native_read is not None:
            pcs = tuple([frame.pc for frame in native_read])
            native = self._native_pcs.setdefault(pcs, pcs)
        # Unpacking a list builds the key at its final size; ``tuple()`` of
        # a generator would free a resized one-element tuple per call, and
        # those pile up in CPython's tuple free list.
        return (python, forward, native, *[
            (operator.op_name, operator.is_backward, operator.scope, operator.dispatch_pc)
            for operator in operators])

    # ------------------------------------------------------------------ framework interception

    def _on_framework_event(self, info: CallbackInfo) -> None:
        thread = info.thread
        stack = (self._states.get(thread.tid) or self.thread_state(thread)).stack
        self.stats.framework_events += 1

        if info.phase == PHASE_BEFORE:
            # The operator's dispatch frame is the outermost native frame the
            # framework pushed for this operator (e.g. ``at::_ops::conv2d::call``);
            # its address is what the shadow stack records as the operator's
            # "memory location" for call-path integration.
            native_frames = thread.native_stack.frames
            pushed = len(info.call.op.native_symbols)
            dispatch_index = max(0, len(native_frames) - pushed)
            if native_frames:
                dispatch_index = min(dispatch_index, len(native_frames) - 1)
                dispatch_pc = native_frames[dispatch_index].pc
            else:
                dispatch_pc = 0
            entry_frame = sys._getframe(1) if thread.has_python_context else None
            scope = tuple(info.scope)
            entry = ShadowEntry(
                op_name=info.op_name,
                is_backward=info.is_backward,
                sequence_id=info.sequence_id,
                dispatch_pc=dispatch_pc,
                python_callpath=() if entry_frame is None else None,
                scope=self._scopes.setdefault(scope, scope),
                entry_frame=entry_frame,
                native_depth=len(native_frames),
            )
            stack.append(entry)
            if not info.is_backward and info.sequence_id is not None:
                # The backward pass reads these frames after this stack is gone.
                self.associator.record_forward(info.sequence_id, info.op_name,
                                               self._python_callpath(entry), entry.scope)
            if self._framework_callbacks:
                self._dispatch_framework(info, PHASE_ENTER)
        else:
            if self._framework_callbacks:
                self._dispatch_framework(info, PHASE_EXIT)
            if stack:
                stack.pop()
            if info.is_backward:
                self.associator.release(info.sequence_id)

    def _python_callpath(self, entry: ShadowEntry) -> Tuple[PyFrame, ...]:
        """``entry``'s user frames, walked once from the frame that entered it
        (the user frames above it stay at the same lines while it runs)."""
        if entry.python_callpath is None:
            path = tuple(capture_user_frames(start=entry.entry_frame))
            entry.python_callpath = self._python_paths.setdefault(path, path)
            entry.entry_frame = None
            self.stats.python_captures += 1
        return entry.python_callpath

    def _dispatch_framework(self, info: CallbackInfo, phase: str) -> None:
        event = FrameworkEvent(
            kind=EVENT_OPERATOR,
            phase=phase,
            op_name=info.op_name,
            is_backward=info.is_backward,
            sequence_id=info.sequence_id,
            thread_tid=info.thread.tid,
            scope=list(info.scope),
            attrs=dict(info.call.attrs),
            input_bytes=info.call.input_bytes(),
            output_bytes=info.call.output.nbytes if info.call.output is not None else 0,
            framework=self.engine.framework_name,
        )
        for callback in list(self._framework_callbacks):
            callback(event)

    # ------------------------------------------------------------------ GPU interception

    def _on_gpu_api(self, data: ApiCallbackData) -> None:
        thread = self.engine.threads.current
        state = self._states.get(thread.tid) or self.thread_state(thread)
        self.stats.gpu_events += 1
        enter = data.phase is ApiPhase.ENTER
        if enter:
            state.gpu_call = data
        handler = self._gpu_enter if enter else self._gpu_exit
        if handler is not None:
            handler(data, state)
        if self._gpu_callbacks:
            kernel = data.kernel_function
            event = GpuEvent(
                api_name=data.api_name,
                phase=PHASE_ENTER if enter else PHASE_EXIT,
                correlation_id=data.correlation_id,
                device=data.device,
                kernel_name=kernel.name if kernel is not None else "",
                stream=data.stream,
                bytes=data.bytes,
                kind=data.kind,
                thread_tid=thread.tid,
            )
            for callback in list(self._gpu_callbacks):
                callback(event)
        if not enter:
            state.gpu_call = None

    # ------------------------------------------------------------------ JIT interception

    def _on_compilation(self, event: CompilationEvent) -> None:
        self.stats.compilation_events += 1
        if event.phase != PHASE_FUSION:
            return
        for group in event.fused_groups:
            originals = [
                OriginalOperator(
                    op_name=member.op_name,
                    node_id=member.node_id,
                    compile_time_callpath=tuple(member.compile_time_callpath),
                    scope=tuple(member.scope),
                )
                for member in group.members
            ]
            self.fusion_map.record(f"xla::{group.name}", event.graph.name, originals)
        if self._framework_callbacks:
            framework_event = FrameworkEvent(
                kind=EVENT_COMPILATION,
                phase=PHASE_EXIT,
                op_name=event.graph.name,
                attrs={
                    "num_operators": event.graph.num_operators,
                    "num_fused_groups": len(event.fused_groups),
                },
                framework="jax",
            )
            for callback in list(self._framework_callbacks):
                callback(framework_event)


# ---------------------------------------------------------------------------
# Paper-style C API wrappers
# ---------------------------------------------------------------------------

def dlmonitor_init(engine: EagerEngine, jit_compiler: Optional[JitCompiler] = None,
                   program_name: str = "program", enable_callpath_cache: bool = True,
                   interception_config: Optional[Dict[str, object]] = None) -> DLMonitor:
    """Initialise DLMonitor's shared library (the ``LD_PRELOAD`` entry point)."""
    monitor = DLMonitor(engine, jit_compiler=jit_compiler, program_name=program_name,
                        enable_callpath_cache=enable_callpath_cache,
                        interception_config=interception_config)
    return monitor.init()


def dlmonitor_callback_register(monitor: DLMonitor, domain: str, callback) -> None:
    """Register a profiler callback in ``domain`` (framework or GPU)."""
    monitor.callback_register(domain, callback)


def dlmonitor_callpath_get(monitor: DLMonitor, sources: Optional[CallPathSources] = None,
                           thread: Optional[ThreadContext] = None) -> CallPath:
    """Construct and return the unified multi-layer call path."""
    return monitor.callpath_get(sources=sources, thread=thread)


def dlmonitor_finalize(monitor: DLMonitor) -> None:
    """Disable DLMonitor monitoring and release all interceptions."""
    monitor.finalize()
