"""GPU metric collection.

The collector registers raw ``ApiCallbackData`` handlers with DLMonitor once
(``gpu_api_register``), not a ``DLMONITOR_GPU`` callback: every API enter,
and exits only while PC sampling, their one reader, is on.  At every launch
it inserts the call path into the CCT and registers the correlation ID.
Device-side measurements arrive later in activity buffers and are linked
back to their nodes through the correlation registry (paper §4.2).

DLMonitor hands each handler the launching thread's ``ThreadState`` record,
which holds the thread's shard (resolved at its first launch or CPU sample)
and its launch-context table.  While the call-path cache is on, the first
launch in an operator memoizes, on the entry the cache returns (the top of
the thread's shadow stack), the node its path reached before its GPU API and
kernel frames; later launches in it walk only those frames from there.  The
launch-context table maps ``DLMonitor.launch_context`` keys to those nodes,
so the first launch of an invocation whose context was seen before (the same
Python path, operator stack and forward record) finds its node with one
probe instead of building and inserting a call path; only the operator's
Python walk is left.  With native frames on there is no key
and every invocation's first launch builds its path.  With the cache off
every launch inserts its full path: the reference.

The collector attributes into the *launching* thread's private shard of the
:class:`~repro.core.cct.ShardedCallingContextTree`: the call path is inserted
into that shard at the launch callback, and because every CCT node carries a
back-reference to its owning tree, asynchronous deliveries (activity
records, instruction samples) are folded into ``node.tree`` without any
lookup — contention-free multi-thread collection.

Correlation lifecycle: an activity record and the instruction-sample batch of
the same correlation ID arrive independently and in either order (the
activity buffer can flush mid-launch, before samples are delivered).  The
collector therefore never frees a correlation on first use: each consumer
marks its share attributed and releases the entry only when the counterpart
delivery has also been seen (or will never come — non-kernel records get no
samples), and ``stop()`` sweeps the remaining tombstones after the final
flush.  This keeps the registry bounded during the run without silently
dropping late samples as "unresolved".
"""

from __future__ import annotations

from typing import List, Optional

from ..dlmonitor.api import DLMonitor
from ..dlmonitor.callpath import FrameKind, gpu_instruction_frame, gpu_instruction_identity
from ..dlmonitor.integration import gpu_leaf_frames
from ..dlmonitor.shadow_stack import ThreadState
from ..gpu.activity import ActivityKind, ActivityRecord
from ..gpu.runtime import ApiCallbackData
from ..gpu.sampling import InstructionSample
from .cct import ShardedCallingContextTree
from .config import ProfilerConfig
from .correlation import CorrelationRegistry
from . import metrics as M

#: Kinds of the frames that end a launch path, below what an operator's launches share.
_LEAF_KINDS = (FrameKind.GPU_API, FrameKind.GPU_KERNEL)


class GpuMetricCollector:
    """Collects coarse and fine-grained GPU metrics into the CCT via raw GPU API handlers."""

    def __init__(self, monitor: DLMonitor, tree: ShardedCallingContextTree,
                 correlations: CorrelationRegistry, config: ProfilerConfig) -> None:
        self.monitor = monitor
        self.tree = tree
        self.correlations = correlations
        self.config = config
        self._sources = config.callpath_sources()
        #: Kernel correlations whose activity arrived mid-launch (before the
        #: exit-time sample delivery); drained at the next GPU API callback.
        self._awaiting_samples: set = set()
        self._saved_buffer_size: Optional[int] = None
        self._running = False
        self.activities_attributed = 0
        self.samples_attributed = 0

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        if self._running:
            return
        buffer_size = int(self.config.activity_buffer_size)
        if buffer_size <= 0:
            raise ValueError("activity_buffer_size must be positive")
        activity = self.monitor.tracing_api.runtime.activity
        self._saved_buffer_size = activity.buffer_size
        activity.buffer_size = buffer_size
        self.monitor.gpu_api_register(
            self._on_enter, self._on_exit if self.config.pc_sampling else None)
        self.monitor.tracing_api.activity_register_callbacks(self._on_activity)
        if self.config.pc_sampling:
            self.monitor.tracing_api.enable_pc_sampling(self._on_samples)
        self._running = True

    def stop(self) -> None:
        if not self._running:
            return
        self.monitor.tracing_api.activity_flush_all()
        self.monitor.gpu_api_unregister()
        if self.config.pc_sampling:
            self.monitor.tracing_api.disable_pc_sampling()
        # Final flush done: free every correlation that was attributed but
        # kept alive for a counterpart delivery that can no longer arrive.
        self._awaiting_samples.clear()
        self.correlations.sweep_attributed()
        if self._saved_buffer_size is not None:
            self.monitor.tracing_api.runtime.activity.buffer_size = self._saved_buffer_size
            self._saved_buffer_size = None
        self._running = False

    # -- callbacks ------------------------------------------------------------------

    def _drain_awaiting_samples(self) -> None:
        """Free tombstones whose sample delivery has provably completed.

        Samples are delivered synchronously right after a launch's exit
        callback, so by the time the *next* GPU API callback fires, an entry
        that has exited without its sample flag set received an empty batch
        and will never be completed by the sample path.
        """
        for correlation_id in list(self._awaiting_samples):
            pending = self.correlations.peek(correlation_id)
            if pending is None or pending.samples_attributed or pending.launch_exited:
                if pending is not None:
                    self.correlations.release(correlation_id)
                self._awaiting_samples.discard(correlation_id)

    def _on_exit(self, data: ApiCallbackData, state: ThreadState) -> None:
        """API exit (PC sampling only): the launch's sample batch comes next."""
        pending = self.correlations.peek(data.correlation_id)
        if pending is not None:
            pending.launch_exited = True

    def _on_enter(self, data: ApiCallbackData, state: ThreadState) -> None:
        """Kernel-launch / memcpy / malloc callback on the launching CPU thread."""
        if self._awaiting_samples:
            self._drain_awaiting_samples()
        monitor = self.monitor
        shard = state.shard
        if shard is None:
            shard = state.shard = self.tree.shard_for(state.thread)
        stack = state.stack
        entry = stack[-1] if stack and monitor.enable_callpath_cache else None
        key = None
        if entry is not None and entry.launch_node is None:
            key = monitor.launch_context(self._sources, state)
            if key is not None:
                entry.launch_node = state.launch_nodes.get(key)
        if entry is not None and entry.launch_node is not None:
            node = shard.insert_below(
                entry.launch_node, gpu_leaf_frames(data) if self._sources.gpu else ())
        else:
            node = shard.insert(monitor.callpath_get(sources=self._sources, thread=state.thread))
            if entry is not None:
                prefix = node
                while prefix.frame.kind in _LEAF_KINDS:
                    prefix = prefix.parent
                entry.launch_node = prefix
                if key is not None:
                    state.launch_nodes[key] = prefix
        self.correlations.register(data.correlation_id, node)
        if data.api_name.endswith("Malloc") and data.bytes:
            shard.attribute(node, M.METRIC_ALLOCATED_BYTES, data.bytes)

    def _on_activity(self, records: List[ActivityRecord]) -> None:
        """Asynchronous activity-buffer delivery: attribute device-side metrics.

        All metrics of one record are folded with a single ``attribute_many``
        call — one generation bump per record instead of one tree walk per
        metric as in the eager-propagation model.  Attribution goes into the
        launch-site node's own tree: the launching thread's shard.
        """
        for record in records:
            pending = self.correlations.resolve(record.correlation_id)
            if pending is None:
                continue
            node = pending.node
            tree = node.tree
            expects_samples = False
            if record.kind == ActivityKind.KERNEL:
                expects_samples = self.config.pc_sampling
                tree.attribute_many(node, {
                    M.METRIC_GPU_TIME: record.duration,
                    M.METRIC_KERNEL_COUNT: 1.0,
                    M.METRIC_BLOCKS: record.grid_size,
                    M.METRIC_THREADS_PER_BLOCK: record.block_size,
                    M.METRIC_REGISTERS: record.registers_per_thread,
                    M.METRIC_SHARED_MEMORY: record.shared_memory_bytes,
                })
            elif record.kind == ActivityKind.MEMCPY:
                tree.attribute_many(node, {M.METRIC_GPU_TIME: record.duration,
                                           M.METRIC_MEMCPY_BYTES: record.bytes})
            elif record.kind == ActivityKind.MALLOC:
                tree.attribute(node, M.METRIC_ALLOCATED_BYTES, record.bytes)
            self.activities_attributed += 1
            pending.activity_attributed = True
            if (expects_samples and not pending.samples_attributed
                    and not pending.launch_exited):
                # Mid-launch buffer flush: the exit-time sample delivery for
                # this correlation has not happened yet, so keep the entry
                # resolvable; the next GPU API callback drains it if the
                # sample batch turns out empty.
                self._awaiting_samples.add(record.correlation_id)
            else:
                # Samples already attributed, delivered empty (the launch has
                # exited), or never coming — nothing left to wait for.
                self.correlations.release(record.correlation_id)

    def _on_samples(self, samples: List[InstructionSample]) -> None:
        """Fine-grained instruction samples: extend the call path per instruction.

        A batch contains many samples of one correlation, so completed
        correlations are released only after the whole batch is attributed.
        """
        completed = set()
        for sample in samples:
            pending = self.correlations.resolve(sample.correlation_id)
            node = pending.node if pending is not None else None
            if node is None:
                continue
            # Most samples land on an instruction already seen: probe by
            # identity, and build the frame only for a new node, whose stall
            # reason tag is its first sample's.
            instruction_node = node.children.get(
                gpu_instruction_identity(sample.kernel_name, sample.pc_offset))
            if instruction_node is None:
                instruction_node = node.child_for(gpu_instruction_frame(
                    sample.kernel_name, sample.pc_offset, sample.stall_reason))
            metrics = {M.METRIC_INSTRUCTION_SAMPLES: sample.samples}
            if sample.is_stalled:
                metrics[M.METRIC_STALL_SAMPLES] = sample.samples
            node.tree.attribute_many(instruction_node, metrics)
            self.samples_attributed += 1
            pending.samples_attributed = True
            if pending.activity_attributed:
                completed.add(sample.correlation_id)
        for correlation_id in completed:
            self.correlations.release(correlation_id)
            self._awaiting_samples.discard(correlation_id)
