"""Profiler configuration.

``ProfilerConfig`` controls which call-path sources are integrated, which
metrics are collected and at what granularity — mirroring the knobs the paper
evaluates (with vs without native call paths, coarse vs fine-grained GPU
metrics, CPU sampling on or off).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..dlmonitor.integration import CallPathSources


@dataclass
class ProfilerConfig:
    """All user-visible knobs of :class:`repro.core.profiler.DeepContextProfiler`."""

    #: Integrate the Python call path.
    collect_python: bool = True
    #: Integrate framework operator / scope frames.
    collect_framework: bool = True
    #: Integrate native C/C++ frames (the costly option of Figure 6).
    collect_native: bool = True
    #: Intercept GPU APIs and collect GPU metrics.
    collect_gpu: bool = True
    #: Sample CPU_TIME on every thread.
    collect_cpu_time: bool = True
    #: Sample REAL_TIME on the main thread.
    collect_real_time: bool = False
    #: CPU sampling period in seconds.
    cpu_sample_period: float = 0.001
    #: Collect fine-grained instruction samples (stall reasons).
    pc_sampling: bool = False
    #: Instruction-sampling period in microseconds.
    pc_sample_period_us: float = 2.0
    #: Enable DLMonitor's call-path cache.
    callpath_cache: bool = True
    #: Perf-event counters to collect (names from :mod:`repro.cpu.perf_events`).
    perf_events: List[str] = field(default_factory=list)
    #: Activity-buffer size (records per asynchronous delivery).
    activity_buffer_size: int = 512
    #: Program name stored in profiles and shown at the CCT root.
    program_name: str = "program"
    #: Per-block compression for binary profiles ("" = uncompressed, "zlib").
    #: Applies to ``ProfileDatabase.save``'s ``cct-binary-v1`` saves and to
    #: streamed checkpoints alike; the lazy read path is transparent either
    #: way.
    profile_compression: str = ""
    #: Stream checkpoints of the live profile to this ``cct-binary-v1`` file
    #: during collection ("" = off).  The file is sealed after every
    #: checkpoint, so a crash loses at most the work since the last seal and
    #: an analyzer can attach to it while the run is still going.
    checkpoint_path: str = ""
    #: Minimum wall-clock seconds between the automatic checkpoints driven by
    #: ``mark_iteration`` (0 = only the initial and closing seals, plus any
    #: explicit ``DeepContextProfiler.checkpoint()`` calls).
    checkpoint_interval_s: float = 0.0
    #: Enable the self-telemetry layer (``repro.obs``) for this session:
    #: ``start()`` turns the process-wide registry on, so the storage /
    #: streaming / fleet seams record counters and spans while the profiler
    #: runs.  Off by default — disabled telemetry costs one attribute check
    #: per instrumented seam (see docs/OBSERVABILITY.md).
    telemetry: bool = False
    #: Write a Chrome ``trace_event`` JSON of the recorded telemetry spans
    #: here at ``stop()`` ("" = no export).  A sibling
    #: ``<trace_path>.metrics.json`` snapshot is written alongside it.
    #: Loads in Perfetto / ``chrome://tracing``.
    trace_path: str = ""

    def callpath_sources(self) -> CallPathSources:
        """The DLMonitor source selection implied by this configuration."""
        return CallPathSources(
            python=self.collect_python,
            framework=self.collect_framework,
            native=self.collect_native,
            gpu=self.collect_gpu,
        )

    @classmethod
    def full(cls) -> "ProfilerConfig":
        """Everything on — the "DeepContext Native" configuration of Figure 6."""
        return cls(collect_native=True, pc_sampling=True)

    @classmethod
    def without_native(cls) -> "ProfilerConfig":
        """The default "DeepContext" configuration of Figure 6 (no C/C++ frames)."""
        return cls(collect_native=False)

    @classmethod
    def coarse(cls) -> "ProfilerConfig":
        """Coarse GPU metrics only, no CPU sampling (minimum overhead)."""
        return cls(collect_native=False, collect_cpu_time=False, pc_sampling=False)
