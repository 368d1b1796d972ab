"""DeepContext profiler core: CCT, metrics, collectors, profile database."""

from .cct import CallingContextTree, CCTNode, ShardedCallingContextTree
from .config import ProfilerConfig
from .correlation import CorrelationRegistry, PendingCorrelation
from .cpu_collector import CpuMetricCollector
from .database import ProfileDatabase, ProfileMetadata
from .gpu_collector import GpuMetricCollector
from .metrics import (
    METRIC_ALLOCATED_BYTES,
    METRIC_BLOCKS,
    METRIC_CPU_TIME,
    METRIC_GPU_TIME,
    METRIC_INSTRUCTION_SAMPLES,
    METRIC_KERNEL_COUNT,
    METRIC_MEMCPY_BYTES,
    METRIC_OP_COUNT,
    METRIC_REAL_TIME,
    METRIC_REGISTERS,
    METRIC_SHARED_MEMORY,
    METRIC_STALL_SAMPLES,
    METRIC_THREADS_PER_BLOCK,
    STANDARD_METRICS,
    MetricAggregate,
    MetricDescriptor,
    MetricSet,
)
from .profiler import DeepContextProfiler
from .storage import (
    COMPRESSION_ZLIB,
    FORMAT_BINARY_V1,
    FORMAT_COLUMNAR_JSON,
    FORMAT_JSON,
    LazyProfileView,
    ProfileCorruptionError,
    ProfileFormatError,
    detect_format,
    open_binary,
    recover_profile,
    save_binary,
)
from .streaming import (CheckpointStats, StreamingProfileWriter,
                        completion_marker_path, is_marked_complete)

__all__ = [
    "DeepContextProfiler",
    "ProfilerConfig",
    "LazyProfileView",
    "ProfileCorruptionError",
    "ProfileFormatError",
    "StreamingProfileWriter",
    "CheckpointStats",
    "completion_marker_path",
    "is_marked_complete",
    "detect_format",
    "open_binary",
    "recover_profile",
    "save_binary",
    "FORMAT_JSON",
    "FORMAT_COLUMNAR_JSON",
    "FORMAT_BINARY_V1",
    "COMPRESSION_ZLIB",
    "CallingContextTree",
    "CCTNode",
    "ShardedCallingContextTree",
    "CorrelationRegistry",
    "PendingCorrelation",
    "GpuMetricCollector",
    "CpuMetricCollector",
    "ProfileDatabase",
    "ProfileMetadata",
    "MetricAggregate",
    "MetricSet",
    "MetricDescriptor",
    "STANDARD_METRICS",
    "METRIC_GPU_TIME",
    "METRIC_CPU_TIME",
    "METRIC_REAL_TIME",
    "METRIC_KERNEL_COUNT",
    "METRIC_MEMCPY_BYTES",
    "METRIC_ALLOCATED_BYTES",
    "METRIC_BLOCKS",
    "METRIC_THREADS_PER_BLOCK",
    "METRIC_REGISTERS",
    "METRIC_SHARED_MEMORY",
    "METRIC_STALL_SAMPLES",
    "METRIC_INSTRUCTION_SAMPLES",
    "METRIC_OP_COUNT",
]
