"""DLMonitor: the framework/GPU interception shim layer of DeepContext."""

from .api import (
    DLMonitor,
    DLMonitorStats,
    dlmonitor_callback_register,
    dlmonitor_callpath_get,
    dlmonitor_finalize,
    dlmonitor_init,
)
from .association import ForwardBackwardAssociator, ForwardRecord
from .audit import (
    CustomDriverInterceptor,
    DriverFunctionConfig,
    LibraryAuditor,
    parse_interception_config,
)
from .cache import CallPathCache
from .callpath import (
    CallPath,
    Frame,
    FrameKind,
    framework_frame,
    gpu_api_frame,
    gpu_instruction_frame,
    gpu_kernel_frame,
    native_frame,
    python_frame,
    python_frames_from_triples,
    root_frame,
    thread_frame,
)
from .domains import (
    ALL_DOMAINS,
    DLMONITOR_FRAMEWORK,
    DLMONITOR_GPU,
    EVENT_ALLOCATION,
    EVENT_COMPILATION,
    EVENT_OPERATOR,
    PHASE_ENTER,
    PHASE_EXIT,
    FrameworkEvent,
    GpuEvent,
)
from .fusion_map import FusionMap, FusionRecord, OriginalOperator
from .integration import CallPathBuilder, CallPathSources
from .shadow_stack import ShadowEntry, ShadowStack, ShadowStackRegistry

__all__ = [
    "DLMonitor",
    "DLMonitorStats",
    "dlmonitor_init",
    "dlmonitor_callback_register",
    "dlmonitor_callpath_get",
    "dlmonitor_finalize",
    "ForwardBackwardAssociator",
    "ForwardRecord",
    "LibraryAuditor",
    "CustomDriverInterceptor",
    "DriverFunctionConfig",
    "parse_interception_config",
    "CallPathCache",
    "CallPath",
    "Frame",
    "FrameKind",
    "python_frame",
    "framework_frame",
    "native_frame",
    "gpu_api_frame",
    "gpu_kernel_frame",
    "gpu_instruction_frame",
    "thread_frame",
    "root_frame",
    "python_frames_from_triples",
    "DLMONITOR_FRAMEWORK",
    "DLMONITOR_GPU",
    "ALL_DOMAINS",
    "PHASE_ENTER",
    "PHASE_EXIT",
    "EVENT_OPERATOR",
    "EVENT_COMPILATION",
    "EVENT_ALLOCATION",
    "FrameworkEvent",
    "GpuEvent",
    "FusionMap",
    "FusionRecord",
    "OriginalOperator",
    "CallPathBuilder",
    "CallPathSources",
    "ShadowStack",
    "ShadowStackRegistry",
    "ShadowEntry",
]
