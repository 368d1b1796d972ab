"""Per-thread collection state: the shadow stack of framework operators.

DLMonitor keeps one :class:`ThreadState` record per CPU thread, resolved once
per event and handed to the GPU collector's handlers.  Its shadow stack holds
the deep-learning operators currently executing, outermost first, together
with the *memory location* of each operator's dispatch frame (here: the
program counter of the native frame the framework pushed when entering the
operator).  Call-path integration walks the native stack bottom-up and
matches these addresses to decide where to insert operator frames.  The
record also holds the GPU API call in progress, the thread's CCT shard that
both collectors attribute into, and the GPU collector's launch-context table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import FrameType
from typing import Any, Dict, List, Optional, Tuple

from ..framework.threads import ThreadContext
from ..gpu.runtime import ApiCallbackData
from ..pycontext import PyFrame


@dataclass
class ShadowEntry:
    """One operator currently on a thread's shadow stack."""

    op_name: str
    is_backward: bool
    sequence_id: Optional[int]
    #: Program counter of the operator's outermost native dispatch frame.
    dispatch_pc: int
    #: User Python frames; ``None`` until walked from ``entry_frame``.
    python_callpath: Optional[Tuple[PyFrame, ...]] = ()
    scope: Tuple[str, ...] = ()
    #: The frame that called the entry hook, held until that walk.
    entry_frame: Optional[FrameType] = None
    #: The GPU collector's CCT node above this operator's launch leaves.
    launch_node: Any = None


@dataclass(slots=True)
class ThreadState:
    """One thread's collection state under one DLMonitor."""

    thread: ThreadContext
    #: Operators currently executing, outermost first.
    stack: List[ShadowEntry] = field(default_factory=list)
    #: The enter data of the GPU API call in progress.
    gpu_call: Optional[ApiCallbackData] = None
    #: The collectors' CCT shard for this thread, resolved at its first
    #: launch or CPU sample.
    shard: Any = None
    #: The GPU collector's ``DLMonitor.launch_context`` keys → CCT nodes.
    launch_nodes: Dict[tuple, Any] = field(default_factory=dict)
