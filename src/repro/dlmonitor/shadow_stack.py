"""Per-thread shadow stacks of framework operators.

DLMonitor maintains, in each CPU thread, a stack of the deep-learning
operators currently executing, together with the *memory location* of the
operator's dispatch frame (here: the program counter of the native frame the
framework pushed when entering the operator).  Call-path integration walks the
native stack bottom-up and matches these addresses to decide where to insert
operator frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import FrameType
from typing import Any, Dict, List, Optional, Tuple

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


class ShadowStack:
    """The operator shadow stack of a single CPU thread."""

    def __init__(self) -> None:
        self._entries: List[ShadowEntry] = []
        self.max_depth = 0

    def push(self, entry: ShadowEntry) -> None:
        self._entries.append(entry)
        self.max_depth = max(self.max_depth, len(self._entries))

    def pop(self) -> ShadowEntry:
        if not self._entries:
            raise IndexError("shadow stack is empty")
        return self._entries.pop()

    def top(self) -> Optional[ShadowEntry]:
        return self._entries[-1] if self._entries else None

    @property
    def entries(self) -> List[ShadowEntry]:
        """Entries ordered from the outermost operator to the innermost."""
        return list(self._entries)

    @property
    def depth(self) -> int:
        return len(self._entries)

    def find_by_pc(self, pc: int) -> Optional[ShadowEntry]:
        """Match a native-frame program counter against recorded dispatch PCs."""
        for entry in reversed(self._entries):
            if entry.dispatch_pc == pc:
                return entry
        return None

    def clear(self) -> None:
        self._entries.clear()


class ShadowStackRegistry:
    """Lazily creates one shadow stack per thread id."""

    def __init__(self) -> None:
        self._stacks: Dict[int, ShadowStack] = {}

    def for_thread(self, tid: int) -> ShadowStack:
        if tid not in self._stacks:
            self._stacks[tid] = ShadowStack()
        return self._stacks[tid]

    def threads(self) -> List[int]:
        return sorted(self._stacks)

    def total_max_depth(self) -> int:
        return max((stack.max_depth for stack in self._stacks.values()), default=0)
