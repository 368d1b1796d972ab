"""A libunwind-like API over simulated native stacks.

Each simulated CPU thread maintains a native call stack of :class:`NativeFrame`
records (pushed and popped by the framework and GPU runtime substrates).  The
:class:`Unwinder` exposes the two access patterns DeepContext uses:

* full unwinds (``unwind``), equivalent to walking the whole stack, and
* incremental, bottom-up stepping (``cursor`` / ``step``), equivalent to
  ``unw_step``; the call-path cache uses this to stop unwinding as soon as the
  cached deep-learning operator frame is reached.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Iterator, List, Optional, Sequence

from .symbols import AddressSpace, Symbol


@dataclass(frozen=True)
class NativeFrame:
    """One frame of a simulated native (C/C++) call stack."""

    symbol: Symbol
    pc: int

    @property
    def function(self) -> str:
        return self.symbol.name

    @property
    def library(self) -> str:
        return self.symbol.library

    def __str__(self) -> str:
        return f"{self.symbol.name}+0x{self.pc - self.symbol.address:x} ({self.symbol.library})"


_PC = attrgetter("pc")


class NativeStack:
    """A per-thread native stack manipulated by the simulated C++ runtime."""

    def __init__(self) -> None:
        self._frames: List[NativeFrame] = []

    def push(self, symbol: Symbol, offset: int = 0x10) -> NativeFrame:
        frame = NativeFrame(symbol=symbol, pc=symbol.address + offset)
        self._frames.append(frame)
        return frame

    def pop(self) -> NativeFrame:
        if not self._frames:
            raise IndexError("native stack is empty")
        return self._frames.pop()

    def top(self) -> Optional[NativeFrame]:
        return self._frames[-1] if self._frames else None

    @property
    def frames(self) -> Sequence[NativeFrame]:
        """Frames ordered from the outermost caller to the innermost callee."""
        return tuple(self._frames)

    @property
    def depth(self) -> int:
        return len(self._frames)

    def pcs_from(self, depth: int) -> List[int]:
        """The pcs of the frames above the first ``depth``, outermost first."""
        # A list: ``tuple()`` of a ``map`` allocates for ten items, then
        # resizes, and each resized tuple freed lands in CPython's tuple
        # free list for its size.
        return list(map(_PC, self._frames[depth:]))

    def __len__(self) -> int:
        return len(self._frames)


class UnwindCursor:
    """Steps through a native stack from the innermost frame outwards."""

    def __init__(self, frames: Sequence[NativeFrame]) -> None:
        self._frames = list(frames)
        self._index = len(self._frames)
        self.steps = 0

    def step(self) -> Optional[NativeFrame]:
        """Return the next frame going towards the caller, or ``None`` at the top."""
        if self._index == 0:
            return None
        self._index -= 1
        self.steps += 1
        return self._frames[self._index]

    def __iter__(self) -> Iterator[NativeFrame]:
        frame = self.step()
        while frame is not None:
            yield frame
            frame = self.step()


class Unwinder:
    """The libunwind substitute used by DLMonitor's native call-path source."""

    def __init__(self, address_space: AddressSpace) -> None:
        self.address_space = address_space
        self.full_unwinds = 0
        self.steps = 0

    def unwind(self, stack: NativeStack) -> List[NativeFrame]:
        """Walk the whole stack (outermost first), counting the cost."""
        self.full_unwinds += 1
        self.steps += stack.depth
        return list(stack.frames)

    def cursor(self, stack: NativeStack) -> UnwindCursor:
        """Create a bottom-up cursor equivalent to ``unw_init_local``."""
        return UnwindCursor(stack.frames)

    def charge(self, cursor: UnwindCursor) -> None:
        """Account for the steps an incremental unwind actually performed."""
        self.steps += cursor.steps

    def resolve(self, frame: NativeFrame) -> Optional[str]:
        """Resolve the library name of a frame through the address space."""
        return self.address_space.library_of(frame.pc)
