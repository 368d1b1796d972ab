"""Virtual CPU threads of the simulated deep-learning process.

PyTorch creates dedicated *backward threads* per GPU device and *worker
threads* for data loading; DeepContext's forward/backward association exists
precisely because backward operators run on a different thread with no Python
context.  This module models those threads: each has its own CPU_TIME clock
and its own simulated native stack.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from ..cpu.clock import MachineClock, VirtualClock
from ..native.unwinder import NativeStack

THREAD_MAIN = "main"
THREAD_BACKWARD = "backward"
THREAD_WORKER = "worker"


@dataclass
class ThreadContext:
    """One simulated CPU thread."""

    tid: int
    name: str
    kind: str
    cpu_clock: VirtualClock
    native_stack: NativeStack = field(default_factory=NativeStack)
    #: Backward and worker threads have no user Python frames on their stacks.
    has_python_context: bool = True

    def __hash__(self) -> int:
        return self.tid

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ThreadContext(tid={self.tid}, name={self.name!r}, kind={self.kind!r})"


class ThreadRegistry:
    """Creates threads and tracks which one is "currently executing".

    The simulation is single-threaded Python; concurrency is modelled by
    explicitly switching the current thread context around regions that would
    run on another thread (backward passes, data-loading workers).
    """

    def __init__(self, machine: MachineClock) -> None:
        self._machine = machine
        self._tid = itertools.count(1)
        #: Threads in creation order, indexed by tid for the per-event lookup.
        self._by_tid: Dict[int, ThreadContext] = {}
        self._creation_listeners: List = []
        self.main = self.create(THREAD_MAIN, kind=THREAD_MAIN)
        self._current = self.main

    def on_thread_created(self, listener) -> None:
        """Register ``listener(thread)`` to run whenever a new thread appears.

        The profiler's CPU collector uses this to install interval samplers on
        threads created after profiling started (backward threads, data-loading
        workers).
        """
        self._creation_listeners.append(listener)

    def create(self, name: str, kind: str = THREAD_WORKER, tied: bool = True) -> ThreadContext:
        """Create a new thread context with its own CPU clock."""
        tid = next(self._tid)
        clock = self._machine.new_cpu_clock(f"cpu[{name}#{tid}]", tied=tied)
        thread = ThreadContext(
            tid=tid,
            name=name,
            kind=kind,
            cpu_clock=clock,
            has_python_context=(kind != THREAD_BACKWARD),
        )
        self._by_tid[tid] = thread
        for listener in list(self._creation_listeners):
            listener(thread)
        return thread

    @property
    def current(self) -> ThreadContext:
        return self._current

    @property
    def threads(self) -> List[ThreadContext]:
        return list(self._by_tid.values())

    def find(self, tid: int) -> Optional[ThreadContext]:
        """O(1) lookup by thread id (dict-indexed; this is a per-event path)."""
        return self._by_tid.get(tid)

    def switch_to(self, thread: ThreadContext) -> "ThreadSwitch":
        """Context manager that makes ``thread`` current inside a ``with`` block."""
        return ThreadSwitch(self, thread)

    def _set_current(self, thread: ThreadContext) -> ThreadContext:
        previous = self._current
        self._current = thread
        return previous

    def __iter__(self) -> Iterator[ThreadContext]:
        return iter(self._by_tid.values())


class ThreadSwitch:
    """Temporarily switches the registry's current thread."""

    def __init__(self, registry: ThreadRegistry, thread: ThreadContext) -> None:
        self._registry = registry
        self._thread = thread
        self._previous: Optional[ThreadContext] = None

    def __enter__(self) -> ThreadContext:
        self._previous = self._registry._set_current(self._thread)
        return self._thread

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._previous is not None:
            self._registry._set_current(self._previous)
