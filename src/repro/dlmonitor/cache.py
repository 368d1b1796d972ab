"""Call-path caching (paper §4.1, "Optimizations").

Many deep-learning operators launch several GPU kernels that share the same
Python and operator call path.  DLMonitor therefore caches, per thread, the
shadow-stack entry pushed when the operator was entered.  It holds the
operator's dispatch address, the GPU collector's launch-node memo and the
Python call path: walked at entry or at the first request inside the
operator, then reused by every later one.  Two modes exist:

* without native call-path collection, the cached Python path is concatenated
  with the shadow operator stack and the GPU API/kernel frames directly;
* with native collection, unwinding proceeds bottom-up only until the cached
  operator's dispatch frame is reached, then the cached prefix is reused.

Without native collection the cache also spans invocations.  The entry on
top is keyed by ``DLMonitor.launch_context``: its Python path, each
shadow-stack operator's name, direction and scope, and on a backward thread
the forward record.  The GPU collector keeps, per thread, a table from those
keys to the CCT node above the launch leaves, so an operator called again
from a context seen before reaches that node without a new call path.
"""

from __future__ import annotations

from typing import Dict, Optional

from .shadow_stack import ShadowEntry


class CallPathCache:
    """Per-thread cache of the current operator's call-path prefix."""

    def __init__(self) -> None:
        self._by_thread: Dict[int, ShadowEntry] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def store(self, tid: int, entry: ShadowEntry) -> None:
        """Cache an operator's entry for a thread (called when it is entered)."""
        self._by_thread[tid] = entry

    def lookup(self, tid: int) -> Optional[ShadowEntry]:
        entry = self._by_thread.get(tid)
        if entry is not None:
            self.hits += 1
        else:
            self.misses += 1
        return entry

    def peek(self, tid: int) -> Optional[ShadowEntry]:
        """Look without affecting hit/miss statistics."""
        return self._by_thread.get(tid)

    def invalidate(self, tid: int) -> None:
        """Drop the cached prefix (called when the operator exits)."""
        if tid in self._by_thread:
            del self._by_thread[tid]
            self.invalidations += 1

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        self._by_thread.clear()
