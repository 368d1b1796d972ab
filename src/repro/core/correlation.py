"""Correlation-ID registry.

GPU metrics arrive asynchronously in activity buffers, identified only by the
correlation ID the driver assigned to the launching API call.  The profiler
records, at each kernel-launch callback, the correlation ID together with the
CCT node of the launching call path; when the buffers are flushed the records
are linked back to their nodes and aggregated (paper §4.2, "GPU Metrics").

Lifecycle: one correlation ID can receive *several* asynchronous deliveries —
an activity record from a buffer flush and instruction-sample batches from PC
sampling — in either order (the activity buffer may fill and flush before the
launch callback returns, or records may sit buffered long after samples were
delivered).  An entry therefore stays resolvable until every consumer has
attributed its share: consumers mark the entry attributed
(``activity_attributed`` / ``samples_attributed``) and ``release`` it once the
counterpart delivery has also been seen; ``sweep_attributed`` frees any
remaining tombstones after the final flush, so entries whose counterpart never
arrives (memcpys with sampling enabled, kernels that produced no samples)
cannot accumulate past the end of the session.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from .cct import CCTNode


@dataclass(slots=True)
class PendingCorrelation:
    """What was known at launch time about a correlation ID."""

    correlation_id: int
    node: CCTNode
    #: Set once the activity record for this correlation was attributed.
    activity_attributed: bool = False
    #: Set once instruction samples for this correlation were attributed.
    samples_attributed: bool = False
    #: Set once the launching API call has exited.  Instruction samples are
    #: delivered synchronously right after the exit callback, so an entry
    #: that has exited but never got samples will never get any.
    launch_exited: bool = False

    @property
    def attributed(self) -> bool:
        """Whether at least one asynchronous delivery has been attributed."""
        return self.activity_attributed or self.samples_attributed


class CorrelationRegistry:
    """Maps correlation IDs to the CCT nodes of their launching call paths."""

    def __init__(self) -> None:
        self._pending: Dict[int, PendingCorrelation] = {}
        self.registered = 0
        self.resolved = 0
        self.unresolved = 0
        #: Attributed tombstones freed by ``sweep_attributed`` (end of session).
        self.swept = 0

    def register(self, correlation_id: int, node: CCTNode) -> PendingCorrelation:
        """Associate a freshly issued correlation ID with its launch-site node."""
        pending = self._pending[correlation_id] = PendingCorrelation(correlation_id, node)
        self.registered += 1
        return pending

    def resolve(self, correlation_id: int) -> Optional[PendingCorrelation]:
        """Look up (and keep) the launch context for an asynchronous delivery."""
        pending = self._pending.get(correlation_id)
        if pending is None:
            self.unresolved += 1
        else:
            self.resolved += 1
        return pending

    def peek(self, correlation_id: int) -> Optional[PendingCorrelation]:
        """Look up an entry without touching the resolved/unresolved stats.

        For lifecycle bookkeeping (marking the launch exited, checking
        whether a tombstone can be freed) rather than metric attribution.
        """
        return self._pending.get(correlation_id)

    def release(self, correlation_id: int) -> None:
        """Drop a correlation ID once all its deliveries have been attributed."""
        self._pending.pop(correlation_id, None)

    def sweep_attributed(self) -> int:
        """Free every at-least-once-attributed entry; returns how many.

        Called after the final activity flush of a session: nothing more can
        arrive, so tombstones kept alive for a counterpart delivery that never
        came (and never will) are reclaimed.  Entries that were *never*
        attributed are deliberately kept — a nonzero ``pending_count`` after
        the sweep is the observable signal that launches lost their records.
        """
        stale = [correlation_id for correlation_id, pending in self._pending.items()
                 if pending.attributed]
        for correlation_id in stale:
            del self._pending[correlation_id]
        self.swept += len(stale)
        return len(stale)

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def clear(self) -> None:
        self._pending.clear()
