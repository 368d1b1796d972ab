"""Forward/backward operator association.

In PyTorch the backward pass runs on dedicated backward threads whose native
call paths contain no Python source — DeepContext recovers the lost context
by recording, for every forward operator, its sequence ID together with its
Python and framework call path; backward operators carry the same sequence ID,
so the backward thread can look up the forward context and graft it onto its
own native call path (paper §4.1, "Forward and backward operator
association", and case study 6.1).

A record is released when its backward operator exits.  The tape skips
operators without backward kernels; their records die at the first forward
record after a backward pass, so one iteration's forward operators bound them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..pycontext import PyFrame


@dataclass(frozen=True)
class ForwardRecord:
    """Forward-side context stored per sequence ID."""

    op_name: str
    python_callpath: Tuple[PyFrame, ...]
    scope: Tuple[str, ...]


class ForwardBackwardAssociator:
    """Records forward contexts and resolves them from backward threads."""

    def __init__(self, max_records: int = 100_000) -> None:
        self.max_records = max_records
        self._records: Dict[int, ForwardRecord] = {}
        #: A backward operator has exited since the last forward record.
        self._backward_ran = False

    def record_forward(self, sequence_id: Optional[int], op_name: str,
                       python_callpath: Tuple[PyFrame, ...], scope: Tuple[str, ...]) -> None:
        """Store the forward context of an operator keyed by its sequence ID."""
        if sequence_id is None:
            return
        records = self._records
        if self._backward_ran:
            # A new forward pass: what the last backward pass skipped is dead.
            records.clear()
            self._backward_ran = False
        elif len(records) >= self.max_records:
            # Sequence IDs arrive in increasing order, so the first key is the oldest.
            del records[next(iter(records))]
        records[sequence_id] = ForwardRecord(op_name, python_callpath, scope)

    def release(self, sequence_id: Optional[int]) -> None:
        """Drop the record of a backward operator that has exited."""
        self._records.pop(sequence_id, None)
        self._backward_ran = True

    def lookup(self, sequence_id: Optional[int]) -> Optional[ForwardRecord]:
        """Fetch the forward record for a backward operator's sequence ID."""
        return self._records.get(sequence_id)

    @property
    def size(self) -> int:
        return len(self._records)

    def clear(self) -> None:
        self._records.clear()
