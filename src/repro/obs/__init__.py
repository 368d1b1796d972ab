"""Self-telemetry for the profiler's own machinery (see docs/OBSERVABILITY.md).

``TELEMETRY`` is the process-wide registry; instrumented layers import
it directly (``from ..obs import TELEMETRY``) so the
``durations_reported_through_obs`` check in ``tests/test_invariants.py``
can resolve the calls.  This package sits
at the bottom of the dependency graph and imports nothing from the rest
of ``repro``.
"""

from .telemetry import (BUCKET_BASE, BUCKET_COUNT, DEFAULT_SPAN_CAPACITY,
                        SNAPSHOT_VERSION, TELEMETRY, Histogram, Telemetry,
                        bucket_index, bucket_upper_bound, diff_snapshots,
                        iter_span_children)
from .timeseries import DEFAULT_MAX_RECORDS, HealthTimeSeries

__all__ = [
    "BUCKET_BASE",
    "BUCKET_COUNT",
    "DEFAULT_MAX_RECORDS",
    "DEFAULT_SPAN_CAPACITY",
    "SNAPSHOT_VERSION",
    "TELEMETRY",
    "HealthTimeSeries",
    "Histogram",
    "Telemetry",
    "bucket_index",
    "bucket_upper_bound",
    "diff_snapshots",
    "iter_span_children",
]
