"""Self-telemetry: counters, gauges, histograms and span tracing.

The profiler grew machinery whose internals are invisible from the
outside — catalog-lock waits, lazy block decodes, CRC verifications,
index demotions, seal/compaction passes.  This module is the substrate
those seams report through: a process-wide :class:`Telemetry` registry of

* **counters** — monotonically increasing floats, exact under threads
  (every bump takes the registry lock);
* **gauges** — last-write-wins floats (``gauge_set``) with an additive
  form (``gauge_add``) for level-style values;
* **histograms** — fixed log2-scale buckets anchored at
  :data:`BUCKET_BASE` seconds plus a Welford ``(count, sum, min, max,
  mean, m2)`` state folded with the exact operation sequence of
  ``repro.core.cct.accumulate_name_state`` (singleton merges), so
  snapshot statistics compose the same way profile metrics do;
* **spans** — ``with telemetry.span("fleet.query.top_kernels", ...)``
  records a ``(name, tid, start, duration, span_id, parent_id, args)``
  tuple into a bounded ring buffer.  Parent/child nesting is tracked per
  thread; the buffer drops the oldest span when full and counts drops.

Disabled (the default) must be near-free: the only cost on an
instrumented path is one attribute check (``telemetry.enabled``) — and
``span()`` returns a shared stateless no-op context manager.  The
enabled cost is gated by ``benchmarks/test_perf_telemetry.py``.

Exports: :meth:`Telemetry.snapshot` (flat JSON metrics),
:meth:`Telemetry.chrome_trace` (Chrome ``trace_event`` JSON — loads in
Perfetto / ``chrome://tracing``), and atomic file writers for both.

This module deliberately imports nothing from the rest of ``repro`` —
every instrumented layer (``repro.core.storage`` downward) imports it,
so it must sit at the bottom of the dependency graph.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from collections import deque
from typing import Dict, Iterator, List, Optional, Tuple

#: Snapshot schema version; bump on any layout change.
SNAPSHOT_VERSION = 1

#: Histogram bucket 0 upper bound, in the unit being observed (seconds
#: for every built-in metric): 1 nanosecond.  Bucket ``i`` covers
#: ``(BUCKET_BASE * 2**(i-1), BUCKET_BASE * 2**i]``.
BUCKET_BASE = 1e-9

#: Number of log2 buckets.  ``BUCKET_BASE * 2**63`` is ~292 years — the
#: top bucket is an unreachable overflow catch-all in practice.
BUCKET_COUNT = 64

#: Default span ring-buffer capacity.
DEFAULT_SPAN_CAPACITY = 65536


def bucket_index(value: float) -> int:
    """Log2 bucket index for ``value`` (values ``<= BUCKET_BASE`` land
    in bucket 0, values beyond the top bucket clamp into it)."""
    if value <= BUCKET_BASE:
        return 0
    # frexp(x) = (m, e) with x = m * 2**e and 0.5 <= m < 1, so e is
    # ceil(log2(x)) for non-powers-of-two and log2(x) + 1 at powers.
    mantissa, exponent = math.frexp(value / BUCKET_BASE)
    if mantissa == 0.5:
        exponent -= 1
    return min(max(exponent, 0), BUCKET_COUNT - 1)


def bucket_upper_bound(index: int) -> float:
    """Inclusive upper bound of bucket ``index``."""
    return BUCKET_BASE * (2.0 ** index)


class Histogram:
    """Log2-bucketed histogram with a Welford summary state.

    ``observe`` folds each value as a singleton ``(1, v, v, v, v, 0.0)``
    state using the same operation sequence as
    ``repro.core.cct.accumulate_name_state``, the fold behind every
    per-name rollup (implemented inline — this module must not import the
    core layers it instruments), so ``mean``/``m2`` here and profile
    metric states agree bit for bit when fed the same stream.
    """

    __slots__ = ("count", "total", "minimum", "maximum", "mean", "m2",
                 "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = 0.0
        self.maximum = 0.0
        self.mean = 0.0
        self.m2 = 0.0
        self.buckets = [0] * BUCKET_COUNT

    def observe(self, value: float) -> None:
        value = float(value)
        self.buckets[bucket_index(value)] += 1
        if self.count == 0:
            self.count = 1
            self.total = 0.0 + value
            self.minimum = value
            self.maximum = value
            self.mean = value
            self.m2 = 0.0
            return
        combined = self.count + 1
        delta = value - self.mean
        self.m2 = self.m2 + 0.0 + delta * delta * self.count * 1 / combined
        self.mean = (self.mean * self.count + value * 1) / combined
        self.total = self.total + value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        self.count = combined

    def to_dict(self) -> Dict:
        filled = [[index, bucket_upper_bound(index), count]
                  for index, count in enumerate(self.buckets) if count]
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.mean,
            "m2": self.m2,
            "buckets": filled,
        }


class _NoopSpan:
    """Shared do-nothing span handed out while telemetry is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()


class _Span:
    """A live span: times its ``with`` body and records on exit."""

    __slots__ = ("_telemetry", "name", "args", "span_id", "parent_id",
                 "_start")

    def __init__(self, telemetry: "Telemetry", name: str, args: Dict) -> None:
        self._telemetry = telemetry
        self.name = name
        self.args = args
        self.span_id = 0
        self.parent_id: Optional[int] = None
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._telemetry._span_enter(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        duration = time.perf_counter() - self._start
        self._telemetry._span_exit(self, duration)
        return False


class Telemetry:
    """Process-wide registry of counters, gauges, histograms and spans.

    Thread-safe; disabled by default.  All mutation is dropped while
    ``enabled`` is False, so instrumentation can call unconditionally —
    though hot paths should guard with ``if telemetry.enabled:`` to keep
    the disabled cost at one attribute check.
    """

    def __init__(self, span_capacity: int = DEFAULT_SPAN_CAPACITY) -> None:
        self.enabled = False
        self.span_capacity = int(span_capacity)
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._spans: deque = deque(maxlen=self.span_capacity)
        self._spans_dropped = 0
        self._next_span_id = 1
        self._local = threading.local()
        self._epoch = time.perf_counter()

    # -- lifecycle ------------------------------------------------------------------

    def enable(self) -> None:
        """Turn recording on (idempotent; does not clear prior data)."""
        self.enabled = True

    def disable(self) -> None:
        """Turn recording off; recorded data stays readable."""
        self.enabled = False

    def reset(self) -> None:
        """Drop every recorded metric and span; restart the trace clock."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._spans.clear()
            self._spans_dropped = 0
            self._next_span_id = 1
            self._epoch = time.perf_counter()
        self._local = threading.local()

    # -- scalar metrics -------------------------------------------------------------

    def count(self, name: str, amount: float = 1.0) -> None:
        """Bump a monotonic counter (exact under threaded increments)."""
        if not self.enabled:
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + amount

    def counter_value(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0.0)

    def gauge_set(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        with self._lock:
            self._gauges[name] = float(value)

    def gauge_add(self, name: str, delta: float) -> None:
        if not self.enabled:
            return
        with self._lock:
            self._gauges[name] = self._gauges.get(name, 0.0) + delta

    def observe(self, name: str, value: float) -> None:
        """Record one value into the named histogram."""
        if not self.enabled:
            return
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram()
            histogram.observe(value)

    # -- spans ----------------------------------------------------------------------

    def span(self, name: str, **args):
        """Context manager timing its body into the span ring buffer.

        While disabled this returns a shared no-op object — no
        allocation, no clock read.  Keyword arguments become the span's
        ``args`` payload in the Chrome trace and must be
        JSON-serializable.
        """
        if not self.enabled:
            return _NOOP_SPAN
        return _Span(self, name, args)

    def _thread_stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span_enter(self, span: _Span) -> None:
        stack = self._thread_stack()
        span.parent_id = stack[-1] if stack else None
        with self._lock:
            span.span_id = self._next_span_id
            self._next_span_id += 1
        stack.append(span.span_id)

    def _span_exit(self, span: _Span, duration: float) -> None:
        stack = self._thread_stack()
        if stack and stack[-1] == span.span_id:
            stack.pop()
        record = (span.name, threading.get_ident(),
                  (span._start - self._epoch) * 1e6, duration * 1e6,
                  span.span_id, span.parent_id, span.args)
        with self._lock:
            if len(self._spans) == self.span_capacity:
                self._spans_dropped += 1
            self._spans.append(record)

    def spans(self) -> List[Tuple]:
        """The recorded span tuples, oldest first:
        ``(name, tid, start_us, dur_us, span_id, parent_id, args)``."""
        with self._lock:
            return list(self._spans)

    # -- export ---------------------------------------------------------------------

    def snapshot(self) -> Dict:
        """Flat JSON-serializable view of every registered metric."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = {name: histogram.to_dict()
                          for name, histogram in self._histograms.items()}
            recorded = len(self._spans)
            dropped = self._spans_dropped
        return {
            "version": SNAPSHOT_VERSION,
            "enabled": self.enabled,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "spans": {
                "recorded": recorded,
                "dropped": dropped,
                "capacity": self.span_capacity,
            },
        }

    def chrome_trace(self) -> Dict:
        """Chrome ``trace_event`` JSON for the recorded spans.

        One ``"X"`` (complete) event per span with microsecond ``ts`` /
        ``dur`` relative to the trace epoch, the recording thread's id
        as ``tid``, and ``span_id`` / ``parent_id`` threaded through
        ``args`` so the nesting survives tools that re-sort events.  A
        ``"M"`` metadata event names each thread.  The result loads in
        Perfetto and ``chrome://tracing`` as-is.
        """
        spans = self.spans()
        pid = os.getpid()
        events: List[Dict] = []
        tids = sorted({tid for (_n, tid, _ts, _d, _s, _p, _a) in spans})
        for position, tid in enumerate(tids):
            events.append({
                "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                "args": {"name": f"thread-{position}"},
            })
        for name, tid, start_us, dur_us, span_id, parent_id, args in spans:
            payload = dict(args)
            payload["span_id"] = span_id
            if parent_id is not None:
                payload["parent_id"] = parent_id
            events.append({
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": round(start_us, 3),
                "dur": round(dur_us, 3),
                "pid": pid,
                "tid": tid,
                "args": payload,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def export_snapshot(self, path: str) -> None:
        _atomic_json_dump(self.snapshot(), path)

    def export_trace(self, path: str) -> None:
        _atomic_json_dump(self.chrome_trace(), path)


def _atomic_json_dump(payload: Dict, path: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    temp_path = f"{path}.{os.getpid()}.tmp"
    try:
        with open(temp_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(temp_path, path)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise


def diff_snapshots(baseline: Dict, candidate: Dict) -> Dict:
    """Delta between two metric snapshots (``candidate - baseline``).

    The watcher's health time-series makes snapshot pairs common — "what
    moved between these two ticks?" — and the buckets compose differently:

    * **counters** are monotonic, so they subtract per name; names present
      on one side only diff against zero.  Zero deltas are omitted — the
      diff shows what moved.
    * **gauges** are last-write-wins levels, so the candidate's value wins
      outright; gauges only the baseline knew are listed as vanished.
    * **histograms** diff ``count``/``sum`` and the filled bucket rows
      bucket-by-bucket (``mean``/``min``/``max`` do not subtract — the
      candidate's are reported for context).
    * **spans** diff ``recorded`` and ``dropped``.
    """
    def _bucket_map(histogram: Dict) -> Dict[int, int]:
        return {int(index): int(count)
                for index, _upper, count in histogram.get("buckets", [])}

    base_counters = dict(baseline.get("counters", {}))
    cand_counters = dict(candidate.get("counters", {}))
    counters = {}
    for name in sorted(set(base_counters) | set(cand_counters)):
        delta = cand_counters.get(name, 0.0) - base_counters.get(name, 0.0)
        if delta:
            counters[name] = delta

    base_gauges = dict(baseline.get("gauges", {}))
    cand_gauges = dict(candidate.get("gauges", {}))

    base_histograms = dict(baseline.get("histograms", {}))
    cand_histograms = dict(candidate.get("histograms", {}))
    histograms = {}
    for name in sorted(set(base_histograms) | set(cand_histograms)):
        base = base_histograms.get(name, {})
        cand = cand_histograms.get(name, {})
        base_buckets = _bucket_map(base)
        cand_buckets = _bucket_map(cand)
        bucket_rows = []
        for index in sorted(set(base_buckets) | set(cand_buckets)):
            delta = cand_buckets.get(index, 0) - base_buckets.get(index, 0)
            if delta:
                bucket_rows.append([index, bucket_upper_bound(index), delta])
        delta_count = cand.get("count", 0) - base.get("count", 0)
        delta_sum = cand.get("sum", 0.0) - base.get("sum", 0.0)
        if delta_count or delta_sum or bucket_rows:
            histograms[name] = {
                "count": delta_count,
                "sum": delta_sum,
                "mean": cand.get("mean", 0.0),
                "min": cand.get("min", 0.0),
                "max": cand.get("max", 0.0),
                "buckets": bucket_rows,
            }

    base_spans = dict(baseline.get("spans", {}))
    cand_spans = dict(candidate.get("spans", {}))
    return {
        "version": SNAPSHOT_VERSION,
        "diff": True,
        "counters": counters,
        "gauges": dict(cand_gauges),
        "gauges_vanished": sorted(set(base_gauges) - set(cand_gauges)),
        "histograms": histograms,
        "spans": {
            "recorded": (cand_spans.get("recorded", 0)
                         - base_spans.get("recorded", 0)),
            "dropped": (cand_spans.get("dropped", 0)
                        - base_spans.get("dropped", 0)),
            "capacity": cand_spans.get("capacity", 0),
        },
    }


def iter_span_children(spans: List[Tuple],
                       span_id: Optional[int]) -> Iterator[Tuple]:
    """Yield the spans whose ``parent_id`` is ``span_id`` (None = roots)."""
    for span in spans:
        if span[5] == span_id:
            yield span


#: The process-wide registry every instrumented layer reports through.
TELEMETRY = Telemetry()
