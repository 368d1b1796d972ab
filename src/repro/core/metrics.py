"""Metric descriptors and online aggregation.

Unlike trace-based profilers that keep every event, DeepContext aggregates
metrics *online*: each calling-context-tree node keeps, per metric, a running
count, sum, minimum, maximum, mean and standard deviation (paper §4.2).  The
standard deviation uses Welford's algorithm so aggregation is single-pass and
numerically stable.

Two aggregation paths exist: :meth:`MetricAggregate.add` folds one observation
into a node's *exclusive* statistics on the hot attribution path, while
:meth:`MetricAggregate.merge` (the parallel/Chan variant of Welford's update)
combines whole aggregates.  The CCT's lazily materialized inclusive view is
built entirely from ``merge`` — one node→parent combine per tree edge —
instead of replaying per-observation ancestor updates, so the two paths must
and do agree to floating-point accuracy (see the equivalence tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple

# Field order of one serialized aggregate, shared by every flat encoding of
# metric columns (``CallingContextTree.to_columnar`` and the binary profile
# backend pack/unpack aggregates through ``MetricAggregate.state()`` in
# exactly this order).
AGGREGATE_STATE_FIELDS = ("count", "sum", "min", "max", "mean", "m2")

# Canonical metric names used throughout the repository.
METRIC_GPU_TIME = "gpu_time"
METRIC_CPU_TIME = "cpu_time"
METRIC_REAL_TIME = "real_time"
METRIC_KERNEL_COUNT = "kernel_count"
METRIC_MEMCPY_BYTES = "memcpy_bytes"
METRIC_ALLOCATED_BYTES = "allocated_bytes"
METRIC_BLOCKS = "blocks"
METRIC_THREADS_PER_BLOCK = "threads_per_block"
METRIC_REGISTERS = "registers_per_thread"
METRIC_SHARED_MEMORY = "shared_memory_bytes"
METRIC_STALL_SAMPLES = "stall_samples"
METRIC_INSTRUCTION_SAMPLES = "instruction_samples"
METRIC_OP_COUNT = "op_count"


@dataclass(frozen=True)
class MetricDescriptor:
    """Static description of a metric: unit and how to read it."""

    name: str
    unit: str = ""
    description: str = ""
    #: "gpu", "cpu" or "framework" — which collector produces it.
    source: str = "gpu"


STANDARD_METRICS: Dict[str, MetricDescriptor] = {
    METRIC_GPU_TIME: MetricDescriptor(METRIC_GPU_TIME, "s", "GPU kernel/memcpy execution time", "gpu"),
    METRIC_CPU_TIME: MetricDescriptor(METRIC_CPU_TIME, "s", "CPU time from interval sampling", "cpu"),
    METRIC_REAL_TIME: MetricDescriptor(METRIC_REAL_TIME, "s", "Wall-clock time from interval sampling", "cpu"),
    METRIC_KERNEL_COUNT: MetricDescriptor(METRIC_KERNEL_COUNT, "", "Number of kernel launches", "gpu"),
    METRIC_MEMCPY_BYTES: MetricDescriptor(METRIC_MEMCPY_BYTES, "B", "Bytes moved by memory copies", "gpu"),
    METRIC_ALLOCATED_BYTES: MetricDescriptor(METRIC_ALLOCATED_BYTES, "B", "Device bytes allocated", "gpu"),
    METRIC_BLOCKS: MetricDescriptor(METRIC_BLOCKS, "", "CTAs per kernel launch", "gpu"),
    METRIC_THREADS_PER_BLOCK: MetricDescriptor(METRIC_THREADS_PER_BLOCK, "", "Threads per CTA", "gpu"),
    METRIC_REGISTERS: MetricDescriptor(METRIC_REGISTERS, "", "Registers per thread", "gpu"),
    METRIC_SHARED_MEMORY: MetricDescriptor(METRIC_SHARED_MEMORY, "B", "Static shared memory per CTA", "gpu"),
    METRIC_STALL_SAMPLES: MetricDescriptor(METRIC_STALL_SAMPLES, "", "Stalled instruction samples", "gpu"),
    METRIC_INSTRUCTION_SAMPLES: MetricDescriptor(METRIC_INSTRUCTION_SAMPLES, "", "All instruction samples", "gpu"),
    METRIC_OP_COUNT: MetricDescriptor(METRIC_OP_COUNT, "", "Framework operator invocations", "framework"),
}


class MetricAggregate:
    """Running statistics of one metric at one CCT node."""

    __slots__ = ("count", "total", "minimum", "maximum", "_mean", "_m2")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self._mean = 0.0
        self._m2 = 0.0

    def add(self, value: float) -> None:
        """Fold one observation into the running statistics (Welford update)."""
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)

    def merge(self, other: "MetricAggregate") -> None:
        """Fold another aggregate into this one (parallel Welford merge)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.copy_from(other)
            return
        combined = self.count + other.count
        delta = other._mean - self._mean
        self._m2 = self._m2 + other._m2 + delta * delta * self.count * other.count / combined
        self._mean = (self._mean * self.count + other._mean * other.count) / combined
        self.count = combined
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)

    def copy(self) -> "MetricAggregate":
        """An independent copy (used when seeding the lazy inclusive view)."""
        duplicate = MetricAggregate()
        duplicate.copy_from(self)
        return duplicate

    def copy_from(self, other: "MetricAggregate") -> None:
        """Overwrite this aggregate's state in place with ``other``'s."""
        self.count = other.count
        self.total = other.total
        self.minimum = other.minimum
        self.maximum = other.maximum
        self._mean = other._mean
        self._m2 = other._m2

    def reset(self) -> None:
        """Return to the freshly constructed (zero observations) state."""
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self._mean = 0.0
        self._m2 = 0.0

    def state(self) -> Tuple[int, float, float, float, float, float]:
        """Exact internal state ``(count, sum, min, max, mean, m2)``.

        Lossless, unlike the legacy nested encoding (which stored the derived
        ``std``) — both written profile formats round-trip through it.
        """
        return (self.count, self.total, self.minimum if self.count else 0.0,
                self.maximum if self.count else 0.0, self._mean, self._m2)

    @classmethod
    def from_state(cls, count: int, total: float, minimum: float,
                   maximum: float, mean: float, m2: float) -> "MetricAggregate":
        aggregate = cls()
        if count == 0:
            return aggregate
        aggregate.count = count
        aggregate.total = total
        aggregate.minimum = minimum
        aggregate.maximum = maximum
        aggregate._mean = mean
        aggregate._m2 = m2
        return aggregate

    @property
    def sum(self) -> float:
        return self.total

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / self.count if self.count else 0.0

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    @property
    def min(self) -> float:
        return self.minimum if self.count else 0.0

    @property
    def max(self) -> float:
        return self.maximum if self.count else 0.0

    @classmethod
    def from_dict(cls, data: Mapping[str, float]) -> "MetricAggregate":
        """Read one aggregate of the legacy nested encoding: ``count``,
        ``sum``, ``min``, ``max``, ``mean`` and ``std`` (``m2`` is rebuilt
        as ``std² · count``)."""
        aggregate = cls()
        count = int(data.get("count", 0))
        if count == 0:
            return aggregate
        aggregate.count = count
        aggregate.total = float(data.get("sum", 0.0))
        aggregate.minimum = float(data.get("min", 0.0))
        aggregate.maximum = float(data.get("max", 0.0))
        aggregate._mean = float(data.get("mean", aggregate.total / count))
        std = float(data.get("std", 0.0))
        aggregate._m2 = std * std * count
        return aggregate

    def __repr__(self) -> str:
        return (f"MetricAggregate(count={self.count}, sum={self.total:.6g}, "
                f"mean={self.mean:.6g}, std={self.std:.6g})")


class MetricSet:
    """The per-node collection of metric aggregates."""

    __slots__ = ("_metrics",)

    def __init__(self) -> None:
        self._metrics: Dict[str, MetricAggregate] = {}

    def add(self, name: str, value: float) -> None:
        aggregate = self._metrics.get(name)
        if aggregate is None:
            aggregate = MetricAggregate()
            self._metrics[name] = aggregate
        aggregate.add(value)

    def add_many(self, values: Mapping[str, float]) -> None:
        """Fold one observation of several metrics in a single call."""
        metrics = self._metrics
        for name, value in values.items():
            aggregate = metrics.get(name)
            if aggregate is None:
                aggregate = MetricAggregate()
                metrics[name] = aggregate
            aggregate.add(value)

    def get(self, name: str) -> Optional[MetricAggregate]:
        return self._metrics.get(name)

    def put(self, name: str, aggregate: MetricAggregate) -> None:
        """Install a fully built aggregate (deserialization hot path)."""
        self._metrics[name] = aggregate

    def reset_to(self, other: "MetricSet") -> None:
        """Make this set equal ``other`` while keeping object identities alive.

        Callers may hold references to this set (and its aggregates) across
        re-materializations of the lazy inclusive view; resetting in place
        keeps those references reading current data instead of a stale copy.
        """
        metrics = self._metrics
        for name, mine in metrics.items():
            if name not in other._metrics:
                # Zero rather than delete: a subsequent merge() refills the
                # same aggregate object, preserving identity for held refs.
                mine.reset()
        for name, source in other._metrics.items():
            mine = metrics.get(name)
            if mine is None:
                metrics[name] = source.copy()
            else:
                mine.copy_from(source)

    def sum(self, name: str) -> float:
        aggregate = self._metrics.get(name)
        return aggregate.total if aggregate is not None else 0.0

    def count(self, name: str) -> int:
        aggregate = self._metrics.get(name)
        return aggregate.count if aggregate is not None else 0

    def merge(self, other: "MetricSet") -> None:
        for name, aggregate in other.items():
            mine = self._metrics.get(name)
            if mine is None:
                mine = MetricAggregate()
                self._metrics[name] = mine
            mine.merge(aggregate)

    def names(self) -> Iterable[str]:
        return self._metrics.keys()

    def items(self):
        return self._metrics.items()

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    @classmethod
    def from_dict(cls, data: Mapping[str, Mapping[str, float]]) -> "MetricSet":
        """Read one node's aggregates of the legacy nested encoding."""
        metric_set = cls()
        for name, aggregate_data in data.items():
            metric_set._metrics[name] = MetricAggregate.from_dict(aggregate_data)
        return metric_set

    def approximate_size_bytes(self) -> int:
        """Rough in-memory footprint used by the memory-overhead evaluation."""
        # One aggregate stores six floats/ints plus dict overhead.
        return 64 + len(self._metrics) * 96
