"""Sample statistics, the failure ledger and the timer every layer call uses.

``summarize`` turns raw samples into the record every timing carries: the
median, the quartiles, the highest standard percentile that still has at
least ten samples beyond it, and the sample count.  ``Ledger`` counts
operations and failures so a broken step is reported, not raised.
``Recorder.timed`` times one call into a layer and, while the telemetry
registry is enabled, also wraps it in a ``bench.<layer>.<call>`` span.

Every timing is host-calibrated: ``Recorder.calibrate`` times a fixed
reference loop right before the operations it covers, and each timing is
divided by that reference's slowdown against its quiet cost.  Other tenants
of a shared host slow whole stretches of a run, sometimes whole runs, by up
to 1.8x; a median cannot cancel that, while an operation's time over an
adjacent reference's stays within a few percent.  Ratios of paired sessions
(``overhead_x``) cancel the slowdown by themselves and use raw times.
"""

from __future__ import annotations

import contextlib
import gc
import statistics
import sys
import time
import traceback
from typing import Dict, List, Optional, Sequence

from ..obs import TELEMETRY

#: Tail percentiles considered, highest first; one is reported only when at
#: least ``TAIL_MIN_BEYOND`` samples lie beyond it.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10
#: Size and repeats of the host-speed reference (about 12 ms in all).  It
#: allocates, as the timed layers do: on a shared host, other tenants slow
#: memory-bound work by up to 1.8x while a tight arithmetic loop slows by
#: 5%, so only an allocating reference tracks what the timings suffer.
REFERENCE_ENTRIES = 8000
REFERENCE_REPEATS = 3
#: The reference's median cost on a quiet host: the 2-vCPU VM the results
#: of record come from.  Calibrated timings read as milliseconds on that
#: host at rest.
REFERENCE_QUIET_SECONDS = 2.6e-3


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` (a single value repeats itself)."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank-interpolated percentile of ``values``."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * pct / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def summarize(values: Sequence[float]) -> Optional[Dict[str, float]]:
    """Median, quartiles, tail percentile and ``n`` of ``values`` (None if empty)."""
    values = [float(value) for value in values]
    if not values:
        return None
    q1, median, q3 = quartiles(values)
    summary = {"median": median, "q1": q1, "q3": q3, "n": len(values),
               "tail_pct": None, "tail": None}
    for pct in TAIL_PERCENTILES:
        if len(values) * (100.0 - pct) / 100.0 >= TAIL_MIN_BEYOND:
            summary["tail_pct"] = pct
            summary["tail"] = percentile(values, pct)
            break
    return summary


def combine(summaries: Sequence[Optional[Dict[str, float]]]) -> Optional[Dict[str, float]]:
    """Equal-weight mean of per-model summaries (``n`` adds up).

    A workload that rotates several models reports each statistic as the
    mean over its models, so a run whose cycle count is not a multiple of
    the rotation does not jump between one model's value and another's.
    """
    present = [summary for summary in summaries if summary is not None]
    if not present:
        return None
    combined: Dict[str, float] = {"n": sum(summary["n"] for summary in present)}
    for key in ("median", "q1", "q3"):
        combined[key] = statistics.fmean(summary[key] for summary in present)
    tails = [summary["tail"] for summary in present if summary["tail"] is not None]
    pcts = {summary["tail_pct"] for summary in present}
    if len(tails) == len(present) and len(pcts) == 1:
        combined["tail_pct"] = pcts.pop()
        combined["tail"] = statistics.fmean(tails)
    else:
        combined["tail_pct"] = None
        combined["tail"] = None
    return combined


class Ledger:
    """Operations attempted and failed (raised, or failed a correctness check)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    @contextlib.contextmanager
    def operation(self, name: str):
        """Count one operation; an exception inside is recorded, not raised.

        Yields the operation's state, which :meth:`check` marks failed; an
        operation fails at most once.
        """
        self.attempted += 1
        state = {"name": name, "failed": False}
        try:
            yield state
        except Exception:  # the benchmark keeps running and reports the failure
            traceback.print_exc(file=sys.stderr)
            self._fail(state, "raised")

    def check(self, state: Dict, condition: bool, what: str) -> bool:
        """Record a correctness check inside an operation; returns ``condition``."""
        if not condition:
            print(f"repro.bench: check failed in {state['name']}: {what}",
                  file=sys.stderr)
            self._fail(state, what)
        return condition

    def _fail(self, state: Dict, what: str) -> None:
        if not state["failed"]:
            state["failed"] = True
            self.failed += 1
            self.failures.append(f"{state['name']}: {what}")

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def _reference_work() -> None:
    table = {}
    for index in range(REFERENCE_ENTRIES):
        table[("key", index)] = [index, str(index), (index, index)]
    sum(len(value) for value in table.values())


def reference_seconds() -> float:
    """Median wall seconds of a fixed, allocation-heavy loop of the benchmark's own.

    GC is off for the loop only: the loop is the benchmark's instrument, not
    work a user pays for, and a collection inside it would time the
    program's live heap instead of the host.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REFERENCE_REPEATS):
            start = time.perf_counter()
            _reference_work()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class Recorder:
    """Per-model sample lists, filled by timed layer calls and direct records.

    Timings are host-calibrated: each is divided by ``slowdown``, the host's
    slowdown that the last :meth:`calibrate` measured next to it.
    """

    def __init__(self) -> None:
        self.samples: Dict[str, Dict[str, List[float]]] = {}
        self.slowdown = 1.0
        #: Every slowdown :meth:`calibrate` measured.
        self.slowdowns: List[float] = []

    def add(self, model: str, name: str, value: float) -> None:
        self.samples.setdefault(model, {}).setdefault(name, []).append(float(value))

    def calibrate(self) -> None:
        """Measure the host's slowdown now, against its quiet reference cost."""
        self.slowdown = reference_seconds() / REFERENCE_QUIET_SECONDS
        self.slowdowns.append(self.slowdown)

    def since(self, start: float) -> float:
        """Calibrated seconds since ``time.perf_counter()`` read ``start``."""
        return (time.perf_counter() - start) / self.slowdown

    @contextlib.contextmanager
    def timed(self, model: str, name: str):
        """Time the body into ``name`` (calibrated seconds) under a
        ``bench.<name>`` span."""
        with TELEMETRY.span(f"bench.{name}", model=model):
            start = time.perf_counter()
            try:
                yield
            finally:
                self.add(model, name, self.since(start))

    def values(self, model: str, name: str) -> List[float]:
        return self.samples.get(model, {}).get(name, [])

    def summary(self, models: Sequence[str], name: str,
                scale: float = 1.0) -> Optional[Dict[str, float]]:
        """:func:`combine` of each model's :func:`summarize` of ``name``."""
        return combine([summarize([value * scale
                                   for value in self.values(model, name)])
                        for model in models])
