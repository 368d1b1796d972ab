"""Crash-safe JSONL health time-series (see docs/OBSERVABILITY.md).

The fleet watcher appends one telemetry snapshot per interval; the dashboard
reads them back as sparkline trends.  The file is plain JSON-lines so it can
be tailed, grepped and diffed without any tooling, and it follows the repo's
durability discipline adapted to an append-only log:

* every record is a single ``json.dumps`` line written with ``flush`` +
  ``os.fsync`` — a crash can tear at most the line being appended;
* readers tolerate a torn tail: an undecodable line is skipped (and counted),
  never raised, so the series stays readable across the crash that produced
  it;
* retention is bounded: once the record count passes ``max_records`` the file
  is rewritten keeping the newest records through
  :func:`repro.durable.atomic_write`, the atomic rename every other writer in
  the tree uses.

Like the rest of :mod:`repro.obs` this module imports nothing from the rest
of ``repro`` but the leaf :mod:`repro.durable` — it sits at the bottom of the
dependency graph so any layer (the watcher, the experiment runner, tests) can
log health records.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Optional, Tuple

from ..durable import atomic_write

#: Default retention bound: ~4k records keeps a 5s-interval watcher's series
#: under a day of history and the file in the low megabytes.
DEFAULT_MAX_RECORDS = 4096


class HealthTimeSeries:
    """Bounded, crash-safe JSON-lines log of timestamped health records."""

    def __init__(self, path: str, max_records: int = DEFAULT_MAX_RECORDS,
                 fsync: bool = True) -> None:
        if max_records < 1:
            raise ValueError(f"max_records must be >= 1, got {max_records}")
        self.path = str(path)
        self.max_records = int(max_records)
        self._fsync = fsync
        #: Records appended through this handle plus those found on disk at
        #: the first append (lazily counted); drives retention trims.
        self._count: Optional[int] = None
        #: Undecodable lines skipped by the last :meth:`records` read.
        self.last_read_skipped = 0

    # -- writing --------------------------------------------------------------------

    def append(self, record: Dict, ts: Optional[float] = None) -> Dict:
        """Append one record (stamped with ``ts``, default now) durably.

        Returns the stamped row.  The ``ts`` key leads the row so a raw
        ``tail -f`` of the file reads chronologically at a glance.
        """
        row = {"ts": float(time.time() if ts is None else ts)}
        row.update(record)
        line = json.dumps(row, separators=(",", ":"))
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        if self._count is None:
            self._count = self._count_on_disk()
        # Not atomic_write: an append-only log, where a crash tears at most
        # the last line, which records() skips.
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            if self._fsync:
                os.fsync(handle.fileno())
        self._count += 1
        if self._count > self.max_records:
            self._trim()
        return row

    def _count_on_disk(self) -> int:
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                return sum(1 for line in handle if line.strip())
        except OSError:
            return 0

    def _trim(self) -> None:
        """Rewrite the file keeping only the newest ``max_records`` rows."""
        rows = self.records()
        keep = rows[-self.max_records:]
        with atomic_write(self.path, "w") as handle:
            for row in keep:
                handle.write(json.dumps(row, separators=(",", ":")) + "\n")
            handle.flush()
            if self._fsync:
                os.fsync(handle.fileno())
        self._count = len(keep)

    # -- reading --------------------------------------------------------------------

    def records(self) -> List[Dict]:
        """Every decodable record, file order (chronological).

        A line that does not parse as a JSON object — the torn tail of a
        crashed append — is skipped and counted in :attr:`last_read_skipped`,
        never raised: the series must stay readable across the crash that
        tore it.
        """
        rows: List[Dict] = []
        skipped = 0
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        row = json.loads(line)
                    except ValueError:
                        skipped += 1
                        continue
                    if isinstance(row, dict):
                        rows.append(row)
                    else:
                        skipped += 1
        except OSError:
            pass  # no file yet: an empty series, not an error
        self.last_read_skipped = skipped
        return rows

    def last(self) -> Optional[Dict]:
        rows = self.records()
        return rows[-1] if rows else None

    def __len__(self) -> int:
        return len(self.records())

    def series(self, section: str, name: str) -> List[Tuple[float, float]]:
        """``(ts, value)`` pairs of one metric across the whole series.

        ``section`` is the snapshot bucket (``"counters"`` / ``"gauges"``),
        ``name`` the metric name inside it (names themselves contain dots, so
        the two are separate arguments rather than one dotted path).  Records
        missing the metric are skipped — a gauge that appears mid-series
        simply starts there.
        """
        points: List[Tuple[float, float]] = []
        for row in self.records():
            bucket = row.get(section)
            if isinstance(bucket, dict) and name in bucket:
                try:
                    points.append((float(row.get("ts", 0.0)),
                                   float(bucket[name])))
                except (TypeError, ValueError):
                    continue
        return points
