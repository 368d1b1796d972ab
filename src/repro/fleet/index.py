"""The fleet query index: catalog-side per-name summary rows per run.

Every fleet query (``FleetAggregator.total_metric`` / ``aggregate_by_name`` /
``top_kernels`` / ``name_states`` and the name-level drift scans built on
them) reads one representation per run: a :class:`RunSummary`, the run's
per-metric totals plus per-name Welford states.  The index builds that
summary once, at ingest, and persists it:

* a **global name dictionary** (``index/names.json``) interning every frame
  display name the store has seen, so per-run summaries store integer ids
  instead of repeating strings;
* a **per-run columnar summary** (``index/runs/<run_id>.json``): for each
  metric, the run's name rows (``repro.core.cct.NameRows``) as
  ``(name_id, kind_code, count, sum, min, max, mean, m2)`` — what
  ``LazyProfileView.column_name_states`` reads from the sealed blocks,
  including the ``ALL_KINDS`` rows an unfiltered ``aggregate_by_name``
  needs.

``FleetAggregator`` projects every per-name answer from these rows,
folded in run order, without opening a single profile.  A run
without a valid stored summary builds the identical one from its bytes
(:meth:`RunSummary.from_view`, the one function ingest, ``reindex`` and the
aggregator all build through), so indexed and rebuilt answers are
bit-for-bit equal.

Lifecycle contract:

* every index mutation happens under the store's advisory catalog lock
  (``_CatalogLock``) with a temp-file + ``os.replace`` promotion, the same
  crash-safety discipline as ``catalog.json`` (lint rules RL002/RL008 keep
  it that way);
* a summary is **valid** for a record only when its schema version matches
  :data:`INDEX_VERSION`, its digest matches the record's content address,
  and every name id resolves in the dictionary — anything else (including a
  missing or corrupt file) makes that run rebuild its summary from its
  profile bytes, reported but never fatal;
* a lost dictionary (missing, unreadable or from another version) drops
  every stored summary at the next write, because ids restart from zero and
  old ids would resolve to new names;
* ``ProfileStore.reindex()`` rebuilds summaries (backfilling pre-index
  stores); quarantine invalidates a run's summary, restore and scrub
  rebuild it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..obs import TELEMETRY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.storage import LazyProfileView

#: Schema version stamped into every index file.  Bump on any layout change:
#: readers refuse (and rebuild from profile bytes) rather than misread.
INDEX_VERSION = 1

#: Store-relative directory the index lives in.
INDEX_DIR = "index"
#: The global name dictionary file (inside ``INDEX_DIR``).
NAMES_NAME = "names.json"
#: Per-run summary directory (inside ``INDEX_DIR``).
RUNS_DIR = "runs"
SUMMARY_SUFFIX = ".json"


@dataclass
class RunSummary:
    """One run's query rows: per-metric totals and per-name Welford states."""

    run_id: str
    #: Full SHA-256 of the canonical profile bytes the summary was computed
    #: from; a summary only serves a record carrying the same digest.
    digest: str
    #: Whole-profile totals per metric (the same floats the catalog record
    #: carries — ``LazyProfileView.total_metric`` at ingest).
    totals: Dict[str, float] = field(default_factory=dict)
    #: ``metric → {(kind_code, name): (count, sum, min, max, mean, m2)}``
    #: including the ``ALL_KINDS`` rows (see ``repro.core.cct``).
    states: Dict[str, Dict[Tuple[int, str], Tuple]] = field(default_factory=dict)

    @classmethod
    def from_view(cls, run_id: str, digest: str,
                  view: "LazyProfileView") -> "RunSummary":
        """Build a run's summary from its profile bytes.

        Totals are ``view.total_metric`` and states are
        ``view.column_name_states``, for every metric the profile stores.
        Ingest, ``ProfileStore.reindex`` and the aggregator's fallback runs
        all build through here, so one function turns profile bytes into
        query rows.  Reads every frames and column block, so a block that
        fails verification raises ``ProfileCorruptionError`` here.
        """
        totals = {metric: view.total_metric(metric)
                  for metric in view.metric_names()}
        states = {metric: view.column_name_states(metric) for metric in totals}
        return cls(run_id=run_id, digest=digest, totals=totals, states=states)

    def metric_names(self) -> List[str]:
        return list(self.totals)


class FleetIndex:
    """Reader/writer for one store's on-disk query index.

    All mutation goes through :meth:`write_summary` / :meth:`remove`; reads
    validate before trusting (version, digest, name-id resolution) and
    return ``None`` plus a reason instead of raising, so a rotten index can
    only ever cost the fast path, never a query.
    """

    def __init__(self, root: str, lock_path: str) -> None:
        self.root = os.fspath(root)
        self.lock_path = lock_path
        #: ``(stat signature, names list)`` cache for the name dictionary.
        self._names_cache: Optional[Tuple[Tuple, List[str]]] = None
        #: ``run_id → (file stat signature, record digest, summary, problem)``
        #: — decoded summaries cached per handle so standing queries over an
        #: unchanged store stat each summary once and parse nothing.
        self._summary_cache: Dict[
            str, Tuple[Tuple, str, Optional[RunSummary], Optional[str]]] = {}

    # -- layout ---------------------------------------------------------------------

    @property
    def index_dir(self) -> str:
        return os.path.join(self.root, INDEX_DIR)

    @property
    def names_path(self) -> str:
        return os.path.join(self.index_dir, NAMES_NAME)

    @property
    def runs_dir(self) -> str:
        return os.path.join(self.index_dir, RUNS_DIR)

    def summary_path(self, run_id: str) -> str:
        return os.path.join(self.runs_dir, f"{run_id}{SUMMARY_SUFFIX}")

    def _catalog_lock(self):
        # Deferred import: store.py owns the lock (and imports this module).
        from .store import _CatalogLock

        return _CatalogLock(self.lock_path)

    # -- the global name dictionary ----------------------------------------------------

    def _names_signature(self) -> Optional[Tuple]:
        try:
            stat = os.stat(self.names_path)
        except OSError:
            return None
        return (stat.st_mtime_ns, stat.st_size)

    def names(self) -> Optional[List[str]]:
        """The interned name list (``name_id`` = position), or None when the
        dictionary is missing or unreadable.  Cached behind the file's stat
        signature, so steady-state queries stat once and parse nothing."""
        signature = self._names_signature()
        if signature is None:
            return None
        cached = self._names_cache
        if cached is not None and cached[0] == signature:
            return cached[1]
        try:
            with open(self.names_path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            return None
        if (not isinstance(data, dict)
                or int(data.get("version", 0)) != INDEX_VERSION):
            return None
        names = [str(name) for name in data.get("names", [])]
        self._names_cache = (signature, names)
        return names

    # -- writing ---------------------------------------------------------------------

    def write_summary(self, summary: RunSummary) -> None:
        """Persist one run's summary, interning new names as needed.

        The whole read-intern-write cycle runs under the advisory catalog
        lock so two ingesting processes serialize their dictionary appends
        (ids are append-only: an interned name never changes id), and each
        file write is a temp-file + ``os.replace`` promotion — a crash can
        never leave a half-written index file behind.

        When the dictionary is missing, unreadable or from another
        :data:`INDEX_VERSION`, ids restart from zero — so every stored
        summary is removed first, under the same lock, or its ids would
        stay in range and resolve to this run's names.  Those runs rebuild
        their summaries from their bytes until ``reindex``/``scrub``
        persist them again.
        """
        os.makedirs(self.runs_dir, exist_ok=True)
        with TELEMETRY.span("fleet.index.build", run_id=summary.run_id), \
                self._catalog_lock():
            self._names_cache = None  # re-read under the lock, not from cache
            names = self.names()
            rewrite_names = names is None
            if rewrite_names:
                names = []
                dropped = [run_id for run_id in self.run_ids()
                           if self.remove(run_id)]
                if dropped and TELEMETRY.enabled:
                    TELEMETRY.count("fleet.index_demoted", len(dropped))
            ids: Dict[str, int] = {name: i for i, name in enumerate(names)}
            for metric_states in summary.states.values():
                for (_kind_code, name) in metric_states:
                    if name not in ids:
                        ids[name] = len(names)
                        names.append(name)
                        rewrite_names = True
            payloads = []
            if rewrite_names:
                payloads.append((self.names_path,
                                 {"version": INDEX_VERSION, "names": names}))
            payloads.append((self.summary_path(summary.run_id), {
                "version": INDEX_VERSION,
                "run_id": summary.run_id,
                "digest": summary.digest,
                "totals": dict(summary.totals),
                "metrics": {
                    metric: [[ids[name], int(kind_code), int(state[0]),
                              state[1], state[2], state[3], state[4], state[5]]
                             for (kind_code, name), state in
                             metric_states.items()]
                    for metric, metric_states in summary.states.items()
                },
            }))
            for index_path, payload in payloads:
                temp_index_path = f"{index_path}.{os.getpid()}.tmp"
                try:
                    with open(temp_index_path, "w", encoding="utf-8") as handle:
                        json.dump(payload, handle)
                    os.replace(temp_index_path, index_path)
                except BaseException:
                    if os.path.exists(temp_index_path):
                        os.unlink(temp_index_path)
                    raise
        self._names_cache = None
        self._summary_cache.pop(summary.run_id, None)
        if TELEMETRY.enabled:
            TELEMETRY.count("fleet.index_builds")

    def remove(self, run_id: str) -> bool:
        """Drop one run's summary (quarantine/remove invalidation).

        The dictionary keeps the run's names — ids are append-only so other
        summaries' references stay valid.  Unlink is atomic; no lock needed.
        """
        self._summary_cache.pop(run_id, None)
        try:
            os.unlink(self.summary_path(run_id))
            return True
        except OSError:
            return False

    # -- reading ---------------------------------------------------------------------

    def run_ids(self) -> List[str]:
        """Run ids with a summary file on disk (validity not checked)."""
        try:
            entries = os.listdir(self.runs_dir)
        except OSError:
            return []
        return sorted(entry[:-len(SUMMARY_SUFFIX)] for entry in entries
                      if entry.endswith(SUMMARY_SUFFIX))

    def is_current(self, record) -> bool:
        """Whether the record's summary exists and validates."""
        summary, _problem = self.summary_for(record)
        return summary is not None

    def summary_for(self, record) -> Tuple[Optional[RunSummary], Optional[str]]:
        """``(summary, problem)`` for one catalog record.

        ``(summary, None)`` when the run's summary validates; ``(None,
        None)`` when the run simply has no summary (pre-index store — a
        silent rebuild); ``(None, reason)`` when a summary exists but
        cannot be trusted — unparseable, wrong schema version, stale digest,
        or unresolvable name ids.  Never raises: the index accelerates
        queries, it must not be able to fail them.
        """
        path = self.summary_path(record.run_id)
        try:
            stat = os.stat(path)
        except OSError:
            self._summary_cache.pop(record.run_id, None)
            return None, None
        signature = (stat.st_mtime_ns, stat.st_size)
        cached = self._summary_cache.get(record.run_id)
        if (cached is not None and cached[0] == signature
                and cached[1] == record.digest):
            return cached[2], cached[3]
        summary, problem = self._load_summary(path, record)
        self._summary_cache[record.run_id] = (signature, record.digest,
                                              summary, problem)
        if problem is not None and TELEMETRY.enabled:
            # Counted once per fresh validation failure (cache hits on the
            # same rotten file don't re-count): each bump is one stored
            # summary rejected, so its run rebuilds from profile bytes.
            TELEMETRY.count("fleet.index_demoted")
        return summary, problem

    def _load_summary(self, path: str,
                      record) -> Tuple[Optional[RunSummary], Optional[str]]:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError) as error:
            return None, f"index summary is unreadable: {error}"
        if not isinstance(data, dict):
            return None, "index summary is not a JSON object"
        version = int(data.get("version", 0))
        if version != INDEX_VERSION:
            return None, (f"index summary has schema version {version}, "
                          f"this build reads version {INDEX_VERSION}")
        if str(data.get("digest", "")) != record.digest:
            return None, ("index summary is stale: its digest does not match "
                          "the run's content address")
        names = self.names()
        if names is None:
            return None, ("the index name dictionary is missing or "
                          "unreadable")
        try:
            states: Dict[str, Dict[Tuple[int, str], Tuple]] = {}
            for metric, rows in dict(data.get("metrics", {})).items():
                decoded: Dict[Tuple[int, str], Tuple] = {}
                for row in rows:
                    (name_id, kind_code, count, total, minimum, maximum,
                     mean, m2) = row
                    if not 0 <= int(name_id) < len(names):
                        raise IndexError(f"name id {name_id} is not in the "
                                         f"dictionary (size {len(names)})")
                    decoded[(int(kind_code), names[int(name_id)])] = (
                        int(count), float(total), float(minimum),
                        float(maximum), float(mean), float(m2))
                states[str(metric)] = decoded
            totals = {str(metric): float(value)
                      for metric, value in dict(data.get("totals", {})).items()}
        except (IndexError, TypeError, ValueError, KeyError) as error:
            return None, (f"index summary rows are malformed or reference "
                          f"unknown name ids: {error}")
        return RunSummary(run_id=record.run_id, digest=record.digest,
                          totals=totals, states=states), None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FleetIndex({self.index_dir!r}, runs={len(self.run_ids())})"
