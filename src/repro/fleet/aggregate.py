"""Cross-run fleet aggregation over stored profiles.

A :class:`FleetAggregator` answers "across these N runs, where does the time
go?" in two gears:

* **summary rows** — ``total_metric`` and ``per_run_totals`` add each
  run's :class:`~repro.fleet.index.RunSummary` totals; every per-name query
  is one projection of the runs' per-name Welford rows folded in run
  order — ``aggregate_by_name`` their sums, ``name_states`` their states,
  ``top_kernels`` the ranking ``ProfileDatabase.top_kernels`` applies to
  one profile (see ``repro.core.cct``).  A run carrying a valid
  fleet-index summary (see ``repro.fleet.index``) is served from it and *no
  profile is opened at all*.  Every other run — no valid stored summary,
  or ``use_index=False`` — builds the same summary from its view with
  ``RunSummary.from_view`` on its first query, reading every column block
  once, and keeps it for the aggregator's life.  Stored and rebuilt rows
  are identical, so the two answer bit for bit alike;
* **the fleet CCT** — :meth:`merged_tree` unions every run's shards with
  ``CallingContextTree.merge_from`` (parallel Welford ``MetricSet.merge``
  per aligned context), in run order then shard order — the identical merge
  sequence a single profile holding all those shards would replay, which is
  what makes fleet-merging N single-run profiles bit-for-bit equivalent to
  one profile that collected all N runs (the property the fleet test suite
  pins down).  Structure needs bytes, so this gear opens views on demand;
  it is the only place a store's runs are hydrated and merged.

An aggregator is a view of a store's immutable runs, so nothing it answers
can go stale: every query projects the runs' summaries afresh, with no memo
between queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..core import metrics as M
from ..core.cct import (CallingContextTree, ShardedCallingContextTree,
                        rank_kernels, states_by_name, sums_by_name)
from ..core.storage import LazyProfileView, ProfileFormatError
from ..dlmonitor.callpath import FrameKind
from ..obs import TELEMETRY
from .index import RunSummary

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from .store import ProfileStore, RunRecord


@dataclass
class DegradedRun:
    """One run a fleet query had to proceed without."""

    run_id: str
    #: Why (a ``ProfileCorruptionError``/``ProfileFormatError`` message, a
    #: catalog quarantine reason, or an OS-level read failure).
    reason: str
    #: Where it dropped out: ``"catalog"`` (already quarantined when the
    #: aggregator was built), ``"open"`` (failed to open/map), or
    #: ``"query"`` (corruption detected lazily while answering a query).
    stage: str

    def as_dict(self) -> Dict[str, str]:
        return {"run_id": self.run_id, "reason": self.reason,
                "stage": self.stage}


class _RunSource:
    """One healthy run: its catalog record, summary and/or open view.

    ``summary`` is what every per-name query reads.  A source built with
    one is ``indexed``: it holds the store's validated summary and opens its
    ``view`` only for structural queries.  Every other source holds its view
    and builds ``summary`` from it on its first query.
    """

    __slots__ = ("run_id", "record", "summary", "view", "indexed")

    def __init__(self, record: "RunRecord",
                 summary: Optional[RunSummary] = None,
                 view: Optional[LazyProfileView] = None) -> None:
        self.run_id = record.run_id
        self.record = record
        self.summary = summary
        self.view = view
        self.indexed = summary is not None


class FleetAggregator:
    """Cross-run aggregation over an ordered set of a store's runs.

    Built by :meth:`from_store` (which ``ProfileStore.aggregator`` calls).

    **Graceful degradation**: a corrupt run never poisons a fleet answer and
    never turns one into an exception.  Runs already quarantined in the
    catalog are skipped at construction; a run that builds its summary
    from its view reads every block on its first query, and so does every
    run :meth:`merged_tree` hydrates.  A checksum failure there demotes the
    run on the spot: dropped from the healthy set, quarantined in the
    store's catalog, and recorded in :meth:`degradation_report`, while the
    query returns the answer over every healthy run.  Summary-row queries
    over index-served runs never read profile bytes, so rot that postdates
    ingest cannot surface through them — detecting it is
    ``ProfileStore.scrub``'s job (or pass ``use_index=False`` to force
    byte-touching queries).
    """

    def __init__(self, store: "ProfileStore", sources: Dict[str, _RunSource],
                 degraded: List[DegradedRun],
                 index_problems: Dict[str, str]) -> None:
        self._store = store
        #: ``run id → _RunSource`` in run order (run order is the merge
        #: order, so it is part of the aggregator's contract).
        self._sources = sources
        self._degraded: Dict[str, DegradedRun] = {
            entry.run_id: entry for entry in degraded}
        #: ``run id → why its index summary was unusable`` (fallback runs).
        self._index_problems = index_problems
        self._requested = len(sources) + len(degraded)
        self._merged: Optional[CallingContextTree] = None
        #: How many query passes have run, each reading every run's summary
        #: once (``top_kernels`` makes two) — observable, so tests and the
        #: benchmark can pin what each query costs.
        self.aggregate_passes = 0

    @classmethod
    def from_store(cls, store: "ProfileStore",
                   run_ids: Optional[List[str]] = None,
                   use_index: bool = True,
                   **filters) -> "FleetAggregator":
        """Open an aggregator over a store's runs (explicit ids or filters).

        Runs with a valid fleet-index summary are *not* opened — their
        queries will be served from index rows.  Runs without one (a
        pre-index store, a stale or corrupt index file, ``use_index=False``)
        open eagerly and build their summary from the view on their first
        query; open failures are skipped into the degradation report and
        quarantined instead of raising, and an explicit ``run_ids``
        selection that names a quarantined run degrades it the same way
        rather than resurrecting it.  The returned aggregator owns any views
        it opens: ``close()`` (or the context manager) releases every
        mapping.
        """
        if run_ids is not None:
            records = [store.get(run_id) for run_id in run_ids]
        else:
            records = store.find(**filters)
        index = store.fleet_index if use_index else None
        sources: Dict[str, _RunSource] = {}
        degraded: List[DegradedRun] = []
        problems: Dict[str, str] = {}
        try:
            for record in records:
                if not record.healthy:
                    degraded.append(DegradedRun(
                        run_id=record.run_id, stage="catalog",
                        reason=f"quarantined: {record.quarantine_reason}"))
                    continue
                summary = problem = None
                if index is not None:
                    summary, problem = index.summary_for(record)
                if summary is not None:
                    sources[record.run_id] = _RunSource(record,
                                                        summary=summary)
                    continue
                if problem is not None:
                    problems[record.run_id] = problem
                try:
                    view = store.open_view(record.run_id)
                except (ProfileFormatError, OSError) as error:
                    degraded.append(DegradedRun(
                        run_id=record.run_id, stage="open",
                        reason=str(error)))
                    store.quarantine(record.run_id, str(error))
                    continue
                sources[record.run_id] = _RunSource(record, view=view)
        except BaseException:
            for source in sources.values():
                if source.view is not None:
                    source.view.close()
            raise
        if degraded and TELEMETRY.enabled:
            TELEMETRY.count("fleet.degraded_runs", len(degraded))
        return cls(store, sources, degraded, problems)

    # -- lifecycle ------------------------------------------------------------------

    def close(self) -> None:
        for source in self._sources.values():
            if source.view is not None:
                source.view.close()

    def __enter__(self) -> "FleetAggregator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- run inventory ---------------------------------------------------------------

    def run_ids(self) -> List[str]:
        return list(self._sources)

    @property
    def run_count(self) -> int:
        return len(self._sources)

    @property
    def indexed_run_ids(self) -> List[str]:
        """Runs whose queries are served from index rows (no profile I/O)."""
        return [run_id for run_id, source in self._sources.items()
                if source.indexed]

    @property
    def opened_run_ids(self) -> List[str]:
        """Runs holding an open ``LazyProfileView`` (fallback or structural)."""
        return [run_id for run_id, source in self._sources.items()
                if source.view is not None]

    def view(self, run_id: str) -> LazyProfileView:
        """The run's lazy view (opened on demand for index-served runs)."""
        source = self._sources[run_id]
        view = self._ensure_view(source)
        if view is None:
            raise KeyError(f"run {run_id!r} has no readable profile "
                           f"(demoted: {self._degraded[run_id].reason})")
        return view

    def metric_names(self) -> List[str]:
        names: List[str] = []
        for source in self._sources.values():
            run_metrics = (source.view.metric_names() if source.summary is None
                           else source.summary.metric_names())
            for metric in run_metrics:
                if metric not in names:
                    names.append(metric)
        return names

    @property
    def hydrated_run_ids(self) -> List[str]:
        """Runs whose views were fully hydrated (summary-row queries keep this
        empty)."""
        return [run_id for run_id, source in self._sources.items()
                if source.view is not None and source.view.hydrated]

    # -- graceful degradation ------------------------------------------------------------

    @property
    def degraded_run_ids(self) -> List[str]:
        return list(self._degraded)

    @property
    def is_degraded(self) -> bool:
        return bool(self._degraded)

    def degradation_report(self) -> Dict[str, object]:
        """Which runs this aggregator is answering *without*, and why.

        Schema (also in ``docs/FLEET.md``)::

            {"requested_runs": N, "healthy_runs": M, "degraded": bool,
             "degraded_runs": [{"run_id", "reason", "stage"}, ...],
             "index": {"indexed_runs": I, "fallback_runs": F,
                       "problems": [{"run_id", "reason"}, ...]},
             "counts": {"requested", "healthy", "degraded", "indexed",
                        "fallback", "index_problems",
                        "degraded_by_stage": {stage: n}}}

        The ``index`` section is informational: a run listed in its
        ``problems`` (a corrupt/stale/version-mismatched summary) still
        answers every query — from a summary rebuilt from its profile
        bytes — it just lost the fast path.  Only ``degraded_runs`` entries
        are missing from answers.

        ``counts`` is a stable flat rollup (every value an ``int`` except
        the per-stage dict) so dashboards and tests read sizes directly
        instead of ``len()``-ing nested lists; its key set is pinned by a
        schema-stability test and only ever grows.
        """
        indexed = len(self.indexed_run_ids)
        by_stage: Dict[str, int] = {}
        for entry in self._degraded.values():
            by_stage[entry.stage] = by_stage.get(entry.stage, 0) + 1
        return {
            "requested_runs": self._requested,
            "healthy_runs": len(self._sources),
            "degraded": bool(self._degraded),
            "degraded_runs": [entry.as_dict()
                              for entry in self._degraded.values()],
            "index": {
                "indexed_runs": indexed,
                "fallback_runs": len(self._sources) - indexed,
                "problems": [{"run_id": run_id, "reason": reason}
                             for run_id, reason in
                             self._index_problems.items()],
            },
            "counts": {
                "requested": self._requested,
                "healthy": len(self._sources),
                "degraded": len(self._degraded),
                "indexed": indexed,
                "fallback": len(self._sources) - indexed,
                "index_problems": len(self._index_problems),
                "degraded_by_stage": by_stage,
            },
        }

    def _demote(self, run_id: str, reason: str, stage: str = "query") -> None:
        """Drop a run that turned out corrupt mid-query (or unopenable).

        The view is closed and removed, a merged tree built before the
        corruption surfaced is discarded, the run is recorded in the
        degradation report, and it is quarantined in the store's catalog so
        every later reader skips it too.
        """
        source = self._sources.pop(run_id, None)
        if source is not None and source.view is not None:
            source.view.close()
        self._degraded[run_id] = DegradedRun(run_id=run_id, reason=reason,
                                             stage=stage)
        if TELEMETRY.enabled:
            TELEMETRY.count("fleet.degraded_runs")
        self._merged = None
        try:
            self._store.quarantine(run_id, reason)
        except KeyError:  # removed from the catalog behind our back
            pass

    def _ensure_view(self, source: _RunSource) -> Optional[LazyProfileView]:
        """The source's open view, opening it from the store on demand.

        Index-served runs only reach here from structural queries
        (``merged_tree``/``view``).  An open failure demotes the run
        (stage ``"open"``) and returns None.
        """
        if source.view is not None:
            return source.view
        try:
            source.view = self._store.open_view(source.run_id)
        except (ProfileFormatError, OSError) as error:
            self._demote(source.run_id, str(error), stage="open")
            return None
        return source.view

    def _gather(self, tasks: List[Tuple[str, Callable]]) -> Dict[str, object]:
        """Run per-run thunks, demoting runs whose thunk hits corruption.

        Corruption (``ProfileCorruptionError``/``ProfileFormatError``) and
        OS-level read failures degrade the run; any other exception — a bug,
        a bad argument — propagates untouched.  Results keep task order;
        demotion happens after every thunk ran.
        """
        results: Dict[str, object] = {}
        failures: Dict[str, str] = {}
        for run_id, thunk in tasks:
            try:
                results[run_id] = thunk()
            except (ProfileFormatError, OSError) as error:
                failures[run_id] = str(error)
        for run_id, reason in failures.items():
            self._demote(run_id, reason)
        return results

    def _summaries(self) -> Dict[str, RunSummary]:
        """One query pass: ``run id → summary`` for every healthy run, in run
        order.

        A run without a summary builds it from its view with
        ``RunSummary.from_view``, which reads every frames and column block,
        so a build that hits corruption demotes the run (stage ``"query"``).
        The built summary stays on the run's source: only its first pass
        reads blocks.
        """
        self.aggregate_passes += 1
        if TELEMETRY.enabled:
            TELEMETRY.count("fleet.aggregate_passes")
            indexed = sum(source.indexed for source in self._sources.values())
            if indexed:
                TELEMETRY.count("fleet.index_served", indexed)
            if len(self._sources) > indexed:
                TELEMETRY.count("fleet.lazy_served",
                                len(self._sources) - indexed)
        missing = [(source.run_id,
                    partial(RunSummary.from_view, source.run_id,
                            source.record.digest, source.view))
                   for source in self._sources.values()
                   if source.summary is None]
        for run_id, summary in self._gather(missing).items():
            self._sources[run_id].summary = summary
        return {run_id: source.summary
                for run_id, source in self._sources.items()}

    # -- summary-row queries --------------------------------------------------------

    def _run_totals(self, metric: str) -> Dict[str, float]:
        return {run_id: summary.totals.get(metric, 0.0)
                for run_id, summary in self._summaries().items()}

    def _rows(self, metric: str):
        """Every run's ``{(kind_code, name): state}`` rows for ``metric``, in
        run order — one pass, whatever the kind or fold."""
        return [summary.states.get(metric, {})
                for summary in self._summaries().values()]

    def total_metric(self, metric: str) -> float:
        """Fleet-wide metric total: the sum of every run's summary total.

        A run whose summary build fails block verification is demoted (see
        :meth:`degradation_report`) and the total covers the healthy rest.
        """
        with TELEMETRY.span("fleet.query.total_metric", metric=metric):
            return float(sum(self._run_totals(metric).values()))

    def per_run_totals(self, metric: str) -> Dict[str, float]:
        """``run id → metric total`` (the per-run breakdown of a fleet sum)."""
        with TELEMETRY.span("fleet.query.per_run_totals", metric=metric):
            return {run_id: float(total)
                    for run_id, total in self._run_totals(metric).items()}

    def aggregate_by_name(self, kind: Optional[FrameKind] = None,
                          metric: str = M.METRIC_GPU_TIME) -> Dict[str, float]:
        """Fleet-wide bottom-up rollup: the sums of the runs' rows for the
        kind (:data:`~repro.core.cct.ALL_KINDS` rows when None), folded in
        run order.  For one run that is bit for bit the profile's own
        ``aggregate_by_name``."""
        with TELEMETRY.span("fleet.query.aggregate_by_name", metric=metric,
                            kind=kind.name if kind is not None else ""):
            return sums_by_name(*self._rows(metric), kind=kind)

    def name_states(self, kind: Optional[FrameKind] = None,
                    metric: str = M.METRIC_GPU_TIME) -> Dict[str, Tuple]:
        """Fleet-wide per-name Welford states for one metric and kind.

        ``name → (count, sum, min, max, mean, m2)``, folded across runs in
        run order with the same merge arithmetic the CCT's parallel Welford
        uses — what the drift scans
        (:func:`repro.fleet.differential.name_drift`) consume.
        """
        with TELEMETRY.span("fleet.query.name_states", metric=metric,
                            kind=kind.name if kind is not None else ""):
            return states_by_name(*self._rows(metric), kind=kind)

    def top_kernels(self, k: int = 10,
                    metric: str = M.METRIC_GPU_TIME) -> List[Dict[str, object]]:
        """The fleet's ``k`` most expensive kernels (no tree is ever built).

        Ranked like ``ProfileDatabase.top_kernels`` — name, total, fraction
        of the fleet-wide total — from the fleet's rows; over a fully
        indexed store this reads index rows only.
        """
        with TELEMETRY.span("fleet.query.top_kernels", k=k, metric=metric):
            return rank_kernels(self, k, metric)

    # -- the fleet CCT ------------------------------------------------------------------

    def merged_tree(self) -> CallingContextTree:
        """The fleet-wide CCT: every run's shards copied into one tree.

        Runs share calling contexts, so they are unioned with
        ``CallingContextTree.merge_from``.  Structure needs bytes, so
        index-served runs open their views here (on demand); a run that
        cannot be opened, or whose blocks fail verification while it
        hydrates, demotes.  Hydration and merge cost are paid once and
        cached; runs merge in run order and, within a run, shard order.
        """
        if self._merged is None:
            # Open and hydrate first (demoting runs whose blocks turn out
            # corrupt), then merge only fully-decoded trees: a run must
            # never contribute half its shards to the fleet CCT.
            with TELEMETRY.span("fleet.query.merged_tree",
                                runs=len(self._sources)):
                tasks: List[Tuple[str, Callable]] = []
                for source in list(self._sources.values()):
                    view = self._ensure_view(source)
                    if view is not None:
                        tasks.append((source.run_id,
                                      (lambda v=view: v.hydrate())))
                hydrated_trees = self._gather(tasks)
                combined = CallingContextTree("fleet")
                for run_id in list(self._sources):
                    hydrated = hydrated_trees.get(run_id)
                    if hydrated is None:
                        continue
                    if isinstance(hydrated, ShardedCallingContextTree):
                        for shard in hydrated.shards().values():
                            combined.merge_from(shard)
                    else:
                        combined.merge_from(hydrated)
                self._merged = combined
        return self._merged

    def merged(self) -> CallingContextTree:
        """Alias so the aggregator plugs into tree-likes' query surfaces."""
        return self.merged_tree()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FleetAggregator(runs={len(self._sources)}, "
                f"indexed={len(self.indexed_run_ids)}, "
                f"merged={self._merged is not None})")
