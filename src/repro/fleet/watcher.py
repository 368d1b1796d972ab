"""Live fleet watcher: continuous run monitoring over a checkpoint directory.

A :class:`FleetWatcher` turns the passive pieces built so far — streamed
checkpoint files, the content-addressed :class:`~repro.fleet.store.ProfileStore`,
the index-served :class:`~repro.fleet.aggregate.FleetAggregator`, the
analyzer's :class:`~repro.analyzer.regression.RegressionAnalysis` and the
``repro.obs`` telemetry registry — into a standing daemon:

* **tail live runs**: every poll it scans ``watch_dir`` for ``*.cctb``
  streams, attaches them with :meth:`LazyProfileView.attach` and follows new
  seals via :meth:`refresh` (which survives reseal *and* compaction, and whose
  no-change fast path makes an idle poll a ``stat`` plus a tail read).  A
  refresh that fails mid-rewrite degrades that run to its last sealed prefix —
  the old view keeps serving — and retries next tick; it never crashes the
  watcher;
* **ingest on completion**: a run is complete when its writer left a
  completion marker (``StreamingProfileWriter.close(mark_complete=True)``) or
  when no new seal has landed for ``settle_s`` seconds.  Complete runs are
  ingested into the store (content-addressed, under the catalog lock) and the
  configured :class:`RetentionPolicy` is applied via
  :meth:`ProfileStore.prune`;
* **standing jobs**: a periodic :meth:`ProfileStore.scrub` sweep files one
  issue per newly-rotten run, and a rolling-window population-drift job diffs
  each workload's older ingested runs against its newer ones —
  :func:`name_drift` over index-served aggregators as the cheap gate, then
  both aggregators' ``merged_tree`` + :class:`RegressionAnalysis` for ranked
  issues.  A run whose bytes rotted since ingest is demoted by that merge
  and filed as an issue; it never crashes the watcher either.  Issues land
  in a crash-safe JSONL issue log (same append discipline as the health
  time-series);
* **health time-series + dashboard**: periodic ``TELEMETRY`` snapshots are
  appended to a :class:`~repro.obs.timeseries.HealthTimeSeries`, and a
  self-refreshing HTML dashboard (``repro.gui.dashboard``) is re-rendered
  from the store's catalog/index, the time-series and the live views.

Liveness is visible from the outside through always-current gauges:
``watcher.runs_live``, ``watcher.runs_stalled``, ``watcher.last_seal_age_s``
and per-run ``watcher.run.<name>.nodes`` / ``watcher.run.<name>.<metric>``
totals.  ``python -m repro.fleet.watch`` wraps all of this in a CLI.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..analyzer.durability import degradation_issues, quarantine_issues
from ..analyzer.issues import Issue, IssueCollector, Severity
from ..core import metrics as M
from ..core.storage import LazyProfileView, ProfileFormatError
from ..core.streaming import DONE_SUFFIX, is_marked_complete
from ..obs import TELEMETRY, HealthTimeSeries
from .differential import STATUS_UNCHANGED, name_drift
from .store import PROFILE_SUFFIX, ProfileStore, PruneReport

#: Default name (inside the store root) of the persisted issue log.
ISSUE_LOG_NAME = "issues.jsonl"
#: Default name (inside the store root) of the health time-series.
HEALTH_NAME = "health.jsonl"


@dataclass
class RetentionPolicy:
    """How :meth:`FleetWatcher` prunes the store after each ingest.

    Mirrors :meth:`ProfileStore.prune`: runs older than ``max_age_s`` go, and
    each workload keeps only its newest ``max_runs`` healthy runs.  Runs
    carrying any label key in ``protect_labels`` are never pruned.
    """

    max_age_s: Optional[float] = None
    max_runs: Optional[int] = None
    protect_labels: Tuple[str, ...] = ()

    @property
    def enabled(self) -> bool:
        return self.max_age_s is not None or self.max_runs is not None

    def apply(self, store: ProfileStore,
              now: Optional[float] = None) -> PruneReport:
        return store.prune(max_age_s=self.max_age_s, max_runs=self.max_runs,
                           protect_labels=self.protect_labels, now=now)


@dataclass
class WatchedRun:
    """One live run the watcher is tailing."""

    path: str
    view: Optional[LazyProfileView] = None
    #: End offset of the newest seal served (mirrors ``view.seal_end``).
    seal_end: int = 0
    nodes: int = 0
    metric_total: float = 0.0
    #: Wall time when this run last advanced to a new seal.
    last_seal_at: float = 0.0
    first_seen_at: float = 0.0
    refreshes: int = 0
    advances: int = 0
    #: True while the last refresh failed and the view is serving the last
    #: sealed prefix it successfully read (the degrade-don't-crash state).
    stalled: bool = False
    error: str = ""

    @property
    def name(self) -> str:
        base = os.path.basename(self.path)
        return base[:-len(PROFILE_SUFFIX)] if base.endswith(PROFILE_SUFFIX) \
            else base


@dataclass
class WatcherTick:
    """What one :meth:`FleetWatcher.poll_once` pass observed and did."""

    now: float = 0.0
    runs_live: int = 0
    runs_stalled: int = 0
    discovered: List[str] = field(default_factory=list)
    advanced: List[str] = field(default_factory=list)
    ingested: List[str] = field(default_factory=list)
    pruned: List[str] = field(default_factory=list)
    issues_filed: int = 0
    jobs_ran: List[str] = field(default_factory=list)


class FleetWatcher:
    """Poll-driven monitor for a directory of streaming checkpoint files.

    Drive it one deterministic step at a time with :meth:`poll_once` (tests
    pass an explicit ``now``) or as a daemon loop with :meth:`run`.  All
    scheduling is wall-clock based so a tick replayed with a later ``now``
    fires exactly the jobs that became due.
    """

    def __init__(self, watch_dir: str, store: ProfileStore, *,
                 poll_interval_s: float = 1.0,
                 settle_s: Optional[float] = None,
                 retention: Optional[RetentionPolicy] = None,
                 metric: str = M.METRIC_GPU_TIME,
                 scrub_every_s: Optional[float] = 300.0,
                 drift_every_s: Optional[float] = 120.0,
                 drift_window: int = 8,
                 drift_min_runs: int = 4,
                 drift_thresholds: Optional[Mapping[str, float]] = None,
                 issue_log_path: Optional[str] = None,
                 health: Optional[HealthTimeSeries] = None,
                 snapshot_every_s: Optional[float] = 30.0,
                 dashboard_path: Optional[str] = None,
                 dashboard_every_s: Optional[float] = 5.0,
                 labels: Optional[Mapping[str, str]] = None,
                 remove_ingested: bool = False) -> None:
        self.watch_dir = os.fspath(watch_dir)
        self.store = store
        self.poll_interval_s = float(poll_interval_s)
        self.settle_s = settle_s
        self.retention = retention or RetentionPolicy()
        self.metric = metric
        self.drift_window = int(drift_window)
        self.drift_min_runs = max(2, int(drift_min_runs))
        self.drift_thresholds = dict(drift_thresholds or {})
        self.labels = dict(labels or {})
        self.remove_ingested = bool(remove_ingested)
        self.issue_log = HealthTimeSeries(
            issue_log_path or os.path.join(store.root, ISSUE_LOG_NAME))
        self.health = health
        self.dashboard_path = dashboard_path
        #: Live runs by absolute path.
        self.runs: Dict[str, WatchedRun] = {}
        #: Paths already ingested (or attempted) — never re-tracked.
        self._completed: Dict[str, str] = {}
        #: Standing jobs: name -> (period or None=disabled, runner).  A
        #: ``None`` period disables the job; next-due times start at 0 so
        #: every enabled job fires on the first poll (a watcher coming up
        #: should assess the fleet immediately, not a period later).
        self._jobs: Dict[str, Tuple[Optional[float], object]] = {
            "scrub": (scrub_every_s, self._job_scrub),
            "drift": (drift_every_s, self._job_drift),
            "snapshot": (snapshot_every_s, self._job_snapshot),
            "dashboard": (dashboard_every_s, self._job_dashboard),
        }
        self._next_due: Dict[str, float] = {name: 0.0 for name in self._jobs}
        self.ticks = 0

    # -- the poll loop -----------------------------------------------------------------

    def run(self, max_ticks: Optional[int] = None,
            deadline_s: Optional[float] = None,
            stop: Optional[threading.Event] = None) -> int:
        """Poll until stopped; returns the number of ticks performed.

        Bounded three ways: a ``stop`` event (the daemon case), a tick
        budget, or a wall-clock deadline.  The loop re-checks its deadline
        against the monotonic clock every iteration, so even a caller that
        sets neither bound can stop it promptly via ``stop``.
        """
        stop = stop if stop is not None else threading.Event()
        started = time.monotonic()
        deadline = None if deadline_s is None else started + float(deadline_s)
        ticks = 0
        while not stop.is_set():
            if max_ticks is not None and ticks >= max_ticks:
                break
            if deadline is not None and time.monotonic() >= deadline:
                break
            self.poll_once()
            ticks += 1
            stop.wait(self.poll_interval_s)
        return ticks

    def poll_once(self, now: Optional[float] = None) -> WatcherTick:
        """One watcher pass: discover, refresh, complete, run due jobs."""
        now = time.time() if now is None else float(now)
        tick = WatcherTick(now=now)
        with TELEMETRY.span("watcher.poll"):
            self._discover(now, tick)
            self._refresh_all(now, tick)
            self._complete_runs(now, tick)
            self._run_due_jobs(now, tick)
            self._publish_gauges(now, tick)
        self.ticks += 1
        return tick

    def close(self) -> None:
        """Release every live view (the watcher can be restarted after)."""
        for run in self.runs.values():
            if run.view is not None:
                run.view.close()
        self.runs.clear()

    def __enter__(self) -> "FleetWatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- discovery and refresh ---------------------------------------------------------

    def _candidate_paths(self) -> List[str]:
        try:
            names = sorted(os.listdir(self.watch_dir))
        except OSError:
            return []
        return [os.path.join(self.watch_dir, name) for name in names
                if name.endswith(PROFILE_SUFFIX)]

    def _discover(self, now: float, tick: WatcherTick) -> None:
        for path in self._candidate_paths():
            if path in self.runs or path in self._completed:
                continue
            run = WatchedRun(path=path, first_seen_at=now)
            try:
                run.view = LazyProfileView.attach(path)
            except ProfileFormatError as error:
                # No intact seal yet (first checkpoint still being written)
                # or the file vanished between listdir and attach.  Either
                # way: not tracked yet, retried on the next poll.
                TELEMETRY.count("watcher.attach_retries")
                del error
                continue
            self._note_seal(run, now)
            run.last_seal_at = now
            self.runs[path] = run
            tick.discovered.append(run.name)
            TELEMETRY.count("watcher.runs_discovered")

    def _note_seal(self, run: WatchedRun, now: float) -> None:
        view = run.view
        if view is None:
            return
        run.seal_end = view.seal_end
        run.nodes = view.stored_node_count()
        run.metric_total = view.total_metric(self.metric)

    def _refresh_all(self, now: float, tick: WatcherTick) -> None:
        for path, run in list(self.runs.items()):
            if run.view is None:
                continue
            run.refreshes += 1
            try:
                advanced = run.view.refresh()
            except ProfileFormatError as error:
                if not os.path.exists(path):
                    # The run's file is gone for good (cleaned up externally,
                    # not a mid-compaction blink): stop tracking it.
                    run.view.close()
                    del self.runs[path]
                    TELEMETRY.count("watcher.runs_vanished")
                    continue
                # Mid-rewrite torn state: degrade to the last sealed prefix
                # the existing view still serves and retry next poll.
                run.stalled = True
                run.error = str(error)
                TELEMETRY.count("watcher.refresh_errors")
                continue
            run.stalled = False
            run.error = ""
            if advanced:
                run.advances += 1
                run.last_seal_at = now
                self._note_seal(run, now)
                tick.advanced.append(run.name)
                TELEMETRY.count("watcher.seals_observed")

    # -- completion and retention ------------------------------------------------------

    def _is_complete(self, run: WatchedRun, now: float) -> bool:
        if is_marked_complete(run.path):
            return True
        if self.settle_s is None:
            return False
        return (now - run.last_seal_at) >= self.settle_s

    def _complete_runs(self, now: float, tick: WatcherTick) -> None:
        for path, run in list(self.runs.items()):
            if not self._is_complete(run, now):
                continue
            if run.view is not None:
                run.view.close()
            del self.runs[path]
            try:
                record = self.store.ingest(path, labels=self.labels or None)
            except (ProfileFormatError, ValueError, OSError) as error:
                # An unreadable or identity-less final seal must not kill the
                # watcher; remember the path so it is not retried forever.
                self._completed[path] = ""
                self._file_issues([Issue(
                    analysis="watcher", node=None,
                    message=f"run {run.name!r} completed but could not be "
                            f"ingested: {error}",
                    severity=Severity.WARNING,
                    suggestion="recover the stream file manually "
                               "(repro.core.storage.recover_profile) or "
                               "delete it")], now)
                tick.issues_filed += 1
                continue
            self._completed[path] = record.run_id
            tick.ingested.append(record.run_id)
            TELEMETRY.count("watcher.runs_ingested")
            if self.remove_ingested:
                for stale in (path, f"{path}{DONE_SUFFIX}"):
                    try:
                        os.unlink(stale)
                    except OSError:
                        pass
            if self.retention.enabled:
                report = self.retention.apply(self.store, now=now)
                tick.pruned.extend(report.pruned_run_ids)

    # -- standing jobs -----------------------------------------------------------------

    def _run_due_jobs(self, now: float, tick: WatcherTick) -> None:
        for name, (period, runner) in self._jobs.items():
            if period is None or now < self._next_due[name]:
                continue
            self._next_due[name] = now + float(period)
            with TELEMETRY.span(f"watcher.job.{name}"):
                runner(now, tick)
            tick.jobs_ran.append(name)

    def _file_issues(self, issues: List[Issue], now: float,
                     workload: str = "") -> int:
        """Append analyzer issues to the persisted JSONL issue log."""
        for issue in issues:
            row = issue.as_dict()
            if workload:
                row["workload"] = workload
            self.issue_log.append(row, ts=now)
            TELEMETRY.count("watcher.issues_filed")
        return len(issues)

    def _job_scrub(self, now: float, tick: WatcherTick) -> None:
        report = self.store.scrub()
        del report  # quarantine state is re-read below, fresh
        tick.issues_filed += self._file_issues(
            quarantine_issues(self.store), now)

    def _drift_candidates(self) -> Dict[str, List[str]]:
        """Per-workload rolling windows large enough to split and diff."""
        windows: Dict[str, List[str]] = {}
        for record in self.store.runs():
            if record.healthy:
                windows.setdefault(record.workload, []).append(record.run_id)
        return {workload: ids[-self.drift_window:]
                for workload, ids in windows.items()
                if len(ids) >= self.drift_min_runs}

    def _job_drift(self, now: float, tick: WatcherTick) -> None:
        """Rolling-window population drift, per workload.

        The window's older half is the baseline population, its newer half
        the candidate.  ``name_drift`` over two index-served aggregators is
        the cheap gate (no profile opened over an indexed store); only when
        some name actually moved do both aggregators merge their runs and
        :class:`RegressionAnalysis` judge the halves, whose ranked issues
        are persisted.  A run the merge demotes is filed with the other
        degradation issues, after the merge.
        """
        # Imported here, not at module top: regression itself imports the
        # fleet differential, so a module-level import would close a cycle
        # through ``repro.analyzer.__init__``.
        from ..analyzer.regression import RegressionAnalysis
        for workload, window in self._drift_candidates().items():
            half = len(window) // 2
            with self.store.aggregator(run_ids=window[:half]) as base_agg, \
                    self.store.aggregator(run_ids=window[half:]) as cand_agg:
                judge = any(delta.status != STATUS_UNCHANGED for delta in
                            name_drift(base_agg, cand_agg, metric=self.metric))
                if judge:
                    baseline = base_agg.merged_tree()
                    candidate = cand_agg.merged_tree()
                    # A half whose every run the merge demoted has nothing
                    # to judge.
                    judge = bool(base_agg.run_count and cand_agg.run_count)
                for agg in (base_agg, cand_agg):
                    degraded = degradation_issues(agg.degradation_report())
                    tick.issues_filed += self._file_issues(
                        degraded, now, workload=workload)
            if not judge:
                continue
            collector = IssueCollector()
            RegressionAnalysis(baseline=baseline, metric=self.metric,
                               **self.drift_thresholds).run(candidate,
                                                            collector)
            tick.issues_filed += self._file_issues(collector.issues, now,
                                                   workload=workload)

    def _job_snapshot(self, now: float, tick: WatcherTick) -> None:
        if self.health is None:
            return
        record = TELEMETRY.snapshot()
        record["watcher"] = {
            "runs_live": len(self.runs),
            "runs_stalled": sum(1 for run in self.runs.values()
                                if run.stalled),
            "ticks": self.ticks,
            "store_runs": len(self.store),
        }
        self.health.append(record, ts=now)

    def _job_dashboard(self, now: float, tick: WatcherTick) -> None:
        if self.dashboard_path is None:
            return
        # Imported here, not at module top: fleet must stay importable
        # without the gui layer, and only dashboard-enabled watchers pay it.
        from ..gui.dashboard import save_dashboard
        save_dashboard(self.dashboard_path, store=self.store,
                       health=self.health, live=list(self.runs.values()),
                       issue_log=self.issue_log, metric=self.metric,
                       refresh_s=max(1, int(self.poll_interval_s)))

    # -- gauges ------------------------------------------------------------------------

    def _publish_gauges(self, now: float, tick: WatcherTick) -> None:
        tick.runs_live = len(self.runs)
        tick.runs_stalled = sum(1 for run in self.runs.values()
                                if run.stalled)
        TELEMETRY.gauge_set("watcher.runs_live", float(tick.runs_live))
        TELEMETRY.gauge_set("watcher.runs_stalled",
                            float(tick.runs_stalled))
        newest = max((run.last_seal_at for run in self.runs.values()),
                     default=0.0)
        TELEMETRY.gauge_set("watcher.last_seal_age_s",
                            max(0.0, now - newest) if newest else -1.0)
        for run in self.runs.values():
            TELEMETRY.gauge_set(f"watcher.run.{run.name}.nodes",
                                float(run.nodes))
            TELEMETRY.gauge_set(f"watcher.run.{run.name}.{self.metric}",
                                float(run.metric_total))
