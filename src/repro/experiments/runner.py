"""Shared run harness: execute a workload in eager or JIT mode, with any profiler.

This is the code every benchmark and example builds on: create an engine for a
device, build a workload, optionally attach DeepContext or a baseline
profiler, run N iterations, and report virtual time, wall-clock time, kernel
counts and profile size.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..analyzer import (PerformanceAnalyzer, RegressionAnalysis,
                        attach_issues, quarantine_issues)
from ..analyzer.report import AnalysisReport
from ..baselines import baseline_for
from ..core import DeepContextProfiler, ProfilerConfig
from ..core import metrics as M
from ..core.database import ProfileDatabase
from ..fleet import LATEST_ALIASES, ProfileStore, RunRecord
from ..obs import TELEMETRY, HealthTimeSeries
from ..framework.eager import EagerEngine
from ..framework.jit import JitCompiler, jit
from ..workloads import create_workload
from ..workloads.base import Workload

# Profiler configurations compared in Figure 6.
PROFILER_NONE = "none"
PROFILER_FRAMEWORK = "framework_profiler"
PROFILER_DEEPCONTEXT = "deepcontext"
PROFILER_DEEPCONTEXT_NATIVE = "deepcontext_native"

PROFILER_KINDS = (PROFILER_NONE, PROFILER_FRAMEWORK, PROFILER_DEEPCONTEXT,
                  PROFILER_DEEPCONTEXT_NATIVE)

MODE_EAGER = "eager"
MODE_JIT = "jit"


@dataclass
class RunResult:
    """Everything one run of (workload, device, mode, profiler) produced."""

    workload: str
    device: str
    mode: str
    profiler: str
    iterations: int
    wall_seconds: float
    virtual_seconds: float
    gpu_kernel_seconds: float
    kernel_launches: int
    op_count: int
    profile_bytes: int = 0
    app_bytes: int = 0
    database: Optional[ProfileDatabase] = None
    extra: Dict[str, float] = field(default_factory=dict)
    #: Catalog id this run was ingested under (``store_path`` runs only).
    store_run_id: str = ""
    #: Catalog id of the baseline the run was diffed against ("" = no diff).
    baseline_run_id: str = ""
    #: The analyzer report of the ``baseline`` flow (regression issues are
    #: ``report.by_analysis("regression")``, flagged in rank order).
    report: Optional[AnalysisReport] = None
    #: Telemetry metrics snapshot (``Telemetry.snapshot()``) captured at the
    #: end of the run — only for ``telemetry=True``/``trace_path`` runs.
    telemetry: Optional[Dict] = None

    @property
    def memory_overhead(self) -> float:
        """(application + profile) / application footprint ratio."""
        if self.app_bytes <= 0:
            return 1.0
        return (self.app_bytes + self.profile_bytes) / self.app_bytes


def profiler_config_for(kind: str, program_name: str) -> Optional[ProfilerConfig]:
    if kind == PROFILER_DEEPCONTEXT:
        config = ProfilerConfig.without_native()
    elif kind == PROFILER_DEEPCONTEXT_NATIVE:
        config = ProfilerConfig(collect_native=True)
    else:
        return None
    config.program_name = program_name
    return config


@contextlib.contextmanager
def _telemetry_session(record: bool):
    """Enable the process-wide registry for one run, if nobody else has.

    A registry the caller already enabled is reused untouched (so nested
    harnesses — a benchmark driving many runs under one trace — see a single
    continuous recording); one this session enabled is reset first and
    disabled on the way out, even if the run raises.
    """
    owns = record and not TELEMETRY.enabled
    if owns:
        TELEMETRY.reset()
        TELEMETRY.enable()
    try:
        yield
    finally:
        if owns:
            TELEMETRY.disable()


def run_workload(workload: Workload, device: str = "a100", mode: str = MODE_EAGER,
                 profiler: str = PROFILER_NONE, iterations: int = 3,
                 pc_sampling: bool = False,
                 cpu_sampling: bool = True,
                 profile_path: Optional[str] = None,
                 profile_format: Optional[str] = None,
                 checkpoint_path: Optional[str] = None,
                 checkpoint_interval_s: float = 0.0,
                 profile_compression: Optional[str] = None,
                 store_path: Optional[str] = None,
                 baseline: Optional[str] = None,
                 telemetry: bool = False,
                 trace_path: Optional[str] = None,
                 health_path: Optional[str] = None) -> RunResult:
    """Run ``workload`` under one configuration and collect measurements.

    With ``profile_path`` the resulting profile database is saved there
    (``profile_format`` is "cct-binary-v1", the default for ``None``, or
    "columnar-json"); the on-disk size is reported in
    ``extra["profile_file_bytes"]``.  A profile reloaded later — eagerly from
    JSON or as a lazy mmap-backed view from the binary format — plugs into
    the same analyzers and exporters as the in-memory database.

    With ``checkpoint_path`` the live profile is additionally *streamed*
    during collection: sealed binary checkpoints every
    ``checkpoint_interval_s`` wall seconds (and at start/stop), so a long
    run that crashes recovers its last seal via
    ``repro.core.recover_profile`` and can be inspected in flight through
    ``LazyProfileView.attach``.  ``extra`` reports
    ``profile_checkpoints``/``checkpoint_file_bytes``.
    ``profile_compression`` ("zlib") applies per-block compression to both
    the streamed checkpoints and a binary ``profile_path`` save.

    With ``store_path`` the run joins a fleet: its profile is ingested into
    the :class:`~repro.fleet.ProfileStore` at that directory (workload name
    stamped into the metadata, content-addressed run id reported in
    ``RunResult.store_run_id``).  ``baseline`` additionally diffs the fresh
    profile against a prior catalogued run *before* ingesting — a run id (or
    unique prefix) selects an explicit baseline, ``"latest"`` the most
    recently ingested run of the same workload and device — and runs the
    performance analyzer with a :class:`~repro.analyzer.RegressionAnalysis`
    attached, so regressions land as ranked ``Issue`` records in
    ``RunResult.report`` (and in the stored profile's issue list).  The first
    run of a workload bootstraps: ``baseline="latest"`` with an empty catalog
    simply skips the diff.

    With ``health_path`` (implies telemetry) the run's final metrics
    snapshot is appended to the crash-safe JSONL health time-series at that
    path — the same file a :class:`~repro.fleet.FleetWatcher` feeds, so
    one-shot runs and watched fleets chart on the same axis.

    With ``telemetry=True`` (or ``trace_path``) the self-telemetry layer
    (``repro.obs``) records counters and spans across every seam the run
    touches — runner phases, streaming seals, storage block decodes,
    catalog-lock waits, fleet ingest and queries.  The metrics snapshot is
    attached as ``RunResult.telemetry``; ``trace_path`` additionally writes
    a Chrome ``trace_event`` JSON (plus a ``<trace_path>.metrics.json``
    snapshot) that loads in Perfetto.  A registry the caller already
    enabled is reused and left enabled; one this run enabled is disabled
    on the way out.
    """
    engine = EagerEngine(device)
    jit_compiler = JitCompiler(engine) if mode == MODE_JIT else None

    deepcontext: Optional[DeepContextProfiler] = None
    framework_baseline = None
    config = profiler_config_for(profiler, workload.name)
    if profile_path is not None and config is None:
        raise ValueError(
            f"profile_path requires a DeepContext profiler that produces a "
            f"ProfileDatabase; got profiler={profiler!r}")
    if checkpoint_path is not None and config is None:
        raise ValueError(
            f"checkpoint_path requires a DeepContext profiler that streams a "
            f"ProfileDatabase; got profiler={profiler!r}")
    if store_path is not None and config is None:
        raise ValueError(
            f"store_path requires a DeepContext profiler that produces a "
            f"ProfileDatabase to ingest; got profiler={profiler!r}")
    if baseline is not None and store_path is None:
        raise ValueError("baseline requires store_path: the baseline run is "
                         "looked up in (and this run ingested into) that "
                         "profile store")
    if config is not None:
        config.pc_sampling = pc_sampling
        config.collect_cpu_time = cpu_sampling
        if checkpoint_path is not None:
            config.checkpoint_path = checkpoint_path
            config.checkpoint_interval_s = checkpoint_interval_s
        if profile_compression is not None:
            config.profile_compression = profile_compression
        deepcontext = DeepContextProfiler(engine, config, jit_compiler=jit_compiler)
    elif profiler == PROFILER_FRAMEWORK:
        framework_baseline = baseline_for(engine, execution_mode=mode)

    record_telemetry = (telemetry or trace_path is not None
                        or health_path is not None)
    telemetry_snapshot: Optional[Dict] = None
    with _telemetry_session(record_telemetry), engine:
        with TELEMETRY.span("runner.build", workload=workload.name,
                            device=device, mode=mode):
            workload.build(engine)
        if deepcontext is not None:
            deepcontext.start()
        if framework_baseline is not None:
            framework_baseline.start()

        wall_start = time.perf_counter()
        with TELEMETRY.span("runner.iterate", workload=workload.name,
                            iterations=iterations, mode=mode):
            if mode == MODE_JIT:
                compiled = jit(workload.step_fn(engine), engine=engine,
                               with_grad=workload.training,
                               compiler=jit_compiler)
                for iteration in range(iterations):
                    batch = workload.make_batch(engine, iteration)
                    compiled(*batch)
                    if deepcontext is not None:
                        deepcontext.mark_iteration()
            else:
                for iteration in range(iterations):
                    workload.run_iteration(engine, iteration)
                    if deepcontext is not None:
                        deepcontext.mark_iteration()
            engine.synchronize()
        wall_seconds = time.perf_counter() - wall_start

        database: Optional[ProfileDatabase] = None
        profile_bytes = 0
        extra: Dict[str, float] = {}
        store_run_id = ""
        baseline_run_id = ""
        report: Optional[AnalysisReport] = None
        if deepcontext is not None:
            with TELEMETRY.span("runner.collect", workload=workload.name):
                database = deepcontext.stop()
                profile_bytes = database.size_bytes()
                if profile_path is not None:
                    saved = database.save(profile_path, format=profile_format)
                    extra["profile_file_bytes"] = float(os.path.getsize(saved))
                if checkpoint_path is not None:
                    extra["profile_checkpoints"] = float(
                        deepcontext.checkpoints_written)
                    extra["checkpoint_file_bytes"] = float(
                        os.path.getsize(checkpoint_path))
                if store_path is not None:
                    store_run_id, baseline_run_id, report = _store_and_diff(
                        database, workload, store_path, baseline, extra)
        if framework_baseline is not None:
            buffer = framework_baseline.stop()
            profile_bytes = buffer.size_bytes

        if record_telemetry:
            # Snapshot while still enabled (the session context may disable
            # the registry on exit); the trace goes to disk here too so a
            # crash in later reporting code can't lose it.
            telemetry_snapshot = TELEMETRY.snapshot()
            if trace_path is not None:
                TELEMETRY.export_trace(trace_path)
                TELEMETRY.export_snapshot(f"{trace_path}.metrics.json")
            if health_path is not None:
                row = dict(telemetry_snapshot)
                row["run"] = {"workload": workload.name, "device": device,
                              "mode": mode, "iterations": iterations}
                HealthTimeSeries(health_path).append(row)

    return RunResult(
        workload=workload.name,
        device=device,
        mode=mode,
        profiler=profiler,
        iterations=iterations,
        wall_seconds=wall_seconds,
        virtual_seconds=engine.elapsed_real_time(),
        gpu_kernel_seconds=engine.runtime.total_kernel_seconds,
        kernel_launches=engine.kernel_launches,
        op_count=engine.op_count,
        profile_bytes=profile_bytes,
        app_bytes=workload.approximate_footprint_bytes(),
        database=database,
        extra=extra,
        store_run_id=store_run_id,
        baseline_run_id=baseline_run_id,
        report=report,
        telemetry=telemetry_snapshot,
    )


def _resolve_baseline(store: ProfileStore, baseline: str, workload_name: str,
                      device_name: str) -> Optional[RunRecord]:
    """The catalogued run ``baseline`` names, or None when bootstrapping.

    ``"latest"`` means the most recently ingested run of the same workload on
    the same device (the profile metadata's device name — what the catalog
    stores) — absent on a fleet's first run, which is not an error.  An
    explicit run id that resolves to nothing *is* one.
    """
    if baseline in LATEST_ALIASES:
        return store.latest(workload=workload_name, device=device_name)
    return store.get(baseline)


def _store_and_diff(database: ProfileDatabase, workload: Workload,
                    store_path: str, baseline: Optional[str],
                    extra: Dict[str, float]):
    """The ``store_path``/``baseline`` flow: diff against a prior run, then
    ingest.  The baseline is resolved *before* ingesting so ``"latest"``
    never diffs a run against itself; analysis runs before ingest so the
    stored profile carries the regression issues it was flagged with."""
    database.metadata.workload = workload.name
    store = ProfileStore(store_path)
    baseline_record = None
    if baseline is not None:
        baseline_record = _resolve_baseline(store, baseline, workload.name,
                                            database.metadata.device)
    report: Optional[AnalysisReport] = None
    baseline_run_id = ""
    if baseline_record is not None:
        baseline_view = store.open_view(baseline_record.run_id)
        try:
            analyzer = PerformanceAnalyzer()
            analyzer.register(RegressionAnalysis(baseline=baseline_view))
            report = analyzer.analyze(database)
        finally:
            baseline_view.close()
        baseline_run_id = baseline_record.run_id
        extra["regression_issues"] = float(
            len(report.by_analysis("regression")))
    record = store.ingest(database)
    extra["store_runs"] = float(len(store))
    extra["indexed_runs"] = float(len(store.fleet_index.run_ids()))
    if TELEMETRY.enabled:
        # With telemetry on, exercise a fleet-level rollup for this workload
        # so the run's trace covers the query layer too (catalog lock, index
        # serve/demote, aggregation passes) — and report what it found.
        with store.aggregator(workload=workload.name) as agg:
            agg.top_kernels(k=5)
            extra["fleet_workload_runs"] = float(agg.run_count)
            extra["fleet_gpu_seconds"] = agg.total_metric(M.METRIC_GPU_TIME)
    quarantined = store.quarantined()
    extra["quarantined_runs"] = float(len(quarantined))
    if quarantined:
        # Surface the store's quarantined runs in this run's report, so a
        # fleet whose baselines are rotting is visible from any run that
        # touches it — not only from an explicit scrub.
        if report is None:
            report = AnalysisReport()
        attach_issues(report, quarantine_issues(store))
    return record.run_id, baseline_run_id, report


def run_named_workload(name: str, device: str = "a100", mode: str = MODE_EAGER,
                       profiler: str = PROFILER_NONE, iterations: int = 3,
                       small: bool = True, pc_sampling: bool = False,
                       profile_path: Optional[str] = None,
                       profile_format: Optional[str] = None,
                       checkpoint_path: Optional[str] = None,
                       checkpoint_interval_s: float = 0.0,
                       profile_compression: Optional[str] = None,
                       store_path: Optional[str] = None,
                       baseline: Optional[str] = None,
                       telemetry: bool = False,
                       trace_path: Optional[str] = None,
                       health_path: Optional[str] = None,
                       **workload_options) -> RunResult:
    """Convenience wrapper: build the named workload then :func:`run_workload`."""
    workload = create_workload(name, small=small, **workload_options)
    return run_workload(workload, device=device, mode=mode, profiler=profiler,
                        iterations=iterations, pc_sampling=pc_sampling,
                        profile_path=profile_path, profile_format=profile_format,
                        checkpoint_path=checkpoint_path,
                        checkpoint_interval_s=checkpoint_interval_s,
                        profile_compression=profile_compression,
                        store_path=store_path, baseline=baseline,
                        telemetry=telemetry, trace_path=trace_path,
                        health_path=health_path)
