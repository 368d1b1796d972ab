"""One runner for every workload: set-up, measured cycles, metrics.

A *cycle* is the unit every workload repeats until its time is up:

1. an unprofiled session (A) and a profiled session (B), in a seeded order
   (with ``trace`` a third, traced profiled session C joins them);
2. for the profiled session that is post-processed (B, or C when traced):
   ``stop()`` → ``ProfileStore.ingest`` → a fresh aggregator's
   ``top_kernels`` (stop-to-query), then ``prune(max_runs=...)``, two more
   reads with fresh aggregators (``aggregate_by_name`` and
   ``name_drift``), ``read_rounds - 1`` further rounds of the three reads,
   a ``cct-binary-v1`` save and the report (analyzer + top-down flame
   graph + HTML);
3. on every ``verify_every``-th cycle (seeded offset), outside the timings:
   the streamed file recovers to the live totals and the index-served
   ``top_kernels`` equals the ``use_index=False`` answer.

Collection workloads run one model with long sessions, so collection cost
dominates; ``stream_fleet`` rotates four models through short streamed
sessions against a seeded store, so seal, ingest and query dominate.
Untimed warm-up cycles precede the measured ones.  The traced run also
climbs the ablation ladder, sharing the time budget with its cycles.
"""

from __future__ import annotations

import gc
import os
import random
import shutil
import statistics
import time
from typing import Dict, List, Optional, Tuple

from ..analyzer import PerformanceAnalyzer
from ..core import (METRIC_CPU_TIME, METRIC_GPU_TIME, METRIC_KERNEL_COUNT,
                    ProfileDatabase, ProfilerConfig, recover_profile)
from ..dlmonitor.callpath import FrameKind
from ..fleet import ProfileStore, catalog_lock_stats, name_drift
from ..gui import FlameGraphBuilder, render_html
from ..obs import TELEMETRY
from .measure import Ledger, Recorder, percentile, summarize
from .session import SessionResult, peak_memory_bytes, replay_cost_us, run_session
from .spec import Benchmark, WorkloadSpec

#: Every session runs on the simulated A100 platform.
DEVICE = "a100"
#: ``top_kernels(k=...)`` of the reads and the index verification.
TOP_K = 10
#: Cycles an untraced run makes at least, whatever the time budget.
MIN_CYCLES = 3
#: Measured iterations of the untimed ``tracemalloc`` pair (after warm-up);
#: the tree stops growing once warm-up has filled the call-path cache.
MEMORY_ITERATIONS = 2
#: Measured iterations of each run the store is seeded with: a run's
#: profile size depends on its contexts, which one iteration already covers.
SEED_ITERATIONS = 2
#: Ladder rounds a traced run makes at least: three pairs of every rung
#: with an unprofiled session.
TRACE_MIN_LADDER_ROUNDS = 3
#: Cycles a traced run makes at least, so its own paired ``overhead_x``,
#: which the ladder is checked against, is a median of ten pairs.
TRACE_MIN_CYCLES = 10
#: The largest relative gap allowed between the matching ladder rung's ratio
#: and the traced run's paired ``overhead_x``.
CONSISTENCY_BOUND = 0.05
#: Metric totals the streamed file must reproduce after recovery.
RECOVERED_METRICS = (METRIC_GPU_TIME, METRIC_KERNEL_COUNT, METRIC_CPU_TIME)
#: Ladder rung → the per-layer metric its increment is reported as.
RUNG_METRICS = {
    "monitor": "ladder.monitor_us_per_launch",
    "+gpu": "ladder.gpu_us_per_launch",
    "+framework": "ladder.framework_us_per_launch",
    "+python": "ladder.python_us_per_launch",
    "+cpu_time": "ladder.cpu_us_per_launch",
    "+native": "ladder.native_us_per_launch",
    "+pc_sampling": "ladder.pc_us_per_launch",
    "+stream": "ladder.stream_us_per_launch",
}


def profiler_config(preset: str, model: str, stream_path: str = "") -> ProfilerConfig:
    """A ``ProfilerConfig`` preset (``without_native``/``full``) for ``model``."""
    config = getattr(ProfilerConfig, preset)()
    config.program_name = model
    config.checkpoint_path = stream_path
    return config


def rung_config(rungs: List[str], rung: str, model: str,
                stream_path: str) -> ProfilerConfig:
    """The cumulative ladder configuration up to and including ``rung``.

    ``monitor`` turns every ``collect_*`` off (DLMonitor still intercepts);
    each later rung turns one more layer on, so ``+cpu_time`` equals
    ``ProfilerConfig.without_native()`` and ``+pc_sampling`` equals
    ``ProfilerConfig.full()``.
    """
    config = ProfilerConfig(collect_python=False, collect_framework=False,
                            collect_native=False, collect_gpu=False,
                            collect_cpu_time=False, pc_sampling=False,
                            program_name=model)
    switches = {"+gpu": "collect_gpu", "+framework": "collect_framework",
                "+python": "collect_python", "+cpu_time": "collect_cpu_time",
                "+native": "collect_native", "+pc_sampling": "pc_sampling"}
    for step in rungs[:rungs.index(rung) + 1]:
        if step in switches:
            setattr(config, switches[step], True)
        elif step == "+stream":
            config.checkpoint_path = stream_path
    return config


def _dir_bytes(root: str) -> int:
    return sum(os.path.getsize(os.path.join(directory, name))
               for directory, _subdirs, names in os.walk(root) for name in names)


class WorkloadRun:
    """Runs one workload for one seed and computes its metrics."""

    def __init__(self, bench: Benchmark, spec: WorkloadSpec, seed: int,
                 seconds: float, traced: bool, workdir: str) -> None:
        self.bench = bench
        self.spec = spec
        self.seconds = seconds
        self.traced = traced
        self.workdir = workdir
        self.rng = random.Random(f"{spec.name}/{seed}")
        #: Rotation order of the models (seeded).
        self.models = self.rng.sample(spec.models, len(spec.models))
        self.verify_offset = self.rng.randrange(spec.verify_every)
        self.ledger = Ledger()
        self.recorder = Recorder()
        self.setup_seconds: List[float] = []
        self.ladder: Dict[str, List[Dict[str, float]]] = {
            rung: [] for rung in bench.ladder_rungs}
        self.cycles = 0
        self.ladder_rounds = 0
        self.spans_dropped = 0
        self.store: Optional[ProfileStore] = None
        #: Aggregators the current read opened (closed when it ends).
        self._aggregators: List = []
        #: Wall seconds of each read of the current cycle.
        self._cycle_reads: List[float] = []
        self._files = 0

    # -- helpers ----------------------------------------------------------------

    def _path(self, stem: str) -> str:
        self._files += 1
        return os.path.join(self.workdir, f"{stem}-{self._files}.cct")

    def _session(self, label: str, model: str, config: Optional[ProfilerConfig],
                 recorder: Optional[Recorder] = None, warmup: Optional[int] = None,
                 iterations: Optional[int] = None,
                 checkpoint: bool = False) -> Optional[SessionResult]:
        """One session counted in the ledger and checked; None if it failed."""
        spec = self.spec
        with self.ledger.operation(f"{model}:{label}") as op:
            result = run_session(
                model, spec.mode, DEVICE, config,
                recorder if recorder is not None else self.recorder,
                spec.warmup if warmup is None else warmup,
                spec.iterations if iterations is None else iterations,
                checkpoint_each_iteration=checkpoint)
            if config is not None:
                self._check_session(op, result, config)
            return result
        return None

    def _check_session(self, op: Dict, result: SessionResult,
                       config: ProfilerConfig) -> None:
        if config.collect_gpu:
            kernels = result.database.tree.total_metric(METRIC_KERNEL_COUNT)
            self.ledger.check(op, kernels == result.launches_since_start,
                              f"tree kernel_count {kernels} != "
                              f"{result.launches_since_start} launches")
        self.ledger.check(op, result.counts["unresolved"] == 0,
                          f"{result.counts['unresolved']} unresolved correlations")

    def _workload_config(self, model: str, stream_path: str = "") -> ProfilerConfig:
        return profiler_config(self.spec.profiler, model, stream_path)

    # -- set-up -------------------------------------------------------------------

    def _seed_store(self, root: str) -> Tuple[ProfileStore, float]:
        """A store holding ``seed_runs`` short profiled runs, models in
        rotation, and the calibrated seconds the seeding took."""
        store = ProfileStore(root)
        seeder = Recorder()
        seconds = 0.0
        for index in range(self.spec.seed_runs):
            model = self.models[index % len(self.models)]
            seeder.calibrate()
            started = time.perf_counter()
            session = self._session("seed", model, self._workload_config(model),
                                    recorder=seeder, warmup=0,
                                    iterations=min(self.spec.iterations, SEED_ITERATIONS))
            if session is not None:
                session.database.metadata.workload = model
                with self.ledger.operation(f"{model}:seed-ingest"):
                    store.ingest(session.database)
            seconds += seeder.since(started)
        return store, seconds

    def setup(self) -> None:
        """Seed the store; time the seeding ``setups`` times when it is the set-up."""
        timed = 0 if self.traced else self.spec.setups
        for attempt in range(max(1, timed)):
            store, seconds = self._seed_store(os.path.join(self.workdir, f"store-{attempt}"))
            if timed:
                self.setup_seconds.append(seconds)
            if self.store is not None:
                shutil.rmtree(self.store.root)
            self.store = store

    def memory_pairs(self) -> None:
        """Untimed ``tracemalloc`` pair per model: profiled minus unprofiled peak."""
        for model in self.models:
            stream = self._path("memory") if self.spec.stream else ""
            profiled = self._peak_bytes(model, self._workload_config(model, stream))
            unprofiled = self._peak_bytes(model, None)
            self.recorder.add(model, "profiler_mem_kib", (profiled - unprofiled) / 1024.0)
            if stream and os.path.exists(stream):
                os.unlink(stream)

    def _peak_bytes(self, model: str, config: Optional[ProfilerConfig]) -> int:
        return peak_memory_bytes(lambda: self._session(
            "memory", model, config, recorder=Recorder(),
            iterations=min(self.spec.iterations, MEMORY_ITERATIONS),
            checkpoint=self.spec.stream and config is not None))

    # -- the cycle ----------------------------------------------------------------

    def cycle(self) -> None:
        spec = self.spec
        index = self.cycles
        self.cycles += 1
        model = self.models[index % len(self.models)]
        # A traced session goes before or after the pair, never between it.
        kinds = ["base", "profiled"]
        self.rng.shuffle(kinds)
        if self.traced:
            kinds.insert(self.rng.choice((0, len(kinds))), "traced")
        primary = "traced" if self.traced else "profiled"
        sessions: Dict[str, Optional[SessionResult]] = {}
        streams: Dict[str, str] = {}
        for kind in kinds:
            if kind == "base":
                sessions[kind] = self._session(kind, model, None)
                continue
            streams[kind] = self._path(kind) if spec.stream else ""
            config = self._workload_config(model, streams[kind])
            self.recorder.calibrate()
            if kind == "traced":
                TELEMETRY.enable()
            try:
                session = self._session(
                    kind, model, config,
                    # Untraced profiled sessions of a traced run only give
                    # the timing base of trace.overhead_x.
                    recorder=Recorder() if self.traced and kind == "profiled" else None,
                    checkpoint=spec.stream)
            finally:
                TELEMETRY.disable()
            sessions[kind] = session
            if session is None:
                continue
            if kind == primary:
                if self.traced:
                    TELEMETRY.enable()
                try:
                    self._post_process(index, model, session, streams[kind])
                finally:
                    TELEMETRY.disable()
            # Every session starts with the same live heap: no earlier
            # session's profile is left for its collections to scan.
            session.database = None
        self._record_pair(model, sessions)
        for path in streams.values():
            if path and os.path.exists(path):
                os.unlink(path)

    def _record_pair(self, model: str, sessions: Dict[str, Optional[SessionResult]]) -> None:
        base, profiled = sessions.get("base"), sessions.get("profiled")
        if base is None or profiled is None:
            return
        recorder = self.recorder
        base_median = statistics.median(base.iter_seconds)
        profiled_median = statistics.median(profiled.iter_seconds)
        recorder.add(model, "overhead_x", profiled_median / base_median)
        recorder.add(model, "iter_base", base_median)
        for value in profiled.iter_seconds:
            recorder.add(model, "iter_profiled", value)
        recorder.add(model, "launches_per_iter", base.launches_per_iter)
        recorder.add(model, "us_per_launch",
                     (profiled_median - base_median) / base.launches_per_iter * 1e6)
        if not self.traced and not self.spec.setups:
            self.setup_seconds.append(profiled.setup_seconds)
        traced = sessions.get("traced")
        if traced is not None:
            recorder.add(model, "trace_overhead_x",
                         statistics.median(traced.iter_seconds) / profiled_median)

    def _post_process(self, index: int, model: str, session: SessionResult,
                      stream_path: str) -> None:
        """Stop-to-query chain, retention, reads, save, report, verification."""
        spec, recorder, ledger, store = self.spec, self.recorder, self.ledger, self.store
        database = session.database
        database.metadata.workload = model
        self._cycle_reads = []
        recorder.calibrate()
        locks_before = catalog_lock_stats()
        record = None
        with ledger.operation(f"{model}:ingest") as op:
            known = set(store.run_ids())
            decoded = TELEMETRY.counter_value("storage.blocks_decoded")
            with recorder.timed(model, "fleet.ingest"):
                record = store.ingest(database)
            recorder.add(model, "blocks_decoded_per_ingest",
                         TELEMETRY.counter_value("storage.blocks_decoded") - decoded)
            ledger.check(op, record.run_id not in known and record.run_id in store,
                         f"ingest of {model} created no new run")
            first_read = self._top_kernels_read(model)
            if first_read is not None:
                recorder.add(model, "stop_to_query",
                             recorder.values(model, "profiler.stop")[-1]
                             + recorder.values(model, "fleet.ingest")[-1] + first_read)
            with ledger.operation(f"{model}:prune"):
                with recorder.timed(model, "fleet.prune"):
                    store.prune(max_runs=spec.max_runs)
            self._model_reads(model, record.run_id)
        locks_after = catalog_lock_stats()
        recorder.add(model, "lock_wait_ms",
                     (locks_after["wait_seconds"] - locks_before["wait_seconds"]) * 1e3)
        recorder.add(model, "lock_acquires",
                     locks_after["acquires"] - locks_before["acquires"])
        self._record_query(model)
        # Further rounds of the same three reads against the store as it now
        # stands: one query sample per round.
        for _ in range(spec.read_rounds - 1 if record is not None else 0):
            self._top_kernels_read(model)
            self._model_reads(model, record.run_id)
            self._record_query(model)
        saved = self._path("save")
        try:
            if self._save(model, database, saved):
                for _ in range(spec.reports_per_cycle):
                    self._report(model, saved)
        finally:
            if os.path.exists(saved):
                os.unlink(saved)
        if stream_path:
            recorder.add(model, "stream_file_kib", os.path.getsize(stream_path) / 1024.0)
        if index % spec.verify_every == self.verify_offset:
            self._verify(model, database, stream_path)
        self._record_layers(model, session)

    def _top_kernels_read(self, model: str) -> Optional[float]:
        return self._read(model, "top_kernels", lambda: self.store.aggregator(),
                          lambda agg: agg.top_kernels(k=TOP_K))

    def _model_reads(self, model: str, run_id: str) -> None:
        """``aggregate_by_name`` over the model's runs; ``name_drift`` of
        ``run_id`` against the model's older runs."""
        store = self.store
        self._read(model, "aggregate_by_name", lambda: store.aggregator(workload=model),
                   lambda agg: agg.aggregate_by_name(kind=FrameKind.GPU_KERNEL))
        older = [run.run_id for run in store.find(workload=model) if run.run_id != run_id]
        self._read(model, "name_drift", lambda: store.aggregator(run_ids=older),
                   lambda agg: name_drift(agg, self._aggregator(
                       model, lambda: store.aggregator(run_ids=[run_id]))))

    def _record_query(self, model: str) -> None:
        """One ``query`` sample: the mean of the round's reads, which restart.

        The mean, not each read, is the sample: a median over a three-way
        mix of reads would only ever see the middle one.
        """
        if self._cycle_reads:
            self.recorder.add(model, "query", statistics.fmean(self._cycle_reads))
        self._cycle_reads = []

    def _aggregator(self, model: str, opener):
        """Open a fresh aggregator (timed); the enclosing read checks and closes it."""
        with self.recorder.timed(model, "fleet.aggregator"):
            aggregator = opener()
        self._aggregators.append(aggregator)
        return aggregator

    def _read(self, model: str, query: str, opener, run) -> Optional[float]:
        """One read with fresh aggregators; returns its wall seconds (None if failed)."""
        recorder, ledger = self.recorder, self.ledger
        views = TELEMETRY.counter_value("storage.views_opened")
        self._aggregators = []
        with ledger.operation(f"{model}:{query}") as op:
            started = time.perf_counter()
            try:
                aggregator = self._aggregator(model, opener)
                with recorder.timed(model, f"fleet.{query}"):
                    run(aggregator)
            finally:
                for opened in self._aggregators:
                    opened.close()
            elapsed = recorder.since(started)
            self._cycle_reads.append(elapsed)
            recorder.add(model, "views_opened_per_query",
                         TELEMETRY.counter_value("storage.views_opened") - views)
            recorder.add(model, "aggregate_passes_per_query",
                         sum(opened.aggregate_passes for opened in self._aggregators))
            for opened in self._aggregators:
                counts = opened.degradation_report()["counts"]
                ledger.check(op, counts["degraded"] == 0,
                             f"{counts['degraded']} degraded runs in {query}")
                if opened.run_count:
                    recorder.add(model, "index_served_ratio",
                                 len(opened.indexed_run_ids) / opened.run_count)
            return elapsed
        return None

    def _save(self, model: str, database: ProfileDatabase, path: str) -> bool:
        """Save as ``cct-binary-v1``; whether it succeeded."""
        with self.ledger.operation(f"{model}:save"):
            with self.recorder.timed(model, "storage.save"):
                database.save(path, format=ProfileDatabase.FORMAT_BINARY)
            self.recorder.add(model, "profile_file_kib", os.path.getsize(path) / 1024.0)
            return True
        return False

    def _report(self, model: str, path: str) -> None:
        """Time-to-insight: open the saved profile, analyze, flame graph, HTML.

        Each report opens the file afresh, as the GUI does, so no report is
        served from a view an earlier report already decoded, and starts
        from a collected heap, so a full collection left pending by earlier
        work never lands in one report and not the next.
        """
        recorder = self.recorder
        gc.collect()
        recorder.calibrate()
        with self.ledger.operation(f"{model}:report") as op:
            started = time.perf_counter()
            with recorder.timed(model, "storage.load"):
                database = ProfileDatabase.load(path)
            try:
                with recorder.timed(model, "analyzer.analyze"):
                    report = PerformanceAnalyzer().analyze(database)
                with recorder.timed(model, "gui.top_down"):
                    graph = FlameGraphBuilder().top_down(database.tree,
                                                         issues=report.issues)
                with recorder.timed(model, "gui.render_html"):
                    html = render_html(graph, report=report)
            finally:
                database.tree.close()
            recorder.add(model, "report", recorder.since(started))
            self.ledger.check(op, bool(html), "rendered HTML is empty")

    def _verify(self, model: str, database: ProfileDatabase, stream_path: str) -> None:
        """Untimed: streamed file == live totals; index answer == lazy answer."""
        ledger, store = self.ledger, self.store
        if stream_path:
            with ledger.operation(f"{model}:verify-recover") as op:
                recovered = recover_profile(stream_path)
                try:
                    for metric in RECOVERED_METRICS:
                        live = database.tree.total_metric(metric)
                        read = recovered.tree.total_metric(metric)
                        ledger.check(op, read == live,
                                     f"recovered {metric} {read} != live {live}")
                finally:
                    recovered.tree.close()
        with ledger.operation(f"{model}:verify-index") as op:
            with store.aggregator() as indexed, store.aggregator(use_index=False) as lazy:
                ledger.check(op, indexed.top_kernels(k=TOP_K) == lazy.top_kernels(k=TOP_K),
                             "index-served top_kernels != use_index=False answer")

    def _record_layers(self, model: str, session: SessionResult) -> None:
        """Per-layer counts and costs of the post-processed session."""
        if not self.traced:
            return
        recorder, counts = self.recorder, session.counts
        iterations = counts["iterations"] or 1.0
        launches = session.launches_since_start or 1
        per_iter = {"dlmonitor.framework_events_per_iter": "framework_events",
                    "dlmonitor.gpu_events_per_iter": "gpu_events",
                    "dlmonitor.callpaths_per_iter": "callpaths_built",
                    "dlmonitor.python_captures_per_iter": "python_captures",
                    "cpu.samples_per_iter": "cpu_samples"}
        for metric, key in per_iter.items():
            recorder.add(model, metric, counts[key] / iterations)
        per_launch = {"native.unwind_steps_per_launch": "unwind_steps",
                      "gpu.activities_per_launch": "activities",
                      "gpu.pc_samples_per_launch": "pc_samples"}
        for metric, key in per_launch.items():
            recorder.add(model, metric, counts[key] / launches)
        recorder.add(model, "dlmonitor.cache_hit_rate", counts["cache_hit_rate"])
        recorder.add(model, "correlation.unresolved", counts["unresolved"])
        recorder.add(model, "correlation.swept", counts["swept"])
        recorder.add(model, "cct.nodes", counts["cct_nodes"])
        recorder.add(model, "cct.size_kib", counts["cct_size_bytes"] / 1024.0)
        recorder.add(model, "cct.shards", counts["cct_shards"])
        recorder.add(model, "cct.node_growth_per_iter",
                     (counts["cct_nodes"] - counts["nodes_after_warmup"])
                     / len(session.iter_seconds))
        recorder.add(model, "streaming.seals_per_run", counts["checkpoints"])
        for seal in session.seal_seconds:
            recorder.add(model, "streaming.seal", seal)
        cold, warm = replay_cost_us(session.database.tree)
        recorder.add(model, "cct.replay_insert_us", cold)
        recorder.add(model, "cct.replay_attribute_us", warm)

    # -- the ladder -----------------------------------------------------------------

    def ladder_round(self) -> None:
        """One round: every rung paired with its own unprofiled session.

        Rungs run in a seeded order and so does each pair, so a rung's ratio
        compares two sessions run back to back, as ``overhead_x`` does.
        """
        rungs = list(self.bench.ladder_rungs)
        self.rng.shuffle(rungs)
        self.ladder_rounds += 1
        for rung in rungs:
            pair = ["none", rung]
            self.rng.shuffle(pair)
            results = {kind: self._ladder_session(kind) for kind in pair}
            base, profiled = results["none"], results[rung]
            if base is None or profiled is None:
                continue
            base_median = statistics.median(base.iter_seconds)
            rung_median = statistics.median(profiled.iter_seconds)
            self.ladder[rung].append({
                "ratio": rung_median / base_median,
                "us_per_launch": (rung_median - base_median) / base.launches_per_iter * 1e6,
            })

    def _ladder_session(self, rung: str) -> Optional[SessionResult]:
        """One ladder session of the workload's first model (``none``: unprofiled)."""
        spec = self.spec
        model = spec.models[0]
        path = self._path("ladder") if rung != "none" else ""
        config = (rung_config(self.bench.ladder_rungs, rung, model, path)
                  if rung != "none" else None)
        try:
            session = self._session(f"ladder{rung}", model, config, recorder=Recorder(),
                                    warmup=spec.ladder_warmup,
                                    iterations=spec.ladder_iterations,
                                    checkpoint=rung == "+stream")
        finally:
            if path and os.path.exists(path):
                os.unlink(path)
        if session is not None:
            session.database = None
        return session

    # -- the run --------------------------------------------------------------------

    def warm_up(self) -> None:
        """Run ``warmup_cycles`` whole cycles whose timings are discarded.

        The first cycles of a process pay one-time costs the rest do not
        (the first ingest of a full-size profile ~1.4x, the first reports
        ~1.5x), which a median over a dozen cycles would otherwise absorb
        or not depending on how many cycles fit.  Their correctness checks
        still count.
        """
        recorder, setups = self.recorder, list(self.setup_seconds)
        self.recorder = Recorder()
        try:
            for _ in range(self.spec.warmup_cycles):
                self.cycle()
        finally:
            self.recorder, self.setup_seconds = recorder, setups
            self.cycles = 0

    def run(self) -> None:
        """Set up and warm up, then alternate cycles (and ladder rounds)
        until time is up."""
        self.setup()
        if not self.traced:
            self.memory_pairs()
        self.warm_up()
        if self.traced:
            TELEMETRY.reset()
        deadline = time.perf_counter() + self.seconds
        # A traced run gives the ladder twice the cycles' share of time: its
        # per-rung differences are small against session noise, while the
        # per-layer timings of the cycles need few samples.
        activities = {"cycle": self.cycle}
        shares = {"cycle": 1.0, "ladder": 2.0}
        if self.traced:
            activities["ladder"] = self.ladder_round
        spent = dict.fromkeys(activities, 0.0)
        last = dict.fromkeys(activities, 0.0)
        while True:
            due = [activity for activity in activities
                   if self._more(activity, deadline, last[activity])]
            if not due:
                break
            activity = min(due, key=lambda name: spent[name] / shares[name])
            begin = time.perf_counter()
            activities[activity]()
            last[activity] = time.perf_counter() - begin
            spent[activity] += last[activity]

    def _more(self, activity: str, deadline: float, estimate: float) -> bool:
        """Whether another cycle (or ladder round) is due: a fixed count, a
        minimum, or enough time left for one more of the last one's length."""
        if activity == "cycle":
            done, fixed = self.cycles, self.spec.cycles
        else:
            done, fixed = self.ladder_rounds, self.spec.ladder_rounds
        if fixed is not None:
            return done < fixed
        if not self.traced:
            minimum = MIN_CYCLES
        elif activity == "cycle":
            minimum = TRACE_MIN_CYCLES
        else:
            minimum = TRACE_MIN_LADDER_ROUNDS
        return done < minimum or time.perf_counter() + estimate <= deadline

    # -- metrics --------------------------------------------------------------------

    def end_to_end(self) -> Dict[str, Optional[Dict[str, float]]]:
        """Every end-to-end metric as a summary record with its ``value``."""
        recorder, models = self.recorder, self.models
        metrics = {
            "overhead_x": recorder.summary(models, "overhead_x"),
            "profiler_mem_kib": recorder.summary(models, "profiler_mem_kib"),
            "profile_file_kib": recorder.summary(models, "profile_file_kib"),
            "report_ms": recorder.summary(models, "report", 1e3),
            "stop_to_query_ms": recorder.summary(models, "stop_to_query", 1e3),
            "ingest_ms": recorder.summary(models, "fleet.ingest", 1e3),
            "query_ms": recorder.summary(models, "query", 1e3),
            "store_kib_per_run": summarize(
                [_dir_bytes(self.store.root) / 1024.0 / max(1, len(self.store))]),
            "setup_s": summarize(self.setup_seconds),
        }
        for summary in metrics.values():
            if summary is not None:
                summary["value"] = summary["median"]
        base = recorder.summary(models, "iter_base", 1e3)
        if metrics["overhead_x"] is not None and base is not None:
            metrics["overhead_x"]["base"] = {"name": "unprofiled iteration",
                                             "unit": "ms", "median": base["median"]}
        return metrics

    def per_layer(self) -> Dict[str, float]:
        """Every per-layer metric of a traced run as one number."""
        recorder, models = self.recorder, self.models
        values: Dict[str, float] = {}

        def median_of(name: str, scale: float = 1.0) -> float:
            summary = recorder.summary(models, name, scale)
            return summary["median"] if summary is not None else 0.0

        def p90_of(name: str, scale: float = 1.0) -> float:
            tails = [percentile(recorder.values(model, name), 90.0) * scale
                     for model in models if recorder.values(model, name)]
            return statistics.fmean(tails) if tails else 0.0

        values.update(self._ladder_increments())
        for metric in ("dlmonitor.framework_events_per_iter",
                       "dlmonitor.gpu_events_per_iter", "dlmonitor.callpaths_per_iter",
                       "dlmonitor.python_captures_per_iter", "dlmonitor.cache_hit_rate",
                       "native.unwind_steps_per_launch", "gpu.activities_per_launch",
                       "gpu.pc_samples_per_launch", "correlation.unresolved",
                       "correlation.swept", "cpu.samples_per_iter", "cct.nodes",
                       "cct.size_kib", "cct.shards", "cct.node_growth_per_iter",
                       "cct.replay_insert_us", "cct.replay_attribute_us",
                       "streaming.seals_per_run"):
            values[metric] = median_of(metric)
        timings = {"profiler.stop_ms": "profiler.stop", "streaming.seal_ms": "streaming.seal",
                   "storage.save_ms": "storage.save", "fleet.prune_ms": "fleet.prune",
                   "fleet.open_aggregator_ms": "fleet.aggregator",
                   "fleet.top_kernels_ms": "fleet.top_kernels",
                   "fleet.aggregate_by_name_ms": "fleet.aggregate_by_name",
                   "fleet.name_drift_ms": "fleet.name_drift",
                   "analyzer.analyze_ms": "analyzer.analyze",
                   "gui.flamegraph_ms": "gui.top_down",
                   "gui.render_html_ms": "gui.render_html"}
        for metric, name in timings.items():
            values[metric] = median_of(name, 1e3)
        values["streaming.file_kib"] = median_of("stream_file_kib")
        values["storage.views_opened_per_query"] = median_of("views_opened_per_query")
        values["storage.blocks_decoded_per_ingest"] = median_of("blocks_decoded_per_ingest")
        values["fleet.ingest_ms_p90"] = p90_of("fleet.ingest", 1e3)
        values["fleet.lock_wait_ms"] = median_of("lock_wait_ms")
        values["fleet.lock_acquires_per_cycle"] = median_of("lock_acquires")
        values["fleet.index_served_ratio"] = median_of("index_served_ratio")
        values["fleet.aggregate_passes_per_query"] = median_of("aggregate_passes_per_query")
        values["fleet.query_ms_p90"] = p90_of("query", 1e3)
        values["run.iter_ms_p50"] = median_of("iter_profiled", 1e3)
        values["run.iter_ms_p90"] = p90_of("iter_profiled", 1e3)
        values["run.base_iter_ms_p50"] = median_of("iter_base", 1e3)
        values["run.kernels_per_iter"] = median_of("launches_per_iter")
        values["run.us_per_launch"] = median_of("us_per_launch")
        values["trace.overhead_x"] = median_of("trace_overhead_x")
        return values

    def _ladder_increments(self) -> Dict[str, float]:
        """Extra µs per launch each rung adds over the rung before it."""
        increments, previous = {}, 0.0
        for rung in self.bench.ladder_rungs:
            costs = [entry["us_per_launch"] for entry in self.ladder[rung]]
            cost = statistics.median(costs) if costs else previous
            increments[RUNG_METRICS[rung]] = cost - previous
            previous = cost
        return increments

    def ladder_summary(self) -> Dict[str, Dict[str, float]]:
        """Per rung: median ratio to the unprofiled session, µs per launch, rounds."""
        return {rung: {key: statistics.median(entry[key] for entry in entries)
                       for key in ("ratio", "us_per_launch")} | {"rounds": len(entries)}
                for rung, entries in self.ladder.items() if entries}

    def export_trace(self, path: Optional[str]) -> Dict[str, float]:
        """Write the Chrome trace (+ metrics snapshot) when ``path`` is given;
        return self ms per cycle of every span name.

        A span's self time is its duration minus the time its child spans
        cover; spans nest within one thread, so children never overlap.
        """
        if path:
            TELEMETRY.export_trace(path)
            TELEMETRY.export_snapshot(f"{path}.metrics.json")
        spans = TELEMETRY.spans()
        covered: Dict[int, float] = {}
        for _name, _tid, _start, duration, _span_id, parent_id, _args in spans:
            if parent_id is not None:
                covered[parent_id] = covered.get(parent_id, 0.0) + duration
        self_us: Dict[str, float] = {}
        for name, _tid, _start, duration, span_id, _parent, _args in spans:
            self_us[name] = self_us.get(name, 0.0) + duration - covered.get(span_id, 0.0)
        self.spans_dropped = TELEMETRY.snapshot()["spans"]["dropped"]
        TELEMETRY.reset()
        cycles = max(1, self.cycles)
        return {name: total / 1e3 / cycles
                for name, total in sorted(self_us.items(), key=lambda item: -item[1])}

    def consistency(self, bound: float = CONSISTENCY_BOUND) -> Optional[Dict[str, object]]:
        """The matching ladder rung against this run's own paired ``overhead_x``."""
        rung = self.spec.matching_rung
        overhead = self.recorder.summary(self.models, "overhead_x")
        if rung is None or overhead is None or not self.ladder[rung]:
            return None
        ladder_ratio = statistics.median([entry["ratio"] for entry in self.ladder[rung]])
        gap = abs(ladder_ratio / overhead["median"] - 1.0)
        return {"rung": rung, "ladder_ratio": ladder_ratio,
                "overhead_x": overhead["median"], "gap": gap, "bound": bound,
                "passed": gap <= bound}
