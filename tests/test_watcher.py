"""Tests for the live fleet watcher (``repro.fleet.watcher``).

Pins the watcher's contracts:

* **retention** — :meth:`ProfileStore.prune`: age and per-workload count
  rules, label narrowing, protected labels, quarantine interaction, and the
  no-op report shape;
* **tailing** — discovery of streamed checkpoint files, refresh following new
  seals, attach retry on not-yet-sealed files, degrade-don't-crash on torn
  tails and truncation, vanished-file cleanup, and the liveness gauges;
* **completion** — ingest on completion marker and on settle timeout,
  retention applied through the catalog lock after each ingest, and an
  ingest failure filing a watcher issue instead of crashing;
* **standing jobs** — scheduling by period, scrub filing quarantine issues,
  health snapshots, dashboard re-render;
* the ISSUE's **end-to-end acceptance**: a dashboard that reflects a new
  seal within one poll, a completed run ingested then pruned per retention,
  and the rolling drift job filing an injected slowdown as the top-ranked
  regression issue in the persisted issue log.
"""

import os
import threading
import time

import pytest

from repro.core import ProfileDatabase, ProfileMetadata, StreamingProfileWriter
from repro.core.faultfs import flip_bit
from repro.core import metrics as M
from repro.core.cct import ShardedCallingContextTree
from repro.core.streaming import completion_marker_path
from repro.dlmonitor.callpath import (
    CallPath,
    framework_frame,
    gpu_kernel_frame,
    python_frame,
    root_frame,
    thread_frame,
)
from repro.fleet import (
    FleetWatcher,
    ProfileStore,
    RetentionPolicy,
)
from repro.fleet.store import PROFILE_SUFFIX
from repro.obs import TELEMETRY, HealthTimeSeries


@pytest.fixture(autouse=True)
def _telemetry():
    """Gauges/counters are part of the watcher's contract: record them."""
    TELEMETRY.disable()
    TELEMETRY.reset()
    TELEMETRY.enable()
    yield
    TELEMETRY.disable()
    TELEMETRY.reset()


def _path(workload: str, op: str, kernel: str) -> CallPath:
    return CallPath.of([
        root_frame(workload), thread_frame("main", 1),
        python_frame("train.py", 10, "train_step"),
        framework_frame(f"aten::{op}"),
        gpu_kernel_frame(kernel),
    ])


def make_database(workload: str, observations,
                  anonymous: bool = False) -> ProfileDatabase:
    """A single-shard profile from ``(op, kernel, gpu_time)`` observations."""
    tree = ShardedCallingContextTree(workload if not anonymous else "program")
    shard = tree.shard_for_tid(1, thread_name="main")
    for op, kernel, gpu_time in observations:
        node = shard.insert(_path(workload, op, kernel))
        shard.attribute_many(node, {M.METRIC_GPU_TIME: gpu_time,
                                    M.METRIC_KERNEL_COUNT: 1.0})
    if anonymous:
        return ProfileDatabase(tree)
    metadata = ProfileMetadata(program=workload, workload=workload,
                               device="A100")
    return ProfileDatabase(tree, metadata)


FAST = [("conv", "k_conv", 0.010), ("linear", "k_gemm", 0.020),
        ("norm", "k_norm", 0.002)]


def fast_observations(jitter: float = 0.0):
    """The FAST shape with per-run jitter so content addresses differ."""
    return [(op, kernel, gpu + jitter) for op, kernel, gpu in FAST]


def start_stream(directory, name: str, workload: str, observations):
    """Stream a run's first checkpoint into ``directory``.

    Returns ``(database, writer, path)`` with one seal on disk — the moment
    a watcher can first attach it.
    """
    database = make_database(workload, observations)
    os.makedirs(str(directory), exist_ok=True)
    path = os.path.join(str(directory), f"{name}{PROFILE_SUFFIX}")
    writer = StreamingProfileWriter(database, path)
    writer.checkpoint()
    return database, writer, path


def observe(database: ProfileDatabase, workload: str, op: str, kernel: str,
            gpu_time: float) -> None:
    shard = database.tree.shard_for_tid(1)
    node = shard.insert(_path(workload, op, kernel))
    shard.attribute_many(node, {M.METRIC_GPU_TIME: gpu_time,
                                M.METRIC_KERNEL_COUNT: 1.0})


def gauge(name: str) -> float:
    return TELEMETRY.snapshot()["gauges"][name]


# ---------------------------------------------------------------------------
# ProfileStore.prune
# ---------------------------------------------------------------------------

class TestStorePrune:
    def test_noop_without_rules(self, tmp_path):
        store = ProfileStore(tmp_path / "store")
        store.ingest(make_database("unet", fast_observations()))
        report = store.prune()
        assert report.examined == 1
        assert report.pruned == []
        assert report.kept == 1
        assert report.as_dict()["pruned"] == []
        assert len(store) == 1

    def test_prune_by_age(self, tmp_path):
        store = ProfileStore(tmp_path / "store")
        old = store.ingest(make_database("unet", fast_observations(0.001)))
        store.ingest(make_database("unet", fast_observations(0.002)))
        report = store.prune(max_age_s=60.0, now=time.time() + 120.0)
        assert len(report.pruned) == 2
        assert old.run_id in report.pruned_run_ids
        assert all("age" in reason for _, reason in report.pruned)
        assert len(store) == 0
        # The profiles are really gone, not just un-catalogued.
        assert os.listdir(os.path.join(store.root, "profiles")) == []

    def test_max_runs_keeps_newest_per_workload(self, tmp_path):
        store = ProfileStore(tmp_path / "store")
        unet = [store.ingest(make_database("unet", fast_observations(i / 1e3)))
                for i in range(3)]
        gnn = store.ingest(make_database("gnn", fast_observations()))
        report = store.prune(max_runs=2)
        assert report.pruned_run_ids == [unet[0].run_id]
        assert "max_runs=2" in report.pruned[0][1]
        assert [r.run_id for r in store.find(workload="unet")] == [
            unet[1].run_id, unet[2].run_id]
        # The other workload is under its own budget — untouched.
        assert store.find(workload="gnn") == [gnn]

    def test_protect_labels_exempt_runs(self, tmp_path):
        store = ProfileStore(tmp_path / "store")
        pinned = store.ingest(make_database("unet", fast_observations(0.001)),
                              labels={"pinned": "true"})
        store.ingest(make_database("unet", fast_observations(0.002)))
        report = store.prune(max_age_s=1.0, now=time.time() + 100.0,
                             protect_labels=("pinned",))
        assert report.protected == [pinned.run_id]
        assert pinned.run_id not in report.pruned_run_ids
        assert store.get(pinned.run_id) is pinned

    def test_labels_narrow_the_sweep(self, tmp_path):
        store = ProfileStore(tmp_path / "store")
        nightly = store.ingest(make_database("unet", fast_observations(0.001)),
                               labels={"ci": "nightly"})
        keeper = store.ingest(make_database("unet", fast_observations(0.002)))
        report = store.prune(max_age_s=1.0, now=time.time() + 100.0,
                             labels={"ci": "nightly"})
        assert report.examined == 1
        assert report.pruned_run_ids == [nightly.run_id]
        # The unlabeled run was never examined, let alone pruned.
        assert store.run_ids() == [keeper.run_id]

    def test_quarantined_runs_do_not_consume_count_slots(self, tmp_path):
        store = ProfileStore(tmp_path / "store")
        runs = [store.ingest(make_database("unet", fast_observations(i / 1e3)))
                for i in range(3)]
        store.quarantine(runs[2].run_id, "bit rot")
        report = store.prune(max_runs=2)
        # Two healthy runs fit the budget; the quarantined one neither
        # occupies a slot nor is pruned by the count rule.
        assert report.pruned == []
        assert runs[2].run_id in store
        # The age rule, by contrast, does age quarantined runs out.
        aged = store.prune(max_age_s=1.0, now=time.time() + 100.0)
        assert runs[2].run_id in aged.pruned_run_ids


# ---------------------------------------------------------------------------
# Tailing live runs
# ---------------------------------------------------------------------------

class TestWatcherTailing:
    def test_discovers_and_gauges_live_run(self, tmp_path):
        store = ProfileStore(tmp_path / "store")
        database, writer, path = start_stream(tmp_path / "watch", "run-a",
                                              "unet", fast_observations())
        with FleetWatcher(str(tmp_path / "watch"), store,
                          scrub_every_s=None, drift_every_s=None,
                          snapshot_every_s=None,
                          dashboard_every_s=None) as watcher:
            tick = watcher.poll_once(now=1000.0)
            assert tick.discovered == ["run-a"]
            assert tick.runs_live == 1
            run = watcher.runs[path]
            assert run.nodes == database.tree.stored_node_count()
            assert run.metric_total == pytest.approx(
                database.total_gpu_time())
            assert gauge("watcher.runs_live") == 1.0
            assert gauge("watcher.run.run-a.nodes") == float(run.nodes)
            assert gauge("watcher.last_seal_age_s") == 0.0
            # An idle second poll: no advance, the seal just ages.
            tick = watcher.poll_once(now=1007.0)
            assert tick.advanced == []
            assert gauge("watcher.last_seal_age_s") == pytest.approx(7.0)
        writer.close()

    def test_refresh_follows_new_seals(self, tmp_path):
        store = ProfileStore(tmp_path / "store")
        database, writer, path = start_stream(tmp_path / "watch", "run-a",
                                              "unet", fast_observations())
        with FleetWatcher(str(tmp_path / "watch"), store,
                          scrub_every_s=None, drift_every_s=None,
                          snapshot_every_s=None,
                          dashboard_every_s=None) as watcher:
            watcher.poll_once(now=1000.0)
            nodes_before = watcher.runs[path].nodes
            observe(database, "unet", "attn", "k_attn", 0.5)
            writer.checkpoint()
            tick = watcher.poll_once(now=1001.0)
            assert tick.advanced == ["run-a"]
            run = watcher.runs[path]
            assert run.nodes > nodes_before
            assert run.metric_total == pytest.approx(
                database.total_gpu_time())
            assert run.last_seal_at == 1001.0
            assert TELEMETRY.counter_value("watcher.seals_observed") == 1.0
        writer.close()

    def test_not_yet_sealed_file_is_retried_not_tracked(self, tmp_path):
        watch = tmp_path / "watch"
        watch.mkdir()
        bad = watch / f"half-born{PROFILE_SUFFIX}"
        bad.write_bytes(b"not a profile header at all")
        store = ProfileStore(tmp_path / "store")
        with FleetWatcher(str(watch), store, scrub_every_s=None,
                          drift_every_s=None, snapshot_every_s=None,
                          dashboard_every_s=None) as watcher:
            tick = watcher.poll_once(now=1000.0)
            assert tick.discovered == []
            assert watcher.runs == {}
            assert TELEMETRY.counter_value("watcher.attach_retries") == 1.0
            # Still retried (and still failing) on the next poll.
            watcher.poll_once(now=1001.0)
            assert TELEMETRY.counter_value("watcher.attach_retries") == 2.0

    def test_torn_tail_degrades_to_last_sealed_prefix(self, tmp_path):
        store = ProfileStore(tmp_path / "store")
        database, writer, path = start_stream(tmp_path / "watch", "run-a",
                                              "unet", fast_observations())
        with FleetWatcher(str(tmp_path / "watch"), store,
                          scrub_every_s=None, drift_every_s=None,
                          snapshot_every_s=None,
                          dashboard_every_s=None) as watcher:
            watcher.poll_once(now=1000.0)
            before = watcher.runs[path]
            nodes, total = before.nodes, before.metric_total
            # A producer crash mid-append: garbage past the last seal.
            with open(path, "ab") as handle:
                handle.write(b"\x00\xffgarbage past the seal\x00" * 8)
            tick = watcher.poll_once(now=1001.0)
            run = watcher.runs[path]
            assert tick.advanced == []
            assert not run.stalled  # recovery found the sealed prefix
            assert run.nodes == nodes
            assert run.metric_total == pytest.approx(total)
        writer.close()

    def test_truncated_file_stalls_then_recovers(self, tmp_path):
        store = ProfileStore(tmp_path / "store")
        database, writer, path = start_stream(tmp_path / "watch", "run-a",
                                              "unet", fast_observations())
        original = open(path, "rb").read()
        with FleetWatcher(str(tmp_path / "watch"), store,
                          scrub_every_s=None, drift_every_s=None,
                          snapshot_every_s=None,
                          dashboard_every_s=None) as watcher:
            watcher.poll_once(now=1000.0)
            served_nodes = watcher.runs[path].nodes
            # Truncate below the first seal: no intact prefix remains on
            # disk, but the attached view keeps serving from its old mmap.
            with open(path, "r+b") as handle:
                handle.truncate(10)
            tick = watcher.poll_once(now=1001.0)
            run = watcher.runs[path]
            assert run.stalled
            assert run.error
            assert tick.runs_stalled == 1
            assert gauge("watcher.runs_stalled") == 1.0
            assert TELEMETRY.counter_value("watcher.refresh_errors") == 1.0
            assert run.nodes == served_nodes  # degrade, never crash
            # The file comes back (operator restored it): un-stalls.
            with open(path, "wb") as handle:
                handle.write(original)
            watcher.poll_once(now=1002.0)
            assert not watcher.runs[path].stalled
        writer.close()

    def test_vanished_file_is_dropped(self, tmp_path):
        store = ProfileStore(tmp_path / "store")
        database, writer, path = start_stream(tmp_path / "watch", "run-a",
                                              "unet", fast_observations())
        writer.close()
        with FleetWatcher(str(tmp_path / "watch"), store,
                          scrub_every_s=None, drift_every_s=None,
                          snapshot_every_s=None,
                          dashboard_every_s=None) as watcher:
            watcher.poll_once(now=1000.0)
            os.unlink(path)
            tick = watcher.poll_once(now=1001.0)
            assert watcher.runs == {}
            assert tick.runs_live == 0
            assert TELEMETRY.counter_value("watcher.runs_vanished") == 1.0

    def test_run_loop_is_bounded(self, tmp_path):
        store = ProfileStore(tmp_path / "store")
        watcher = FleetWatcher(str(tmp_path / "watch"), store,
                               poll_interval_s=0.0, scrub_every_s=None,
                               drift_every_s=None, snapshot_every_s=None,
                               dashboard_every_s=None)
        assert watcher.run(max_ticks=3) == 3
        assert watcher.run(deadline_s=0.0) == 0
        stop = threading.Event()
        stop.set()
        assert watcher.run(stop=stop) == 0


# ---------------------------------------------------------------------------
# Completion, ingest and retention
# ---------------------------------------------------------------------------

class TestWatcherCompletion:
    def test_completion_marker_triggers_ingest(self, tmp_path):
        store = ProfileStore(tmp_path / "store")
        database, writer, path = start_stream(tmp_path / "watch", "run-a",
                                              "unet", fast_observations())
        with FleetWatcher(str(tmp_path / "watch"), store,
                          scrub_every_s=None, drift_every_s=None,
                          snapshot_every_s=None, dashboard_every_s=None,
                          labels={"source": "watcher"},
                          remove_ingested=True) as watcher:
            watcher.poll_once(now=1000.0)
            writer.close(mark_complete=True)
            assert os.path.exists(completion_marker_path(path))
            tick = watcher.poll_once(now=1001.0)
            assert len(tick.ingested) == 1
            record = store.get(tick.ingested[0])
            assert record.workload == "unet"
            assert record.labels == {"source": "watcher"}
            assert watcher.runs == {}
            # remove_ingested cleaned the stream and its marker.
            assert not os.path.exists(path)
            assert not os.path.exists(completion_marker_path(path))
            # The path never re-enters tracking.
            tick = watcher.poll_once(now=1002.0)
            assert tick.discovered == []

    def test_settle_timeout_triggers_ingest(self, tmp_path):
        store = ProfileStore(tmp_path / "store")
        database, writer, path = start_stream(tmp_path / "watch", "run-a",
                                              "unet", fast_observations())
        with FleetWatcher(str(tmp_path / "watch"), store, settle_s=5.0,
                          scrub_every_s=None, drift_every_s=None,
                          snapshot_every_s=None,
                          dashboard_every_s=None) as watcher:
            watcher.poll_once(now=1000.0)
            assert watcher.poll_once(now=1003.0).ingested == []
            tick = watcher.poll_once(now=1006.0)  # quiet for >= settle_s
            assert len(tick.ingested) == 1
            # Ingest recovered the stream at its last seal even though the
            # writer never closed (the crashed-producer case).
            assert store.get(tick.ingested[0]).nodes == \
                database.tree.stored_node_count()
        writer.close()

    def test_retention_applied_after_ingest(self, tmp_path):
        store = ProfileStore(tmp_path / "store")
        old = [store.ingest(make_database("unet", fast_observations(i / 1e3)))
               for i in range(2)]
        database, writer, path = start_stream(tmp_path / "watch", "run-a",
                                              "unet", fast_observations(0.009))
        writer.close(mark_complete=True)
        with FleetWatcher(str(tmp_path / "watch"), store,
                          retention=RetentionPolicy(max_runs=2),
                          scrub_every_s=None, drift_every_s=None,
                          snapshot_every_s=None,
                          dashboard_every_s=None) as watcher:
            tick = watcher.poll_once(now=1000.0)
            assert len(tick.ingested) == 1
            assert tick.pruned == [old[0].run_id]
            assert len(store.find(workload="unet")) == 2
            assert old[0].run_id not in store

    def test_ingest_failure_files_issue_and_blacklists(self, tmp_path):
        store = ProfileStore(tmp_path / "store")
        # An anonymous profile: no workload identity, so ingest refuses.
        database = make_database("unet", fast_observations(), anonymous=True)
        os.makedirs(tmp_path / "watch")
        path = os.path.join(str(tmp_path / "watch"),
                            f"anon{PROFILE_SUFFIX}")
        writer = StreamingProfileWriter(database, path)
        writer.checkpoint()
        writer.close(mark_complete=True)
        issue_log = str(tmp_path / "issues.jsonl")
        with FleetWatcher(str(tmp_path / "watch"), store,
                          issue_log_path=issue_log, scrub_every_s=None,
                          drift_every_s=None, snapshot_every_s=None,
                          dashboard_every_s=None) as watcher:
            tick = watcher.poll_once(now=1000.0)
            assert tick.ingested == []
            assert tick.issues_filed == 1
            assert len(store) == 0
            rows = HealthTimeSeries(issue_log).records()
            assert len(rows) == 1
            assert rows[0]["analysis"] == "watcher"
            assert rows[0]["severity"] == "warning"
            assert "could not be ingested" in rows[0]["message"]
            # Blacklisted: the next poll neither retries nor re-files.
            tick = watcher.poll_once(now=1001.0)
            assert tick.issues_filed == 0
            assert len(HealthTimeSeries(issue_log).records()) == 1


# ---------------------------------------------------------------------------
# Standing jobs
# ---------------------------------------------------------------------------

class TestWatcherJobs:
    def test_jobs_fire_by_period(self, tmp_path):
        store = ProfileStore(tmp_path / "store")
        with FleetWatcher(str(tmp_path / "watch"), store,
                          scrub_every_s=100.0, drift_every_s=None,
                          snapshot_every_s=None,
                          dashboard_every_s=None) as watcher:
            # Every enabled job fires on the first poll...
            assert watcher.poll_once(now=1000.0).jobs_ran == ["scrub"]
            # ...then not again until its period elapses.
            assert watcher.poll_once(now=1050.0).jobs_ran == []
            assert watcher.poll_once(now=1100.0).jobs_ran == ["scrub"]

    def test_scrub_job_files_quarantine_issues(self, tmp_path):
        store = ProfileStore(tmp_path / "store")
        record = store.ingest(make_database("unet", fast_observations()))
        # Rot a byte in the stored payload; the scrub sweep must catch it.
        flip_bit(store.profile_path(record.run_id), 600)
        issue_log = str(tmp_path / "issues.jsonl")
        with FleetWatcher(str(tmp_path / "watch"), store,
                          issue_log_path=issue_log, scrub_every_s=1.0,
                          drift_every_s=None, snapshot_every_s=None,
                          dashboard_every_s=None) as watcher:
            tick = watcher.poll_once(now=1000.0)
            assert "scrub" in tick.jobs_ran
            assert tick.issues_filed == 1
        assert [r.run_id for r in store.quarantined()] == [record.run_id]
        rows = HealthTimeSeries(issue_log).records()
        assert len(rows) == 1
        assert record.run_id in rows[0]["message"]
        assert "quarantined" in rows[0]["message"]

    def test_snapshot_job_appends_health_series(self, tmp_path):
        store = ProfileStore(tmp_path / "store")
        health = HealthTimeSeries(str(tmp_path / "health.jsonl"), fsync=False)
        database, writer, path = start_stream(tmp_path / "watch", "run-a",
                                              "unet", fast_observations())
        with FleetWatcher(str(tmp_path / "watch"), store, health=health,
                          snapshot_every_s=0.0, scrub_every_s=None,
                          drift_every_s=None,
                          dashboard_every_s=None) as watcher:
            watcher.poll_once(now=1000.0)
            watcher.poll_once(now=1001.0)
        rows = health.records()
        assert len(rows) == 2
        assert rows[0]["ts"] == 1000.0
        assert rows[1]["watcher"]["runs_live"] == 1
        assert rows[1]["watcher"]["ticks"] == 1
        # The gauges published by the first poll are in the second snapshot
        # (jobs run before gauges within a tick), chartable as a series.
        assert health.series("gauges", "watcher.runs_live")[-1][1] == 1.0
        writer.close()

    def test_dashboard_job_rerenders_page(self, tmp_path):
        store = ProfileStore(tmp_path / "store")
        dashboard = str(tmp_path / "dash.html")
        database, writer, path = start_stream(tmp_path / "watch", "run-a",
                                              "unet", fast_observations())
        with FleetWatcher(str(tmp_path / "watch"), store,
                          dashboard_path=dashboard, dashboard_every_s=0.0,
                          poll_interval_s=2.0, scrub_every_s=None,
                          drift_every_s=None,
                          snapshot_every_s=None) as watcher:
            watcher.poll_once(now=1000.0)
            page = open(dashboard, encoding="utf-8").read()
            assert '<meta http-equiv="refresh" content="2"/>' in page
            assert "run-a" in page
            nodes = watcher.runs[path].nodes
            assert f"{nodes} node(s)" in page
        writer.close()


# ---------------------------------------------------------------------------
# End-to-end acceptance (ISSUE 10)
# ---------------------------------------------------------------------------

class TestWatcherEndToEnd:
    def test_watch_ingest_prune_and_drift(self, tmp_path):
        """The full lifecycle: live → sealed → ingested → retained/pruned,
        with the dashboard tracking each poll and the drift job filing the
        injected slowdown as the top-ranked regression issue."""
        store = ProfileStore(tmp_path / "store")
        baselines = [
            store.ingest(make_database("convnet", fast_observations(i / 1e3)))
            for i in range(3)]
        watch = tmp_path / "watch"
        dashboard = str(tmp_path / "dash.html")
        health = HealthTimeSeries(str(tmp_path / "health.jsonl"), fsync=False)
        issue_log = str(tmp_path / "issues.jsonl")
        t0 = time.time()

        watcher = FleetWatcher(
            str(watch), store,
            retention=RetentionPolicy(max_runs=4),
            drift_every_s=0.0, drift_window=8, drift_min_runs=4,
            scrub_every_s=None, snapshot_every_s=0.0,
            dashboard_path=dashboard, dashboard_every_s=0.0,
            issue_log_path=issue_log, health=health)
        with watcher:
            # -- live: first seal appears within one poll -------------------
            database, writer, path = start_stream(
                watch, "run-live", "convnet", fast_observations(0.004))
            tick = watcher.poll_once(now=t0)
            assert tick.discovered == ["run-live"]
            page = open(dashboard, encoding="utf-8").read()
            nodes_first = watcher.runs[path].nodes
            assert "run-live" in page
            assert f"{nodes_first} node(s)" in page

            # -- a new seal lands: the next poll's dashboard shows it ------
            # (acceptance (a): reflected within one poll interval).
            observe(database, "convnet", "attn", "k_hot", 50.0)
            writer.checkpoint()
            tick = watcher.poll_once(now=t0 + 1.0)
            assert tick.advanced == ["run-live"]
            nodes_after = watcher.runs[path].nodes
            assert nodes_after > nodes_first
            page = open(dashboard, encoding="utf-8").read()
            assert f"{nodes_after} node(s)" in page

            # -- completion: final seal ingested, drift judged -------------
            writer.close(mark_complete=True)
            tick = watcher.poll_once(now=t0 + 2.0)
            assert len(tick.ingested) == 1
            slow_id = tick.ingested[0]
            assert store.get(slow_id).workload == "convnet"
            assert "drift" in tick.jobs_ran
            assert tick.issues_filed > 0

            # Acceptance (c): the slowdown is the top-ranked regression in
            # the persisted issue log.
            rows = [row for row in HealthTimeSeries(issue_log).records()
                    if row["analysis"] == "regression"]
            assert rows
            top = min(rows, key=lambda row: row["metrics"].get("rank", 1e9))
            assert top["metrics"]["rank"] == 1.0
            assert "k_hot" in top["node"]
            assert top["workload"] == "convnet"
            assert top["severity"] in ("warning", "critical")

            # -- retention: the next completed run evicts the oldest -------
            # (acceptance (b): ingested then pruned per policy).
            database2, writer2, path2 = start_stream(
                watch, "run-next", "convnet", fast_observations(0.006))
            writer2.close(mark_complete=True)
            tick = watcher.poll_once(now=t0 + 3.0)
            assert len(tick.ingested) == 1
            assert tick.pruned == [baselines[0].run_id]
            assert baselines[0].run_id not in store
            assert len(store.find(workload="convnet")) == 4

        # The health series recorded every poll and is chartable.
        assert len(health) == 4
        assert health.series("gauges", "watcher.runs_live")
        # The final dashboard carries the filed regression.
        page = open(dashboard, encoding="utf-8").read()
        assert "regression" in page


# ---------------------------------------------------------------------------
# The CLI
# ---------------------------------------------------------------------------

class TestWatchCli:
    def test_cli_bounded_run(self, tmp_path, capsys):
        from repro.fleet.watch import main

        database, writer, path = start_stream(
            tmp_path / "watch", "run-a", "unet", fast_observations())
        writer.close(mark_complete=True)
        code = main([str(tmp_path / "watch"),
                     "--store", str(tmp_path / "store"),
                     "--max-ticks", "2", "--poll-interval-s", "0",
                     "--dashboard", str(tmp_path / "dash.html")])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 tick(s)" in out
        assert "1 run(s) in store" in out
        assert os.path.exists(tmp_path / "dash.html")
        assert len(ProfileStore(tmp_path / "store")) == 1
