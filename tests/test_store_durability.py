"""Tests for store durability: checksums, quarantine, degraded fleet queries.

Pins the hardening contracts:

* **per-block checksums**: ``cct-binary-v1`` files carry CRC-32 per block
  (TOC flag ``checksum: "crc32"``), verified lazily on first touch;
  pre-checksum files (``checksums=False``) still open and query;
* **quarantine**: a corrupt run stays catalogued but is excluded from
  ``find``/``latest``/aggregation; ``scrub`` quarantines and restores with
  precise reasons; state round-trips through the catalog;
* **graceful degradation**: a ``FleetAggregator`` over a store with corrupt
  runs answers from the healthy rest and reports what it dropped — at
  catalog, open, or query stage — instead of raising;
* **crash-safe concurrency**: concurrent ingests into one store all land in
  the catalog (advisory lock + read-merge-write), stale locks are broken,
  lock waits are bounded;
* **named errors**: attach/refresh on a vanished file and ingest of a
  directory / missing path fail with errors naming the path and condition.
"""

import os
import struct
import subprocess
import sys
import textwrap
import threading

import pytest

from repro.analyzer import (
    ANALYSIS_STORE_DURABILITY,
    AnalysisReport,
    Severity,
    attach_issues,
    degradation_issues,
    quarantine_issues,
)
from repro.core import (
    LazyProfileView,
    ProfileCorruptionError,
    ProfileDatabase,
    ProfileFormatError,
    ProfileMetadata,
    open_binary,
    save_binary,
)
from repro.core import metrics as M
from repro.core.cct import ShardedCallingContextTree
from repro.core.faultfs import flip_bit, truncate_file
from repro.dlmonitor.callpath import (
    CallPath,
    framework_frame,
    gpu_kernel_frame,
    python_frame,
    root_frame,
    thread_frame,
)
from repro.fleet import (
    STATUS_OK,
    STATUS_QUARANTINED,
    CatalogLockTimeout,
    ProfileStore,
)
from repro.fleet.store import _CatalogLock


def _path(workload: str, op: str, kernel: str) -> CallPath:
    return CallPath.of([
        root_frame(workload), thread_frame("main", 1),
        python_frame("train.py", 10, "train_step"),
        framework_frame(f"aten::{op}"),
        gpu_kernel_frame(kernel),
    ])


def make_database(workload: str, observations) -> ProfileDatabase:
    tree = ShardedCallingContextTree(workload)
    shard = tree.shard_for_tid(1, thread_name="main")
    for op, kernel, gpu_time in observations:
        node = shard.insert(_path(workload, op, kernel))
        shard.attribute_many(node, {M.METRIC_GPU_TIME: gpu_time,
                                    M.METRIC_KERNEL_COUNT: 1.0})
    metadata = ProfileMetadata(program=workload, workload=workload,
                               device="A100")
    return ProfileDatabase(tree, metadata)


OBSERVATIONS = [("conv", "k_conv", 0.010), ("linear", "k_gemm", 0.020),
                ("norm", "k_norm", 0.002)]


def _column_block_offset(path: str, metric: str = M.METRIC_GPU_TIME) -> int:
    """Byte offset of one shard's column block (to aim corruption at)."""
    with open_binary(path) as view:
        entry = view._toc["shards"][0]
        return int(entry["columns"][metric]["offset"])


def _corrupt_column_block(store: ProfileStore, run_id: str) -> None:
    path = store.profile_path(run_id)
    flip_bit(path, _column_block_offset(path) + 3)


# ---------------------------------------------------------------------------
# Checksums in the canonical format
# ---------------------------------------------------------------------------

class TestChecksums:
    def test_saved_profiles_carry_crc32_per_block(self, tmp_path):
        path = str(tmp_path / "p.cctb")
        save_binary(make_database("unet", OBSERVATIONS), path)
        with open_binary(path) as view:
            assert view._toc["checksum"] == "crc32"
            assert "crc32" in view._toc["meta"]
            for entry in view._toc["shards"]:
                assert "crc32" in entry["frames"]
                for descriptor in entry["columns"].values():
                    assert "crc32" in descriptor
            assert view.verify_blocks() == []

    def test_unchecksummed_files_still_open_and_query(self, tmp_path):
        """Backward compatibility: pre-checksum files have no crc32 keys and
        every read succeeds without verification."""
        path = str(tmp_path / "old.cctb")
        database = make_database("unet", OBSERVATIONS)
        save_binary(database, path, checksums=False)
        with open_binary(path) as view:
            assert "checksum" not in view._toc
            assert all("crc32" not in entry["frames"]
                       for entry in view._toc["shards"])
            assert view.total_metric(M.METRIC_GPU_TIME) == pytest.approx(
                database.total_gpu_time())
            assert view.verify_blocks() == []

    def test_verification_is_lazy_and_once_per_block(self, tmp_path):
        """Corruption in an untouched block does not fail unrelated queries;
        the first touch of the bad block does."""
        path = str(tmp_path / "p.cctb")
        save_binary(make_database("unet", OBSERVATIONS), path)
        flip_bit(path, _column_block_offset(path, M.METRIC_KERNEL_COUNT) + 3)
        with open_binary(path) as view:
            # The gpu_time column and the frame table are intact: fine.
            assert view.total_metric(M.METRIC_GPU_TIME) > 0
            with pytest.raises(ProfileCorruptionError) as excinfo:
                view.total_metric(M.METRIC_KERNEL_COUNT)
            assert M.METRIC_KERNEL_COUNT in str(excinfo.value)
        # verify_blocks names exactly the one rotten block.
        with open_binary(path) as view:
            problems = view.verify_blocks()
        assert len(problems) == 1
        assert "CRC-32" in problems[0]


# ---------------------------------------------------------------------------
# Named errors: attach/refresh and ingest validation
# ---------------------------------------------------------------------------

class TestNamedErrors:
    def test_attach_to_missing_file_names_the_path(self, tmp_path):
        path = str(tmp_path / "vanished.cctb")
        with pytest.raises(ProfileFormatError) as excinfo:
            LazyProfileView.attach(path)
        assert "vanished.cctb" in str(excinfo.value)
        assert "attach" in str(excinfo.value)

    def test_refresh_after_file_vanishes_names_the_path(self, tmp_path):
        path = str(tmp_path / "p.cctb")
        save_binary(make_database("unet", OBSERVATIONS), path)
        view = LazyProfileView.attach(path)
        try:
            os.unlink(path)
            with pytest.raises(ProfileFormatError) as excinfo:
                view.refresh()
            message = str(excinfo.value)
            assert "p.cctb" in message and "refresh" in message
        finally:
            view.close()

    def test_ingest_of_a_directory_is_an_early_value_error(self, tmp_path):
        store = ProfileStore(tmp_path / "store")
        victim = tmp_path / "not_a_profile"
        victim.mkdir()
        with pytest.raises(ValueError, match="directory"):
            store.ingest(str(victim))
        assert "not_a_profile" in _raised_message(store, str(victim))

    def test_ingest_of_a_missing_path_is_an_early_value_error(self, tmp_path):
        store = ProfileStore(tmp_path / "store")
        with pytest.raises(ValueError, match="no such file"):
            store.ingest(str(tmp_path / "nope.cctb"))

    @pytest.mark.skipif(os.geteuid() == 0,
                        reason="root bypasses permission checks")
    def test_ingest_of_an_unreadable_file_is_an_early_value_error(
            self, tmp_path):
        victim = tmp_path / "locked.cctb"
        victim.write_bytes(b"data")
        victim.chmod(0)
        store = ProfileStore(tmp_path / "store")
        try:
            with pytest.raises(ValueError, match="not readable"):
                store.ingest(str(victim))
        finally:
            victim.chmod(0o644)


def _raised_message(store: ProfileStore, source: str) -> str:
    try:
        store.ingest(source)
    except ValueError as error:
        return str(error)
    raise AssertionError("ingest unexpectedly succeeded")


# ---------------------------------------------------------------------------
# Quarantine lifecycle and scrub
# ---------------------------------------------------------------------------

class TestQuarantine:
    def _store_with_runs(self, tmp_path, count=2):
        store = ProfileStore(tmp_path / "store")
        records = []
        for index in range(count):
            observations = [(op, kernel, value + index / 100)
                            for op, kernel, value in OBSERVATIONS]
            records.append(store.ingest(
                make_database("unet", observations)))
        return store, records

    def test_quarantined_runs_are_excluded_from_queries(self, tmp_path):
        store, (first, second) = self._store_with_runs(tmp_path)
        store.quarantine(first.run_id, "operator says so")
        assert [r.run_id for r in store.find()] == [second.run_id]
        assert [r.run_id for r in store.find(include_quarantined=True)] == \
            [first.run_id, second.run_id]
        assert store.latest(workload="unet").run_id == second.run_id
        assert [r.run_id for r in store.quarantined()] == [first.run_id]
        record = store.get(first.run_id)
        assert record.status == STATUS_QUARANTINED
        assert record.quarantine_reason == "operator says so"
        assert record.quarantined_at > 0

        store.restore(first.run_id)
        assert store.get(first.run_id).status == STATUS_OK
        assert len(store.find()) == 2

    def test_quarantine_state_round_trips_through_the_catalog(self, tmp_path):
        store, (first, _second) = self._store_with_runs(tmp_path)
        store.quarantine(first.run_id, "bit rot on the nfs volume")
        reloaded = ProfileStore(tmp_path / "store")
        record = reloaded.get(first.run_id)
        assert not record.healthy
        assert record.quarantine_reason == "bit rot on the nfs volume"

    def test_scrub_quarantines_corrupt_and_restores_repaired(self, tmp_path):
        store, (first, second) = self._store_with_runs(tmp_path)
        path = store.profile_path(first.run_id)
        with open(path, "rb") as handle:
            pristine = handle.read()

        assert store.scrub().clean
        _corrupt_column_block(store, first.run_id)
        report = store.scrub()
        assert report.checked == 2
        assert [run_id for run_id, _ in report.quarantined] == [first.run_id]
        assert "CRC-32" in report.quarantined[0][1]
        assert report.healthy == [second.run_id]
        assert not store.get(first.run_id).healthy

        # Still bad on the next pass: reported, not double-quarantined.
        again = store.scrub()
        assert again.still_quarantined == [first.run_id]
        assert not again.quarantined

        # The operator restores the file from a replica; scrub lifts it.
        with open(path, "wb") as handle:
            handle.write(pristine)
        repaired = store.scrub()
        assert repaired.restored == [first.run_id]
        assert repaired.clean
        assert store.get(first.run_id).healthy

    def test_verify_run_names_a_missing_file(self, tmp_path):
        store, (first, _second) = self._store_with_runs(tmp_path)
        os.unlink(store.profile_path(first.run_id))
        message = store.verify_run(first.run_id)
        assert message is not None and "missing" in message

    def test_verify_run_catches_rot_outside_checksummed_blocks(self, tmp_path):
        """A flip in the TOC region evades block CRCs; the content-address
        digest still catches it."""
        store, (first, _second) = self._store_with_runs(tmp_path)
        path = store.profile_path(first.run_id)
        with open(path, "rb") as handle:
            handle.seek(-24, os.SEEK_END)
            toc_offset = struct.unpack("<QQ8s", handle.read(24))[0]
        # Flip inside the TOC's JSON body: no block CRC covers it, but
        # either the TOC stops parsing (a named format error) or the
        # content-address digest check fires — never a silent pass.
        flip_bit(path, toc_offset + 3)
        message = store.verify_run(first.run_id)
        assert message is not None


# ---------------------------------------------------------------------------
# Fleet aggregation over a degraded store
# ---------------------------------------------------------------------------

class TestDegradedAggregation:
    def _store_with_runs(self, tmp_path, count=3):
        store = ProfileStore(tmp_path / "store")
        records = []
        for index in range(count):
            observations = [(op, kernel, value * (index + 1))
                            for op, kernel, value in OBSERVATIONS]
            records.append(store.ingest(make_database("unet", observations)))
        return store, records

    def test_catalog_quarantined_runs_are_skipped(self, tmp_path):
        store, records = self._store_with_runs(tmp_path)
        store.quarantine(records[0].run_id, "scrub said so")
        expected = sum(record.metrics[M.METRIC_GPU_TIME]
                       for record in records[1:])
        with store.aggregator() as aggregator:
            assert aggregator.run_count == 2
            assert aggregator.total_metric(M.METRIC_GPU_TIME) == \
                pytest.approx(expected)
            report = aggregator.degradation_report()
        assert report["requested_runs"] == 2  # find() already filtered it
        assert report["degraded"] is False

        # Naming the quarantined run explicitly degrades, not resurrects.
        with store.aggregator(
                run_ids=[record.run_id for record in records]) as aggregator:
            assert aggregator.run_count == 2
            assert aggregator.is_degraded
            report = aggregator.degradation_report()
        assert report["requested_runs"] == 3
        assert report["healthy_runs"] == 2
        entry = report["degraded_runs"][0]
        assert entry["run_id"] == records[0].run_id
        assert entry["stage"] == "catalog"
        assert "scrub said so" in entry["reason"]

    def test_unopenable_run_degrades_at_open_and_is_quarantined(
            self, tmp_path):
        store, records = self._store_with_runs(tmp_path)
        truncate_file(store.profile_path(records[1].run_id), 4)
        # use_index=False: an index-served run never opens its profile, so
        # this test pins the open-time fallback path explicitly.
        with store.aggregator(use_index=False) as aggregator:
            assert aggregator.run_count == 2
            assert aggregator.degraded_run_ids == [records[1].run_id]
            report = aggregator.degradation_report()
        assert report["degraded_runs"][0]["stage"] == "open"
        assert not store.get(records[1].run_id).healthy

    def test_mid_query_corruption_demotes_and_quarantines(self, tmp_path):
        store, records = self._store_with_runs(tmp_path)
        # Rot one run *after* the aggregator would have opened it fine:
        # the TOC is intact, only a column block fails its CRC on touch.
        _corrupt_column_block(store, records[1].run_id)
        expected = sum(records[index].metrics[M.METRIC_GPU_TIME]
                       for index in (0, 2))
        # use_index=False: indexed queries never touch column bytes, so rot
        # that postdates ingest only surfaces on the lazy path (or via scrub).
        with store.aggregator(use_index=False) as aggregator:
            assert aggregator.run_count == 3  # opened fine, rot is lazy
            total = aggregator.total_metric(M.METRIC_GPU_TIME)
            assert total == pytest.approx(expected)
            assert aggregator.run_count == 2
            assert aggregator.is_degraded
            report = aggregator.degradation_report()
            # Later queries answer from the healthy rest, consistently.
            per_run = aggregator.per_run_totals(M.METRIC_GPU_TIME)
            assert set(per_run) == {records[0].run_id, records[2].run_id}
            merged = aggregator.merged_tree()
            assert merged.total_metric(M.METRIC_GPU_TIME) == \
                pytest.approx(expected)
        entry = report["degraded_runs"][0]
        assert entry["run_id"] == records[1].run_id
        assert entry["stage"] == "query"
        assert "CRC-32" in entry["reason"]
        # The demotion wrote back: every later reader skips the run too.
        assert not store.get(records[1].run_id).healthy

    def test_summary_rebuild_demotes_rot_in_an_unqueried_column(
            self, tmp_path):
        """A run without a stored summary rebuilds it from every column
        block on its first query, as ingest would — so rot in a column the
        query never asks about demotes the run there too."""
        store, records = self._store_with_runs(tmp_path)
        path = store.profile_path(records[1].run_id)
        flip_bit(path, _column_block_offset(path, M.METRIC_KERNEL_COUNT) + 3)
        expected = sum(records[index].metrics[M.METRIC_GPU_TIME]
                       for index in (0, 2))
        with store.aggregator(use_index=False) as aggregator:
            assert aggregator.run_count == 3  # opened fine, rot is lazy
            assert aggregator.total_metric(M.METRIC_GPU_TIME) == expected
            assert aggregator.run_count == 2
            report = aggregator.degradation_report()
        (entry,) = report["degraded_runs"]
        assert entry["run_id"] == records[1].run_id
        assert entry["stage"] == "query"
        assert "CRC-32" in entry["reason"]
        assert M.METRIC_KERNEL_COUNT in entry["reason"]
        assert not store.get(records[1].run_id).healthy

    def test_degradation_surfaces_as_analyzer_issues(self, tmp_path):
        store, records = self._store_with_runs(tmp_path)
        store.quarantine(records[0].run_id, "checksum mismatch in shard 1")
        issues = quarantine_issues(store)
        assert len(issues) == 1
        assert issues[0].analysis == ANALYSIS_STORE_DURABILITY
        assert issues[0].severity == Severity.WARNING
        assert records[0].run_id in issues[0].message
        assert "checksum mismatch" in issues[0].message

        with store.aggregator(
                run_ids=[record.run_id for record in records]) as aggregator:
            report = aggregator.degradation_report()
        degraded = degradation_issues(report)
        assert len(degraded) == 1 and "catalog" in degraded[0].message

        analysis_report = attach_issues(AnalysisReport(), issues + degraded)
        assert len(analysis_report.issues) == 2
        assert len(analysis_report.by_analysis(ANALYSIS_STORE_DURABILITY)) == 2

    def test_clean_reports_file_no_issues(self, tmp_path):
        store, records = self._store_with_runs(tmp_path)
        assert quarantine_issues(store) == []
        with store.aggregator() as aggregator:
            assert degradation_issues(aggregator.degradation_report()) == []


# ---------------------------------------------------------------------------
# Crash-safe concurrent ingest (advisory catalog lock)
# ---------------------------------------------------------------------------

class TestConcurrentIngest:
    def test_concurrent_ingests_all_land_in_the_catalog(self, tmp_path):
        """Satellite: N handles ingesting distinct runs concurrently must all
        land — the read-merge-write under the lock closes the lost-update
        window two unsynchronized writers would race into."""
        root = str(tmp_path / "store")
        ProfileStore(root)  # create the layout once
        workers = 8
        errors = []
        barrier = threading.Barrier(workers)

        def ingest(index: int) -> None:
            try:
                database = make_database(
                    f"workload-{index}",
                    [(op, kernel, value + index)
                     for op, kernel, value in OBSERVATIONS])
                barrier.wait()
                ProfileStore(root).ingest(database)
            except Exception as error:  # pragma: no cover - failure detail
                errors.append(error)

        threads = [threading.Thread(target=ingest, args=(index,))
                   for index in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []

        merged = ProfileStore(root)
        assert len(merged) == workers
        assert sorted(record.workload for record in merged.runs()) == \
            sorted(f"workload-{index}" for index in range(workers))
        assert not os.path.exists(merged.lock_path)  # released

    def test_lock_wait_is_bounded(self, tmp_path):
        lock_path = str(tmp_path / "catalog.lock")
        with open(lock_path, "w") as handle:
            handle.write("12345\n")  # a live-looking holder
        with pytest.raises(CatalogLockTimeout, match="catalog.lock"):
            _CatalogLock(lock_path, timeout_s=0.05, stale_s=60.0).acquire()

    def test_stale_locks_are_broken(self, tmp_path):
        lock_path = str(tmp_path / "catalog.lock")
        with open(lock_path, "w") as handle:
            handle.write("12345\n")
        stale = os.path.getmtime(lock_path) - 120
        os.utime(lock_path, (stale, stale))
        lock = _CatalogLock(lock_path, timeout_s=1.0, stale_s=30.0)
        lock.acquire()  # breaks the abandoned lock instead of timing out
        lock.release()
        assert not os.path.exists(lock_path)

    _ACQUIRE = textwrap.dedent("""\
        import errno
        import os
        import sys

        from repro.fleet.store import CatalogLockTimeout, _CatalogLock

        lock_path = sys.argv[1]
        if sys.argv[2] == "refuse-unlink":
            # Another user's lock in a shared sticky directory; a root
            # process may remove anything, so the refusal is simulated.
            real_unlink = os.unlink

            def unlink(path, *args, **kwargs):
                if path == lock_path:
                    raise PermissionError(errno.EPERM, "not permitted", path)
                return real_unlink(path, *args, **kwargs)

            os.unlink = unlink
        try:
            _CatalogLock(lock_path, timeout_s=0.2, stale_s=30.0).acquire()
        except CatalogLockTimeout as error:
            print("timed out:", error)
        """)

    def _acquire_in_child(self, lock_path, mode):
        """Acquire in a child process, killed after 10 s, so a lock wait
        that never ends fails the test instead of hanging it."""
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        try:
            result = subprocess.run(
                [sys.executable, "-c", self._ACQUIRE, lock_path, mode],
                capture_output=True, text=True, timeout=10, env=env)
        except subprocess.TimeoutExpired:
            pytest.fail("catalog lock acquire spun past its timeout")
        assert result.returncode == 0, result.stderr
        return result.stdout

    def test_unremovable_stale_lock_times_out(self, tmp_path):
        lock_path = str(tmp_path / "catalog.lock")
        with open(lock_path, "w") as handle:
            handle.write("12345\n")
        stale = os.path.getmtime(lock_path) - 120
        os.utime(lock_path, (stale, stale))
        out = self._acquire_in_child(lock_path, "refuse-unlink")
        assert out.startswith("timed out:") and "catalog.lock" in out
        assert os.path.exists(lock_path)

    def test_unreadable_lock_path_times_out(self, tmp_path):
        lock_path = str(tmp_path / "catalog.lock")
        os.symlink(str(tmp_path / "missing"), lock_path)  # dangling
        out = self._acquire_in_child(lock_path, "plain")
        assert out.startswith("timed out:") and "unreadable" in out

    def test_crashed_peer_temp_files_are_ignored(self, tmp_path):
        root = tmp_path / "store"
        store = ProfileStore(root)
        # A crashed peer's half-written catalog temp file sits around.
        (root / "catalog.json.99999.tmp").write_text("{not json")
        record = store.ingest(make_database("unet", OBSERVATIONS))
        reloaded = ProfileStore(root)
        assert [r.run_id for r in reloaded.runs()] == [record.run_id]


# ---------------------------------------------------------------------------
# Runner integration: quarantined runs surface in experiment results
# ---------------------------------------------------------------------------

class TestRunnerIntegration:
    def test_quarantined_runs_surface_in_run_results(self, tmp_path):
        from repro.experiments.runner import (
            PROFILER_DEEPCONTEXT,
            run_named_workload,
        )

        store_path = str(tmp_path / "fleet")
        first = run_named_workload("gnn", profiler=PROFILER_DEEPCONTEXT,
                                   iterations=1, store_path=store_path)
        assert first.extra["quarantined_runs"] == 0.0

        store = ProfileStore(store_path)
        store.quarantine(first.store_run_id, "scrub: CRC-32 failure")
        second = run_named_workload("gnn", profiler=PROFILER_DEEPCONTEXT,
                                    iterations=2, store_path=store_path)
        assert second.extra["quarantined_runs"] == 1.0
        durability = second.report.by_analysis(ANALYSIS_STORE_DURABILITY)
        assert durability and first.store_run_id in durability[0].message
