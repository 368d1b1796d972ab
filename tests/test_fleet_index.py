"""Tests for the fleet query index (PR 8).

Pins the index subsystem's contracts:

* **lifecycle**: ingest writes the global name dictionary and a per-run
  columnar summary; quarantine invalidates a run's summary and restore
  rebuilds it; ``reindex`` backfills pre-index stores; ``scrub`` heals a
  rotten index; re-ingesting known bytes heals a missing summary;
* **equality**: a hypothesis property that indexed fleet queries are
  *bit-for-bit* equal to ``use_index=False`` answers, which rebuild every
  summary from profile bytes — totals, per-name sums and full per-name
  Welford states — including after quarantine + reindex + restore, and
  Welford-consistent with the eager merged tree;
* **fallback**: a hand-corrupted summary, a stale digest, a schema-version
  bump, a rotten name dictionary or an unresolvable name id all make the
  run rebuild its summary from its bytes, with a
  ``degradation_report()["index"]`` problem entry — same answers, never a
  crash;
* **dictionary loss**: a rotten or deleted name dictionary never lets an
  older summary resolve to the names a later ingest interns;
* **staleness and passes**: a second ingest is reflected by the next
  aggregator; every query projects the runs' summaries afresh (one pass,
  two for ``top_kernels``), and a fallback run decodes its blocks once;
* **the satellites**: the catalog generation counter behind ``find`` /
  ``latest``, parallel fallback decode parity, and the index-served
  ``name_drift`` scan;
* **locked writes**: every catalog and index file a store's lifecycle
  writes is written while the catalog lock is held, and
  ``_CatalogLock.write_json`` refuses to write without it.
"""

import builtins
import json
import os
import shutil
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ProfileDatabase, ProfileMetadata
from repro.core import metrics as M
from repro.core.cct import ShardedCallingContextTree
from repro.dlmonitor.callpath import (
    CallPath,
    FrameKind,
    framework_frame,
    gpu_kernel_frame,
    python_frame,
    root_frame,
    thread_frame,
)
from repro.fleet import (
    INDEX_VERSION,
    STATUS_CHANGED,
    STATUS_NEW,
    STATUS_VANISHED,
    FleetIndex,
    ProfileStore,
    name_drift,
)
from repro.fleet.store import _CatalogLock
from repro.obs import TELEMETRY


def _path(workload: str, op: str, kernel: str, line: int = 10) -> CallPath:
    return CallPath.of([
        root_frame(workload), thread_frame("main", 1),
        python_frame("train.py", line, "train_step"),
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


BASE_OBSERVATIONS = [("conv", "k_conv", 0.010), ("conv", "k_conv", 0.012),
                     ("linear", "k_gemm", 0.020), ("linear", "k_gemm", 0.021),
                     ("norm", "k_norm", 0.002), ("norm", "k_norm", 0.002)]


def make_store(tmp_path, runs=3):
    store = ProfileStore(tmp_path / "store")
    records = []
    for index in range(runs):
        observations = [(op, kernel, value * (index + 1))
                        for op, kernel, value in BASE_OBSERVATIONS]
        records.append(store.ingest(make_database(f"wl-{index}",
                                                  observations)))
    return store, records


def query_snapshot(aggregator):
    """Every lazily-answerable query result, for exact == comparisons."""
    return {
        "total": aggregator.total_metric(M.METRIC_GPU_TIME),
        "per_run": aggregator.per_run_totals(M.METRIC_GPU_TIME),
        "by_name": aggregator.aggregate_by_name(metric=M.METRIC_GPU_TIME),
        "kernels": aggregator.aggregate_by_name(kind=FrameKind.GPU_KERNEL,
                                                metric=M.METRIC_GPU_TIME),
        "states": aggregator.name_states(metric=M.METRIC_GPU_TIME),
        "kernel_states": aggregator.name_states(kind=FrameKind.GPU_KERNEL,
                                                metric=M.METRIC_GPU_TIME),
        "top": aggregator.top_kernels(k=3, metric=M.METRIC_GPU_TIME),
        "counts": aggregator.total_metric(M.METRIC_KERNEL_COUNT),
    }


# ---------------------------------------------------------------------------
# Lifecycle: ingest writes the index; quarantine/restore/reindex/scrub
# ---------------------------------------------------------------------------

class TestIndexLifecycle:
    def test_ingest_writes_dictionary_and_summary(self, tmp_path):
        store, records = make_store(tmp_path, runs=2)
        index = store.fleet_index
        assert sorted(index.run_ids()) == sorted(r.run_id for r in records)
        names = index.names()
        assert names is not None
        # Only names carrying metric values are interned (exclusive
        # attribution lands on the kernel leaves in this fixture).
        for name in ("k_conv", "k_gemm", "k_norm"):
            assert name in names
        with open(index.summary_path(records[0].run_id),
                  encoding="utf-8") as handle:
            raw = json.load(handle)
        assert raw["version"] == INDEX_VERSION
        assert raw["digest"] == records[0].digest
        assert set(raw["metrics"]) == {M.METRIC_GPU_TIME,
                                       M.METRIC_KERNEL_COUNT}

    def test_indexed_queries_open_no_views(self, tmp_path):
        store, records = make_store(tmp_path)
        with store.aggregator() as aggregator:
            snapshot = query_snapshot(aggregator)
            assert sorted(aggregator.indexed_run_ids) == sorted(
                r.run_id for r in records)
            assert aggregator.opened_run_ids == []
            assert aggregator.hydrated_run_ids == []
            report = aggregator.degradation_report()
        assert report["index"] == {"indexed_runs": 3, "fallback_runs": 0,
                                   "problems": []}
        assert snapshot["total"] > 0.0

    def test_name_ids_are_append_only_across_ingests(self, tmp_path):
        store, _records = make_store(tmp_path, runs=1)
        before = store.fleet_index.names()
        store.ingest(make_database("other", [("softmax", "k_soft", 0.5)]))
        after = store.fleet_index.names()
        assert after[:len(before)] == before  # interned ids never move
        assert "k_soft" in after

    def test_quarantine_invalidates_restore_rebuilds(self, tmp_path):
        store, records = make_store(tmp_path)
        victim = records[1].run_id
        store.quarantine(victim, "operator says so")
        assert victim not in store.fleet_index.run_ids()
        with store.aggregator() as aggregator:
            assert victim not in aggregator.run_ids()
        store.restore(victim)
        assert victim in store.fleet_index.run_ids()
        assert store.fleet_index.is_current(store.get(victim))

    def test_remove_drops_summary(self, tmp_path):
        store, records = make_store(tmp_path)
        store.remove(records[0].run_id)
        assert records[0].run_id not in store.fleet_index.run_ids()

    def test_reindex_backfills_preindex_store(self, tmp_path):
        store, records = make_store(tmp_path)
        shutil.rmtree(store.fleet_index.index_dir)
        # A store that predates the index answers lazily, silently (a
        # missing summary is not a problem entry — old stores keep working).
        reopened = ProfileStore(tmp_path / "store")
        with reopened.aggregator() as aggregator:
            lazy = query_snapshot(aggregator)
            assert aggregator.indexed_run_ids == []
            assert aggregator.degradation_report()["index"]["problems"] == []
        rebuilt = reopened.reindex()
        assert sorted(rebuilt) == sorted(r.run_id for r in records)
        with reopened.aggregator() as aggregator:
            assert query_snapshot(aggregator) == lazy
            assert len(aggregator.indexed_run_ids) == 3

    def test_scrub_heals_a_rotten_index(self, tmp_path):
        store, records = make_store(tmp_path)
        os.unlink(store.fleet_index.summary_path(records[2].run_id))
        report = store.scrub()
        assert report.clean
        assert store.fleet_index.is_current(records[2])

    def test_reingest_of_known_bytes_heals_missing_summary(self, tmp_path):
        store, _records = make_store(tmp_path, runs=1)
        database = make_database("wl-extra", BASE_OBSERVATIONS)
        record = store.ingest(database)
        os.unlink(store.fleet_index.summary_path(record.run_id))
        again = store.ingest(make_database("wl-extra", BASE_OBSERVATIONS))
        assert again.run_id == record.run_id  # content-addressed dedup
        assert store.fleet_index.is_current(record)

    def test_second_ingest_reflected_by_next_aggregator(self, tmp_path):
        store, _records = make_store(tmp_path, runs=2)
        with store.aggregator() as aggregator:
            before = aggregator.total_metric(M.METRIC_GPU_TIME)
        extra = store.ingest(make_database("wl-late", BASE_OBSERVATIONS))
        with store.aggregator() as aggregator:
            assert extra.run_id in aggregator.indexed_run_ids
            after = aggregator.total_metric(M.METRIC_GPU_TIME)
        assert after == before + extra.metrics[M.METRIC_GPU_TIME]


# ---------------------------------------------------------------------------
# The equality property: indexed == lazy, bit for bit
# ---------------------------------------------------------------------------

run_observations = st.lists(
    st.tuples(st.sampled_from(["conv", "linear", "norm"]),
              st.sampled_from(["k0", "k1", "k2", "k3"]),
              st.floats(min_value=0.0, max_value=10.0, allow_nan=False)),
    min_size=1, max_size=10)


class TestIndexedEquality:
    @settings(max_examples=15, deadline=None)
    @given(st.lists(run_observations, min_size=1, max_size=4))
    def test_indexed_queries_bitwise_equal_lazy_and_merge(self, runs):
        """Index rows replay the lazy path's exact accumulation sequence, so
        every indexed answer — totals, per-name sums, full Welford states —
        is ``==`` the lazy-view answer (not approx), before and after a
        quarantine + reindex + restore cycle, and Welford-consistent with
        the eager fleet-merged tree."""
        with tempfile.TemporaryDirectory() as root:
            store = ProfileStore(root)
            run_ids = []
            for index, observations in enumerate(runs):
                record = store.ingest(
                    make_database(f"run-{index}", observations))
                if record.run_id not in run_ids:
                    run_ids.append(record.run_id)

            def snapshots():
                with store.aggregator(run_ids=run_ids) as indexed, \
                        store.aggregator(run_ids=run_ids,
                                         use_index=False) as lazy:
                    assert len(indexed.indexed_run_ids) == len(run_ids)
                    assert indexed.opened_run_ids == []
                    return query_snapshot(indexed), query_snapshot(lazy)

            indexed, lazy = snapshots()
            assert indexed == lazy  # bit-for-bit, every query shape

            # The eager gear: the fleet CCT's rollup groups additions by
            # context rather than by run, so it is Welford-equal (same
            # counts, same values up to float association), not bit-equal.
            with store.aggregator(run_ids=run_ids) as aggregator:
                merged = aggregator.merged_tree()
                eager = merged.aggregate_by_name(kind=None,
                                                 metric=M.METRIC_GPU_TIME)
            assert set(eager) >= set(indexed["by_name"])
            for name, value in indexed["by_name"].items():
                assert value == pytest.approx(eager[name], abs=1e-12)

            # Quarantine + reindex + restore must not change a single bit.
            victim = run_ids[0]
            store.quarantine(victim, "cycle test")
            store.reindex()
            store.restore(victim)
            assert snapshots() == (indexed, lazy)


# ---------------------------------------------------------------------------
# Fallback: a rotten index costs the fast path, never a query
# ---------------------------------------------------------------------------

class TestIndexFallback:
    def corrupt(self, store, record, mutate):
        path = store.fleet_index.summary_path(record.run_id)
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        payload = mutate(data)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(payload if isinstance(payload, str)
                         else json.dumps(payload))

    def assert_falls_back(self, store, records, victim_index, reason_part):
        with store.aggregator(use_index=False) as lazy:
            expected = query_snapshot(lazy)
        with store.aggregator() as aggregator:
            assert query_snapshot(aggregator) == expected
            victim = records[victim_index].run_id
            assert victim not in aggregator.indexed_run_ids
            assert victim in aggregator.opened_run_ids
            report = aggregator.degradation_report()
        assert not report["degraded"]  # fallback is not degradation
        assert report["index"]["fallback_runs"] >= 1
        (problem,) = [entry for entry in report["index"]["problems"]
                      if entry["run_id"] == victim]
        assert reason_part in problem["reason"]

    def test_unparseable_summary_falls_back(self, tmp_path):
        store, records = make_store(tmp_path)
        self.corrupt(store, records[1], lambda data: "{not json")
        self.assert_falls_back(store, records, 1, "unreadable")

    def test_schema_version_mismatch_falls_back(self, tmp_path):
        store, records = make_store(tmp_path)
        self.corrupt(store, records[0],
                     lambda data: {**data, "version": INDEX_VERSION + 1})
        self.assert_falls_back(store, records, 0, "schema version")

    def test_stale_digest_falls_back(self, tmp_path):
        store, records = make_store(tmp_path)
        self.corrupt(store, records[2],
                     lambda data: {**data, "digest": "0" * 64})
        self.assert_falls_back(store, records, 2, "stale")

    def test_unresolvable_name_id_falls_back(self, tmp_path):
        store, records = make_store(tmp_path)

        def poison(data):
            metric_rows = data["metrics"][M.METRIC_GPU_TIME]
            metric_rows[0][0] = 10_000
            return data

        self.corrupt(store, records[1], poison)
        self.assert_falls_back(store, records, 1, "name id")

    def test_rotten_name_dictionary_fails_every_summary_softly(self, tmp_path):
        store, records = make_store(tmp_path)
        with open(store.fleet_index.names_path, "w",
                  encoding="utf-8") as handle:
            handle.write("[broken")
        reopened = ProfileStore(tmp_path / "store")
        with reopened.aggregator(use_index=False) as lazy:
            expected = query_snapshot(lazy)
        with reopened.aggregator() as aggregator:
            assert query_snapshot(aggregator) == expected
            assert aggregator.indexed_run_ids == []
            report = aggregator.degradation_report()
        assert len(report["index"]["problems"]) == len(records)
        assert "dictionary" in report["index"]["problems"][0]["reason"]

    def test_use_index_false_forces_lazy_views(self, tmp_path):
        store, records = make_store(tmp_path)
        with store.aggregator(use_index=False) as aggregator:
            assert aggregator.indexed_run_ids == []
            assert sorted(aggregator.opened_run_ids) == sorted(
                record.run_id for record in records)
            report = aggregator.degradation_report()
        assert report["index"]["indexed_runs"] == 0
        assert report["index"]["fallback_runs"] == len(records)


class TestNameDictionaryLoss:
    """A lost dictionary restarts ids at zero, so the summaries that
    referenced it must go: otherwise their ids stay in range and silently
    resolve to whatever names the next ingest interns."""

    FIRST = [("conv", "k_conv", 0.010), ("linear", "k_gemm", 0.020)]
    SECOND = [("attn", "k_attn", 0.010), ("norm", "k_norm", 0.020)]

    def assert_old_runs_keep_their_names(self, tmp_path, lose, heal):
        store = ProfileStore(tmp_path / "store")
        first = store.ingest(make_database("wl-first", self.FIRST))
        lose(store.fleet_index.names_path)
        second = store.ingest(make_database("wl-second", self.SECOND))
        reopened = ProfileStore(tmp_path / "store")

        def kernels(run_ids):
            with reopened.aggregator(run_ids=run_ids) as aggregator:
                return (aggregator.aggregate_by_name(kind=FrameKind.GPU_KERNEL),
                        aggregator.indexed_run_ids,
                        aggregator.degradation_report()["index"]["problems"])

        # The first run lost its summary and rebuilds it from its bytes.
        assert kernels([first.run_id]) == (
            {"k_conv": 0.010, "k_gemm": 0.020}, [], [])
        assert kernels([second.run_id]) == (
            {"k_attn": 0.010, "k_norm": 0.020}, [second.run_id], [])
        heal(reopened)
        assert kernels([first.run_id]) == (
            {"k_conv": 0.010, "k_gemm": 0.020}, [first.run_id], [])

    def test_rotten_dictionary_does_not_rename_indexed_runs(self, tmp_path):
        def rot(path):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("[broken")

        self.assert_old_runs_keep_their_names(tmp_path, rot,
                                              lambda store: store.reindex())

    def test_deleted_dictionary_does_not_rename_indexed_runs(self, tmp_path):
        self.assert_old_runs_keep_their_names(tmp_path, os.unlink,
                                              lambda store: store.scrub())


# ---------------------------------------------------------------------------
# Satellites: memoized passes, catalog generation, parallel decode, drift
# ---------------------------------------------------------------------------

class TestQueryPasses:
    def test_each_query_shape_counts_its_passes(self, tmp_path):
        """Every query projects the runs' summaries afresh: one pass per
        summary-row query and two for ``top_kernels``, repeats included,
        with equal answers each time."""
        store, _records = make_store(tmp_path)
        shapes = [
            (lambda agg: agg.total_metric(M.METRIC_GPU_TIME), 1),
            (lambda agg: agg.per_run_totals(M.METRIC_GPU_TIME), 1),
            (lambda agg: agg.aggregate_by_name(kind=FrameKind.GPU_KERNEL), 1),
            (lambda agg: agg.name_states(kind=FrameKind.GPU_KERNEL), 1),
            (lambda agg: agg.top_kernels(k=1), 2),
            (lambda agg: agg.top_kernels(k=10), 2),
        ]
        for use_index in (True, False):
            with store.aggregator(use_index=use_index) as aggregator:
                for query, passes in shapes:
                    before = aggregator.aggregate_passes
                    first = query(aggregator)
                    assert aggregator.aggregate_passes == before + passes
                    assert query(aggregator) == first
                    assert aggregator.aggregate_passes == before + 2 * passes

    def test_fallback_runs_read_their_blocks_once(self, tmp_path):
        """A run without an index summary builds it on its first pass and
        keeps it: no later query decodes a block again."""
        store, _records = make_store(tmp_path)
        TELEMETRY.reset()
        TELEMETRY.enable()
        try:
            with store.aggregator(use_index=False) as aggregator:
                total = aggregator.total_metric(M.METRIC_GPU_TIME)
                decoded = TELEMETRY.counter_value("storage.blocks_decoded")
                assert decoded > 0
                per_run = aggregator.per_run_totals(M.METRIC_GPU_TIME)
                aggregator.top_kernels(k=10)
                aggregator.name_states()
                assert TELEMETRY.counter_value(
                    "storage.blocks_decoded") == decoded
                assert sum(per_run.values()) == total
                assert aggregator.hydrated_run_ids == []
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()


class TestCatalogGeneration:
    def test_mutations_bump_the_generation(self, tmp_path):
        store, records = make_store(tmp_path, runs=1)
        generation = store.catalog_generation
        record = store.ingest(make_database("wl-new", BASE_OBSERVATIONS))
        assert store.catalog_generation > generation
        generation = store.catalog_generation
        store.quarantine(record.run_id, "test")
        assert store.catalog_generation > generation
        generation = store.catalog_generation
        store.restore(record.run_id)
        assert store.catalog_generation > generation

    def test_find_latest_reflect_mutations_through_the_cache(self, tmp_path):
        store, records = make_store(tmp_path, runs=1)
        assert [r.run_id for r in store.find()] == [records[0].run_id]
        late = store.ingest(make_database("wl-late", BASE_OBSERVATIONS))
        assert store.latest().run_id == late.run_id
        assert len(store.find()) == 2
        store.quarantine(late.run_id, "test")
        assert [r.run_id for r in store.find()] == [records[0].run_id]

    def test_query_then_ingest_persists_both_runs(self, tmp_path):
        """Regression: a cached ordered list must never be serialized into
        the catalog after an ingest mutated the record map."""
        store = ProfileStore(tmp_path / "store")
        assert store.find() == []  # warms the ordered cache while empty
        record = store.ingest(make_database("wl", BASE_OBSERVATIONS))
        reopened = ProfileStore(tmp_path / "store")
        assert reopened.get(record.run_id).run_id == record.run_id


class TestNameDrift:
    def test_indexed_drift_opens_no_views_and_matches_lazy(self, tmp_path):
        store = ProfileStore(tmp_path / "store")
        base_rec = store.ingest(make_database("base", [
            ("conv", "k_conv", 0.010), ("linear", "k_gemm", 0.020)]))
        cand_rec = store.ingest(make_database("cand", [
            ("conv", "k_conv", 0.015), ("norm", "k_norm", 0.002)]))

        def drift(use_index):
            with store.aggregator(run_ids=[base_rec.run_id],
                                  use_index=use_index) as base, \
                    store.aggregator(run_ids=[cand_rec.run_id],
                                     use_index=use_index) as cand:
                deltas = name_drift(base, cand, kind=FrameKind.GPU_KERNEL)
                if use_index:
                    assert base.opened_run_ids == []
                    assert cand.opened_run_ids == []
                return [(d.name, d.status, d.delta_sum, d.z_score)
                        for d in deltas]

        indexed = drift(use_index=True)
        assert indexed == drift(use_index=False)
        by_name = {name: (status, delta) for name, status, delta, _z
                   in indexed}
        assert by_name["k_conv"][0] == STATUS_CHANGED
        assert by_name["k_gemm"][0] == STATUS_VANISHED
        assert by_name["k_norm"][0] == STATUS_NEW
        assert by_name["k_conv"][1] == pytest.approx(0.005)

    def test_drift_ranks_biggest_mover_first(self, tmp_path):
        store = ProfileStore(tmp_path / "store")
        base = store.ingest(make_database("base", BASE_OBSERVATIONS))
        cand = store.ingest(make_database("cand", [
            (op, kernel, value * (3.0 if kernel == "k_gemm" else 1.0))
            for op, kernel, value in BASE_OBSERVATIONS]))
        with store.aggregator(run_ids=[base.run_id]) as b, \
                store.aggregator(run_ids=[cand.run_id]) as c:
            deltas = name_drift(b, c, kind=FrameKind.GPU_KERNEL)
        assert deltas[0].name == "k_gemm"
        assert deltas[0].delta_sum > 0


# ---------------------------------------------------------------------------
# Locked writes: every catalog and index file is written under the lock
# ---------------------------------------------------------------------------

class TestLockedWrites:
    def test_catalog_and_index_writes_hold_the_lock(self, tmp_path,
                                                    monkeypatch):
        store = ProfileStore(tmp_path / "store")
        real_open = builtins.open
        writes = []

        def spy(file, mode="r", *args, **kwargs):
            if any(flag in mode for flag in "wax+"):
                writes.append((os.path.relpath(os.fspath(file), store.root),
                               os.path.exists(store.lock_path)))
            return real_open(file, mode, *args, **kwargs)

        def observations(scale):
            return [(op, kernel, value * scale)
                    for op, kernel, value in BASE_OBSERVATIONS]

        monkeypatch.setattr(builtins, "open", spy)
        records = [store.ingest(make_database("wl", observations(scale)))
                   for scale in (1, 2, 3)]
        store.ingest(make_database("wl", observations(1)),
                     labels={"team": "perf"})
        store.quarantine(records[1].run_id, "operator says so")
        store.restore(records[1].run_id)
        store.reindex()
        assert store.scrub().clean
        assert len(store.prune(max_runs=1).pruned) == 2
        monkeypatch.undo()

        kinds = {"catalog.json": 0, os.path.join("index", "names.json"): 0,
                 os.path.join("index", "runs", ""): 0}
        for relative, locked in writes:
            for prefix in kinds:
                if relative.startswith(prefix):
                    assert locked, f"{relative} written without the lock"
                    kinds[prefix] += 1
        assert all(kinds.values()), kinds

    def test_write_json_refuses_without_the_lock(self, tmp_path):
        lock = _CatalogLock(str(tmp_path / "catalog.lock"))
        target = str(tmp_path / "catalog.json")
        with pytest.raises(RuntimeError, match="not held"):
            lock.write_json(target, {"runs": []})
        with lock:
            lock.write_json(target, {"runs": []}, indent=1)
        with pytest.raises(RuntimeError, match="not held"):
            lock.write_json(target, {"runs": ["late"]})
        with open(target, encoding="utf-8") as handle:
            assert json.load(handle) == {"runs": []}
        assert os.listdir(tmp_path) == ["catalog.json"]


# ---------------------------------------------------------------------------
# FleetIndex unit edges
# ---------------------------------------------------------------------------

class TestFleetIndexUnit:
    def test_missing_index_reads_as_none_not_error(self, tmp_path):
        index = FleetIndex(str(tmp_path), str(tmp_path / "lock"))
        assert index.names() is None
        assert index.run_ids() == []

    def test_remove_of_absent_summary_is_false(self, tmp_path):
        store, records = make_store(tmp_path, runs=1)
        assert store.fleet_index.remove("no-such-run") is False
        assert store.fleet_index.remove(records[0].run_id) is True
        assert store.fleet_index.remove(records[0].run_id) is False
