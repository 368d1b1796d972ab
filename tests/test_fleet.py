"""Tests for the fleet aggregation subsystem (store, aggregator, diff).

Pins the subsystem's contracts:

* the **store**: content-addressed ingest (dedup), catalog round-trips,
  identity validation (anonymous profiles rejected with ``ValueError``),
  ingest of whole files and of crashed/in-flight streamed checkpoint files
  (recovered at their last intact seal), lazy views, filters and ``latest``;
* the **aggregator**: hypothesis property that fleet-merging N single-run
  profiles through a real store is *bit-for-bit* Welford-equivalent to one
  profile containing all N runs' shards, and that the summary-row
  queries match the merged tree without hydrating any view;
* the **differential**: new / vanished / changed call paths, Welch
  significance and ranking, the self-diff-is-empty acceptance contract, and
  population diffs;
* the **wiring**: ``RegressionAnalysis`` report ordering, the differential
  flame-graph export, and the runner's ``store_path``/``baseline`` flow
  surfacing an injected slowdown as the top-ranked regression issue.
"""

import gc
import os
import tempfile
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from repro.analyzer import PerformanceAnalyzer, RegressionAnalysis, Severity
from repro.core import (ProfileDatabase, ProfileFormatError, ProfileMetadata,
                        recover_profile)
from repro.core import metrics as M
from repro.core.cct import CallingContextTree, ShardedCallingContextTree
from repro.dlmonitor.callpath import (
    CallPath,
    FrameKind,
    framework_frame,
    gpu_kernel_frame,
    python_frame,
    root_frame,
    thread_frame,
)
from repro.experiments.runner import PROFILER_DEEPCONTEXT, run_named_workload
from repro.fleet import (
    STATUS_CHANGED,
    STATUS_NEW,
    STATUS_VANISHED,
    DifferentialProfile,
    FleetAggregator,
    ProfileStore,
    config_hash,
    merge_population,
)
from repro.gui import (
    delta_color,
    differential_flamegraph,
    differential_to_dict,
)
from repro.workloads import create_workload


def _path(workload: str, op: str, kernel: str, line: int = 10) -> CallPath:
    return CallPath.of([
        root_frame(workload), thread_frame("main", 1),
        python_frame("train.py", line, "train_step"),
        framework_frame(f"aten::{op}"),
        gpu_kernel_frame(kernel),
    ])


def make_database(workload: str, observations, device: str = "A100",
                  config=None) -> ProfileDatabase:
    """A single-shard profile from ``(op, kernel, gpu_time)`` observations."""
    tree = ShardedCallingContextTree(workload)
    shard = tree.shard_for_tid(1, thread_name="main")
    for op, kernel, gpu_time in observations:
        node = shard.insert(_path(workload, op, kernel))
        shard.attribute_many(node, {M.METRIC_GPU_TIME: gpu_time,
                                    M.METRIC_KERNEL_COUNT: 1.0})
    metadata = ProfileMetadata(program=workload, workload=workload,
                               device=device, config=dict(config or {}))
    return ProfileDatabase(tree, metadata)


BASE_OBSERVATIONS = [("conv", "k_conv", 0.010), ("conv", "k_conv", 0.012),
                     ("linear", "k_gemm", 0.020), ("linear", "k_gemm", 0.021),
                     ("norm", "k_norm", 0.002), ("norm", "k_norm", 0.002)]


# ---------------------------------------------------------------------------
# ProfileStore
# ---------------------------------------------------------------------------

class TestProfileStore:
    def test_ingest_catalogs_run_metadata(self, tmp_path):
        store = ProfileStore(tmp_path)
        database = make_database("unet", BASE_OBSERVATIONS,
                                 config={"pc_sampling": False})
        record = store.ingest(database, labels={"ci": "nightly"})
        assert record.workload == "unet"
        assert record.device == "A100"
        assert record.run_id == record.digest[:16]
        assert record.shards == 1
        assert record.nodes > 0
        assert record.metrics[M.METRIC_GPU_TIME] == pytest.approx(
            database.total_gpu_time())
        assert record.config_hash == config_hash({"pc_sampling": False})
        assert record.labels == {"ci": "nightly"}
        assert os.path.exists(store.profile_path(record.run_id))

    def test_content_addressed_dedup(self, tmp_path):
        store = ProfileStore(tmp_path)
        first = store.ingest(make_database("unet", BASE_OBSERVATIONS))
        second = store.ingest(make_database("unet", BASE_OBSERVATIONS))
        assert first.run_id == second.run_id
        assert len(store) == 1
        # Re-ingesting known bytes folds new labels in instead of dropping
        # them, and the fold persists.
        store.ingest(make_database("unet", BASE_OBSERVATIONS),
                     labels={"ci": "nightly"})
        assert ProfileStore(tmp_path).get(first.run_id).labels == {
            "ci": "nightly"}

    def test_concurrent_handles_do_not_clobber_each_other(self, tmp_path):
        """Two handles on one store: saving through one must not drop runs
        the other catalogued since this handle loaded the catalog."""
        first_handle = ProfileStore(tmp_path)
        second_handle = ProfileStore(tmp_path)
        a = first_handle.ingest(make_database("unet", BASE_OBSERVATIONS))
        b = second_handle.ingest(make_database("vit", BASE_OBSERVATIONS[:2]))
        reopened = ProfileStore(tmp_path)
        assert set(reopened.run_ids()) == {a.run_id, b.run_id}
        # Ingest order is global (by ingest time), not per handle.
        assert reopened.run_ids() == [a.run_id, b.run_id]
        # A removal through one handle survives that handle's later saves.
        first_handle.remove(a.run_id)
        first_handle.ingest(make_database("gnn", BASE_OBSERVATIONS[:4]))
        assert a.run_id not in ProfileStore(tmp_path)

    def test_catalog_survives_reopen(self, tmp_path):
        store = ProfileStore(tmp_path)
        record = store.ingest(make_database("unet", BASE_OBSERVATIONS))
        reopened = ProfileStore(tmp_path)
        assert reopened.run_ids() == [record.run_id]
        again = reopened.get(record.run_id)
        assert again.as_dict() == record.as_dict()
        # Unique prefixes resolve; unknown ids raise with the inventory.
        assert reopened.get(record.run_id[:6]).run_id == record.run_id
        with pytest.raises(KeyError):
            reopened.get("0000000000000000")

    def test_ingest_does_not_mutate_caller_metadata(self, tmp_path):
        store = ProfileStore(tmp_path)
        database = make_database("original", BASE_OBSERVATIONS)
        record = store.ingest(database, workload="fleet-name")
        assert record.workload == "fleet-name"
        assert store.load(record.run_id).metadata.workload == "fleet-name"
        # The caller's live database keeps its own metadata.
        assert database.metadata.workload == "original"

    def test_ingest_rejects_identityless_profile(self, tmp_path):
        store = ProfileStore(tmp_path)
        database = make_database("x", BASE_OBSERVATIONS)
        database.metadata.workload = ""
        database.metadata.program = "program"  # the collision-prone default
        with pytest.raises(ValueError, match="workload/run identity"):
            store.ingest(database)
        assert len(store) == 0
        # An explicit identity overrides the missing metadata.
        record = store.ingest(database, workload="rescued")
        assert record.workload == "rescued"

    def test_rejected_path_ingest_closes_the_profile_it_opened(self, tmp_path):
        database = make_database("x", BASE_OBSERVATIONS)
        database.metadata.workload = ""
        database.metadata.program = "program"
        path = str(tmp_path / "anon.cctb")
        database.save(path, format="cct-binary-v1")
        store = ProfileStore(tmp_path / "store")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(ValueError, match="workload/run identity"):
                store.ingest(path)
            gc.collect()
        # Other tests' garbage may be collected here too; only this file counts.
        leaked = [str(warning.message) for warning in caught
                  if issubclass(warning.category, ResourceWarning)
                  and path in str(warning.message)]
        assert leaked == []
        assert len(store) == 0

    def test_ingest_profile_file_any_format(self, tmp_path):
        database = make_database("vit", BASE_OBSERVATIONS)
        json_path = str(tmp_path / "profile.json")
        database.save(json_path, format="columnar-json")
        store = ProfileStore(tmp_path / "store")
        record = store.ingest(json_path)
        # Canonicalised to binary: the stored file loads as a lazy view and
        # preserves the metric totals exactly.
        loaded = store.load(record.run_id)
        assert loaded.total_gpu_time() == database.total_gpu_time()
        assert loaded.metadata.workload == "vit"

    def test_ingest_of_a_corrupt_json_file_reports_the_json_error(self, tmp_path):
        """Only binary files get the streamed-checkpoint recovery retry; a
        cut JSON profile fails with its own condition, not a binary one."""
        path = str(tmp_path / "half.json")
        make_database("vit", BASE_OBSERVATIONS).save(path, format="columnar-json")
        with open(path, "rb") as handle:
            blob = handle.read()
        with open(path, "wb") as handle:
            handle.write(blob[:len(blob) // 2])
        store = ProfileStore(tmp_path / "store")
        with pytest.raises(ProfileFormatError,
                           match=r"half\.json.*not valid JSON"):
            store.ingest(path)
        assert len(store) == 0

    def test_ingest_recovers_truncated_stream(self, tmp_path):
        """A crashed streamed checkpoint file ingests at its last seal."""
        database = make_database("llm", BASE_OBSERVATIONS)
        path = str(tmp_path / "stream.cctb")
        database.save(path, format="cct-binary-v1")
        with open(path, "ab") as handle:
            handle.write(b"partial-append-cut-by-a-crash")
        with pytest.raises(ValueError):
            ProfileDatabase.load(path)  # strict load refuses the dirty tail
        expected = recover_profile(path).total_gpu_time()
        store = ProfileStore(tmp_path / "store")
        record = store.ingest(path)
        assert record.workload == "llm"
        assert store.load(record.run_id).total_gpu_time() == expected

    def test_compressed_store_round_trips_and_stays_lazy(self, tmp_path):
        store = ProfileStore(tmp_path, compression="zlib")
        database = make_database("unet", BASE_OBSERVATIONS)
        record = store.ingest(database)
        assert store.load(record.run_id).total_gpu_time() == \
            database.total_gpu_time()
        with store.aggregator() as aggregator:
            totals = aggregator.aggregate_by_name(kind=FrameKind.GPU_KERNEL)
            assert totals == database.tree.aggregate_by_name(
                kind=FrameKind.GPU_KERNEL)
            assert aggregator.hydrated_run_ids == []
        with pytest.raises(ValueError, match="compression"):
            ProfileStore(tmp_path / "bad", compression="lz99")

    def test_find_latest_and_remove(self, tmp_path):
        store = ProfileStore(tmp_path)
        a = store.ingest(make_database("unet", BASE_OBSERVATIONS, device="A100"))
        b = store.ingest(make_database("unet", BASE_OBSERVATIONS[:4],
                                       device="MI250"))
        c = store.ingest(make_database("vit", BASE_OBSERVATIONS[:2]))
        assert {r.run_id for r in store.find(workload="unet")} == {a.run_id,
                                                                   b.run_id}
        assert store.find(workload="unet", device="MI250") == [b]
        assert store.latest(workload="unet").run_id == b.run_id
        assert store.latest(workload="gnn") is None
        store.remove(b.run_id)
        assert store.latest(workload="unet", device="MI250") is None
        assert len(store) == 2
        assert not os.path.exists(os.path.join(store.root, b.path))
        assert c.run_id in store


# ---------------------------------------------------------------------------
# FleetAggregator
# ---------------------------------------------------------------------------

def _tree_states(tree: CallingContextTree):
    """``identity-path → {metric: exact Welford state}`` for every node."""
    keys = {id(tree.root): ()}
    states = {}
    for node in tree.all_nodes():
        if node.parent is None:
            key = ()
        else:
            key = keys[id(node.parent)] + (node.frame.identity(),)
            keys[id(node)] = key
        states[key] = {metric: aggregate.state()
                       for metric, aggregate in node.exclusive.items()
                       if aggregate.count > 0}
    return states


shard_observations = st.lists(
    st.tuples(st.sampled_from(["conv", "linear"]),
              st.sampled_from(["k0", "k1", "k2"]),
              st.floats(min_value=0.0, max_value=10.0, allow_nan=False)),
    min_size=1, max_size=12)


class TestFleetAggregator:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(shard_observations, min_size=1, max_size=4))
    def test_fleet_merge_bitwise_equals_combined_profile(self, runs):
        """Fleet-merging N stored single-run profiles == one profile holding
        all N runs' shards, down to exact Welford state bits."""
        combined = ShardedCallingContextTree("fleet")
        for index, observations in enumerate(runs):
            shard = combined.shard_for_tid(index + 1,
                                           thread_name=f"run-{index}")
            for op, kernel, gpu_time in observations:
                node = shard.insert(_path("fleet", op, kernel))
                shard.attribute_many(node, {M.METRIC_GPU_TIME: gpu_time,
                                            M.METRIC_KERNEL_COUNT: 1.0})
        # The runs' shards overlap (every run has the same paths), which is
        # merge_from's job: the reference copies the shards in shard order.
        reference = CallingContextTree("fleet")
        for shard in combined.shards().values():
            reference.merge_from(shard)
        expected = _tree_states(reference)

        with tempfile.TemporaryDirectory() as root:
            store = ProfileStore(root)
            run_ids = []
            for index, observations in enumerate(runs):
                tree = ShardedCallingContextTree("fleet")
                shard = tree.shard_for_tid(index + 1,
                                           thread_name=f"run-{index}")
                for op, kernel, gpu_time in observations:
                    node = shard.insert(_path("fleet", op, kernel))
                    shard.attribute_many(node,
                                         {M.METRIC_GPU_TIME: gpu_time,
                                          M.METRIC_KERNEL_COUNT: 1.0})
                # Distinct identities: byte-identical runs would content-
                # address to one catalog entry, which is not this test.
                metadata = ProfileMetadata(program="fleet",
                                           workload=f"run-{index}")
                run_ids.append(store.ingest(
                    ProfileDatabase(tree, metadata)).run_id)
            assert len(set(run_ids)) == len(runs)
            with store.aggregator(run_ids=run_ids) as aggregator:
                merged = aggregator.merged_tree()
                assert _tree_states(merged) == expected

    def test_lazy_queries_match_merged_tree_without_hydration(self, tmp_path):
        store = ProfileStore(tmp_path)
        for index in range(3):
            observations = [(op, kernel, 0.001 * (index + 1) * (j + 1))
                            for j, (op, kernel, _v) in
                            enumerate(BASE_OBSERVATIONS)]
            store.ingest(make_database(f"wl-{index}", observations))
        with store.aggregator() as aggregator:
            assert aggregator.run_count == 3
            totals = aggregator.aggregate_by_name(kind=FrameKind.GPU_KERNEL,
                                                  metric=M.METRIC_GPU_TIME)
            fleet_total = aggregator.total_metric(M.METRIC_GPU_TIME)
            top = aggregator.top_kernels(2)
            per_run = aggregator.per_run_totals(M.METRIC_GPU_TIME)
            # Summary-row queries never hydrated a single run's view.
            assert aggregator.hydrated_run_ids == []
            assert sorted(aggregator.metric_names()) == [
                M.METRIC_GPU_TIME, M.METRIC_KERNEL_COUNT]

            merged = aggregator.merged_tree()
            expected = merged.aggregate_by_name(kind=FrameKind.GPU_KERNEL,
                                                metric=M.METRIC_GPU_TIME)
            assert set(totals) == set(expected)
            for name, value in expected.items():
                assert totals[name] == pytest.approx(value)
            assert fleet_total == pytest.approx(
                merged.total_metric(M.METRIC_GPU_TIME))
            assert sum(per_run.values()) == pytest.approx(fleet_total)
            assert top[0][M.METRIC_GPU_TIME] >= top[1][M.METRIC_GPU_TIME]
            assert top[0]["fraction"] == pytest.approx(
                top[0][M.METRIC_GPU_TIME] / fleet_total)

    def test_aggregator_follows_live_attached_view(self, tmp_path):
        """Caches invalidate when a live-attached view advances to a new
        seal (the streamed-run dashboard flow); querying must not
        self-invalidate through its own decoding."""
        from repro.core import LazyProfileView
        from repro.core.streaming import StreamingProfileWriter

        database = make_database("live", BASE_OBSERVATIONS[:2])
        writer = StreamingProfileWriter(database,
                                        str(tmp_path / "live.cctb"))
        writer.checkpoint()
        view = LazyProfileView.attach(writer.path)
        aggregator = FleetAggregator({"live": view})
        first = aggregator.total_metric(M.METRIC_GPU_TIME)
        assert first == pytest.approx(0.022)
        # Repeat queries serve the memoized result (fingerprint stable).
        assert aggregator.total_metric(M.METRIC_GPU_TIME) == first
        assert aggregator.merged_tree() is aggregator.merged_tree()

        shard = database.tree.shards()[1]
        node = shard.insert(_path("live", "norm", "k_norm"))
        shard.attribute_many(node, {M.METRIC_GPU_TIME: 0.5,
                                    M.METRIC_KERNEL_COUNT: 1.0})
        writer.checkpoint()
        assert view.refresh() is True
        assert aggregator.total_metric(M.METRIC_GPU_TIME) == pytest.approx(
            0.522)
        totals = aggregator.aggregate_by_name(kind=FrameKind.GPU_KERNEL)
        assert totals["k_norm"] == pytest.approx(0.5)
        writer.close()
        view.close()

    def test_aggregator_explicit_views_and_filters(self, tmp_path):
        store = ProfileStore(tmp_path)
        store.ingest(make_database("unet", BASE_OBSERVATIONS, device="A100"))
        store.ingest(make_database("vit", BASE_OBSERVATIONS[:2],
                                   device="MI250"))
        with store.aggregator(device="MI250") as aggregator:
            assert aggregator.run_count == 1
        with FleetAggregator.from_store(store, workload="unet") as aggregator:
            assert aggregator.run_count == 1


# ---------------------------------------------------------------------------
# DifferentialProfile
# ---------------------------------------------------------------------------

class TestDifferentialProfile:
    def test_self_diff_is_exactly_empty(self):
        database = make_database("unet", BASE_OBSERVATIONS)
        diff = DifferentialProfile(database, database)
        assert diff.is_identical
        assert diff.deltas == []
        assert diff.regressions() == []
        assert diff.improvements() == []
        assert diff.total_delta == 0.0
        assert diff.max_abs_delta == 0.0
        assert diff.new_kernels == [] and diff.vanished_kernels == []

    def test_reload_round_trip_diff_is_empty(self, tmp_path):
        database = make_database("unet", BASE_OBSERVATIONS)
        path = str(tmp_path / "profile.cctb")
        database.save(path, format="cct-binary-v1")
        diff = DifferentialProfile(database, ProfileDatabase.load(path))
        assert diff.is_identical

    def test_changed_new_and_vanished_call_paths(self):
        baseline = make_database("wl", [("conv", "k_conv", 0.010),
                                        ("conv", "k_conv", 0.010),
                                        ("old", "k_gone", 0.005)])
        candidate = make_database("wl", [("conv", "k_conv", 0.030),
                                         ("conv", "k_conv", 0.030),
                                         ("extra", "k_new", 0.001)])
        diff = DifferentialProfile(baseline, candidate)
        by_status = {}
        for delta in diff.deltas:
            by_status.setdefault(delta.status, []).append(delta)
        changed = [d for d in by_status[STATUS_CHANGED]
                   if d.kind == "gpu_kernel"]
        assert [d.name for d in changed] == ["k_conv"]
        assert changed[0].delta_sum == pytest.approx(0.040)
        assert changed[0].z_score > 0
        assert [d.name for d in by_status[STATUS_NEW]] == ["k_new"]
        assert [d.name for d in by_status[STATUS_VANISHED]] == ["k_gone"]
        assert diff.new_kernels == ["k_new"]
        assert diff.vanished_kernels == ["k_gone"]
        assert any(path[-1] == "k_new" for path in diff.new_call_paths())
        assert any(path[-1] == "k_gone"
                   for path in diff.vanished_call_paths())
        # Regressions: the changed kernel's growth outranks the small new
        # context; the vanished one is an improvement.
        regressions = diff.regressions()
        assert regressions[0].name == "k_conv"
        assert {d.name for d in regressions} == {"k_conv", "k_new"}
        assert [d.name for d in diff.improvements()] == ["k_gone"]
        rows = {row["name"]: row for row in diff.kernel_deltas()}
        assert rows["k_conv"]["status"] == STATUS_CHANGED
        assert rows["k_new"]["status"] == STATUS_NEW
        assert rows["k_gone"]["status"] == STATUS_VANISHED

    def test_significance_separates_noise_from_shift(self):
        # Baseline: noisy kernel around 10ms; candidate: same noise for one
        # kernel, a clean deterministic shift for the other.
        noisy_base = [("a", "k_noisy", 0.010 + 0.002 * (i % 3))
                      for i in range(6)]
        shift_base = [("b", "k_shift", 0.010)] * 6
        noisy_cand = [("a", "k_noisy", 0.0102 + 0.002 * ((i + 1) % 3))
                      for i in range(6)]
        shift_cand = [("b", "k_shift", 0.0102)] * 6
        diff = DifferentialProfile(make_database("wl", noisy_base + shift_base),
                                   make_database("wl", noisy_cand + shift_cand))
        by_name = {d.name: d for d in diff.deltas}
        assert by_name["k_shift"].significance > by_name["k_noisy"].significance
        # Equal sums moved, but the deterministic shift ranks first.
        assert diff.regressions()[0].name == "k_shift"

    def test_large_regression_outranks_trivial_new_context(self):
        """Significance scales rank by at most one order of magnitude: a
        negligible deterministic new context must not outrank a regression
        thousands of times its size (the z-saturation footgun)."""
        baseline = make_database("wl", [("hot", "k_hot", 1.0 + 0.01 * i)
                                        for i in range(6)])
        candidate = make_database("wl", [("hot", "k_hot", 1.2 + 0.01 * i)
                                         for i in range(6)]
                                  + [("tiny", "k_tiny_new", 0.0001)])
        diff = DifferentialProfile(baseline, candidate)
        ranked = diff.regressions()
        assert [d.name for d in ranked] == ["k_hot", "k_tiny_new"]

    def test_population_diff_matches_merged_singles(self):
        base_runs = [make_database(f"b{i}", BASE_OBSERVATIONS)
                     for i in range(2)]
        cand_runs = [make_database(f"c{i}", [(op, kernel, value * 2)
                                             for op, kernel, value
                                             in BASE_OBSERVATIONS])
                     for i in range(2)]
        diff = DifferentialProfile.between_populations(base_runs, cand_runs)
        assert diff.total_delta == pytest.approx(diff.baseline_total)
        merged = merge_population(base_runs)
        assert merged.total_metric(M.METRIC_GPU_TIME) == pytest.approx(
            2 * base_runs[0].total_gpu_time())
        summary = diff.summary()
        assert summary["contexts"][STATUS_CHANGED] > 0
        assert summary["top_regressions"]


# ---------------------------------------------------------------------------
# RegressionAnalysis + differential flame graph
# ---------------------------------------------------------------------------

class TestRegressionAnalysis:
    def test_report_ranks_regressions_first(self):
        baseline = make_database("wl", BASE_OBSERVATIONS)
        candidate = make_database("wl", [
            (op, kernel, value * (4.0 if kernel == "k_gemm" else 1.0))
            for op, kernel, value in BASE_OBSERVATIONS])
        analyzer = PerformanceAnalyzer(analyses=[
            RegressionAnalysis(baseline=baseline)])
        report = analyzer.analyze(candidate)
        issues = report.by_analysis("regression")
        assert issues, "expected ranked regression issues"
        top = issues[0]
        assert top.node is not None and top.node.frame.name == "k_gemm"
        assert top.metrics["rank"] == 1.0
        assert top.metrics["delta_sum"] == pytest.approx(0.041 * 3)
        assert top.severity == Severity.CRITICAL  # ~3x the baseline total
        # Findings were attached to the analyzed database.
        assert any(issue["analysis"] == "regression"
                   for issue in candidate.issues)

    def test_no_baseline_is_a_noop(self):
        database = make_database("wl", BASE_OBSERVATIONS)
        report = PerformanceAnalyzer(analyses=[RegressionAnalysis()]).analyze(
            database)
        assert report.by_analysis("regression") == []

    def test_vanished_kernels_flagged_info(self):
        baseline = make_database("wl", BASE_OBSERVATIONS)
        candidate = make_database("wl", BASE_OBSERVATIONS[:4])  # k_norm gone
        issues = RegressionAnalysis(baseline=baseline).analyze(
            candidate.tree)
        info = [issue for issue in issues if issue.severity == Severity.INFO]
        assert any("k_norm" in issue.message for issue in info)


class TestDifferentialFlameGraph:
    def test_delta_coloring_and_statuses(self):
        baseline = make_database("wl", [("conv", "k_conv", 0.010),
                                        ("old", "k_gone", 0.004)])
        candidate = make_database("wl", [("conv", "k_conv", 0.020),
                                         ("extra", "k_new", 0.003)])
        graph = differential_flamegraph(baseline, candidate)
        assert graph.view == "differential"
        nodes = {node.label: node for node in graph.root.walk()}
        regressed = nodes["k_conv"]
        assert regressed.delta == pytest.approx(0.010)
        assert regressed.color not in ("", delta_color(0.0))
        new = nodes["k_new"]
        assert new.status == STATUS_NEW and new.baseline_value == 0.0
        vanished = nodes["k_gone"]
        assert vanished.status == STATUS_VANISHED
        assert vanished.value == 0.0
        assert vanished.delta == pytest.approx(-0.004)
        data = differential_to_dict(graph)
        assert data["view"] == "differential"
        assert data["root"]["delta"] == pytest.approx(
            candidate.total_gpu_time() - baseline.total_gpu_time())

    def test_self_diff_graph_is_neutral(self):
        database = make_database("wl", BASE_OBSERVATIONS)
        graph = differential_flamegraph(database, database)
        for node in graph.root.walk():
            assert node.delta == 0.0
            assert node.color == delta_color(0.0)


# ---------------------------------------------------------------------------
# Runner integration: the --store/--baseline flow
# ---------------------------------------------------------------------------

class _InjectedSlowdown:
    """Wraps a workload, adding one heavy extra operation per iteration.

    The injected op flows through the full interception machinery
    (``EagerEngine.run_kernels``), so the slowdown appears in the candidate
    profile as a genuinely collected context.
    """

    def __init__(self, inner):
        self._inner = inner
        self.name = inner.name
        self.training = inner.training
        self.supports_jit = inner.supports_jit

    def __getattr__(self, attribute):
        return getattr(self._inner, attribute)

    def run_iteration(self, engine, iteration=0):
        from repro.gpu.kernels import KernelSpec

        self._inner.run_iteration(engine, iteration)
        engine.run_kernels("injected::slowdown", [KernelSpec(
            name="injected_slowdown_kernel", flops=5e12,
            bytes_accessed=2e9, num_blocks=2048)])


class TestRunnerFleetFlow:
    def test_baseline_flow_surfaces_injected_slowdown(self, tmp_path):
        store_path = str(tmp_path / "fleet")

        def run(inject: bool):
            workload = create_workload("gnn", small=True)
            if inject:
                workload = _InjectedSlowdown(workload)
            from repro.experiments.runner import run_workload
            return run_workload(workload, profiler=PROFILER_DEEPCONTEXT,
                                iterations=2, store_path=store_path,
                                baseline="latest")

        first = run(inject=False)
        assert first.store_run_id
        assert first.baseline_run_id == ""  # bootstrap: nothing to diff
        assert first.report is None
        assert first.extra["store_runs"] == 1.0

        second = run(inject=True)
        assert second.baseline_run_id == first.store_run_id
        assert second.store_run_id != first.store_run_id
        assert second.extra["store_runs"] == 2.0
        assert second.extra["indexed_runs"] == 2.0  # ingest indexed both
        issues = second.report.by_analysis("regression")
        assert issues and second.extra["regression_issues"] == float(
            len(issues))
        top = issues[0]
        assert top.metrics["rank"] == 1.0
        assert "injected_slowdown_kernel" in top.node_name
        assert top.metrics["delta_sum"] > 0
        # The stored profile carries the findings it was flagged with.
        store = ProfileStore(store_path)
        stored = store.load(second.store_run_id)
        assert any(issue["analysis"] == "regression"
                   for issue in stored.issues)

    def test_runner_ingests_identity_and_dedups(self, tmp_path):
        store_path = str(tmp_path / "fleet")
        results = [run_named_workload("gnn", profiler=PROFILER_DEEPCONTEXT,
                                      iterations=1, store_path=store_path)
                   for _ in range(2)]
        store = ProfileStore(store_path)
        for result in results:
            record = store.get(result.store_run_id)
            assert record.workload == result.workload
            assert record.iterations == 1

    def test_baseline_requires_store(self):
        with pytest.raises(ValueError, match="store_path"):
            run_named_workload("gnn", profiler=PROFILER_DEEPCONTEXT,
                               iterations=1, baseline="latest")

    def test_store_requires_deepcontext(self, tmp_path):
        with pytest.raises(ValueError, match="DeepContext"):
            run_named_workload("gnn", iterations=1,
                               store_path=str(tmp_path / "fleet"))
