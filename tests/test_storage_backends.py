"""Tests for the profile storage engine.

Three properties are pinned here:

* **Round-trip equivalence** (hypothesis): for any set of per-thread
  observations, saving in each writable format — ``columnar-json`` and
  mmap-backed ``cct-binary-v1`` — and loading back yields the same
  structure, byte-exact exclusive Welford states, the same inclusive views,
  and the same thread provenance.

* **Laziness**: opening a binary profile decodes nothing; a single-shard
  query reads exactly that shard's frame table plus the one requested
  metric column; cross-shard aggregation reads one column per shard; neither
  decodes a tree; structural access hydrates and matches the eager tree.

* **Detection**: ``ProfileDatabase.load`` detects the on-disk format
  (legacy nested ``json`` included) instead of assuming one, and
  mismatches/unknown files raise errors naming what was actually found.

A crash at any write of a one-shot binary save leaves the profile it was
replacing intact.
"""

import json
import os
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    CallingContextTree,
    LazyProfileView,
    ProfileDatabase,
    ProfileMetadata,
    ShardedCallingContextTree,
    detect_format,
)
from repro.core import metrics as M
from repro.core.faultfs import (FaultInjector, FaultPlan, InjectedCrash,
                                crash_at_write)
from repro.core.storage import ALL_KINDS, BINARY_MAGIC, KIND_CODES
from repro.dlmonitor.callpath import (
    CallPath,
    FrameKind,
    framework_frame,
    gpu_kernel_frame,
    python_frame,
    root_frame,
    thread_frame,
)
from repro.obs import TELEMETRY

ALL_FORMATS = ("columnar-json", "cct-binary-v1")
LEGACY_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "legacy-nested-v0.json")
THREAD_NAMES = {1: "main", 2: "backward-0", 3: "worker-0"}


def _path(tid: int, module: str, kernel: str) -> CallPath:
    return CallPath.of([
        root_frame("storage"), thread_frame(THREAD_NAMES[tid], tid),
        python_frame("train.py", 10 + tid, "train_step"),
        framework_frame(f"aten::{module}"),
        gpu_kernel_frame(kernel),
    ])


def _build_sharded(observations) -> ShardedCallingContextTree:
    tree = ShardedCallingContextTree("storage")
    for tid, module, kernel, gpu_time in observations:
        shard = tree.shard_for_tid(tid, thread_name=THREAD_NAMES[tid])
        node = shard.insert(_path(tid, module, kernel))
        shard.attribute_many(node, {M.METRIC_GPU_TIME: gpu_time,
                                    M.METRIC_KERNEL_COUNT: 1.0})
    return tree


def _build_single(observations) -> CallingContextTree:
    tree = CallingContextTree("storage")
    for tid, module, kernel, gpu_time in observations:
        node = tree.insert(_path(tid, module, kernel))
        tree.attribute_many(node, {M.METRIC_GPU_TIME: gpu_time,
                                   M.METRIC_KERNEL_COUNT: 1.0})
    return tree


def _snapshot(tree):
    """Path-keyed exclusive states and inclusive (count, sum) pairs."""
    snapshot = {}
    for node in tree.all_nodes():
        key = tuple(n.frame.identity() for n in node.path_from_root())
        exclusive = {name: aggregate.state()
                     for name, aggregate in node.exclusive.items() if aggregate.count}
        inclusive = {name: (aggregate.count, aggregate.total)
                     for name, aggregate in node.inclusive.items() if aggregate.count}
        snapshot[key] = (exclusive, inclusive)
    return snapshot


def _merged_of(database):
    tree = database.tree
    merged = getattr(tree, "merged", None)
    return merged() if merged is not None else tree


@pytest.fixture
def telemetry():
    """The process-wide registry, recording for one test and emptied after."""
    TELEMETRY.reset()
    TELEMETRY.enable()
    yield TELEMETRY
    TELEMETRY.disable()
    TELEMETRY.reset()


def _rows_read(telemetry):
    """``(shard, metric)`` of every per-name rows read, in order."""
    return [(args["shard"], args["metric"])
            for name, *_timing, args in telemetry.spans()
            if name == "storage.decode.name_states"]


observations_strategy = st.lists(
    st.tuples(
        st.sampled_from([1, 2, 3]),
        st.sampled_from(["conv", "linear", "norm"]),
        st.sampled_from(["k0", "k1"]),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    ),
    min_size=1, max_size=60,
)


class TestRoundTripEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(observations_strategy)
    def test_sharded_roundtrip_across_all_backends(self, observations):
        import tempfile, os
        tree = _build_sharded(observations)
        database = ProfileDatabase(tree, metadata=ProfileMetadata(program="storage"))
        expected = _snapshot(tree.merged())
        with tempfile.TemporaryDirectory() as directory:
            for format_name in ALL_FORMATS:
                path = database.save(os.path.join(directory, f"p.{format_name}"),
                                     format=format_name)
                restored = ProfileDatabase.load(path)
                actual = _snapshot(_merged_of(restored))
                assert set(actual) == set(expected), format_name
                for key, (exclusive, inclusive) in expected.items():
                    actual_exclusive, actual_inclusive = actual[key]
                    assert set(actual_exclusive) == set(exclusive)
                    for name, state in exclusive.items():
                        assert actual_exclusive[name] == state, (format_name, key)
                    assert set(actual_inclusive) == set(inclusive)
                    for name, (count, total) in inclusive.items():
                        assert actual_inclusive[name][0] == count
                        assert actual_inclusive[name][1] == pytest.approx(
                            total, rel=1e-9, abs=1e-12)

    @settings(max_examples=10, deadline=None)
    @given(observations_strategy)
    def test_single_tree_roundtrip_across_all_backends(self, observations):
        import tempfile, os
        tree = _build_single(observations)
        database = ProfileDatabase(tree)
        with tempfile.TemporaryDirectory() as directory:
            for format_name in ALL_FORMATS:
                path = database.save(os.path.join(directory, f"p.{format_name}"),
                                     format=format_name)
                restored = ProfileDatabase.load(path)
                assert restored.node_count() == database.node_count(), format_name
                assert restored.total_gpu_time() == pytest.approx(
                    database.total_gpu_time(), rel=1e-9)
                assert [row["kernel"] for row in restored.top_kernels(4)] == \
                    [row["kernel"] for row in database.top_kernels(4)]

    def test_provenance_survives_shard_aware_backends(self, tmp_path):
        tree = _build_sharded([(1, "conv", "k0", 1.0), (2, "norm", "k1", 2.0),
                               (3, "linear", "k0", 3.0)])
        database = ProfileDatabase(tree)
        for format_name in ("columnar-json", "cct-binary-v1"):
            path = database.save(str(tmp_path / f"p.{format_name}"),
                                 format=format_name)
            restored = ProfileDatabase.load(path)
            names = {entry["thread_name"]
                     for entry in restored.tree.shard_provenance()}
            assert names == {"main", "backward-0", "worker-0"}, format_name

    def test_binary_roundtrips_metadata_stats_and_issues(self, tmp_path):
        database = ProfileDatabase(
            _build_sharded([(1, "conv", "k0", 1.0)]),
            metadata=ProfileMetadata(program="p", framework="jax", iterations=7),
            dlmonitor_stats={"events": 42})
        database.issues = [{"analysis": "hotspot", "message": "hot"}]
        path = database.save(str(tmp_path / "p.cctb"), format="cct-binary-v1")
        restored = ProfileDatabase.load(path)
        assert restored.metadata.framework == "jax"
        assert restored.metadata.iterations == 7
        assert restored.dlmonitor_stats == {"events": 42}
        assert restored.issues == database.issues

    def test_single_tree_binary_hydrates_back_to_single_tree(self, tmp_path):
        database = ProfileDatabase(_build_single([(1, "conv", "k0", 1.0)]))
        path = database.save(str(tmp_path / "p.cctb"), format="cct-binary-v1")
        view = ProfileDatabase.load(path).tree
        assert isinstance(view.hydrate(), CallingContextTree)

    def test_binary_survives_recursion_limit_depth(self, tmp_path):
        import sys
        depth = sys.getrecursionlimit() + 300
        frames = [root_frame("deep")]
        frames += [python_frame("deep.py", line, f"f{line}") for line in range(depth)]
        tree = CallingContextTree("deep")
        tree.attribute(tree.insert(CallPath.of(frames)), M.METRIC_CPU_TIME, 2.0)
        database = ProfileDatabase(tree)
        path = database.save(str(tmp_path / "deep.cctb"), format="cct-binary-v1")
        restored = ProfileDatabase.load(path)
        assert restored.node_count() == tree.node_count()
        assert restored.total_cpu_time() == pytest.approx(2.0)


class TestLazyProfileView:
    def _binary_database(self, tmp_path):
        tree = _build_sharded([
            (1, "conv", "k0", 1.5), (2, "norm", "k1", 0.5), (3, "linear", "k0", 2.0),
            (1, "linear", "k1", 0.25), (2, "conv", "k0", 0.75),
        ])
        # A second metric family so column selectivity is observable.
        shard = tree.shard_for_tid(1)
        shard.attribute(shard.kernels[0], M.METRIC_STALL_SAMPLES, 9.0)
        database = ProfileDatabase(tree)
        path = database.save(str(tmp_path / "lazy.cctb"), format="cct-binary-v1")
        return database, ProfileDatabase.load(path)

    def test_open_decodes_nothing(self, tmp_path):
        _database, loaded = self._binary_database(tmp_path)
        view = loaded.tree
        assert isinstance(view, LazyProfileView)
        assert view.decoded_shard_ids() == set()
        assert view.decoded_columns() == set()
        assert not view.hydrated
        # TOC-served metadata costs no decode either.
        assert view.shard_count() == 3
        assert view.stored_node_count() > 0
        assert set(view.metric_names()) >= {M.METRIC_GPU_TIME, M.METRIC_KERNEL_COUNT}
        assert view.decoded_shard_ids() == set()

    def test_totals_come_from_column_blocks_alone(self, tmp_path):
        database, loaded = self._binary_database(tmp_path)
        assert loaded.total_gpu_time() == database.total_gpu_time()
        assert loaded.total_kernel_launches() == database.total_kernel_launches()
        view = loaded.tree
        assert view.decoded_shard_ids() == set()  # sums read, nothing decoded
        assert not view.hydrated

    def test_reloaded_totals_equal_live_totals_bitwise(self, tmp_path):
        """Column sums add left to right in node order, like the live tree:
        a compensated sum (the builtin ``sum`` since Python 3.12) rounds
        ten ``0.1`` observations to 1.0 where the tree reads
        0.9999999999999999."""
        tree = ShardedCallingContextTree("storage")
        for tid in (1, 2):
            shard = tree.shard_for_tid(tid, thread_name=THREAD_NAMES[tid])
            for index in range(10):
                node = shard.insert(_path(tid, f"op{index}", f"k{index}"))
                shard.attribute_many(node, {
                    M.METRIC_GPU_TIME: 0.1,
                    M.METRIC_CPU_TIME: 0.7 / (index + 1),
                    M.METRIC_KERNEL_COUNT: 1.0})
        path = ProfileDatabase(tree).save(str(tmp_path / "sums.cctb"),
                                          format="cct-binary-v1")
        for hydrate in (False, True):
            view = ProfileDatabase.load(path).tree
            if hydrate:
                view.hydrate()
            assert view.metric_names()
            for metric in view.metric_names():
                assert view.total_metric(metric) == tree.total_metric(metric), \
                    (metric, hydrate)

    def test_single_shard_query_decodes_only_that_shard_and_column(
            self, tmp_path, telemetry):
        database, loaded = self._binary_database(tmp_path)
        view = loaded.tree
        totals = view.shard_aggregate_by_name(2, kind=FrameKind.GPU_KERNEL,
                                              metric=M.METRIC_GPU_TIME)
        shard = database.tree.shards()[2]
        assert totals == shard.aggregate_by_name(kind=FrameKind.GPU_KERNEL,
                                                 metric=M.METRIC_GPU_TIME)
        # Exactly shard 2's frames block and its GPU-time column were read,
        # and neither was decoded into a tree.
        assert _rows_read(telemetry) == [(2, M.METRIC_GPU_TIME)]
        assert telemetry.counter_value("storage.blocks_decoded") == 2
        assert view.decoded_shard_ids() == set()
        assert view.decoded_columns() == set()
        assert not view.hydrated

    def test_column_name_states_match_tree_path_bitwise(self, tmp_path):
        """The per-name Welford rows a fleet summary stores: their sums,
        projected per kind and for ``ALL_KINDS``, are bit for bit the tree
        path's rows, and computing them decodes no structure at all."""
        _database, loaded = self._binary_database(tmp_path)
        view = loaded.tree
        states = view.column_name_states(M.METRIC_GPU_TIME)
        assert view.decoded_shard_ids() == set()
        assert view.decoded_columns() == set()
        assert not view.hydrated
        for kind in (FrameKind.GPU_KERNEL, None):
            code = KIND_CODES[kind] if kind is not None else ALL_KINDS
            sums = [(name, state[1]) for (row_code, name), state
                    in states.items() if row_code == code]
            # A fresh view decodes the tree path from the same bytes.
            tree_view = ProfileDatabase.load(view.path).tree
            assert sums == list(tree_view.aggregate_by_name(
                kind=kind, metric=M.METRIC_GPU_TIME).items())
        assert view.column_name_states("no_such_metric") == {}
        # The rows always come from the sealed blocks: a warm shard tree
        # changes nothing.
        view.shard_aggregate_by_name(1, kind=FrameKind.GPU_KERNEL,
                                     metric=M.METRIC_GPU_TIME)
        assert view.column_name_states(M.METRIC_GPU_TIME) == states

    def test_cross_shard_aggregate_touches_one_column_per_shard(
            self, tmp_path, telemetry):
        database, loaded = self._binary_database(tmp_path)
        view = loaded.tree
        totals = view.aggregate_by_name(kind=FrameKind.GPU_KERNEL,
                                        metric=M.METRIC_GPU_TIME)
        expected = database.tree.aggregate_by_name(kind=FrameKind.GPU_KERNEL,
                                                   metric=M.METRIC_GPU_TIME)
        assert list(totals.items()) == list(expected.items())
        # One frames block and one GPU-time column per shard, no tree.
        assert _rows_read(telemetry) == [(tid, M.METRIC_GPU_TIME)
                                         for tid in view.shard_ids()]
        assert telemetry.counter_value("storage.blocks_decoded") == \
            2 * view.shard_count()
        assert view.decoded_shard_ids() == set()
        assert not view.hydrated  # no merged tree was built

    def test_top_kernels_stays_lazy_and_matches(self, tmp_path, telemetry):
        database, loaded = self._binary_database(tmp_path)
        assert loaded.top_kernels(5) == database.top_kernels(5)
        view = loaded.tree
        assert not view.hydrated
        assert view.decoded_shard_ids() == set()
        # Per shard: the frames block and GPU-time column for the rows, and
        # the GPU-time column again for the total the fractions divide by.
        assert _rows_read(telemetry) == [(tid, M.METRIC_GPU_TIME)
                                         for tid in view.shard_ids()]
        assert telemetry.counter_value("storage.blocks_decoded") == \
            3 * view.shard_count()

    def test_structural_access_hydrates_and_matches_eager(self, tmp_path):
        database, loaded = self._binary_database(tmp_path)
        view = loaded.tree
        assert _snapshot(view.merged()) is not None
        assert view.hydrated
        assert _snapshot(view.merged()) == _snapshot(database.tree.merged())
        assert loaded.node_count() == database.node_count()

    def test_analyzers_and_gui_work_against_the_lazy_view(self, tmp_path):
        from repro.analyzer.query import CCTQuery
        from repro.gui.flamegraph import FlameGraphBuilder
        database, loaded = self._binary_database(tmp_path)
        query = CCTQuery(loaded.tree)
        assert {node.name for node in query.kernels()} == \
            {node.name for node in CCTQuery(database.tree).kernels()}
        graph = FlameGraphBuilder().top_down(loaded.tree)
        reference = FlameGraphBuilder().top_down(database.tree)
        assert graph.total == pytest.approx(reference.total, rel=1e-9)
        assert graph.node_count() == reference.node_count()

    def test_resave_through_other_backends(self, tmp_path):
        database, loaded = self._binary_database(tmp_path)
        path = loaded.save(str(tmp_path / "re.columnar-json"),
                           format="columnar-json")
        resaved = ProfileDatabase.load(path)
        assert resaved.node_count() == database.node_count()
        assert resaved.total_gpu_time() == pytest.approx(
            database.total_gpu_time(), rel=1e-9)

    def test_unknown_shard_raises(self, tmp_path):
        _database, loaded = self._binary_database(tmp_path)
        with pytest.raises(KeyError, match="no shard"):
            loaded.tree.shard_aggregate_by_name(99)


class TestFormatSniffing:
    def _database(self):
        return ProfileDatabase(_build_sharded([(1, "conv", "k0", 1.0)]))

    def test_detect_format_for_every_backend(self, tmp_path):
        database = self._database()
        for format_name in ALL_FORMATS:
            path = database.save(str(tmp_path / f"p.{format_name}"),
                                 format=format_name)
            assert detect_format(path) == format_name
        assert detect_format(LEGACY_PATH) == "json"

    def test_mismatch_error_names_detected_format(self, tmp_path):
        database = self._database()
        binary_path = database.save(str(tmp_path / "p.cctb"),
                                    format="cct-binary-v1")
        with pytest.raises(ValueError, match="'json'"):
            ProfileDatabase.load(LEGACY_PATH, format="cct-binary-v1")
        with pytest.raises(ValueError, match="'cct-binary-v1'"):
            ProfileDatabase.load(binary_path, format="columnar-json")
        with pytest.raises(ValueError, match="'columnar-json'"):
            ProfileDatabase.load(
                database.save(str(tmp_path / "p.cjson"), format="columnar-json"),
                format="json")

    def test_unrecognisable_files_raise_clear_errors(self, tmp_path):
        not_json = tmp_path / "garbage.bin"
        not_json.write_bytes(b"\x00\x01\x02 not a profile")
        with pytest.raises(ValueError, match="not a recognised profile"):
            ProfileDatabase.load(str(not_json))
        wrong_json = tmp_path / "other.json"
        wrong_json.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(ValueError, match="neither 'tree' nor 'tree_columnar'"):
            ProfileDatabase.load(str(wrong_json))

    def test_truncated_binary_is_rejected(self, tmp_path):
        database = self._database()
        path = database.save(str(tmp_path / "p.cctb"), format="cct-binary-v1")
        blob = open(path, "rb").read()
        truncated = tmp_path / "trunc.cctb"
        truncated.write_bytes(blob[:len(blob) - 4])
        with pytest.raises(ValueError, match="truncated|corrupt"):
            ProfileDatabase.load(str(truncated))
        assert blob[:len(BINARY_MAGIC)] == BINARY_MAGIC
        offset, length, magic = struct.unpack("<QQ8s", blob[-24:])
        assert magic == BINARY_MAGIC and offset + length == len(blob) - 24

    def test_unknown_format_name_lists_registered(self, tmp_path):
        # The old alias spellings are unknown names too.
        database = self._database()
        path = database.save(str(tmp_path / "p.cctb"))
        listing = "formats: cct-binary-v1, columnar-json, json"
        for name in ("tarball", "columnar", "binary"):
            with pytest.raises(ValueError, match=listing):
                database.save(str(tmp_path / f"p.{name}"), format=name)
            with pytest.raises(ValueError, match=listing):
                ProfileDatabase.load(path, format=name)
            assert not os.path.exists(tmp_path / f"p.{name}")

    def test_save_default_format_follows_profiler_config(self, tmp_path):
        # The default is cct-binary-v1, whatever format key older profiler
        # configurations left in the metadata.
        database = self._database()
        database.metadata.config["profile_format"] = "json"
        path = database.save(str(tmp_path / "configured"))
        assert detect_format(path) == "cct-binary-v1"
        assert isinstance(ProfileDatabase.load(path).tree, LazyProfileView)


class TestBlockCompression:
    def _database(self):
        tree = _build_sharded([
            (1, "conv", "k0", 1.5), (2, "norm", "k1", 0.5),
            (3, "linear", "k0", 2.0), (1, "conv", "k1", 0.25),
        ])
        return ProfileDatabase(tree, metadata=ProfileMetadata(program="z"))

    def test_zlib_roundtrip_matches_uncompressed_bit_for_bit(self, tmp_path):
        database = self._database()
        plain = database.save(str(tmp_path / "plain.cctb"),
                              format="cct-binary-v1")
        packed = database.save(str(tmp_path / "packed.cctb"),
                               format="cct-binary-v1", compression="zlib")
        assert detect_format(packed) == "cct-binary-v1"
        from_plain = ProfileDatabase.load(plain)
        from_packed = ProfileDatabase.load(packed)
        # Exact Welford states either way: compression is transparent.
        assert _snapshot(_merged_of(from_packed)) == \
            _snapshot(_merged_of(from_plain))
        assert from_packed.total_gpu_time() == from_plain.total_gpu_time()

    def test_compressed_blocks_carry_descriptor_flags(self, tmp_path):
        database = self._database()
        path = database.save(str(tmp_path / "packed.cctb"),
                             format="cct-binary-v1", compression="zlib")
        view = ProfileDatabase.load(path).tree
        descriptors = [descriptor
                       for shard in view._shards.values()
                       for descriptor in (shard.entry["frames"],
                                          *shard.entry["columns"].values())]
        assert descriptors
        assert all(d.get("compression") == "zlib" for d in descriptors)
        assert all(d["raw_length"] >= d["length"] - 64 for d in descriptors)

    def test_lazy_read_path_is_transparent_over_compression(self, tmp_path,
                                                            telemetry):
        database = self._database()
        path = database.save(str(tmp_path / "packed.cctb"),
                             format="cct-binary-v1", compression="zlib")
        loaded = ProfileDatabase.load(path)
        view = loaded.tree
        # Column-sum fast path and single-shard selectivity both survive.
        assert loaded.total_gpu_time() == database.total_gpu_time()
        assert view.decoded_shard_ids() == set()
        summed = telemetry.counter_value("storage.blocks_decoded")
        assert summed == view.shard_count()  # one GPU-time column each
        totals = view.shard_aggregate_by_name(2, kind=FrameKind.GPU_KERNEL,
                                              metric=M.METRIC_GPU_TIME)
        assert totals == database.tree.shards()[2].aggregate_by_name(
            kind=FrameKind.GPU_KERNEL, metric=M.METRIC_GPU_TIME)
        assert _rows_read(telemetry) == [(2, M.METRIC_GPU_TIME)]
        assert telemetry.counter_value("storage.blocks_decoded") == summed + 2
        assert view.decoded_shard_ids() == set()
        assert not view.hydrated
        assert loaded.top_kernels(3) == database.top_kernels(3)

    def test_mixed_compressed_and_uncompressed_blocks_in_one_file(self, tmp_path):
        from repro.core import StreamingProfileWriter
        tree = _build_sharded([(1, "conv", "k0", 1.0)])
        writer = StreamingProfileWriter(ProfileDatabase(tree),
                                        str(tmp_path / "mixed.cctb"))
        writer.checkpoint()  # shard 1's blocks: uncompressed
        shard = tree.shard_for_tid(2, thread_name=THREAD_NAMES[2])
        node = shard.insert(_path(2, "norm", "k1"))
        shard.attribute_many(node, {M.METRIC_GPU_TIME: 2.0,
                                    M.METRIC_KERNEL_COUNT: 1.0})
        writer.compression = "zlib"
        writer.checkpoint()  # shard 2's blocks: zlib; shard 1 carried forward
        writer._handle.close()  # no closing seal: keep both block flavours
        loaded = ProfileDatabase.load(str(tmp_path / "mixed.cctb"))
        flags = {shard.entry["frames"].get("compression")
                 for shard in loaded.tree._shards.values()}
        assert flags == {None, "zlib"}
        assert _snapshot(_merged_of(loaded)) == _snapshot(tree.merged())

    def test_profile_compression_config_drives_default_save(self, tmp_path):
        database = self._database()
        database.metadata.config["profile_compression"] = "zlib"
        path = database.save(str(tmp_path / "configured"))
        view = ProfileDatabase.load(path).tree
        assert all(shard.entry["frames"].get("compression") == "zlib"
                   for shard in view._shards.values())

    def test_json_backends_reject_compression(self, tmp_path):
        database = self._database()
        with pytest.raises(ValueError, match="does not support"):
            database.save(str(tmp_path / "p.columnar-json"),
                          format="columnar-json", compression="zlib")
        for compression in (None, "zlib"):
            with pytest.raises(ValueError,
                               match="read-only.*'cct-binary-v1' or "
                                     "'columnar-json'"):
                database.save(str(tmp_path / "p.json"), format="json",
                              compression=compression)
        assert os.listdir(tmp_path) == []

    def test_unknown_compression_name_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unsupported profile compression"):
            self._database().save(str(tmp_path / "p.cctb"),
                                  format="cct-binary-v1", compression="lz77")


class TestProfileFormatErrors:
    def test_empty_file_names_path_and_condition(self, tmp_path):
        from repro.core import ProfileFormatError
        empty = tmp_path / "empty.profile"
        empty.write_bytes(b"")
        for probe in (ProfileDatabase.load, detect_format):
            with pytest.raises(ProfileFormatError,
                               match=r"empty\.profile.*empty \(0 bytes\)"):
                probe(str(empty))

    def test_truncated_json_profile_is_a_format_error(self, tmp_path):
        from repro.core import ProfileFormatError
        database = ProfileDatabase(_build_sharded([(1, "conv", "k0", 1.0)]))
        path = database.save(str(tmp_path / "p.json"), format="columnar-json")
        blob = open(path, "rb").read()
        cut = tmp_path / "cut.json"
        cut.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(ProfileFormatError, match="cut.json"):
            ProfileDatabase.load(str(cut))

    def test_mid_block_truncated_binary_is_a_format_error(self, tmp_path):
        from repro.core import ProfileFormatError
        database = ProfileDatabase(_build_sharded([(1, "conv", "k0", 1.0)]))
        path = database.save(str(tmp_path / "p.cctb"), format="cct-binary-v1")
        blob = open(path, "rb").read()
        for cut_name, cut in (("mid_block", len(blob) // 2),
                              ("mid_tail", len(blob) - 5),
                              ("head_only", 20)):
            truncated = tmp_path / f"{cut_name}.cctb"
            truncated.write_bytes(blob[:cut])
            with pytest.raises(ProfileFormatError, match=cut_name):
                ProfileDatabase.load(str(truncated))

    def test_format_errors_are_valueerrors(self):
        from repro.core import ProfileFormatError
        assert issubclass(ProfileFormatError, ValueError)

    def test_config_compression_with_json_format_saves_plain_json(self, tmp_path):
        # profile_compression is session-wide; combined with an explicit
        # columnar-json save it must not blow up after the run — the default
        # only applies to binary saves.
        database = ProfileDatabase(_build_sharded([(1, "conv", "k0", 1.0)]))
        database.metadata.config["profile_compression"] = "zlib"
        path = database.save(str(tmp_path / "plain"), format="columnar-json")
        assert detect_format(path) == "columnar-json"
        assert ProfileDatabase.load(path).node_count() == database.node_count()


class TestOneShotSaveCrash:
    def test_crash_at_every_write_keeps_the_replaced_profile(self, tmp_path):
        path = str(tmp_path / "p.cctb")
        ProfileDatabase(_build_sharded([(1, "conv", "k0", 1.0)])).save(
            path, format="cct-binary-v1")
        with open(path, "rb") as handle:
            pristine = handle.read()
        replacement = ProfileDatabase(_build_sharded([
            (1, "conv", "k0", 2.0), (2, "norm", "k1", 3.0),
            (3, "linear", "k0", 0.5)]))

        dry_dir = tmp_path / "dry"
        dry_dir.mkdir()
        dry = FaultPlan()
        with FaultInjector(str(dry_dir), dry):
            replacement.save(str(dry_dir / "p.cctb"), format="cct-binary-v1")
        total_writes = dry.counts["write"]
        assert total_writes > 3  # magic, meta, blocks, TOC, tail

        for k in range(1, total_writes + 1):
            plan = FaultPlan([crash_at_write(k)])
            with FaultInjector(str(tmp_path), plan):
                with pytest.raises(InjectedCrash):
                    replacement.save(path, format="cct-binary-v1")
            assert plan.tripped, f"write #{k} never happened"
            with open(path, "rb") as handle:
                assert handle.read() == pristine, f"crash at write #{k}"
            assert [name for name in os.listdir(tmp_path)
                    if name.endswith(".tmp")] == []
