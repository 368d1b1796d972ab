"""Tests for the streaming profile pipeline.

Four guarantees are pinned here:

* **Append-then-reseal**: every sealed prefix of a streamed file is a valid
  ``cct-binary-v1`` profile; clean shards are skipped (generation counters),
  metric-only changes reuse the sealed frame table, and the closing seal
  compacts superseded blocks without changing what queries see.

* **Crash recovery**: truncating a streamed file anywhere past the first
  seal recovers — via ``recover_profile`` — exactly the last checkpoint that
  sealed before the cut, with bit-for-bit equal Welford states (hypothesis
  property over random observation rounds and truncation offsets).

* **Live attach**: ``LazyProfileView.attach`` opens the newest seal of a
  file that is still being appended to; ``refresh`` follows new seals and
  survives compaction.

* **Integration**: ``ProfilerConfig.checkpoint_path`` drives automatic
  checkpoints from ``DeepContextProfiler`` / ``experiments.runner``.
"""

import errno
import json
import os
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    LazyProfileView,
    ProfileDatabase,
    ProfileFormatError,
    ProfilerConfig,
    StreamingProfileWriter,
    detect_format,
    recover_profile,
)
from repro.core import metrics as M
from repro.core.cct import CallingContextTree, ShardedCallingContextTree
from repro.core.faultfs import (
    FaultInjector,
    FaultPlan,
    InjectedCrash,
    enospc_at_write,
    short_read,
    torn_write,
)
from repro.core.streaming import completion_marker_path, is_marked_complete
from repro.dlmonitor.callpath import (
    CallPath,
    framework_frame,
    gpu_kernel_frame,
    python_frame,
    root_frame,
    thread_frame,
)
from repro.obs import TELEMETRY

THREAD_NAMES = {1: "main", 2: "backward-0", 3: "worker-0"}


def _path(tid: int, module: str, kernel: str) -> CallPath:
    return CallPath.of([
        root_frame("stream"), thread_frame(THREAD_NAMES[tid], tid),
        python_frame("train.py", 10 + tid, "train_step"),
        framework_frame(f"aten::{module}"),
        gpu_kernel_frame(kernel),
    ])


def _observe(tree: ShardedCallingContextTree, tid: int, module: str,
             kernel: str, gpu_time: float) -> None:
    shard = tree.shard_for_tid(tid, thread_name=THREAD_NAMES[tid])
    node = shard.insert(_path(tid, module, kernel))
    shard.attribute_many(node, {M.METRIC_GPU_TIME: gpu_time,
                                M.METRIC_KERNEL_COUNT: 1.0})


def _state_snapshot(tree):
    """Per-shard, path-keyed exclusive aggregate states (exact tuples)."""
    shards = tree.shards() if hasattr(tree, "shards") else {0: tree}
    snapshot = {}
    for tid, shard in shards.items():
        for node in shard.all_nodes():
            key = (tid,) + tuple(n.frame.identity()
                                 for n in node.path_from_root())
            states = {name: aggregate.state()
                      for name, aggregate in node.exclusive.items()
                      if aggregate.count}
            if states:
                snapshot[key] = states
    return snapshot


def _recovered_snapshot(database):
    tree = database.tree
    hydrated = tree.hydrate() if isinstance(tree, LazyProfileView) else tree
    return _state_snapshot(hydrated)


def _final_seal(path):
    """``(file bytes, TOC offset, TOC)`` of the seal at the end of ``path``."""
    with open(path, "rb") as handle:
        blob = handle.read()
    toc_offset, toc_length, _magic = struct.unpack("<QQ8s", blob[-24:])
    toc = json.loads(blob[toc_offset:toc_offset + toc_length])
    return blob, toc_offset, toc


def _assert_one_shot_bytes(streamed, one_shot, seal):
    """The streamed file holds the one-shot save's bytes up to the TOC —
    magic, meta block, every frames and column block, at the same offsets —
    and the same TOC but for the stream's seal number."""
    stream_blob, stream_toc_offset, stream_toc = _final_seal(streamed)
    one_blob, one_toc_offset, one_toc = _final_seal(one_shot)
    assert stream_blob[:stream_toc_offset] == one_blob[:one_toc_offset]
    assert stream_toc.pop("seal") == seal
    assert stream_toc == one_toc


class TestCheckpointing:
    def test_every_sealed_prefix_is_a_valid_profile(self, tmp_path):
        tree = ShardedCallingContextTree("stream")
        writer = StreamingProfileWriter(ProfileDatabase(tree),
                                        str(tmp_path / "s.cctb"))
        prefixes = []
        for _step, (tid, module, kernel, value) in enumerate([
                (1, "conv", "k0", 1.0), (2, "norm", "k1", 2.0),
                (1, "linear", "k0", 0.5), (3, "conv", "k1", 4.0)]):
            _observe(tree, tid, module, kernel, value)
            writer.checkpoint()
            blob = open(writer.path, "rb").read()
            prefixes.append((blob, _state_snapshot(tree)))
        for index, (blob, expected) in enumerate(prefixes):
            prefix_path = str(tmp_path / f"prefix{index}.cctb")
            with open(prefix_path, "wb") as handle:
                handle.write(blob)
            assert detect_format(prefix_path) == "cct-binary-v1"
            restored = ProfileDatabase.load(prefix_path)
            assert _recovered_snapshot(restored) == expected

    def test_clean_shards_are_skipped(self, tmp_path):
        tree = ShardedCallingContextTree("stream")
        for tid in (1, 2, 3):
            _observe(tree, tid, "conv", "k0", float(tid))
        writer = StreamingProfileWriter(ProfileDatabase(tree),
                                        str(tmp_path / "s.cctb"))
        first = writer.checkpoint()
        assert first.dirty_shards == 3
        _observe(tree, 2, "norm", "k1", 9.0)  # dirties only shard 2
        second = writer.checkpoint()
        assert second.dirty_shards == 1
        assert second.clean_shards == 2
        assert second.bytes_appended < first.bytes_appended
        restored = ProfileDatabase.load(writer.path)
        assert _recovered_snapshot(restored) == _state_snapshot(tree)

    def test_metric_only_checkpoint_reuses_the_frame_table(self, tmp_path):
        tree = ShardedCallingContextTree("stream")
        _observe(tree, 1, "conv", "k0", 1.0)
        writer = StreamingProfileWriter(ProfileDatabase(tree),
                                        str(tmp_path / "s.cctb"))
        writer.checkpoint()
        shard = tree.shard_for_tid(1)
        shard.attribute(shard.kernels[0], M.METRIC_GPU_TIME, 2.5)
        stats = writer.checkpoint()
        assert stats.dirty_shards == 1
        assert stats.frames_blocks == 0  # no structural change: table reused
        assert stats.column_blocks > 0
        _observe(tree, 1, "linear", "k1", 0.5)  # structural change
        stats = writer.checkpoint()
        assert stats.frames_blocks == 1
        restored = ProfileDatabase.load(writer.path)
        assert _recovered_snapshot(restored) == _state_snapshot(tree)

    def test_untouched_tree_reseal_appends_only_meta_and_toc(self, tmp_path):
        tree = ShardedCallingContextTree("stream")
        _observe(tree, 1, "conv", "k0", 1.0)
        writer = StreamingProfileWriter(ProfileDatabase(tree),
                                        str(tmp_path / "s.cctb"))
        writer.checkpoint()
        stats = writer.checkpoint()
        assert stats.dirty_shards == 0
        assert stats.clean_shards == 1
        assert stats.frames_blocks == stats.column_blocks == 0

    def test_single_tree_streams_as_degenerate_shard(self, tmp_path):
        tree = CallingContextTree("single")
        node = tree.insert(_path(1, "conv", "k0"))
        tree.attribute(node, M.METRIC_GPU_TIME, 3.0)
        writer = StreamingProfileWriter(ProfileDatabase(tree),
                                        str(tmp_path / "s.cctb"))
        writer.checkpoint()
        writer.close()
        restored = ProfileDatabase.load(writer.path)
        assert isinstance(restored.tree.hydrate(), CallingContextTree)
        assert restored.total_gpu_time() == pytest.approx(3.0)

    def test_new_writer_preserves_existing_profile_until_first_seal(
            self, tmp_path):
        # A restart pointing at the same checkpoint_path must not destroy
        # the crashed run's recoverable profile before replacing it with a
        # valid one: the stream stages in a temp file and promotes on seal.
        path = str(tmp_path / "s.cctb")
        old_tree = ShardedCallingContextTree("previous-run")
        _observe(old_tree, 1, "conv", "k0", 7.0)
        old_writer = StreamingProfileWriter(ProfileDatabase(old_tree), path)
        old_writer.checkpoint()
        old_writer._handle.close()  # crash: no closing seal

        new_tree = ShardedCallingContextTree("restart")
        writer = StreamingProfileWriter(ProfileDatabase(new_tree), path)
        # Before the restart's first seal, the old profile is still there.
        recovered = recover_profile(path)
        assert recovered.total_gpu_time() == pytest.approx(7.0)
        old_view = LazyProfileView.attach(path)
        _observe(new_tree, 2, "norm", "k1", 1.0)
        writer.checkpoint()  # promotes the new stream over the path
        assert ProfileDatabase.load(path).total_gpu_time() == pytest.approx(1.0)
        # The reader attached to the old inode keeps working (never SIGBUSed
        # by an in-place truncate) until it refreshes onto the new file.
        assert old_view.total_metric(M.METRIC_GPU_TIME) == pytest.approx(7.0)
        assert old_view.refresh() is True
        assert old_view.total_metric(M.METRIC_GPU_TIME) == pytest.approx(1.0)
        writer.close()

    def test_closed_writer_rejects_checkpoints(self, tmp_path):
        writer = StreamingProfileWriter(
            ProfileDatabase(ShardedCallingContextTree("stream")),
            str(tmp_path / "s.cctb"))
        writer.close()
        with pytest.raises(RuntimeError, match="closed"):
            writer.checkpoint()

    def test_close_compacts_superseded_blocks(self, tmp_path):
        tree = ShardedCallingContextTree("stream")
        writer = StreamingProfileWriter(ProfileDatabase(tree),
                                        str(tmp_path / "s.cctb"))
        for round_index in range(6):
            _observe(tree, 1, "conv", f"k{round_index}", 1.0)
            writer.checkpoint()
        streamed_bytes = os.path.getsize(writer.path)
        expected = _state_snapshot(tree)
        writer.close(compact=True)
        compacted_bytes = os.path.getsize(writer.path)
        assert compacted_bytes < streamed_bytes
        assert writer.superseded_bytes == 0
        restored = ProfileDatabase.load(writer.path)
        assert _recovered_snapshot(restored) == expected
        # A compacted file keeps exactly the blocks a fresh one-shot save of
        # the live tree writes, byte for byte: the closing seal (number 6)
        # differs from that save only by its "seal" key.
        reference = str(tmp_path / "ref.cctb")
        ProfileDatabase(tree).save(reference, format="cct-binary-v1")
        assert _recovered_snapshot(ProfileDatabase.load(reference)) == expected
        _assert_one_shot_bytes(writer.path, reference, seal=6)

    @pytest.mark.parametrize("compression", [None, "zlib"])
    @pytest.mark.parametrize("sharded", [True, False],
                             ids=["sharded", "single"])
    def test_single_seal_stream_matches_one_shot_save(self, tmp_path,
                                                      sharded, compression):
        if sharded:
            tree = ShardedCallingContextTree("stream")
            for observation in [(1, "conv", "k0", 1.0),
                                (2, "norm", "k1", 2.0),
                                (1, "linear", "k1", 0.5)]:
                _observe(tree, *observation)
        else:
            tree = CallingContextTree("single")
            for module, kernel, value in [("conv", "k0", 1.0),
                                          ("norm", "k1", 2.0)]:
                node = tree.insert(_path(1, module, kernel))
                tree.attribute(node, M.METRIC_GPU_TIME, value)
        database = ProfileDatabase(tree)
        one_shot = database.save(str(tmp_path / "one.cctb"),
                                 format="cct-binary-v1",
                                 compression=compression)
        streamed = StreamingProfileWriter(database, str(tmp_path / "s.cctb"),
                                          compression=compression).close()
        _assert_one_shot_bytes(streamed, one_shot, seal=0)


class TestCrashRecovery:
    def _stream(self, tmp_path, rounds):
        """Stream one checkpoint per round; returns (path, [(seal_end,
        snapshot)])."""
        tree = ShardedCallingContextTree("stream")
        path = str(tmp_path / "s.cctb")
        writer = StreamingProfileWriter(ProfileDatabase(tree), path)
        seals = []
        for observations in rounds:
            for tid, module, kernel, value in observations:
                _observe(tree, tid, module, kernel, value)
            stats = writer.checkpoint()
            seals.append((stats.file_bytes, _state_snapshot(tree)))
        writer._handle.close()  # simulate a crash: no closing seal/compaction
        return path, seals

    def test_truncated_tail_recovers_previous_seal(self, tmp_path):
        path, seals = self._stream(tmp_path, [
            [(1, "conv", "k0", 1.0)], [(2, "norm", "k1", 2.0)],
            [(1, "linear", "k0", 0.5)]])
        blob = open(path, "rb").read()
        cut = seals[1][0] + 7  # mid-append of checkpoint 2's blocks
        truncated = str(tmp_path / "t.cctb")
        with open(truncated, "wb") as handle:
            handle.write(blob[:cut])
        with pytest.raises(ProfileFormatError, match="truncated"):
            ProfileDatabase.load(truncated)  # strict load refuses
        recovered = recover_profile(truncated)
        assert isinstance(recovered.tree, LazyProfileView)
        assert recovered.tree.seal_end == seals[1][0]
        assert _recovered_snapshot(recovered) == seals[1][1]

    def test_no_complete_seal_raises(self, tmp_path):
        path, seals = self._stream(tmp_path, [[(1, "conv", "k0", 1.0)]])
        blob = open(path, "rb").read()
        for cut in (48, seals[0][0] - 1):  # past the magic, before seal 0 ends
            truncated = str(tmp_path / f"t{cut}.cctb")
            with open(truncated, "wb") as handle:
                handle.write(blob[:cut])
            with pytest.raises(ProfileFormatError, match="no intact sealed"):
                recover_profile(truncated)

    def test_recover_rejects_non_binary_files(self, tmp_path):
        garbage = tmp_path / "g.bin"
        garbage.write_bytes(b"\x01\x02\x03 definitely not a binary profile, "
                            b"padded well past the minimum tail size")
        with pytest.raises(ProfileFormatError, match="magic"):
            recover_profile(str(garbage))
        stub = tmp_path / "stub.bin"
        stub.write_bytes(b"\x01\x02\x03")
        with pytest.raises(ProfileFormatError, match="too short"):
            recover_profile(str(stub))

    rounds_strategy = st.lists(
        st.lists(
            st.tuples(st.sampled_from([1, 2, 3]),
                      st.sampled_from(["conv", "linear", "norm"]),
                      st.sampled_from(["k0", "k1"]),
                      st.floats(min_value=0.0, max_value=1.0,
                                allow_nan=False)),
            min_size=0, max_size=6),
        min_size=1, max_size=5)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_truncate_anywhere_recovers_last_sealed_checkpoint(self, data):
        import shutil
        import tempfile

        rounds = data.draw(self.rounds_strategy)
        directory = tempfile.mkdtemp(prefix="stream-recovery-")
        try:
            from pathlib import Path
            path, seals = self._stream(Path(directory), rounds)
            file_bytes = os.path.getsize(path)
            assert file_bytes == seals[-1][0]  # crash wrote nothing extra
            cut = data.draw(st.integers(min_value=seals[0][0],
                                        max_value=file_bytes),
                            label="truncation offset")
            truncated = os.path.join(directory, "t.cctb")
            shutil.copyfile(path, truncated)
            with open(truncated, "r+b") as handle:
                handle.truncate(cut)
            recovered = recover_profile(truncated)
            expected_end, expected_snapshot = max(
                (seal for seal in seals if seal[0] <= cut),
                key=lambda seal: seal[0])
            assert recovered.tree.seal_end == expected_end
            # Bit-for-bit: binary columns round-trip exact Welford states.
            assert _recovered_snapshot(recovered) == expected_snapshot
        finally:
            shutil.rmtree(directory, ignore_errors=True)


class TestLiveAttach:
    def test_attach_follows_a_growing_stream(self, tmp_path):
        tree = ShardedCallingContextTree("stream")
        _observe(tree, 1, "conv", "k0", 1.0)
        writer = StreamingProfileWriter(ProfileDatabase(tree),
                                        str(tmp_path / "s.cctb"))
        writer.checkpoint()
        view = LazyProfileView.attach(writer.path)
        assert view.total_metric(M.METRIC_GPU_TIME) == pytest.approx(1.0)

        _observe(tree, 2, "norm", "k1", 2.0)
        writer.checkpoint()
        assert view.total_metric(M.METRIC_GPU_TIME) == pytest.approx(1.0)
        assert view.refresh() is True
        assert view.total_metric(M.METRIC_GPU_TIME) == pytest.approx(3.0)
        assert view.shard_count() == 2
        assert view.refresh() is False  # no new seal since

    def test_attach_tolerates_partial_append_in_flight(self, tmp_path):
        tree = ShardedCallingContextTree("stream")
        _observe(tree, 1, "conv", "k0", 1.0)
        writer = StreamingProfileWriter(ProfileDatabase(tree),
                                        str(tmp_path / "s.cctb"))
        stats = writer.checkpoint()
        # Simulate a half-flushed append after the seal (writer mid-block).
        with open(writer.path, "ab") as handle:
            handle.write(b"\x00" * 129)
        view = LazyProfileView.attach(writer.path)
        assert view.seal_end == stats.file_bytes
        assert view.total_metric(M.METRIC_GPU_TIME) == pytest.approx(1.0)

    def test_refresh_survives_compaction(self, tmp_path):
        tree = ShardedCallingContextTree("stream")
        _observe(tree, 1, "conv", "k0", 1.0)
        writer = StreamingProfileWriter(ProfileDatabase(tree),
                                        str(tmp_path / "s.cctb"))
        writer.checkpoint()
        _observe(tree, 1, "linear", "k1", 2.0)
        writer.checkpoint()
        view = LazyProfileView.attach(writer.path)
        view.aggregate_by_name(metric=M.METRIC_GPU_TIME)  # decode something
        writer.close(compact=True)  # replaces the file with a compacted one
        assert view.refresh() is True
        assert view.total_metric(M.METRIC_GPU_TIME) == pytest.approx(3.0)
        assert _recovered_snapshot(
            ProfileDatabase(view)) == _state_snapshot(tree)

    def test_refresh_reuses_unchanged_shard_decodes(self, tmp_path):
        tree = ShardedCallingContextTree("stream")
        _observe(tree, 1, "conv", "k0", 1.0)
        _observe(tree, 2, "norm", "k1", 2.0)
        writer = StreamingProfileWriter(ProfileDatabase(tree),
                                        str(tmp_path / "s.cctb"))
        writer.checkpoint()
        view = LazyProfileView.attach(writer.path)
        TELEMETRY.reset()
        TELEMETRY.enable()
        try:
            def blocks_read(shard_id):
                before = TELEMETRY.counter_value("storage.blocks_decoded")
                view.shard_aggregate_by_name(shard_id, metric=M.METRIC_GPU_TIME)
                return TELEMETRY.counter_value("storage.blocks_decoded") - before

            assert blocks_read(1) == 2  # frames block (name index) + column
            _observe(tree, 2, "conv", "k0", 4.0)  # shard 1 untouched
            writer.checkpoint()
            assert view.refresh() is True
            # Shard 1's blocks were carried forward: its name index is still
            # warm, so only its column is read again; shard 2 changed and
            # reads both blocks.
            assert blocks_read(1) == 1
            assert blocks_read(2) == 2
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
        assert view.decoded_shard_ids() == set()
        assert not view.hydrated
        assert view.total_metric(M.METRIC_GPU_TIME) == pytest.approx(7.0)

    def test_top_kernels_follows_refresh(self, tmp_path):
        tree = ShardedCallingContextTree("stream")
        _observe(tree, 1, "conv", "k0", 1.0)
        writer = StreamingProfileWriter(ProfileDatabase(tree),
                                        str(tmp_path / "s.cctb"))
        writer.checkpoint()
        database = ProfileDatabase(LazyProfileView.attach(writer.path))
        assert [(row["kernel"], row["gpu_time"])
                for row in database.top_kernels(5)] == [("k0", 1.0)]
        _observe(tree, 1, "linear", "k_new", 5.0)
        writer.checkpoint()
        assert database.tree.refresh() is True
        # The same database answers from the new seal, like a fresh attach.
        fresh = ProfileDatabase(LazyProfileView.attach(writer.path))
        assert database.top_kernels(5) == fresh.top_kernels(5)
        assert [(row["kernel"], row["gpu_time"])
                for row in database.top_kernels(5)] == [("k_new", 5.0),
                                                        ("k0", 1.0)]
        fresh.tree.close()
        database.tree.close()
        writer.close()


class TestRefreshRacingWriter:
    """An attached view racing the writer's reseal must degrade, not crash.

    The fleet watcher polls :meth:`LazyProfileView.refresh` against files a
    producer may be tearing that very moment; these tests drive the race
    through the fault injector instead of hand-crafted garbage.
    """

    def test_torn_reseal_degrades_to_last_sealed_prefix(self, tmp_path):
        # Dry run: how many writes does the first checkpoint take?
        dry_dir = tmp_path / "dry"
        dry_dir.mkdir()
        dry = FaultPlan()
        with FaultInjector(dry_dir, dry):
            tree = ShardedCallingContextTree("stream")
            _observe(tree, 1, "conv", "k0", 1.0)
            writer = StreamingProfileWriter(
                ProfileDatabase(tree), os.path.join(str(dry_dir), "s.cctb"))
            writer.checkpoint()
        first_checkpoint_writes = dry.counts["write"]

        # Real run: the producer dies on a torn write two appends into its
        # second checkpoint, leaving a torn tail past the first seal.
        workdir = tmp_path / "torn"
        workdir.mkdir()
        path = os.path.join(str(workdir), "s.cctb")
        plan = FaultPlan([torn_write(first_checkpoint_writes + 2, keep=5)])
        tree = ShardedCallingContextTree("stream")
        with FaultInjector(workdir, plan):
            _observe(tree, 1, "conv", "k0", 1.0)
            writer = StreamingProfileWriter(ProfileDatabase(tree), path)
            writer.checkpoint()
            sealed = _state_snapshot(tree)
            view = LazyProfileView.attach(path)
            assert view.total_metric(M.METRIC_GPU_TIME) == pytest.approx(1.0)
            _observe(tree, 2, "norm", "k1", 2.0)
            with pytest.raises(InjectedCrash):
                writer.checkpoint()
        assert plan.tripped

        # The watcher's next poll: refresh sees the torn tail, recovers the
        # first seal, and keeps serving it — no advance, no exception.
        assert view.refresh() is False
        assert view.total_metric(M.METRIC_GPU_TIME) == pytest.approx(1.0)
        assert _recovered_snapshot(ProfileDatabase(view)) == sealed

    def test_short_read_mid_refresh_probe_degrades(self, tmp_path):
        tree = ShardedCallingContextTree("stream")
        _observe(tree, 1, "conv", "k0", 1.0)
        path = str(tmp_path / "s.cctb")
        writer = StreamingProfileWriter(ProfileDatabase(tree), path)
        writer.checkpoint()
        view = LazyProfileView.attach(path)

        # The idle-poll probe read comes back short: the fast path cannot
        # trust its tail compare, so refresh falls through to the full
        # recovering reopen — and still answers "no new seal" quietly.
        plan = FaultPlan([short_read(1, keep=4, match="s.cctb")])
        with FaultInjector(str(tmp_path), plan):
            assert view.refresh() is False
        assert plan.tripped
        assert view.total_metric(M.METRIC_GPU_TIME) == pytest.approx(1.0)

        # With the fault spent, later polls still follow real seals.
        _observe(tree, 2, "norm", "k1", 2.0)
        writer.checkpoint()
        assert view.refresh() is True
        assert view.total_metric(M.METRIC_GPU_TIME) == pytest.approx(3.0)
        writer.close()

    def test_idle_refresh_fast_path_answers_from_the_tail(self, tmp_path):
        tree = ShardedCallingContextTree("stream")
        _observe(tree, 1, "conv", "k0", 1.0)
        path = str(tmp_path / "s.cctb")
        writer = StreamingProfileWriter(ProfileDatabase(tree), path)
        writer.checkpoint()
        view = LazyProfileView.attach(path)

        # An unchanged file is answered with one stat + one tail read — the
        # operation counters show no second open (the full reopen would
        # re-open the file and mmap it again).
        plan = FaultPlan()
        with FaultInjector(str(tmp_path), plan):
            for _ in range(3):
                assert view.refresh() is False
        assert plan.counts.get("read", 0) == 3  # one probe per idle poll
        writer.close()


class TestWriterFailures:
    ROUNDS = [(1, "conv", "k0", 1.0), (2, "norm", "k1", 2.0),
              (1, "linear", "k1", 0.5)]

    def test_failed_first_write_leaves_nothing_behind(self, tmp_path):
        # A full disk when the profiler starts streaming: the staged file
        # must not outlive the error.
        plan = FaultPlan([enospc_at_write(1, keep=3)])
        with FaultInjector(str(tmp_path), plan):
            with pytest.raises(OSError) as excinfo:
                StreamingProfileWriter(
                    ProfileDatabase(ShardedCallingContextTree("stream")),
                    str(tmp_path / "s.cctb"))
        assert excinfo.value.errno == errno.ENOSPC
        assert plan.tripped
        assert os.listdir(tmp_path) == []

    def _stream(self, directory):
        tree = ShardedCallingContextTree("stream")
        writer = StreamingProfileWriter(ProfileDatabase(tree),
                                        str(directory / "s.cctb"))
        for observation in self.ROUNDS:
            _observe(tree, *observation)
            writer.checkpoint()
        return tree, writer

    def test_failed_compaction_leaves_close_retryable(self, tmp_path):
        # Dry run: how many writes do the checkpoints and the closing seal
        # take?  The fault then hits compaction's first copied block.
        dry_dir = tmp_path / "dry"
        dry_dir.mkdir()
        dry = FaultPlan()
        with FaultInjector(str(dry_dir), dry):
            _tree, writer = self._stream(dry_dir)
            writer.close(compact=False)
        sealed_writes = dry.counts["write"]

        workdir = tmp_path / "enospc"
        workdir.mkdir()
        plan = FaultPlan([enospc_at_write(sealed_writes + 2)])
        with FaultInjector(str(workdir), plan):
            tree, writer = self._stream(workdir)
            with pytest.raises(OSError) as excinfo:
                writer.close(compact=True, mark_complete=True)
        assert excinfo.value.errno == errno.ENOSPC
        assert plan.tripped and not writer.closed
        path = writer.path
        streamed_bytes = os.path.getsize(path)
        assert sorted(os.listdir(workdir)) == ["s.cctb"]
        final = ProfileDatabase.load(path)
        assert final.tree._toc["seal"] == len(self.ROUNDS)  # the closing seal
        assert _recovered_snapshot(final) == _state_snapshot(tree)
        final.tree.close()
        with pytest.raises(RuntimeError, match="closed"):
            writer.checkpoint()  # the closing seal has landed

        # The retry skips the seal that already landed and compacts.
        assert writer.close(compact=True, mark_complete=True) == path
        assert writer.closed and writer.superseded_bytes == 0
        assert os.path.getsize(path) < streamed_bytes
        assert is_marked_complete(path)
        assert _recovered_snapshot(ProfileDatabase.load(path)) == \
            _state_snapshot(tree)


class TestCompletionMarker:
    def test_close_mark_complete_writes_sidecar(self, tmp_path):
        tree = ShardedCallingContextTree("stream")
        _observe(tree, 1, "conv", "k0", 1.0)
        path = str(tmp_path / "s.cctb")
        writer = StreamingProfileWriter(ProfileDatabase(tree), path)
        writer.checkpoint()
        assert not is_marked_complete(path)
        writer.close(mark_complete=True)
        assert is_marked_complete(path)
        payload = json.load(open(completion_marker_path(path)))
        assert payload["profile"] == os.path.basename(path)
        assert payload["checkpoints"] >= 1
        assert payload["completed_at"] > 0

    def test_plain_close_leaves_no_marker(self, tmp_path):
        tree = ShardedCallingContextTree("stream")
        _observe(tree, 1, "conv", "k0", 1.0)
        path = str(tmp_path / "s.cctb")
        writer = StreamingProfileWriter(ProfileDatabase(tree), path)
        writer.checkpoint()
        writer.close()
        assert not is_marked_complete(path)

    def test_crashed_run_never_marks_complete(self, tmp_path):
        # The marker's whole value: a producer that dies mid-close leaves
        # none, so a watcher falls back to its settle heuristic.
        plan = FaultPlan([torn_write(2, keep=3)])
        path = os.path.join(str(tmp_path), "s.cctb")
        tree = ShardedCallingContextTree("stream")
        with FaultInjector(str(tmp_path), plan):
            _observe(tree, 1, "conv", "k0", 1.0)
            writer = StreamingProfileWriter(ProfileDatabase(tree), path)
            with pytest.raises(InjectedCrash):
                writer.close(mark_complete=True)
        assert plan.tripped
        assert not is_marked_complete(path)


class TestProfilerIntegration:
    def test_profiler_streams_and_recovers(self, tmp_path):
        from repro.experiments.runner import (PROFILER_DEEPCONTEXT,
                                              run_named_workload)
        checkpoint_path = str(tmp_path / "live.cctb")
        result = run_named_workload(
            "gnn", profiler=PROFILER_DEEPCONTEXT, iterations=2,
            checkpoint_path=checkpoint_path,
            checkpoint_interval_s=1e-9)  # every iteration reseals
        # Initial seal + one per iteration + closing seal.
        assert result.extra["profile_checkpoints"] >= 4.0
        assert result.extra["checkpoint_file_bytes"] > 0
        streamed = ProfileDatabase.load(checkpoint_path)
        assert streamed.metadata.iterations == result.iterations
        assert streamed.total_gpu_time() == pytest.approx(
            result.database.total_gpu_time())
        recovered = recover_profile(checkpoint_path)
        assert recovered.total_gpu_time() == pytest.approx(
            result.database.total_gpu_time())

    def test_checkpoint_path_without_deepcontext_is_rejected(self, tmp_path):
        from repro.experiments.runner import run_named_workload
        with pytest.raises(ValueError, match="checkpoint_path requires"):
            run_named_workload("gnn", iterations=1,
                               checkpoint_path=str(tmp_path / "x.cctb"))

    def test_explicit_checkpoint_requires_configuration(self):
        from repro.core import DeepContextProfiler
        from repro.framework.eager import EagerEngine
        profiler = DeepContextProfiler(EagerEngine("a100"), ProfilerConfig())
        with pytest.raises(RuntimeError, match="checkpoint_path"):
            profiler.checkpoint()

    def test_profiler_config_compression_flows_into_stream(self, tmp_path):
        from repro.experiments.runner import (PROFILER_DEEPCONTEXT,
                                              run_named_workload)
        checkpoint_path = str(tmp_path / "live.cctb")
        result = run_named_workload(
            "gnn", profiler=PROFILER_DEEPCONTEXT, iterations=1,
            checkpoint_path=checkpoint_path, profile_compression="zlib")
        loaded = ProfileDatabase.load(checkpoint_path)
        assert loaded.total_gpu_time() == pytest.approx(
            result.database.total_gpu_time())
        compressed = [descriptor
                      for shard in loaded.tree._shards.values()
                      for descriptor in (shard.entry["frames"],
                                         *shard.entry["columns"].values())
                      if descriptor.get("compression") == "zlib"]
        assert compressed  # blocks really carry the flag
