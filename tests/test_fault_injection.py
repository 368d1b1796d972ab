"""Fault-injection suite: scripted failures against the durability promises.

The property under test, from the durability hardening work: for any
scripted crash, torn write, ENOSPC or bit flip during a streamed run,
recovery yields exactly the last intact sealed checkpoint — bit-for-bit
equal Welford states — or a *named* error (``ProfileCorruptionError`` /
``ProfileFormatError``), never a silently wrong profile.  The
:mod:`repro.core.faultfs` harness makes the failure points deterministic,
so the crash sweep here literally visits every write the workload performs.
"""

import errno
import os
import struct

import pytest

from repro.core import (
    ProfileCorruptionError,
    ProfileDatabase,
    ProfileFormatError,
    StreamingProfileWriter,
    recover_profile,
    save_binary,
)
from repro.core import metrics as M
from repro.core.cct import ShardedCallingContextTree
from repro.core.faultfs import (
    FaultInjector,
    FaultPlan,
    InjectedCrash,
    crash_at_write,
    enospc_at_write,
    flip_bit,
    short_read,
    torn_write,
    truncate_file,
)
from repro.dlmonitor.callpath import (
    CallPath,
    framework_frame,
    gpu_kernel_frame,
    python_frame,
    root_frame,
    thread_frame,
)
from repro.fleet import ProfileStore

THREAD_NAMES = {1: "main", 2: "backward-0", 3: "worker-0"}

#: The deterministic streamed workload: observation rounds, one checkpoint
#: after each.  Three shards, repeated paths, metric-only updates — enough
#: to exercise fresh frame tables, carried-forward blocks and compaction.
ROUNDS = [
    [(1, "conv", "k0", 1.0), (2, "norm", "k1", 2.0)],
    [(1, "linear", "k0", 0.5), (3, "conv", "k1", 4.0)],
    [(2, "conv", "k0", 3.5), (1, "conv", "k0", 2.25)],
]


def _path(tid: int, module: str, kernel: str) -> CallPath:
    return CallPath.of([
        root_frame("fault"), thread_frame(THREAD_NAMES[tid], tid),
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
    hydrated = tree.hydrate() if hasattr(tree, "hydrate") else tree
    return _state_snapshot(hydrated)


def _run_workload(directory, plan, compact=True):
    """Drive the workload under ``plan``; ``(path, sealed, crashed)``.

    ``sealed[i]`` is the live tree's exact state snapshot at the i-th
    completed seal; ``crashed`` says an injected fault killed the run.
    The writer is constructed *inside* the injector so its append handle
    is the faulted one.
    """
    path = os.path.join(str(directory), "stream.cctb")
    tree = ShardedCallingContextTree("fault")
    sealed = []
    crashed = False
    with FaultInjector(directory, plan):
        try:
            writer = StreamingProfileWriter(ProfileDatabase(tree), path)
            for round_ in ROUNDS:
                for observation in round_:
                    _observe(tree, *observation)
                writer.checkpoint()
                sealed.append(_state_snapshot(tree))
            writer.close(compact=compact)
        except InjectedCrash:
            crashed = True
    return path, sealed, crashed


def _assert_recovers_last_seal(path, sealed):
    """The core durability property at one crash point."""
    if sealed:
        assert os.path.exists(path), \
            "a completed seal promoted the stream, the file must exist"
        restored = recover_profile(path)
        assert _recovered_snapshot(restored) == sealed[-1]
    else:
        # Crash before the first seal completed: the target path was never
        # promoted — recovery is a named error, not a wrong profile.
        with pytest.raises((ProfileFormatError, OSError)):
            recover_profile(path)


class TestCrashSweep:
    def test_crash_at_every_write_recovers_the_last_seal(self, tmp_path):
        dry_dir = tmp_path / "dry"
        dry_dir.mkdir()
        dry = FaultPlan()
        path, sealed, crashed = _run_workload(dry_dir, dry)
        assert not crashed and len(sealed) == len(ROUNDS)
        assert _recovered_snapshot(recover_profile(path)) == sealed[-1]
        total_writes = dry.counts["write"]
        assert 10 < total_writes < 200  # sweep domain stays tractable

        for k in range(1, total_writes + 1):
            workdir = tmp_path / f"crash{k}"
            workdir.mkdir()
            plan = FaultPlan([crash_at_write(k)])
            path, sealed, crashed = _run_workload(workdir, plan)
            assert crashed and plan.tripped, f"write #{k} never happened"
            assert plan.dead
            _assert_recovers_last_seal(path, sealed)

    def test_torn_writes_recover_the_last_seal(self, tmp_path):
        dry_dir = tmp_path / "dry"
        dry_dir.mkdir()
        dry = FaultPlan()
        _run_workload(dry_dir, dry)
        total_writes = dry.counts["write"]

        points = sorted({2, total_writes // 3, total_writes // 2,
                         total_writes - 1, total_writes})
        for k in points:
            workdir = tmp_path / f"torn{k}"
            workdir.mkdir()
            plan = FaultPlan([torn_write(k, keep=1 + k % 7)])
            path, sealed, crashed = _run_workload(workdir, plan)
            assert crashed and plan.tripped
            _assert_recovers_last_seal(path, sealed)

    def test_dead_writer_stays_dead(self, tmp_path):
        """After a crash every further I/O on injected files fails too."""
        workdir = tmp_path / "dead"
        workdir.mkdir()
        plan = FaultPlan([crash_at_write(1)])
        with FaultInjector(workdir, plan):
            with pytest.raises(InjectedCrash):
                StreamingProfileWriter(
                    ProfileDatabase(ShardedCallingContextTree("fault")),
                    os.path.join(str(workdir), "s.cctb"))
            with pytest.raises(InjectedCrash):
                with open(os.path.join(str(workdir), "other.bin"),
                          "wb") as handle:
                    handle.write(b"x")


class TestEnospc:
    def test_enospc_checkpoint_is_retryable(self, tmp_path):
        # Measure how many writes the first two checkpoints take, then
        # script ENOSPC two writes into the third.
        dry_dir = tmp_path / "dry"
        dry_dir.mkdir()
        dry = FaultPlan()
        per_checkpoint = []
        with FaultInjector(dry_dir, dry):
            tree = ShardedCallingContextTree("fault")
            writer = StreamingProfileWriter(
                ProfileDatabase(tree), os.path.join(str(dry_dir), "s.cctb"))
            for round_ in ROUNDS:
                for observation in round_:
                    _observe(tree, *observation)
                writer.checkpoint()
                per_checkpoint.append(dry.counts["write"])
            writer.close(compact=False)

        workdir = tmp_path / "enospc"
        workdir.mkdir()
        path = os.path.join(str(workdir), "stream.cctb")
        plan = FaultPlan([enospc_at_write(per_checkpoint[1] + 2, keep=3)])
        tree = ShardedCallingContextTree("fault")
        sealed = []
        with FaultInjector(workdir, plan):
            writer = StreamingProfileWriter(ProfileDatabase(tree), path)
            for round_ in ROUNDS[:2]:
                for observation in round_:
                    _observe(tree, *observation)
                writer.checkpoint()
                sealed.append(_state_snapshot(tree))
            for observation in ROUNDS[2]:
                _observe(tree, *observation)
            with pytest.raises(OSError) as excinfo:
                writer.checkpoint()
            assert excinfo.value.errno == errno.ENOSPC
            assert not isinstance(excinfo.value, InjectedCrash)
            assert plan.tripped and not plan.dead

            # Mid-failure the file still recovers at the second seal …
            assert _recovered_snapshot(recover_profile(path)) == sealed[-1]

            # … and once space frees up the same writer seals cleanly.
            stats = writer.checkpoint()
            assert stats.seal == 2
            final = _state_snapshot(tree)
            writer.close(compact=True)
        assert _recovered_snapshot(ProfileDatabase.load(path)) == final


class TestShortReads:
    def _small_database(self):
        tree = ShardedCallingContextTree("fault")
        for observation in ROUNDS[0]:
            _observe(tree, *observation)
        return ProfileDatabase(tree)

    def test_short_read_during_detection_is_a_named_error(self, tmp_path):
        path = str(tmp_path / "p.cctb")
        save_binary(self._small_database(), path)
        plan = FaultPlan([short_read(1, keep=4)])
        with FaultInjector(tmp_path, plan):
            with pytest.raises(ProfileFormatError):
                ProfileDatabase.load(path)
        assert plan.tripped
        ProfileDatabase.load(path)  # the file itself was never harmed

    def test_short_read_during_ingest_is_caught_by_scrub(self, tmp_path):
        """A truncated digest read mislabels the content address; the store
        detects the mismatch post hoc and quarantines the run."""
        root = tmp_path / "store"
        store = ProfileStore(str(root))
        plan = FaultPlan([short_read(1, keep=0, match=".ingest-")])
        with FaultInjector(root, plan):
            record = store.ingest(self._small_database(), workload="resnet")
        assert plan.tripped

        message = store.verify_run(record.run_id)
        assert message is not None and "content address" in message
        report = store.scrub()
        assert [run_id for run_id, _ in report.quarantined] == [record.run_id]
        assert not store.get(record.run_id).healthy


class TestIngestCrash:
    def _database(self, value):
        tree = ShardedCallingContextTree("fault")
        _observe(tree, 1, "conv", "k0", value)
        return ProfileDatabase(tree)

    def test_crash_during_ingest_leaves_catalog_unchanged(self, tmp_path):
        root = tmp_path / "store"
        store = ProfileStore(str(root))
        first = store.ingest(self._database(1.0), workload="resnet")

        plan = FaultPlan([crash_at_write(1, match=".ingest-")])
        with FaultInjector(root, plan):
            with pytest.raises(InjectedCrash):
                store.ingest(self._database(2.0), workload="bert")
        assert plan.tripped

        reloaded = ProfileStore(str(root))
        assert [record.run_id for record in reloaded.runs()] == [first.run_id]
        leftovers = [name for name in os.listdir(root / "profiles")
                     if name.startswith(".ingest")]
        assert leftovers == []

    def test_enospc_during_catalog_write_is_retryable(self, tmp_path):
        """The profile file lands before the catalog write; a failed catalog
        write loses the record but re-ingest restores it (same digest)."""
        root = tmp_path / "store"
        store = ProfileStore(str(root))
        plan = FaultPlan([enospc_at_write(1, match="catalog.json")])
        with FaultInjector(root, plan):
            with pytest.raises(OSError) as excinfo:
                store.ingest(self._database(1.0), workload="resnet")
        assert excinfo.value.errno == errno.ENOSPC
        assert plan.tripped

        reloaded = ProfileStore(str(root))
        assert len(reloaded) == 0  # record lost with the failed write …
        record = reloaded.ingest(self._database(1.0), workload="resnet")
        assert len(reloaded) == 1  # … and re-ingest lands it again
        assert reloaded.verify_run(record.run_id) is None


class TestBitRot:
    def _sealed_profile(self, directory):
        """Run the workload cleanly and compact; expected final snapshot."""
        path, sealed, crashed = _run_workload(directory, FaultPlan())
        assert not crashed
        return path, sealed[-1]

    def test_every_flipped_bit_in_the_block_region_is_detected(
            self, tmp_path):
        workdir = tmp_path / "rot"
        workdir.mkdir()
        path, _expected = self._sealed_profile(workdir)
        with open(path, "rb") as handle:
            pristine = handle.read()
        toc_offset, _toc_length, _magic = struct.unpack("<QQ8s",
                                                        pristine[-24:])
        target = str(tmp_path / "flipped.cctb")
        # After compaction every byte in [8, toc_offset) belongs to a
        # checksummed block; a flip anywhere in there must be *detected* by
        # a full read, never silently aggregated.
        for offset in range(8, toc_offset, 7):
            with open(target, "wb") as handle:
                handle.write(pristine)
            flip_bit(target, offset, bit=offset % 8)
            with pytest.raises(ProfileCorruptionError):
                database = ProfileDatabase.load(target)
                view = database.tree
                for metric in view.metric_names():
                    view.total_metric(metric)
                view.hydrate()

    def test_corruption_error_names_file_block_and_offset(self, tmp_path):
        workdir = tmp_path / "rot"
        workdir.mkdir()
        path, _expected = self._sealed_profile(workdir)
        with open(path, "rb") as handle:
            pristine = handle.read()
        toc_offset, _toc_length, _magic = struct.unpack("<QQ8s",
                                                        pristine[-24:])
        flip_bit(path, toc_offset - 1)  # last byte of the last block
        with pytest.raises(ProfileCorruptionError) as excinfo:
            database = ProfileDatabase.load(path)
            view = database.tree
            for metric in view.metric_names():
                view.total_metric(metric)
            view.hydrate()
        message = str(excinfo.value)
        assert os.path.basename(path) in message or path in message
        assert "offset" in message and "CRC-32" in message

    def test_flip_in_the_tail_magic_is_a_named_error(self, tmp_path):
        workdir = tmp_path / "rot"
        workdir.mkdir()
        path, _expected = self._sealed_profile(workdir)
        flip_bit(path, os.path.getsize(path) - 3)  # inside the tail magic
        with pytest.raises(ProfileFormatError):
            ProfileDatabase.load(path)
        with pytest.raises(ProfileFormatError):
            recover_profile(path)  # single seal, nothing older to fall to

    def test_rotted_final_toc_recovers_the_previous_seal(self, tmp_path):
        workdir = tmp_path / "rot"
        workdir.mkdir()
        # Keep every seal (no compaction) so there is something to fall to.
        path, sealed, crashed = _run_workload(workdir, FaultPlan(),
                                              compact=False)
        assert not crashed
        with open(path, "rb") as handle:
            handle.seek(-24, os.SEEK_END)
            toc_offset, _toc_length, _magic = struct.unpack(
                "<QQ8s", handle.read(24))
        flip_bit(path, toc_offset)  # breaks the final (closing) seal's TOC
        with pytest.raises(ProfileFormatError):
            ProfileDatabase.load(path)
        restored = recover_profile(path)
        # The closing seal (number len(ROUNDS)) is rotten; recovery lands on
        # the last round's seal, whose state equals the final live state.
        assert restored.tree._toc["seal"] == len(ROUNDS) - 1
        assert _recovered_snapshot(restored) == sealed[-1]

    def test_truncation_mid_tail_recovers_the_previous_seal(self, tmp_path):
        workdir = tmp_path / "rot"
        workdir.mkdir()
        path, sealed, crashed = _run_workload(workdir, FaultPlan(),
                                              compact=False)
        assert not crashed
        truncate_file(path, os.path.getsize(path) - 10)  # tear the tail
        restored = recover_profile(path)
        assert restored.tree._toc["seal"] == len(ROUNDS) - 1
        assert _recovered_snapshot(restored) == sealed[-1]


class TestInjectorHygiene:
    def test_files_outside_the_root_are_untouched(self, tmp_path):
        inside = tmp_path / "inside"
        inside.mkdir()
        outside = tmp_path / "outside.txt"
        plan = FaultPlan([crash_at_write(1)])
        with FaultInjector(inside, plan):
            with open(outside, "w") as handle:
                handle.write("fine")
        assert outside.read_text() == "fine"
        assert not plan.tripped and not plan.counts

    def test_injector_is_not_reentrant(self, tmp_path):
        injector = FaultInjector(tmp_path, FaultPlan())
        with injector:
            with pytest.raises(RuntimeError):
                injector.__enter__()

    def test_open_is_restored_after_exit(self, tmp_path):
        import builtins
        original = builtins.open
        with FaultInjector(tmp_path, FaultPlan()):
            assert builtins.open is not original
        assert builtins.open is original

    def test_unfired_faults_are_visible(self, tmp_path):
        plan = FaultPlan([crash_at_write(10_000)])
        with FaultInjector(tmp_path, plan):
            with open(tmp_path / "f.bin", "wb") as handle:
                handle.write(b"data")
        assert plan.counts["write"] == 1
        assert not plan.tripped and not plan.dead
