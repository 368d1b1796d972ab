"""Streaming profile collection: checkpointed append-then-reseal writing.

Long training runs cannot afford the seed pipeline's "hold everything in
memory, serialize once at the end" model — a crash at hour three loses the
whole profile.  :class:`StreamingProfileWriter` instead checkpoints a live
:class:`~repro.core.database.ProfileDatabase` into a single growing
``cct-binary-v1`` file:

* each **checkpoint** appends only the *dirty* shards' frame-table/column
  blocks (shard generation counters tell clean shards apart, and a shard
  whose node count is unchanged — metric-only mutation — reuses its sealed
  frame table and appends just columns), then **reseals** the file by
  appending a fresh meta block, a TOC whose entries point at the freshest
  block per shard, and the 24-byte tail;
* because sealed blocks are never rewritten, **every sealed prefix is a
  valid profile**: ``ProfileDatabase.load`` reads the newest seal at EOF,
  ``repro.core.storage.recover_profile`` finds the last intact seal of an
  arbitrarily truncated crash leftover, and ``LazyProfileView.attach`` /
  ``refresh`` let another process query the run in flight;
* the final :meth:`close` writes the closing seal and (by default)
  **compacts** the file — superseded blocks are dropped by copying only the
  live byte ranges into a fresh single-seal file, no re-encoding.

This module owns the streaming *policy* — which shards to re-encode, when
to seal, rewind and compact.  Every byte of the file is written by
:class:`repro.core.storage.SealWriter`, the same writer a one-shot save
uses, so streamed and one-shot files share one layout definition.

The profiler drives this through ``ProfilerConfig.checkpoint_path`` /
``checkpoint_interval_s``; the layout is specified in ``docs/FORMATS.md``.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Dict, Optional

from ..obs import TELEMETRY
from .database import ProfileDatabase
from .storage import SealWriter, ShardBlocks, atomic_write, check_compression

#: Sidecar suffix marking a streamed run as finished (see
#: :func:`completion_marker_path`).
DONE_SUFFIX = ".done"


def completion_marker_path(path: str) -> str:
    """The sidecar path marking the streamed profile at ``path`` complete."""
    return f"{path}{DONE_SUFFIX}"


def is_marked_complete(path: str) -> bool:
    """Whether the streamed profile at ``path`` carries a completion marker."""
    return os.path.exists(completion_marker_path(path))


@dataclass
class CheckpointStats:
    """What one checkpoint did (observability for tests and benchmarks)."""

    #: 0-based index of the seal this checkpoint wrote.
    seal: int
    #: Shards whose blocks were (at least partly) re-encoded and appended.
    dirty_shards: int
    #: Shards untouched since the previous seal: no bytes appended, their
    #: TOC entries carry the previous blocks forward.
    clean_shards: int
    #: Frame tables re-encoded (0 for metric-only checkpoints: an unchanged
    #: node count means an identical frame table, which is reused).
    frames_blocks: int
    #: Metric column blocks appended.
    column_blocks: int
    #: Bytes this checkpoint appended (blocks + meta + TOC + tail).
    bytes_appended: int
    #: Total file size after the seal.
    file_bytes: int
    #: Wall-clock seconds the checkpoint took.
    wall_seconds: float


class StreamingProfileWriter:
    """Incrementally persist a live profile as a resealable binary stream.

    The writer owns the file at ``path`` from construction until
    :meth:`close`, and appends *in place* between seals — the visible,
    growing file is the whole point: it is what crash recovery and live
    attach read.  Construction, however, never touches an existing file at
    ``path``: the stream starts in a sibling temp file that is atomically
    promoted over ``path`` when the first seal completes, so a previous
    (crashed) run's recoverable profile survives until this run has produced
    a valid profile of its own, and readers still mapping the old inode are
    never invalidated.  Call :meth:`checkpoint` as often as durability
    demands; the cost of each call is proportional to the shards that
    changed, not to the profile.

    ``database.tree`` may be a sharded or a plain tree (a plain tree streams
    as the degenerate single shard).  ``compression`` applies per appended
    block (``"zlib"`` or None) and may be changed between checkpoints —
    readers honour each block's own descriptor flag.
    """

    def __init__(self, database: ProfileDatabase, path: str,
                 compression: Optional[str] = None,
                 fsync: bool = False) -> None:
        self.database = database
        self.path = path
        self.compression = check_compression(compression)
        self._fsync = fsync
        #: Until the first seal completes the stream lives here, keeping any
        #: existing (recoverable) profile at ``path`` intact; the first
        #: ``checkpoint`` promotes it with ``os.replace``.
        self._pending_path: Optional[str] = f"{path}.stream.tmp"
        self._handle = open(self._pending_path, "wb")
        try:
            self._writer = SealWriter(self._handle, self.compression)
        except BaseException:
            # A full disk at the very first write: leave nothing behind.
            self._handle.close()
            os.unlink(self._pending_path)
            raise
        #: File offset just past the last completed seal's tail: everything
        #: at or beyond it is unsealed and may be discarded by
        #: :meth:`_rewind` after a failed append.
        self._sealed_offset = self._writer.offset
        #: Per-shard (generation, node count) snapshot at the last seal.
        self._shard_states: Dict[int, tuple] = {}
        #: TOC of the newest seal: the live block descriptors per shard that
        #: the next seal may carry forward, and what compaction keeps.
        self._last_toc: Optional[Dict] = None
        #: Checkpoints sealed so far.
        self.checkpoints = 0
        #: Bytes occupied by superseded (no longer referenced) blocks.
        self.superseded_bytes = 0
        self.last_stats: Optional[CheckpointStats] = None
        self._closed = False

    # -- lifecycle ------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "StreamingProfileWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        if not self._closed:
            self.close()

    # -- checkpointing --------------------------------------------------------------

    def checkpoint(self) -> CheckpointStats:
        """Append the dirty shards' blocks and reseal the file.

        Clean shards — generation counter unchanged since the last seal —
        contribute nothing but their (carried-forward) TOC entries.  Dirty
        shards append fresh column blocks, plus a fresh frame table only when
        the shard grew structurally; a metric-only change reuses the sealed
        frame table because shard registries are append-only, so an unchanged
        node count implies an identical encoding.  The live tree is only
        read: checkpointing never disturbs dirty sets, inclusive views or
        merged-view caches.

        A checkpoint that fails partway — ``ENOSPC``, an I/O error, a torn
        write — leaves the file recoverable at the previous seal and the
        writer retryable: the partial append is rolled back (seek + truncate
        to the last sealed offset, best-effort on a dead handle), and the
        writer's descriptor state only moves once a seal has landed, so a
        later ``checkpoint()`` after the condition clears seals cleanly with
        no corrupt gap.
        """
        if self._closed or self._handle.closed:
            raise RuntimeError(
                f"StreamingProfileWriter for {self.path!r} is closed")
        try:
            with TELEMETRY.span("streaming.seal", path=self.path,
                                seal=self.checkpoints):
                return self._checkpoint()
        except BaseException:
            self._rewind()
            raise

    def _rewind(self) -> None:
        """Discard unsealed bytes a failed checkpoint may have appended."""
        try:
            self._handle.seek(self._sealed_offset)
            self._handle.truncate()
        except (OSError, ValueError):
            # The handle itself may be dead (disk gone, simulated crash);
            # recovery-by-backward-scan ignores the partial tail anyway.
            pass
        self._writer.offset = self._sealed_offset

    def _checkpoint(self) -> CheckpointStats:
        start = time.perf_counter()
        appended_from = self._writer.offset
        live = {entry["shard_id"]: entry
                for entry in (self._last_toc or {}).get("shards", ())}
        states: Dict[int, tuple] = {}
        # Dirty shards, each mapped to whether its frame table is re-encoded.
        rewritten: Dict[int, bool] = {}

        def reuse(tid: int, shard) -> ShardBlocks:
            state = states[tid] = (shard.generation, shard.node_count())
            previous = self._shard_states.get(tid)
            if previous == state:
                return live[tid]["frames"], live[tid]["columns"]
            if previous is not None and previous[1] == state[1]:
                rewritten[tid] = False  # metric-only: the frame table stands
                return live[tid]["frames"], None
            rewritten[tid] = True
            return None, None

        self._writer.codec = self.compression
        toc = self._writer.seal(self.database, reuse, seal=self.checkpoints)
        self._handle.flush()
        if self._fsync:
            os.fsync(self._handle.fileno())
        self._sealed_offset = self._writer.offset
        if self._pending_path is not None:
            # First complete seal: promote the staged stream over ``path``.
            # The open handle follows the inode, so appends continue
            # seamlessly; a crash before this point left ``path`` untouched.
            os.replace(self._pending_path, self.path)
            self._pending_path = None
        self._last_toc, self._shard_states = toc, states
        self.superseded_bytes = self._writer.unreferenced_bytes(toc)
        self.checkpoints += 1

        stats = self.last_stats = CheckpointStats(
            seal=self.checkpoints - 1,
            dirty_shards=len(rewritten),
            clean_shards=len(states) - len(rewritten),
            frames_blocks=sum(rewritten.values()),
            column_blocks=sum(len(entry["columns"]) for entry in toc["shards"]
                              if entry["shard_id"] in rewritten),
            bytes_appended=self._writer.offset - appended_from,
            file_bytes=self._writer.offset,
            wall_seconds=time.perf_counter() - start,
        )
        if TELEMETRY.enabled:
            TELEMETRY.count("streaming.seals")
            TELEMETRY.count("streaming.dirty_shards", stats.dirty_shards)
            TELEMETRY.count("streaming.clean_shards", stats.clean_shards)
            TELEMETRY.count("streaming.bytes_appended", stats.bytes_appended)
            TELEMETRY.observe("streaming.seal_seconds", stats.wall_seconds)
        return stats

    # -- closing seal and compaction --------------------------------------------------

    def close(self, compact: bool = True, mark_complete: bool = False) -> str:
        """Write the closing seal, optionally compact, and release the file.

        The closing checkpoint always runs (it captures final metadata even
        when no shard changed).  Compaction rewrites the file with only the
        blocks the final TOC references — a byte-range copy into a sibling
        temp file swapped in with ``os.replace``, so readers attached to the
        old inode stay consistent and a crash mid-compaction loses nothing.

        With ``mark_complete`` a sidecar marker (``<path>.done``, see
        :func:`completion_marker_path`) is written after the final seal
        lands, telling a fleet watcher the run finished on purpose — the
        deterministic alternative to its has-the-file-gone-quiet heuristic.
        A crashed run never writes one, which is exactly the signal's value.

        Like :meth:`checkpoint`, a failed close is retryable: once the
        closing seal has landed a retry skips it and only tries compaction
        and the marker again.
        """
        if self._closed:
            return self.path
        if not self._handle.closed:
            self.checkpoint()
            self._handle.close()
        if compact and self.superseded_bytes > 0:
            with TELEMETRY.span("streaming.compact", path=self.path):
                self._compact()
        if mark_complete:
            self._write_completion_marker()
        self._closed = True
        return self.path

    def _write_completion_marker(self) -> None:
        payload = {
            "profile": os.path.basename(self.path),
            "checkpoints": self.checkpoints,
            "completed_at": time.time(),
        }

        def write(temp_path: str) -> None:
            with open(temp_path, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)

        atomic_write(completion_marker_path(self.path), write)

    def _compact(self) -> None:
        """Drop superseded blocks by copying live byte ranges (no re-encode)."""
        if TELEMETRY.enabled:
            TELEMETRY.count("streaming.compactions")
            TELEMETRY.count("streaming.bytes_reclaimed",
                            self.superseded_bytes)

        def write(temp_path: str) -> None:
            with open(self.path, "rb") as source, \
                    open(temp_path, "wb") as target:
                SealWriter(target).copy_seal(source, self._last_toc)

        atomic_write(self.path, write)
        self.superseded_bytes = 0
