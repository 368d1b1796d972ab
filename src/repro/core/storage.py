"""Profile storage: the on-disk formats and the one dispatch between them.

Profiles are written in two formats and read in three:

* ``cct-binary-v1`` (the default) — an mmap-backed binary columnar format:
  each shard's frame table and each of its per-metric columns is an
  independent struct-packed block, addressed by a footer table of contents,
  so opening a profile is one ``mmap`` plus a TOC read and queries read only
  the blocks they touch (see :class:`LazyProfileView` and
  ``docs/FORMATS.md`` for the block layout);
* ``columnar-json`` — the same frame/metric columns as one JSON document
  (single-tree or multi-shard with thread provenance), the text format;
* ``json`` — the legacy nested node-by-node encoding, read-only: old files
  still load through :meth:`ProfileDatabase.from_dict`, nothing writes them.

:func:`save_profile` and :func:`load_profile` back ``ProfileDatabase.save``
and ``load``.  Loading decides the format from the file itself: the binary
magic, else one JSON parse classified by its payload key.

The binary format additionally supports *streamed* files: a file may contain
several sealed checkpoints (block runs each terminated by a TOC + tail), the
newest seal at EOF being the authoritative one.  :func:`recover_profile`
scans backwards for the last intact seal of a crashed/truncated stream, and
:meth:`LazyProfileView.attach`/:meth:`LazyProfileView.refresh` open (and
follow) a profile that another process is still appending to.

This module is the only one that knows the binary layout: every magic,
block, TOC and tail is written by :class:`SealWriter`, whether for a
one-shot :func:`save_binary`, a streamed checkpoint or a compaction, and
every binary file is opened by :func:`open_binary`.  The streaming policy —
which shards to re-encode, when to seal and compact — lives in
:mod:`repro.core.streaming`.
"""

from __future__ import annotations

import array
import json
import mmap
import os
import struct
import sys
import zlib
from typing import (Callable, Dict, Iterable, List, Mapping, Optional, Tuple,
                    Union)

from ..dlmonitor.callpath import Frame, FrameKind
from ..durable import atomic_write
from ..obs import TELEMETRY
from .cct import (ALL_KINDS, DEFAULT_SHARD_ID, KIND_CODES, CallingContextTree,
                  CCTNode, NameRows, ProfileTree, ShardedCallingContextTree,
                  accumulate_name_state, fold_name_rows, sums_by_name)
from .database import ProfileDatabase, ProfileMetadata

# Format names (``FORMAT_*`` on ProfileDatabase alias these).
FORMAT_JSON = "json"
FORMAT_COLUMNAR_JSON = "columnar-json"
FORMAT_BINARY_V1 = "cct-binary-v1"
#: Every format a profile loads from; ``json`` is read-only.
FORMATS = (FORMAT_BINARY_V1, FORMAT_COLUMNAR_JSON, FORMAT_JSON)

#: 8-byte magic leading (and trailing) every ``cct-binary-v1`` file.
BINARY_MAGIC = b"DCCTBIN1"
#: Fixed-size tail: u64 TOC offset, u64 TOC length, trailing magic.
_TAIL = struct.Struct("<QQ8s")

#: The only per-block compression codec currently defined (descriptor flag
#: ``"compression": "zlib"`` — see ``docs/FORMATS.md``).
COMPRESSION_ZLIB = "zlib"

#: Spellings accepted as "no compression".
_NO_COMPRESSION = (None, "", "none")


class ProfileFormatError(ValueError):
    """A profile file is empty, truncated, corrupt, or in no known format.

    Subclasses ``ValueError`` so existing ``except ValueError`` callers keep
    working; the message always names the offending path and the detected
    condition instead of leaking a raw ``struct``/JSON decode error.
    """


class ProfileCorruptionError(ProfileFormatError):
    """A sealed block inside an otherwise well-formed profile is corrupt.

    Raised when a block fails its CRC-32 checksum, decompresses to the wrong
    length, or lies outside the sealed byte range — a flipped bit, a torn
    write, a bad sector.  The message always names the file, the block (which
    shard, frames or which metric column) and the byte offset, so a fleet
    operator can quarantine precisely and ``ProfileStore.scrub`` can report
    what went bad.  Distinct from its parent so callers can tell "this file
    was never a profile" from "this profile has rotted".
    """


def check_compression(compression: Optional[str]) -> Optional[str]:
    """Normalise a compression name: ``None`` for "off", or a known codec."""
    if compression in _NO_COMPRESSION:
        return None
    if compression != COMPRESSION_ZLIB:
        raise ValueError(
            f"unsupported profile compression {compression!r}; supported: "
            f"{COMPRESSION_ZLIB!r} (or None)")
    return compression


#: Frame kinds by their on-disk code (:data:`~repro.core.cct.KIND_CODES`).
KINDS_BY_CODE: Dict[int, FrameKind] = {code: kind for kind, code in KIND_CODES.items()}

_LITTLE_ENDIAN = sys.byteorder == "little"


# ---------------------------------------------------------------------------
# Little-endian array packing helpers (stdlib only; byteswap on BE hosts)
# ---------------------------------------------------------------------------

def _pack_array(typecode: str, values: Iterable) -> bytes:
    packed = array.array(typecode, values)
    if not _LITTLE_ENDIAN:
        packed.byteswap()
    return packed.tobytes()


def _read_array(typecode: str, buffer, offset: int, count: int) -> Tuple[array.array, int]:
    values = array.array(typecode)
    end = offset + values.itemsize * count
    values.frombytes(bytes(buffer[offset:end]))
    if not _LITTLE_ENDIAN:
        values.byteswap()
    return values, end


# ---------------------------------------------------------------------------
# Format detection and dispatch
# ---------------------------------------------------------------------------

def _unknown_format(name: str) -> ValueError:
    return ValueError(f"unknown profile format {name!r}; formats: "
                      f"{', '.join(FORMATS)}")


def _detect(path: str) -> Tuple[str, Optional[Dict]]:
    """Detect a profile's format: ``(name, parsed JSON or None)``.

    A file starting with the binary magic is ``cct-binary-v1``; any other
    file is parsed as JSON exactly once and classified by its tree payload
    key.
    """
    with open(path, "rb") as handle:
        head = handle.read(len(BINARY_MAGIC))
    if not head:
        raise ProfileFormatError(
            f"{path!r} is empty (0 bytes): not a profile in any known format")
    if head == BINARY_MAGIC:
        return FORMAT_BINARY_V1, None
    data = _probe_json(path)
    return _classify_json(data, path), data


def detect_format(path: str) -> str:
    """The format name of the profile stored at ``path``.

    Raises :class:`ProfileFormatError` (a ``ValueError``) naming the path and
    the detected condition — empty file, truncation, unknown encoding — for
    files in no known format.
    """
    return _detect(path)[0]


def _probe_json(path: str) -> Dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (UnicodeDecodeError, ValueError) as error:
        raise ProfileFormatError(
            f"{path!r} is not a recognised profile: no known magic bytes and "
            f"not valid JSON ({error})") from None
    if not isinstance(data, dict):
        raise ProfileFormatError(f"{path!r} is not a recognised profile: "
                                 f"JSON document is not an object")
    return data


def _classify_json(data: Mapping, path: str) -> str:
    if "tree_columnar" in data:
        return FORMAT_COLUMNAR_JSON
    if "tree" in data:
        return FORMAT_JSON
    raise ProfileFormatError(
        f"{path!r} is valid JSON but not a profile (neither 'tree' nor "
        f"'tree_columnar' payload found)")


def load_profile(path: str, expected_format: Optional[str] = None) -> ProfileDatabase:
    """Detect the on-disk format and load the profile.

    With ``expected_format`` the detected format must match, otherwise a
    ``ValueError`` naming the *detected* format is raised — the caller asked
    for one encoding and got a file in another.
    """
    if expected_format is not None and expected_format not in FORMATS:
        raise _unknown_format(expected_format)
    detected, payload = _detect(path)
    if expected_format is not None and expected_format != detected:
        raise ValueError(
            f"profile at {path!r} is in {detected!r} format, not the "
            f"requested {expected_format!r}")
    if payload is None:
        return _database_from_view(open_binary(path))
    # JSON: _detect already parsed the document; decode it directly so
    # detection does not cost a second full parse.
    return ProfileDatabase.from_dict(payload)


def save_profile(database: ProfileDatabase, path: str,
                 format: Optional[str] = None,
                 compression: Optional[str] = None) -> str:
    """Write ``database`` to ``path`` in ``format``; returns the path.

    ``None`` means ``cct-binary-v1``, whose saves default to the session's
    ``profile_compression``.  ``columnar-json`` rejects an explicit
    compression.  The nested ``json`` format is read-only.
    """
    format = format or FORMAT_BINARY_V1
    if format == FORMAT_BINARY_V1:
        if compression is None:
            compression = database.default_compression()
        return save_binary(database, path, compression)
    if format == FORMAT_COLUMNAR_JSON:
        if check_compression(compression) is not None:
            raise ValueError(
                f"the {FORMAT_COLUMNAR_JSON!r} format does not support "
                f"per-block compression; save with "
                f"format={FORMAT_BINARY_V1!r} instead")
        with atomic_write(path, "w") as handle:
            json.dump(database.to_dict(), handle)
        return path
    if format == FORMAT_JSON:
        raise ValueError(
            f"the nested {FORMAT_JSON!r} format is read-only; save with "
            f"format={FORMAT_BINARY_V1!r} or {FORMAT_COLUMNAR_JSON!r}")
    raise _unknown_format(format)


def recover_profile(path: str) -> ProfileDatabase:
    """Reopen a streamed ``cct-binary-v1`` profile at its last intact seal.

    The append-then-reseal layout guarantees every sealed prefix is a valid
    profile, so after a crash (arbitrarily truncated tail: mid-block,
    mid-TOC, mid-tail) the file is scanned backwards from EOF for the newest
    seal whose TOC still parses, and the profile opens there — exactly the
    last checkpoint that completed.  Bytes beyond the seal are ignored.
    Raises :class:`ProfileFormatError` when no seal ever completed.
    """
    return _database_from_view(open_binary(path, recover=True))


# ---------------------------------------------------------------------------
# cct-binary-v1: struct-packed blocks behind a footer TOC
# ---------------------------------------------------------------------------

def _encode_frames_block(tree: CallingContextTree) -> bytes:
    """Pack a shard's frame table: string heap + deduplicated frame table +
    per-node (frame index, parent index) columns.

    Real traces repeat the same frame in thousands of calling contexts (the
    same kernel under many steps), so the block stores each *distinct* frame
    once and nodes reference it by index — decode then constructs one
    ``Frame`` object per distinct frame and shares it (plus its memoized
    identity) across every node, which is what makes the lazy view's
    per-shard decode several times cheaper than a full JSON parse.
    """
    registry = tree.all_nodes()
    strings: Dict[str, int] = {}

    def intern(value: str) -> int:
        index = strings.get(value)
        if index is None:
            index = strings[value] = len(strings)
        return index

    frame_table: Dict[Tuple, int] = {}
    kinds = bytearray()
    names: List[int] = []
    files: List[int] = []
    libraries: List[int] = []
    tags: List[int] = []
    lines: List[int] = []
    pcs: List[int] = []
    frame_indexes: List[int] = []
    parents = tree.parent_indexes()
    for node in registry:
        frame = node.frame
        key = (frame.kind, frame.name, frame.file, frame.line,
               frame.library, frame.pc, frame.tag)
        frame_index = frame_table.get(key)
        if frame_index is None:
            frame_index = frame_table[key] = len(frame_table)
            kinds.append(KIND_CODES[frame.kind])
            names.append(intern(frame.name))
            files.append(intern(frame.file or ""))
            libraries.append(intern(frame.library or ""))
            tags.append(intern(frame.tag or ""))
            lines.append(int(frame.line))
            pcs.append(int(frame.pc))
        frame_indexes.append(frame_index)

    encoded = [value.encode("utf-8") for value in strings]  # insertion order
    offsets = [0]
    for blob in encoded:
        offsets.append(offsets[-1] + len(blob))
    heap = b"".join(encoded)
    return b"".join([
        struct.pack("<IIIQ", len(registry), len(frame_table), len(encoded),
                    len(heap)),
        heap,
        _pack_array("I", offsets),
        bytes(kinds),
        _pack_array("I", names),
        _pack_array("I", files),
        _pack_array("I", libraries),
        _pack_array("I", tags),
        _pack_array("i", lines),
        _pack_array("Q", pcs),
        _pack_array("I", frame_indexes),
        _pack_array("i", parents),
    ])


def _decode_frames_prefix(buffer):
    """Parse a frames block up to and including the per-frame name indexes.

    The single definition of the block's leading layout (header, string
    heap + offsets, kind codes, name indexes), shared by the full structural
    decode and the names-only per-name state walk so the two cannot drift.
    Returns ``(node_count, frame_count, string_count, heap, string_offsets,
    kind_codes, names, offset)`` with ``offset`` positioned at the file
    column.
    """
    node_count, frame_count, string_count, heap_length = \
        struct.unpack_from("<IIIQ", buffer, 0)
    offset = struct.calcsize("<IIIQ")
    heap = bytes(buffer[offset:offset + heap_length])
    offset += heap_length
    string_offsets, offset = _read_array("I", buffer, offset, string_count + 1)
    kind_codes = bytes(buffer[offset:offset + frame_count])
    offset += frame_count
    names, offset = _read_array("I", buffer, offset, frame_count)
    return (node_count, frame_count, string_count, heap, string_offsets,
            kind_codes, names, offset)


def _decode_frames_block(buffer) -> Tuple[CallingContextTree, List[CCTNode]]:
    """Rebuild a shard's structure (no metrics) from a packed frame table."""
    (node_count, frame_count, string_count, heap, string_offsets, kind_codes,
     names, offset) = _decode_frames_prefix(buffer)
    table = [heap[string_offsets[i]:string_offsets[i + 1]].decode("utf-8")
             for i in range(string_count)]
    files, offset = _read_array("I", buffer, offset, frame_count)
    libraries, offset = _read_array("I", buffer, offset, frame_count)
    tags, offset = _read_array("I", buffer, offset, frame_count)
    lines, offset = _read_array("i", buffer, offset, frame_count)
    pcs, offset = _read_array("Q", buffer, offset, frame_count)
    frame_indexes, offset = _read_array("I", buffer, offset, node_count)
    parents, offset = _read_array("i", buffer, offset, node_count)
    # One Frame per *distinct* frame, shared across nodes (not interned in
    # the process-global table — see CallingContextTree._decode_frame).
    frames = [Frame(kind=KINDS_BY_CODE[kind_codes[i]], name=table[names[i]],
                    file=table[files[i]], line=lines[i],
                    library=table[libraries[i]], pc=pcs[i], tag=table[tags[i]])
              for i in range(frame_count)]
    return CallingContextTree.build_from_frames(
        [frames[i] for i in frame_indexes], parents)


#: Partial decode of a frames block for per-name states: the string heap
#: with its offsets, per-frame kind codes and name indexes, and the per-node
#: frame indexes — everything ``name_states_columns`` needs, nothing it
#: doesn't (no ``Frame`` objects, no tree, no per-node allocation at all).
_NameIndex = Tuple[bytes, "array.array", bytes, "array.array", "array.array"]


def _decode_name_index(buffer) -> _NameIndex:
    (node_count, frame_count, _string_count, heap, string_offsets, kind_codes,
     names, offset) = _decode_frames_prefix(buffer)
    # Step over the file/library/tag (u32), line (i32) and pc (u64) columns;
    # per-frame columns are deduplicated-frame sized, so skipping via
    # ``_read_array`` (same typecodes the full decoder reads) costs nothing
    # measurable and keeps this path pinned to the one layout definition.
    for typecode in ("I", "I", "I", "i", "Q"):
        _skipped, offset = _read_array(typecode, buffer, offset, frame_count)
    frame_indexes, _offset = _read_array("I", buffer, offset, node_count)
    return heap, string_offsets, kind_codes, names, frame_indexes


# Column block layout: u32 entry count, then node-index / count / sum / min /
# max / mean / m2 arrays — the exact ``MetricAggregate.state()`` fields, so
# the round-trip is lossless (see AGGREGATE_STATE_FIELDS in metrics).
_COLUMN_HEADER = struct.Struct("<I")


def _encode_column_block(entries: List[Tuple[int, Tuple]]) -> bytes:
    """Pack one metric's column: ``(node index, aggregate state)`` entries.

    The field columns are extracted with two C-speed ``zip(*)`` transposes
    instead of one comprehension per field — column encoding dominates the
    incremental-checkpoint hot path (streamed reseals re-encode only columns
    when a shard's structure is unchanged), so this is worth the terseness.
    """
    if entries:
        node_indexes, states = zip(*entries)
        counts, sums, minima, maxima, means, m2s = zip(*states)
    else:
        node_indexes = counts = sums = minima = maxima = means = m2s = ()
    return b"".join([
        _COLUMN_HEADER.pack(len(entries)),
        _pack_array("I", node_indexes),
        _pack_array("Q", counts),
        _pack_array("d", sums),
        _pack_array("d", minima),
        _pack_array("d", maxima),
        _pack_array("d", means),
        _pack_array("d", m2s),
    ])


def _decode_column_block(buffer) -> Tuple[array.array, ...]:
    (entry_count,) = _COLUMN_HEADER.unpack_from(bytes(buffer[:_COLUMN_HEADER.size]), 0)
    offset = _COLUMN_HEADER.size
    node_indexes, offset = _read_array("I", buffer, offset, entry_count)
    counts, offset = _read_array("Q", buffer, offset, entry_count)
    sums, offset = _read_array("d", buffer, offset, entry_count)
    minima, offset = _read_array("d", buffer, offset, entry_count)
    maxima, offset = _read_array("d", buffer, offset, entry_count)
    means, offset = _read_array("d", buffer, offset, entry_count)
    m2s, offset = _read_array("d", buffer, offset, entry_count)
    return node_indexes, counts, sums, minima, maxima, means, m2s


def _column_sums(buffer) -> float:
    """Total of one column's ``sum`` array without decoding the rest.

    Added left to right in node order — the recurrence of
    ``CallingContextTree.total_metric`` — not with the builtin ``sum``,
    which compensates float rounding since Python 3.12 and would make a
    reloaded total differ from the live one in the last bits.
    """
    (entry_count,) = _COLUMN_HEADER.unpack_from(bytes(buffer[:_COLUMN_HEADER.size]), 0)
    offset = _COLUMN_HEADER.size
    offset += 4 * entry_count   # node indexes (u32)
    offset += 8 * entry_count   # counts (u64)
    sums, _end = _read_array("d", buffer, offset, entry_count)
    total = 0.0
    for value in sums:
        total += value
    return total


class _LazyShard:
    """One shard of an open binary profile: decoded piece by piece."""

    def __init__(self, view: "LazyProfileView", entry: Mapping) -> None:
        self._view = view
        self.entry = entry
        self.shard_id = int(entry["shard_id"])
        self._tree: Optional[CallingContextTree] = None
        self._nodes: Optional[List[CCTNode]] = None
        self._name_index: Optional[_NameIndex] = None
        self.loaded_columns: set = set()

    @property
    def structure_decoded(self) -> bool:
        return self._tree is not None

    def column_names(self) -> List[str]:
        return list(self.entry["columns"])

    def _frames_label(self) -> str:
        return f"frames block of shard {self.shard_id}"

    def _column_label(self, metric: str) -> str:
        return f"column block {metric!r} of shard {self.shard_id}"

    def _block(self, descriptor: Mapping, label: str = "block") -> memoryview:
        if TELEMETRY.enabled:
            TELEMETRY.count("storage.blocks_decoded")
        offset = int(descriptor["offset"])
        raw = self._view._checked_slice(descriptor, label)
        codec = descriptor.get("compression")
        if codec in _NO_COMPRESSION:
            return raw
        if codec != COMPRESSION_ZLIB:
            raw.release()  # see _checked_slice: don't pin the mmap via the traceback
            raise ProfileFormatError(
                f"{self._view.path!r}: {label} at offset {offset} uses "
                f"unknown compression {codec!r}")
        stored = bytes(raw)
        raw.release()
        try:
            data = zlib.decompress(stored)
        except zlib.error as error:
            raise ProfileCorruptionError(
                f"{self._view.path!r}: {label} at offset {offset} is "
                f"corrupt: zlib decompression failed ({error})") from None
        expected = descriptor.get("raw_length")
        if expected is not None and len(data) != int(expected):
            raise ProfileCorruptionError(
                f"{self._view.path!r}: {label} at offset {offset} "
                f"decompressed to {len(data)} bytes, expected {expected}")
        return memoryview(data)

    def tree(self) -> CallingContextTree:
        """The shard's structure (frame table decoded on first access)."""
        if self._tree is None:
            with TELEMETRY.span("storage.decode.frames", shard=self.shard_id):
                self._tree, self._nodes = _decode_frames_block(
                    self._block(self.entry["frames"], self._frames_label()))
                self._tree.insertions = int(self.entry.get("insertions", 0))
        return self._tree

    def full_tree(self) -> CallingContextTree:
        """The shard's tree with every metric column decoded into it, once
        per column (hydration is the only reader that builds trees)."""
        for metric, descriptor in self.entry["columns"].items():
            if metric in self.loaded_columns:
                continue
            with TELEMETRY.span("storage.decode.column", shard=self.shard_id,
                                metric=metric):
                tree = self.tree()
                columns = _decode_column_block(
                    self._block(descriptor, self._column_label(metric)))
                tree.install_exclusive_column(self._nodes, metric, *columns)
                self.loaded_columns.add(metric)
        return self.tree()

    def column_sum_total(self, metric: str) -> float:
        descriptor = self.entry["columns"].get(metric)
        if descriptor is None:
            return 0.0
        return _column_sums(self._block(descriptor, self._column_label(metric)))

    def name_states_columns(self, metric: str) -> NameRows:
        """Per-name Welford states straight from the raw blocks.

        Returns ``{(kind_code, name): (count, sum, min, max, mean, m2)}``
        with one row per ``(kind, name)`` pair observed in this shard *plus*
        an :data:`ALL_KINDS` row per name (the unfiltered rollup, which is
        not derivable from the per-kind rows — see :data:`ALL_KINDS`).  One
        walk of the column in node-index order — the registration order
        ``CallingContextTree.name_rows`` walks — feeds both key families,
        so the rows are bit for bit the decoded shard tree's rows.  Only
        names and kind codes are decoded from the frames block
        (no ``Frame`` or node objects), and it always reads the sealed
        blocks (never a warm decoded tree), so every summary sees the same
        bytes the durability checks verified.
        """
        descriptor = self.entry["columns"].get(metric)
        if descriptor is None:
            return {}
        with TELEMETRY.span("storage.decode.name_states",
                            shard=self.shard_id, metric=metric):
            if self._name_index is None:
                self._name_index = _decode_name_index(
                    self._block(self.entry["frames"], self._frames_label()))
            (heap, string_offsets, kind_codes, names,
             frame_indexes) = self._name_index
            (node_indexes, counts, sums, minima, maxima, means,
             m2s) = _decode_column_block(
                self._block(descriptor, self._column_label(metric)))
            name_of: Dict[int, str] = {}
            totals: NameRows = {}
            for position, node_index in enumerate(node_indexes):
                frame = frame_indexes[node_index]
                name = name_of.get(frame)
                if name is None:
                    string = names[frame]
                    name = heap[string_offsets[string]:
                                string_offsets[string + 1]].decode("utf-8")
                    name_of[frame] = name
                state = (counts[position], sums[position], minima[position],
                         maxima[position], means[position], m2s[position])
                accumulate_name_state(totals, (kind_codes[frame], name),
                                      *state)
                accumulate_name_state(totals, (ALL_KINDS, name), *state)
            return totals


#: Tail bytes compared by the :meth:`LazyProfileView.refresh` fast path —
#: generously covers the fixed-size tail record (offset + length + magic)
#: plus the end of the TOC JSON, so two files agreeing on size and these
#: bytes reference the same newest seal.
_REFRESH_PROBE_BYTES = 256


class LazyProfileView(ProfileTree):
    """Query-facing view of an mmap-backed ``cct-binary-v1`` profile.

    Opening a profile maps the file and reads the footer TOC; nothing else is
    decoded.  Queries then read the minimum they need:

    * ``total_metric`` sums a metric's column blocks directly — no frame
      tables are decoded at all;
    * per-name queries (``aggregate_by_name``, ``top_kernels``) read
      :meth:`name_rows`: each shard's name index (the names and kind codes
      of its frame table) plus the one requested metric column, folded in
      shard order — no ``Frame``, node or tree is built.
      ``shard_aggregate_by_name`` reads one shard's rows;
    * everything structural (``root``, traversals, kind indexes, ``find``)
      hydrates the full tree on first use — :meth:`hydrate` — after which the
      view behaves exactly like the eager tree it decodes into, and per-name
      queries read the hydrated tree's rows (bit for bit the same).

    The structural and per-name accessors come from
    :class:`~repro.core.cct.ProfileTree`, so the query layer, the GUI
    exporters and the experiment harness work unchanged against any tree.
    Lazy views are read-only: their memos change only when :meth:`refresh`
    moves to a new seal.  Mutate the tree returned by :meth:`hydrate`
    instead.
    """

    def __init__(self, path: str, handle, mm: mmap.mmap, toc: Mapping,
                 meta: Mapping, seal_end: Optional[int] = None) -> None:
        self.path = path
        self._handle = handle
        self._mm = mm
        #: End offset of the seal this view serves (== file size for a file
        #: ending in a seal; earlier for a view attached to a truncated or
        #: still-growing stream).
        self.seal_end = len(mm) if seal_end is None else int(seal_end)
        #: Size of the file as mapped, driving the :meth:`refresh` fast
        #: path: streamed files only ever grow between seals, and a
        #: compaction replaces the whole file, so an unchanged size plus an
        #: unchanged tail means the newest seal is the one already served.
        self._file_size = len(mm)
        self._adopt(toc, meta)

    def _adopt(self, toc: Mapping, meta: Mapping,
               previous: Optional[Dict[int, _LazyShard]] = None) -> None:
        """(Re)build the shard map from a TOC, reusing decoded shards whose
        block descriptors are unchanged (streamed appends never rewrite a
        sealed block in place, so identical descriptors mean identical bytes).
        """
        self._toc = toc
        self._meta = meta
        self.program_name = str(toc.get("program", "program"))
        self._tree_kind = str(toc.get("tree_kind", "sharded"))
        self._shards: Dict[int, _LazyShard] = {}
        for entry in toc.get("shards", []):
            shard = _LazyShard(self, entry)
            if previous is not None:
                old = previous.get(shard.shard_id)
                if old is not None and old.entry == entry:
                    shard = old
            self._shards[shard.shard_id] = shard
        self._hydrated: Optional[Union[CallingContextTree,
                                       ShardedCallingContextTree]] = None
        #: Per-metric ``total_metric`` / ``name_rows`` of the blocks.
        self._total_cache: Dict[str, float] = {}
        self._rows_cache: Dict[str, NameRows] = {}
        #: Offsets whose blocks already passed CRC verification.  Reset on
        #: every (re)adoption: a refresh/compaction maps a new byte range, so
        #: previously verified offsets say nothing about the new file.
        self._verified: set = set()

    # -- block integrity ---------------------------------------------------------------

    def _checked_slice(self, descriptor: Mapping, label: str) -> memoryview:
        """The block's stored bytes, bounds- and checksum-verified.

        Every block read funnels through here, so a block is verified lazily
        on its first touch (and once per view — re-reads are free).  Blocks
        whose descriptor carries no ``crc32`` (pre-checksum files) get the
        bounds check only.  Raises :class:`ProfileCorruptionError` naming the
        file, the block and its offset.
        """
        offset, length = int(descriptor["offset"]), int(descriptor["length"])
        if offset < 0 or offset + length > self.seal_end:
            raise ProfileCorruptionError(
                f"{self.path!r}: {label} at offset {offset} (length {length}) "
                f"extends past the sealed region (seal ends at "
                f"{self.seal_end}); the table of contents references bytes "
                f"that were never sealed")
        raw = memoryview(self._mm)[offset:offset + length]
        expected = descriptor.get("crc32")
        if expected is not None and offset not in self._verified:
            actual = zlib.crc32(raw) & 0xFFFFFFFF
            if actual != int(expected):
                # Release before raising: the traceback would otherwise pin
                # this frame (and the exported mmap pointer) alive past the
                # caller's ``close()``, turning a detected corruption into a
                # BufferError on unmap.
                raw.release()
                raise ProfileCorruptionError(
                    f"{self.path!r}: {label} at offset {offset} (length "
                    f"{length}) failed CRC-32 verification (stored "
                    f"0x{int(expected):08x}, computed 0x{actual:08x}); the "
                    f"block's bytes changed after sealing")
            self._verified.add(offset)
            if TELEMETRY.enabled:
                TELEMETRY.count("storage.crc_verified")
        return raw

    def verify_blocks(self) -> List[str]:
        """Eagerly verify every block the TOC references; [] when clean.

        Checks bounds and CRC-32 for the meta block and each shard's frames
        and column blocks, and fully decompresses compressed blocks (a
        corrupt zlib stream is corruption even when no checksum was stored).
        Returns one human-readable description per bad block instead of
        raising, so a store scrub can report everything that rotted at once.
        Verification results are cached on the view: a query issued after a
        clean ``verify_blocks`` re-hashes nothing.
        """
        problems: List[str] = []

        def check(probe) -> None:
            try:
                probe()
            except ProfileFormatError as error:
                problems.append(str(error))

        meta = self._toc.get("meta")
        if meta:
            check(lambda: self._checked_slice(meta, "meta block"))
        for shard in self._shards.values():
            check(lambda s=shard: s._block(s.entry["frames"],
                                           s._frames_label()))
            for metric, descriptor in shard.entry["columns"].items():
                check(lambda s=shard, m=metric, d=descriptor:
                      s._block(d, s._column_label(m)))
        return problems

    # -- lifecycle ------------------------------------------------------------------

    @classmethod
    def attach(cls, path: str) -> "LazyProfileView":
        """Open the newest *sealed* checkpoint of a streamed profile.

        Unlike ``ProfileDatabase.load`` this tolerates an arbitrarily
        truncated or still-being-appended tail: the file is scanned backwards
        for the last intact seal, so an analyzer can attach to a run another
        process is still streaming.  Call :meth:`refresh` to follow new seals
        as they land.
        """
        try:
            return open_binary(path, recover=True)
        except ProfileFormatError:
            raise
        except (OSError, struct.error) as error:
            # The file vanished or turned unreadable between the caller's
            # decision to attach and the open/scan — e.g. a compaction or
            # cleanup raced us.  Name the path and condition instead of
            # leaking the raw error (the PR 4 error-naming convention).
            raise ProfileFormatError(
                f"{path!r} cannot be attached: the file vanished or became "
                f"unreadable mid-operation ({error})") from None

    def refresh(self) -> bool:
        """Re-scan the file and move to its newest seal.

        Returns True when the view advanced to a different seal (new shard
        map, caches and any hydrated tree discarded; shards whose blocks are
        unchanged keep their decoded state), False when the newest seal is
        the one already being served.  Works across a compaction, which
        replaces the file: the view reopens by path.

        The no-change case is the hot one — a watcher polls every live run
        every tick, and most ticks bring no new seal — so it is answered
        with one ``stat`` plus a small tail read instead of a full
        reopen-and-scan: appends grow the file and compaction replaces it,
        so an unchanged size with an unchanged tail (which contains the
        newest seal's TOC pointer) means nothing moved.  Any doubt — a
        size change, a differing tail, any OSError on the probe — falls
        through to the full reopen, which also owns the error naming.
        """
        if self._mm is not None and self._file_size > 0:
            try:
                if os.path.getsize(self.path) == self._file_size:
                    probe_at = max(0, self._file_size - _REFRESH_PROBE_BYTES)
                    with open(self.path, "rb") as probe:
                        probe.seek(probe_at)
                        tail = probe.read(_REFRESH_PROBE_BYTES)
                    if tail == bytes(memoryview(self._mm)
                                     [probe_at:self._file_size]):
                        return False
            except OSError:
                pass  # vanished/unreadable: the full reopen names it
        try:
            fresh = open_binary(self.path, recover=True)
        except ProfileFormatError:
            raise
        except (OSError, struct.error) as error:
            # Mid-compaction the path is briefly the only way back to the
            # profile; if it vanished (the run was deleted, the directory
            # cleaned) surface that as a named format error, not a raw
            # OSError/struct.error from deep inside the reopen.
            raise ProfileFormatError(
                f"{self.path!r} cannot be refreshed: the file vanished or "
                f"became unreadable mid-operation ({error})") from None
        if fresh.seal_end == self.seal_end and fresh._toc == self._toc:
            fresh.close()
            return False
        previous = self._shards
        old_mm, old_handle = self._mm, self._handle
        self._mm, self._handle = fresh._mm, fresh._handle
        self.seal_end = fresh.seal_end
        self._file_size = fresh._file_size
        self._adopt(fresh._toc, fresh._meta, previous=previous)
        if old_mm is not None:
            old_mm.close()
        if old_handle is not None:
            old_handle.close()
        return True

    def close(self) -> None:
        """Release the mapping (hydrated trees, if any, stay usable)."""
        if self._mm is not None:
            self._mm.close()
            self._mm = None
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "LazyProfileView":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- observability (what has been decoded so far) ---------------------------------

    @property
    def hydrated(self) -> bool:
        return self._hydrated is not None

    def decoded_shard_ids(self) -> set:
        """Shards whose frame tables have been decoded into trees (only
        hydration does; totals and per-name reads build none)."""
        return {tid for tid, shard in self._shards.items()
                if shard.structure_decoded}

    def decoded_columns(self) -> set:
        """``(shard id, metric)`` pairs whose columns have been decoded
        into trees (again only by hydration)."""
        return {(tid, metric) for tid, shard in self._shards.items()
                for metric in shard.loaded_columns}

    # -- TOC-served metadata (no decoding) --------------------------------------------

    def shard_ids(self) -> List[int]:
        return list(self._shards)

    def shard_count(self) -> int:
        return len(self._shards)

    def shard_provenance(self) -> List[Dict[str, object]]:
        return [{
            "shard_id": shard.shard_id,
            "thread_name": str(shard.entry.get("thread_name", "")),
            "thread_kind": str(shard.entry.get("thread_kind", "")),
        } for shard in self._shards.values()]

    def metric_names(self) -> List[str]:
        names: List[str] = []
        for shard in self._shards.values():
            for metric in shard.column_names():
                if metric not in names:
                    names.append(metric)
        return names

    def stored_node_count(self) -> int:
        """Nodes across all shards per the TOC (no decode; shard roots each
        count, exactly like the sharded tree's collection-side number)."""
        return sum(int(shard.entry.get("nodes", 0))
                   for shard in self._shards.values())

    @property
    def insertions(self) -> int:
        if self._hydrated is not None:
            return self._hydrated.insertions
        return sum(int(shard.entry.get("insertions", 0))
                   for shard in self._shards.values())

    # -- lazy query fast paths -----------------------------------------------------------

    def total_metric(self, metric: str) -> float:
        """Whole-profile metric total from the column blocks alone
        (memoized per metric; the hydrated tree's once hydrated)."""
        if self._hydrated is not None:
            return self._hydrated.total_metric(metric)
        total = self._total_cache.get(metric)
        if total is None:
            total = self._total_cache[metric] = sum(
                shard.column_sum_total(metric)
                for shard in self._shards.values())
        return total

    def name_rows(self, metric: str) -> NameRows:
        """Per-name rows (see :data:`~repro.core.cct.NameRows`).

        Before hydration these are :meth:`column_name_states`, memoized per
        metric; afterwards the hydrated tree's rows, which fold the same
        states in the same order.
        """
        if self._hydrated is not None:
            return self._hydrated.name_rows(metric)
        rows = self._rows_cache.get(metric)
        if rows is None:
            rows = self._rows_cache[metric] = self.column_name_states(metric)
        return rows

    def column_name_states(self, metric: str) -> NameRows:
        """Whole-profile per-name Welford states from the raw blocks.

        Returns ``{(kind_code, name): (count, sum, min, max, mean, m2)}``:
        per-shard :meth:`_LazyShard.name_states_columns` results folded in
        shard order with :func:`~repro.core.cct.fold_name_rows`, the fold a
        sharded tree applies to its shards' rows.  These are the rows a
        fleet summary stores per run (``RunSummary.from_view``).  Not
        memoized (summaries are built once and cached at their own layer)
        and deliberately independent of the hydrated tree: it reads the
        sealed bytes even when one is warm.
        """
        return fold_name_rows(shard.name_states_columns(metric)
                              for shard in self._shards.values())

    def shard_aggregate_by_name(self, shard_id: int,
                                kind: Optional[FrameKind] = None,
                                metric: str = "gpu_time") -> Dict[str, float]:
        """Single-shard aggregation from that shard's rows alone (its name
        index plus the one requested metric column)."""
        shard = self._shards.get(shard_id)
        if shard is None:
            raise KeyError(f"profile has no shard {shard_id!r}; "
                           f"available: {sorted(self._shards)}")
        return sums_by_name(shard.name_states_columns(metric), kind=kind)

    # -- full materialization ---------------------------------------------------------

    def hydrate(self) -> Union[CallingContextTree, ShardedCallingContextTree]:
        """Decode everything into an eager tree (cached).

        Sharded profiles hydrate into a :class:`ShardedCallingContextTree`
        (provenance preserved); profiles saved from a single tree hydrate
        back into a plain :class:`CallingContextTree`.
        """
        if self._hydrated is None:
            if self._tree_kind == "single" and len(self._shards) == 1:
                (shard,) = self._shards.values()
                self._hydrated = shard.full_tree()
            else:
                tree = ShardedCallingContextTree(self.program_name)
                for tid, shard in self._shards.items():
                    tree._shards[tid] = shard.full_tree()
                    tree._provenance[tid] = {
                        "shard_id": tid,
                        "thread_name": str(shard.entry.get("thread_name", "")),
                        "thread_kind": str(shard.entry.get("thread_kind", "")),
                    }
                self._hydrated = tree
        return self._hydrated

    def merged(self) -> CallingContextTree:
        """The queryable union tree (hydrates on first use)."""
        hydrated = self.hydrate()
        if isinstance(hydrated, ShardedCallingContextTree):
            return hydrated.merged()
        return hydrated

    def approximate_size_bytes(self) -> int:
        """Footprint of what has actually been decoded (the mapping itself is
        file-backed and pages in/out on demand)."""
        if self._hydrated is not None:
            return self._hydrated.approximate_size_bytes()
        total = 2048
        for shard in self._shards.values():
            if shard.structure_decoded:
                total += shard.tree().approximate_size_bytes()
        return total

    def to_columnar(self) -> Dict:
        return self.hydrate().to_columnar()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"LazyProfileView({self.path!r}, shards={len(self._shards)}, "
                f"decoded={len(self.decoded_shard_ids())}, "
                f"hydrated={self.hydrated})")


# ---------------------------------------------------------------------------
# cct-binary-v1 writer (every magic, block, TOC and tail)
# ---------------------------------------------------------------------------

def _shard_map(tree) -> Tuple[Dict[int, CallingContextTree],
                              List[Dict[str, object]], str, str]:
    """``(shards by id, provenance, tree_kind, program)`` of a profile tree;
    a plain tree is the degenerate single shard."""
    if isinstance(tree, LazyProfileView):
        tree = tree.hydrate()
    if isinstance(tree, ShardedCallingContextTree):
        return (tree.shards(), tree.shard_provenance(), "sharded",
                tree.program_name)
    provenance = [{"shard_id": DEFAULT_SHARD_ID, "thread_name": "",
                   "thread_kind": ""}]
    return ({DEFAULT_SHARD_ID: tree}, provenance, "single",
            tree.root.frame.name)


def _columns(shard: CallingContextTree) -> Dict[str, List[Tuple[int, Tuple]]]:
    """Per-metric ``(node index, aggregate state)`` columns of one shard.

    Count-0 aggregates are skipped: they mean "nothing observed" and would
    round-trip as spurious rows.
    """
    columns: Dict[str, List[Tuple[int, Tuple]]] = {}
    for index, node in enumerate(shard.all_nodes()):
        for metric, aggregate in node.exclusive.items():
            if aggregate.count <= 0:
                continue
            columns.setdefault(metric, []).append((index, aggregate.state()))
    return columns


#: What a ``reuse`` callback hands :meth:`SealWriter.seal` for one shard:
#: its sealed ``frames`` descriptor and its ``{metric: descriptor}`` columns
#: to carry forward, None for each part the seal must encode afresh.
ShardBlocks = Tuple[Optional[Dict], Optional[Dict[str, Dict]]]


class SealWriter:
    """The one writer of ``cct-binary-v1`` bytes.

    Every magic, block, TOC and tail of a binary profile is written here,
    so the layout and the block descriptor protocol have one definition:

    * a one-shot save is one :meth:`seal` on a fresh file;
    * a streamed checkpoint is one more :meth:`seal` appended to the open
      stream, carrying unchanged shards' blocks forward through ``reuse``;
    * compaction is :meth:`copy_seal` into a fresh file.

    Constructing the writer writes the leading magic.  ``offset`` is the
    file offset of the next byte: a caller that truncates a failed append
    away resets it to the last sealed offset.
    """

    def __init__(self, handle, codec: Optional[str] = None,
                 checksums: bool = True) -> None:
        self._handle = handle
        #: Per-block compression for :meth:`emit` (None or ``"zlib"``); a
        #: streamed writer may change it between seals, since readers honour
        #: each block's own descriptor flag.
        self.codec = codec
        self._checksums = checksums
        self._toc_offset = 0
        handle.write(BINARY_MAGIC)
        self.offset = len(BINARY_MAGIC)

    def _append(self, data: bytes) -> None:
        self._handle.write(data)
        self.offset += len(data)

    def emit(self, block: bytes, compress: bool = False) -> Dict:
        """Append one block; returns its TOC descriptor.

        The descriptor carries ``offset``/``length`` plus the
        ``compression``/``raw_length`` flags when ``compress`` applies the
        writer's codec.  With ``checksums`` it also carries the CRC-32 of
        the *stored* bytes (after compression), which lets a reader verify a
        block straight off the mapping before spending any decode work on
        it.  Readers that predate the flag ignore the extra key, and files
        without it load as before.
        """
        descriptor: Dict = {"offset": self.offset}
        if compress and self.codec is not None:
            raw_length = len(block)
            block = zlib.compress(block)
            descriptor["compression"] = self.codec
            descriptor["raw_length"] = raw_length
        descriptor["length"] = len(block)
        if self._checksums:
            descriptor["crc32"] = zlib.crc32(block) & 0xFFFFFFFF
        self._append(block)
        return descriptor

    def seal(self, database: ProfileDatabase,
             reuse: Optional[Callable[[int, CallingContextTree],
                                      ShardBlocks]] = None,
             seal: Optional[int] = None) -> Dict:
        """Append one complete seal of ``database``; returns its TOC.

        Writes the meta block, then per shard its frames block and one
        column block per metric — or whatever sealed descriptors
        ``reuse(shard_id, shard)`` hands back instead — then the TOC and the
        tail.  ``seal`` numbers a streamed checkpoint in the TOC; one-shot
        saves pass none, which keeps their bytes (and so a re-ingested
        run's content address) free of streaming state.
        """
        shards, provenance, tree_kind, program = _shard_map(database.tree)
        meta = self.emit(json.dumps({
            "metadata": database.metadata.as_dict(),
            "dlmonitor_stats": dict(database.dlmonitor_stats),
            "issues": list(database.issues),
        }).encode("utf-8"))
        entries: List[Dict] = []
        for origin, shard in zip(provenance, shards.values()):
            frames, columns = (reuse(origin["shard_id"], shard)
                               if reuse is not None else (None, None))
            if frames is None:
                frames = self.emit(_encode_frames_block(shard), compress=True)
            if columns is None:
                columns = {}
                for metric, column in _columns(shard).items():
                    descriptor = columns[metric] = self.emit(
                        _encode_column_block(column), compress=True)
                    descriptor["entries"] = len(column)
            entries.append(dict(origin, insertions=shard.insertions,
                                nodes=shard.node_count(), frames=frames,
                                columns=columns))
        toc: Dict = {"format": FORMAT_BINARY_V1, "version": 1,
                     "tree_kind": tree_kind, "program": program}
        if seal is not None:
            toc["seal"] = seal
        toc["meta"] = meta
        toc["shards"] = entries
        if self._checksums:
            # TOC-level flag: every descriptor in this seal carries a
            # CRC-32.  Readers that predate it ignore the key.
            toc["checksum"] = "crc32"
        self._write_toc(toc)
        return toc

    def copy_seal(self, source, toc: Mapping) -> None:
        """Copy the blocks ``toc`` references out of ``source`` and seal them.

        Compaction: the stored bytes move verbatim (no re-encode, so every
        CRC still holds) in the order a one-shot save writes them, and the
        TOC is rewritten with only the offsets changed.
        """
        def copy(descriptor: Mapping) -> Dict:
            source.seek(int(descriptor["offset"]))
            moved = dict(descriptor)
            moved["offset"] = self.offset
            self._append(source.read(int(descriptor["length"])))
            return moved

        compacted = dict(toc)
        compacted["meta"] = copy(toc["meta"])
        compacted["shards"] = [
            dict(entry, frames=copy(entry["frames"]),
                 columns={metric: copy(descriptor) for metric, descriptor
                          in entry["columns"].items()})
            for entry in toc["shards"]]
        self._write_toc(compacted)

    def _write_toc(self, toc: Mapping) -> None:
        """Append the TOC and the 24-byte tail that seals every byte before."""
        encoded = json.dumps(toc).encode("utf-8")
        self._toc_offset = self.offset
        self._append(encoded)
        self._append(_TAIL.pack(self._toc_offset, len(encoded), BINARY_MAGIC))

    def unreferenced_bytes(self, toc: Mapping) -> int:
        """Bytes before the TOC just written that ``toc``, that TOC, does
        not reference.

        After a streamed seal these are the superseded blocks and the older
        seals' TOCs and tails: exactly what :meth:`copy_seal` drops.
        """
        live = int(toc["meta"]["length"]) + sum(
            int(entry["frames"]["length"])
            + sum(int(column["length"])
                  for column in entry["columns"].values())
            for entry in toc["shards"])
        return self._toc_offset - len(BINARY_MAGIC) - live


def save_binary(database: ProfileDatabase, path: str,
                compression: Optional[str] = None,
                checksums: bool = True) -> str:
    """Write ``database`` as a one-seal ``cct-binary-v1`` file; returns the
    path.  ``compression`` ("zlib") compresses each block independently."""
    codec = check_compression(compression)
    with atomic_write(path) as handle:
        SealWriter(handle, codec, checksums).seal(database)
    return path


# ---------------------------------------------------------------------------
# cct-binary-v1 reader
# ---------------------------------------------------------------------------

def _database_from_view(view: LazyProfileView) -> ProfileDatabase:
    meta = view._meta
    database = ProfileDatabase(
        tree=view,
        metadata=ProfileMetadata.from_dict(meta.get("metadata", {})),
        dlmonitor_stats=dict(meta.get("dlmonitor_stats", {})),
    )
    database.issues = list(meta.get("issues", []))
    return database


def _parse_toc(mm, toc_offset: int, toc_length: int) -> Optional[Dict]:
    """The TOC at ``(offset, length)`` if it parses and self-identifies,
    else None (never raises — the recovery scan probes candidates)."""
    try:
        toc = json.loads(bytes(mm[toc_offset:toc_offset + toc_length])
                         .decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return None
    if isinstance(toc, dict) and toc.get("format") == FORMAT_BINARY_V1:
        return toc
    return None


def _find_seal(mm, path: str) -> Tuple[Dict, int]:
    """Scan backwards from EOF for the last intact seal.

    A seal is a 24-byte tail — ``u64 toc_offset · u64 toc_length ·
    magic`` — whose TOC bounds are self-consistent and whose TOC parses
    as a ``cct-binary-v1`` table of contents.  An arbitrarily truncated
    tail (crash mid-append) simply fails these checks and the scan moves
    to the previous candidate.  Returns ``(toc, seal_end)`` where
    ``seal_end`` is the end offset of the tail (every byte beyond it is
    unsealed garbage).
    """
    magic_length = len(BINARY_MAGIC)
    search_end = len(mm)
    while True:
        found = mm.rfind(BINARY_MAGIC, magic_length, search_end)
        if found < 0:
            raise ProfileFormatError(
                f"{path!r} contains no intact sealed checkpoint (crash "
                f"before the first seal completed, or not a streamed "
                f"{FORMAT_BINARY_V1} profile)")
        tail_start = found - 16
        if tail_start >= magic_length:
            toc_offset, toc_length = struct.unpack_from("<QQ", mm, tail_start)
            if (toc_offset >= magic_length
                    and toc_offset + toc_length == tail_start):
                toc = _parse_toc(mm, toc_offset, toc_length)
                if toc is not None:
                    return toc, found + magic_length
        search_end = found + magic_length - 1


def open_binary(path: str, recover: bool = False) -> LazyProfileView:
    """Map a ``cct-binary-v1`` file and read the TOC; no shard or column is
    decoded.

    With ``recover=True`` the file is scanned backwards for the last
    intact seal instead of requiring one at exactly EOF, so truncated
    crash leftovers and still-growing streams open at their newest
    sealed checkpoint.
    """
    handle = open(path, "rb")
    try:
        mm = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    except ValueError:
        handle.close()
        raise ProfileFormatError(
            f"{path!r} is empty (0 bytes): not a {FORMAT_BINARY_V1} "
            f"profile") from None
    except BaseException:
        handle.close()
        raise
    try:
        if len(mm) < len(BINARY_MAGIC) + _TAIL.size:
            raise ProfileFormatError(
                f"{path!r} is too short ({len(mm)} bytes) to be a "
                f"{FORMAT_BINARY_V1} profile")
        if mm[:len(BINARY_MAGIC)] != BINARY_MAGIC:
            raise ProfileFormatError(
                f"{path!r} does not start with the {FORMAT_BINARY_V1} "
                f"magic")
        if recover:
            toc, seal_end = _find_seal(mm, path)
        else:
            seal_end = len(mm)
            toc_offset, toc_length, tail_magic = _TAIL.unpack(mm[-_TAIL.size:])
            if tail_magic != BINARY_MAGIC:
                raise ProfileFormatError(
                    f"{path!r} is truncated or corrupt: trailing "
                    f"{FORMAT_BINARY_V1} magic missing (file cut "
                    f"mid-block or mid-seal; recover_profile() reopens "
                    f"the last sealed checkpoint of a streamed profile)")
            toc = _parse_toc(mm, toc_offset, toc_length)
            if toc is None:
                raise ProfileFormatError(
                    f"{path!r} is truncated or corrupt: the trailing "
                    f"table of contents does not parse as a "
                    f"{FORMAT_BINARY_V1} TOC")
        meta_descriptor = toc.get("meta", {})
        meta_offset = int(meta_descriptor.get("offset", 0))
        meta_length = int(meta_descriptor.get("length", 0))
        meta_bytes = bytes(mm[meta_offset:meta_offset + meta_length])
        expected_crc = meta_descriptor.get("crc32")
        if meta_length and expected_crc is not None:
            actual_crc = zlib.crc32(meta_bytes) & 0xFFFFFFFF
            if actual_crc != int(expected_crc):
                raise ProfileCorruptionError(
                    f"{path!r}: meta block at offset {meta_offset} "
                    f"(length {meta_length}) failed CRC-32 verification "
                    f"(stored 0x{int(expected_crc):08x}, computed "
                    f"0x{actual_crc:08x}); the block's bytes changed "
                    f"after sealing")
        try:
            meta = (json.loads(meta_bytes.decode("utf-8"))
                    if meta_length else {})
        except (UnicodeDecodeError, ValueError) as error:
            raise ProfileCorruptionError(
                f"{path!r}: meta block at offset {meta_offset} does not "
                f"parse as JSON ({error})") from None
    except BaseException:
        mm.close()
        handle.close()
        raise
    if TELEMETRY.enabled:
        TELEMETRY.count("storage.views_opened")
    return LazyProfileView(path, handle, mm, toc, meta, seal_end=seal_end)
