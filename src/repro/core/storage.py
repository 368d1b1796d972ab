"""Pluggable profile storage engine.

Profile persistence is a registry of :class:`StorageBackend` implementations
instead of format branching inside ``ProfileDatabase``:

* ``json`` — the legacy nested node-by-node JSON encoding;
* ``columnar-json`` — flat frame/metric columns in JSON (single-tree or
  multi-shard with thread provenance), the compact text format;
* ``cct-binary-v1`` — an mmap-backed binary columnar format: each shard's
  frame table and each of its per-metric columns is an independent
  struct-packed block, addressed by a footer table of contents, so opening a
  profile is one ``mmap`` plus a TOC read and queries decode only the
  shards/columns they touch (see :class:`LazyProfileView` and
  ``docs/FORMATS.md`` for the block layout).

``ProfileDatabase.save``/``load`` dispatch here; ``load`` sniffs the on-disk
format (magic bytes, then a JSON probe) rather than assuming one, and new
backends — compressed, remote — plug in through :func:`register_backend`
without touching the database class.

The binary format additionally supports *streamed* files: a file may contain
several sealed checkpoints (block runs each terminated by a TOC + tail), the
newest seal at EOF being the authoritative one.  :func:`recover_profile`
scans backwards for the last intact seal of a crashed/truncated stream, and
:meth:`LazyProfileView.attach`/:meth:`LazyProfileView.refresh` open (and
follow) a profile that another process is still appending to.  The writer
side lives in :mod:`repro.core.streaming`.
"""

from __future__ import annotations

import array
import json
import mmap
import os
import struct
import sys
import zlib
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from ..dlmonitor.callpath import Frame, FrameKind
from ..obs import TELEMETRY
from .cct import (DEFAULT_SHARD_ID, CallingContextTree, CCTNode,
                  ShardedCallingContextTree)
from .database import ProfileDatabase, ProfileMetadata

# Canonical backend names (``FORMAT_*`` on ProfileDatabase alias these).
FORMAT_JSON = "json"
FORMAT_COLUMNAR_JSON = "columnar-json"
FORMAT_BINARY_V1 = "cct-binary-v1"

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


#: Stable on-disk codes for frame kinds (append-only across versions).
KIND_CODES: Dict[FrameKind, int] = {
    FrameKind.ROOT: 0, FrameKind.THREAD: 1, FrameKind.PYTHON: 2,
    FrameKind.FRAMEWORK: 3, FrameKind.NATIVE: 4, FrameKind.GPU_API: 5,
    FrameKind.GPU_KERNEL: 6, FrameKind.GPU_INSTRUCTION: 7,
}
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
# Backend interface and registry
# ---------------------------------------------------------------------------

class StorageBackend:
    """One on-disk profile format: how to save, load, and recognise it."""

    #: Canonical registry name (also the name format sniffing reports).
    name: str = ""
    #: Alternate names accepted by ``save(format=...)`` (legacy spellings).
    aliases: Tuple[str, ...] = ()
    #: Whether ``save`` honours per-block compression.  Backends that don't
    #: reject an *explicit* compression argument, while the session-wide
    #: ``profile_compression`` default simply doesn't apply to them.
    supports_compression: bool = False

    def save(self, database: ProfileDatabase, path: str,
             compression: Optional[str] = None) -> str:
        raise NotImplementedError

    def load(self, path: str) -> ProfileDatabase:
        raise NotImplementedError

    def sniff(self, head: bytes) -> bool:
        """Whether ``head`` (the file's first bytes) starts one of this
        backend's files.  Registered backends are asked in registration
        order, so a custom backend (compressed, remote cache, ...) claims its
        own magic here and ``ProfileDatabase.load`` dispatches to it without
        any change to the database class.  JSON-family backends return False:
        they are told apart by payload keys after a single shared parse.
        """
        return False


_REGISTRY: Dict[str, StorageBackend] = {}
_BACKENDS: List[StorageBackend] = []


def register_backend(backend: StorageBackend) -> StorageBackend:
    """Register a backend under its canonical name and every alias."""
    _BACKENDS.append(backend)
    for alias in (backend.name, *backend.aliases):
        _REGISTRY[alias] = backend
    return backend


def registered_formats() -> List[str]:
    """Canonical names of every registered backend (registration order)."""
    return [backend.name for backend in _BACKENDS]


def backend_for(name: str) -> StorageBackend:
    backend = _REGISTRY.get(name)
    if backend is None:
        raise ValueError(
            f"unknown profile format {name!r}; registered formats: "
            f"{', '.join(registered_formats())}")
    return backend


def _canonical(name: str) -> str:
    return backend_for(name).name


# ---------------------------------------------------------------------------
# Format sniffing
# ---------------------------------------------------------------------------

#: How many leading bytes backends get to sniff (plenty for any magic).
_SNIFF_BYTES = 64


def _detect(path: str) -> Tuple[str, Optional[Dict], Optional[StorageBackend]]:
    """Detect a profile's format: ``(name, parsed JSON or None, backend)``.

    Registered backends are offered the file head first (in registration
    order), so plugged-in binary formats are recognised without touching this
    module; files no backend claims are probed as JSON — parsed exactly once
    — and classified by their tree payload key.
    """
    with open(path, "rb") as handle:
        head = handle.read(_SNIFF_BYTES)
    if not head:
        raise ProfileFormatError(
            f"{path!r} is empty (0 bytes): not a profile in any registered "
            f"format")
    for backend in _BACKENDS:
        if backend.sniff(head):
            return backend.name, None, backend
    data = _probe_json(path)
    return _classify_json(data, path), data, None


def detect_format(path: str) -> str:
    """The canonical format name of the profile stored at ``path``.

    Raises :class:`ProfileFormatError` (a ``ValueError``) naming the path and
    the detected condition — empty file, truncation, unknown encoding — for
    files no backend recognises.
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
    """Sniff the on-disk format and load through the matching backend.

    With ``expected_format`` the detected format must match, otherwise a
    ``ValueError`` naming the *detected* format is raised — the caller asked
    for one encoding and got a file in another.
    """
    expected = _canonical(expected_format) if expected_format is not None else None
    detected, payload, backend = _detect(path)
    if expected is not None and expected != detected:
        raise ValueError(
            f"profile at {path!r} is in {detected!r} format, not the "
            f"requested {expected!r}")
    if backend is not None:
        return backend.load(path)
    # JSON family: _detect already parsed the document; decode it directly so
    # detection does not cost a second full parse.
    return ProfileDatabase.from_dict(payload)


def recover_profile(path: str) -> ProfileDatabase:
    """Reopen a streamed ``cct-binary-v1`` profile at its last intact seal.

    The append-then-reseal layout guarantees every sealed prefix is a valid
    profile, so after a crash (arbitrarily truncated tail: mid-block,
    mid-TOC, mid-tail) the file is scanned backwards from EOF for the newest
    seal whose TOC still parses, and the profile opens there — exactly the
    last checkpoint that completed.  Bytes beyond the seal are ignored.
    Raises :class:`ProfileFormatError` when no seal ever completed.
    """
    backend = backend_for(FORMAT_BINARY_V1)
    return backend._database_from_view(backend.open(path, recover=True))


# ---------------------------------------------------------------------------
# JSON-family backends
# ---------------------------------------------------------------------------

def _atomic_write(path: str, writer) -> str:
    """Stream into a sibling temp file and rename over the target, so neither
    an encoding failure nor a mid-write crash/disk-full can truncate an
    existing profile at ``path``."""
    temp_path = f"{path}.tmp"
    try:
        writer(temp_path)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise
    os.replace(temp_path, path)
    return path


class JsonBackend(StorageBackend):
    """The legacy nested node-by-node JSON encoding."""

    name = FORMAT_JSON

    def save(self, database: ProfileDatabase, path: str,
             compression: Optional[str] = None) -> str:
        if check_compression(compression) is not None:
            raise ValueError(
                f"the {self.name!r} backend does not support per-block "
                f"compression; save with format={FORMAT_BINARY_V1!r} instead")
        data = database.to_dict(format=self.name)

        def write(temp_path: str) -> None:
            try:
                with open(temp_path, "w", encoding="utf-8") as handle:
                    json.dump(data, handle)
            except RecursionError:
                raise ValueError(
                    f"trace too deep for the nested {FORMAT_JSON!r} encoding "
                    f"(stdlib json recursion limit); save with "
                    f"format={FORMAT_COLUMNAR_JSON!r} or "
                    f"{FORMAT_BINARY_V1!r} instead") from None

        return _atomic_write(path, write)

    def load(self, path: str) -> ProfileDatabase:
        return load_profile(path, expected_format=self.name)


class ColumnarJsonBackend(JsonBackend):
    """Flat frame/metric columns in JSON (single-tree or sharded)."""

    name = FORMAT_COLUMNAR_JSON
    aliases = ("columnar",)


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
    index_of = {id(node): index for index, node in enumerate(registry)}
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
    parents: List[int] = []
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
        parents.append(index_of[id(node.parent)] if node.parent is not None else -1)

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


def pack_block(block: bytes, offset: int, codec: Optional[str],
               compress: bool, checksum: bool = True) -> Tuple[bytes, Dict]:
    """Apply per-block compression and build the block's TOC descriptor.

    The single definition of the descriptor protocol (``offset``/``length``
    plus the ``compression``/``raw_length``/``crc32`` flags) shared by
    one-shot saves and streamed checkpoints, so the two writers cannot
    diverge on what the lazy reader must understand.

    With ``checksum`` (the default) the descriptor carries the CRC-32 of the
    *stored* bytes (i.e. after compression), which is what lets a reader
    verify a block straight off the mapping before spending any decode work
    on it.  Readers that predate the flag simply ignore the extra key, and
    files without it load as before — the flag is backward- and
    forward-compatible.
    """
    descriptor: Dict = {"offset": offset}
    if compress and codec is not None:
        raw_length = len(block)
        block = zlib.compress(block)
        descriptor["compression"] = codec
        descriptor["raw_length"] = raw_length
    descriptor["length"] = len(block)
    if checksum:
        descriptor["crc32"] = zlib.crc32(block) & 0xFFFFFFFF
    return block, descriptor


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
    """Total of one column's ``sum`` array without decoding the rest."""
    (entry_count,) = _COLUMN_HEADER.unpack_from(bytes(buffer[:_COLUMN_HEADER.size]), 0)
    offset = _COLUMN_HEADER.size
    offset += 4 * entry_count   # node indexes (u32)
    offset += 8 * entry_count   # counts (u64)
    sums, _end = _read_array("d", buffer, offset, entry_count)
    return float(sum(sums))


#: ``kind_code`` key of the all-kinds rows in per-name state aggregations.
#: An unfiltered ``aggregate_by_name`` interleaves every kind's nodes in
#: node order, so its sums cannot be reconstructed from per-kind subtotals
#: (float addition is not associative) — the all-kinds rollup is accumulated
#: as its own first-class row instead of derived.
ALL_KINDS = -1


def accumulate_name_state(totals: Dict, key,
                          count: int, total: float, minimum: float,
                          maximum: float, mean: float, m2: float) -> None:
    """Fold one Welford state tuple into ``totals[key]``.

    The one fold behind every per-name summary row: per shard, across
    shards (:meth:`LazyProfileView.column_name_states`) and across runs
    (``FleetAggregator.name_states``).  The statistical fields merge with
    the exact operation sequence of ``MetricAggregate.merge``
    (parallel/Chan Welford), but the ``sum`` field follows the tree path's
    ``aggregate_by_name`` recurrence — ``totals.get(name, 0.0) + value`` —
    so a row's sum is bit for bit that rollup's value, even for the
    ``0.0 + (-0.0)`` corner a copy-on-first-merge would get wrong.
    Callers only feed states with ``count > 0`` (stored column entries are
    filtered at write time), so the zero-count branches of the aggregate
    merge never arise here.
    """
    previous = totals.get(key)
    if previous is None:
        totals[key] = (count, 0.0 + total, minimum, maximum, mean, m2)
        return
    p_count, p_sum, p_min, p_max, p_mean, p_m2 = previous
    combined = p_count + count
    delta = mean - p_mean
    merged_m2 = p_m2 + m2 + delta * delta * p_count * count / combined
    merged_mean = (p_mean * p_count + mean * count) / combined
    totals[key] = (combined, p_sum + total,
                   minimum if minimum < p_min else p_min,
                   maximum if maximum > p_max else p_max,
                   merged_mean, merged_m2)


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

    def ensure_column(self, metric: str) -> None:
        """Decode one metric column into the shard's nodes, once."""
        descriptor = self.entry["columns"].get(metric)
        if descriptor is None or metric in self.loaded_columns:
            return
        with TELEMETRY.span("storage.decode.column", shard=self.shard_id,
                            metric=metric):
            tree = self.tree()
            columns = _decode_column_block(
                self._block(descriptor, self._column_label(metric)))
            tree.install_exclusive_column(self._nodes, metric, *columns)
            self.loaded_columns.add(metric)

    def full_tree(self) -> CallingContextTree:
        for metric in self.entry["columns"]:
            self.ensure_column(metric)
        return self.tree()

    def column_sum_total(self, metric: str) -> float:
        descriptor = self.entry["columns"].get(metric)
        if descriptor is None:
            return 0.0
        if metric in self.loaded_columns:
            return self.tree().total_metric(metric)
        return _column_sums(self._block(descriptor, self._column_label(metric)))

    def aggregate_by_name(self, kind: Optional[FrameKind],
                          metric: str) -> Dict[str, float]:
        self.ensure_column(metric)
        return self.tree().aggregate_by_name(kind=kind, metric=metric)

    def name_states_columns(self, metric: str) -> Dict[Tuple[int, str], Tuple]:
        """Per-name Welford states straight from the raw blocks.

        Returns ``{(kind_code, name): (count, sum, min, max, mean, m2)}``
        with one row per ``(kind, name)`` pair observed in this shard *plus*
        an :data:`ALL_KINDS` row per name (the unfiltered rollup, which is
        not derivable from the per-kind rows — see :data:`ALL_KINDS`).  One
        walk of the column in node-index order — the registration order the
        tree path's ``aggregate_by_name`` sums in — feeds both key families,
        so every row's ``sum`` matches that path's filtered rollup bit for
        bit.  Only names and kind codes are decoded from the frames block
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
            totals: Dict[Tuple[int, str], Tuple] = {}
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


class LazyProfileView:
    """Query-facing view of an mmap-backed ``cct-binary-v1`` profile.

    Opening a profile maps the file and reads the footer TOC; nothing else is
    decoded.  Queries then materialize the minimum they need:

    * ``total_metric`` sums a metric's column blocks directly — no frame
      tables are decoded at all;
    * ``aggregate_by_name`` (and the per-shard ``shard_aggregate_by_name``)
      decode only the touched shards' frame tables plus the one requested
      metric column per shard — per-shard results combine by name, so no
      merged tree is built;
    * everything structural (``root``, traversals, kind indexes, ``find``)
      hydrates the full tree on first use — :meth:`hydrate` — after which the
      view behaves exactly like the eager tree it decodes into.

    The read API mirrors ``CallingContextTree``/``ShardedCallingContextTree``
    so the query layer, the GUI exporters and the experiment harness work
    unchanged against either.  Lazy views are read-only: mutate the tree
    returned by :meth:`hydrate` instead.
    """

    is_merged_view = False

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
        self._aggregate_cache: Dict[Tuple, Tuple[Tuple, Dict[str, float]]] = {}
        self._total_cache: Dict[str, Tuple[Tuple, float]] = {}
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
        backend = backend_for(FORMAT_BINARY_V1)
        try:
            return backend.open(path, recover=True)
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
        backend = backend_for(FORMAT_BINARY_V1)
        try:
            fresh = backend.open(self.path, recover=True)
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
        """Shards whose frame tables have been decoded."""
        return {tid for tid, shard in self._shards.items()
                if shard.structure_decoded}

    def decoded_columns(self) -> set:
        """``(shard id, metric)`` pairs whose columns have been decoded."""
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
        """Whole-profile metric total from the column blocks alone.

        Memoized behind the decoded shards' generation signature (the same
        key ``aggregate_by_name`` uses), so mutations made through a
        ``shard_tree()`` handle invalidate totals and aggregations alike.
        """
        if self._hydrated is not None:
            return self._hydrated.total_metric(metric)
        signature = self._generation_signature()
        cached = self._total_cache.get(metric)
        if cached is not None and cached[0] == signature:
            return cached[1]
        total = sum(shard.column_sum_total(metric)
                    for shard in self._shards.values())
        self._total_cache[metric] = (signature, total)
        return total

    def _generation_signature(self) -> Tuple:
        return tuple(shard._tree._generation if shard._tree is not None else -1
                     for shard in self._shards.values())

    def aggregate_by_name(self, kind: Optional[FrameKind] = None,
                          metric: str = "gpu_time") -> Dict[str, float]:
        """Cross-shard bottom-up aggregation without building a merged tree.

        Per-shard aggregations (frame table + one metric column each) sum by
        name into the same rows a merged tree would produce: a merged node's
        aggregate is the Welford merge of its per-shard contributions, and
        sums are additive.
        """
        if self._hydrated is not None:
            return self._hydrated.aggregate_by_name(kind=kind, metric=metric)
        key = (kind, metric)
        cached = self._aggregate_cache.get(key)
        signature = self._generation_signature()
        if cached is not None and cached[0] == signature:
            return dict(cached[1])
        totals: Dict[str, float] = {}
        for shard in self._shards.values():
            for name, value in shard.aggregate_by_name(kind, metric).items():
                totals[name] = totals.get(name, 0.0) + value
        self._aggregate_cache[key] = (self._generation_signature(), totals)
        return dict(totals)

    def column_name_states(self, metric: str) -> Dict[Tuple[int, str], Tuple]:
        """Whole-profile per-name Welford states from the raw blocks.

        Returns ``{(kind_code, name): (count, sum, min, max, mean, m2)}``:
        per-shard :meth:`_LazyShard.name_states_columns` results folded in
        shard order with :func:`accumulate_name_state`, the cross-shard
        recurrence :meth:`aggregate_by_name` uses — for any kind code
        (including :data:`ALL_KINDS`), projecting the ``sum`` fields gives
        that method's rows bit for bit, without decoding any structure.
        These are the rows a fleet summary stores per run
        (``RunSummary.from_view``).  Not memoized (summaries are built once
        and cached at their own layer) and deliberately independent of
        decode caches: it reads the sealed bytes even when a hydrated tree
        is warm.
        """
        totals: Dict[Tuple[int, str], Tuple] = {}
        for shard in self._shards.values():
            for key, state in shard.name_states_columns(metric).items():
                accumulate_name_state(totals, key, *state)
        return totals

    def shard_aggregate_by_name(self, shard_id: int,
                                kind: Optional[FrameKind] = None,
                                metric: str = "gpu_time") -> Dict[str, float]:
        """Single-shard aggregation: decodes only that shard's frame table
        and the one requested metric column."""
        shard = self._shards.get(shard_id)
        if shard is None:
            raise KeyError(f"profile has no shard {shard_id!r}; "
                           f"available: {sorted(self._shards)}")
        return shard.aggregate_by_name(kind, metric)

    def shard_tree(self, shard_id: int) -> CallingContextTree:
        """One shard fully decoded (structure plus every metric column)."""
        shard = self._shards.get(shard_id)
        if shard is None:
            raise KeyError(f"profile has no shard {shard_id!r}; "
                           f"available: {sorted(self._shards)}")
        return shard.full_tree()

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

    # -- eager read API (delegates to the hydrated tree) -------------------------------

    @property
    def root(self) -> CCTNode:
        return self.merged().root

    def nodes(self):
        return self.merged().nodes()

    def bfs(self):
        return self.merged().bfs()

    def all_nodes(self) -> List[CCTNode]:
        return self.merged().all_nodes()

    def leaves(self):
        return self.merged().leaves()

    def find(self, predicate) -> List[CCTNode]:
        return self.merged().find(predicate)

    def nodes_of_kind(self, kind: FrameKind) -> List[CCTNode]:
        return self.merged().nodes_of_kind(kind)

    @property
    def kernels(self) -> List[CCTNode]:
        return self.merged().kernels

    @property
    def operators(self) -> List[CCTNode]:
        return self.merged().operators

    @property
    def scopes(self) -> List[CCTNode]:
        return self.merged().scopes

    def node_count(self) -> int:
        return self.merged().node_count()

    def max_depth(self) -> int:
        return self.merged().max_depth()

    def ensure_inclusive(self) -> None:
        self.merged().ensure_inclusive()

    @property
    def generation(self) -> int:
        """0 while the view is an immutable mapping; the hydrated tree's
        counter afterwards (hydrated trees are mutable)."""
        return self._hydrated.generation if self._hydrated is not None else 0

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

    def to_dict(self) -> Dict:
        return self.hydrate().to_dict()

    def to_columnar(self) -> Dict:
        return self.hydrate().to_columnar()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"LazyProfileView({self.path!r}, shards={len(self._shards)}, "
                f"decoded={len(self.decoded_shard_ids())}, "
                f"hydrated={self.hydrated})")


class BinaryV1Backend(StorageBackend):
    """The mmap-backed binary columnar format (``cct-binary-v1``)."""

    name = FORMAT_BINARY_V1
    aliases = ("binary",)
    supports_compression = True

    def sniff(self, head: bytes) -> bool:
        return head.startswith(BINARY_MAGIC)

    # -- save ---------------------------------------------------------------------------

    def save(self, database: ProfileDatabase, path: str,
             compression: Optional[str] = None,
             checksums: bool = True) -> str:
        codec = check_compression(compression)
        shards, provenance, tree_kind, program = self._shard_map(database.tree)

        def write(temp_path: str) -> None:
            with open(temp_path, "wb") as handle:
                handle.write(BINARY_MAGIC)
                offset = len(BINARY_MAGIC)

                def emit(block: bytes, compress: bool = False) -> Dict[str, int]:
                    nonlocal offset
                    block, descriptor = pack_block(block, offset, codec,
                                                   compress,
                                                   checksum=checksums)
                    handle.write(block)
                    offset += len(block)
                    return descriptor

                meta_block = emit(json.dumps({
                    "metadata": database.metadata.as_dict(),
                    "dlmonitor_stats": dict(database.dlmonitor_stats),
                    "issues": list(database.issues),
                }).encode("utf-8"))

                shard_entries: List[Dict] = []
                for origin, (_tid, shard) in zip(provenance, shards.items()):
                    entry: Dict[str, object] = dict(origin)
                    entry["insertions"] = shard.insertions
                    entry["nodes"] = shard.node_count()
                    entry["frames"] = emit(_encode_frames_block(shard),
                                           compress=True)
                    columns: Dict[str, Dict] = {}
                    for metric, column in self._columns(shard).items():
                        descriptor = emit(_encode_column_block(column),
                                          compress=True)
                        descriptor["entries"] = len(column)
                        columns[metric] = descriptor
                    entry["columns"] = columns
                    shard_entries.append(entry)

                document = {
                    "format": FORMAT_BINARY_V1,
                    "version": 1,
                    "tree_kind": tree_kind,
                    "program": program,
                    "meta": meta_block,
                    "shards": shard_entries,
                }
                if checksums:
                    # TOC-level flag: every descriptor in this seal carries a
                    # CRC-32.  Readers that predate it ignore the key.
                    document["checksum"] = "crc32"
                toc = json.dumps(document).encode("utf-8")
                toc_offset = offset
                handle.write(toc)
                handle.write(_TAIL.pack(toc_offset, len(toc), BINARY_MAGIC))

        return _atomic_write(path, write)

    @staticmethod
    def _shard_map(tree) -> Tuple[Dict[int, CallingContextTree],
                                  List[Dict[str, object]], str, str]:
        if isinstance(tree, LazyProfileView):
            tree = tree.hydrate()
        if isinstance(tree, ShardedCallingContextTree):
            return (tree.shards(), tree.shard_provenance(), "sharded",
                    tree.program_name)
        provenance = [{"shard_id": DEFAULT_SHARD_ID, "thread_name": "",
                       "thread_kind": ""}]
        return ({DEFAULT_SHARD_ID: tree}, provenance, "single",
                tree.root.frame.name)

    @staticmethod
    def _columns(shard: CallingContextTree) -> Dict[str, List[Tuple[int, Tuple]]]:
        """Per-metric ``(node index, aggregate state)`` columns of one shard.

        Count-0 zombie aggregates are skipped, the same policy the JSON
        encodings apply (``MetricSet.as_dict``): they mean "nothing observed"
        and would round-trip as spurious rows.
        """
        columns: Dict[str, List[Tuple[int, Tuple]]] = {}
        for index, node in enumerate(shard.all_nodes()):
            for metric, aggregate in node.exclusive.items():
                if aggregate.count <= 0:
                    continue
                columns.setdefault(metric, []).append((index, aggregate.state()))
        return columns

    # -- load ---------------------------------------------------------------------------

    def load(self, path: str) -> ProfileDatabase:
        return self._database_from_view(self.open(path))

    @staticmethod
    def _database_from_view(view: LazyProfileView) -> ProfileDatabase:
        meta = view._meta
        database = ProfileDatabase(
            tree=view,
            metadata=ProfileMetadata.from_dict(meta.get("metadata", {})),
            dlmonitor_stats=dict(meta.get("dlmonitor_stats", {})),
        )
        database.issues = list(meta.get("issues", []))
        return database

    @staticmethod
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

    @classmethod
    def _find_seal(cls, mm, path: str) -> Tuple[Dict, int]:
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
                toc_offset, toc_length = struct.unpack_from("<QQ", mm,
                                                            tail_start)
                if (toc_offset >= magic_length
                        and toc_offset + toc_length == tail_start):
                    toc = cls._parse_toc(mm, toc_offset, toc_length)
                    if toc is not None:
                        return toc, found + magic_length
            search_end = found + magic_length - 1

    def open(self, path: str, recover: bool = False) -> LazyProfileView:
        """Map the file and read the TOC; no shard or column is decoded.

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
                toc, seal_end = self._find_seal(mm, path)
            else:
                seal_end = len(mm)
                toc_offset, toc_length, tail_magic = _TAIL.unpack(mm[-_TAIL.size:])
                if tail_magic != BINARY_MAGIC:
                    raise ProfileFormatError(
                        f"{path!r} is truncated or corrupt: trailing "
                        f"{FORMAT_BINARY_V1} magic missing (file cut "
                        f"mid-block or mid-seal; recover_profile() reopens "
                        f"the last sealed checkpoint of a streamed profile)")
                toc = self._parse_toc(mm, toc_offset, toc_length)
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


# ---------------------------------------------------------------------------
# Default registry
# ---------------------------------------------------------------------------

register_backend(JsonBackend())
register_backend(ColumnarJsonBackend())
register_backend(BinaryV1Backend())
