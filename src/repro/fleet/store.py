"""The multi-run profile store: a content-addressed run catalog on disk.

A :class:`ProfileStore` turns a directory into a fleet of profiling runs:

* every ingested profile is canonicalised to one sealed ``cct-binary-v1``
  file — whatever it arrived as (a live ``ProfileDatabase``, a JSON profile,
  a sealed binary file, or a crashed/still-growing streamed checkpoint file
  recovered at its last intact seal) — and stored *content-addressed*: the
  run id is the SHA-256 of the canonical bytes, so re-ingesting the same
  profile is a no-op instead of a duplicate catalog row;
* ``catalog.json`` records one :class:`RunRecord` per run — workload,
  platform (device/vendor/framework), a hash of the profiler configuration,
  ingest timestamp, per-metric totals and node/shard counts — so fleet
  queries can filter and rank runs without opening a single profile;
* queries open profiles as mmap-backed ``LazyProfileView``\\ s
  (:meth:`ProfileStore.open_view`), which is what lets the
  :class:`~repro.fleet.aggregate.FleetAggregator` answer fleet-wide
  questions from column sums without hydrating every tree.

Layout::

    <root>/
      catalog.json           # {"version": 1, "runs": [RunRecord...]}
      profiles/<run_id>.cctb # canonical sealed cct-binary-v1 profiles
      index/names.json       # fleet query index: global name dictionary
      index/runs/<id>.json   # fleet query index: per-run columnar summaries
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple, Union

from ..core.database import ProfileDatabase, ProfileMetadata
from ..core.storage import (BINARY_MAGIC, LazyProfileView, ProfileFormatError,
                            check_compression, load_profile, open_binary,
                            recover_profile, save_binary)
from ..durable import atomic_write
from ..obs import TELEMETRY
from .index import FleetIndex, RunSummary

CATALOG_NAME = "catalog.json"
CATALOG_VERSION = 1
PROFILE_DIR = "profiles"
PROFILE_SUFFIX = ".cctb"
#: Hex digits of the SHA-256 digest used as the run id (the full digest is
#: kept in the record; 16 hex chars = 64 bits, collision-safe for any fleet).
RUN_ID_LENGTH = 16

#: ``latest``-style spellings accepted where a run id is expected.
LATEST_ALIASES = ("latest", "auto")

#: Run health states the catalog records.
STATUS_OK = "ok"
STATUS_QUARANTINED = "quarantined"

#: Advisory catalog lock (sibling of ``catalog.json``).
LOCK_NAME = "catalog.lock"
#: How long a writer waits for the lock before giving up.
LOCK_TIMEOUT_S = 10.0
#: A lock file older than this is presumed abandoned (crashed holder) and
#: broken — catalog writes take milliseconds, so a half-minute-old lock
#: means its owner died between acquire and release.
LOCK_STALE_S = 30.0


class CatalogLockTimeout(TimeoutError):
    """The catalog lock could not be acquired within the bounded wait."""


#: Always-on catalog-lock statistics, kept even while telemetry is
#: disabled: lock contention is exactly the signal one wants *after* an
#: incident, when nobody thought to enable tracing beforehand.  Read via
#: :func:`catalog_lock_stats`; all mutation goes through
#: :func:`_note_lock_wait` under the guard.
_LOCK_STATS_GUARD = threading.Lock()
_LOCK_STATS: Dict[str, float] = {
    "acquires": 0.0,       # successful acquisitions
    "contended": 0.0,      # ...that found the lock file held at least once
    "wait_seconds": 0.0,   # cumulative wall time spent waiting (all outcomes)
    "stale_breaks": 0.0,   # abandoned lock files this process unlinked
    "timeouts": 0.0,       # acquisitions abandoned via CatalogLockTimeout
}


def catalog_lock_stats() -> Dict[str, float]:
    """A copy of the process-wide catalog-lock counters (always on)."""
    with _LOCK_STATS_GUARD:
        return dict(_LOCK_STATS)


def reset_catalog_lock_stats() -> None:
    with _LOCK_STATS_GUARD:
        for key in _LOCK_STATS:
            _LOCK_STATS[key] = 0.0


def _note_lock_wait(waited: float, contended: bool, stale_breaks: int,
                    timed_out: bool) -> None:
    with _LOCK_STATS_GUARD:
        if timed_out:
            _LOCK_STATS["timeouts"] += 1
        else:
            _LOCK_STATS["acquires"] += 1
            if contended:
                _LOCK_STATS["contended"] += 1
        _LOCK_STATS["wait_seconds"] += waited
        _LOCK_STATS["stale_breaks"] += stale_breaks
    if TELEMETRY.enabled:
        TELEMETRY.count("fleet.lock_wait_seconds", waited)
        if timed_out:
            TELEMETRY.count("fleet.lock_timeouts")
        else:
            TELEMETRY.count("fleet.lock_acquires")
        if stale_breaks:
            TELEMETRY.count("fleet.lock_stale_breaks", stale_breaks)


class _CatalogLock:
    """Advisory inter-process lock: ``O_CREAT | O_EXCL`` on a lock file.

    Guards the catalog's read-merge-write cycle so two processes ingesting
    into one store serialize their catalog updates instead of racing (the
    merge alone closes the window only for non-overlapping writes; the lock
    closes it entirely).  Acquisition retries with exponential backoff up to
    a bounded timeout; a stale lock — older than ``stale_s``, i.e. its
    holder crashed between acquire and release — is broken rather than
    waited on forever.  Catalog and index files are written only through
    :meth:`write_json`, which refuses unless the lock is held.
    """

    def __init__(self, path: str, timeout_s: float = LOCK_TIMEOUT_S,
                 stale_s: float = LOCK_STALE_S) -> None:
        self.path = path
        self.timeout_s = timeout_s
        self.stale_s = stale_s
        self.held = False

    def acquire(self) -> None:
        started = time.monotonic()
        deadline = started + self.timeout_s
        delay = 0.002
        contended = False
        stale_breaks = 0
        with TELEMETRY.span("fleet.catalog.lock", path=self.path):
            while True:
                try:
                    fd = os.open(self.path,
                                 os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                except FileExistsError:
                    contended = True
                    try:
                        age = time.time() - os.stat(self.path).st_mtime
                    except OSError:
                        # Released since the open, or unreadable (a
                        # dangling symlink): back off like any other wait.
                        age = None
                    if age is not None and age > self.stale_s:
                        # Break the abandoned lock; the O_EXCL retry
                        # arbitrates between several breakers.  Only a
                        # break that succeeded retries at once: a lock we
                        # may not remove is waited on like a live one.
                        try:
                            os.unlink(self.path)
                        except OSError:
                            pass
                        else:
                            stale_breaks += 1
                            continue
                    if time.monotonic() >= deadline:
                        waited = time.monotonic() - started
                        _note_lock_wait(waited, contended, stale_breaks,
                                        timed_out=True)
                        holder = ("lock file unreadable" if age is None else
                                  f"held by another ingest/scrub for "
                                  f"{age:.1f}s")
                        raise CatalogLockTimeout(
                            f"could not acquire catalog lock {self.path!r} "
                            f"within {self.timeout_s}s (waited {waited:.2f}s; "
                            f"{holder})") from None
                    time.sleep(delay)
                    delay = min(delay * 2, 0.1)
                else:
                    try:
                        os.write(fd, f"{os.getpid()}\n".encode("ascii"))
                    finally:
                        os.close(fd)
                    _note_lock_wait(time.monotonic() - started, contended,
                                    stale_breaks, timed_out=False)
                    self.held = True
                    return

    def release(self) -> None:
        self.held = False
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass

    def write_json(self, path: str, payload,
                   indent: Optional[int] = None) -> None:
        """Atomically replace ``path`` with ``payload`` as JSON, under the lock."""
        if not self.held:
            raise RuntimeError(f"refusing to write {path!r}: catalog lock "
                               f"{self.path!r} is not held")
        with atomic_write(path, "w") as handle:
            json.dump(payload, handle, indent=indent)

    def __enter__(self) -> "_CatalogLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


def config_hash(config: Mapping) -> str:
    """Stable short hash of a profiler configuration mapping.

    Runs with the same knobs hash identically regardless of dict order, so
    the catalog can group "same config, different day" runs for baselining.
    """
    encoded = json.dumps(dict(config), sort_keys=True, default=str)
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()[:12]


@dataclass
class RunRecord:
    """One catalogued run: identity, provenance, and headline numbers."""

    run_id: str
    digest: str
    path: str  # relative to the store root
    workload: str
    program: str = ""
    framework: str = ""
    execution_mode: str = ""
    device: str = ""
    vendor: str = ""
    iterations: int = 0
    config_hash: str = ""
    ingested_at: float = 0.0
    elapsed_virtual_seconds: float = 0.0
    profiler_wall_seconds: float = 0.0
    nodes: int = 0
    shards: int = 0
    #: Whole-profile totals per metric (from the stored file's column sums).
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Free-form caller labels ("ci": "nightly", "branch": ...).
    labels: Dict[str, str] = field(default_factory=dict)
    #: Health state: ``STATUS_OK`` or ``STATUS_QUARANTINED``.  Quarantined
    #: runs stay catalogued (their bytes may still be salvageable, and the
    #: record documents *what* rotted) but are excluded from queries.
    status: str = STATUS_OK
    #: Why the run was quarantined ("" while healthy).
    quarantine_reason: str = ""
    #: When it was quarantined (0.0 while healthy).
    quarantined_at: float = 0.0

    @property
    def healthy(self) -> bool:
        return self.status == STATUS_OK

    def as_dict(self) -> Dict[str, object]:
        return {
            "run_id": self.run_id,
            "digest": self.digest,
            "path": self.path,
            "workload": self.workload,
            "program": self.program,
            "framework": self.framework,
            "execution_mode": self.execution_mode,
            "device": self.device,
            "vendor": self.vendor,
            "iterations": self.iterations,
            "config_hash": self.config_hash,
            "ingested_at": self.ingested_at,
            "elapsed_virtual_seconds": self.elapsed_virtual_seconds,
            "profiler_wall_seconds": self.profiler_wall_seconds,
            "nodes": self.nodes,
            "shards": self.shards,
            "metrics": dict(self.metrics),
            "labels": dict(self.labels),
            "status": self.status,
            "quarantine_reason": self.quarantine_reason,
            "quarantined_at": self.quarantined_at,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunRecord":
        return cls(
            run_id=str(data["run_id"]),
            digest=str(data.get("digest", "")),
            path=str(data["path"]),
            workload=str(data.get("workload", "")),
            program=str(data.get("program", "")),
            framework=str(data.get("framework", "")),
            execution_mode=str(data.get("execution_mode", "")),
            device=str(data.get("device", "")),
            vendor=str(data.get("vendor", "")),
            iterations=int(data.get("iterations", 0)),
            config_hash=str(data.get("config_hash", "")),
            ingested_at=float(data.get("ingested_at", 0.0)),
            elapsed_virtual_seconds=float(data.get("elapsed_virtual_seconds", 0.0)),
            profiler_wall_seconds=float(data.get("profiler_wall_seconds", 0.0)),
            nodes=int(data.get("nodes", 0)),
            shards=int(data.get("shards", 0)),
            metrics={str(k): float(v) for k, v in dict(data.get("metrics", {})).items()},
            labels={str(k): str(v) for k, v in dict(data.get("labels", {})).items()},
            status=str(data.get("status", STATUS_OK)),
            quarantine_reason=str(data.get("quarantine_reason", "")),
            quarantined_at=float(data.get("quarantined_at", 0.0)),
        )

    def matches(self, workload: Optional[str] = None, device: Optional[str] = None,
                config_hash: Optional[str] = None,
                labels: Optional[Mapping[str, str]] = None) -> bool:
        if workload is not None and self.workload != workload:
            return False
        if device is not None and self.device != device:
            return False
        if config_hash is not None and self.config_hash != config_hash:
            return False
        if labels:
            for key, value in labels.items():
                if self.labels.get(key) != value:
                    return False
        return True


@dataclass
class ScrubReport:
    """What one :meth:`ProfileStore.scrub` pass found and did."""

    #: Runs whose profiles were verified this pass.
    checked: int = 0
    #: Runs that verified clean (includes runs restored this pass).
    healthy: List[str] = field(default_factory=list)
    #: Runs newly quarantined this pass, with the corruption description.
    quarantined: List[Tuple[str, str]] = field(default_factory=list)
    #: Previously quarantined runs that verified clean and were restored.
    restored: List[str] = field(default_factory=list)
    #: Runs still quarantined from before (re-verified, still bad).
    still_quarantined: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.quarantined and not self.still_quarantined

    def as_dict(self) -> Dict[str, object]:
        return {
            "checked": self.checked,
            "healthy": list(self.healthy),
            "quarantined": [list(item) for item in self.quarantined],
            "restored": list(self.restored),
            "still_quarantined": list(self.still_quarantined),
            "clean": self.clean,
        }


@dataclass
class PruneReport:
    """What one :meth:`ProfileStore.prune` retention sweep decided."""

    #: Runs that matched the label filter and were considered.
    examined: int = 0
    #: ``(run_id, reason)`` for every run deleted this sweep.
    pruned: List[Tuple[str, str]] = field(default_factory=list)
    #: Runs examined and retained.
    kept: int = 0
    #: Runs exempted because they carry a protected label key.
    protected: List[str] = field(default_factory=list)

    @property
    def pruned_run_ids(self) -> List[str]:
        return [run_id for run_id, _ in self.pruned]

    def as_dict(self) -> Dict[str, object]:
        return {
            "examined": self.examined,
            "pruned": [list(item) for item in self.pruned],
            "kept": self.kept,
            "protected": list(self.protected),
        }


class ProfileStore:
    """A directory of canonical sealed profiles behind a run catalog.

    ``compression`` ("zlib") applies per-block compression to the canonical
    files this store writes; it is part of the store's canonical form, so
    content addresses are stable within a store but differ from an
    uncompressed store's.  Reads are transparent either way.
    """

    def __init__(self, root: Union[str, os.PathLike],
                 compression: Optional[str] = None) -> None:
        self.root = os.fspath(root)
        self.compression = check_compression(compression)
        os.makedirs(os.path.join(self.root, PROFILE_DIR), exist_ok=True)
        self._records: Dict[str, RunRecord] = {}
        #: Runs this handle removed — kept so a catalog re-merge (see
        #: ``_save_catalog``) does not resurrect them from disk.
        self._removed: set = set()
        #: Catalog generation counter: bumped by every mutation this handle
        #: performs or observes (ingest/remove/quarantine/restore/scrub and
        #: rows adopted during a catalog re-merge).  The ordered-records
        #: cache — and any other derived view — keys off it instead of
        #: re-deriving per call.
        self._generation = 0
        self._ordered_cache: Optional[Tuple[int, List[RunRecord]]] = None
        self._index: Optional[FleetIndex] = None
        self._load_catalog()

    # -- catalog persistence ---------------------------------------------------------

    @property
    def catalog_path(self) -> str:
        return os.path.join(self.root, CATALOG_NAME)

    def _load_catalog(self) -> None:
        path = self.catalog_path
        if not os.path.exists(path):
            return
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as error:
            raise ProfileFormatError(
                f"profile store catalog {path!r} is unreadable: "
                f"{error}") from error
        except json.JSONDecodeError as error:
            raise ProfileFormatError(
                f"profile store catalog {path!r} is corrupt (not valid "
                f"JSON at line {error.lineno}): {error.msg}") from error
        version = int(data.get("version", 0))
        if version != CATALOG_VERSION:
            raise ValueError(
                f"profile store at {self.root!r} uses catalog version "
                f"{version}, this build reads version {CATALOG_VERSION}")
        for entry in data.get("runs", []):
            record = RunRecord.from_dict(entry)
            self._records[record.run_id] = record
        self._generation += 1

    @property
    def lock_path(self) -> str:
        return os.path.join(self.root, LOCK_NAME)

    def _save_catalog(self) -> None:
        """Write the catalog: lock, re-read, merge, atomic-replace.

        The whole read-merge-write cycle runs under the advisory catalog
        lock (:class:`_CatalogLock`: ``O_CREAT|O_EXCL`` lock file, bounded
        retry with backoff, stale locks broken), so two handles — two
        experiment runners ingesting into one store, say — serialize their
        updates and *both* runs land in the catalog; without the lock the
        read-merge-write races and the last writer wins.  Under the lock the
        on-disk catalog is re-read and any run unknown to this handle (and
        not removed by it) is adopted before writing; the write itself goes
        through :meth:`_CatalogLock.write_json`, a sibling temp file promoted
        with ``os.replace``, so a crash mid-write can never leave a
        half-written ``catalog.json`` behind (and a crashed peer's leftover
        temp file is simply ignored).
        """
        with _CatalogLock(self.lock_path) as lock:
            if os.path.exists(self.catalog_path):
                try:
                    with open(self.catalog_path, "r", encoding="utf-8") as handle:
                        on_disk = json.load(handle)
                except ValueError:
                    on_disk = {}  # half-written by a crashed peer: ours wins
                for entry in on_disk.get("runs", []) if isinstance(on_disk, dict) else []:
                    run_id = str(entry.get("run_id", ""))
                    if run_id and run_id not in self._records \
                            and run_id not in self._removed:
                        self._records[run_id] = RunRecord.from_dict(entry)
            # Every caller reaches here with `_records` freshly mutated (an
            # ingest/quarantine/... plus any rows just adopted above): bump
            # *before* serializing so the ordered-records cache cannot serve
            # a pre-mutation list into the catalog write.
            self._generation += 1
            lock.write_json(self.catalog_path, {
                "version": CATALOG_VERSION,
                "runs": [record.as_dict() for record in self._ordered_records()],
            }, indent=1)

    @property
    def catalog_generation(self) -> int:
        """Monotonic counter of catalog mutations this handle has seen."""
        return self._generation

    def _ordered_records(self) -> List[RunRecord]:
        """Records in global ingest order (``ingested_at``, ties stable).

        The sort is cached behind :attr:`catalog_generation` — ``find`` /
        ``latest`` / iteration used to rescan and re-sort the record map on
        every call, which is pure waste between mutations.  Callers get a
        fresh list (cheap shallow copy) so holding one across a mutation
        cannot alias the cache.
        """
        cached = self._ordered_cache
        if cached is not None and cached[0] == self._generation:
            return list(cached[1])
        ordered = sorted(self._records.values(),
                         key=lambda record: record.ingested_at)
        self._ordered_cache = (self._generation, ordered)
        return list(ordered)

    # -- ingest ---------------------------------------------------------------------------

    @staticmethod
    def _coerce_database(source) -> ProfileDatabase:
        """A :class:`ProfileDatabase` for whatever the caller handed us.

        Paths load through the format-detecting storage engine; a binary
        file that fails the strict load because its tail is unsealed — a
        crashed or still-being-streamed checkpoint file — is reopened at its
        last intact seal via :func:`repro.core.storage.recover_profile`,
        which is exactly the live-attach contract the streaming pipeline
        guarantees.  Any other file's format error is raised as it is.
        """
        if isinstance(source, ProfileDatabase):
            return source
        path = os.fspath(source)
        # Reject the obviously-wrong sources up front with errors that name
        # the path, instead of leaking whatever IsADirectoryError /
        # FileNotFoundError / PermissionError the loader happens to hit.
        if os.path.isdir(path):
            raise ValueError(
                f"cannot ingest {path!r}: it is a directory, not a profile "
                f"file (ingest one profile at a time)")
        if not os.path.exists(path):
            raise ValueError(
                f"cannot ingest {path!r}: no such file")
        if not os.access(path, os.R_OK):
            raise ValueError(
                f"cannot ingest {path!r}: the file is not readable "
                f"(permission denied)")
        try:
            return load_profile(path)
        except ProfileFormatError:
            with open(path, "rb") as handle:
                if handle.read(len(BINARY_MAGIC)) != BINARY_MAGIC:
                    raise
            return recover_profile(path)

    @staticmethod
    def _identity_of(database: ProfileDatabase, workload: Optional[str]) -> str:
        """The run's workload identity, or a clear error when it has none.

        Cataloguing identity-less runs under a default key would silently
        collide every anonymous profile into one bucket, poisoning
        ``latest``-style baseline lookups — so ingest refuses instead.
        """
        if workload:
            return workload
        metadata = database.metadata
        if metadata.workload:
            return metadata.workload
        if metadata.program and metadata.program != "program":
            return metadata.program
        raise ValueError(
            "profile has no workload/run identity: its metadata carries "
            "neither a workload name nor a non-default program name. Set "
            "ProfileMetadata.workload (the experiment runner does) or pass "
            "workload=... to ingest; refusing to catalog the run under a "
            "collision-prone default key")

    def ingest(self, source, workload: Optional[str] = None,
               labels: Optional[Mapping[str, str]] = None) -> RunRecord:
        """Canonicalise, content-address and catalog one run's profile.

        ``source`` may be a :class:`ProfileDatabase` or a path to a profile
        in any of the three formats — including a streamed checkpoint file
        that is truncated or still being appended to, which is recovered at
        its last intact seal.  Returns the new record, or the existing one when
        the canonical bytes are already catalogued (content addressing).

        Raises ``ValueError`` when the profile carries no workload identity
        (see :meth:`_identity_of`) — anonymous runs are rejected, not
        silently catalogued under a shared default key.
        """
        with TELEMETRY.span("fleet.store.ingest", workload=workload or ""):
            return self._ingest(source, workload, labels)

    def _ingest(self, source, workload: Optional[str],
                labels: Optional[Mapping[str, str]]) -> RunRecord:
        database = self._coerce_database(source)
        owns_view = not isinstance(source, ProfileDatabase)
        temp_path = os.path.join(self.root, PROFILE_DIR,
                                 f".ingest-{os.getpid()}-{id(database)}")
        # Every exit below — a rejected identity included — closes the view
        # this call opened, so its file handle and mapping never outlive it.
        try:
            identity = self._identity_of(database, workload)
            if database.metadata.workload != identity:
                # The canonical bytes carry the catalog identity, so the
                # content address covers it — the same profile under two
                # identities is two runs, not one ambiguous dedupe.  Stamped
                # onto a *copy*: ingest must not rewrite the caller's live
                # database metadata.
                metadata = ProfileMetadata.from_dict(database.metadata.as_dict())
                metadata.workload = identity
                stamped = ProfileDatabase(database.tree, metadata,
                                          database.dlmonitor_stats)
                stamped.issues = list(database.issues)
                database = stamped
            save_binary(database, temp_path, self.compression)
            digest = self._digest_file(temp_path)
            run_id = digest[:RUN_ID_LENGTH]
            existing = self._records.get(run_id)
            if existing is not None:
                if existing.digest != digest:  # pragma: no cover - 64-bit clash
                    raise ValueError(
                        f"run id collision in store {self.root!r}: {run_id} "
                        f"already maps to digest {existing.digest}")
                if labels:
                    # Re-ingesting known bytes folds new labels into the
                    # existing record instead of silently dropping them.
                    existing.labels.update({str(key): str(value)
                                            for key, value in labels.items()})
                    self._save_catalog()
                if existing.healthy and not self.fleet_index.is_current(existing):
                    # Re-ingesting a run a pre-index store already holds (or
                    # whose summary rotted) heals its index entry for free.
                    self.reindex([existing.run_id])
                if TELEMETRY.enabled:
                    TELEMETRY.count("fleet.ingest_dedup")
                return existing
            relative = os.path.join(PROFILE_DIR, f"{run_id}{PROFILE_SUFFIX}")
            # Not atomic_write: the final name is the digest of the staged
            # bytes, known only once save_binary wrote them.
            os.replace(temp_path, os.path.join(self.root, relative))
        finally:
            if os.path.exists(temp_path):
                os.unlink(temp_path)
            if owns_view:
                close = getattr(database.tree, "close", None)
                if callable(close):
                    close()

        record, summary = self._record_for(run_id, digest, relative, database,
                                           identity, labels)
        self._records[run_id] = record
        self._save_catalog()
        # Derived data last: a crash after the catalog write leaves an
        # unindexed run, which queries serve from a summary rebuilt from its
        # bytes and ``reindex``/``scrub`` backfill later.
        self.fleet_index.write_summary(summary)
        if TELEMETRY.enabled:
            TELEMETRY.count("fleet.ingests")
        return record

    def _record_for(self, run_id: str, digest: str, relative: str,
                    database: ProfileDatabase, identity: str,
                    labels: Optional[Mapping[str, str]]
                    ) -> Tuple[RunRecord, RunSummary]:
        metadata = database.metadata
        with open_binary(os.path.join(self.root, relative)) as view:
            # The index summary is computed while the canonical bytes are
            # already mapped — the one decode pass ingest pays so standing
            # fleet queries never pay it again.
            summary = RunSummary.from_view(run_id, digest, view)
            nodes = view.stored_node_count()
            shards = view.shard_count()
        record = RunRecord(
            run_id=run_id,
            digest=digest,
            path=relative,
            workload=identity,
            program=metadata.program,
            framework=metadata.framework,
            execution_mode=metadata.execution_mode,
            device=metadata.device,
            vendor=metadata.vendor,
            iterations=metadata.iterations,
            config_hash=config_hash(metadata.config),
            ingested_at=time.time(),
            elapsed_virtual_seconds=metadata.elapsed_virtual_seconds,
            profiler_wall_seconds=metadata.profiler_wall_seconds,
            nodes=nodes,
            shards=shards,
            metrics=dict(summary.totals),
            labels=dict(labels or {}),
        )
        return record, summary

    @staticmethod
    def _digest_file(path: str) -> str:
        digest = hashlib.sha256()
        with open(path, "rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 20), b""):
                digest.update(chunk)
        return digest.hexdigest()

    # -- lookup -----------------------------------------------------------------------------

    def runs(self) -> List[RunRecord]:
        """Every catalogued run, global ingest order (``ingested_at``)."""
        return self._ordered_records()

    def run_ids(self) -> List[str]:
        return [record.run_id for record in self._ordered_records()]

    def get(self, run_id: str) -> RunRecord:
        """The record for a run id (unique prefixes accepted)."""
        record = self._records.get(run_id)
        if record is not None:
            return record
        matches = [r for rid, r in self._records.items()
                   if rid.startswith(run_id)] if run_id else []
        if len(matches) == 1:
            return matches[0]
        if len(matches) > 1:
            raise KeyError(f"run id prefix {run_id!r} is ambiguous: "
                           f"{[r.run_id for r in matches]}")
        raise KeyError(f"no run {run_id!r} in store {self.root!r}; "
                       f"catalogued runs: {self.run_ids()}")

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, run_id: str) -> bool:
        return run_id in self._records

    def __iter__(self):
        return iter(self._ordered_records())

    def find(self, workload: Optional[str] = None, device: Optional[str] = None,
             config_hash: Optional[str] = None,
             labels: Optional[Mapping[str, str]] = None,
             include_quarantined: bool = False) -> List[RunRecord]:
        """Catalogued runs matching every given filter, ingest order.

        Quarantined runs are excluded by default: a corrupt run must never be
        silently aggregated into a fleet answer or picked as a ``latest``
        baseline.  Pass ``include_quarantined=True`` to inventory them.
        """
        return [record for record in self._ordered_records()
                if (include_quarantined or record.healthy)
                and record.matches(workload=workload, device=device,
                                   config_hash=config_hash, labels=labels)]

    def quarantined(self) -> List[RunRecord]:
        """Every quarantined run, ingest order."""
        return [record for record in self._ordered_records()
                if not record.healthy]

    def latest(self, workload: Optional[str] = None,
               device: Optional[str] = None,
               config_hash: Optional[str] = None) -> Optional[RunRecord]:
        """The most recently ingested matching run (None when there is none)."""
        matching = self.find(workload=workload, device=device,
                             config_hash=config_hash)
        return matching[-1] if matching else None

    # -- profile access ------------------------------------------------------------------------

    def profile_path(self, run_id: str) -> str:
        return os.path.join(self.root, self.get(run_id).path)

    def open_view(self, run_id: str) -> LazyProfileView:
        """The run's profile as a lazy mmap-backed view (nothing decoded)."""
        return open_binary(self.profile_path(run_id))

    def load(self, run_id: str) -> ProfileDatabase:
        """The run's full :class:`ProfileDatabase` (lazy tree inside)."""
        return ProfileDatabase.load(self.profile_path(run_id))

    def remove(self, run_id: str) -> RunRecord:
        """Delete a run's profile and catalog row; returns the removed record."""
        record = self.get(run_id)
        del self._records[record.run_id]
        self._removed.add(record.run_id)
        path = os.path.join(self.root, record.path)
        if os.path.exists(path):
            os.unlink(path)
        self._save_catalog()
        self.fleet_index.remove(record.run_id)
        return record

    def prune(self, max_age_s: Optional[float] = None,
              max_runs: Optional[int] = None,
              labels: Optional[Mapping[str, str]] = None,
              protect_labels: Tuple[str, ...] = (),
              now: Optional[float] = None) -> PruneReport:
        """Retention sweep: delete runs by age and per-workload count.

        Two independent rules, either or both active:

        * ``max_age_s`` — any examined run whose ``ingested_at`` is more
          than this many seconds before ``now`` is deleted (quarantined
          runs age out too: their bytes are the least worth keeping);
        * ``max_runs`` — for each workload, only the newest ``max_runs``
          *healthy* runs are kept.  Quarantined runs neither occupy nor
          consume retention slots under this rule.

        ``labels`` narrows the sweep to matching runs; runs carrying any
        label *key* in ``protect_labels`` (e.g. ``("pinned",)``) are never
        pruned.  Each deletion routes through :meth:`remove`, so the
        catalog rewrite and index removal happen under the catalog lock
        exactly as a manual removal would.  With neither rule set this is
        a no-op that reports every examined run as kept.
        """
        now = time.time() if now is None else float(now)
        report = PruneReport()
        victims: Dict[str, str] = {}
        eligible: List[RunRecord] = []
        for record in self._ordered_records():
            if labels and not record.matches(labels=labels):
                continue
            report.examined += 1
            if any(key in record.labels for key in protect_labels):
                report.protected.append(record.run_id)
                continue
            eligible.append(record)
        if max_age_s is not None:
            for record in eligible:
                age = now - record.ingested_at
                if age > max_age_s:
                    victims[record.run_id] = (
                        f"age {age:.0f}s exceeds max_age_s={max_age_s:g}")
        if max_runs is not None:
            by_workload: Dict[str, List[RunRecord]] = {}
            for record in eligible:
                if record.run_id in victims or not record.healthy:
                    continue
                by_workload.setdefault(record.workload, []).append(record)
            for workload, group in by_workload.items():
                # _ordered_records is oldest-first, so the overflow to
                # drop is the group's head.
                for record in group[:max(0, len(group) - max_runs)]:
                    victims[record.run_id] = (
                        f"workload {workload!r} exceeds max_runs={max_runs}")
        with TELEMETRY.span("fleet.store.prune", runs=len(victims)):
            for run_id, reason in victims.items():
                self.remove(run_id)
                report.pruned.append((run_id, reason))
        report.kept = report.examined - len(report.pruned) \
            - len(report.protected)
        TELEMETRY.count("fleet.pruned_runs", len(report.pruned))
        return report

    # -- the fleet query index ---------------------------------------------------------

    @property
    def fleet_index(self) -> FleetIndex:
        """This store's on-disk query index (see ``repro.fleet.index``)."""
        if self._index is None:
            self._index = FleetIndex(self.root, self.lock_path)
        return self._index

    def reindex(self, run_ids: Optional[List[str]] = None) -> List[str]:
        """(Re)build per-run index summaries; returns the run ids rebuilt.

        Backfills stores that predate the index (or whose index rotted):
        each healthy run's sealed profile is opened once and its summary
        rebuilt with ``RunSummary.from_view`` — exactly the pass ingest
        performs — then written under the catalog lock.  Quarantined runs
        get their summary *invalidated* instead (a quarantined run must not
        serve indexed answers); a run whose profile cannot be opened is
        skipped, not quarantined — ``scrub`` is the tool that moves health
        states.
        """
        records = ([self.get(run_id) for run_id in run_ids]
                   if run_ids is not None else self._ordered_records())
        rebuilt: List[str] = []
        for record in records:
            if not record.healthy:
                self.fleet_index.remove(record.run_id)
                continue
            try:
                with open_binary(os.path.join(self.root, record.path)) as view:
                    summary = RunSummary.from_view(record.run_id,
                                                   record.digest, view)
            except (ProfileFormatError, OSError):
                continue
            self.fleet_index.write_summary(summary)
            rebuilt.append(record.run_id)
        return rebuilt

    # -- durability: quarantine and scrub ---------------------------------------------

    def quarantine(self, run_id: str, reason: str) -> RunRecord:
        """Mark a run corrupt/unreadable: kept in the catalog, excluded from
        queries (``find``/``latest``/aggregators skip it) until a scrub
        verifies it clean again or :meth:`restore` is called explicitly.
        The run's index summary is invalidated with it — a quarantined run
        must not keep serving indexed fleet answers."""
        record = self.get(run_id)
        record.status = STATUS_QUARANTINED
        record.quarantine_reason = str(reason)
        record.quarantined_at = time.time()
        self._save_catalog()
        self.fleet_index.remove(record.run_id)
        if TELEMETRY.enabled:
            TELEMETRY.count("fleet.quarantines")
        return record

    def restore(self, run_id: str) -> RunRecord:
        """Lift a run's quarantine without re-verifying (prefer scrub).

        The run's index summary is rebuilt from its profile; if the bytes
        are genuinely unreadable the rebuild is skipped and queries rebuild
        it from the view instead (which is where the rot will resurface)."""
        record = self.get(run_id)
        record.status = STATUS_OK
        record.quarantine_reason = ""
        record.quarantined_at = 0.0
        self._save_catalog()
        self.reindex([record.run_id])
        return record

    def verify_run(self, run_id: str) -> Optional[str]:
        """Why the run's stored profile is bad, or None when it verifies.

        Three layers of checking, cheapest-to-deepest: the file exists; its
        SHA-256 matches the content address the catalog recorded (any byte
        of rot anywhere fails this, checksummed or not); and every sealed
        block passes ``LazyProfileView.verify_blocks`` — which is what names
        the precise block and offset when the digest check fails.
        """
        record = self.get(run_id)
        path = os.path.join(self.root, record.path)
        if not os.path.isfile(path):
            return f"profile file {record.path!r} is missing from the store"
        block_problems: List[str] = []
        try:
            with open_binary(path) as view:
                block_problems = view.verify_blocks()
        except (ProfileFormatError, OSError) as error:
            return str(error)
        if block_problems:
            return "; ".join(block_problems)
        if record.digest:
            digest = self._digest_file(path)
            if digest != record.digest:
                return (f"profile file {record.path!r} digest "
                        f"{digest[:RUN_ID_LENGTH]}... does not match the "
                        f"content address {record.digest[:RUN_ID_LENGTH]}... "
                        f"recorded at ingest (bytes changed outside any "
                        f"checksummed block)")
        return None

    def scrub(self, run_ids: Optional[List[str]] = None) -> ScrubReport:
        """Verify (or re-verify) stored profiles and update quarantine state.

        Healthy runs that fail verification are quarantined with the precise
        reason; quarantined runs that now verify clean — the operator
        restored the file from a replica, say — are restored.  One catalog
        write at the end, regardless of how many states changed.  The query
        index follows the health states: newly quarantined runs lose their
        summaries, and every verified-healthy run missing a valid summary
        (a pre-index store, a restored run, a rotten index file) gets one
        rebuilt — scrub doubles as the index backfill pass.
        """
        records = ([self.get(run_id) for run_id in run_ids]
                   if run_ids is not None else self._ordered_records())
        report = ScrubReport()
        changed = False
        with TELEMETRY.span("fleet.store.scrub", runs=len(records)):
            for record in records:
                report.checked += 1
                problem = self.verify_run(record.run_id)
                if problem is None:
                    if not record.healthy:
                        record.status = STATUS_OK
                        record.quarantine_reason = ""
                        record.quarantined_at = 0.0
                        report.restored.append(record.run_id)
                        changed = True
                    report.healthy.append(record.run_id)
                elif record.healthy:
                    record.status = STATUS_QUARANTINED
                    record.quarantine_reason = problem
                    record.quarantined_at = time.time()
                    report.quarantined.append((record.run_id, problem))
                    changed = True
                    if TELEMETRY.enabled:
                        TELEMETRY.count("fleet.quarantines")
                else:
                    if record.quarantine_reason != problem:
                        record.quarantine_reason = problem
                        changed = True
                    report.still_quarantined.append(record.run_id)
            if changed:
                self._save_catalog()
            for record in records:
                if not record.healthy:
                    self.fleet_index.remove(record.run_id)
            stale = [record.run_id for record in records
                     if record.healthy
                     and not self.fleet_index.is_current(record)]
            if stale:
                self.reindex(stale)
            if TELEMETRY.enabled:
                TELEMETRY.count("fleet.scrub_checked", report.checked)
                TELEMETRY.count("fleet.scrub_quarantined",
                                len(report.quarantined))
                TELEMETRY.count("fleet.scrub_restored", len(report.restored))
        return report

    # -- fleet queries ----------------------------------------------------------------------------

    def aggregator(self, run_ids: Optional[List[str]] = None, **filters):
        """A :class:`~repro.fleet.aggregate.FleetAggregator` over this store.

        ``run_ids`` selects explicit runs; otherwise ``filters`` (workload /
        device / config_hash / labels) select from the catalog.
        ``use_index=False`` passes through to
        :meth:`~repro.fleet.aggregate.FleetAggregator.from_store`.
        """
        from .aggregate import FleetAggregator

        return FleetAggregator.from_store(self, run_ids=run_ids, **filters)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProfileStore({self.root!r}, runs={len(self._records)})"
