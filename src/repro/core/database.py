"""The profile database.

Everything a profiling session produces: the calling context tree with its
aggregated metrics, run metadata, DLMonitor statistics and (optionally) the
analyzer's findings.  Because metrics are aggregated online the database's
size is bounded by the number of *distinct calling contexts*, not by the
number of iterations — the property the memory-overhead evaluation of
Figure 6(c,d) relies on.

Persistence lives in :mod:`repro.core.storage`: ``save`` writes
``cct-binary-v1`` (the default) or ``columnar-json``, and ``load`` detects
the on-disk format (binary magic bytes, then a JSON probe) instead of
assuming one; legacy nested ``json`` files still load.  A profile loaded
from the mmap-backed binary format arrives as a ``LazyProfileView`` — the
same read API as the eager trees, decoding shards and metric columns only
as queries touch them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from .cct import (SHARDED_TREE_FORMAT, CallingContextTree, ProfileTree,
                  ShardedCallingContextTree, rank_kernels)
from . import metrics as M

#: Anything that serves the profile-tree read API: a plain tree, or a
#: sharded tree or lazy view answering through its merged tree.
AnyTree = Union[CallingContextTree, ProfileTree]


@dataclass
class ProfileMetadata:
    """Run-level information stored alongside the CCT."""

    program: str = "program"
    framework: str = "pytorch"
    execution_mode: str = "eager"
    device: str = ""
    vendor: str = ""
    iterations: int = 0
    workload: str = ""
    elapsed_virtual_seconds: float = 0.0
    profiler_wall_seconds: float = 0.0
    config: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "program": self.program,
            "framework": self.framework,
            "execution_mode": self.execution_mode,
            "device": self.device,
            "vendor": self.vendor,
            "iterations": self.iterations,
            "workload": self.workload,
            "elapsed_virtual_seconds": self.elapsed_virtual_seconds,
            "profiler_wall_seconds": self.profiler_wall_seconds,
            "config": dict(self.config),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ProfileMetadata":
        return cls(
            program=str(data.get("program", "program")),
            framework=str(data.get("framework", "pytorch")),
            execution_mode=str(data.get("execution_mode", "eager")),
            device=str(data.get("device", "")),
            vendor=str(data.get("vendor", "")),
            iterations=int(data.get("iterations", 0)),
            workload=str(data.get("workload", "")),
            elapsed_virtual_seconds=float(data.get("elapsed_virtual_seconds", 0.0)),
            profiler_wall_seconds=float(data.get("profiler_wall_seconds", 0.0)),
            config=dict(data.get("config", {})),
        )


class ProfileDatabase:
    """The persistent result of one profiling session."""

    def __init__(self, tree: AnyTree,
                 metadata: Optional[ProfileMetadata] = None,
                 dlmonitor_stats: Optional[Dict[str, int]] = None) -> None:
        self.tree = tree
        self.metadata = metadata if metadata is not None else ProfileMetadata()
        self.dlmonitor_stats = dict(dlmonitor_stats or {})
        self.issues: List[Dict[str, object]] = []

    # -- summaries ------------------------------------------------------------------

    def total_gpu_time(self) -> float:
        return self.tree.total_metric(M.METRIC_GPU_TIME)

    def total_cpu_time(self) -> float:
        return self.tree.total_metric(M.METRIC_CPU_TIME)

    def total_kernel_launches(self) -> int:
        return int(self.tree.total_metric(M.METRIC_KERNEL_COUNT))

    def node_count(self) -> int:
        return self.tree.node_count()

    def summary(self) -> Dict[str, float]:
        """The headline numbers printed by the examples and benchmarks."""
        return {
            "gpu_time_seconds": self.total_gpu_time(),
            "cpu_time_seconds": self.total_cpu_time(),
            "kernel_launches": float(self.total_kernel_launches()),
            "cct_nodes": float(self.node_count()),
            "elapsed_virtual_seconds": self.metadata.elapsed_virtual_seconds,
        }

    def top_kernels(self, k: int = 10) -> List[Dict[str, object]]:
        """The ``k`` most expensive kernels aggregated across all contexts.

        Ranked from the tree's per-name rows (``name_rows``), which every
        tree memoizes for itself: on a lazy mmap-backed view that reads the
        name indexes plus the GPU-time column, with no tree decoded.
        """
        return rank_kernels(self.tree, k, M.METRIC_GPU_TIME)

    def size_bytes(self) -> int:
        """Approximate in-memory footprint of the profile (for Figure 6c/d)."""
        return self.tree.approximate_size_bytes() + 2048

    # -- persistence ----------------------------------------------------------------------

    # Format names (see repro.core.storage); nested "json" is read-only.
    FORMAT_JSON = "json"
    FORMAT_COLUMNAR = "columnar-json"
    FORMAT_BINARY = "cct-binary-v1"

    def to_dict(self) -> Dict[str, object]:
        """The ``columnar-json`` encoding of the whole profile.

        Flat frame/metric columns without the recomputable inclusive view; a
        sharded tree keeps one columnar block per shard together with its
        provenance (owning thread id/name/kind).
        """
        return {
            "metadata": self.metadata.as_dict(),
            "dlmonitor_stats": dict(self.dlmonitor_stats),
            "issues": list(self.issues),
            "tree_columnar": self.tree.to_columnar(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ProfileDatabase":
        """Rebuild a profile from a ``columnar-json`` or legacy nested
        ``json`` document (told apart by its tree key).

        Columnar payloads may be single-tree or sharded (per-thread shards
        with provenance); sharded profiles load back as
        :class:`ShardedCallingContextTree` so shard identity survives a
        save/load round-trip.  A nested document stores a flattened merged
        tree and loads as one :class:`CallingContextTree`.
        """
        tree: Union[CallingContextTree, ShardedCallingContextTree]
        if "tree_columnar" in data:
            payload = data["tree_columnar"]
            if isinstance(payload, dict) and payload.get("format") == SHARDED_TREE_FORMAT:
                tree = ShardedCallingContextTree.from_columnar(payload)
            else:
                tree = CallingContextTree.from_columnar(payload)
        else:
            tree = CallingContextTree.from_dict(data["tree"])
        database = cls(
            tree=tree,
            metadata=ProfileMetadata.from_dict(data.get("metadata", {})),
            dlmonitor_stats=dict(data.get("dlmonitor_stats", {})),
        )
        database.issues = list(data.get("issues", []))
        return database

    def default_compression(self) -> Optional[str]:
        """The per-block compression a binary ``save`` applies when none is
        given: the profiler configuration's ``profile_compression`` if this
        profile carries one, otherwise no compression."""
        configured = self.metadata.config.get("profile_compression")
        return str(configured) if configured else None

    def save(self, path: str, format: Optional[str] = None,
             compression: Optional[str] = None) -> str:
        """Write the profile to ``path``; returns the path.

        ``format`` is "cct-binary-v1" (``None``, the default) or
        "columnar-json"; the legacy nested "json" format is read-only and
        raises ``ValueError``.  ``compression`` ("zlib") compresses each
        block of the binary format independently — transparent on the lazy
        read path — and defaults to :meth:`default_compression`.
        "columnar-json" rejects an explicit compression; the session-wide
        default does not apply to it, so a session with
        ``profile_compression`` still saves plain JSON on request.  Both
        formats are flat, so any trace depth saves, and every file loads
        through :meth:`load`.
        """
        from .storage import save_profile

        return save_profile(self, path, format, compression)

    @classmethod
    def load(cls, path: str, format: Optional[str] = None) -> "ProfileDatabase":
        """Load a profile in any of the three formats, legacy nested "json"
        included.

        The format is detected from the file itself (binary magic bytes,
        then a JSON probe) — never assumed.  Passing ``format`` asserts the
        expectation: a mismatch raises ``ValueError`` naming the *detected*
        format.  Binary profiles come back with a lazily decoded
        ``LazyProfileView`` as ``tree``.
        """
        from .storage import load_profile

        return load_profile(path, expected_format=format)
