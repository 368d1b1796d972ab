"""The profile database.

Everything a profiling session produces: the calling context tree with its
aggregated metrics, run metadata, DLMonitor statistics and (optionally) the
analyzer's findings.  Because metrics are aggregated online the database's
size is bounded by the number of *distinct calling contexts*, not by the
number of iterations — the property the memory-overhead evaluation of
Figure 6(c,d) relies on.

Persistence is delegated to the pluggable storage engine
(:mod:`repro.core.storage`): ``save`` dispatches to a registered backend by
format name, ``load`` sniffs the on-disk format (binary magic bytes, then a
JSON probe) instead of assuming one.  A profile loaded from the mmap-backed
binary format arrives as a ``LazyProfileView`` — the same read API as the
eager trees, decoding shards and metric columns only as queries touch them.
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

    # Canonical storage-backend names (see repro.core.storage); "columnar"
    # remains accepted as a legacy alias for the columnar JSON backend.
    FORMAT_JSON = "json"
    FORMAT_COLUMNAR = "columnar-json"
    FORMAT_BINARY = "cct-binary-v1"

    def to_dict(self, format: str = FORMAT_JSON) -> Dict[str, object]:
        """Plain-dict encoding of the whole profile (JSON-family formats).

        ``format="json"`` nests the tree node by node (the original format);
        ``format="columnar-json"`` stores flat frame/metric columns and omits
        the recomputable inclusive view, which roughly halves the payload.

        A sharded tree keeps one columnar block per shard together with its
        provenance (owning thread id/name/kind) in the columnar format; the
        nested JSON format flattens it to the merged view.
        """
        data: Dict[str, object] = {
            "metadata": self.metadata.as_dict(),
            "dlmonitor_stats": dict(self.dlmonitor_stats),
            "issues": list(self.issues),
        }
        if format in (self.FORMAT_COLUMNAR, "columnar"):
            data["tree_columnar"] = self.tree.to_columnar()
        elif format == self.FORMAT_JSON:
            data["tree"] = self.tree.to_dict()
        else:
            raise ValueError(f"unknown profile dict format {format!r} "
                             f"(binary formats do not have a dict encoding)")
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ProfileDatabase":
        """Rebuild a profile from any encoding (auto-detected).

        Columnar payloads may be single-tree or sharded (per-thread shards
        with provenance); sharded profiles load back as
        :class:`ShardedCallingContextTree` so shard identity survives a
        save/load round-trip.
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

    def default_format(self) -> str:
        """The format ``save`` uses when none is given: the profiler
        configuration's ``profile_format`` if this profile carries one,
        otherwise the legacy nested JSON format."""
        configured = self.metadata.config.get("profile_format")
        return str(configured) if configured else self.FORMAT_JSON

    def default_compression(self) -> Optional[str]:
        """The per-block compression ``save`` applies when none is given: the
        profiler configuration's ``profile_compression`` if this profile
        carries one, otherwise no compression."""
        configured = self.metadata.config.get("profile_compression")
        return str(configured) if configured else None

    def save(self, path: str, format: Optional[str] = None,
             compression: Optional[str] = None) -> str:
        """Serialise to disk through a storage backend; returns the path.

        ``format`` names a registered backend ("json", "columnar-json",
        "cct-binary-v1", or an alias); ``None`` falls back to
        :meth:`default_format`.  ``compression`` ("zlib") compresses each
        block of the binary format independently — transparent on the lazy
        read path.  An *explicit* compression argument is rejected by the
        JSON backends; the session-wide :meth:`default_compression` only
        applies to backends that support it, so ``profile_compression``
        combined with a JSON ``profile_format`` saves plain JSON instead of
        failing after the run.  Every file loads transparently through
        :meth:`load`, which sniffs the format.  The nested JSON format
        inherits the stdlib encoder's recursion limit (~1000 nesting levels);
        deeper traces must use a flat format.
        """
        from .storage import backend_for

        backend = backend_for(format or self.default_format())
        if compression is None and backend.supports_compression:
            compression = self.default_compression()
        if compression:
            return backend.save(self, path, compression=compression)
        return backend.save(self, path)

    @classmethod
    def load(cls, path: str, format: Optional[str] = None) -> "ProfileDatabase":
        """Load a profile, sniffing the on-disk format.

        The format is detected from the file itself (binary magic bytes,
        then a JSON probe) — never assumed.  Passing ``format`` asserts the
        expectation: a mismatch raises ``ValueError`` naming the *detected*
        format.  Binary profiles come back with a lazily decoded
        ``LazyProfileView`` as ``tree``.
        """
        from .storage import load_profile

        return load_profile(path, expected_format=format)
