"""Differential profiles: align two runs' CCTs and rank what changed.

A :class:`DifferentialProfile` aligns a *baseline* and a *candidate* profile
on their calling contexts — the path of ``Frame.identity()`` keys from the
root, the same collapsing rule the CCT itself inserts by — and reports, per
aligned context, how the chosen metric moved.  Contexts present on only one
side become *new* or *vanished* entries; name-level rollups
(:meth:`DifferentialProfile.kernel_deltas`) answer the coarser "which kernel
got slower, regardless of caller" question the bottom-up view asks.

Because every CCT node carries full Welford state (count, mean, M2), a delta
is more than a subtraction: each changed context gets a Welch z-score of the
per-observation means, so a context whose mean moved far outside the noise of
both runs ranks above one whose totals drifted within it.  Deterministic
changes (both variances zero, or a context appearing from nothing) saturate
at :data:`Z_CAP` — they are as significant as a finite sample can show.

Populations diff the same way: :meth:`DifferentialProfile.between_populations`
first unions each run set with :func:`merge_population` (the shard-merge
primitive ``CallingContextTree.merge_from`` + parallel Welford merges), so
"this week's fleet vs last week's fleet" is one aligned comparison, not a
quadratic matrix of run pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from ..core import metrics as M
from ..core.cct import CallingContextTree, CCTNode
from ..dlmonitor.callpath import FrameKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .aggregate import FleetAggregator

#: Significance assigned to deterministic changes (zero variance on both
#: sides, or a context appearing/vanishing outright): a finite sample cannot
#: show more evidence than "always was X, now always is Y".
Z_CAP = 1e6

#: Cap on the significance multiplier inside :attr:`NameDelta.score`.
#: Evidence scales a delta's rank by at most one order of magnitude
#: (multiplier in [1, 10]), so a statistically unambiguous but negligible
#: change can never outrank a regression 10x its size.
SCORE_SIGNIFICANCE_CAP = 9.0

STATUS_UNCHANGED = "unchanged"
STATUS_CHANGED = "changed"
STATUS_NEW = "new"
STATUS_VANISHED = "vanished"


def resolve_tree(source) -> CallingContextTree:
    """A single queryable :class:`CallingContextTree` for any profile shape.

    Accepts a plain tree, a :class:`ShardedCallingContextTree`, a
    ``LazyProfileView`` (hydrated and merged on demand) or a
    ``ProfileDatabase`` wrapping any of those.
    """
    tree = getattr(source, "tree", source)  # ProfileDatabase → its tree
    merged = getattr(tree, "merged", None)
    if callable(merged):  # sharded tree or lazy view: the union tree
        return merged()
    return tree


def merge_population(sources: Iterable, program_name: str = "population") -> CallingContextTree:
    """Union several profiles into one tree (the fleet-merge primitive).

    Each source is resolved with :func:`resolve_tree` and folded in with
    ``CallingContextTree.merge_from`` — structural union on
    ``Frame.identity()`` plus parallel Welford metric merges — in iteration
    order.  A multi-shard source resolves to its union view, whose nodes
    come in shard order, so its nodes merge exactly as its shards merged
    one by one would.
    """
    combined = CallingContextTree(program_name)
    for source in sources:
        combined.merge_from(resolve_tree(source))
    return combined


def _index_by_path(tree: CallingContextTree) -> Dict[Tuple, CCTNode]:
    """``identity-path → node`` for every non-root node, registration order.

    Parents precede children in the registry, so each node's key extends an
    already-computed parent key — one linear pass, no per-node root walks.
    Top-level keys start at ``()`` under whichever node is their parent: a
    shard forest's top-level nodes hang below their shards' roots.
    """
    keys: Dict[int, Tuple] = {id(node.parent): ()
                              for node in tree.root.children.values()}
    index: Dict[Tuple, CCTNode] = {}
    for node in tree.all_nodes():
        if node.parent is None:
            continue
        key = keys[id(node.parent)] + (node.frame.identity(),)
        keys[id(node)] = key
        index[key] = node
    return index


@dataclass
class NameDelta:
    """How one frame name's metric moved between baseline and candidate.

    Full Welford state on both sides, so a delta carries a Welch z-score of
    the per-observation means, not just a difference of sums.
    :func:`name_drift` builds these from fleet rows (per-name rollups, no
    trees); :class:`ContextDelta` adds the calling context.
    """

    name: str
    metric: str
    status: str
    baseline_count: int = 0
    baseline_sum: float = 0.0
    baseline_mean: float = 0.0
    baseline_variance: float = 0.0
    candidate_count: int = 0
    candidate_sum: float = 0.0
    candidate_mean: float = 0.0
    candidate_variance: float = 0.0

    @property
    def delta_sum(self) -> float:
        return self.candidate_sum - self.baseline_sum

    @property
    def delta_mean(self) -> float:
        return self.candidate_mean - self.baseline_mean

    @property
    def z_score(self) -> float:
        """Welch z-statistic of the per-observation means (signed).

        Zero when nothing moved; ±:data:`Z_CAP` for deterministic changes —
        both sides variance-free but different, or a context/name that
        exists on one side only.
        """
        if self.status == STATUS_NEW:
            return Z_CAP
        if self.status == STATUS_VANISHED:
            return -Z_CAP
        delta_mean = self.delta_mean
        if delta_mean == 0.0:
            return 0.0
        pooled = 0.0
        if self.baseline_count:
            pooled += self.baseline_variance / self.baseline_count
        if self.candidate_count:
            pooled += self.candidate_variance / self.candidate_count
        if pooled <= 0.0:
            return Z_CAP if delta_mean > 0 else -Z_CAP
        return max(-Z_CAP, min(Z_CAP, delta_mean / math.sqrt(pooled)))

    @property
    def significance(self) -> float:
        return abs(self.z_score)

    @property
    def score(self) -> float:
        """Ranking weight: metric movement scaled by statistical evidence.

        ``delta_sum * (1 + min(significance, SCORE_SIGNIFICANCE_CAP))`` —
        evidence contributes at most one order of magnitude, so a large
        regression outranks anything under a tenth of its size regardless of
        z, while between comparable deltas the one that moved far outside
        both runs' noise wins.  Signed: positive scores are regressions,
        negative ones improvements.
        """
        return self.delta_sum * (
            1.0 + min(self.significance, SCORE_SIGNIFICANCE_CAP))

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "metric": self.metric,
            "status": self.status,
            "baseline": {"count": self.baseline_count,
                         "sum": self.baseline_sum, "mean": self.baseline_mean},
            "candidate": {"count": self.candidate_count,
                          "sum": self.candidate_sum,
                          "mean": self.candidate_mean},
            "delta_sum": self.delta_sum,
            "delta_mean": self.delta_mean,
            "z_score": self.z_score,
        }

    def __str__(self) -> str:
        return (f"[{self.status}] {self.name}: {self.baseline_sum:.6g} → "
                f"{self.candidate_sum:.6g} ({self.delta_sum:+.6g} {self.metric})")


@dataclass
class ContextDelta(NameDelta):
    """How one calling context's metric moved: a :class:`NameDelta` plus
    where in the tree it happened."""

    #: Human-readable frame labels from just below the root to this context.
    path: Tuple[str, ...] = ()
    #: The context's frame kind (``FrameKind`` value).
    kind: str = ""
    #: The candidate tree's node (None for vanished contexts) — what the
    #: regression analysis attaches its Issues to.
    node: Optional[CCTNode] = None

    def as_dict(self) -> Dict[str, object]:
        data = super().as_dict()
        return {"path": list(self.path), "name": data.pop("name"),
                "kind": self.kind, **data}


class DifferentialProfile:
    """Aligned comparison of two profiles (or two merged populations)."""

    def __init__(self, baseline, candidate,
                 metric: str = M.METRIC_GPU_TIME) -> None:
        self.metric = metric
        self.baseline_tree = resolve_tree(baseline)
        self.candidate_tree = resolve_tree(candidate)
        self._baseline_index = _index_by_path(self.baseline_tree)
        self._candidate_index = _index_by_path(self.candidate_tree)
        self._contexts = self._align()

    @classmethod
    def between_populations(cls, baselines: Iterable, candidates: Iterable,
                            metric: str = M.METRIC_GPU_TIME) -> "DifferentialProfile":
        """Diff two run populations: each side is fleet-merged first."""
        return cls(merge_population(baselines, "baseline"),
                   merge_population(candidates, "candidate"), metric=metric)

    # -- alignment ------------------------------------------------------------------

    @staticmethod
    def _stats(node: Optional[CCTNode], metric: str) -> Tuple[int, float, float, float]:
        if node is None:
            return 0, 0.0, 0.0, 0.0
        aggregate = node.exclusive.get(metric)
        if aggregate is None or aggregate.count == 0:
            return 0, 0.0, 0.0, 0.0
        return aggregate.count, aggregate.total, aggregate.mean, aggregate.variance

    def _align(self) -> List[ContextDelta]:
        metric = self.metric
        contexts: List[ContextDelta] = []
        base_index = self._baseline_index
        for key, cnode in self._candidate_index.items():
            bnode = base_index.get(key)
            b_count, b_sum, b_mean, b_var = self._stats(bnode, metric)
            c_count, c_sum, c_mean, c_var = self._stats(cnode, metric)
            if b_count == 0 and c_count == 0:
                continue  # context never observed this metric on either side
            if bnode is None:
                status = STATUS_NEW
            elif (b_count, b_sum, b_mean, b_var) == (c_count, c_sum, c_mean, c_var):
                status = STATUS_UNCHANGED
            else:
                status = STATUS_CHANGED
            contexts.append(ContextDelta(
                path=tuple(n.frame.label() for n in cnode.path_from_root()[1:]),
                name=cnode.frame.label(), kind=cnode.kind.value, metric=metric,
                status=status,
                baseline_count=b_count, baseline_sum=b_sum,
                baseline_mean=b_mean, baseline_variance=b_var,
                candidate_count=c_count, candidate_sum=c_sum,
                candidate_mean=c_mean, candidate_variance=c_var,
                node=cnode))
        candidate_keys = self._candidate_index
        for key, bnode in base_index.items():
            if key in candidate_keys:
                continue
            b_count, b_sum, b_mean, b_var = self._stats(bnode, metric)
            if b_count == 0:
                continue
            contexts.append(ContextDelta(
                path=tuple(n.frame.label() for n in bnode.path_from_root()[1:]),
                name=bnode.frame.label(), kind=bnode.kind.value, metric=metric,
                status=STATUS_VANISHED,
                baseline_count=b_count, baseline_sum=b_sum,
                baseline_mean=b_mean, baseline_variance=b_var,
                node=None))
        return contexts

    # -- context-level views ------------------------------------------------------------

    def contexts(self) -> List[ContextDelta]:
        """Every aligned context that observed the metric on either side."""
        return list(self._contexts)

    @property
    def deltas(self) -> List[ContextDelta]:
        """Contexts whose metric actually moved (new/vanished included)."""
        return [delta for delta in self._contexts
                if delta.status != STATUS_UNCHANGED]

    @property
    def new_contexts(self) -> List[ContextDelta]:
        return [d for d in self._contexts if d.status == STATUS_NEW]

    @property
    def vanished_contexts(self) -> List[ContextDelta]:
        return [d for d in self._contexts if d.status == STATUS_VANISHED]

    def regressions(self, min_delta: float = 0.0,
                    min_z: float = 0.0) -> List[ContextDelta]:
        """Contexts that got *more* expensive, most significant first.

        ``min_delta`` gates the absolute metric increase, ``min_z`` the Welch
        significance; survivors are ranked by :attr:`ContextDelta.score`
        (delta weighted by significance).  New contexts count — time appearing
        where none was spent is a regression of the candidate run.
        """
        found = [d for d in self.deltas
                 if d.delta_sum > min_delta and d.significance >= min_z
                 and d.status != STATUS_VANISHED]
        found.sort(key=lambda d: -d.score)
        return found

    def improvements(self, min_delta: float = 0.0) -> List[ContextDelta]:
        """Contexts that got cheaper (vanished ones included), biggest first."""
        found = [d for d in self.deltas if d.delta_sum < -min_delta]
        found.sort(key=lambda d: d.score)
        return found

    # -- structural (metric-independent) views ----------------------------------------------

    def new_call_paths(self) -> List[Tuple[str, ...]]:
        """Label paths of contexts present only in the candidate tree."""
        base = self._baseline_index
        return [tuple(n.frame.label() for n in node.path_from_root()[1:])
                for key, node in self._candidate_index.items() if key not in base]

    def vanished_call_paths(self) -> List[Tuple[str, ...]]:
        """Label paths of contexts present only in the baseline tree."""
        candidate = self._candidate_index
        return [tuple(n.frame.label() for n in node.path_from_root()[1:])
                for key, node in self._baseline_index.items()
                if key not in candidate]

    # -- name-level (bottom-up) views ---------------------------------------------------------

    def kernel_deltas(self, kind: Optional[FrameKind] = FrameKind.GPU_KERNEL) -> List[Dict[str, object]]:
        """Name-level rollup: per kernel (or any kind), summed over contexts."""
        base = self.baseline_tree.aggregate_by_name(kind=kind, metric=self.metric)
        cand = self.candidate_tree.aggregate_by_name(kind=kind, metric=self.metric)
        rows: List[Dict[str, object]] = []
        for name in dict.fromkeys((*base, *cand)):
            before, after = base.get(name), cand.get(name)
            status = (STATUS_NEW if before is None else
                      STATUS_VANISHED if after is None else
                      STATUS_UNCHANGED if before == after else STATUS_CHANGED)
            rows.append({"name": name, "baseline": before or 0.0,
                         "candidate": after or 0.0,
                         "delta": (after or 0.0) - (before or 0.0),
                         "status": status})
        rows.sort(key=lambda row: -abs(row["delta"]))
        return rows

    @property
    def new_kernels(self) -> List[str]:
        base = self.baseline_tree.aggregate_by_name(metric=self.metric,
                                                    kind=FrameKind.GPU_KERNEL)
        cand = self.candidate_tree.aggregate_by_name(metric=self.metric,
                                                     kind=FrameKind.GPU_KERNEL)
        return [name for name in cand if name not in base]

    @property
    def vanished_kernels(self) -> List[str]:
        base = self.baseline_tree.aggregate_by_name(metric=self.metric,
                                                    kind=FrameKind.GPU_KERNEL)
        cand = self.candidate_tree.aggregate_by_name(metric=self.metric,
                                                     kind=FrameKind.GPU_KERNEL)
        return [name for name in base if name not in cand]

    # -- whole-profile summaries ------------------------------------------------------------

    @property
    def baseline_total(self) -> float:
        return self.baseline_tree.total_metric(self.metric)

    @property
    def candidate_total(self) -> float:
        return self.candidate_tree.total_metric(self.metric)

    @property
    def total_delta(self) -> float:
        return self.candidate_total - self.baseline_total

    @property
    def max_abs_delta(self) -> float:
        """Largest per-context movement (the GUI's colour-scale anchor)."""
        return max((abs(d.delta_sum) for d in self._contexts), default=0.0)

    @property
    def is_identical(self) -> bool:
        """True when every aligned context is unchanged and none is one-sided.

        A profile diffed against itself (or against a lossless reload of
        itself) is identical: the acceptance contract of the self-diff case.
        """
        return (all(d.status == STATUS_UNCHANGED for d in self._contexts)
                and not self.new_call_paths() and not self.vanished_call_paths())

    def summary(self) -> Dict[str, object]:
        counts = {STATUS_UNCHANGED: 0, STATUS_CHANGED: 0, STATUS_NEW: 0,
                  STATUS_VANISHED: 0}
        for delta in self._contexts:
            counts[delta.status] += 1
        return {
            "metric": self.metric,
            "baseline_total": self.baseline_total,
            "candidate_total": self.candidate_total,
            "total_delta": self.total_delta,
            "contexts": counts,
            "new_kernels": self.new_kernels,
            "vanished_kernels": self.vanished_kernels,
            "top_regressions": [d.as_dict() for d in self.regressions()[:5]],
        }

    def to_dict(self) -> Dict[str, object]:
        data = self.summary()
        data["deltas"] = [d.as_dict() for d in self.deltas]
        return data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"DifferentialProfile(metric={self.metric!r}, "
                f"contexts={len(self._contexts)}, "
                f"total_delta={self.total_delta:+.6g})")


# -- name-level population drift (index-served) --------------------------------------


def name_drift(baseline: "FleetAggregator", candidate: "FleetAggregator",
               kind: Optional[FrameKind] = None,
               metric: str = M.METRIC_GPU_TIME) -> List[NameDelta]:
    """Name-level drift between two run populations, biggest movers first.

    Each side's :meth:`FleetAggregator.name_states` — per-name Welford
    states folded across its runs; over a fully indexed store, index rows
    only, no profile opened on either side — align by name: new / vanished
    / changed / unchanged, each carrying a Welch z of the per-observation
    means.  Ranked by ``-abs(score)`` so the largest evidence-weighted
    movement — in either direction — leads.
    """
    base = baseline.name_states(kind=kind, metric=metric)
    cand = candidate.name_states(kind=kind, metric=metric)
    deltas: List[NameDelta] = []
    for name in dict.fromkeys((*base, *cand)):
        b, c = base.get(name), cand.get(name)
        b_count, b_sum, b_mean, b_m2 = ((b[0], b[1], b[4], b[5]) if b
                                        else (0, 0.0, 0.0, 0.0))
        c_count, c_sum, c_mean, c_m2 = ((c[0], c[1], c[4], c[5]) if c
                                        else (0, 0.0, 0.0, 0.0))
        status = (STATUS_NEW if b is None else
                  STATUS_VANISHED if c is None else
                  STATUS_UNCHANGED if (b_count, b_sum, b_mean, b_m2) ==
                  (c_count, c_sum, c_mean, c_m2) else STATUS_CHANGED)
        deltas.append(NameDelta(
            name=name, metric=metric, status=status,
            baseline_count=b_count, baseline_sum=b_sum, baseline_mean=b_mean,
            baseline_variance=(b_m2 / b_count if b_count else 0.0),
            candidate_count=c_count, candidate_sum=c_sum,
            candidate_mean=c_mean,
            candidate_variance=(c_m2 / c_count if c_count else 0.0)))
    deltas.sort(key=lambda delta: -abs(delta.score))
    return deltas
