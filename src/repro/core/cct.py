"""The calling context tree (CCT).

The CCT is built by inserting unified call paths from DLMonitor and collapsing
frames that refer to the same location (paper Figure 5).  Each node keeps two
metric sets:

* ``exclusive`` — observations attributed directly to this node (e.g. the GPU
  time of a kernel whose call path ends here);
* ``inclusive`` — a *lazily materialized* view of the same observations rolled
  up from every descendant, so any frame can answer "how much time was spent
  underneath me".

Attribution is O(1) per observation: ``attribute``/``attribute_many`` only
touch the target node's exclusive aggregates and bump the tree's generation
counter.  Every derived view follows one rule: it remembers the generation it
was built at, and once that generation has moved it is rebuilt in one pass,
never patched in place.  The inclusive view is one bottom-up pass over the
tree (a parallel Welford merge per edge), run on the first access after an
insert or attribution.  This keeps the cost of online aggregation bounded by
the number of *distinct calling contexts* — the property the paper's overhead
claims (Figure 6a–d) rest on — instead of paying an O(depth) ancestor walk on
every observation.

The tree additionally maintains kind-indexed node registries (kernels,
operators, scopes, per-``FrameKind`` lists) updated at insertion time, so the
query layer and the analyzers never need a full pre-order scan for the common
"all nodes of kind X" lookups, and every node stores its depth at
construction.  The tree serializes to flat columns that omit the
recomputable inclusive view (:meth:`CallingContextTree.to_columnar`), so no
trace is too deep to save; the legacy nested encoding is still read
(:meth:`CallingContextTree.from_dict`), iteratively.

For multi-thread collection the module provides
:class:`ShardedCallingContextTree`: each simulated CPU thread owns a private
``CallingContextTree`` shard, collectors attribute into the shard of the
launching/observing thread with no cross-thread coordination, and structural
queries run against the shards' union.  Every call path starts ``root →
thread frame`` and each shard holds one thread's paths, so the shards are
disjoint below their roots (unless threads share a name) and their union
needs no copy: it is a :class:`ShardForest`, a read-only view whose only
node of its own is a root over the shards' top-level nodes.  Under the same
rule, the view is built lazily, keyed by the shards' generation counters,
and rebuilt in one pass whenever any of them moves.  A one-shard tree is
its own union, so it behaves exactly like the plain single-tree model.
Trees that overlap (a fleet's runs) are unioned by copying, with
:meth:`CallingContextTree.merge_from`.

Per-name rollups (the bottom-up view, ``top_kernels``, the fleet's summary
rows) have one primitive: *name rows*, ``{(kind code, name): (count, sum,
min, max, mean, m2)}`` plus an :data:`ALL_KINDS` row per name.  A tree
produces them in one registry-order walk (:meth:`CallingContextTree.name_rows`);
the binary profile reader produces the same rows from its blocks; a wider
source (a sharded tree, a lazy view, a fleet of runs) folds its parts' rows
in order with :func:`accumulate_name_state`.  Each query shape is one
projection of the in-order fold of one or more row sets:
:func:`sums_by_name` (every ``aggregate_by_name``), :func:`states_by_name`
(the fleet's ``name_states``) and :func:`rank_kernels` (every
``top_kernels``).
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import (Callable, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Sequence, Tuple)

from ..dlmonitor.callpath import CallPath, Frame, FrameKind, root_frame
from .metrics import MetricAggregate, MetricSet, ReadOnlyMetricSet

_node_ids = itertools.count(1)

COLUMNAR_TREE_FORMAT = "cct-columnar-v1"

#: Stable codes for frame kinds: the on-disk kind byte of ``cct-binary-v1``
#: frame tables and the first half of every name-row key (append-only
#: across versions).
KIND_CODES: Dict[FrameKind, int] = {
    FrameKind.ROOT: 0, FrameKind.THREAD: 1, FrameKind.PYTHON: 2,
    FrameKind.FRAMEWORK: 3, FrameKind.NATIVE: 4, FrameKind.GPU_API: 5,
    FrameKind.GPU_KERNEL: 6, FrameKind.GPU_INSTRUCTION: 7,
}

#: ``kind_code`` key of the all-kinds name rows.  An unfiltered
#: ``aggregate_by_name`` interleaves every kind's nodes in node order, so
#: its sums cannot be reconstructed from per-kind subtotals (float addition
#: is not associative) — the all-kinds rollup is accumulated as its own
#: first-class row instead of derived.
ALL_KINDS = -1

#: ``{(kind_code, name): (count, sum, min, max, mean, m2)}`` — the one
#: per-name result every layer computes (see the module docstring).
NameRows = Dict[Tuple[int, str], Tuple]


def accumulate_name_state(totals: Dict, key,
                          count: int, total: float, minimum: float,
                          maximum: float, mean: float, m2: float) -> None:
    """Fold one Welford state tuple into ``totals[key]``.

    The one per-name fold: node states into a tree's rows, column entries
    into a shard's rows, and row sets into wider ones (shards into a
    profile, runs into a fleet).  The statistical fields merge with the
    exact operation sequence of ``MetricAggregate.merge`` (parallel/Chan
    Welford), but the ``sum`` field follows the running-sum recurrence
    ``totals.get(name, 0.0) + value``, so a row's sum does not depend on
    which layer folded it, even for the ``0.0 + (-0.0)`` corner a
    copy-on-first-merge would get wrong.  Callers only feed states with
    ``count > 0``, so the zero-count branches of the aggregate merge never
    arise here.
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


def fold_name_rows(row_sets: Iterable[NameRows]) -> NameRows:
    """Fold row sets, in order, into one (shards into a profile, runs into
    a fleet)."""
    rows: NameRows = {}
    for row_set in row_sets:
        for key, state in row_set.items():
            accumulate_name_state(rows, key, *state)
    return rows


def _kind_code(kind: Optional[FrameKind]) -> int:
    return KIND_CODES[kind] if kind is not None else ALL_KINDS


def sums_by_name(*row_sets: NameRows,
                 kind: Optional[FrameKind] = None) -> Dict[str, float]:
    """``name → sum`` of one kind's rows (:data:`ALL_KINDS` for None) — the
    bottom-up view's ``aggregate_by_name``.

    Given several row sets, this is the ``sum`` field of their in-order
    fold (:func:`fold_name_rows`) bit for bit: that field is the running
    sum this adds, so a fleet's sums skip the Welford merges.
    """
    wanted = _kind_code(kind)
    sums: Dict[str, float] = {}
    for rows in row_sets:
        for (code, name), state in rows.items():
            if code == wanted:
                sums[name] = sums.get(name, 0.0) + state[1]
    return sums


def states_by_name(*row_sets: NameRows,
                   kind: Optional[FrameKind] = None) -> Dict[str, Tuple]:
    """``name → (count, sum, min, max, mean, m2)`` of one kind's rows,
    folded in order across ``row_sets``."""
    wanted = _kind_code(kind)
    states: Dict[str, Tuple] = {}
    for rows in row_sets:
        for (code, name), state in rows.items():
            if code == wanted:
                accumulate_name_state(states, name, *state)
    return states


def rank_kernels(source, k: int, metric: str) -> List[Dict[str, object]]:
    """The ``k`` most expensive GPU kernels of any per-name source.

    ``source`` serves ``aggregate_by_name`` and ``total_metric`` (a tree,
    a lazy view, a fleet aggregator).  Rows are ``{"kernel", metric,
    "fraction"}`` with the fraction of ``source``'s total.
    """
    totals = source.aggregate_by_name(kind=FrameKind.GPU_KERNEL, metric=metric)
    ranked = sorted(totals.items(), key=lambda item: -item[1])[:k]
    whole = source.total_metric(metric) or 1.0
    return [{"kernel": name, metric: value, "fraction": value / whole}
            for name, value in ranked]


class CCTNode:
    """One node of the calling context tree."""

    __slots__ = ("node_id", "frame", "parent", "children", "depth",
                 "exclusive", "_inclusive", "tree")

    def __init__(self, frame: Frame, parent: Optional["CCTNode"] = None,
                 tree: Optional["CallingContextTree"] = None) -> None:
        self.node_id = next(_node_ids)
        self.frame = frame
        self.parent = parent
        self.depth = parent.depth + 1 if parent is not None else 0
        self.tree = tree if tree is not None else (parent.tree if parent is not None else None)
        self.children: Dict[Tuple, "CCTNode"] = {}
        self.exclusive = MetricSet()
        self._inclusive = MetricSet()

    # -- structure ----------------------------------------------------------------

    @property
    def name(self) -> str:
        return self.frame.name

    @property
    def kind(self) -> FrameKind:
        return self.frame.kind

    @property
    def inclusive(self) -> MetricSet:
        """Rolled-up metrics of this node's subtree (materialized on demand).

        Accessing this property rebuilds the lazy view if the tree changed.
        A held ``MetricSet`` reference keeps its identity across rebuilds,
        but is only guaranteed current as of the last ``inclusive`` access on
        *some* node — hold the node and re-read ``node.inclusive`` after
        mutations instead of caching the set across them.
        """
        tree = self.tree
        if tree is not None:
            tree.ensure_inclusive()
        return self._inclusive

    def child_for(self, frame: Frame) -> "CCTNode":
        """Find or create the child that collapses with ``frame``."""
        key = frame.identity()
        child = self.children.get(key)
        if child is None:
            child = CCTNode(frame, parent=self)
            if self.tree is not None:
                self.tree._register_node(child)  # a read-only tree refuses
            self.children[key] = child
        return child

    def ancestors(self) -> Iterator["CCTNode"]:
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def path_from_root(self) -> List["CCTNode"]:
        nodes = [self]
        nodes.extend(self.ancestors())
        nodes.reverse()
        return nodes

    def callpath(self) -> CallPath:
        return CallPath.of(node.frame for node in self.path_from_root())

    # -- metrics --------------------------------------------------------------------

    def gpu_time(self) -> float:
        return self.inclusive.sum("gpu_time")

    def cpu_time(self) -> float:
        return self.inclusive.sum("cpu_time")

    def kernel_count(self) -> int:
        return int(self.inclusive.sum("kernel_count"))

    def metric(self, name: str, inclusive: bool = True) -> float:
        metric_set = self.inclusive if inclusive else self.exclusive
        return metric_set.sum(name)

    def __repr__(self) -> str:
        return f"CCTNode(#{self.node_id} {self.frame.label()!r}, children={len(self.children)})"


class CallingContextTree:
    """The profile's calling context tree with online metric aggregation."""

    def __init__(self, program_name: str = "program") -> None:
        self.insertions = 0
        #: Node→parent merges performed by inclusive-view materializations.
        self.propagations = 0
        self._generation = 0
        self._inclusive_generation = -1
        #: Every node in registration order; parents always precede children.
        self._registry: List[CCTNode] = []
        self._by_kind: Dict[FrameKind, List[CCTNode]] = {}
        self._operator_index: List[CCTNode] = []
        self._scope_index: List[CCTNode] = []
        self._max_depth = 0
        #: Memoized ``name_rows`` per metric (generation-stamped).
        self._rows_cache: Dict[str, Tuple[int, NameRows]] = {}
        #: Memoized ``total_metric`` sums (generation-stamped).
        self._total_cache: Dict[str, Tuple[int, float]] = {}
        self.root = CCTNode(root_frame(program_name), tree=self)
        self._register_node(self.root)

    # -- construction --------------------------------------------------------------

    def _register_node(self, node: CCTNode) -> None:
        """Index a freshly created node and invalidate derived views."""
        self._registry.append(node)
        kind = node.frame.kind
        bucket = self._by_kind.get(kind)
        if bucket is None:
            bucket = self._by_kind[kind] = []
        bucket.append(node)
        if kind == FrameKind.FRAMEWORK:
            if node.frame.tag == "scope":
                self._scope_index.append(node)
            else:
                self._operator_index.append(node)
        if node.depth > self._max_depth:
            self._max_depth = node.depth
        self._generation += 1

    def insert(self, callpath: CallPath) -> CCTNode:
        """Insert a call path, collapsing frames that refer to the same location.

        The call path's own root frame (kind ``ROOT``) collapses with the tree
        root; remaining frames create or reuse children level by level.
        Returns the leaf node.  Almost every level already exists, so the
        walk probes ``children`` inline and calls ``child_for`` only to create.
        """
        return self.insert_below(self.root, callpath)

    def insert_below(self, node: CCTNode, frames: Iterable[Frame]) -> CCTNode:
        """Insert a path whose prefix reaches ``node``, walking only the rest (``frames``)."""
        root_kind = FrameKind.ROOT
        for frame in frames:
            if frame.kind is root_kind:
                continue
            child = node.children.get(frame.identity())
            node = child if child is not None else node.child_for(frame)
        self.insertions += 1
        return node

    def attribute(self, node: CCTNode, metric: str, value: float) -> None:
        """Fold one observation into ``node``'s exclusive aggregates (O(1))."""
        node.exclusive.add(metric, value)
        self._generation += 1

    def attribute_many(self, node: CCTNode, metrics: Mapping[str, float]) -> None:
        """Fold several metrics of one record into ``node`` in a single call."""
        node.exclusive.add_many(metrics)
        self._generation += 1

    def insert_and_attribute(self, callpath: CallPath, metrics: Mapping[str, float]) -> CCTNode:
        """Insert a call path and attribute several metrics to its leaf at once."""
        node = self.insert(callpath)
        self.attribute_many(node, metrics)
        return node

    # -- lazy inclusive view ---------------------------------------------------------

    def ensure_inclusive(self) -> None:
        """Rebuild the inclusive view if any insert/attribute made it stale.

        One bottom-up pass: inclusive = exclusive + Σ children's inclusive.
        Each node's inclusive MetricSet (and its aggregates) is reset *in
        place* rather than rebound, so references obtained from an earlier
        ``node.inclusive`` keep reading current data after a rebuild.
        """
        if self._inclusive_generation == self._generation:
            return
        registry = self._registry
        for node in registry:
            node._inclusive.reset_to(node.exclusive)
        propagations = 0
        # Parents precede children in the registry, so the reverse order visits
        # every child before its parent — a single linear merge pass.
        for node in reversed(registry):
            parent = node.parent
            if parent is not None:
                parent._inclusive.merge(node._inclusive)
                propagations += 1
        self.propagations += propagations
        self._inclusive_generation = self._generation

    @property
    def generation(self) -> int:
        """Monotonic counter bumped by every insert/attribute (cache key)."""
        return self._generation

    # -- shard union -----------------------------------------------------------------

    def merge_from(self, other: "CallingContextTree") -> Dict[int, CCTNode]:
        """Structurally union ``other`` into this tree (shard merge primitive).

        Nodes are matched level by level on ``Frame.identity()`` — the same
        collapsing rule ``insert`` uses — creating missing children as needed,
        and every matched node's exclusive aggregates are combined with the
        parallel Welford ``MetricSet.merge``.  Because the lazy inclusive view
        is rebuilt from exclusive data only, merging shards in any order
        yields the same tree a single shared tree would have produced from the
        same observations (to floating-point accuracy).  The union bumps the
        generation, so this tree's inclusive view and memos are rebuilt in
        one pass on their next query.  ``other`` is not modified.  Returns
        the ``id(other node) → this tree's node`` mapping (one entry per node
        of ``other``, root included).
        """
        mapping: Dict[int, CCTNode] = {id(other.root): self.root}
        # A shard forest's top-level nodes hang below their shards' roots.
        for node in other.root.children.values():
            mapping[id(node.parent)] = self.root
        self.root.exclusive.merge(other.root.exclusive)
        # Parents precede children in the registry, so every node's parent is
        # already mapped when the node is visited — one linear pass, no
        # recursion, no per-node path reconstruction.
        for node in other._registry:
            if node is other.root:
                continue
            mine = mapping[id(node.parent)].child_for(node.frame)
            mine.exclusive.merge(node.exclusive)
            mapping[id(node)] = mine
        self.insertions += other.insertions
        self._generation += 1  # metric merges above bypass attribute()
        return mapping

    # -- traversal --------------------------------------------------------------------

    def nodes(self) -> Iterator[CCTNode]:
        """Depth-first, pre-order traversal of every node (root included)."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children.values())

    def bfs(self) -> Iterator[CCTNode]:
        """Breadth-first traversal (the order the analyzer's examples use)."""
        queue = deque((self.root,))
        while queue:
            node = queue.popleft()
            yield node
            queue.extend(node.children.values())

    def all_nodes(self) -> List[CCTNode]:
        """Every node in registration order (no traversal; parents first)."""
        return list(self._registry)

    def leaves(self) -> Iterator[CCTNode]:
        for node in self._registry:
            if not node.children:
                yield node

    def find(self, predicate: Callable[[CCTNode], bool]) -> List[CCTNode]:
        return [node for node in self._registry if predicate(node)]

    def nodes_of_kind(self, kind: FrameKind) -> List[CCTNode]:
        return list(self._by_kind.get(kind, ()))

    @property
    def kernels(self) -> List[CCTNode]:
        """All GPU-kernel nodes (the analyzer's ``call_tree.kernels``)."""
        return self.nodes_of_kind(FrameKind.GPU_KERNEL)

    @property
    def operators(self) -> List[CCTNode]:
        """All framework-operator nodes (excluding module scopes)."""
        return list(self._operator_index)

    @property
    def scopes(self) -> List[CCTNode]:
        """Module / semantic scope nodes (``loss_fn``, layer names, ...)."""
        return list(self._scope_index)

    def node_count(self) -> int:
        return len(self._registry)

    def max_depth(self) -> int:
        return self._max_depth

    # -- aggregation views ----------------------------------------------------------------

    def name_rows(self, metric: str) -> NameRows:
        """Per-name Welford rows of an exclusive metric (see :data:`NameRows`).

        One registry-order walk folds every node's state into its
        ``(kind code, name)`` row and its name's :data:`ALL_KINDS` row, so
        the same kernel called from many contexts becomes one row.  Rows are
        gated on the observation *count*, not the metric sum: a kernel whose
        durations all round to 0.0 was still observed and must appear in
        bottom-up views instead of silently vanishing.

        Memoized per metric behind the generation counter: between mutations
        every per-name query on the metric reuses one walk.  The returned
        dict is shared; the projections (:func:`sums_by_name` and friends)
        build fresh results from it.
        """
        cached = self._rows_cache.get(metric)
        if cached is not None and cached[0] == self._generation:
            return cached[1]
        rows: NameRows = {}
        for node in self._registry:
            aggregate = node.exclusive.get(metric)
            if aggregate is not None and aggregate.count > 0:
                frame = node.frame
                state = aggregate.state()
                accumulate_name_state(rows, (KIND_CODES[frame.kind], frame.name),
                                      *state)
                accumulate_name_state(rows, (ALL_KINDS, frame.name), *state)
        self._rows_cache[metric] = (self._generation, rows)
        return rows

    def aggregate_by_name(self, kind: Optional[FrameKind] = None,
                          metric: str = "gpu_time") -> Dict[str, float]:
        """Sum an exclusive metric across all nodes sharing the same frame
        name (the bottom-up view), restricted to ``kind`` when given."""
        return sums_by_name(self.name_rows(metric), kind=kind)

    def total_metric(self, metric: str) -> float:
        """Whole-profile total of ``metric`` (≡ the root's inclusive sum).

        Computed as the registry-order sum of exclusive aggregates (memoized
        behind the generation counter): summary probes — ``total_gpu_time``
        and friends — never force an inclusive materialization, and the
        summation order is identical for a live tree and for any reloaded
        encoding of it (registries round-trip in order), so totals and the
        fractions derived from them compare bit-for-bit across formats.
        """
        cached = self._total_cache.get(metric)
        if cached is not None and cached[0] == self._generation:
            return cached[1]
        total = 0.0
        for node in self._registry:
            total += node.exclusive.sum(metric)
        self._total_cache[metric] = (self._generation, total)
        return total

    # -- serialization -----------------------------------------------------------------------

    @staticmethod
    def _decode_frame(node_data: Mapping) -> Frame:
        # Deliberately not interned: each loaded tree builds every frame once,
        # and interning here would pin frames of long-discarded profiles in
        # the process-global table (GUI/server processes load many profiles).
        return Frame(
            kind=FrameKind(node_data["kind"]),
            name=node_data["name"],
            file=node_data.get("file", ""),
            line=node_data.get("line", 0),
            library=node_data.get("library", ""),
            pc=node_data.get("pc", 0),
            tag=node_data.get("tag", ""),
        )

    @classmethod
    def from_dict(cls, data: Dict) -> "CallingContextTree":
        """Read the legacy nested encoding (node by node, each with its
        ``order`` of registration).

        Only the exclusive aggregates are read; the inclusive view is
        derived from them on first access, as for the flat formats.
        """
        tree = cls()
        tree._clear_indexes()
        # Iterative pre-order rebuild; pushing children reversed preserves
        # sibling order in each parent's (insertion-ordered) child dict.
        # Registration is deferred so the registries can be rebuilt in the
        # stored creation order (files without "order" fall back to pre-order,
        # which equally keeps parents ahead of their children).
        decoded: List[Tuple[int, int, CCTNode]] = []
        stack: List[Tuple[Dict, Optional[CCTNode]]] = [(data["root"], None)]
        while stack:
            node_data, parent = stack.pop()
            frame = cls._decode_frame(node_data)
            node = CCTNode(frame, parent=parent, tree=tree)
            node.exclusive = MetricSet.from_dict(node_data.get("exclusive", {}))
            position = len(decoded)
            decoded.append((node_data.get("order", position), position, node))
            if parent is None:
                tree.root = node
            else:
                parent.children[frame.identity()] = node
            children = node_data.get("children", [])
            for child_data in reversed(children):
                stack.append((child_data, node))
        decoded.sort()
        for _order, _position, node in decoded:
            tree._register_node(node)
        tree.insertions = data.get("insertions", 0)
        return tree

    def _clear_indexes(self) -> None:
        self._registry.clear()
        self._by_kind.clear()
        self._operator_index.clear()
        self._scope_index.clear()
        self._max_depth = 0
        self._rows_cache.clear()
        self._total_cache.clear()

    # -- columnar serialization ---------------------------------------------------------------

    def to_columnar(self) -> Dict:
        """Compact columnar encoding: flat frame columns + exclusive metrics only.

        The inclusive view is omitted (it is recomputed lazily on load).
        """
        registry = self._registry
        frames: Dict[str, List] = {
            "kind": [], "name": [], "file": [], "line": [],
            "library": [], "pc": [], "tag": [], "parent": self.parent_indexes(),
        }
        metric_columns: Dict[str, Dict[str, List[float]]] = {}
        for index, node in enumerate(registry):
            frame = node.frame
            frames["kind"].append(frame.kind.value)
            frames["name"].append(frame.name)
            frames["file"].append(frame.file)
            frames["line"].append(frame.line)
            frames["library"].append(frame.library)
            frames["pc"].append(frame.pc)
            frames["tag"].append(frame.tag)
            for name, aggregate in node.exclusive.items():
                column = metric_columns.get(name)
                if column is None:
                    column = metric_columns[name] = {
                        "node": [], "count": [], "sum": [],
                        "min": [], "max": [], "mean": [], "m2": [],
                    }
                count, total, minimum, maximum, mean, m2 = aggregate.state()
                column["node"].append(index)
                column["count"].append(count)
                column["sum"].append(total)
                column["min"].append(minimum)
                column["max"].append(maximum)
                column["mean"].append(mean)
                column["m2"].append(m2)
        return {
            "format": COLUMNAR_TREE_FORMAT,
            "insertions": self.insertions,
            "nodes": frames,
            "exclusive": metric_columns,
        }

    def parent_indexes(self) -> List[int]:
        """Each registry node's parent as a registry position (-1 for the
        root): the parent column of flat encodings.  Top-level nodes get the
        root's position; in a shard forest their parents are shard roots."""
        index_of = {id(node): index for index, node in enumerate(self._registry)}
        for node in self.root.children.values():
            index_of.setdefault(id(node.parent), 0)
        return [index_of[id(node.parent)] if node.parent is not None else -1
                for node in self._registry]

    @classmethod
    def build_from_columns(cls, kinds: Sequence, names: Sequence[str],
                           files: Sequence[str], lines: Sequence[int],
                           libraries: Sequence[str], pcs: Sequence[int],
                           tags: Sequence[str],
                           parents: Sequence[int]) -> Tuple["CallingContextTree", List[CCTNode]]:
        """Rebuild the tree structure from flat per-node columns.

        ``kinds`` entries may be :class:`FrameKind` members or their string
        values; ``parents`` holds registry indexes (-1 for the root).  Parents
        must precede children, the order both ``to_columnar`` and the binary
        profile backend guarantee.  Returns the tree and its node list (in
        column order) so callers can install metric columns afterwards —
        shared by :meth:`from_columnar` and the mmap-backed storage engine.
        """
        frames = []
        for index in range(len(kinds)):
            kind = kinds[index]
            # Not interned — see _decode_frame.
            frames.append(Frame(
                kind=kind if isinstance(kind, FrameKind) else FrameKind(kind),
                name=names[index], file=files[index], line=lines[index],
                library=libraries[index], pc=pcs[index], tag=tags[index],
            ))
        return cls.build_from_frames(frames, parents)

    @classmethod
    def build_from_frames(cls, frames: Sequence[Frame],
                          parents: Sequence[int]) -> Tuple["CallingContextTree", List[CCTNode]]:
        """Rebuild the tree from per-node frames and parent indexes.

        ``frames`` entries may be shared objects (the binary format's
        deduplicated frame table decodes each distinct frame once), which
        also shares their memoized ``identity()`` across nodes.
        """
        tree = cls()
        tree._clear_indexes()
        nodes: List[CCTNode] = []
        for index in range(len(frames)):
            frame = frames[index]
            parent = nodes[parents[index]] if parents[index] >= 0 else None
            node = CCTNode(frame, parent=parent, tree=tree)
            tree._register_node(node)
            if parent is None:
                tree.root = node
            else:
                parent.children[frame.identity()] = node
            nodes.append(node)
        return tree, nodes

    def install_exclusive_column(self, nodes: Sequence[CCTNode], metric: str,
                                 node_indexes: Sequence[int],
                                 counts: Sequence[int], sums: Sequence[float],
                                 minima: Sequence[float], maxima: Sequence[float],
                                 means: Sequence[float],
                                 m2s: Sequence[float]) -> None:
        """Install one metric's flat column onto ``nodes`` (decode hot path).

        The generation is bumped once, so columns installed *after* queries
        started invalidate inclusive views and memoized aggregations exactly
        like live attribution would.
        """
        from_state = MetricAggregate.from_state
        for node_index, count, total, minimum, maximum, mean, m2 in zip(
                node_indexes, counts, sums, minima, maxima, means, m2s):
            node = nodes[node_index]
            node.exclusive.put(metric, from_state(int(count), total, minimum,
                                                  maximum, mean, m2))
        self._generation += 1

    @classmethod
    def from_columnar(cls, data: Mapping) -> "CallingContextTree":
        if data.get("format") != COLUMNAR_TREE_FORMAT:
            raise ValueError(f"not a {COLUMNAR_TREE_FORMAT} payload")
        frames = data["nodes"]
        tree, nodes = cls.build_from_columns(
            frames["kind"], frames["name"], frames["file"], frames["line"],
            frames["library"], frames["pc"], frames["tag"], frames["parent"])
        for name, column in data.get("exclusive", {}).items():
            tree.install_exclusive_column(
                nodes, name, column["node"], column["count"], column["sum"],
                column["min"], column["max"], column["mean"], column["m2"])
        tree.insertions = data.get("insertions", 0)
        return tree

    def approximate_size_bytes(self) -> int:
        """Rough in-memory footprint of the tree (nodes + metric aggregates).

        Reports the *current* footprint: a not-yet-materialized inclusive view
        occupies (almost) nothing and is counted as such — deliberately not
        forcing materialization, so overhead probes taken mid-collection stay
        cheap and don't perturb the propagation counters they report next to.
        """
        total = 0
        for node in self._registry:
            total += 160  # node object, frame, child-dict overhead
            total += node.exclusive.approximate_size_bytes()
            total += node._inclusive.approximate_size_bytes()
        return total


class ShardForest(CallingContextTree):
    """The read-only union of a sharded tree's shards.

    Shards hold disjoint thread subtrees, so the union is served from the
    shards' own nodes: its only node of its own is its root, whose children
    are the shards' top-level nodes and whose exclusive set merges the shard
    roots'.  Its registry and kind indexes are the shards' (roots left out)
    concatenated in shard order: the registry a :meth:`merge_from` copy of
    the shards would build.  A top-level node's ``parent`` stays its shard's
    root, which carries the same root frame.  A thread frame's identity is
    its name, so threads that share a name have overlapping shards; those
    are unioned by copying, as :meth:`merge_from` does.  Either way the
    union is a snapshot of the shards' structure and refuses every mutator,
    a new child of a node it owns and a write to its root's exclusive set
    included.
    """

    def __init__(self, program_name: str,
                 shards: Iterable[CallingContextTree]) -> None:
        super().__init__(program_name)
        self._shards = tuple(shards)
        keys = [key for shard in self._shards for key in shard.root.children]
        if len(set(keys)) < len(keys):
            for shard in self._shards:
                CallingContextTree.merge_from(self, shard)
            self._shards = ()  # the union owns every node
        root = self.root
        for shard in self._shards:
            root.exclusive.merge(shard.root.exclusive)
            root.children.update(shard.root.children)
            self._registry.extend(shard._registry[1:])
            for kind, bucket in shard._by_kind.items():
                self._by_kind.setdefault(kind, []).extend(
                    bucket[1:] if kind is FrameKind.ROOT else bucket)
            self._operator_index.extend(shard._operator_index)
            self._scope_index.extend(shard._scope_index)
            self._max_depth = max(self._max_depth, shard._max_depth)
            self.insertions += shard.insertions
        # Built: a rebuild would silently drop a new node or a root value.
        self._register_node = self._refuse
        root.exclusive = ReadOnlyMetricSet(root.exclusive)

    def ensure_inclusive(self) -> None:
        """Each shard's own pass, then the root: its exclusive set plus the
        top-level nodes' inclusive views, merged in reverse creation order —
        the order a copy's bottom-up pass uses, so every value is bit for
        bit the copy's.  A union that owns its nodes runs the tree's pass."""
        if not self._shards:
            super().ensure_inclusive()
            return
        for shard in self._shards:
            shard.ensure_inclusive()
        if self._inclusive_generation == self._generation:
            return
        inclusive = self.root._inclusive
        inclusive.reset_to(self.root.exclusive)
        for node in reversed(self.root.children.values()):
            inclusive.merge(node._inclusive)
        self._inclusive_generation = self._generation

    def _refuse(self, *args, **kwargs) -> None:
        raise ValueError(
            "the union of several shards is a read-only view; attribute "
            "through a shard's own node, into its tree (node.tree)")

    insert_below = attribute = attribute_many = _refuse
    merge_from = install_exclusive_column = _refuse


# ---------------------------------------------------------------------------
# Wrapper trees: the read API served from one merged tree
# ---------------------------------------------------------------------------

class ProfileTree:
    """The read API of a tree whose queries a merged tree answers.

    :class:`ShardedCallingContextTree` (the union of its shards) and
    ``LazyProfileView`` (the tree its blocks decode into) serve every
    structural query from :meth:`merged` and every per-name query from
    :meth:`name_rows`; this base implements those accessors once.
    :class:`CallingContextTree` is not a subclass: it is the merged tree
    itself, and its ``root`` is the instance attribute ``insert`` reads on
    every call.
    """

    def merged(self) -> CallingContextTree:
        raise NotImplementedError

    def name_rows(self, metric: str) -> NameRows:
        raise NotImplementedError

    @property
    def root(self) -> CCTNode:
        return self.merged().root

    def nodes(self) -> Iterator[CCTNode]:
        return self.merged().nodes()

    def bfs(self) -> Iterator[CCTNode]:
        return self.merged().bfs()

    def all_nodes(self) -> List[CCTNode]:
        return self.merged().all_nodes()

    def leaves(self) -> Iterator[CCTNode]:
        return self.merged().leaves()

    def find(self, predicate: Callable[[CCTNode], bool]) -> List[CCTNode]:
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

    def aggregate_by_name(self, kind: Optional[FrameKind] = None,
                          metric: str = "gpu_time") -> Dict[str, float]:
        return sums_by_name(self.name_rows(metric), kind=kind)


# ---------------------------------------------------------------------------
# Per-thread shards, unioned at query time
# ---------------------------------------------------------------------------

#: Shard id of a plain tree saved as one shard, and of a shard entry
#: that records none.
DEFAULT_SHARD_ID = 0

SHARDED_TREE_FORMAT = "cct-columnar-sharded-v1"


class ShardedCallingContextTree(ProfileTree):
    """Per-thread CCT shards with a lazily built query-time union.

    Collection side: every simulated CPU thread gets its own private
    :class:`CallingContextTree` (``shard_for`` / ``shard_for_tid``), so the
    hot attribution path touches only thread-local state — no cross-thread
    coordination, and per-observation cost independent of how many threads
    are being profiled.  This class holds no mutator of its own: collectors
    keep a thread's shard on its DLMonitor ``ThreadState`` record, insert
    into the shard and attribute into a node's own tree (``node.tree``).

    Query side: the structural read API (``root``, traversals, kind
    indexes) is served by :meth:`merged`, the union of the shards; per-name
    queries and totals fold the shards' own results instead and never build
    it.  A one-shard tree is its own union, so its queries are served by the
    shard itself.  With several shards the union is a :class:`ShardForest`,
    cached behind the tuple of shard generation counters: repeated queries
    between mutations reuse it, and any shard change makes the next query
    rebuild it in one pass.  Unless threads share a name, every node the
    read API returns, except the union's root, is a shard's own node, so
    attribution into its ``node.tree`` lands in that shard.  Lists returned
    by queries are snapshots; re-fetch them after structural changes.
    """

    def __init__(self, program_name: str = "program") -> None:
        self.program_name = program_name
        #: Shards keyed by owning thread id (creation order preserved).
        self._shards: Dict[int, CallingContextTree] = {}
        #: Per-shard provenance: which thread produced it (saved with profiles).
        self._provenance: Dict[int, Dict[str, object]] = {}
        self._merged: Optional[ShardForest] = None
        self._merged_key: Tuple = ()

    # -- shard management -----------------------------------------------------------

    def shard_for(self, thread) -> CallingContextTree:
        """The shard owned by ``thread``, created on first use."""
        return self.shard_for_tid(thread.tid, thread.name, thread.kind)

    def shard_for_tid(self, tid: int, thread_name: str = "",
                      thread_kind: str = "") -> CallingContextTree:
        """The shard for a thread id (used when only the tid is known)."""
        shard = self._shards.get(tid)
        if shard is None:
            shard = CallingContextTree(self.program_name)
            self._shards[tid] = shard
            self._provenance[tid] = {
                "shard_id": tid,
                "thread_name": thread_name,
                "thread_kind": thread_kind,
            }
        return shard

    def shards(self) -> Dict[int, CallingContextTree]:
        return dict(self._shards)

    def shard_count(self) -> int:
        return len(self._shards)

    def shard_provenance(self) -> List[Dict[str, object]]:
        """Per-shard origin records in shard creation order."""
        return [dict(self._provenance[tid]) for tid in self._shards]

    # -- union view ------------------------------------------------------------------

    def _merge_key(self) -> Tuple:
        return tuple((tid, shard._generation) for tid, shard in self._shards.items())

    def merged(self) -> CallingContextTree:
        """The union of every shard, built lazily at query time.

        A one-shard tree is its own union: the shard is returned as is.
        Otherwise the union is a :class:`ShardForest` over the shards' own
        nodes, in shard order.  It is cached behind the shards' generation
        counters and rebuilt in one pass, never patched, on the first query
        after any shard changes.
        """
        if len(self._shards) == 1:
            (shard,) = self._shards.values()
            return shard
        key = self._merge_key()
        if self._merged is None or key != self._merged_key:
            self._merged = ShardForest(self.program_name, self._shards.values())
            self._merged_key = key
        return self._merged

    @property
    def insertions(self) -> int:
        return sum(shard.insertions for shard in self._shards.values())

    @property
    def propagations(self) -> int:
        """Node→parent merges of every shard's inclusive passes."""
        return sum(shard.propagations for shard in self._shards.values())

    # -- totals and footprint (per shard, no union) -----------------------------------

    def total_metric(self, metric: str) -> float:
        """Whole-profile total of ``metric`` across every shard.

        Always the shard-order sum of per-shard totals: summary probes never
        force a merge, and the summation order — hence the exact
        floating-point result — is stable across save/load round-trips
        (shard order is preserved by every format).
        """
        return sum(shard.total_metric(metric) for shard in self._shards.values())

    def name_rows(self, metric: str) -> NameRows:
        """Every shard's :meth:`CallingContextTree.name_rows`, folded in
        shard order — the same fold a binary profile of this tree applies
        to its per-shard rows, so live and reloaded rows agree bit for bit."""
        return fold_name_rows(shard.name_rows(metric)
                              for shard in self._shards.values())

    def approximate_size_bytes(self) -> int:
        """Footprint of every shard (a union view owns only its root).

        Like the single-tree variant this reports the *current* footprint, so
        overhead probes taken mid-collection stay cheap.
        """
        return sum(shard.approximate_size_bytes() for shard in self._shards.values())

    def stored_node_count(self) -> int:
        """Nodes held across the shards, without forcing a union.

        Each shard counts its own root, so this slightly exceeds the union's
        ``node_count()`` (one root over them all); it is the collection-side
        number overhead probes use, so that probing mid-run never builds a
        union view.
        """
        return sum(shard.node_count() for shard in self._shards.values())

    # -- serialization ------------------------------------------------------------------

    def to_columnar(self) -> Dict:
        """Multi-shard columnar encoding with per-shard provenance."""
        entries = []
        for tid, shard in self._shards.items():
            entry = dict(self._provenance[tid])
            entry["insertions"] = shard.insertions
            entry["generation"] = shard._generation
            entry["tree"] = shard.to_columnar()
            entries.append(entry)
        return {
            "format": SHARDED_TREE_FORMAT,
            "program": self.program_name,
            "shards": entries,
        }

    @classmethod
    def from_columnar(cls, data: Mapping) -> "ShardedCallingContextTree":
        if data.get("format") != SHARDED_TREE_FORMAT:
            raise ValueError(f"not a {SHARDED_TREE_FORMAT} payload")
        tree = cls(str(data.get("program", "program")))
        for entry in data.get("shards", []):
            tid = int(entry.get("shard_id", DEFAULT_SHARD_ID))
            tree._shards[tid] = CallingContextTree.from_columnar(entry["tree"])
            tree._provenance[tid] = {
                "shard_id": tid,
                "thread_name": str(entry.get("thread_name", "")),
                "thread_kind": str(entry.get("thread_kind", "")),
            }
        return tree

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ShardedCallingContextTree(shards={len(self._shards)}, "
                f"insertions={self.insertions})")
