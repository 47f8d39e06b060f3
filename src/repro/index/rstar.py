"""A dynamic R*-tree over high-dimensional feature points.

Implements the Beckmann et al. R*-tree (reference [1] of the paper):

* **ChooseSubtree** — minimum overlap enlargement above leaves (with the
  classic p=32 candidate cap), minimum volume enlargement higher up,
* **Topological split** — axis chosen by minimum margin sum, distribution
  by minimum overlap,
* **Forced reinsertion** — on first overflow per level per insertion,
  the ``reinsert_fraction`` entries farthest from the node centre are
  removed and re-inserted,
* **Best-first k-NN search** driven by MINDIST, with simulated disk-page
  accounting.

Because inserting one point at a time is slow for large builds, the tree
also offers :meth:`RStarTree.bulk_load`, a *clustering bulk load* that
recursively bisects the data with balanced 2-means.  This matches the
paper's description of the RFS structure — "a hierarchical clustering
technique, similar to the R*-tree" — and produces the compact, well
separated nodes that representative selection relies on.

Volumes in 37 dimensions overflow raw floats, so all heuristics compare
log-volumes (see :meth:`repro.index.geometry.MBR.log_area`).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.clustering.kmeans import sq_distances_into
from repro.errors import ConfigurationError, EmptyIndexError
from repro.index.diskmodel import DiskAccessCounter
from repro.index.geometry import MBR
from repro.utils.rng import RandomState, derive_rng, ensure_rng
from repro.utils.validation import check_vectors

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.exec.pool import WorkerPool

# ChooseSubtree considers at most this many lowest-enlargement candidates
# when computing overlap enlargement (the R*-tree paper's optimisation).
_CHOOSE_SUBTREE_P = 32


class Entry:
    """One slot of a tree node: a point (leaf) or a child node (inner)."""

    __slots__ = ("mbr", "child", "item_id")

    def __init__(
        self,
        mbr: MBR,
        child: Optional["Node"] = None,
        item_id: Optional[int] = None,
    ) -> None:
        self.mbr = mbr
        self.child = child
        self.item_id = item_id

    @property
    def is_leaf_entry(self) -> bool:
        """True when the entry stores a data point rather than a child."""
        return self.child is None


class Node:
    """An R*-tree node.  ``level`` 0 is the leaf level."""

    __slots__ = ("node_id", "level", "entries", "parent")

    def __init__(self, node_id: int, level: int) -> None:
        self.node_id = node_id
        self.level = level
        self.entries: List[Entry] = []
        self.parent: Optional["Node"] = None

    @property
    def is_leaf(self) -> bool:
        """Whether this node stores data points."""
        return self.level == 0

    def mbr(self) -> MBR:
        """Tight bounding box over the node's entries."""
        if not self.entries:
            raise EmptyIndexError(f"node {self.node_id} has no entries")
        return MBR.union_of([e.mbr for e in self.entries])

    def children(self) -> List["Node"]:
        """Child nodes (empty list at the leaf level)."""
        return [e.child for e in self.entries if e.child is not None]

    def __len__(self) -> int:
        return len(self.entries)


class RStarTree:
    """Dynamic R*-tree with simulated I/O accounting.

    Parameters
    ----------
    dims:
        Dimensionality of the indexed points.
    max_entries / min_entries:
        Node capacity bounds (paper prototype: 100 / 70).
    split_min_entries:
        Lower bound a topological split must respect.  The paper's 70/100
        capacities cannot both survive a binary split, so splits use this
        relaxed bound (default ``max(2, 40 % of max)``) and ``min_entries``
        applies to underflow handling during deletion only.
    reinsert_fraction:
        Fraction of entries force-reinserted on first overflow per level.
    io:
        Optional shared :class:`DiskAccessCounter`; a private counter is
        created when omitted.

    Examples
    --------
    >>> import numpy as np
    >>> tree = RStarTree(dims=2, max_entries=4)
    >>> for i, p in enumerate(np.random.default_rng(0).random((20, 2))):
    ...     tree.insert(p, i)
    >>> len(tree)
    20
    >>> [iid for _, iid in tree.knn(np.array([0.5, 0.5]), k=3)]  # doctest: +ELLIPSIS
    [...]
    """

    def __init__(
        self,
        dims: int,
        max_entries: int = 100,
        min_entries: Optional[int] = None,
        split_min_entries: Optional[int] = None,
        reinsert_fraction: float = 0.3,
        io: Optional[DiskAccessCounter] = None,
    ) -> None:
        if dims < 1:
            raise ConfigurationError(f"dims must be >= 1, got {dims}")
        if max_entries < 4:
            raise ConfigurationError(
                f"max_entries must be >= 4, got {max_entries}"
            )
        self.dims = dims
        self.max_entries = max_entries
        self.min_entries = (
            min_entries if min_entries is not None else max(2, max_entries // 3)
        )
        if not 2 <= self.min_entries <= max_entries:
            raise ConfigurationError(
                f"min_entries must be in [2, {max_entries}], got "
                f"{self.min_entries}"
            )
        self.split_min_entries = (
            split_min_entries
            if split_min_entries is not None
            else max(2, int(0.4 * max_entries))
        )
        if not 2 <= self.split_min_entries <= (max_entries + 1) // 2:
            raise ConfigurationError(
                "split_min_entries must be in [2, ceil(max/2)], got "
                f"{self.split_min_entries}"
            )
        if not 0 < reinsert_fraction < 1:
            raise ConfigurationError(
                f"reinsert_fraction must be in (0, 1), got {reinsert_fraction}"
            )
        self.reinsert_fraction = reinsert_fraction
        self.io = io if io is not None else DiskAccessCounter()
        self._node_counter = itertools.count()
        self.root: Node = self._new_node(level=0)
        self._size = 0
        # JSON-safe description of the last bulk load (method, point
        # count, sort dims) — persisted with the index by serialize.py.
        self.build_meta: dict = {}

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        """Number of levels (a root-only tree has height 1)."""
        return self.root.level + 1

    def iter_nodes(self) -> Iterator[Node]:
        """Yield every node in the tree, root first (BFS order)."""
        queue = [self.root]
        while queue:
            node = queue.pop(0)
            yield node
            queue.extend(node.children())

    def iter_leaves(self) -> Iterator[Node]:
        """Yield every leaf node."""
        for node in self.iter_nodes():
            if node.is_leaf:
                yield node

    def _new_node(self, level: int) -> Node:
        return Node(node_id=next(self._node_counter), level=level)

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def insert(self, point: np.ndarray, item_id: int) -> None:
        """Insert one data point with the given item identifier."""
        p = np.asarray(point, dtype=np.float64)
        if p.shape != (self.dims,):
            raise ConfigurationError(
                f"point must have shape ({self.dims},), got {p.shape}"
            )
        entry = Entry(MBR.from_point(p), item_id=item_id)
        # One forced-reinsert allowance per level per insertion.
        self._insert_entry(entry, level=0, reinserted_levels=set())
        self._size += 1

    def _insert_entry(
        self, entry: Entry, level: int, reinserted_levels: set[int]
    ) -> None:
        node = self._choose_subtree(entry.mbr, level)
        node.entries.append(entry)
        if entry.child is not None:
            entry.child.parent = node
        self._adjust_upwards(node)
        if len(node.entries) > self.max_entries:
            self._overflow_treatment(node, reinserted_levels)

    def _choose_subtree(self, mbr: MBR, level: int) -> Node:
        node = self.root
        while node.level > level:
            if node.level == level + 1 and node.level == 1:
                # Children are leaves: minimise overlap enlargement.
                chosen = self._least_overlap_enlargement(node, mbr)
            else:
                chosen = self._least_volume_enlargement(node, mbr)
            node = chosen
        return node

    def _least_volume_enlargement(self, node: Node, mbr: MBR) -> Node:
        best_child: Optional[Node] = None
        best_key: Tuple[float, float] = (np.inf, np.inf)
        for e in node.entries:
            key = (e.mbr.enlargement(mbr), e.mbr.log_area())
            if key < best_key:
                best_key = key
                best_child = e.child
        assert best_child is not None
        return best_child

    def _least_overlap_enlargement(self, node: Node, mbr: MBR) -> Node:
        entries = node.entries
        # Cap the candidate set at the p entries of least volume
        # enlargement (R*-tree optimisation).
        if len(entries) > _CHOOSE_SUBTREE_P:
            enlargements = [e.mbr.enlargement(mbr) for e in entries]
            order = np.argsort(enlargements)[:_CHOOSE_SUBTREE_P]
            candidates = [entries[i] for i in order]
        else:
            candidates = list(entries)
        best_child: Optional[Node] = None
        best_key: Tuple[float, float, float] = (np.inf, np.inf, np.inf)
        for cand in candidates:
            enlarged = cand.mbr.union(mbr)
            overlap_delta = 0.0
            for other in entries:
                if other is cand:
                    continue
                overlap_delta += enlarged.overlap_measure(other.mbr)
                overlap_delta -= cand.mbr.overlap_measure(other.mbr)
            key = (
                overlap_delta,
                cand.mbr.enlargement(mbr),
                cand.mbr.log_area(),
            )
            if key < best_key:
                best_key = key
                best_child = cand.child
        assert best_child is not None
        return best_child

    # ------------------------------------------------------------------
    # Overflow: forced reinsert, then split
    # ------------------------------------------------------------------
    def _overflow_treatment(
        self, node: Node, reinserted_levels: set[int]
    ) -> None:
        if node is not self.root and node.level not in reinserted_levels:
            reinserted_levels.add(node.level)
            self._reinsert(node, reinserted_levels)
        else:
            self._split(node, reinserted_levels)

    def _reinsert(self, node: Node, reinserted_levels: set[int]) -> None:
        centre = node.mbr().center()
        distances = [
            float(np.linalg.norm(e.mbr.center() - centre))
            for e in node.entries
        ]
        order = np.argsort(distances)  # ascending: closest first
        p = max(1, int(round(self.reinsert_fraction * len(node.entries))))
        keep_idx = order[:-p]
        eject_idx = order[-p:]
        ejected = [node.entries[i] for i in eject_idx]
        node.entries = [node.entries[i] for i in keep_idx]
        self._adjust_upwards(node)
        # "Close reinsert": re-insert starting with the entry closest to
        # the centre among the ejected ones.
        for entry in ejected:
            self._insert_entry(entry, node.level, reinserted_levels)

    def _split(self, node: Node, reinserted_levels: set[int]) -> None:
        group_a, group_b = self._topological_split(node.entries)
        node.entries = group_a
        for e in group_a:
            if e.child is not None:
                e.child.parent = node
        sibling = self._new_node(level=node.level)
        sibling.entries = group_b
        for e in group_b:
            if e.child is not None:
                e.child.parent = sibling

        if node is self.root:
            new_root = self._new_node(level=node.level + 1)
            for part in (node, sibling):
                entry = Entry(part.mbr(), child=part)
                part.parent = new_root
                new_root.entries.append(entry)
            self.root = new_root
            return

        parent = node.parent
        assert parent is not None
        self._refresh_parent_entry(parent, node)
        sibling_entry = Entry(sibling.mbr(), child=sibling)
        sibling.parent = parent
        parent.entries.append(sibling_entry)
        self._adjust_upwards(parent)
        if len(parent.entries) > self.max_entries:
            self._overflow_treatment(parent, reinserted_levels)

    def _topological_split(
        self, entries: List[Entry]
    ) -> Tuple[List[Entry], List[Entry]]:
        """R*-tree split: best axis by margin, best distribution by overlap."""
        m = self.split_min_entries
        total = len(entries)
        if total < 2 * m:
            # Cannot honour the bound; fall back to a balanced cut on the
            # best axis.
            m = max(1, total // 2)
        best_axis = -1
        best_margin = np.inf
        lows = np.array([e.mbr.lo for e in entries])
        highs = np.array([e.mbr.hi for e in entries])
        for axis in range(self.dims):
            margin_sum = 0.0
            for sort_key in (lows[:, axis], highs[:, axis]):
                order = np.argsort(sort_key, kind="stable")
                margin_sum += self._distribution_margin_sum(
                    [entries[i] for i in order], m
                )
            if margin_sum < best_margin:
                best_margin = margin_sum
                best_axis = axis
        # Choose the distribution on the winning axis.
        best_key: Tuple[float, float] = (np.inf, np.inf)
        best_groups: Optional[Tuple[List[Entry], List[Entry]]] = None
        for sort_key in (lows[:, best_axis], highs[:, best_axis]):
            order = np.argsort(sort_key, kind="stable")
            ordered = [entries[i] for i in order]
            prefix, suffix = _cumulative_unions(ordered)
            for split_at in range(m, total - m + 1):
                box_a = prefix[split_at - 1]
                box_b = suffix[split_at]
                key = (
                    box_a.overlap_measure(box_b),
                    box_a.log_area() + box_b.log_area(),
                )
                if key < best_key:
                    best_key = key
                    best_groups = (ordered[:split_at], ordered[split_at:])
        assert best_groups is not None
        return best_groups

    def _distribution_margin_sum(self, ordered: List[Entry], m: int) -> float:
        total = len(ordered)
        prefix, suffix = _cumulative_unions(ordered)
        margin = 0.0
        for split_at in range(m, total - m + 1):
            margin += prefix[split_at - 1].margin() + suffix[split_at].margin()
        return margin

    def _refresh_parent_entry(self, parent: Node, child: Node) -> None:
        for e in parent.entries:
            if e.child is child:
                e.mbr = child.mbr()
                return
        raise EmptyIndexError(
            f"node {child.node_id} missing from parent {parent.node_id}"
        )

    def _adjust_upwards(self, node: Node) -> None:
        current = node
        while current.parent is not None:
            self._refresh_parent_entry(current.parent, current)
            current = current.parent

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------
    def delete(self, point: np.ndarray, item_id: int) -> bool:
        """Remove the entry with the given point and id.

        Returns ``True`` when found and removed.  Underfull nodes (below
        ``min_entries``) are dissolved and their remaining entries
        re-inserted (the classic CondenseTree treatment); a root with a
        single child is shortened.
        """
        p = np.asarray(point, dtype=np.float64)
        if p.shape != (self.dims,):
            raise ConfigurationError(
                f"point must have shape ({self.dims},), got {p.shape}"
            )
        leaf = self._find_leaf(self.root, p, item_id)
        if leaf is None:
            return False
        leaf.entries = [
            e
            for e in leaf.entries
            if not (e.item_id == item_id and np.array_equal(e.mbr.lo, p))
        ]
        self._size -= 1
        self._condense(leaf)
        # Shorten a degenerate root chain.
        while (
            not self.root.is_leaf and len(self.root.entries) == 1
        ):
            only = self.root.entries[0].child
            assert only is not None
            only.parent = None
            self.root = only
        return True

    def _find_leaf(
        self, node: Node, point: np.ndarray, item_id: int
    ) -> Optional[Node]:
        if node.is_leaf:
            for e in node.entries:
                if e.item_id == item_id and np.array_equal(e.mbr.lo, point):
                    return node
            return None
        for e in node.entries:
            if e.child is not None and e.mbr.contains_point(point):
                found = self._find_leaf(e.child, point, item_id)
                if found is not None:
                    return found
        return None

    def _condense(self, node: Node) -> None:
        """CondenseTree: dissolve underfull nodes, reinsert orphans."""
        orphans: List[Entry] = []
        orphan_levels: List[int] = []
        current = node
        while current is not self.root:
            parent = current.parent
            assert parent is not None
            if len(current.entries) < self.min_entries:
                parent.entries = [
                    e for e in parent.entries if e.child is not current
                ]
                orphans.extend(current.entries)
                orphan_levels.extend(
                    [current.level] * len(current.entries)
                )
            else:
                self._refresh_parent_entry(parent, current)
            current = parent
        for entry, level in zip(orphans, orphan_levels):
            if self.root.is_leaf and level > 0:
                # Cannot hang an inner entry under a leaf root; graft its
                # descendants instead.
                for desc in self._collect_leaf_entries(entry):
                    self._insert_entry(desc, 0, set())
            else:
                self._insert_entry(
                    entry, min(level, self.root.level), set()
                )
        if not self.root.entries and self._size > 0:
            raise EmptyIndexError("condense produced an empty root")

    def _collect_leaf_entries(self, entry: Entry) -> List[Entry]:
        if entry.child is None:
            return [entry]
        out: List[Entry] = []
        stack = [entry.child]
        while stack:
            node = stack.pop()
            for e in node.entries:
                if e.child is None:
                    out.append(e)
                else:
                    stack.append(e.child)
        return out

    # ------------------------------------------------------------------
    # Bulk load (clustering-based)
    # ------------------------------------------------------------------
    def _bulk_input(
        self, points: np.ndarray, item_ids: Optional[Sequence[int]]
    ) -> Tuple[np.ndarray, List[int]]:
        """Validated ``(points, ids)`` of a bulk load.

        Non-finite coordinates are rejected: a NaN answers every
        comparison with False, so the row would land wherever a cut
        happens to fall (and ``_split_once``'s convergence shortcut
        assumes a finite value is close to itself).
        """
        pts = check_vectors("points", points, dim=self.dims)
        n = pts.shape[0]
        if n == 0:
            raise ConfigurationError("cannot bulk load zero points")
        ids = list(range(n)) if item_ids is None else list(item_ids)
        if len(ids) != n:
            raise ConfigurationError(
                f"item_ids length {len(ids)} != number of points {n}"
            )
        return pts, ids

    def bisect_levels(
        self,
        points: np.ndarray,
        seed: RandomState = None,
        *,
        executor: Optional["WorkerPool"] = None,
    ) -> List["BisectLevel"]:
        """The partition :meth:`bulk_load` builds its nodes from.

        Level 0 groups the rows of ``points`` into leaves, level ``j``
        groups the nodes of level ``j - 1``; the last level has one
        group, the root.  Callers that only need the clustering (the
        RFS build) read the groups and boxes from here and never pay
        for the per-point ``Entry``/``MBR`` objects of a loaded tree.
        """
        pts, _ = self._bulk_input(points, None)
        return _bisect_levels(
            pts,
            self.max_entries,
            self.split_min_entries,
            ensure_rng(seed),
            executor,
        )

    def bulk_load(
        self,
        points: np.ndarray,
        item_ids: Optional[Sequence[int]] = None,
        seed: RandomState = None,
        *,
        executor: Optional["WorkerPool"] = None,
    ) -> None:
        """Replace the tree contents with a clustering bulk load.

        The data is recursively bisected with balanced 2-means until each
        group fits in a leaf, then parent levels are built the same way
        over the group centroids.  This yields the compact hierarchical
        clusters the RFS structure needs, with every node within
        ``[split_min_entries, max_entries]`` (the root may hold fewer).

        Every split draws its randomness from a stream derived from the
        split's tree path (``derive_rng(rng, "L0ll...")``), so the
        partition is a pure function of the seed and the data.  With a
        thread or process ``executor`` (a serial one takes the plain
        recursion), independent subtrees after each split are bisected
        in parallel: point sets at or below
        :data:`INLINE_BISECT_THRESHOLD` recurse in-line inside one task,
        larger ones split once and re-enter the task queue.  The
        resulting groups — and hence the tree — are bit-identical to the
        serial build.
        """
        pts, ids = self._bulk_input(points, item_ids)
        levels = self.bisect_levels(pts, seed, executor=executor)
        nodes = self._leaves_of(levels[0].groups, pts, ids)
        below = levels[0]
        for level, above in enumerate(levels[1:], start=1):
            parents: List[Node] = []
            for group in above.groups:
                parent = self._new_node(level=level)
                for i in group:
                    child = nodes[i]
                    child.parent = parent
                    parent.entries.append(
                        Entry(MBR(below.lo[i], below.hi[i]), child=child)
                    )
                parents.append(parent)
            nodes = parents
            below = above

        self.root = nodes[0]
        self.root.parent = None
        self._size = len(ids)
        self.build_meta = {"method": "bisect", "n_points": len(ids)}

    def _leaves_of(
        self, groups: List[np.ndarray], pts: np.ndarray, ids: List[int]
    ) -> List[Node]:
        """One leaf node per group of row indices, in group order."""
        leaves: List[Node] = []
        for group in groups:
            leaf = self._new_node(level=0)
            leaf.entries = [
                Entry(MBR.from_point(pts[i]), item_id=ids[i]) for i in group
            ]
            leaves.append(leaf)
        return leaves

    def bulk_load_str(
        self,
        points: np.ndarray,
        item_ids: Optional[Sequence[int]] = None,
        *,
        sort_dims: Optional[Sequence[int]] = None,
    ) -> None:
        """Sort-Tile-Recursive bulk load (Leutenegger et al.).

        The classic packing strategy: sort by one dimension, cut into
        runs, sort each run by the next dimension, and so on, then pack
        leaves at full capacity.  Compared with :meth:`bulk_load` it is
        deterministic and perfectly balanced but follows coordinate
        order rather than cluster structure — the trade-off the
        hierarchy ablation measures.

        ``sort_dims`` optionally fixes the dimensions used per tiling
        level (default: the highest-variance dimensions).
        """
        pts, ids = self._bulk_input(points, item_ids)
        n = len(ids)
        if sort_dims is None:
            variances = pts.var(axis=0)
            sort_dims = np.argsort(variances)[::-1]
        # Plain ints, not np.int64: the dims land in JSON build metadata.
        sort_dims = [int(d) for d in sort_dims]
        groups = _str_tile(
            pts, np.arange(n), self.max_entries, sort_dims, 0
        )
        nodes = self._leaves_of(groups, pts, ids)
        level = 1
        while len(nodes) > 1:
            parents: List[Node] = []
            for start in range(0, len(nodes), self.max_entries):
                parent = self._new_node(level=level)
                for child in nodes[start : start + self.max_entries]:
                    child.parent = parent
                    parent.entries.append(Entry(child.mbr(), child=child))
                parents.append(parent)
            nodes = parents
            level += 1
        self.root = nodes[0]
        self.root.parent = None
        self._size = n
        self.build_meta = {
            "method": "str",
            "n_points": int(n),
            "sort_dims": sort_dims,
        }

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def knn(
        self,
        query: np.ndarray,
        k: int,
        *,
        io_category: str = "knn",
        filter_fn: Optional[Callable[[int], bool]] = None,
    ) -> List[Tuple[float, int]]:
        """Best-first k-nearest-neighbour search.

        Returns at most ``k`` pairs ``(distance, item_id)`` sorted by
        ascending distance.  Every node visited counts as one simulated
        page access.  ``filter_fn`` optionally restricts which item ids
        qualify.
        """
        q = np.asarray(query, dtype=np.float64)
        if q.shape != (self.dims,):
            raise ConfigurationError(
                f"query must have shape ({self.dims},), got {q.shape}"
            )
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        if self._size == 0:
            raise EmptyIndexError("knn on an empty tree")
        # Min-heap of (mindist, tiebreak, node); max-heap of results via
        # negated distances.
        counter = itertools.count()
        frontier: List[Tuple[float, int, Node]] = [
            (0.0, next(counter), self.root)
        ]
        results: List[Tuple[float, int]] = []  # (-distance, item_id)
        while frontier:
            mindist, _, node = heapq.heappop(frontier)
            if len(results) == k and mindist > -results[0][0]:
                break
            self.io.access(node.node_id, io_category)
            for e in node.entries:
                if e.is_leaf_entry:
                    if filter_fn is not None and not filter_fn(e.item_id):
                        continue
                    dist = float(np.linalg.norm(e.mbr.lo - q))
                    if len(results) < k:
                        heapq.heappush(results, (-dist, e.item_id))
                    elif dist < -results[0][0]:
                        heapq.heapreplace(results, (-dist, e.item_id))
                else:
                    child_min = e.mbr.min_distance(q)
                    if len(results) < k or child_min < -results[0][0]:
                        heapq.heappush(
                            frontier, (child_min, next(counter), e.child)
                        )
        out = [(-negdist, item_id) for negdist, item_id in results]
        out.sort(key=lambda pair: (pair[0], pair[1]))
        return out

    def range_search(
        self, box: MBR, *, io_category: str = "range"
    ) -> List[int]:
        """Item ids of all points inside ``box``."""
        if self._size == 0:
            return []
        found: List[int] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            self.io.access(node.node_id, io_category)
            for e in node.entries:
                if not box.intersects(e.mbr):
                    continue
                if e.is_leaf_entry:
                    if box.contains_point(e.mbr.lo):
                        found.append(e.item_id)
                else:
                    stack.append(e.child)
        return found

    # ------------------------------------------------------------------
    # Invariant checking (used by the property-based tests)
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise AssertionError if any structural invariant is violated."""
        count = 0
        for node in self.iter_nodes():
            if node is self.root and self._size == 0:
                continue  # an emptied tree keeps a bare root
            assert node.entries, f"node {node.node_id} is empty"
            if node is not self.root:
                assert (
                    len(node.entries) <= self.max_entries
                ), f"node {node.node_id} overflows"
                assert node.parent is not None
                parent_entry = [
                    e for e in node.parent.entries if e.child is node
                ]
                assert len(parent_entry) == 1, "broken parent linkage"
                box = node.mbr()
                pbox = parent_entry[0].mbr
                assert np.all(pbox.lo <= box.lo + 1e-9) and np.all(
                    box.hi <= pbox.hi + 1e-9
                ), f"parent MBR does not cover node {node.node_id}"
            for e in node.entries:
                if node.is_leaf:
                    assert e.is_leaf_entry, "child entry at leaf level"
                    count += 1
                else:
                    assert e.child is not None, "point entry at inner level"
                    assert e.child.level == node.level - 1, "level mismatch"
        assert count == self._size, f"size {self._size} != {count} points"


def _cumulative_unions(
    ordered: List[Entry],
) -> Tuple[List[MBR], List[MBR]]:
    """Prefix and suffix MBR unions of an ordered entry list."""
    n = len(ordered)
    prefix: List[MBR] = [ordered[0].mbr]
    for i in range(1, n):
        prefix.append(prefix[-1].union(ordered[i].mbr))
    suffix: List[Optional[MBR]] = [None] * n
    suffix[n - 1] = ordered[n - 1].mbr
    for i in range(n - 2, -1, -1):
        suffix[i] = suffix[i + 1].union(ordered[i].mbr)
    return prefix, suffix  # type: ignore[return-value]


def _str_tile(
    points: np.ndarray,
    indices: np.ndarray,
    capacity: int,
    sort_dims: List[int],
    depth: int,
) -> List[np.ndarray]:
    """Recursive STR tiling: slice along successive dimensions."""
    n = indices.shape[0]
    if n <= capacity:
        return [indices]
    dim = sort_dims[depth % len(sort_dims)]
    order = np.argsort(points[indices, dim], kind="stable")
    ordered = indices[order]
    n_leaves = -(-n // capacity)
    # Number of slabs along this dimension: ~sqrt of remaining leaves;
    # slab sizes are multiples of the leaf capacity so the final runs
    # pack leaves full (the STR property).
    n_slabs = max(2, int(np.ceil(np.sqrt(n_leaves))))
    if n_slabs >= n_leaves:
        slab_size = capacity  # final level: chop runs of exactly capacity
    else:
        slab_size = capacity * (-(-n // (n_slabs * capacity)))
    out: List[np.ndarray] = []
    for start in range(0, n, slab_size):
        slab = ordered[start : start + slab_size]
        if slab.shape[0] == 0:
            continue
        out.extend(
            _str_tile(points, slab, capacity, sort_dims, depth + 1)
        )
    return out


#: Point-set size at or below which a parallel bisection task recurses
#: in-line instead of splitting off children for the pool: small
#: subtrees are cheaper to finish locally than to re-dispatch.  Read at
#: call time, so a forked worker sees the value its parent had.
INLINE_BISECT_THRESHOLD = 4096


class BisectLevel(NamedTuple):
    """One level of a clustering bulk load's partition.

    ``groups[j]`` lists the members of the level's ``j``-th node — row
    indices of the points at level 0, positions in the level below
    higher up — and ``lo[j]``/``hi[j]`` bound it.
    """

    groups: List[np.ndarray]
    lo: np.ndarray
    hi: np.ndarray


def _bisect_levels(
    points: np.ndarray,
    group_max: int,
    group_min: int,
    rng: np.random.Generator,
    executor: Optional["WorkerPool"],
) -> List[BisectLevel]:
    """Partition ``points`` bottom-up into the levels of a tree.

    Points are bisected into leaf groups (on ``executor`` when it is a
    parallel one and the input is large enough to feed it); every upper
    level bisects the box centres of the level below.  Those levels
    shrink by ~``group_max`` per step, so they stay serial.
    """
    n = points.shape[0]
    everything = np.arange(n)
    if (
        executor is not None
        and executor.kind != "serial"
        and n > INLINE_BISECT_THRESHOLD
    ):
        groups = _balanced_bisect_parallel(
            points, everything, group_max, group_min, rng, executor, "L0"
        )
    else:
        groups = _balanced_bisect(
            points, everything, group_max, group_min, rng, "L0"
        )
    # Bounds of the members being grouped: at level 0 a point is its own
    # box, above that the boxes of the level below.
    lows = highs = points
    levels: List[BisectLevel] = []
    while True:
        lo = np.array([lows[g].min(axis=0) for g in groups])
        hi = np.array([highs[g].max(axis=0) for g in groups])
        levels.append(BisectLevel(groups, lo, hi))
        count = len(groups)
        if count == 1:
            return levels
        if count <= group_max:
            groups = [np.arange(count)]
        else:
            groups = _balanced_bisect(
                (lo + hi) / 2.0, np.arange(count), group_max, group_min,
                rng, f"L{len(levels)}",
            )
        lows, highs = lo, hi


def _close(new: np.ndarray, old: np.ndarray) -> bool:
    """``np.allclose(new, old)`` at its default tolerances, for finite
    vectors: the documented test without the NaN/inf handling around it
    (a quarter of the time on 37 values, twice per 2-means pass)."""
    return bool(np.all(np.abs(new - old) <= 1e-8 + 1e-5 * np.abs(old)))


def _split_once(
    all_points: np.ndarray,
    indices: np.ndarray,
    group_min: int,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """One balanced 2-means split of ``indices`` into (left, right).

    ``rng`` is the split's own derived stream; the single draw seeds the
    first 2-means centre.

    Every pass ends with the distances to the centres it just moved,
    so the next pass — or the balanced cut — reads them instead of
    recomputing them.  The loop stops when both centres stop moving
    (:func:`_close`), and that test needs no computing once the
    membership mask repeats: the same members give the same means bit
    for bit, and a finite value is always close to itself.
    """
    pts = all_points[indices]
    n = pts.shape[0]
    scratch = np.empty_like(pts)
    da = np.empty(n, dtype=np.float64)
    db = np.empty(n, dtype=np.float64)
    # 2-means to find the natural separation direction.
    centre_a = pts[int(rng.integers(n))]
    sq_distances_into(pts, centre_a, scratch, da)
    # Pick the second seed far from the first.
    centre_b = pts[int(np.argmax(da))]
    sq_distances_into(pts, centre_b, scratch, db)
    side_a = da <= db
    for _ in range(12):
        if np.count_nonzero(side_a) in (0, n):
            break
        new_a = pts[side_a].mean(axis=0)
        new_b = pts[~side_a].mean(axis=0)
        settled = _close(new_a, centre_a) and _close(new_b, centre_b)
        centre_a, centre_b = new_a, new_b
        sq_distances_into(pts, centre_a, scratch, da)
        sq_distances_into(pts, centre_b, scratch, db)
        previous, side_a = side_a, da <= db
        if settled or np.array_equal(side_a, previous):
            break
    natural = int(np.count_nonzero(side_a))
    # Balanced cut: order by affinity difference and cut so both halves
    # stay within bounds.
    order = np.argsort(np.subtract(da, db, out=da), kind="stable")
    # group_min <= ceil(group_max / 2) guarantees n > group_max implies
    # n >= 2 * group_min, so this window is always non-empty.
    cut = int(np.clip(natural, group_min, n - group_min))
    return indices[order[:cut]], indices[order[cut:]]


def _balanced_bisect(
    all_points: np.ndarray,
    indices: np.ndarray,
    group_max: int,
    group_min: int,
    rng: np.random.Generator,
    path: str = "b",
) -> List[np.ndarray]:
    """Recursively split ``indices`` with balanced 2-means.

    Each returned group has at most ``group_max`` members; splits are
    balanced so no group drops below ``group_min`` (when the input allows
    it).  The 2-means direction adapts to the data, so natural clusters
    end up in separate groups — the property the RFS structure relies on.

    Every split uses ``derive_rng(rng, path)`` — a stream addressed by
    the split's position in the recursion tree, never the shared parent
    sequence — so any subset of splits can run in any order (or another
    process) and still produce this exact partition.
    """
    if indices.shape[0] <= group_max:
        return [indices]
    left, right = _split_once(
        all_points, indices, group_min, derive_rng(rng, path)
    )
    out = _balanced_bisect(
        all_points, left, group_max, group_min, rng, path + "l"
    )
    out.extend(
        _balanced_bisect(
            all_points, right, group_max, group_min, rng, path + "r"
        )
    )
    return out


@dataclass
class _BisectPayload:
    """Fork/thread-shared state for one parallel bisect phase."""

    points: np.ndarray
    group_max: int
    group_min: int
    rng: np.random.Generator


def _bisect_task(
    payload: _BisectPayload, item: Tuple[np.ndarray, str]
) -> List[Tuple[np.ndarray, Optional[str]]]:
    """One parallel bisect step.

    Small point sets recurse fully in-line (path ``None`` marks a
    finished group); large ones split once and hand both halves back to
    the frontier.  Derived RNG streams make the output independent of
    which worker ran the task.
    """
    indices, path = item
    if indices.shape[0] <= payload.group_max:
        return [(indices, None)]
    if indices.shape[0] <= INLINE_BISECT_THRESHOLD:
        groups = _balanced_bisect(
            payload.points,
            indices,
            payload.group_max,
            payload.group_min,
            payload.rng,
            path,
        )
        return [(group, None) for group in groups]
    left, right = _split_once(
        payload.points,
        indices,
        payload.group_min,
        derive_rng(payload.rng, path),
    )
    return [(left, path + "l"), (right, path + "r")]


def _balanced_bisect_parallel(
    all_points: np.ndarray,
    indices: np.ndarray,
    group_max: int,
    group_min: int,
    rng: np.random.Generator,
    executor: "WorkerPool",
    path: str,
) -> List[np.ndarray]:
    """Frontier-parallel :func:`_balanced_bisect` — identical output.

    Maintains the work list in serial DFS order and splices each task's
    results back in place, so the final group order matches the serial
    recursion exactly; the path-derived RNG streams make each split's
    outcome order-independent.
    """
    payload = _BisectPayload(all_points, group_max, group_min, rng)
    # (finished, indices, path) in DFS order; unfinished entries are
    # re-submitted each round until everything is a leaf group.
    entries: List[Tuple[bool, np.ndarray, Optional[str]]] = [
        (False, indices, path)
    ]
    while True:
        pending = [
            (idx, pth)
            for finished, idx, pth in entries
            if not finished and pth is not None
        ]
        if not pending:
            break
        results = iter(executor.map(_bisect_task, pending, payload))
        spliced: List[Tuple[bool, np.ndarray, Optional[str]]] = []
        for finished, idx, pth in entries:
            if finished:
                spliced.append((finished, idx, pth))
            else:
                for sub_indices, sub_path in next(results):
                    spliced.append(
                        (sub_path is None, sub_indices, sub_path)
                    )
        entries = spliced
    return [idx for _, idx, _ in entries]
