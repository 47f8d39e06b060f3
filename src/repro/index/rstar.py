"""An R*-tree over high-dimensional feature points, built in bulk.

The paper builds its RFS structure offline with "a hierarchical
clustering technique, similar to the R*-tree" (§3.1), and so does this
module: :meth:`RStarTree.bulk_load` recursively bisects the data with
balanced 2-means, which yields the compact, well separated nodes that
representative selection relies on, and :meth:`RStarTree.bisect_levels`
hands the RFS build that partition without materialising the tree.
:meth:`RStarTree.bulk_load_str` is the coordinate-order (Sort-Tile-
Recursive) packing the hierarchy ablation compares against, and
:meth:`RStarTree.knn` a best-first k-NN search driven by MINDIST with
simulated disk-page accounting (reference [1] of the paper).

The tree is never updated in place: online inserts and removes go to
the serving index's delta segment (:mod:`repro.store.delta`), and a
compaction bulk-loads the next generation.
"""

from __future__ import annotations

import heapq
import itertools
from typing import (
    Callable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.clustering.kmeans import DistanceFilter
from repro.errors import ConfigurationError, EmptyIndexError
from repro.index.diskmodel import DiskAccessCounter
from repro.index.geometry import MBR
from repro.utils.rng import RandomState, derive_rng, ensure_rng
from repro.utils.validation import check_vectors


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
    """Bulk-loaded R*-tree with simulated I/O accounting.

    Parameters
    ----------
    dims:
        Dimensionality of the indexed points.
    max_entries:
        Node capacity (paper prototype: 100).  A clustering bulk load
        keeps every node but the root at or above
        :attr:`split_min_entries`, ``max(2, 40 % of max)``: the paper's
        minimum of 70 cannot hold under binary bisection (splitting 101
        entries cannot give two nodes of >= 70).
    io:
        Optional shared :class:`DiskAccessCounter`; a private counter is
        created when omitted.

    Examples
    --------
    >>> import numpy as np
    >>> tree = RStarTree(dims=2, max_entries=4)
    >>> tree.bulk_load(np.random.default_rng(0).random((20, 2)), seed=0)
    >>> len(tree)
    20
    >>> [iid for _, iid in tree.knn(np.array([0.5, 0.5]), k=3)]  # doctest: +ELLIPSIS
    [...]
    """

    def __init__(
        self,
        dims: int,
        max_entries: int = 100,
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
        # <= ceil(max / 2) for every max >= 4, so a bisection of an
        # overfull group can always leave both halves at or above it.
        self.split_min_entries = max(2, int(0.4 * max_entries))
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
        )

    def bulk_load(
        self,
        points: np.ndarray,
        item_ids: Optional[Sequence[int]] = None,
        seed: RandomState = None,
    ) -> None:
        """Replace the tree contents with a clustering bulk load.

        The data is recursively bisected with balanced 2-means until each
        group fits in a leaf, then parent levels are built the same way
        over the group centroids.  This yields the compact hierarchical
        clusters the RFS structure needs, with every node within
        ``[split_min_entries, max_entries]`` (the root may hold fewer).

        Every split draws its randomness from a stream derived from the
        split's tree path (``derive_rng(rng, "L0ll...")``), so the
        partition is a pure function of the seed and the data.
        """
        pts, ids = self._bulk_input(points, item_ids)
        levels = self.bisect_levels(pts, seed)
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

    # ------------------------------------------------------------------
    # Invariant checking (used by the property-based tests)
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise AssertionError if any structural invariant is violated."""
        count = 0
        for node in self.iter_nodes():
            if node is self.root and self._size == 0:
                continue  # a tree never loaded has a bare root
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
) -> List[BisectLevel]:
    """Partition ``points`` bottom-up into the levels of a tree.

    Points are bisected into leaf groups; every upper level bisects the
    box centres of the level below.
    """
    groups = _balanced_bisect(
        points, np.arange(points.shape[0]), group_max, group_min, rng, "L0"
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


def _mean_of(pts: np.ndarray, members: np.ndarray) -> np.ndarray:
    """``pts[members].mean(axis=0)`` bit for bit: the same row order,
    column sums and division by the count, with the rows gathered by
    ``take`` (faster than a boolean mask) and no ``mean`` wrapper."""
    rows = np.flatnonzero(members)
    return np.add.reduce(pts.take(rows, axis=0), axis=0) / rows.shape[0]


def _split_once(
    all_points: np.ndarray,
    indices: np.ndarray,
    group_min: int,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """One balanced 2-means split of ``indices`` into (left, right).

    ``rng`` is the split's own derived stream; the single draw seeds the
    first 2-means centre, and the row farthest from it the second.

    The passes decide each row's side, and the farthest row, through
    :class:`~repro.clustering.kmeans.DistanceFilter`: a BLAS product
    with a certified rounding margin settles almost every row, and the
    exact kernel runs only on the near-ties, so every decision is the
    one the exact distances give.  The loop stops when both centres stop
    moving (:func:`_close`), and that test needs no computing once the
    membership mask repeats: the same members give the same means bit
    for bit, and a finite value is always close to itself.  The balanced
    cut's stable sort of the final centres' distance difference, which
    sets the children's row order, and its natural size come from the
    same filter (:meth:`DistanceFilter.cut_order`): only rows whose
    intervals overlap, or whose sign is unsure, get exact differences.
    """
    pts = all_points[indices]
    n = pts.shape[0]
    rows = DistanceFilter(pts)
    # 2-means to find the natural separation direction.
    centre_a = pts[int(rng.integers(n))]
    # Pick the second seed far from the first.
    centre_b = pts[rows.farthest(centre_a)]
    side_a = rows.sides(centre_a, centre_b)
    for _ in range(12):
        if np.count_nonzero(side_a) in (0, n):
            break
        new_a = _mean_of(pts, side_a)
        new_b = _mean_of(pts, ~side_a)
        settled = _close(new_a, centre_a) and _close(new_b, centre_b)
        centre_a, centre_b = new_a, new_b
        if settled:
            break
        previous, side_a = side_a, rows.sides(centre_a, centre_b)
        if np.array_equal(side_a, previous):
            break
    # Balanced cut: order by affinity difference and cut so both halves
    # stay within bounds.
    order, natural = rows.cut_order(centre_a, centre_b)
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
    sequence — so the partition does not depend on the order the splits
    run in.
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
