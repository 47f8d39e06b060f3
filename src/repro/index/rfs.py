"""The Relevance Feedback Support (RFS) structure (paper §3.1).

The RFS structure is an R*-tree-style hierarchical clustering of the image
database in which every node additionally stores *representative images*:

* at the leaf level, each leaf's images are clustered with unsupervised
  k-means and the images nearest the subcluster centres become the leaf's
  representatives;
* at every upper level, the representatives of a node's children are
  aggregated and clustered again with k-means, and the candidates nearest
  the new centres become the node's representatives;
* the number of representatives of a node is proportional to the number
  of images it covers, so upper nodes carry more representatives (the
  paper designates ~5 % of the database as representative overall).

All information needed for relevance feedback — representative ids and
which child each one belongs to — is self-contained in the nodes, so
feedback rounds never touch raw image data or perform k-NN computation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.config import BuildConfig, RFSConfig
from repro.errors import (
    ConfigurationError,
    EmptyIndexError,
    NodeNotFoundError,
)
from repro.index.diskmodel import DiskAccessCounter
from repro.index.geometry import MBR, stacked_min_distances
from repro.index.rstar import BisectLevel, RStarTree
from repro.obs import get_metrics, get_tracer
from repro.utils.rng import RandomState, derive_rng, ensure_rng
from repro.utils.validation import check_vectors
from repro.clustering.kmeans import DistanceFilter, kmeans_stacked

# Every final round scans through the store's kernels: loading them with
# the index keeps that import out of a server's first finalize.
import repro.store.kernels  # noqa: F401

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.cache.result_cache import SubqueryResultCache
    from repro.exec.pool import WorkerPool
    from repro.store.delta import DeltaView
    from repro.store.feature_store import FeatureStore

@dataclass(frozen=True)
class BuildProgress:
    """One structured progress event emitted during an offline build.

    ``phase`` is ``"cluster_tree"`` (0/1 → 1/1 around the bulk load) or
    ``"representatives"`` (``done`` nodes clustered out of ``total``).
    """

    phase: str
    done: int
    total: int


#: Receives :class:`BuildProgress` events; pass to
#: :meth:`RFSStructure.build` so long builds are not silent.
ProgressCallback = Callable[[BuildProgress], None]


def _rep_budget(config: RFSConfig, size: int) -> int:
    """Representative budget for a node covering ``size`` images."""
    return max(1, int(round(config.representative_fraction * size)))


@dataclass
class _RepsPayload:
    """Fork/thread-shared state for one representative-selection phase.

    A process pool ships this to workers by fork inheritance, so the
    feature matrix is never pickled.
    """

    features: np.ndarray
    config: RFSConfig
    rng: np.random.Generator


def _select_leaf_reps(
    payload: _RepsPayload, node_ids: Sequence[int], item_ids: np.ndarray
) -> List[List[int]]:
    """Cluster equal-size leaves together; pick images nearest the
    centres of each.

    ``item_ids`` is (B, n): one row of member ids per leaf.  Each
    leaf's randomness comes from ``derive_rng(rng, f"leaf{node_id}")``
    — a stream addressed by the node, not by execution order or by the
    leaves it is stacked with — so the result is identical no matter
    which worker runs the group.
    """
    config = payload.config
    n_leaves, size = item_ids.shape
    target = _rep_budget(config, size)
    stacked = payload.features[item_ids]
    k = min(config.leaf_subclusters, size)
    results = kmeans_stacked(
        stacked,
        k,
        seeds=[derive_rng(payload.rng, f"leaf{i}") for i in node_ids],
    )
    every = np.arange(n_leaves)[:, None]
    labels = np.stack([r.labels for r in results])
    centroids = np.stack([r.centroids for r in results])
    # Each member's distance to its subcluster centre: per row the
    # square, row sum and sqrt of ``np.linalg.norm(..., axis=1)``.
    diff = stacked - centroids[every, labels]
    np.multiply(diff, diff, out=diff)
    dists = np.sqrt(np.add.reduce(diff, axis=-1))
    # Proportional share of the budget, at least one per subcluster;
    # ``np.rint`` rounds half to even, as ``round`` does.
    sizes = np.stack([r.cluster_sizes() for r in results])
    shares = np.maximum(1, np.rint(target * sizes / size)).astype(np.intp)
    # Members by subcluster, nearest first (ties by id, as a stable
    # sort of each subcluster's distances gives): keep each
    # subcluster's first ``share``.
    order = np.lexsort((dists, labels), axis=-1)
    ranked = labels[every, order]
    first = np.cumsum(sizes, axis=1) - sizes
    keep = np.arange(size) - first[every, ranked] < shares[every, ranked]
    chosen = item_ids[every, order]
    return [np.sort(row[mask]).tolist() for row, mask in zip(chosen, keep)]


def _select_inner_reps(
    payload: _RepsPayload,
    node_ids: Sequence[int],
    cand_ids: np.ndarray,
    target: int,
) -> List[List[int]]:
    """Re-cluster child representatives of nodes with equal candidate
    counts and targets; pick the candidate nearest each centre.

    ``cand_ids`` is (B, n): one row of candidate ids per node.  A
    target that keeps every candidate needs no clustering.  The
    nearest-candidate search (:meth:`DistanceFilter.nearest`: one
    product over all centroids proposes the few candidates each could
    pick, and the exact kernel decides among those, square root
    included) picks what the historical per-centroid
    ``np.linalg.norm`` loop picks, so the representatives are unchanged.
    """
    if target >= cand_ids.shape[1]:
        return [[int(c) for c in row] for row in cand_ids]
    stacked = payload.features[cand_ids]
    results = kmeans_stacked(
        stacked,
        target,
        seeds=[derive_rng(payload.rng, f"inner{i}") for i in node_ids],
    )
    return [
        sorted({int(ids[i]) for i in DistanceFilter(feats).nearest(r.centroids)})
        for ids, feats, r in zip(cand_ids, stacked, results)
    ]


def _group_reps_task(payload: _RepsPayload, group: tuple) -> List[List[int]]:
    """One representative-selection work unit — the nodes of one rank,
    kind and shape, clustered in one stacked k-means: the single pool
    task of the phase, dispatched on node kind."""
    kind, node_ids, ids, target = group
    if kind == "leaf":
        return _select_leaf_reps(payload, node_ids, ids)
    return _select_inner_reps(payload, node_ids, ids, target)


class RFSNode:
    """One cluster of the RFS hierarchy.

    Mirrors an R*-tree node, materialising everything query decomposition
    needs: the member image ids, the cluster centre and diagonal (for the
    boundary-expansion test), and the representative image ids.
    """

    __slots__ = (
        "node_id",
        "level",
        "item_ids",
        "children",
        "parent",
        "mbr",
        "center",
        "representatives",
        "rep_child_index",
    )

    def __init__(
        self,
        node_id: int,
        level: int,
        item_ids: np.ndarray,
        mbr: MBR,
        center: np.ndarray,
    ) -> None:
        self.node_id = node_id
        self.level = level
        self.item_ids = item_ids
        self.children: List["RFSNode"] = []
        self.parent: Optional["RFSNode"] = None
        self.mbr = mbr
        self.center = center
        self.representatives: List[int] = []
        # Maps a representative image id to the index of the child whose
        # subtree contains it (None-valued dict at leaves).
        self.rep_child_index: Dict[int, int] = {}

    @property
    def is_leaf(self) -> bool:
        """Whether this node is at the bottom of the hierarchy."""
        return not self.children

    @property
    def size(self) -> int:
        """Number of database images covered by this node's subtree."""
        return int(self.item_ids.shape[0])

    def diagonal(self) -> float:
        """Euclidean diagonal of the node's bounding box."""
        return self.mbr.diagonal()

    def child_of_representative(self, rep_id: int) -> "RFSNode":
        """The child node whose subtree contains representative ``rep_id``."""
        try:
            return self.children[self.rep_child_index[rep_id]]
        except (KeyError, IndexError) as exc:
            raise NodeNotFoundError(
                f"image {rep_id} is not a representative routed through "
                f"node {self.node_id}"
            ) from exc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RFSNode(id={self.node_id}, level={self.level}, "
            f"size={self.size}, reps={len(self.representatives)})"
        )


class RFSStructure:
    """The full RFS index over a feature database.

    Build with :meth:`build`; the structure keeps a reference to the
    feature matrix (rows indexed by image id) and exposes the node
    hierarchy, representative routing, and localized k-NN computation with
    simulated I/O accounting.  Every scan and gather reads through the
    structure's leaf-contiguous :attr:`store`.

    Examples
    --------
    >>> import numpy as np
    >>> feats = np.random.default_rng(0).normal(size=(300, 8))
    >>> rfs = RFSStructure.build(feats, RFSConfig(node_max_entries=40,
    ...     leaf_subclusters=3), seed=1)
    >>> rfs.root.size
    300
    >>> len(rfs.root.representatives) > 0
    True
    """

    def __init__(
        self,
        features: np.ndarray,
        root: RFSNode,
        nodes: Dict[int, RFSNode],
        config: RFSConfig,
        io: DiskAccessCounter,
    ) -> None:
        self.features = features
        self.root = root
        self.nodes = nodes
        self.config = config
        self.io = io
        # The attached leaf-contiguous feature store; ``None`` until
        # one is attached or the ``store`` property builds the default.
        self._store: Optional["FeatureStore"] = None
        # Optional cross-session subquery result cache (repro.cache).
        self.result_cache: Optional["SubqueryResultCache"] = None
        # Monotonic version stamped on cached subquery results.  Any
        # change that can alter a subquery's answer — a compaction's
        # new generation, store attach/detach (another store may hold
        # other rows) — bumps it, so stale cache entries are rejected
        # at read time without a global flush.
        self.structure_version = 0
        # JSON-safe description of how the structure was built (method,
        # point count, executor, …); persisted by serialize.save_rfs.
        self.build_meta: dict = {}
        # node_id -> (leaves, stacked lo bounds, stacked hi bounds)
        self._leaf_geometry_cache: Dict[
            int, Tuple[List[RFSNode], np.ndarray, np.ndarray]
        ] = {}
        # item_id -> leaf node_id, a dense int64 array built lazily on
        # the first leaf_of_item call (one concatenate + repeat, no
        # per-item Python).  Entries are -1 for ids the tree does not
        # hold.
        self._leaf_lookup: Optional[np.ndarray] = None
        # Optional generational delta segment (repro.store.delta): when
        # attached, localized scans filter its tombstones out of the
        # main blocks and merge its live rows in exactly, and the id
        # lookups resolve delta ids.  Mutations never bump
        # structure_version — cached subqueries stay main-only and the
        # delta is merged after the cache (see run_subquery_task).
        self.delta = None
        # node_id -> np.int64 array of leaf node ids under the node
        # (companion cache to _leaf_geometry_cache, for the delta
        # visibility tests).
        self._leaf_ids_cache: Dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Feature store
    # ------------------------------------------------------------------
    @property
    def store(self) -> "FeatureStore":
        """The leaf-contiguous store every scan and gather reads through.

        The store most recently passed to :meth:`attach_store`;
        otherwise an in-RAM float32
        :class:`~repro.store.FeatureStore` of the structure's own,
        built on first use (no version bump: nothing can have been
        scanned or cached before it existed).  Like the other derived
        state (leaf geometry, the item→leaf map) the build is
        idempotent, so concurrent first uses at worst build it twice.
        """
        if self._store is None:
            from repro.store import FeatureStore

            self._store = FeatureStore.build(self)
        return self._store

    def attach_store(
        self, store: "FeatureStore", *, validate: bool = True
    ) -> None:
        """Attach a leaf-contiguous :class:`~repro.store.FeatureStore`.

        Replaces the store :meth:`localized_knn` scans and
        :meth:`vectors_for` gathers from — a memory-mapped one lets
        worker processes share the pages zero-copy.  ``validate``
        cross-checks shape and per-leaf membership against this
        structure (skip only for stores freshly built from the same
        structure).

        Re-attaching the store that is already attached is a no-op (no
        validation, no version bump), so long-running servers can call
        this defensively.  Attaching a *different* store bumps
        :attr:`structure_version`: results cached against the previous
        store must not be served.
        """
        if store is self._store:
            return
        if validate:
            if store.dims != self.features.shape[1]:
                raise ConfigurationError(
                    f"store has {store.dims} dims, structure has "
                    f"{self.features.shape[1]}"
                )
            if store.n_rows != self.root.size:
                raise ConfigurationError(
                    f"store holds {store.n_rows} rows, structure covers "
                    f"{self.root.size} images"
                )
            for leaf in self._leaves_under(self.root):
                start, stop = store.span_of(leaf.node_id)
                ids = np.sort(store.id_of_row[start:stop])
                if not np.array_equal(ids, leaf.item_ids):
                    raise ConfigurationError(
                        f"store span for leaf {leaf.node_id} does not "
                        "match its member ids; rebuild the store"
                    )
        self._store = store
        self.structure_version += 1

    def detach_store(self) -> None:
        """Let go of the attached store (so a memmap can be closed).

        The next scan builds the structure's own float32 store (see
        :attr:`store`).  A no-op when none is held; otherwise bumps
        :attr:`structure_version` (results cached against the detached
        store's configuration must not be served).
        """
        if self._store is not None:
            self._store = None
            self.structure_version += 1

    def attach_cache(self, cache: "SubqueryResultCache") -> None:
        """Attach a cross-session subquery result cache.

        Once attached, every final-round subquery consults the cache
        before the boundary expansion and block scan; see
        :mod:`repro.cache.result_cache` for keying and invalidation.
        Attaching does not bump the structure version — the cache only
        memoizes results, it never changes them.
        """
        self.result_cache = cache

    def detach_cache(self) -> None:
        """Detach the subquery result cache (queries recompute)."""
        self.result_cache = None

    def attach_delta(self, segment) -> None:
        """Attach a generational delta segment (repro.store.delta).

        Scans consult one immutable view snapshot per call, so
        mutations interleave with reads without locks or torn results.
        Attaching does not bump :attr:`structure_version`: cache
        entries stay main-only (tombstone-filtered rankings of the
        unchanged blocks) and the live delta rows are merged *after*
        the cache consult — inserts therefore invalidate nothing, and
        removals evict only the affected root-path entries (see
        :meth:`repro.cache.result_cache.SubqueryResultCache.invalidate_nodes`).
        """
        self.delta = segment

    def delta_view(self) -> Optional["DeltaView"]:
        """The current delta snapshot, or ``None`` without a segment."""
        if self.delta is None:
            return None
        return self.delta.view

    @property
    def mutation_epoch(self) -> int:
        """Monotonic count of delta mutations (-1 without a segment).

        The process executor folds this into its fork-pool staleness
        key: forked workers hold the delta state captured at fork time,
        so a new epoch means the pool must re-fork before the next
        subquery (the same contract ``id(rfs)`` provides for swaps).
        """
        if self.delta is None:
            return -1
        return self.delta.view.epoch

    def invalidate_cache_nodes(self, node_ids: Sequence[int]) -> int:
        """Evict cached subqueries whose search node is in ``node_ids``.

        The per-node (no global flush) invalidation hook a removal
        uses: only entries anchored at the tombstoned row's root path
        can hold it, so only those are dropped.  Returns the number of
        evicted entries.  ``ShardedRFS`` additionally broadcasts to the
        per-shard caches.
        """
        if self.result_cache is None:
            return 0
        return self.result_cache.invalidate_nodes(node_ids)

    def vectors_for(self, item_ids: Sequence[int]) -> np.ndarray:
        """Feature vectors for ``item_ids``, gathered from the store.

        With a memory-mapped store attached this gathers from the shared
        mapping — worker processes touch the same page-cache pages
        instead of each holding a pickled copy of the feature matrix.

        Delta-segment ids (inserted after the generation was built)
        resolve from the segment's float32 kernel rows, so downstream
        centroid arithmetic matches what a rebuilt store holding the
        same rows would produce.  Tombstoned ids still
        resolve — a session may keep a removed image as a query point;
        it just never appears in results again.
        """
        ids = np.asarray(item_ids, dtype=np.int64)
        view = self.delta_view()
        if (
            view is None
            or ids.size == 0
            or int(ids.max()) < view.base_rows
        ):
            return self._vectors_main(ids)
        in_delta = ids >= view.base_rows
        delta_rows, _ = view.kernel_rows()
        out = np.empty(
            (ids.shape[0], self.features.shape[1]), dtype=delta_rows.dtype
        )
        main_ids = ids[~in_delta]
        if main_ids.size:
            out[~in_delta] = self._vectors_main(main_ids)
        delta_idx = ids[in_delta] - view.base_rows
        if delta_idx.size and int(delta_idx.max()) >= view.n_delta:
            bad = int(ids[in_delta][delta_idx >= view.n_delta][0])
            raise NodeNotFoundError(
                f"item {bad} not present in the structure"
            )
        out[in_delta] = delta_rows[delta_idx]
        return out

    def _vectors_main(self, ids: np.ndarray) -> np.ndarray:
        """Main-generation gather (``ShardedRFS`` routes to shards)."""
        return self.store.vectors_for(ids)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        features: np.ndarray,
        config: Optional[RFSConfig] = None,
        *,
        seed: RandomState = None,
        io: Optional[DiskAccessCounter] = None,
        method: str = "rstar",
        build: Optional[BuildConfig] = None,
        progress: Optional[ProgressCallback] = None,
    ) -> "RFSStructure":
        """Build the RFS structure over an (n, d) feature matrix.

        ``method`` selects the hierarchical clustering that produces the
        tree (§3.1 notes the choice is open):

        * ``"rstar"`` (default) — the R*-tree clustering bulk load, the
          paper's choice;
        * ``"hkmeans"`` — top-down hierarchical k-means, an alternative
          in the spirit of the paper's Hierarchical-GTM remark.

        Representatives are then selected bottom-up with k-means either
        way.

        ``build`` configures the offline pipeline (executor kind, worker
        count — see :class:`repro.config.BuildConfig`).
        Every parallel work unit draws from an RNG stream derived from
        its node id or tree path, so the built structure is
        **bit-identical** across executor kinds and worker counts.
        ``progress`` receives :class:`BuildProgress` events as the build
        advances.
        """
        matrix = check_vectors("features", features)
        cfg = config or RFSConfig()
        build_cfg = build or BuildConfig()
        rng = ensure_rng(seed)
        counter = io if io is not None else DiskAccessCounter()
        metrics = get_metrics()

        # Imported here: repro.exec's package import reaches this module.
        from repro.exec.pool import WorkerPool

        executor = WorkerPool(
            build_cfg.executor, build_cfg.workers, name="qd-build"
        )
        try:
            with get_tracer().span(
                "rfs_build",
                method=method,
                n_points=matrix.shape[0],
                executor=build_cfg.executor,
            ):
                nodes: Dict[int, RFSNode] = {}
                if progress is not None:
                    progress(BuildProgress("cluster_tree", 0, 1))
                t0 = time.perf_counter()
                with get_tracer().span("build_tree"):
                    if method == "rstar":
                        tree = RStarTree(
                            dims=matrix.shape[1],
                            max_entries=cfg.node_max_entries,
                        )
                        levels = tree.bisect_levels(
                            matrix,
                            seed=derive_rng(rng, "bulkload"),
                            executor=executor,
                        )
                        root = cls._nodes_from_levels(
                            levels, matrix, nodes
                        )
                        build_meta = {
                            "method": "bisect",
                            "n_points": int(matrix.shape[0]),
                        }
                    elif method == "hkmeans":
                        from repro.index.hierarchies import (
                            build_hkmeans_hierarchy,
                        )

                        root = build_hkmeans_hierarchy(
                            matrix,
                            cfg,
                            nodes,
                            seed=derive_rng(rng, "hkmeans"),
                        )
                        build_meta = {
                            "method": "hkmeans",
                            "n_points": int(matrix.shape[0]),
                        }
                    else:
                        raise ConfigurationError(
                            f"unknown hierarchy method {method!r}; "
                            "use 'rstar' or 'hkmeans'"
                        )
                build_labels = {"executor": build_cfg.executor}
                metrics.histogram(
                    "qd_build_tree_seconds",
                    "hierarchical clustering (tree) phase wall time",
                    labels=build_labels,
                ).observe(time.perf_counter() - t0)
                if progress is not None:
                    progress(BuildProgress("cluster_tree", 1, 1))
                structure = cls(matrix, root, nodes, cfg, counter)
                build_meta["executor"] = build_cfg.executor
                structure.build_meta = build_meta
                t1 = time.perf_counter()
                with get_tracer().span(
                    "select_representatives", nodes=len(nodes)
                ):
                    structure._select_representatives(
                        derive_rng(rng, "reps"),
                        executor=executor,
                        progress=progress,
                    )
                metrics.histogram(
                    "qd_build_reps_seconds",
                    "representative selection phase wall time",
                    labels=build_labels,
                ).observe(time.perf_counter() - t1)
                metrics.counter(
                    "qd_builds_total",
                    "offline RFS builds",
                    labels=build_labels,
                ).inc()
                metrics.counter(
                    "qd_build_nodes_total",
                    "RFS nodes built",
                    labels=build_labels,
                ).inc(len(nodes))
        finally:
            executor.close()
        return structure

    @staticmethod
    def _nodes_from_levels(
        levels: Sequence[BisectLevel],
        features: np.ndarray,
        registry: Dict[int, RFSNode],
    ) -> RFSNode:
        """Make the RFS nodes of a bisect partition; returns the root.

        Node ids, child order and the registry's (post-order) key order
        are those of an ``RStarTree.bulk_load`` of the same partition —
        ids run level by level from 1, the empty tree's root having
        taken 0 — without building that tree's per-point objects.
        """
        next_id = 1
        below: List[RFSNode] = []
        for level, (groups, lo, hi) in enumerate(levels):
            nodes: List[RFSNode] = []
            for j, group in enumerate(groups):
                children = [below[i] for i in group] if level else []
                ids = np.sort(
                    np.concatenate([c.item_ids for c in children])
                    if children
                    else group.astype(np.int64, copy=False)
                )
                node = RFSNode(
                    node_id=next_id,
                    level=level,
                    item_ids=ids,
                    mbr=MBR._trusted(lo[j].copy(), hi[j].copy()),
                    center=features[ids].mean(axis=0),
                )
                node.children = children
                for child in children:
                    child.parent = node
                nodes.append(node)
                next_id += 1
            below = nodes
        root = below[0]
        for node in RFSStructure._post_order(root):
            registry[node.node_id] = node
        return root

    def _select_representatives(
        self,
        rng: np.random.Generator,
        *,
        executor: "WorkerPool",
        progress: Optional[ProgressCallback] = None,
    ) -> None:
        """Bottom-up k-means representative selection (paper §3.1).

        Nodes are processed one tree rank at a time, bottom rank first:
        within a rank every node's selection is independent (an inner
        node only reads its *children's* finished representatives).  A
        rank's nodes are grouped by kind and shape — leaves by size,
        inner nodes by candidate count and target — and each group is
        one stacked k-means and one task of ``executor``.  Results are
        applied — and ``progress`` emitted — in serial post-order;
        per-node derived RNG streams make the outcome identical across
        executors and groupings.
        """
        order = list(self._post_order(self.root))
        total = len(order)
        # Rank = height above the deepest descendant leaf; children
        # always rank strictly below their parent, whatever the
        # hierarchy method did with node levels.
        rank: Dict[int, int] = {}
        by_rank: Dict[int, List[RFSNode]] = {}
        for node in order:  # post-order: children visited first
            r = (
                0
                if node.is_leaf
                else 1 + max(rank[c.node_id] for c in node.children)
            )
            rank[node.node_id] = r
            by_rank.setdefault(r, []).append(node)
        payload = _RepsPayload(
            features=self.features,
            config=self.config,
            rng=rng,
        )
        done = 0
        for r in sorted(by_rank):
            batch = by_rank[r]
            groups: Dict[tuple, Tuple[List[int], List[np.ndarray]]] = {}
            for node in batch:
                if node.is_leaf:
                    ids = node.item_ids
                    key = ("leaf", ids.shape[0], 0)
                else:
                    ids = np.array(
                        sorted(
                            {
                                rep
                                for child in node.children
                                for rep in child.representatives
                            }
                        ),
                        dtype=np.int64,
                    )
                    target = min(
                        _rep_budget(self.config, node.size), ids.shape[0]
                    )
                    key = ("inner", ids.shape[0], target)
                members, rows = groups.setdefault(key, ([], []))
                members.append(node.node_id)
                rows.append(ids)
            items = [
                (kind, node_ids, np.stack(rows), target)
                for (kind, _, target), (node_ids, rows) in groups.items()
            ]
            chosen: Dict[int, List[int]] = {}
            for (_, node_ids, _, _), picked in zip(
                items, executor.map(_group_reps_task, items, payload)
            ):
                chosen.update(zip(node_ids, picked))
            for node in batch:
                reps = chosen[node.node_id]
                node.representatives = reps
                if not node.is_leaf:
                    # Route each representative to the child owning it.
                    for idx, child in enumerate(node.children):
                        owned = set(child.item_ids.tolist())
                        for rep in reps:
                            if rep in owned:
                                node.rep_child_index[rep] = idx
                done += 1
                if progress is not None:
                    progress(
                        BuildProgress("representatives", done, total)
                    )

    @staticmethod
    def _post_order(node: RFSNode) -> Iterator[RFSNode]:
        for child in node.children:
            yield from RFSStructure._post_order(child)
        yield node

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def iter_nodes(self) -> Iterator[RFSNode]:
        """Yield every node, root first."""
        queue = [self.root]
        while queue:
            node = queue.pop(0)
            yield node
            queue.extend(node.children)

    @property
    def height(self) -> int:
        """Number of levels in the hierarchy."""
        depth = 1
        node = self.root
        while node.children:
            depth += 1
            node = node.children[0]
        return depth

    def get_node(self, node_id: int) -> RFSNode:
        """Look up a node by id."""
        try:
            return self.nodes[node_id]
        except KeyError as exc:
            raise NodeNotFoundError(f"no RFS node with id {node_id}") from exc

    def all_representatives(self) -> List[int]:
        """Distinct representative image ids across the whole structure."""
        reps = set()
        for node in self.iter_nodes():
            reps.update(node.representatives)
        return sorted(reps)

    def representative_fraction(self) -> float:
        """Achieved fraction of the database designated representative."""
        return len(self.all_representatives()) / max(1, self.root.size)

    def leaf_of_item(self, item_id: int) -> RFSNode:
        """The leaf whose subtree contains ``item_id``.

        One probe of the lazily built dense item → leaf map instead of
        a per-level tree descent.  Delta-segment ids resolve to the
        leaf they were routed to at insert time.
        """
        view = self.delta_view()
        if view is not None and int(item_id) >= view.base_rows:
            return self.nodes[view.leaf_of_delta(int(item_id))]
        lookup = self._leaf_lookup_array()
        item = int(item_id)
        node_id = int(lookup[item]) if 0 <= item < lookup.shape[0] else -1
        if node_id < 0:
            raise NodeNotFoundError(
                f"item {item_id} not present in the structure"
            )
        return self.nodes[node_id]

    def leaves_of_items(self, item_ids: Sequence[int]) -> np.ndarray:
        """Leaf node ids of many items in one vectorized pass.

        The batch form of :meth:`leaf_of_item`: one gather through the
        dense item → leaf map for the whole id array.  Raises
        :class:`NodeNotFoundError` if any id is absent.
        """
        ids = np.asarray(item_ids, dtype=np.int64)
        if ids.size == 0:
            return np.empty(0, dtype=np.int64)
        view = self.delta_view()
        if view is not None and int(ids.max()) >= view.base_rows:
            out = np.empty(ids.shape, dtype=np.int64)
            in_delta = ids >= view.base_rows
            delta_idx = ids[in_delta] - view.base_rows
            if int(delta_idx.max()) >= view.n_delta:
                bad = int(ids[in_delta][delta_idx >= view.n_delta][0])
                raise NodeNotFoundError(
                    f"item {bad} not present in the structure"
                )
            out[in_delta] = view.leaves[delta_idx]
            main_ids = ids[~in_delta]
            if main_ids.size:
                out[~in_delta] = self._leaves_of_main(main_ids)
            return out
        return self._leaves_of_main(ids)

    def _leaves_of_main(self, ids: np.ndarray) -> np.ndarray:
        """Batch leaf lookup over main-generation ids only."""
        lookup = self._leaf_lookup_array()
        if ids.min() < 0 or ids.max() >= lookup.shape[0]:
            raise NodeNotFoundError(
                "an item id is not present in the structure"
            )
        node_ids = lookup[ids]
        if (node_ids < 0).any():
            missing = ids[node_ids < 0][0]
            raise NodeNotFoundError(
                f"item {int(missing)} not present in the structure"
            )
        return node_ids

    def _leaf_lookup_array(self) -> np.ndarray:
        """The dense item→leaf map, built in one vectorized pass.

        ``np.repeat`` of each leaf's node id over its member count plus
        one scatter through the concatenated member ids replaces the
        old per-member dict comprehension — the difference between
        microseconds and an O(n) Python pass per cache-hit round at
        1M rows.
        """
        if self._leaf_lookup is None:
            leaves = list(self._leaves_under(self.root))
            members = np.concatenate(
                [leaf.item_ids for leaf in leaves]
            ).astype(np.int64, copy=False)
            node_ids = np.repeat(
                np.array([leaf.node_id for leaf in leaves], dtype=np.int64),
                np.array([leaf.size for leaf in leaves], dtype=np.int64),
            )
            size = int(members.max()) + 1 if members.size else 0
            lookup = np.full(size, -1, dtype=np.int64)
            lookup[members] = node_ids
            self._leaf_lookup = lookup
        return self._leaf_lookup

    # ------------------------------------------------------------------
    # Localized k-NN (paper §3.3)
    # ------------------------------------------------------------------
    def expand_search_node(
        self, start: RFSNode, query_points: np.ndarray, threshold: float
    ) -> RFSNode:
        """Apply the boundary-expansion rule.

        Starting at ``start``, while any query point's distance from the
        node centre exceeds ``threshold`` × node diagonal, widen the
        search to the parent node.
        """
        points = check_vectors(
            "query_points", query_points, dim=self.features.shape[1]
        )
        node = start
        levels = 0
        while node.parent is not None:
            diag = node.diagonal()
            if diag <= 0:
                node = node.parent
                levels += 1
                continue
            ratios = (
                np.linalg.norm(points - node.center, axis=1) / diag
            )
            if float(ratios.max()) <= threshold:
                break
            node = node.parent
            levels += 1
        if levels:
            get_tracer().event(
                "boundary_expansion",
                start=start.node_id,
                final=node.node_id,
                levels=levels,
            )
        return node

    def effective_node_size(
        self, node: RFSNode, view: Optional["DeltaView"] = None
    ) -> int:
        """Live items under ``node``: main size − tombstones + inserts.

        ``view`` pins the delta snapshot (pass the one a scan is using
        so size and scan agree); without a segment this is ``node.size``
        unchanged.
        """
        if view is None:
            view = self.delta_view()
        if view is None or not view.affects_scans:
            return node.size
        leaf_ids = self._leaf_ids_under(node)
        key = node.node_id
        return (
            node.size
            - int(view.dead_under(leaf_ids, key).shape[0])
            + int(view.live_under(leaf_ids, key).shape[0])
        )

    def localized_knn(
        self,
        node: RFSNode,
        query_point: np.ndarray,
        k: int,
        *,
        include_delta: bool = True,
    ) -> List[tuple[float, int]]:
        """k nearest images to ``query_point`` inside ``node``'s subtree.

        Leaf pages under ``node`` are read in ascending MINDIST order and
        the scan stops once no unread leaf can improve the k-th best
        distance — so a localized query usually reads a single leaf even
        when boundary expansion widened the search node (the paper's
        §5.2.2 I/O behaviour: "processing of all the localized k-NN
        subqueries need to access only a few neighborhoods").

        Leaf MINDIST pruning is vectorized: the leaves' stacked bounding
        boxes are cached per search node and all bounds come from one
        :func:`~repro.index.geometry.stacked_min_distances` call.  Each
        leaf read is one contiguous block of :attr:`store`, charged to
        the I/O model under ``"localized_knn"`` and scanned by one exact
        kernel call (see :meth:`_scan_leaves`).

        With a delta segment attached, one immutable view snapshot
        drives the whole call: tombstoned rows are filtered out of the
        main blocks *after* the unchanged kernels run (untouched rows'
        distances are byte-identical to the no-mutation path), and the
        live delta rows visible under ``node`` are merged in exactly by
        the brute-force delta kernel.  ``include_delta=False`` skips
        the merge and returns the tombstone-filtered main-only ranking
        — the form the subquery cache stores, so inserts never
        invalidate cached entries.
        """
        if node.size == 0:
            raise EmptyIndexError(f"node {node.node_id} covers no images")
        query = np.asarray(query_point, dtype=np.float64)

        view = self.delta_view()
        if view is not None and not view.affects_scans:
            view = None
        leaves, los, his = self._leaf_geometry(node)
        dead_ids: Optional[np.ndarray] = None
        main_live = node.size
        if view is not None and view.n_dead_main:
            dead_ids = view.dead_under(
                self._leaf_ids_under(node), node.node_id
            )
            if dead_ids.size == 0:
                dead_ids = None
            else:
                main_live = node.size - int(dead_ids.shape[0])
        mindists = stacked_min_distances(los, his, query)
        order = np.argsort(mindists, kind="stable")
        take = min(k, main_live)
        with get_tracer().span(
            "localized_knn",
            node=node.node_id,
            k=int(k),
            store=self.store.kind,
        ) as span:
            if take <= 0:
                best: List[tuple[float, int]] = []
            else:
                best = self._scan_leaves(
                    leaves, mindists, order, query, take,
                    span=span, dead_ids=dead_ids,
                )
        if include_delta and view is not None and view.live_count:
            best = self.merge_delta_ranked(
                node, best, query, k, view=view
            )
        return best

    def merge_delta_ranked(
        self,
        node: RFSNode,
        ranked: Sequence[tuple[float, int]],
        query_point: np.ndarray,
        k: int,
        *,
        view: Optional["DeltaView"] = None,
    ) -> List[tuple[float, int]]:
        """Merge the live delta rows under ``node`` into a main ranking.

        ``ranked`` must be a tombstone-filtered main-only ranking of at
        least ``min(k, main live size)`` items (what
        ``include_delta=False`` returns — and what the subquery cache
        stores).  The merge is exact: every visible delta row's
        distance is computed by the brute-force delta kernel (same
        dtype and arithmetic a rebuilt store would use for those rows),
        the pools are combined, sorted by ``(distance, id)``, and cut
        to ``k`` — bit-identical to a from-scratch rebuild containing
        the same items ranking the same candidates.
        """
        if view is None:
            view = self.delta_view()
        merged = list(ranked)
        if view is not None and view.live_count:
            sel = view.live_under(
                self._leaf_ids_under(node), node.node_id
            )
            if sel.size:
                query = np.asarray(query_point, dtype=np.float64)
                dists = self._delta_distances(view, sel, query)
                ids = view.base_rows + sel
                merged.extend(
                    (float(d), int(i)) for d, i in zip(dists, ids)
                )
                merged.sort(key=lambda pair: (pair[0], pair[1]))
        del merged[k:]
        return merged

    def _delta_distances(
        self,
        view: "DeltaView",
        sel: np.ndarray,
        query: np.ndarray,
    ) -> np.ndarray:
        """Brute-force delta kernel over the selected live rows.

        Mirrors the main scan's arithmetic: the float32 rows run through
        the same exact kernel.  No simulated disk I/O is charged — delta
        rows are RAM-resident by design.
        """
        from repro.store.kernels import point_distances

        block, sqnorms = view.kernel_rows()
        dists = point_distances(
            block[sel], query, block_sqnorms=sqnorms[sel]
        )
        get_metrics().counter(
            "qd_delta_scan_rows_total",
            "delta-segment rows scanned by the brute-force kernel",
        ).inc(int(sel.shape[0]))
        return dists

    def _read_leaf(self, leaf: RFSNode):
        """Charge the I/O model for ``leaf`` and slice its block.

        Returns the zero-copy ``(rows, ids, sqnorms)`` views of
        :meth:`~repro.store.FeatureStore.node_block`; the I/O model is
        charged the block's float32 byte count.
        """
        store = self.store
        miss = self.io.access(
            leaf.node_id,
            "localized_knn",
            nbytes=store.block_nbytes(leaf.node_id),
        )
        store.record_block_access(leaf.node_id, miss)
        return store.node_block(leaf.node_id)

    def _scan_leaves(
        self,
        leaves: List[RFSNode],
        mindists: np.ndarray,
        order: np.ndarray,
        query: np.ndarray,
        take: int,
        *,
        span,
        dead_ids: Optional[np.ndarray] = None,
    ) -> List[tuple[float, int]]:
        """The leaf scan: exact distances, MINDIST-pruned, top ``take``.

        Leaves are read in ascending MINDIST order.  Each is one
        zero-copy slice of the store, scored by one
        :func:`~repro.store.kernels.point_distances` call with the
        store's cached squared norms.  With ``κ`` the ``take``-th
        smallest distance pooled so far, the scan stops at the first
        leaf whose MINDIST exceeds ``κ``: none of its rows can beat the
        current k-th best.  The top-``take`` selection is one vectorized
        partition + lexsort over the pooled candidates, ties broken by
        ascending id.

        Delta tombstones (``dead_ids``) get their distances forced to
        ``+inf`` in place, after the kernel ran over the untouched full
        block — surviving rows' distances are byte-identical to the
        no-mutation scan, ``κ`` can never undershoot (pruning stays off
        until ``take`` live rows are pooled), and the ``+inf`` rows are
        dropped before selection, so they can never appear in the
        returned ranking.
        """
        from repro.retrieval.topk import top_pairs
        from repro.store.kernels import point_distances

        dist_parts: List[np.ndarray] = []
        id_parts: List[np.ndarray] = []
        count = 0
        kth = np.inf
        leaves_read = 0
        distance_evals = 0
        physical_before = self.io.physical_reads
        for pos in order:
            if count >= take and mindists[pos] > kth:
                break
            rows, ids, sqnorms = self._read_leaf(leaves[pos])
            leaves_read += 1
            distance_evals += rows.shape[0]
            dists = point_distances(rows, query, block_sqnorms=sqnorms)
            if dead_ids is not None:
                # ``dists`` is freshly computed (owned), so in-place is
                # safe; +inf keeps rows and ids aligned.
                dists[np.isin(ids, dead_ids)] = np.inf
            dist_parts.append(dists)
            id_parts.append(ids)
            count += dists.shape[0]
            if count >= take:
                pool = (
                    dist_parts[0]
                    if len(dist_parts) == 1
                    else np.concatenate(dist_parts)
                )
                kth = float(np.partition(pool, take - 1)[take - 1])

        cand_dists = np.concatenate(dist_parts)
        cand_ids = np.concatenate(id_parts)
        if dead_ids is not None:
            live = cand_dists != np.inf
            cand_dists = cand_dists[live]
            cand_ids = cand_ids[live]
        span.set(
            leaves_read=leaves_read,
            distance_computations=distance_evals,
            pages_read=self.io.physical_reads - physical_before,
        )
        return top_pairs(cand_dists, cand_ids, take)

    def _leaf_geometry(
        self, node: RFSNode
    ) -> Tuple[List[RFSNode], np.ndarray, np.ndarray]:
        """Leaves under ``node`` with their stacked MBR bounds (cached)."""
        cached = self._leaf_geometry_cache.get(node.node_id)
        if cached is not None:
            return cached
        leaves = list(self._leaves_under(node))
        los = np.stack([leaf.mbr.lo for leaf in leaves])
        his = np.stack([leaf.mbr.hi for leaf in leaves])
        self._leaf_geometry_cache[node.node_id] = (leaves, los, his)
        return leaves, los, his

    def _leaf_ids_under(self, node: RFSNode) -> np.ndarray:
        """Node ids of the leaves under ``node`` (cached per node).

        The delta segment's per-node visibility rule keys on routed
        leaf ids, so every effective-size / tombstone / merge lookup
        funnels through this array.
        """
        cached = self._leaf_ids_cache.get(node.node_id)
        if cached is not None:
            return cached
        leaves, _, _ = self._leaf_geometry(node)
        ids = np.array([leaf.node_id for leaf in leaves], dtype=np.int64)
        self._leaf_ids_cache[node.node_id] = ids
        return ids

    def _leaves_under(self, node: RFSNode) -> Iterator[RFSNode]:
        if node.is_leaf:
            yield node
            return
        for child in node.children:
            yield from self._leaves_under(child)
