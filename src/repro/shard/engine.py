"""Sharded scatter-gather execution of localized k-NN subqueries.

The scale jump of ROADMAP item 1: partition the database across N
shards — each owning a pruned RFS tree, its leaf-contiguous
:class:`~repro.store.FeatureStore`, and an optional
:class:`~repro.cache.SubqueryResultCache` — and route every localized
scan through a scatter-gather merge, while feedback rounds keep running
on the one global tree (they only touch representatives, which the
paper keeps client-side anyway).

Bit-parity argument
-------------------
Sharded rankings are **bit-identical** to single-node because the merge
never re-computes a float:

1. Leaves are never split across shards, and a shard store's per-leaf
   blocks hold the same rows, in the same order, converted element-wise
   to float32, as the corresponding single-node store blocks —
   so each per-leaf kernel call sees byte-identical inputs and produces
   bit-identical distances.
2. A shard scans *its* leaves of the search node with the unchanged
   single-node scan (MINDIST-ordered with the strict ``>`` early
   break), so any member of the global top-``take`` is necessarily in
   its own shard's local top-``take``; leaves no shard scanned hold
   only distances strictly beyond the global k-th.
3. The gather ranks the union of shard candidates with
   :func:`repro.retrieval.topk.rank`, the same function that orders the
   single-node result.

:class:`ShardedRFS` subclasses the global structure and overrides only
:meth:`localized_knn`, so the entire stack above it — feedback
sessions, :func:`~repro.core.ranking.plan_final_round` /
``merge_outcomes``, the subquery executor, session checkpoint/resume —
runs unchanged on a sharded deployment.
``structure_version`` is inherited from the global tree, so a session
checkpointed under one router resumes bit-identically under a router
with a different shard count.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from repro.config import (
    CacheConfig,
    MutationConfig,
    QDConfig,
    RFSConfig,
)
from repro.core.engine import QueryDecompositionEngine
from repro.errors import ConfigurationError, EmptyIndexError
from repro.index.diskmodel import DiskAccessCounter
from repro.index.rfs import RFSNode, RFSStructure
from repro.obs import get_metrics, get_tracer
from repro.retrieval.topk import RankedList, merge_ranked_lists
from repro.shard.partition import (
    ShardAssignment,
    build_shard_structure,
    dfs_leaves,
    partition_leaves,
)
from repro.store import FeatureStore
from repro.utils.rng import RandomState

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.cache import SubqueryResultCache
    from repro.datasets.database import ImageDatabase
    from repro.index.rfs import ProgressCallback

#: Sentinel folded into per-shard cache keys in place of the boundary
#: threshold (shard-level scans happen *after* boundary expansion, so
#: no real threshold — always in [0, 1] — can collide with it).
_SHARD_KEY_TAG = -1.0


class Shard:
    """One shard: a pruned tree with its store, plus an optional cache.

    All distance arithmetic happens here, through the unchanged
    single-node scan of the pruned tree.  The shard-level cache
    memoizes whole per-shard scans keyed by (node, query, k) at the
    global structure version, so a warm
    rerun never touches leaf blocks yet returns a bit-identical ranking.
    """

    def __init__(
        self,
        index: int,
        rfs: RFSStructure,
        cache: Optional["SubqueryResultCache"] = None,
    ) -> None:
        self.index = index
        self.rfs = rfs
        self.cache = cache

    @property
    def n_items(self) -> int:
        return self.rfs.root.size

    @property
    def n_leaves(self) -> int:
        return sum(1 for n in self.rfs.nodes.values() if n.is_leaf)

    def covers(self, node_id: int) -> bool:
        """Whether this shard holds any leaf under global ``node_id``."""
        return node_id in self.rfs.nodes

    def localized_knn(
        self,
        node_id: int,
        query: np.ndarray,
        k: int,
    ) -> RankedList:
        """This shard's top-``k`` of its slice of global ``node_id``."""
        node = self.rfs.nodes[node_id]
        if self.cache is None:
            return self.rfs.localized_knn(node, query, k)
        from repro.cache import scan_and_publish, subquery_cache_key

        key = subquery_cache_key(
            node_id,
            np.ascontiguousarray(query).reshape(1, -1),
            k,
            _SHARD_KEY_TAG,
        )
        version = self.rfs.structure_version
        hit = self.cache.get(key, version)
        if hit is not None:
            return hit.ranked
        # A shard tree only ever sees tombstones (the router merges the
        # live delta rows once, over the gather), so the main-only
        # ranking that gets published is this shard's whole answer.
        return scan_and_publish(
            self.cache, key, version, self.rfs, node, query, k
        )


class ShardedRFS(RFSStructure):
    """The global tree with scatter-gather localized scans.

    Shares the global structure's nodes, features, config, and disk
    counter (feedback rounds, planning, boundary expansion, and leaf
    lookup all run on global state), and overrides exactly one method
    — :meth:`localized_knn` — to fan the scan out to the shards that
    hold leaves of the search node and merge their candidates.

    Per-shard stores replace a global store: :meth:`attach_store`
    refuses, :attr:`store` is ``None`` (gathers route to shard stores
    via :meth:`vectors_for`), and ``result_cache`` stays ``None`` so
    merge labels read ``cache="off"`` at the router level.
    """

    def __init__(
        self,
        base: RFSStructure,
        shards: Sequence[Shard],
        *,
        assignment: ShardAssignment,
    ) -> None:
        super().__init__(
            base.features, base.root, base.nodes, base.config, base.io
        )
        if not shards:
            raise ConfigurationError("a sharded RFS needs >= 1 shard")
        self.structure_version = base.structure_version
        self.build_meta = dict(base.build_meta)
        self.base = base
        self.shards = list(shards)
        self.assignment = assignment
        # id -> owning shard index, for routing store gathers.
        self._item_shard: Optional[np.ndarray] = None

    # -- routing -------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def _shard_of_items(self, ids: np.ndarray) -> np.ndarray:
        if self._item_shard is None:
            table = np.full(self.features.shape[0], -1, dtype=np.int32)
            for shard in self.shards:
                for node in shard.rfs.nodes.values():
                    if node.is_leaf:
                        table[node.item_ids] = shard.index
            table.setflags(write=False)
            self._item_shard = table
        return self._item_shard[ids]

    # -- overridden structure surface ----------------------------------
    @property
    def store(self) -> None:
        """The router holds no store; each shard structure has its own."""
        return None

    def attach_store(self, store, *, validate: bool = True) -> None:
        raise ConfigurationError(
            "a ShardedRFS has no global store; build per-shard stores "
            "via ShardedEngine.build(store=...)"
        )

    def _vectors_main(self, ids: np.ndarray) -> np.ndarray:
        """Gather main-generation rows from the owning shards' stores.

        Routes each id to its owning shard's store so the gathered
        values (and dtype) are bit-identical to a single-node store's
        gather — the centroids derived from marked images must not
        depend on the deployment shape.  Delta-segment ids never reach
        this hook: the inherited :meth:`vectors_for` resolves them from
        the router's segment first.
        """
        ids = np.asarray(ids, dtype=np.int64)
        owners = self._shard_of_items(ids)
        first = self.shards[0].rfs.store
        out = np.empty((ids.shape[0], first.dims), dtype=first.dtype)
        for shard in self.shards:
            mask = owners == shard.index
            if mask.any():
                out[mask] = shard.rfs.store.vectors_for(ids[mask])
        return out

    def invalidate_cache_nodes(self, node_ids: Sequence[int]) -> int:
        """Per-node eviction, broadcast to every shard cache.

        Shard caches key their entries on the *global* node id (shard
        trees keep global ids), so the same root path addresses the
        affected entries in every shard — still no global flush.
        """
        dropped = super().invalidate_cache_nodes(node_ids)
        for shard in self.shards:
            if shard.cache is not None:
                dropped += shard.cache.invalidate_nodes(node_ids)
        return dropped

    def localized_knn(
        self,
        node: RFSNode,
        query_point: np.ndarray,
        k: int,
        *,
        include_delta: bool = True,
    ) -> RankedList:
        """Scatter the scan to covering shards, gather by (dist, id).

        The covering shards are scanned one after another, in shard
        order, on the calling thread.  Shards own their blocks and
        charge the shared disk model themselves; the shard-level cache
        deduplicates repeated scans.

        With a delta segment attached, shards hold tombstone-only
        adapters — each filters dead rows out of its own blocks but
        never sees the live delta rows, which the router merges exactly
        once over the gathered candidates (a covering shard merging
        them too would duplicate every insert).  As in the single-node
        scan, ``include_delta=False`` returns the tombstone-filtered
        main-only ranking for the subquery cache.
        """
        if node.size == 0:
            raise EmptyIndexError(f"node {node.node_id} covers no images")
        query = np.asarray(query_point, dtype=np.float64)
        view = self.delta_view()
        if view is not None and not view.affects_scans:
            view = None
        main_live = node.size
        if view is not None and view.n_dead_main:
            dead = view.dead_under(
                self._leaf_ids_under(node), node.node_id
            )
            main_live = node.size - int(dead.shape[0])
        take = min(k, main_live)
        participants = (
            [shard for shard in self.shards if shard.covers(node.node_id)]
            if take > 0
            else []
        )
        with get_tracer().span(
            "sharded_knn",
            node=node.node_id,
            k=int(k),
            shards=len(participants),
        ) as span:
            partials = [
                shard.localized_knn(node.node_id, query, take)
                for shard in participants
            ]
            merged = (
                merge_ranked_lists(partials, take, dedupe=False)
                if take > 0
                else RankedList()
            )
            span.set(candidates=sum(len(r) for r in partials))
            if include_delta and view is not None and view.live_count:
                merged = self.merge_delta_ranked(
                    node, merged, query, k, view=view
                )
        if participants:
            get_metrics().counter(
                "qd_shard_scans_total",
                "per-shard localized scans dispatched by the router",
            ).inc(len(participants))
        return merged


def build_router(
    base: RFSStructure,
    n_shards: int,
    strategy: str,
    *,
    caches: Sequence[Optional["SubqueryResultCache"]],
) -> ShardedRFS:
    """Deal ``base``'s leaves over ``n_shards`` shards behind a router.

    Partitions the DFS leaf order with ``strategy``, builds each
    shard's pruned tree and in-RAM store, and gives shard
    ``i`` the cache ``caches[i]``.  Every shard keeps ``base``'s
    structure version (resume parity needs the global version
    everywhere), so set it on ``base`` before the call.
    """
    assignment = partition_leaves(dfs_leaves(base.root), n_shards, strategy)
    shard_objs: List[Shard] = []
    for index, leaf_ids in enumerate(assignment.shards):
        shard_rfs = build_shard_structure(base, leaf_ids)
        shard_rfs.attach_store(
            FeatureStore.build(shard_rfs), validate=False
        )
        shard_rfs.structure_version = base.structure_version
        shard_objs.append(Shard(index, shard_rfs, caches[index]))
    return ShardedRFS(base, shard_objs, assignment=assignment)


class ShardedEngine(QueryDecompositionEngine):
    """A :class:`QueryDecompositionEngine` over a sharded deployment.

    Inherits the whole session lifecycle (scripted runs, session
    stores, checkpoint/resume) — the only
    difference is that ``self.rfs`` is a :class:`ShardedRFS`, so every
    localized scan scatter-gathers across shards.
    """

    @classmethod
    def build(  # type: ignore[override]
        cls,
        database: "ImageDatabase",
        rfs_config: Optional[RFSConfig] = None,
        qd_config: Optional[QDConfig] = None,
        *,
        shards: int = 2,
        partition: str = "contiguous",
        seed: RandomState = None,
        io: Optional[DiskAccessCounter] = None,
        store: str = "inmem",
        cache: Optional[CacheConfig] = None,
        mutations: Optional[MutationConfig] = None,
        progress: Optional["ProgressCallback"] = None,
    ) -> "ShardedEngine":
        """Build the global tree, partition it, and wrap the router.

        The global tree build is identical to the single-node one
        (same seed ⇒ same tree), then its leaves are dealt across
        ``shards`` pruned copies.  Each shard gets its own in-RAM
        leaf-contiguous store (``"inmem"`` is the only ``store`` kind a
        build can create); ``cache`` likewise sizes one result cache
        per shard (each holding that shard's scans).
        """
        base = RFSStructure.build(
            database.features,
            rfs_config,
            seed=seed,
            io=io,
            progress=progress,
        )
        if store != "inmem":
            raise ConfigurationError(
                "build() can only create 'inmem' shard stores; got "
                f"{store!r}"
            )
        caches: List[Optional["SubqueryResultCache"]] = [None] * shards
        if cache is not None and cache.enabled:
            from repro.cache import SubqueryResultCache

            caches = [
                SubqueryResultCache(cache.capacity_bytes)
                for _ in range(shards)
            ]
        router = build_router(base, shards, partition, caches=caches)
        engine = cls(database, router, qd_config)
        if mutations is not None:
            engine.enable_mutations(
                mutations, seed=seed if isinstance(seed, int) else 0
            )
        return engine

    @property
    def sharded_rfs(self) -> ShardedRFS:
        assert isinstance(self.rfs, ShardedRFS)
        return self.rfs

    @property
    def shards(self) -> List[Shard]:
        return self.sharded_rfs.shards

    @property
    def n_shards(self) -> int:
        return self.sharded_rfs.n_shards
