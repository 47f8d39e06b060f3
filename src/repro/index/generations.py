"""Generational index mutations: delta segment + compaction.

The index's one write path.  Mutating the tree in place would break
the store's contiguous leaf layout and flush every cached subquery,
per mutation; this generational scheme is built for sustained mixed
read/write traffic instead:

* **Writes land in a delta segment** (:class:`repro.store.delta.
  DeltaSegment`): an insert routes the vector down the current tree
  (nearest child centre), appends the row tagged with that leaf, and
  touches nothing else; a remove tombstones the row.  The main tree,
  its store blocks, and the leaf geometry stay byte-identical.
* **Reads stay exact**: final-round scans traverse the delta alongside
  the main store through a brute-force delta kernel
  (:meth:`~repro.index.rfs.RFSStructure.merge_delta_ranked`), so
  rankings are bit-identical to a from-scratch rebuild containing the
  same items.  Scans never lock — each takes one immutable view
  snapshot.
* **Cache invalidation is per-node**: cached subqueries hold main-only
  rankings and the delta merge happens after the cache consult, so an
  insert invalidates *nothing*; a removal evicts exactly the entries
  whose search node lies on the mutated leaf's root path
  (:meth:`~repro.cache.result_cache.SubqueryResultCache.
  invalidate_nodes`).  No global flush, no store detach.
* **Compaction is a write**: it re-bulk-loads delta+main into a new
  generation (a serial build, as :meth:`RFSStructure.build` runs by
  default), rebuilds the store, carries the shared result cache (one
  version bump retires old entries lazily), and swaps the generation
  in — all under the one write lock every insert and remove takes.
  The write that brings the delta to ``compact_threshold`` compacts
  before it releases that lock, so a write issued mid-compaction waits
  for the swap and lands in the new generation's delta; nothing lands
  between snapshot and swap.  Scans keep reading the old generation
  until the swap.
* **Sessions pin a generation**: a session holds its structure object,
  so in-flight rounds finish against the generation they started on;
  checkpointed sessions resume through the retired-generation map
  until it overflows :data:`MAX_RETIRED` (then the existing staleness
  fencing rejects them, exactly as before).

Image ids are stable across generations by construction: a compacted
structure's feature matrix is ``vstack(old features, delta rows)`` with
tombstoned rows left allocated (dead slots), so row index == image id
always — sessions keep querying by the same ids across swaps.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, List, Optional

import numpy as np

from repro.config import MutationConfig
from repro.errors import ConfigurationError, QueryError
from repro.index.rfs import RFSNode, RFSStructure
from repro.obs import get_metrics, get_tracer
from repro.store import FeatureStore
from repro.store.delta import DeltaSegment

#: How many retired generations stay addressable for sessions pinned to
#: an older ``structure_version``.  Oldest entries are dropped beyond
#: this (their sessions then fail staleness fencing, exactly like before
#: generations existed).
MAX_RETIRED = 4


def generation_seed(seed: int, generation: int) -> int:
    """Deterministic build seed of ``generation`` (pure function).

    Every generation derives its seed from the controller's base seed
    and the generation ordinal only — so a from-scratch rebuild at the
    same ordinal produces the *same* tree, which is what lets the
    parity gate compare a compacted structure against an independent
    rebuild bit for bit.
    """
    return (int(seed) * 1_000_003 + int(generation)) & 0x7FFFFFFF


def route_leaf(rfs: RFSStructure, vector: np.ndarray) -> RFSNode:
    """The leaf a new vector routes to: nearest-child-centre descent.

    A delta insert is visible to exactly the subtrees on the routed
    leaf's root path.
    """
    vec = np.asarray(vector, dtype=np.float64)
    node = rfs.root
    while not node.is_leaf:
        centres = np.vstack([c.center for c in node.children])
        node = node.children[
            int(np.argmin(np.linalg.norm(centres - vec, axis=1)))
        ]
    return node


class GenerationController:
    """Owns the mutable side of a generational index deployment.

    Wraps the serving :class:`~repro.index.rfs.RFSStructure` (or a
    ``ShardedRFS`` router), attaches a delta segment to it, and runs
    every mutation and every compaction under one re-entrant write
    lock (scans take none: they read immutable delta views).  ``current``
    is the serving generation; ``retired`` maps the structure versions of
    swapped-out generations to their (frozen) structures so pinned
    sessions can still resume.  ``on_swap`` callbacks fire after every
    generation swap with the new structure (the engine uses one to
    repoint ``engine.rfs``).
    """

    def __init__(
        self,
        rfs: RFSStructure,
        *,
        config: Optional[MutationConfig] = None,
        seed: int = 0,
    ) -> None:
        self.config = config or MutationConfig()
        self.seed = int(seed)
        # Re-entrant: the write that reaches the threshold compacts
        # while it still holds the lock.
        self._write_lock = threading.RLock()
        self.generation = 0
        self.current = rfs
        self.retired: "OrderedDict[int, RFSStructure]" = OrderedDict()
        self.on_swap: List[Callable[[RFSStructure], None]] = []
        if rfs.delta is None:
            self._attach_segment(rfs)

    # -- wiring ---------------------------------------------------------
    @staticmethod
    def _attach_segment(rfs: RFSStructure) -> None:
        """Attach a fresh segment; shards get tombstone-only adapters.

        Shard trees must see the tombstones (they filter dead rows out
        of their own blocks) but *not* the live delta rows — the router
        merges those exactly once over the gathered results; a covering
        shard merging them too would duplicate every insert.
        """
        segment = DeltaSegment(
            base_rows=rfs.features.shape[0], dims=rfs.features.shape[1]
        )
        rfs.attach_delta(segment)
        for shard in getattr(rfs, "shards", []) or []:
            shard.rfs.attach_delta(segment.tombstones_only())

    @property
    def delta_size(self) -> int:
        """Appended delta rows + main tombstones (compaction pressure)."""
        view = self.current.delta_view()
        if view is None:
            return 0
        return view.n_delta + view.n_dead_main

    @property
    def n_items(self) -> int:
        """Live items in the serving generation."""
        return self.current.effective_node_size(self.current.root)

    def structure_for_version(
        self, version: int
    ) -> Optional[RFSStructure]:
        """The generation serving ``version`` (current or retired)."""
        if version == self.current.structure_version:
            return self.current
        return self.retired.get(version)

    # -- mutations ------------------------------------------------------
    def insert(self, vector: np.ndarray) -> int:
        """Insert one feature row; returns its (stable) image id.

        O(tree depth) routing plus one copy-on-write view publish.  No
        cache entry is invalidated: cached subqueries are main-only and
        the new row is merged after the cache consult.  A row of the
        wrong length, or holding NaN or ±inf, raises
        :class:`~repro.errors.QueryError` before the delta is touched —
        the rule the build applies to every row, so no acknowledged
        write can make a later compaction fail.
        """
        vec = np.asarray(vector, dtype=np.float64).reshape(-1)
        dims = self.current.features.shape[1]
        if vec.shape[0] != dims:
            raise QueryError(
                f"vector must have {dims} dims, got {vec.shape[0]}"
            )
        if not np.isfinite(vec).all():
            raise QueryError("vector contains non-finite values")
        with self._write_lock:
            rfs = self.current
            leaf = route_leaf(rfs, vec)
            new_id = rfs.delta.insert(vec, leaf.node_id)
            self._maybe_compact()
        get_metrics().counter(
            "qd_mutations_total",
            "index mutations applied",
            labels={"op": "insert"},
        ).inc()
        return new_id

    def remove(self, image_id: int) -> None:
        """Remove one image by id (main row or earlier delta insert).

        A main-row removal evicts exactly the cached subqueries whose
        search node lies on the leaf's root path; a delta-row removal
        evicts nothing (the merge reads a fresh view).  Raises
        :class:`~repro.errors.NodeNotFoundError` when the id is not
        live and :class:`~repro.errors.QueryError` when it is not an
        integer (``1.7`` is refused, not read as image 1).
        """
        if isinstance(image_id, bool) or not isinstance(
            image_id, (int, np.integer)
        ):
            raise QueryError(f"image_id must be an integer, got {image_id!r}")
        item = int(image_id)
        with self._write_lock:
            rfs = self.current
            view = rfs.delta.view
            if item >= view.base_rows:
                rfs.delta.remove_delta(item)
                invalidated = 0
            else:
                leaf = rfs.leaf_of_item(item)
                rfs.delta.remove_main(item, leaf.node_id)
                path: List[int] = []
                node: Optional[RFSNode] = leaf
                while node is not None:
                    path.append(node.node_id)
                    node = node.parent
                invalidated = rfs.invalidate_cache_nodes(path)
            self._maybe_compact()
        metrics = get_metrics()
        metrics.counter(
            "qd_mutations_total",
            "index mutations applied",
            labels={"op": "remove"},
        ).inc()
        if invalidated:
            metrics.counter(
                "qd_mutation_invalidated_entries",
                "cache entries evicted by per-node invalidation",
            ).inc(invalidated)

    # -- compaction -----------------------------------------------------
    def _maybe_compact(self) -> None:
        """Compact once the delta reaches the threshold (lock held)."""
        if self.delta_size >= self.config.compact_threshold:
            self.compact()

    def compact(self) -> Optional[int]:
        """Re-bulk-load delta+main into a new generation and swap it in.

        Returns the new generation's structure version, or ``None``
        when there was nothing to compact.  A write like insert and
        remove: the write lock is held from snapshot through build to
        swap, so a mutation issued meanwhile waits and then lands in
        the new generation's delta.  Scans take no lock and read the
        old generation until the swap.
        """
        with self._write_lock:
            old = self.current
            snapshot = old.delta_view()
            if snapshot is None or (
                snapshot.n_delta == 0 and snapshot.n_dead_main == 0
            ):
                return None
            gen = self.generation + 1
            with get_tracer().span(
                "compaction",
                generation=gen,
                delta_rows=snapshot.n_delta,
                tombstones=snapshot.n_dead_main,
            ) as span:
                built = self._build_generation(old, snapshot, gen)
                self._swap(old, built, gen)
                span.set(new_version=built.structure_version)
            metrics = get_metrics()
            metrics.counter(
                "qd_compactions_total", "generation compactions completed"
            ).inc()
            metrics.gauge(
                "qd_generation", "current index generation ordinal"
            ).set(float(gen))
            metrics.gauge(
                "qd_retired_generations",
                "retired generations kept for pinned sessions",
            ).set(float(len(self.retired)))
            return built.structure_version

    def _live_ids(self, old: RFSStructure, snapshot) -> np.ndarray:
        """Sorted live image ids: surviving main rows, then live delta.

        Sorted by construction (main ids < ``base_rows`` <= delta ids),
        which keeps remapped ``item_ids`` arrays sorted and the DFS
        store layout deterministic.
        """
        live_main = np.setdiff1d(
            old.root.item_ids, snapshot.dead_main, assume_unique=True
        )
        live_delta = snapshot.base_rows + snapshot.live_indices
        return np.concatenate([live_main, live_delta]).astype(np.int64)

    @staticmethod
    def _remap(built: RFSStructure, live_ids: np.ndarray) -> None:
        """Rewrite the freshly built tree's row indices to global ids.

        The build ran over the dense ``features[live_ids]`` matrix, so
        every ``item_ids`` entry is a position into ``live_ids``; the
        gather restores the stable global id.  Centres and MBRs need no
        touch-up — they were computed from the same vectors.
        """
        for node in built.iter_nodes():
            node.item_ids = live_ids[node.item_ids]
            node.representatives = [
                int(live_ids[r]) for r in node.representatives
            ]
            node.rep_child_index = {
                int(live_ids[r]): idx
                for r, idx in node.rep_child_index.items()
            }

    def _build_generation(
        self, old: RFSStructure, snapshot, gen: int
    ) -> RFSStructure:
        """Build generation ``gen`` from ``old`` plus its delta snapshot."""
        if snapshot.n_delta:
            full = np.vstack([old.features, snapshot.rows])
        else:
            full = old.features
        live_ids = self._live_ids(old, snapshot)
        if live_ids.size == 0:
            raise ConfigurationError(
                "cannot compact an index with zero live items"
            )
        base = RFSStructure.build(
            full[live_ids],
            old.config,
            seed=generation_seed(self.seed, gen),
            io=old.io,
        )
        self._remap(base, live_ids)
        base.features = full
        base._leaf_lookup = None  # maps pre-remap ids; rebuild lazily
        base.structure_version = old.structure_version + 1
        if getattr(old, "shards", None):
            from repro.shard.engine import build_router

            # Same deployment shape: strategy and the shard caches
            # carry over (old-version entries drop lazily on lookup).
            n_leaves = sum(node.is_leaf for node in base.nodes.values())
            built = build_router(
                base,
                min(len(old.shards), n_leaves),
                old.assignment.strategy,
                caches=[shard.cache for shard in old.shards],
            )
        else:
            built = base
            built.attach_store(FeatureStore.build(built), validate=False)
            if old.result_cache is not None:
                # Same cache object: surviving traffic keeps its LRU
                # heat; old-version entries are dropped lazily on
                # lookup (reason "version") — no flush.
                built.attach_cache(old.result_cache)
        built.structure_version = old.structure_version + 1
        built.build_meta["generation"] = gen
        built.build_meta["generation_seed"] = generation_seed(
            self.seed, gen
        )
        self._attach_segment(built)
        return built

    def _swap(
        self, old: RFSStructure, built: RFSStructure, gen: int
    ) -> None:
        """Publish ``built`` and retire ``old`` (write lock held).

        No write landed since the snapshot, so the new segment starts
        empty at ``base_rows = old base + snapshot rows``: the next
        insert gets the id it would have got in the old generation.
        """
        self.retired[old.structure_version] = old
        while len(self.retired) > MAX_RETIRED:
            self.retired.popitem(last=False)
        self.current = built
        self.generation = gen
        for callback in self.on_swap:
            callback(built)

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Release retired generations' resources."""
        for rfs in self.retired.values():
            store = rfs.store
            if store is not None and store.kind == "memmap":
                rfs.detach_store()
                store.close()
        self.retired.clear()


__all__ = [
    "MAX_RETIRED",
    "GenerationController",
    "generation_seed",
    "route_leaf",
]
