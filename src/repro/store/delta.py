"""Append-only delta segment backing generational index mutations.

The generational mutation engine (:mod:`repro.index.generations`) never
edits the main RFS tree or its leaf-contiguous store in place.  Writes
land here instead:

* an **insert** appends the new feature row to the segment, tagged with
  the main-tree leaf it was routed to (nearest-child-centre descent at
  insert time), and
* a **remove** either tombstones a main-tree id (recorded with the leaf
  whose block holds it) or flips a previously inserted delta row dead.

Readers never lock.  Every mutation builds a fresh immutable
:class:`DeltaView` — new arrays, never edited in place — and publishes
it with one reference assignment, so a localized scan that grabbed the
previous view keeps a fully consistent snapshot for its whole traversal
(no torn scans), while the next scan picks up the new one.  The arrays
a view shares with its successors are append-only prefixes, so views
stay valid forever; retired generations keep their final view and serve
pinned sessions unchanged.

Delta rows are RAM-resident by design — the segment is small (a
compaction re-bulk-loads it into the next generation long before it
grows), so delta scans charge no simulated disk I/O; only the main
store's block reads go through the disk model.

Visibility rule: a delta row is visible to a search node exactly when
its routed leaf lies under that node, and a tombstone subtracts from
exactly the nodes above its leaf.  That makes
``effective size = size − dead under + live delta under`` exact at
every node, which the scan take/merge logic in
:meth:`repro.index.rfs.RFSStructure.localized_knn` relies on.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

import numpy as np

from repro.errors import ConfigurationError, NodeNotFoundError
from repro.obs import get_metrics


class DeltaView:
    """One immutable snapshot of the delta segment.

    ``rows``/``leaves``/``live`` are aligned over every delta row ever
    appended (dead rows keep their slot so global ids stay stable:
    delta row ``i`` is image id ``base_rows + i``).  ``dead_main`` is
    the sorted tombstone set over main-tree ids, aligned with
    ``dead_main_leaves`` (the leaf whose block holds each tombstoned
    row).
    """

    __slots__ = (
        "base_rows",
        "rows",
        "leaves",
        "live",
        "dead_main",
        "dead_main_leaves",
        "epoch",
        "_live_idx",
        "_kernel_rows",
        "_live_sel",
        "_dead_sel",
    )

    def __init__(
        self,
        base_rows: int,
        rows: np.ndarray,
        leaves: np.ndarray,
        live: np.ndarray,
        dead_main: np.ndarray,
        dead_main_leaves: np.ndarray,
        epoch: int,
    ) -> None:
        self.base_rows = int(base_rows)
        self.rows = rows
        self.leaves = leaves
        self.live = live
        self.dead_main = dead_main
        self.dead_main_leaves = dead_main_leaves
        self.epoch = int(epoch)
        self._live_idx: Optional[np.ndarray] = None
        self._kernel_rows: Optional[np.ndarray] = None
        self._live_sel: Dict[int, np.ndarray] = {}
        self._dead_sel: Dict[int, np.ndarray] = {}

    # -- shape -----------------------------------------------------------
    @property
    def n_delta(self) -> int:
        """Delta rows ever appended (live and dead)."""
        return int(self.rows.shape[0])

    @property
    def live_count(self) -> int:
        """Live (insert-visible) delta rows."""
        return int(self.live_indices.shape[0])

    @property
    def n_dead_main(self) -> int:
        """Tombstoned main-tree ids."""
        return int(self.dead_main.shape[0])

    @property
    def affects_scans(self) -> bool:
        """Whether any scan must consult this view at all."""
        return self.live_count > 0 or self.n_dead_main > 0

    @property
    def live_indices(self) -> np.ndarray:
        """Indices of the live delta rows (cached)."""
        if self._live_idx is None:
            self._live_idx = np.flatnonzero(self.live)
        return self._live_idx

    def live_ids(self) -> np.ndarray:
        """Global image ids of the live delta rows."""
        return self.base_rows + self.live_indices

    # -- per-node visibility --------------------------------------------
    def live_under(
        self, leaf_ids: np.ndarray, key: Optional[int] = None
    ) -> np.ndarray:
        """Indices (into ``rows``) of live rows routed under ``leaf_ids``.

        ``key`` (a search-node id) memoizes the selection on this
        immutable view — final rounds consult the same few nodes per
        subquery, so repeated scans skip the ``isin`` entirely.
        """
        if key is not None:
            sel = self._live_sel.get(key)
            if sel is not None:
                return sel
        idx = self.live_indices
        if idx.size:
            idx = idx[np.isin(self.leaves[idx], leaf_ids)]
        if key is not None:
            self._live_sel[key] = idx
        return idx

    def dead_under(
        self, leaf_ids: np.ndarray, key: Optional[int] = None
    ) -> np.ndarray:
        """Tombstoned main ids whose leaf lies in ``leaf_ids``.

        ``key`` memoizes per search node, like :meth:`live_under`.
        """
        if key is not None:
            sel = self._dead_sel.get(key)
            if sel is not None:
                return sel
        dead = self.dead_main
        if dead.size:
            dead = dead[np.isin(self.dead_main_leaves, leaf_ids)]
        if key is not None:
            self._dead_sel[key] = dead
        return dead

    # -- row access ------------------------------------------------------
    def kernel_rows(self) -> np.ndarray:
        """All delta rows as float32.

        Cached on the (immutable) view, so repeated scans pay the cast
        once.  The cast matches what
        :meth:`repro.store.feature_store.FeatureStore.build` does to the
        same float64 rows — bit-identical stored values — so the delta
        kernel's inputs (and the gathered query points) equal what a
        rebuilt store would hold.
        """
        if self._kernel_rows is None:
            self._kernel_rows = np.ascontiguousarray(
                self.rows, dtype=np.float32
            )
        return self._kernel_rows

    def leaf_of_delta(self, image_id: int) -> int:
        """Routed main-tree leaf of a delta id (live or dead)."""
        idx = int(image_id) - self.base_rows
        if not 0 <= idx < self.n_delta:
            raise NodeNotFoundError(
                f"item {image_id} not present in the delta segment"
            )
        return int(self.leaves[idx])


def _empty_view(base_rows: int, dims: int, epoch: int = 0) -> DeltaView:
    return DeltaView(
        base_rows=base_rows,
        rows=np.empty((0, dims), dtype=np.float64),
        leaves=np.empty(0, dtype=np.int64),
        live=np.empty(0, dtype=bool),
        dead_main=np.empty(0, dtype=np.int64),
        dead_main_leaves=np.empty(0, dtype=np.int64),
        epoch=epoch,
    )


class DeltaSegment:
    """The mutable writer side over copy-on-write :class:`DeltaView`\\ s.

    Writers (mutations come through the generation controller, under
    its write lock) serialize on an internal lock as well; each
    mutation materialises a new view and swaps the reference
    atomically.  Readers call :attr:`view` once per scan and keep that
    snapshot.
    """

    def __init__(self, base_rows: int, dims: int) -> None:
        if base_rows < 0 or dims <= 0:
            raise ConfigurationError(
                f"delta segment needs base_rows >= 0 and dims > 0, got "
                f"{base_rows}/{dims}"
            )
        self.base_rows = int(base_rows)
        self.dims = int(dims)
        self._lock = threading.Lock()
        self._view = _empty_view(self.base_rows, self.dims)

    @property
    def view(self) -> DeltaView:
        """The current immutable snapshot (atomic reference read)."""
        return self._view

    def _publish(self, view: DeltaView) -> None:
        self._view = view
        metrics = get_metrics()
        metrics.gauge(
            "qd_delta_rows", "delta-segment rows (live inserts)"
        ).set(float(view.live_count))
        metrics.gauge(
            "qd_delta_tombstones", "delta-segment main-row tombstones"
        ).set(float(view.n_dead_main))

    # -- mutations -------------------------------------------------------
    def insert(self, vector: np.ndarray, leaf_id: int) -> int:
        """Append one routed feature row; returns its global image id."""
        row = np.asarray(vector, dtype=np.float64).reshape(1, -1)
        if row.shape[1] != self.dims:
            raise ConfigurationError(
                f"insert vector has {row.shape[1]} dims, segment holds "
                f"{self.dims}"
            )
        with self._lock:
            old = self._view
            new_id = self.base_rows + old.n_delta
            self._publish(
                DeltaView(
                    base_rows=self.base_rows,
                    rows=np.concatenate([old.rows, row]),
                    leaves=np.concatenate(
                        [old.leaves, np.array([leaf_id], dtype=np.int64)]
                    ),
                    live=np.concatenate([old.live, np.array([True])]),
                    dead_main=old.dead_main,
                    dead_main_leaves=old.dead_main_leaves,
                    epoch=old.epoch + 1,
                )
            )
        return new_id

    def remove_delta(self, image_id: int) -> int:
        """Tombstone a previously inserted delta row; returns its leaf."""
        with self._lock:
            old = self._view
            idx = int(image_id) - self.base_rows
            if not 0 <= idx < old.n_delta or not bool(old.live[idx]):
                raise NodeNotFoundError(
                    f"item {image_id} not present in the structure"
                )
            live = old.live.copy()
            live[idx] = False
            self._publish(
                DeltaView(
                    base_rows=self.base_rows,
                    rows=old.rows,
                    leaves=old.leaves,
                    live=live,
                    dead_main=old.dead_main,
                    dead_main_leaves=old.dead_main_leaves,
                    epoch=old.epoch + 1,
                )
            )
            return int(old.leaves[idx])

    def remove_main(self, image_id: int, leaf_id: int) -> None:
        """Tombstone a main-tree row (recorded with its leaf)."""
        item = int(image_id)
        with self._lock:
            old = self._view
            pos = int(np.searchsorted(old.dead_main, item))
            if pos < old.dead_main.size and old.dead_main[pos] == item:
                raise NodeNotFoundError(
                    f"item {image_id} not present in the structure"
                )
            self._publish(
                DeltaView(
                    base_rows=self.base_rows,
                    rows=old.rows,
                    leaves=old.leaves,
                    live=old.live,
                    dead_main=np.insert(old.dead_main, pos, item),
                    dead_main_leaves=np.insert(
                        old.dead_main_leaves, pos, int(leaf_id)
                    ),
                    epoch=old.epoch + 1,
                )
            )

    def tombstones_only(self) -> "TombstoneSegment":
        """A read adapter exposing tombstones but no live delta rows.

        Shard-local structures scan through this: each shard filters
        the dead rows out of its own blocks, while the router merges
        the live delta rows exactly once over the gathered results —
        otherwise every covering shard would re-merge the same insert.
        """
        return TombstoneSegment(self)


class TombstoneSegment:
    """Read-only view adapter hiding live delta rows (see above)."""

    def __init__(self, parent: DeltaSegment) -> None:
        self._parent = parent
        self._src: Optional[DeltaView] = None
        self._derived: Optional[DeltaView] = None

    @property
    def base_rows(self) -> int:
        return self._parent.base_rows

    @property
    def view(self) -> DeltaView:
        src = self._parent.view
        if src is not self._src:
            derived = DeltaView(
                base_rows=src.base_rows,
                rows=src.rows,
                leaves=src.leaves,
                live=np.zeros(src.n_delta, dtype=bool),
                dead_main=src.dead_main,
                dead_main_leaves=src.dead_main_leaves,
                epoch=src.epoch,
            )
            self._src = src
            self._derived = derived
        return self._derived
