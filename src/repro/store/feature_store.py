"""The leaf-contiguous feature store.

A :class:`FeatureStore` is a permuted copy of the database feature
matrix in which every RFS node's member vectors form one contiguous
block.  Leaves are laid out in tree (depth-first) order; since every
internal node's member set is the concatenation of its children's, the
contiguity property holds at *every* level — one ``(start, stop)`` span
per node is enough to serve any subtree as a single slice.

Two backings share the exact same bytes and code paths:

``inmem``
    The permuted matrix lives in RAM (built from the RFS, or loaded
    from a saved store directory).
``memmap``
    The matrix is an ``np.memmap`` over ``features.bin`` opened
    read-only; the OS page cache shares the mapping across every
    process that opens it — zero copies.

Because both backings hold identical bytes and the same kernels consume
them, rankings are bit-identical between the two (the store parity
tests assert this).

Rows are always float32, and every leaf scan reads them exactly: one
:func:`~repro.store.kernels.point_distances` call per block.

Disk layout of a saved store directory::

    <dir>/features.bin   raw C-order float32 bytes (np.memmap target)
    <dir>/meta.npz       permutation maps, node spans, shape, dtype tag
                         (always "float32"), tier tag (always "f32")

``open`` refuses a ``dtype`` tag other than ``float32`` and a tier tag
other than ``f32`` before mapping anything: the bytes would otherwise
be reinterpreted as some other number format.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterator, Optional, Tuple

import numpy as np

from repro.errors import (
    ConfigurationError,
    DatasetError,
    NodeNotFoundError,
    StoreCodecError,
)
from repro.obs import get_metrics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.index.rfs import RFSNode, RFSStructure

#: Version 2 added the tier tag to ``meta.npz``.  Version-1 directories
#: still open, and so do version-2 ones that carry the row norms older
#: builds persisted (the entry is ignored: no kernel reads norms).
STORE_FORMAT_VERSION = 2

#: The one number format of the rows (the ``dtype`` tag in
#: ``meta.npz``).
_ROW_DTYPE = np.dtype(np.float32)

#: The one tier tag a version-2 ``meta.npz`` carries: scans read the
#: exact rows.  Stores of other tiers are refused by name.
_TIER_TAG = "f32"

_FEATURES_FILE = "features.bin"
_META_FILE = "meta.npz"


def _dfs_leaves(node: "RFSNode") -> Iterator["RFSNode"]:
    """Leaves of a subtree in depth-first order (the layout order)."""
    if not node.children:
        yield node
        return
    for child in node.children:
        yield from _dfs_leaves(child)


class FeatureStore:
    """Leaf-contiguous permuted feature matrix with per-node spans.

    Parameters
    ----------
    matrix:
        (n, d) permuted float32 feature matrix (read-only,
        C-contiguous).
    id_of_row:
        (n,) image id stored at each row.
    row_of_id:
        (n,) row index holding each image id (inverse permutation).
    spans:
        ``node_id -> (start, stop)`` row span of every RFS node.
    kind:
        ``"inmem"`` or ``"memmap"``.
    path:
        Directory the store was opened from; ``None`` for never-saved
        in-RAM stores.
    """

    def __init__(
        self,
        matrix: np.ndarray,
        id_of_row: np.ndarray,
        row_of_id: np.ndarray,
        spans: Dict[int, Tuple[int, int]],
        *,
        kind: str = "inmem",
        path: Optional[Path] = None,
    ) -> None:
        if matrix.dtype != _ROW_DTYPE:
            raise StoreCodecError(
                f"store rows must be {_ROW_DTYPE.name}, got "
                f"{matrix.dtype.name}"
            )
        self.matrix = matrix
        self.id_of_row = id_of_row
        self.row_of_id = row_of_id
        self.spans = spans
        self.kind = kind
        self.path = Path(path) if path is not None else None
        self.stats: Dict[str, int] = {
            "block_reads": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "bytes_read": 0,
        }
        # stats increments are read-modify-write; concurrent requests
        # scan blocks at once, so they must be serialized.
        self._stats_lock = threading.Lock()
        get_metrics().gauge(
            "qd_store_bytes_mapped", "bytes of feature data backing the store"
        ).set(float(matrix.nbytes))

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, rfs: "RFSStructure") -> "FeatureStore":
        """Build a float32 store from a built RFS structure.

        Walks the leaves in depth-first order, concatenates their member
        ids into the row permutation, and registers one contiguous span
        per node (leaves *and* internal nodes — DFS order makes every
        subtree contiguous).
        """
        leaves = list(_dfs_leaves(rfs.root))
        id_of_row = np.concatenate(
            [leaf.item_ids for leaf in leaves]
        ).astype(np.int64, copy=False)
        n = id_of_row.shape[0]
        if n != rfs.root.size:
            raise DatasetError(
                f"leaf layout covers {n} rows but the root claims "
                f"{rfs.root.size} images"
            )
        # Sized by the largest id, not the row count: a shard store
        # (repro.shard) holds a sparse subset of the global id space.
        # For a full-database store ids are a permutation of 0..n-1, so
        # this is the same dense table as before; foreign ids map to -1.
        table_size = int(id_of_row.max()) + 1 if n else 0
        row_of_id = np.full(table_size, -1, dtype=np.int64)
        row_of_id[id_of_row] = np.arange(n, dtype=np.int64)
        spans: Dict[int, Tuple[int, int]] = {}
        for node in rfs.iter_nodes():
            rows = row_of_id[node.item_ids]
            start = int(rows.min())
            stop = int(rows.max()) + 1
            if stop - start != node.size:
                raise DatasetError(
                    f"node {node.node_id} is not contiguous under the "
                    f"leaf layout ({stop - start} rows for {node.size} "
                    "members)"
                )
            spans[node.node_id] = (start, stop)
        matrix = np.ascontiguousarray(
            rfs.features[id_of_row], dtype=_ROW_DTYPE
        )
        matrix.setflags(write=False)
        id_of_row.setflags(write=False)
        row_of_id.setflags(write=False)
        return cls(matrix, id_of_row, row_of_id, spans, kind="inmem")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        """Number of stored vectors."""
        return int(self.matrix.shape[0])

    @property
    def dims(self) -> int:
        """Feature dimensionality."""
        return int(self.matrix.shape[1])

    @property
    def dtype(self) -> np.dtype:
        """Storage dtype of the matrix (always float32)."""
        return self.matrix.dtype

    @property
    def nbytes(self) -> int:
        """Bytes of feature data backing the store."""
        return int(self.matrix.nbytes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FeatureStore(kind={self.kind!r}, shape="
            f"{self.matrix.shape}, dtype={self.dtype.name}, "
            f"nodes={len(self.spans)})"
        )

    # ------------------------------------------------------------------
    # Zero-copy access
    # ------------------------------------------------------------------
    def span_of(self, node_id: int) -> Tuple[int, int]:
        """The ``(start, stop)`` row span of a node."""
        try:
            return self.spans[node_id]
        except KeyError as exc:
            raise NodeNotFoundError(
                f"store holds no span for node {node_id}"
            ) from exc

    def node_block(self, node_id: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(vectors, ids)`` views of a node's block.

        Both are zero-copy slices of store-owned arrays (read-only; for
        a memmap store the vectors live in the page cache).  A leaf scan
        scores the vectors as they are, with
        :func:`~repro.store.kernels.point_distances`.
        """
        self._require_open()
        start, stop = self.span_of(node_id)
        return self.matrix[start:stop], self.id_of_row[start:stop]

    def scan_block(self, node_id: int) -> None:
        """Always refuses: leaf scans read :meth:`node_block`.

        It stays only because ``TARGETS`` in ``benchmarks/e2e/tracing.py``
        wraps it by name, and the e2e smoke run fails on the warning a
        missing target prints.
        """
        raise ConfigurationError(
            f"scan_block({node_id}): stores have no compressed scan "
            "tier; read node_block"
        )

    def block_nbytes(self, node_id: int) -> int:
        """Bytes a scan of this node's block reads."""
        start, stop = self.span_of(node_id)
        return (stop - start) * self.dims * _ROW_DTYPE.itemsize

    def vectors_for(self, ids: np.ndarray) -> np.ndarray:
        """Gather the vectors of arbitrary image ids (small copies)."""
        self._require_open()
        rows = self.row_of_id[np.asarray(ids, dtype=np.int64)]
        return self.matrix[rows]

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def record_block_access(self, node_id: int, physical: bool) -> None:
        """Account one block read against the store's cache counters.

        ``physical`` comes from the disk model
        (:meth:`repro.index.diskmodel.DiskAccessCounter.access` returns
        whether the page missed the buffer pool), so the store's
        hit/miss split mirrors the paged-I/O simulation.  Counter
        updates hold the stats lock — concurrent subquery workers would
        otherwise lose increments to read-modify-write races.
        """
        metrics = get_metrics()
        if physical:
            nbytes = self.block_nbytes(node_id)
            with self._stats_lock:
                self.stats["block_reads"] += 1
                self.stats["cache_misses"] += 1
                self.stats["bytes_read"] += nbytes
            metrics.counter(
                "qd_store_block_reads_total",
                "store block reads by buffer-pool outcome",
                labels={"outcome": "miss"},
            ).inc()
            metrics.counter(
                "qd_store_bytes_read",
                "feature bytes paged in by store block misses",
            ).inc(nbytes)
        else:
            with self._stats_lock:
                self.stats["block_reads"] += 1
                self.stats["cache_hits"] += 1
            metrics.counter(
                "qd_store_block_reads_total",
                "store block reads by buffer-pool outcome",
                labels={"outcome": "hit"},
            ).inc()

    def stats_snapshot(self) -> Dict[str, int]:
        """A consistent point-in-time copy of the access counters."""
        with self._stats_lock:
            return dict(self.stats)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the store's backing resources (idempotent).

        For a memmap store this closes the underlying file mapping so
        the OS file handle is returned; for an in-RAM store it drops the
        matrix reference.  Any later block or vector access raises
        :class:`~repro.errors.DatasetError`.  Outstanding NumPy views of
        a mapped block keep the mapping alive until they are collected
        (``mmap`` refuses to close exported buffers), in which case the
        handle is released when the last view dies.
        """
        mm = getattr(self.matrix, "_mmap", None)
        self.matrix = None
        if mm is not None:
            try:
                mm.close()
            except BufferError:  # pragma: no cover - live views
                pass

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has released the backing matrix."""
        return self.matrix is None

    def _require_open(self) -> None:
        if self.matrix is None:
            raise DatasetError(
                "feature store is closed; reopen it with "
                "FeatureStore.open before use"
            )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, directory: str | Path) -> Path:
        """Persist the store to ``directory`` (created if missing)."""
        target = Path(directory)
        target.mkdir(parents=True, exist_ok=True)
        np.ascontiguousarray(self.matrix).tofile(target / _FEATURES_FILE)
        node_ids = np.array(sorted(self.spans), dtype=np.int64)
        starts = np.array(
            [self.spans[int(i)][0] for i in node_ids], dtype=np.int64
        )
        stops = np.array(
            [self.spans[int(i)][1] for i in node_ids], dtype=np.int64
        )
        np.savez_compressed(
            target / _META_FILE,
            format_version=np.int64(STORE_FORMAT_VERSION),
            shape=np.array(self.matrix.shape, dtype=np.int64),
            dtype=np.array(_ROW_DTYPE.name),
            tier=np.array(_TIER_TAG),
            id_of_row=self.id_of_row,
            row_of_id=self.row_of_id,
            span_node_ids=node_ids,
            span_starts=starts,
            span_stops=stops,
        )
        self.path = target
        return target

    @classmethod
    def open(
        cls, directory: str | Path, *, mode: str = "memmap"
    ) -> "FeatureStore":
        """Open a saved store; ``mode`` is ``"memmap"`` or ``"inmem"``.

        ``memmap`` maps ``features.bin`` read-only (cold start: nothing
        is read until a block is touched); ``inmem`` reads the same
        bytes fully into RAM.  Either way the matrix holds identical
        bits, so rankings cannot differ between the two modes.

        A ``dtype`` tag other than ``float32`` or a tier tag other than
        ``f32`` raises :class:`~repro.errors.StoreCodecError` naming the
        tag before any file is mapped.
        """
        if mode not in ("memmap", "inmem"):
            raise ConfigurationError(
                f"store mode must be 'memmap' or 'inmem', got {mode!r}"
            )
        source = Path(directory)
        meta_path = source / _META_FILE
        bin_path = source / _FEATURES_FILE
        if not meta_path.exists() or not bin_path.exists():
            raise DatasetError(f"no feature store at {source}")
        with np.load(meta_path) as meta:
            version = int(meta["format_version"])
            if version not in (1, STORE_FORMAT_VERSION):
                raise StoreCodecError(
                    f"unsupported store format version {version} "
                    f"(this build reads versions 1-{STORE_FORMAT_VERSION})"
                )
            shape = tuple(int(v) for v in meta["shape"])
            dtype_tag = str(meta["dtype"])
            if dtype_tag != _ROW_DTYPE.name:
                raise StoreCodecError(
                    f"unsupported store dtype tag {dtype_tag!r} (this "
                    f"build reads {_ROW_DTYPE.name!r} rows only); "
                    "refusing to reinterpret the bytes"
                )
            # Version 1 predates the tier tag: exact rows only.
            tier = str(meta["tier"]) if version >= 2 else _TIER_TAG
            if tier != _TIER_TAG:
                raise StoreCodecError(
                    f"unsupported store tier tag {tier!r} (this build "
                    f"scans exact {_TIER_TAG!r} rows only); refusing to "
                    "reinterpret the bytes"
                )
            id_of_row = meta["id_of_row"].copy()
            row_of_id = meta["row_of_id"].copy()
            spans = {
                int(node_id): (int(start), int(stop))
                for node_id, start, stop in zip(
                    meta["span_node_ids"],
                    meta["span_starts"],
                    meta["span_stops"],
                )
            }
        expected = shape[0] * shape[1] * _ROW_DTYPE.itemsize
        actual = bin_path.stat().st_size
        if actual != expected:
            raise DatasetError(
                f"store data file holds {actual} bytes, expected "
                f"{expected} for shape {shape} {_ROW_DTYPE.name}"
            )
        if mode == "memmap":
            matrix: np.ndarray = np.memmap(
                bin_path, dtype=_ROW_DTYPE, mode="r", shape=shape
            )
        else:
            matrix = np.fromfile(bin_path, dtype=_ROW_DTYPE).reshape(shape)
            matrix.setflags(write=False)
        id_of_row.setflags(write=False)
        row_of_id.setflags(write=False)
        return cls(
            matrix, id_of_row, row_of_id, spans, kind=mode, path=source
        )

