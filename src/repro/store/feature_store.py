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
    process that opens (or forks with) it — zero copies, no pickling.

Because both backings hold identical bytes and the same kernels consume
them, rankings are bit-identical between the two (the store parity
tests assert this under the serial, thread, and process executors).

Rows are always float32.  A store may additionally carry the ``int8``
**scan tier** (scalar-quantized codes of the same rows, see
:mod:`repro.store.quantize`): leaf block scans then read the compressed
codes — 4x fewer bytes through the disk model — and the final ranking
is recovered bit-identically by re-ranking a provably sufficient
candidate set through the exact matrix (the ε-bound contract documented
in :mod:`repro.store.quantize`).

Disk layout of a saved store directory::

    <dir>/features.bin   raw C-order float32 bytes (np.memmap target)
    <dir>/codes.bin      int8 scan-tier codes (int8 tier only)
    <dir>/meta.npz       permutation maps, node spans, shape, dtype tag
                         (always "float32"), tier tag + quantization
                         params + cached norms

``open`` refuses a ``dtype`` tag other than ``float32`` and a tier tag
other than ``f32`` / ``int8`` before mapping anything: the bytes would
otherwise be reinterpreted as some other number format.

Pickling contract (zero-copy worker sharing): a ``memmap`` store
serialises only its metadata and path — unpickling reopens the mapping,
so shipping a store (or an RFS holding one) to a worker process moves
kilobytes of maps, never the feature matrix itself.
"""

from __future__ import annotations

import hashlib
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Iterator, Optional, Tuple

import numpy as np

from repro.errors import (
    ConfigurationError,
    DatasetError,
    NodeNotFoundError,
    StoreCodecError,
)
from repro.obs import get_metrics
from repro.store.quantize import (
    STORE_TIERS,
    QuantizationParams,
    dequantized_sqnorms,
    quantize_matrix,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.index.rfs import RFSNode, RFSStructure

#: Version 2 added the quantized scan tier (``codes.bin``, the tier tag
#: and quantization params in ``meta.npz``, persisted row norms).
#: Version-1 directories still open — they simply carry no scan tier.
STORE_FORMAT_VERSION = 2

#: The one number format of the exact rows (the ``dtype`` tag in
#: ``meta.npz``), and of the codes the ``int8`` tier scans.
_ROW_DTYPE = np.dtype(np.float32)
_CODE_DTYPE = np.dtype(np.int8)

_FEATURES_FILE = "features.bin"
_CODES_FILE = "codes.bin"
_META_FILE = "meta.npz"

#: Extra candidates a quantized scan re-ranks beyond the ε-bound set.
#: Correctness never depends on it (the ε rule already provably covers
#: the true top-k); it is a safety floor so the re-rank gather
#: amortizes over a few extra rows.
RERANK_MARGIN = 32


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
        Directory the store was opened from (memmap stores reopen from
        it on unpickling); ``None`` for never-saved in-RAM stores.
    tier:
        Scan tier — ``"f32"`` (scans read the exact matrix, the
        default) or ``"int8"`` (scans read ``codes`` and re-rank
        through the exact matrix).
    codes / quant:
        The compressed (n, d) code matrix and its
        :class:`~repro.store.quantize.QuantizationParams`; both ``None``
        on the ``f32`` tier.
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
        tier: str = "f32",
        codes: Optional[np.ndarray] = None,
        quant: Optional[QuantizationParams] = None,
        sqnorms: Optional[np.ndarray] = None,
        dq_sqnorms: Optional[np.ndarray] = None,
    ) -> None:
        if tier not in STORE_TIERS:
            raise StoreCodecError(
                f"store tier must be one of {STORE_TIERS}, got {tier!r}"
            )
        if tier != "f32" and (codes is None or quant is None):
            raise ConfigurationError(
                f"tier {tier!r} needs codes and quantization params"
            )
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
        self.tier = tier
        self.codes = codes
        self.quant = quant
        self._sqnorms = sqnorms
        self._dq_sqnorms = dq_sqnorms
        self._fingerprint: Optional[str] = None
        self.stats: Dict[str, int] = {
            "block_reads": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "bytes_read": 0,
        }
        # stats increments are read-modify-write; the thread executor
        # scans blocks concurrently, so they must be serialized.
        self._stats_lock = threading.Lock()
        mapped = float(matrix.nbytes)
        if codes is not None:
            mapped += float(codes.nbytes)
        get_metrics().gauge(
            "qd_store_bytes_mapped", "bytes of feature data backing the store"
        ).set(mapped)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        rfs: "RFSStructure",
        *,
        tier: str = "f32",
    ) -> "FeatureStore":
        """Build a float32 store from a built RFS structure.

        Walks the leaves in depth-first order, concatenates their member
        ids into the row permutation, and registers one contiguous span
        per node (leaves *and* internal nodes — DFS order makes every
        subtree contiguous).  ``tier="int8"`` additionally quantizes a
        compressed scan copy of the permuted rows (see
        :mod:`repro.store.quantize`) — final rankings stay
        bit-identical to ``"f32"``, block scans read 4x fewer bytes.
        """
        if tier not in STORE_TIERS:
            raise ConfigurationError(
                f"store tier must be one of {STORE_TIERS}, got {tier!r}"
            )
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
        codes = quant = dq_sq = None
        if tier != "f32":
            codes, quant = quantize_matrix(matrix, tier)
            dq_sq = dequantized_sqnorms(codes, quant)
        return cls(
            matrix,
            id_of_row,
            row_of_id,
            spans,
            kind="inmem",
            tier=tier,
            codes=codes,
            quant=quant,
            dq_sqnorms=dq_sq,
        )

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
        """Bytes of exact feature data backing the store."""
        return int(self.matrix.nbytes)

    @property
    def scan_itemsize(self) -> int:
        """Bytes per element a leaf block scan reads on this tier."""
        if self.codes is not None:
            return int(self.codes.dtype.itemsize)
        return int(self.dtype.itemsize)

    @property
    def scan_nbytes(self) -> int:
        """Bytes of the matrix the leaf block scans actually read."""
        if self.codes is not None:
            return int(self.codes.nbytes)
        return self.nbytes

    @property
    def compression_ratio(self) -> float:
        """Exact-tier bytes over scan-tier bytes (1.0 on ``f32``)."""
        return self.nbytes / max(1, self.scan_nbytes)

    def fingerprint(self) -> str:
        """Digest of everything tier-shaped about this store.

        Row dtype name (always ``float32``; hashed so fingerprints and
        cache keys stay what they were when other dtypes existed), tier
        tag, and (on ``int8``) the quantization parameter digest.
        Folded into the subquery cache key so entries computed against
        one tier configuration can never be served to another (see
        :func:`repro.cache.result_cache.subquery_cache_key`).
        """
        if self._fingerprint is None:
            digest = hashlib.blake2b(digest_size=12)
            digest.update(_ROW_DTYPE.name.encode())
            digest.update(self.tier.encode())
            if self.quant is not None:
                digest.update(self.quant.fingerprint().encode())
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FeatureStore(kind={self.kind!r}, shape="
            f"{self.matrix.shape}, dtype={self.dtype.name}, "
            f"tier={self.tier!r}, nodes={len(self.spans)})"
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

    def node_block(
        self, node_id: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(vectors, ids, sqnorms)`` views of a node's block.

        All three are zero-copy slices of store-owned arrays (read-only;
        for a memmap store the vectors live in the page cache).  The
        squared row norms feed the fused kernels' distance expansion.
        """
        self._require_open()
        start, stop = self.span_of(node_id)
        return (
            self.matrix[start:stop],
            self.id_of_row[start:stop],
            self.sqnorms[start:stop],
        )

    def scan_block(
        self, node_id: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(codes, ids, dq_sqnorms)`` views of a node's scan-tier block.

        The quantized analogue of :meth:`node_block`: the compressed
        codes the approximate distance kernels consume, plus the
        squared norms of their reconstructions.  Only valid on a
        quantized tier — the ``f32`` scan path reads :meth:`node_block`
        directly.
        """
        self._require_open()
        if self.codes is None:
            raise ConfigurationError(
                "scan_block needs a quantized tier; this store is 'f32'"
            )
        start, stop = self.span_of(node_id)
        return (
            self.codes[start:stop],
            self.id_of_row[start:stop],
            self.dq_sqnorms[start:stop],
        )

    def block_nbytes(self, node_id: int) -> int:
        """Bytes a scan of this node's block reads *on its tier*.

        The disk model charges what the scan path actually touches: the
        compressed codes on a quantized tier (4x fewer bytes on
        ``int8``), the exact rows on ``f32``.
        """
        start, stop = self.span_of(node_id)
        return (stop - start) * self.dims * self.scan_itemsize

    @property
    def sqnorms(self) -> np.ndarray:
        """Cached per-row squared norms (computed once, lazily)."""
        if self._sqnorms is None:
            m = self.matrix
            sq = np.einsum("ij,ij->i", m, m)
            sq.setflags(write=False)
            self._sqnorms = sq
        return self._sqnorms

    @property
    def dq_sqnorms(self) -> np.ndarray:
        """Squared norms of the dequantized scan-tier rows.

        Persisted by :meth:`save` / loaded by :meth:`open` — computing
        them lazily on a cold memmap store would page in the whole codes
        file before the first query.
        """
        if self._dq_sqnorms is None:
            if self.codes is None or self.quant is None:
                raise ConfigurationError(
                    "dq_sqnorms need a quantized tier; this store is 'f32'"
                )
            self._dq_sqnorms = dequantized_sqnorms(self.codes, self.quant)
        return self._dq_sqnorms

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
        matrix = self.matrix
        codes = self.codes
        self.matrix = None
        self.codes = None
        self._sqnorms = None
        self._dq_sqnorms = None
        for array in (matrix, codes):
            if array is None:
                continue
            mm = getattr(array, "_mmap", None)
            del array
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
        """Persist the store to ``directory`` (created if missing).

        Quantized tiers additionally write ``codes.bin`` and persist
        the tier tag, the scale/offset/error-bound arrays, and both
        cached norm vectors in ``meta.npz`` (format version 2), so a
        reopened store serves cold scans without touching the exact
        feature file.
        """
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
        extra: Dict[str, np.ndarray] = {}
        if self.tier != "f32":
            np.ascontiguousarray(self.codes).tofile(target / _CODES_FILE)
            extra = {
                "quant_scale": self.quant.scale,
                "quant_offset": self.quant.offset,
                "quant_dim_err": self.quant.dim_err,
                "dq_sqnorms": np.ascontiguousarray(self.dq_sqnorms),
            }
        np.savez_compressed(
            target / _META_FILE,
            format_version=np.int64(STORE_FORMAT_VERSION),
            shape=np.array(self.matrix.shape, dtype=np.int64),
            dtype=np.array(_ROW_DTYPE.name),
            tier=np.array(self.tier),
            sqnorms=np.ascontiguousarray(self.sqnorms),
            id_of_row=self.id_of_row,
            row_of_id=self.row_of_id,
            span_node_ids=node_ids,
            span_starts=starts,
            span_stops=stops,
            **extra,
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
        ``f32`` / ``int8`` raises :class:`~repro.errors.StoreCodecError`
        before any file is mapped.
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
        quant: Optional[QuantizationParams] = None
        sqnorms = dq_sq = None
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
            # Version 1 predates scan tiers: exact rows only.
            tier = str(meta["tier"]) if version >= 2 else "f32"
            if tier not in STORE_TIERS:
                raise StoreCodecError(
                    f"unknown store tier tag {tier!r} (this build knows "
                    f"{STORE_TIERS}); refusing to reinterpret the bytes"
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
            if version >= 2:
                sqnorms = meta["sqnorms"].copy()
                sqnorms.setflags(write=False)
            if tier != "f32":
                quant = QuantizationParams(
                    tier=tier,
                    scale=meta["quant_scale"].copy(),
                    offset=meta["quant_offset"].copy(),
                    dim_err=meta["quant_dim_err"].copy(),
                    err_bound=float(
                        np.sqrt(np.sum(meta["quant_dim_err"] ** 2))
                    ),
                )
                dq_sq = meta["dq_sqnorms"].copy()
                dq_sq.setflags(write=False)
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
        codes: Optional[np.ndarray] = None
        if tier != "f32":
            codes_path = source / _CODES_FILE
            expected_codes = shape[0] * shape[1] * _CODE_DTYPE.itemsize
            if (
                not codes_path.exists()
                or codes_path.stat().st_size != expected_codes
            ):
                raise StoreCodecError(
                    f"store tier {tier!r} needs {expected_codes} code "
                    f"bytes at {codes_path}"
                )
            if mode == "memmap":
                codes = np.memmap(
                    codes_path, dtype=_CODE_DTYPE, mode="r", shape=shape
                )
            else:
                codes = np.fromfile(
                    codes_path, dtype=_CODE_DTYPE
                ).reshape(shape)
                codes.setflags(write=False)
        id_of_row.setflags(write=False)
        row_of_id.setflags(write=False)
        return cls(
            matrix,
            id_of_row,
            row_of_id,
            spans,
            kind=mode,
            path=source,
            tier=tier,
            codes=codes,
            quant=quant,
            sqnorms=sqnorms,
            dq_sqnorms=dq_sq,
        )

    # ------------------------------------------------------------------
    # Pickling — the zero-copy worker-sharing contract
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        state["_sqnorms"] = None
        state["_dq_sqnorms"] = None
        del state["_stats_lock"]  # locks don't pickle; workers get fresh
        if self.kind == "memmap" and self.path is not None:
            # Ship the path, not the bytes: the worker reopens the
            # mappings and shares pages through the OS cache.
            state["matrix"] = None
            state["codes"] = None
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self.__dict__["_stats_lock"] = threading.Lock()
        if self.matrix is None:
            if self.path is None:  # pragma: no cover - defensive
                raise DatasetError(
                    "cannot reopen a memmap store without a path"
                )
            reopened = FeatureStore.open(self.path, mode="memmap")
            self.matrix = reopened.matrix
            self.codes = reopened.codes
            self._sqnorms = reopened._sqnorms
            self._dq_sqnorms = reopened._dq_sqnorms
