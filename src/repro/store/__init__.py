"""Leaf-contiguous columnar feature store (perf layer over the RFS).

The final round of Query Decomposition reduces to *localized* multipoint
k-NN inside a handful of RFS leaves (§3.4).  The stock layout keeps the
feature matrix in image-id order, so every leaf scan gathers its members
via fancy indexing — a row-by-row copy — before any distance math runs.
This package reorders the database once, at store-build time, into
**leaf-contiguous blocks**: a permutation of the feature matrix such
that every RFS node's vectors occupy one contiguous slice.  Leaf scans
then serve zero-copy read-only views, the distance kernel scores a
whole block in one vectorized pass, and the blocks
persist via ``np.memmap``, so processes that open one store share its
bytes through the page cache.

Pieces:

* :class:`~repro.store.feature_store.FeatureStore` — the permuted
  float32 matrix, id↔row maps both ways, per-node spans, persistence
  (``save`` / ``FeatureStore.open``), and block-read accounting;
* :mod:`repro.store.kernels` — batched distance kernels
  (:func:`~repro.store.kernels.pairwise_distances` and friends) that
  compute ``√Σ(x − q)²`` directly; a leaf scan is one exact
  :func:`~repro.store.kernels.point_distances` call over the block's
  float32 rows;
* :mod:`repro.store.delta` — the mutation path's write side: an
  append-only delta segment (new feature rows + tombstones) whose
  immutable :class:`~repro.store.delta.DeltaView` snapshots final-round
  scans traverse alongside the main blocks, lock-free.

Every :class:`~repro.index.rfs.RFSStructure` scans through a store: an
in-RAM float32 one of its own unless another (a memory-mapped one)
is attached with
:meth:`~repro.index.rfs.RFSStructure.attach_store`.  Rankings are
bit-identical between the ``inmem`` and ``memmap`` backings (same
bytes, same kernel).
"""

from repro._lazy import lazy_exports

__all__ = [
    "DeltaSegment",
    "DeltaView",
    "TombstoneSegment",
    "FeatureStore",
    "STORE_FORMAT_VERSION",
    "pairwise_distances",
    "point_distances",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.store.delta": ("DeltaSegment", "DeltaView", "TombstoneSegment"),
        "repro.store.feature_store": (
            "STORE_FORMAT_VERSION",
            "FeatureStore",
        ),
        "repro.store.kernels": (
            "pairwise_distances",
            "point_distances",
        ),
    },
)
