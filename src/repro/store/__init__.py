"""Leaf-contiguous columnar feature store (perf layer over the RFS).

The final round of Query Decomposition reduces to *localized* multipoint
k-NN inside a handful of RFS leaves (§3.4).  The stock layout keeps the
feature matrix in image-id order, so every leaf scan gathers its members
via fancy indexing — a row-by-row copy — before any distance math runs.
This package reorders the database once, at store-build time, into
**leaf-contiguous blocks**: a permutation of the feature matrix such
that every RFS node's vectors occupy one contiguous slice.  Leaf scans
then serve zero-copy read-only views, the distance kernels fuse the
whole block × representative computation into one pass, and the blocks
persist via ``np.memmap`` so worker processes share the bytes through
the page cache instead of pickled arrays.

Pieces:

* :class:`~repro.store.feature_store.FeatureStore` — the permuted
  float32 matrix, id↔row maps both ways, per-node spans, persistence
  (``save`` / ``FeatureStore.open``), and block-read accounting;
* :mod:`repro.store.kernels` — fused batched distance kernels
  (:func:`~repro.store.kernels.multipoint_distances` and friends) built
  on the ``‖x‖² + ‖q‖² − 2·x·q`` expansion with cached row norms;
* :mod:`repro.store.quantize` — the optional ``int8`` scan tier
  (scalar quantization with measured error bounds): block scans read
  4x fewer bytes and an exact float32 re-rank keeps final rankings
  bit-identical to the uncompressed path;
* :mod:`repro.store.delta` — the mutation path's write side: an
  append-only delta segment (new feature rows + tombstones) whose
  immutable :class:`~repro.store.delta.DeltaView` snapshots final-round
  scans traverse alongside the main blocks, lock-free.

Every :class:`~repro.index.rfs.RFSStructure` scans through a store: an
in-RAM float32 one of its own unless another (memory-mapped, quantized)
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
    "STORE_TIERS",
    "QuantizationParams",
    "quantize_matrix",
    "dequantize",
    "dequantized_sqnorms",
    "approx_point_distances",
    "approx_weighted_point_distances",
    "multipoint_distances",
    "pairwise_distances",
    "point_distances",
    "weighted_point_distances",
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
            "approx_point_distances",
            "approx_weighted_point_distances",
            "multipoint_distances",
            "pairwise_distances",
            "point_distances",
            "weighted_point_distances",
        ),
        "repro.store.quantize": (
            "STORE_TIERS",
            "QuantizationParams",
            "dequantize",
            "dequantized_sqnorms",
            "quantize_matrix",
        ),
    },
)
