"""Scalar quantization for the compressed store scan tier.

A :class:`FeatureStore` can carry, next to its exact float32 matrix, a
*compressed* copy of the same rows — the ``int8`` **scan tier** — that
the leaf block scans read instead of the exact bytes: per-dimension
min/max affine codes.  Each dimension ``d`` stores a
``scale_d = (max_d - min_d) / 255`` and ``offset_d = min_d``; a value
quantizes to ``round((x - offset_d) / scale_d)`` shifted into the
signed int8 range.  4x smaller than float32, worst-case per-dimension
reconstruction error ``scale_d / 2``.

Exactness contract — the reason this module records **error bounds**:
the scan computes *approximate* distances on dequantized codes, but the
store keeps the exact matrix, and the scan re-ranks a provably
sufficient candidate set through it (see
:meth:`repro.index.rfs.RFSStructure._scan_leaves`).  For any row
``x`` with reconstruction ``x̂`` and any query ``q``, the triangle
inequality gives

    ``|dist(x̂, q) − dist(x, q)| ≤ ‖x̂ − x‖ ≤ ε``

where ``ε = ‖(e_1, …, e_D)‖₂`` and ``e_d`` is the *measured* maximum
absolute reconstruction error of dimension ``d`` (measured at quantize
time, so the bound is tight for the actual data, not the worst case).
With ``κ̂`` the k-th smallest approximate distance seen so far:

* an unscanned leaf with ``MINDIST > κ̂ + ε`` cannot hold a true
  top-k row (every row there has true distance ≥ MINDIST, while the
  true k-th best is ≤ κ̂ + ε), and
* every true top-k row — ties at the k-th distance included — has
  approximate distance ≤ κ̂ + 2ε,

so pruning on ``κ̂ + ε`` and re-ranking the ``d̂ ≤ κ̂ + 2ε`` candidates
through the exact matrix reproduces the float32 ranking **bit for
bit**.  The re-rank reruns the exact kernel over the *full* float32
blocks of the leaves holding survivors — byte-for-byte the calls the
``f32`` scan makes — and selects the survivors' entries.  The exact
kernels reduce each row with ``einsum``, which gives a row the same
bits in any block shape (BLAS matrix-vector products would not: their
reduction order changes with the row count), so a re-rank of the
gathered survivor rows alone would be exact too; it is a separate
change to the scan, not made here.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.config import STORE_TIERS
from repro.errors import ConfigurationError, StoreCodecError


@dataclass(frozen=True)
class QuantizationParams:
    """Reconstruction parameters and error bounds of a quantized tier.

    Attributes
    ----------
    tier:
        ``"int8"`` (``"f32"`` stores carry no params); hashed into
        :meth:`fingerprint`, so cache keys name the tier.
    scale / offset:
        (d,) float32 affine reconstruction arrays; int8 codes decode as
        ``(code + 128) * scale + offset``.
    dim_err:
        (d,) float64 measured max absolute reconstruction error per
        dimension (``max_rows |x̂ - x|``).
    err_bound:
        ``‖dim_err‖₂`` — the global distance-error bound ε.
    """

    tier: str
    scale: np.ndarray
    offset: np.ndarray
    dim_err: np.ndarray
    err_bound: float

    def fingerprint(self) -> str:
        """Digest of the tier tag and reconstruction arrays.

        Folded into the subquery cache key: two stores with the same
        exact matrix but different quantization parameters scan
        different approximate distances, so their *intermediate* work
        differs even though final rankings agree — and a future lossy
        tier must never alias a lossless one.
        """
        digest = hashlib.blake2b(digest_size=12)
        digest.update(self.tier.encode())
        digest.update(np.ascontiguousarray(self.scale).tobytes())
        digest.update(np.ascontiguousarray(self.offset).tobytes())
        return digest.hexdigest()


def quantize_matrix(
    matrix: np.ndarray, tier: str
) -> Tuple[np.ndarray, QuantizationParams]:
    """Compress ``matrix`` into ``tier`` codes with measured error bounds.

    Returns ``(codes, params)``; ``codes`` is (n, d) ``int8``, and
    ``int8`` is the only quantizable tier.  Constant dimensions get
    scale 1.0 (every value maps to code 0 and reconstructs exactly), so
    the affine decode never divides by zero and ``dim_err`` stays 0
    there.
    """
    if tier != "int8":
        raise ConfigurationError(
            f"the quantizable tier is 'int8', got {tier!r}"
        )
    src = np.asarray(matrix, dtype=np.float32)
    lo = src.min(axis=0).astype(np.float32)
    hi = src.max(axis=0).astype(np.float32)
    scale = (hi - lo) / 255.0
    scale = np.where(scale > 0, scale, np.float32(1.0)).astype(np.float32)
    offset = lo
    steps = np.rint((src - offset) / scale)
    np.clip(steps, 0.0, 255.0, out=steps)
    codes = (steps - 128.0).astype(np.int8)
    recon = (steps * scale + offset).astype(np.float32)
    dim_err = np.max(np.abs(recon - src), axis=0).astype(np.float64)
    codes.setflags(write=False)
    err_bound = float(np.sqrt(np.sum(dim_err * dim_err)))
    return codes, QuantizationParams(
        tier=tier,
        scale=scale,
        offset=offset,
        dim_err=dim_err,
        err_bound=err_bound,
    )


def dequantize(codes: np.ndarray, params: QuantizationParams) -> np.ndarray:
    """Reconstruct float32 rows from int8 codes."""
    if params.tier != "int8":
        raise StoreCodecError(f"unknown quantization tier {params.tier!r}")
    shifted = codes.astype(np.float32)
    shifted += 128.0
    shifted *= params.scale
    shifted += params.offset
    return shifted


def dequantized_sqnorms(
    codes: np.ndarray, params: QuantizationParams
) -> np.ndarray:
    """Squared row norms of the *reconstructed* vectors.

    Computed once at build/save time and persisted — recomputing them on
    a cold memmap store would page in the whole codes file before the
    first query.
    """
    recon = dequantize(codes, params)
    sq = np.einsum("ij,ij->i", recon, recon)
    sq.setflags(write=False)
    return sq


__all__ = [
    "STORE_TIERS",
    "QuantizationParams",
    "quantize_matrix",
    "dequantize",
    "dequantized_sqnorms",
]
