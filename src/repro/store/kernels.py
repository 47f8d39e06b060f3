"""Batched distance kernels over store blocks.

One localized subquery scores a whole leaf block against a query point
in a single vectorized pass, in the direct form

    ``d(x, q) = √Σ_j (x_j − q_j)²``

— one subtraction, one per-row ``einsum`` reduction and one square
root.  Every score is the Euclidean distance itself, computed to the
float32 rounding of the differences: unlike the expanded
``‖x‖² + ‖q‖² − 2·x·q`` form, its error does not grow with how far
the rows sit from the origin.

Inputs are *trusted*: blocks come straight from a store (already
validated at build time), so no ``check_vectors`` re-validation runs
here — strict checks stay on the public entry points in
:mod:`repro.retrieval.distance`.  All arithmetic happens in the block's
dtype (float32 blocks halve the memory traffic); callers widen the
result when they need float64.

Every kernel call records its wall time in the
``qd_store_kernel_seconds`` histogram and the number of distance
evaluations in ``qd_distance_computations``.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.obs import get_metrics


def _observe(t0: float, evals: int, kernel: str) -> None:
    """Record kernel wall time (labeled per kernel) and eval count.

    ``qd_store_kernel_seconds`` is one family with a ``kernel`` label
    per entry point, so a Prometheus scrape can attribute time to the
    pairwise table vs. the single-point scans.
    ``qd_distance_computations`` stays unlabeled: it is the aggregate
    work counter the paper's cost accounting compares against.
    """
    metrics = get_metrics()
    metrics.histogram(
        "qd_store_kernel_seconds",
        "fused distance kernel wall time",
        labels={"kernel": kernel},
    ).observe(time.perf_counter() - t0)
    metrics.counter(
        "qd_distance_computations", "feature-vector distance evals"
    ).inc(evals)


def pairwise_distances(block: np.ndarray, reps: np.ndarray) -> np.ndarray:
    """(n, m) Euclidean distances from block rows to representatives.

    ``reps`` is cast to the block's dtype so the whole computation runs
    at storage precision; each entry is the direct form of
    :func:`point_distances`.
    """
    t0 = time.perf_counter()
    reps = np.asarray(reps, dtype=block.dtype)
    if reps.ndim == 1:
        reps = reps[None, :]
    diff = block[:, None, :] - reps[None, :, :]
    table = np.einsum("ijk,ijk->ij", diff, diff)
    np.sqrt(table, out=table)
    _observe(t0, block.shape[0] * reps.shape[0], "pairwise")
    return table


def point_distances(block: np.ndarray, query: np.ndarray) -> np.ndarray:
    """(n,) Euclidean distances from block rows to one query point.

    The sum of squared differences is an ``einsum`` reduction rather
    than a BLAS call: BLAS picks different reduction orders for
    different row counts, so the same row scanned in a 9-row delta
    selection and in a 30-row rebuilt leaf block could differ in the
    last bits.  ``einsum`` reduces each row identically regardless of
    block shape, which the generational mutation path's bit-parity
    guarantee (delta scan ≡ from-scratch rebuild) depends on.
    """
    t0 = time.perf_counter()
    diff = block - np.asarray(query, dtype=block.dtype)
    dists = np.einsum("ij,ij->i", diff, diff)
    np.sqrt(dists, out=dists)
    _observe(t0, block.shape[0], "point")
    return dists


def weighted_point_distances(
    block: np.ndarray, query: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """(n,) per-dimension weighted Euclidean distances to one point.

    The direct form of :func:`point_distances` with a per-dimension
    weight on each squared difference; the final reduction is
    ``einsum`` too, so each row's result is independent of the block
    shape it was scanned in.

    No scan calls it; it stays only because ``TARGETS`` in
    ``benchmarks/e2e/tracing.py`` wraps it, and the e2e smoke run fails
    on the warning a missing target prints.
    """
    t0 = time.perf_counter()
    q = np.asarray(query, dtype=block.dtype)
    w = np.asarray(weights, dtype=block.dtype)
    diff = block - q
    diff *= diff
    dists = np.einsum("ij,j->i", diff, w)
    np.maximum(dists, 0.0, out=dists)
    np.sqrt(dists, out=dists)
    _observe(t0, block.shape[0], "weighted_point")
    return dists


def multipoint_distances(
    block: np.ndarray,
    reps: np.ndarray,
    rep_weights: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Weighted aggregate multipoint distance of each block row.

    ``dist(x) = Σ_j w_j · ‖x − p_j‖`` — the MARS multipoint combination
    (:class:`repro.retrieval.multipoint.MultipointQuery`), computed from
    the (n, m) table of :func:`pairwise_distances` in one pass.
    ``rep_weights`` defaults to uniform and is normalised to sum to 1.

    Nothing calls it; like :func:`weighted_point_distances` it stays
    only because ``TARGETS`` in ``benchmarks/e2e/tracing.py`` wraps it.
    """
    table = pairwise_distances(block, reps)
    m = table.shape[1]
    if rep_weights is None:
        w = np.full(m, 1.0 / m)
    else:
        w = np.asarray(rep_weights, dtype=np.float64)
        w = w / w.sum()
    return table @ w
