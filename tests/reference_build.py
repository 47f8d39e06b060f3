"""Reference kernels of the offline build — test-side oracles.

Everything here is the *historical* form of a build kernel, kept out of
``src/`` on purpose: the naive per-cluster loops the vectorized Lloyd
iteration replaced, the bodies ``_plus_plus_init``, ``_single_run``
and ``_split_once`` had before the build stopped computing what it
could prove (commit 7d9c120), ``kmeans()``'s restart loop before its
k-means++ picks shared distance rows, and the one-problem assignment
and ``np.add.at`` centroid update Lloyd ran before k-means was
stacked.  The shipped kernels must reproduce these
bit for bit — centroids, labels, inertia, ``n_iter``, the partition, and
the random generator's state afterwards — which is what
``tests/test_build_parallel.py`` checks against them.

:func:`structure_digest` is the one-line summary of a built
:class:`~repro.index.rfs.RFSStructure` those tests compare with
literals generated on that commit.
"""

from __future__ import annotations

import hashlib
import json
from typing import Tuple

import numpy as np

from repro.clustering.kmeans import KMeansResult, _reseed_empty


# ----------------------------------------------------------------------
# Naive Lloyd kernels (pre-vectorization)
# ----------------------------------------------------------------------
def assign_naive(data: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Reference assignment: the original in-line expansion."""
    cross = data @ centroids.T
    d_sq = (
        np.sum(data**2, axis=1)[:, None]
        - 2.0 * cross
        + np.sum(centroids**2, axis=1)[None, :]
    )
    return np.argmin(d_sq, axis=1)


def lloyd_update_naive(
    data: np.ndarray, labels: np.ndarray, k: int, centroids: np.ndarray
) -> np.ndarray:
    """Reference update: per-cluster Python loop (with the repair fix)."""
    counts = np.bincount(labels, minlength=k)
    new_centroids = np.empty_like(centroids)
    for j in range(k):
        if counts[j]:
            new_centroids[j] = data[labels == j].mean(axis=0)
    empties = np.flatnonzero(counts == 0)
    if empties.size:
        _reseed_empty(data, labels, centroids, new_centroids, empties)
    return new_centroids


def nearest_candidates_naive(
    cand_feats: np.ndarray, centroids: np.ndarray
) -> np.ndarray:
    """Reference nearest-candidate search: one norm per centroid."""
    return np.array(
        [
            int(np.argmin(np.linalg.norm(cand_feats - c, axis=1)))
            for c in centroids
        ],
        dtype=np.int64,
    )


# ----------------------------------------------------------------------
# One problem's Lloyd kernels, before k-means was stacked
# ----------------------------------------------------------------------
def assign_reference(
    data: np.ndarray,
    centroids: np.ndarray,
    *,
    data_sqnorms: np.ndarray | None = None,
) -> np.ndarray:
    """Norm-expansion assignment of one (n, d) problem."""
    if data_sqnorms is None:
        data_sqnorms = np.sum(data**2, axis=1)
    cent_sqnorms = np.sum(centroids**2, axis=1)
    table = data @ centroids.T
    table *= -2.0
    table += data_sqnorms[:, None]
    table += cent_sqnorms[None, :]
    return np.argmin(table, axis=1)


def lloyd_update_reference(
    data: np.ndarray, labels: np.ndarray, k: int, centroids: np.ndarray
) -> np.ndarray:
    """Centroid update through the sequential ``np.add.at`` scatter."""
    counts = np.bincount(labels, minlength=k)
    sums = np.zeros((k, data.shape[1]), dtype=np.float64)
    np.add.at(sums, labels, data)
    if counts.all():
        return sums / counts[:, None]
    new_centroids = np.empty_like(centroids)
    filled = counts > 0
    new_centroids[filled] = sums[filled] / counts[filled, None]
    empties = np.flatnonzero(~filled)
    _reseed_empty(data, labels, centroids, new_centroids, empties)
    return new_centroids


# ----------------------------------------------------------------------
# The parent commit's k-means run and balanced split
# ----------------------------------------------------------------------
def plus_plus_picks_reference(
    data: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """The sample indices k-means++ seeding picks, drawing through
    ``Generator.choice``; every distance row computed in full."""
    n = data.shape[0]
    picks = np.empty(k, dtype=np.intp)
    picks[0] = int(rng.integers(n))
    closest_sq = np.sum((data - data[picks[0]]) ** 2, axis=1)
    for i in range(1, k):
        total = closest_sq.sum()
        if total <= 1e-24:
            picks[i:] = rng.integers(n, size=k - i)
            break
        probs = closest_sq / total
        picks[i] = int(rng.choice(n, p=probs))
        dist_sq = np.sum((data - data[picks[i]]) ** 2, axis=1)
        np.minimum(closest_sq, dist_sq, out=closest_sq)
    return picks


def plus_plus_init_reference(
    data: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding drawing through ``Generator.choice``."""
    return data[plus_plus_picks_reference(data, k, rng)]


def single_run_reference(
    data: np.ndarray,
    k: int,
    rng: np.random.Generator,
    max_iter: int,
    tol: float,
) -> KMeansResult:
    """One Lloyd run that iterates until the shift test says stop.

    Assignment and update are the one-problem kernels above, as in the
    parent's body: the naive update is not interchangeable here — on
    one-column data ``mean(axis=0)`` sums pairwise where the scatter
    sums in sequence, so the two can differ in the last bit.
    """
    centroids = plus_plus_init_reference(data, k, rng)
    data_sqnorms = np.sum(data**2, axis=1)
    labels = assign_reference(data, centroids, data_sqnorms=data_sqnorms)
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        new_centroids = lloyd_update_reference(data, labels, k, centroids)
        shift = float(np.max(np.abs(new_centroids - centroids)))
        centroids = new_centroids
        labels = assign_reference(
            data, centroids, data_sqnorms=data_sqnorms
        )
        if shift <= tol:
            break
    inertia = float(np.sum((data - centroids[labels]) ** 2))
    return KMeansResult(
        centroids=centroids, labels=labels, inertia=inertia, n_iter=n_iter
    )


def kmeans_reference(
    data: np.ndarray,
    k: int,
    rng: np.random.Generator,
    n_restarts: int,
    *,
    max_iter: int = 100,
    tol: float = 1e-6,
) -> KMeansResult:
    """Full-batch ``kmeans()``: independent restarts, every k-means++
    pick computing its distance row afresh, lowest inertia wins."""
    best = None
    for _ in range(n_restarts):
        result = single_run_reference(data, k, rng, max_iter, tol)
        if best is None or result.inertia < best.inertia:
            best = result
    return best


def split_once_reference(
    all_points: np.ndarray,
    indices: np.ndarray,
    group_min: int,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """One balanced 2-means split that recomputes every distance."""
    pts = all_points[indices]
    n = pts.shape[0]
    centre_a = pts[int(rng.integers(n))]
    d = np.sum((pts - centre_a) ** 2, axis=1)
    centre_b = pts[int(np.argmax(d))]
    for _ in range(12):
        da = np.sum((pts - centre_a) ** 2, axis=1)
        db = np.sum((pts - centre_b) ** 2, axis=1)
        side_a = da <= db
        if side_a.all() or (~side_a).all():
            break
        new_a = pts[side_a].mean(axis=0)
        new_b = pts[~side_a].mean(axis=0)
        if np.allclose(new_a, centre_a) and np.allclose(new_b, centre_b):
            centre_a, centre_b = new_a, new_b
            break
        centre_a, centre_b = new_a, new_b
    da = np.sum((pts - centre_a) ** 2, axis=1)
    db = np.sum((pts - centre_b) ** 2, axis=1)
    order = np.argsort(da - db, kind="stable")
    natural = int(np.sum(da <= db))
    cut = int(np.clip(natural, group_min, n - group_min))
    return indices[order[:cut]], indices[order[cut:]]


# ----------------------------------------------------------------------
# Structure digest
# ----------------------------------------------------------------------
def structure_digest(rfs) -> str:
    """SHA-256 over everything that defines a built structure.

    Covers, in registry order (which is itself part of the contract):
    node id, level, child order, parent, representatives, routing, the
    bytes of ``item_ids`` / centre / box bounds, then the root id, the
    registry's key order and ``build_meta`` — except its ``executor``
    entry, which only files written by older builds carry.
    """
    h = hashlib.sha256()

    def put(*values) -> None:
        h.update(repr(values).encode())

    for node_id, node in rfs.nodes.items():
        put(
            int(node_id),
            int(node.node_id),
            int(node.level),
            [int(c.node_id) for c in node.children],
            int(node.parent.node_id) if node.parent is not None else -1,
            [int(r) for r in node.representatives],
            [(int(r), int(i)) for r, i in node.rep_child_index.items()],
        )
        for arr in (node.item_ids, node.center, node.mbr.lo, node.mbr.hi):
            put(str(arr.dtype), arr.shape)
            h.update(np.ascontiguousarray(arr).tobytes())
    put(int(rfs.root.node_id), [int(i) for i in rfs.nodes])
    # Index files written while the build had an executor option carry
    # an ``executor`` entry; a build today writes none, and both digest
    # alike.
    meta = {k: v for k, v in rfs.build_meta.items() if k != "executor"}
    put(json.dumps(meta, sort_keys=True))
    return h.hexdigest()
