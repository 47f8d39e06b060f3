"""K-means clustering with k-means++ initialisation.

Lloyd's algorithm on numpy, with:

* k-means++ seeding (D² sampling) for fast, stable convergence,
* empty-cluster repair (each empty cluster is re-seeded at a distinct
  sample, farthest-first, from its assigned centroid),
* multiple restarts keeping the lowest-inertia solution.

This is the workhorse behind representative-image selection in the RFS
structure (paper §3.1) and the cluster grouping inside the Qcluster and
MARS multipoint baselines.

The Lloyd iteration is fully vectorized: assignment runs through the
norm-expansion kernel shared with :mod:`repro.store.kernels`, and the
centroid update is a single ``np.bincount`` + ``np.add.at`` scatter.
Both are **bit-identical** to the naive per-cluster loops they replace
(``np.add.at`` accumulates sequentially, exactly like
``members.mean(axis=0)`` per cluster; the expansion's addition order
matches the original broadcast form), so the full-batch path reproduces
the historical results to the last bit — the naive reference
implementations live with the tests that pin them
(``tests/reference_build.py``).  A run also stops as soon as it has
*provably* converged — the labels repeated with no cluster empty, so one
more iteration could only reproduce the same centroids — and reports
the iteration count the full loop would have.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ClusteringError
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import check_vectors


@dataclass(frozen=True)
class KMeansResult:
    """Outcome of one k-means run.

    Attributes
    ----------
    centroids:
        (k, d) array of cluster centres.
    labels:
        (n,) array assigning each sample to a centroid index.
    inertia:
        Sum of squared distances of samples to their assigned centroid.
    n_iter:
        Lloyd iterations executed before convergence.
    """

    centroids: np.ndarray
    labels: np.ndarray
    inertia: float
    n_iter: int

    @property
    def k(self) -> int:
        """Number of clusters."""
        return self.centroids.shape[0]

    def cluster_sizes(self) -> np.ndarray:
        """Number of samples assigned to each cluster."""
        return np.bincount(self.labels, minlength=self.k)


def sq_distances_into(
    points: np.ndarray,
    centre: np.ndarray,
    scratch: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Squared distance of every row of ``points`` to ``centre``.

    ``np.sum((points - centre) ** 2, axis=1)`` without its two (n, d)
    temporaries: the same subtract, square and pairwise row sum, in the
    same order, written into the caller's ``scratch`` (n, d) and ``out``
    (n,) — so the result is bit-identical to the expression.  The one
    hot kernel of the offline build (2-means passes and k-means++).
    """
    np.subtract(points, centre, out=scratch)
    np.multiply(scratch, scratch, out=scratch)
    return np.add.reduce(scratch, axis=1, out=out)


#: Bytes of distance rows one :func:`kmeans` call keeps for reuse by
#: its k-means++ picks.  A row is 8 bytes per sample, so small inputs
#: keep every row and a 50 000-candidate node keeps the first 80 it
#: computes (the rest are recomputed, as without the memo).
_ROW_MEMO_BYTES = 32 << 20


class _DistanceRows:
    """Squared distances of every sample to sample ``i``, computed once.

    k-means++ picks samples as centres, and the restarts of one
    :func:`kmeans` call — or later picks of the same run — keep picking
    the same ones when ``k`` is a large share of ``n``.  Each row comes
    from :func:`sq_distances_into` on the picked sample, the arithmetic
    a pick always used, so a reused row holds the very bits a fresh
    pass would.  The first rows computed are kept up to
    :data:`_ROW_MEMO_BYTES`; past that a row is computed into a spare
    buffer that the next uncached row overwrites.
    """

    def __init__(self, data: np.ndarray) -> None:
        n = data.shape[0]
        self.data = data
        self.scratch = np.empty_like(data)
        capacity = min(n, _ROW_MEMO_BYTES // (8 * n))
        self.rows = np.empty((capacity, n), dtype=np.float64)
        self.slot = np.full(n, -1, dtype=np.intp)
        self.used = 0
        self.spare = np.empty(n, dtype=np.float64)

    def __call__(self, index: int) -> np.ndarray:
        """Row ``index`` — valid until the next uncached row past the cap."""
        slot = self.slot[index]
        if slot >= 0:
            return self.rows[slot]
        if self.used < self.rows.shape[0]:
            out = self.rows[self.used]
            self.slot[index] = self.used
            self.used += 1
        else:
            out = self.spare
        return sq_distances_into(
            self.data, self.data[index], self.scratch, out
        )


def _plus_plus_init(
    data: np.ndarray,
    k: int,
    rng: np.random.Generator,
    rows: _DistanceRows | None = None,
) -> np.ndarray:
    """k-means++ (D² weighting) initial centroid selection.

    Each pick inverts the cumulative distribution at one uniform draw —
    the sampling ``rng.choice(n, p=probs)`` performs once it has
    validated ``probs``, so the picks and the generator's state are
    the ones ``choice`` would give.  ``rows`` serves each picked
    sample's distance row (shared by the restarts of one
    :func:`kmeans` call; a private one otherwise).
    """
    n = data.shape[0]
    if rows is None:
        rows = _DistanceRows(data)
    centroids = np.empty((k, data.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centroids[0] = data[first]
    closest_sq = rows(first).copy()
    cdf = np.empty(n, dtype=np.float64)
    for i in range(1, k):
        total = closest_sq.sum()
        if total <= 1e-24:
            # All remaining points coincide with a chosen centroid; fill
            # the rest with random picks.
            centroids[i:] = data[rng.integers(n, size=k - i)]
            break
        np.divide(closest_sq, total, out=cdf)
        np.cumsum(cdf, out=cdf)
        cdf /= cdf[-1]
        choice = int(cdf.searchsorted(rng.random(), side="right"))
        centroids[i] = data[choice]
        if i + 1 < k:  # after the last pick nothing reads the distances
            np.minimum(closest_sq, rows(choice), out=closest_sq)
    return centroids


def _sq_distance_table(
    data: np.ndarray,
    centroids: np.ndarray,
    data_sqnorms: np.ndarray,
    cent_sqnorms: np.ndarray,
) -> np.ndarray:
    """(n, k) squared distances via the shared norm-expansion kernel."""
    # Imported lazily: repro.store pulls in the index package, which
    # imports this module at its own load time.
    from repro.store.kernels import pairwise_sq_distances

    return pairwise_sq_distances(
        data,
        centroids,
        block_sqnorms=data_sqnorms,
        rep_sqnorms=cent_sqnorms,
    )


def _assign(
    data: np.ndarray,
    centroids: np.ndarray,
    *,
    data_sqnorms: np.ndarray | None = None,
) -> np.ndarray:
    """Label each sample with the index of its nearest centroid."""
    if data_sqnorms is None:
        data_sqnorms = np.sum(data**2, axis=1)
    cent_sqnorms = np.sum(centroids**2, axis=1)
    table = _sq_distance_table(data, centroids, data_sqnorms, cent_sqnorms)
    return np.argmin(table, axis=1)


def _reseed_empty(
    data: np.ndarray,
    labels: np.ndarray,
    centroids: np.ndarray,
    new_centroids: np.ndarray,
    empties: np.ndarray,
) -> None:
    """Re-seed empty clusters at distinct farthest-first samples.

    Every empty cluster takes the next-farthest sample from its
    assigned centroid, so several clusters emptying in one iteration
    land on *different* samples instead of all collapsing onto the
    single global-farthest point.  The stable sort of the negated
    distances keeps the first pick identical to the historical
    ``argmax`` (first index wins among exact ties).
    """
    dist_sq = np.sum((data - centroids[labels]) ** 2, axis=1)
    order = np.argsort(-dist_sq, kind="stable")
    for pos, j in enumerate(empties):
        new_centroids[j] = data[order[pos]]


def _lloyd_update(
    data: np.ndarray,
    labels: np.ndarray,
    k: int,
    centroids: np.ndarray,
) -> np.ndarray:
    """Vectorized centroid update with empty-cluster repair.

    ``np.add.at`` accumulates rows sequentially (unbuffered scatter),
    which is bit-identical to summing each cluster's members with
    ``members.sum(axis=0)`` — so dividing by the counts reproduces the
    per-cluster ``members.mean(axis=0)`` loop exactly.
    """
    counts = np.bincount(labels, minlength=k)
    sums = np.zeros((k, data.shape[1]), dtype=np.float64)
    np.add.at(sums, labels, data)
    if counts.all():
        return sums / counts[:, None]
    new_centroids = np.empty_like(centroids)
    filled = counts > 0
    new_centroids[filled] = sums[filled] / counts[filled, None]
    empties = np.flatnonzero(~filled)
    if empties.size:
        _reseed_empty(data, labels, centroids, new_centroids, empties)
    return new_centroids


def _single_run(
    data: np.ndarray,
    k: int,
    rng: np.random.Generator,
    max_iter: int,
    tol: float,
    *,
    rows: _DistanceRows | None = None,
) -> KMeansResult:
    """One full Lloyd's-algorithm run from a k-means++ start.

    The loop ends on the centroid-shift test, or one iteration earlier
    when that test's outcome is already known: if an assignment
    reproduces the previous labels and no cluster is empty, the next
    update would recompute the very same means (shift exactly 0) and
    the next assignment the same labels.  That iteration is counted in
    ``n_iter`` but not run.  (An empty cluster re-seeds from the
    *previous* centroids, so the argument does not cover it.)
    """
    centroids = _plus_plus_init(data, k, rng, rows)
    data_sqnorms = np.sum(data**2, axis=1)
    labels = _assign(data, centroids, data_sqnorms=data_sqnorms)
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        new_centroids = _lloyd_update(data, labels, k, centroids)
        shift = float(np.max(np.abs(new_centroids - centroids)))
        centroids = new_centroids
        previous = labels
        labels = _assign(data, centroids, data_sqnorms=data_sqnorms)
        if shift <= tol:
            break
        if (
            tol >= 0
            and n_iter < max_iter
            and np.array_equal(labels, previous)
            and np.bincount(labels, minlength=k).all()
        ):
            n_iter += 1
            break
    inertia = float(
        np.sum((data - centroids[labels]) ** 2)
    )
    return KMeansResult(
        centroids=centroids, labels=labels, inertia=inertia, n_iter=n_iter
    )


def kmeans(
    data: np.ndarray,
    k: int,
    *,
    seed: RandomState = None,
    n_restarts: int = 3,
    max_iter: int = 100,
    tol: float = 1e-6,
) -> KMeansResult:
    """Cluster ``data`` into ``k`` groups; return the best of several runs.

    Parameters
    ----------
    data:
        (n, d) sample matrix, n >= k.
    k:
        Number of clusters.
    seed:
        Seed or generator for reproducible initialisation.
    n_restarts:
        Independent runs; the lowest-inertia result wins.
    max_iter / tol:
        Lloyd iteration budget and centroid-shift convergence threshold.
    """
    matrix = check_vectors("data", data)
    n = matrix.shape[0]
    if k < 1:
        raise ClusteringError(f"k must be >= 1, got {k}")
    if n < k:
        raise ClusteringError(f"need at least k={k} samples, got {n}")
    if n_restarts < 1:
        raise ClusteringError(f"n_restarts must be >= 1, got {n_restarts}")
    rng = ensure_rng(seed)
    rows = _DistanceRows(matrix)  # shared by every restart's seeding
    best: KMeansResult | None = None
    for _ in range(n_restarts):
        result = _single_run(matrix, k, rng, max_iter, tol, rows=rows)
        if best is None or result.inertia < best.inertia:
            best = result
    assert best is not None  # n_restarts >= 1 guarantees a result
    return best


class KMeans:
    """Object-style wrapper around :func:`kmeans` with a fit/predict API.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> pts = np.vstack([rng.normal(0, .1, (20, 2)),
    ...                  rng.normal(5, .1, (20, 2))])
    >>> model = KMeans(k=2, seed=0).fit(pts)
    >>> int(model.predict(np.array([[0.0, 0.0]]))[0]) in (0, 1)
    True
    """

    def __init__(
        self,
        k: int,
        *,
        seed: RandomState = None,
        n_restarts: int = 3,
        max_iter: int = 100,
        tol: float = 1e-6,
    ) -> None:
        self.k = k
        self.seed = seed
        self.n_restarts = n_restarts
        self.max_iter = max_iter
        self.tol = tol
        self.result_: KMeansResult | None = None

    def fit(self, data: np.ndarray) -> "KMeans":
        """Run clustering; store the result on ``self.result_``."""
        self.result_ = kmeans(
            data,
            self.k,
            seed=self.seed,
            n_restarts=self.n_restarts,
            max_iter=self.max_iter,
            tol=self.tol,
        )
        return self

    @property
    def centroids(self) -> np.ndarray:
        """Fitted cluster centres."""
        if self.result_ is None:
            raise ClusteringError("KMeans used before fit()")
        return self.result_.centroids

    @property
    def labels(self) -> np.ndarray:
        """Cluster assignment of the training samples."""
        if self.result_ is None:
            raise ClusteringError("KMeans used before fit()")
        return self.result_.labels

    def predict(self, data: np.ndarray) -> np.ndarray:
        """Assign new samples to the fitted centroids."""
        matrix = check_vectors("data", data, dim=self.centroids.shape[1])
        return _assign(matrix, self.centroids)
