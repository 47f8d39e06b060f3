"""K-means clustering with k-means++ initialisation.

Lloyd's algorithm on numpy, with:

* k-means++ seeding (D² sampling) for fast, stable convergence,
* empty-cluster repair (each empty cluster is re-seeded at a distinct
  sample, farthest-first, from its assigned centroid),
* multiple restarts keeping the lowest-inertia solution.

This is the workhorse behind representative-image selection in the RFS
structure (paper §3.1) and the cluster grouping inside the Qcluster and
MARS multipoint baselines.

There is one implementation, :func:`kmeans_stacked`: ``B`` problems of
one shape ``(B, n, d)``, each with its own generator, clustered
together — every restart of every problem runs the same numpy call per
Lloyd step, so a build's many small leaf problems pay numpy's call
overhead once per group instead of once per node.  :func:`kmeans` is
its ``B = 1`` call.  Each problem's result is **bit-identical** to
clustering it alone, because every stacked operation is exact per
slice:

* ``np.matmul`` on a stack runs the same gemm once per slice, so
  ``(R, n, d) @ (R, d, k)`` equals each slice's ``X @ C.T``.  (A
  *padded* stack would not: it changes gemm's row count.)
* Reductions over the last axis (row norms, seeding totals, the
  inertia) reduce each row with the 1-D summation of that row.
* Centroid sums come from one ``np.bincount`` over (run, cluster,
  column) keys, which adds each bin's rows in row order from 0.0 —
  the sequential scatter of ``np.add.at``.
* k-means++ draws each problem's values from its own generator in the
  order a lone run draws them, so the generator's state afterwards is
  that of a lone run too; every restart of every problem then picks
  at once.

Lloyd iterates every run at once; a run drops out when its own stop
test fires.  A run also stops as soon as it has *provably* converged —
the labels repeated with no cluster empty, so one more iteration could
only reproduce the same centroids — and reports the iteration count
the full loop would have.  The historical kernels these reproduce live
with the tests that pin them (``tests/reference_build.py``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Sequence, Tuple

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
    (n,) — so the result is bit-identical to the expression.  Each row
    is reduced on its own, so a subset of rows gets the bits the whole
    matrix would, and ``centre`` may be one (d,) centre or one centre
    per row.  The build's exact distance kernel: :class:`DistanceFilter`
    runs it on the rows its float filter cannot settle and the bisect on
    its final centres; :class:`_SeedingRows` computes its stacked form
    for k-means++.
    """
    np.subtract(points, centre, out=scratch)
    np.multiply(scratch, scratch, out=scratch)
    return np.add.reduce(scratch, axis=1, out=out)


#: Relative half-width of :class:`DistanceFilter`'s intervals, per unit
#: of ``S² = (‖x‖ + ‖a‖ + ‖b‖)²`` — the row and the centres compared.
#: The filter's product and the exact kernel are each within
#: ``γ(d + 3)·S²`` of the true value (``γ(m) = m·u / (1 − m·u)``,
#: ``u = 2⁻⁵³``, for any summation order, FMA included), so they differ
#: by at most ``3·γ(d + 3)·S²`` ≈ 1.3e-14·S² at d = 37: κ is ≈ 75× that.
_FILTER_KAPPA = 1e-12
#: Absolute part of the half-width: it covers the absolute error of
#: gradual underflow, a few 2⁻¹⁰⁷⁴ per operation.
_FILTER_TINY = 1e-300
#: The filter decides only while ``S² < _FILTER_HUGE`` on every row, so
#: that no product or sum can overflow, and rows are at most
#: ``_FILTER_MAX_DIMS`` wide, so that ``3·γ(d + 3)`` stays under κ / 10.
#: Past either, every row goes to the exact kernel.
_FILTER_HUGE = 1e306
_FILTER_MAX_DIMS = 300


class DistanceFilter:
    """Decisions on the exact kernel's distances from the rows of
    ``points``, with that kernel run only where a float filter is unsure.

    Each decision — which of two centres every row is nearer
    (:meth:`sides`), which row is farthest from a centre
    (:meth:`farthest`), which row is nearest each of several centres
    (:meth:`nearest`) — is the one :func:`sq_distances_into`'s values
    give, first index winning ties.  It is made first on an approximation
    ``f`` from one BLAS product, whose every value gets a half-width
    ``m = 2κ·(‖x‖² + r²) + tiny`` (:data:`_FILTER_KAPPA`), ``r`` the
    centres' norm sum — at least ``κ·(‖x‖ + r)² = κ·S²``, and one add per
    row.  The exact kernel's value (or difference) lies within
    ``[f − m, f + m]``.  A row whose interval settles the decision is
    decided by ``f``; every other row goes through the exact kernel, so
    each answer is the exact kernel's.

    Every test is written so that a NaN or an infinity reads as unsure,
    and the products run under ``np.errstate`` so nothing warns.
    """

    def __init__(self, points: np.ndarray) -> None:
        self.points = points
        self.scratch = np.empty_like(points)
        with np.errstate(all="ignore"):
            self.sqnorms = np.einsum("ij,ij->i", points, points)
            self._row_width = self.sqnorms * (2.0 * _FILTER_KAPPA)
        # The largest row norm: inf (never certain) when the rows are too
        # wide for κ; NaN, from a non-finite row, is never certain either.
        self._top = (
            math.sqrt(float(self.sqnorms.max(initial=0.0)))
            if points.shape[1] <= _FILTER_MAX_DIMS
            else math.inf
        )

    def _certain(self, reach: float) -> bool:
        """Whether intervals around centres of norm sum ``reach`` are
        trustworthy: no value can overflow."""
        span = self._top + reach
        return span * span < _FILTER_HUGE

    def _half_width(self, reach_sq) -> np.ndarray:
        """Every row's half-width for centres of squared norm sum
        ``reach_sq`` (a scalar, or a column of one per centre)."""
        return self._row_width + (2.0 * _FILTER_KAPPA * reach_sq + _FILTER_TINY)

    def _exact(self, rows: np.ndarray, centre: np.ndarray) -> np.ndarray:
        """The exact kernel on ``points[rows]``."""
        count = rows.shape[0]
        return sq_distances_into(
            self.points[rows], centre, self.scratch[:count], np.empty(count)
        )

    def sides(self, centre_a: np.ndarray, centre_b: np.ndarray) -> np.ndarray:
        """``da <= db`` per row: is the row as near ``centre_a`` as
        ``centre_b`` by the exact kernel?

        ``f = 2·x·(b − a) + ‖a‖² − ‖b‖²`` is ``da − db`` in exact
        arithmetic; a row with ``|f| > m`` is on the side of ``f``'s sign.
        """
        sq_a = float(np.dot(centre_a, centre_a))
        sq_b = float(np.dot(centre_b, centre_b))
        reach = math.sqrt(sq_a) + math.sqrt(sq_b)
        n = self.points.shape[0]
        if self._certain(reach):
            with np.errstate(all="ignore"):
                normal = centre_b - centre_a
                normal *= 2.0
                approx = self.points @ normal
                approx += sq_a - sq_b
                side = approx < 0.0
                np.abs(approx, out=approx)
                width = self._half_width(reach * reach)
                unsure = np.flatnonzero(~(approx > width))
        else:
            side = np.empty(n, dtype=bool)
            unsure = np.arange(n)
        if unsure.size:
            side[unsure] = self._exact(unsure, centre_a) <= self._exact(
                unsure, centre_b
            )
        return side

    def farthest(self, centre: np.ndarray) -> int:
        """``np.argmax`` of the exact kernel's distances to ``centre``.

        The candidates are the rows whose upper bound reaches the
        largest lower bound: every exact maximum is among them, so the
        first exact maximum over the candidates is the first overall.
        """
        sq_c = float(np.dot(centre, centre))
        if self._certain(math.sqrt(sq_c)):
            with np.errstate(all="ignore"):
                approx = self.points @ (centre * -2.0)
                approx += self.sqnorms
                approx += sq_c
                width = self._half_width(sq_c)
                lower = approx - width
                approx += width
                rows = np.flatnonzero(~(approx < lower.max()))
        else:
            rows = np.arange(self.points.shape[0])
        return int(rows[np.argmax(self._exact(rows, centre))])

    def nearest(self, centres: np.ndarray) -> np.ndarray:
        """Per centre, ``np.argmin`` of the square roots of the exact
        kernel's distances from it.

        The candidates of a centre are the rows whose lower bound is at
        or below the smallest upper bound.  The half-width is far wider
        than the range over which ``sqrt`` can round two sums to one
        distance, so every row whose root could tie the least one is a
        candidate, and every other row's root is larger: the roots of
        the candidates, ``inf`` elsewhere, have the same first minimum.
        """
        n = self.points.shape[0]
        with np.errstate(all="ignore"):
            sq_c = np.einsum("ij,ij->i", centres, centres)
            reach = math.sqrt(float(sq_c.max(initial=0.0)))
            if self._certain(reach):
                approx = centres @ self.points.T
                approx *= -2.0
                approx += self.sqnorms
                approx += sq_c[:, None]
                width = self._half_width(sq_c[:, None])
                lower = approx - width
                approx += width
                near = ~(lower > approx.min(axis=1, keepdims=True))
            else:
                near = np.ones((centres.shape[0], n), dtype=bool)
        which, rows = np.nonzero(near)
        exact = np.empty(rows.shape[0])
        for start in range(0, rows.shape[0], n):
            stop = start + n
            exact[start:stop] = self._exact(
                rows[start:stop], centres[which[start:stop]]
            )
        # The sqrt stays although argmin ignores monotone maps: it can
        # round two different sums to one distance, and the tie then
        # goes to the first index.
        dists = np.full(near.shape, np.inf)
        dists[which, rows] = np.sqrt(exact)
        return np.argmin(dists, axis=1)


#: Bytes of distance rows one :func:`kmeans_stacked` call keeps, over
#: all its problems, for reuse by its k-means++ picks.  A row is 8 bytes
#: per sample, so small inputs keep every row and a 50 000-sample
#: problem keeps the first 83 rows computed (the rest are recomputed, as
#: without the memo).
_ROW_MEMO_BYTES = 32 << 20


class _SeedingRows:
    """Squared distances of every sample to a picked sample, per problem.

    k-means++ picks samples as centres, and the restarts of one call —
    or later picks of the same run — keep picking the same ones when
    ``k`` is a large share of ``n``.  A row is the subtract, square and
    row sum of :func:`sq_distances_into` on the picked sample, stacked
    over the rows one step needs, so each row holds the bits a lone pick
    computes.  The first rows computed are kept up to
    :data:`_ROW_MEMO_BYTES`; past that a row is computed afresh.
    """

    def __init__(self, data: np.ndarray, runs: int) -> None:
        self.data = data
        self.scratch = np.empty((runs,) + data.shape[1:])
        self.kept: Dict[Tuple[int, int], np.ndarray] = {}
        self.room = _ROW_MEMO_BYTES // (8 * data.shape[1])

    def _compute(self, keys: List[Tuple[int, int]]) -> np.ndarray:
        """Rows of the (problem, sample) ``keys``, sorted by problem."""
        diff = self.scratch[: len(keys)]
        start = 0
        for problem, group in itertools.groupby(keys, key=itemgetter(0)):
            picks = [sample for _, sample in group]
            points = self.data[problem]
            np.subtract(
                points,
                points[picks][:, None, :],
                out=diff[start : start + len(picks)],
            )
            start += len(picks)
        np.multiply(diff, diff, out=diff)
        return np.add.reduce(diff, axis=-1)

    def __call__(self, problems: np.ndarray, picks: np.ndarray) -> np.ndarray:
        """(L, n) rows of ``picks[i]`` in problem ``problems[i]``."""
        keys = list(zip(problems.tolist(), picks.tolist()))
        missing = sorted({k for k in keys if k not in self.kept})
        fresh: Dict[Tuple[int, int], np.ndarray] = {}
        if missing:
            fresh = dict(zip(missing, self._compute(missing)))
            for key in missing[: max(0, self.room - len(self.kept))]:
                self.kept[key] = fresh[key]
        return np.array([self.kept.get(k, fresh.get(k)) for k in keys])


def _plus_plus_picks(
    problem: np.ndarray,
    first: np.ndarray,
    uniforms: np.ndarray,
    rows: _SeedingRows,
) -> tuple[np.ndarray, np.ndarray]:
    """k-means++ (D² weighting) picks of ``R`` runs, from their draws.

    Run ``r`` seeds problem ``problem[r]`` from sample ``first[r]``;
    its ``i``-th later pick inverts the cumulative distribution at
    ``uniforms[r, i - 1]`` — the sampling ``rng.choice(n, p=probs)``
    performs once it has validated ``probs``.  On the non-decreasing
    distribution, the count of entries ``<= u`` is
    ``searchsorted(u, side="right")``.  Returns the (R, k) picked
    sample indices and, per run, the step at which all its points
    coincided with chosen centroids (``k`` if they never did): such a
    run stops picking there.
    """
    runs, k = first.shape[0], uniforms.shape[1] + 1
    chosen = np.empty((runs, k), dtype=np.intp)
    chosen[:, 0] = first
    spent_at = np.full(runs, k)
    live = np.arange(runs)
    closest_sq = rows(problem, first)
    for i in range(1, k):
        total = np.add.reduce(closest_sq, axis=1)
        spent = total <= 1e-24
        if spent.any():
            spent_at[live[spent]] = i
            live, total = live[~spent], total[~spent]
            closest_sq = closest_sq[~spent]
            if not live.size:
                break
        cdf = closest_sq / total[:, None]
        np.add.accumulate(cdf, axis=1, out=cdf)
        cdf /= cdf[:, -1:]
        picks = (cdf <= uniforms[live, i - 1, None]).sum(axis=1)
        chosen[live, i] = picks
        if i + 1 < k:  # after the last pick nothing reads the distances
            np.minimum(
                closest_sq, rows(problem[live], picks), out=closest_sq
            )
    return chosen, spent_at


def _plus_plus_init(
    data: np.ndarray,
    k: int,
    rngs: Sequence[np.random.Generator],
    n_restarts: int,
) -> np.ndarray:
    """k-means++ starts of every restart of ``B`` problems, together.

    A lone restart draws ``rng.integers(n)`` and then one
    ``rng.random()`` per pick, so each problem draws all its restarts'
    values up front, in that order, and every restart of every problem
    picks at once: run ``r * B + b`` is restart ``r`` of problem ``b``.
    A restart whose points all coincide with chosen centroids draws
    differently: it fills its other centroids with
    ``rng.integers(n, size=...)`` and leaves the rest of its uniforms
    undrawn.  Its problem is then replayed from its generator's state
    before the draws, one restart at a time, each restart's draws
    redone up to the step it stopped at.  Either way each generator
    ends where a lone run's would.
    """
    n_problems, n, _ = data.shape
    rows = _SeedingRows(data, n_restarts * n_problems)
    states = [rng.bit_generator.state for rng in rngs]
    first = np.empty((n_restarts, n_problems), dtype=np.intp)
    uniforms = np.empty((n_restarts, n_problems, k - 1))
    for b, rng in enumerate(rngs):
        for r in range(n_restarts):
            first[r, b] = rng.integers(n)
            uniforms[r, b] = rng.random(k - 1)
    problem = np.tile(np.arange(n_problems), n_restarts)
    chosen, spent_at = _plus_plus_picks(
        problem, first.ravel(), uniforms.reshape(problem.size, k - 1), rows
    )
    for b in sorted(set(problem[spent_at < k].tolist())):
        rng = rngs[b]
        rng.bit_generator.state = states[b]
        for r in range(n_restarts):
            state = rng.bit_generator.state
            one_first, one_uniforms = rng.integers(n), rng.random(k - 1)
            picks, (stop,) = _plus_plus_picks(
                np.array([b]), np.array([one_first]), one_uniforms[None], rows
            )
            if stop < k:
                rng.bit_generator.state = state
                rng.integers(n)
                rng.random(stop - 1)
                picks[0, stop:] = rng.integers(n, size=k - stop)
            chosen[r * n_problems + b] = picks[0]
    return data[problem[:, None], chosen]


def _assign(
    data: np.ndarray,
    centroids: np.ndarray,
    *,
    data_sqnorms: np.ndarray | None = None,
) -> np.ndarray:
    """Label each sample with the index of its nearest centroid.

    ``data`` is ``(..., n, d)`` and ``centroids`` ``(..., k, d)``: one
    table ``‖x‖² − 2·x·c + ‖c‖²`` per slice, its product one gemm per
    slice.  Argmin reads the raw expansion — no root, no clamp, which
    could merge distinct near-zero values into ties.
    """
    if data_sqnorms is None:
        data_sqnorms = np.add.reduce(data * data, axis=-1)
    cent_sqnorms = np.add.reduce(centroids * centroids, axis=-1)
    table = np.matmul(data, np.swapaxes(centroids, -1, -2))
    table *= -2.0
    table += data_sqnorms[..., :, None]
    table += cent_sqnorms[..., None, :]
    return np.argmin(table, axis=-1)


def _cluster_counts(labels: np.ndarray, k: int) -> np.ndarray:
    """(R, k) member count of every cluster of every run."""
    keys = labels + (np.arange(labels.shape[0]) * k)[:, None]
    return np.bincount(
        keys.ravel(), minlength=labels.shape[0] * k
    ).reshape(-1, k)


def _reseed_empty(
    data: np.ndarray,
    labels: np.ndarray,
    centroids: np.ndarray,
    new_centroids: np.ndarray,
    empties: np.ndarray,
) -> None:
    """Re-seed one run's empty clusters at distinct farthest-first samples.

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
    counts: np.ndarray,
    centroids: np.ndarray,
) -> np.ndarray:
    """Centroid update of ``R`` runs ``(R, n, d)``, empty clusters repaired.

    ``counts`` is :func:`_cluster_counts` of ``labels``.  One
    ``np.bincount`` over (run, cluster, column) keys sums every
    cluster's rows in row order from 0.0 — what the sequential
    ``np.add.at`` scatter, and so each cluster's ``members.sum(axis=0)``,
    computes — so dividing by the counts reproduces the per-cluster
    ``members.mean(axis=0)`` loop exactly.
    """
    runs, k = counts.shape
    dims = data.shape[2]
    cells = (labels + (np.arange(runs) * k)[:, None])[:, :, None] * dims
    sums = np.bincount(
        (cells + np.arange(dims)).ravel(),
        weights=data.ravel(),
        minlength=runs * k * dims,
    ).reshape(runs, k, dims)
    filled = counts > 0
    if filled.all():
        return np.divide(sums, counts[:, :, None], out=sums)
    new_centroids = np.divide(
        sums, counts[:, :, None], out=sums, where=filled[:, :, None]
    )
    for r in np.flatnonzero(~filled.all(axis=1)):
        _reseed_empty(
            data[r],
            labels[r],
            centroids[r],
            new_centroids[r],
            np.flatnonzero(~filled[r]),
        )
    return new_centroids


def _lloyd(
    data: np.ndarray,
    data_sqnorms: np.ndarray,
    centroids: np.ndarray,
    max_iter: int,
    tol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lloyd's algorithm on ``R`` runs at once, each to its own stop.

    A run ends on the centroid-shift test, or one iteration earlier
    when that test's outcome is already known: if an assignment
    reproduces the previous labels and no cluster is empty, the next
    update would recompute the very same means (shift exactly 0) and
    the next assignment the same labels.  That iteration is counted in
    ``n_iter`` but not run.  (An empty cluster re-seeds from the
    *previous* centroids, so the argument does not cover it.)  Returns
    every run's final centroids, labels and ``n_iter``.
    """
    runs, k = centroids.shape[:2]
    labels = _assign(data, centroids, data_sqnorms=data_sqnorms)
    counts = _cluster_counts(labels, k)
    final_centroids = centroids.copy()
    final_labels = labels.copy()
    n_iter = np.zeros(runs, dtype=np.intp)
    active = np.arange(runs)
    for it in range(1, max_iter + 1):
        new_centroids = _lloyd_update(data, labels, counts, centroids)
        shift = np.abs(new_centroids - centroids).max(axis=(1, 2))
        centroids = new_centroids
        previous = labels
        labels = _assign(data, centroids, data_sqnorms=data_sqnorms)
        counts = _cluster_counts(labels, k)
        stop = shift <= tol
        proven = np.zeros_like(stop)
        if tol >= 0 and it < max_iter:
            proven = (
                ~stop
                & (labels == previous).all(axis=1)
                & counts.all(axis=1)
            )
        done = stop | proven | (it == max_iter)
        if not done.any():
            continue
        ended = active[done]
        final_centroids[ended] = centroids[done]
        final_labels[ended] = labels[done]
        n_iter[ended] = it + proven[done]
        keep = ~done
        if not keep.any():
            break
        active = active[keep]
        data, data_sqnorms = data[keep], data_sqnorms[keep]
        centroids, labels = centroids[keep], labels[keep]
        counts = counts[keep]
    return final_centroids, final_labels, n_iter


def kmeans_stacked(
    data: np.ndarray,
    k: int,
    *,
    seeds: Sequence[RandomState],
    n_restarts: int = 3,
    max_iter: int = 100,
    tol: float = 1e-6,
) -> List[KMeansResult]:
    """Cluster each of ``B`` problems into ``k`` groups, together.

    Parameters
    ----------
    data:
        (B, n, d) stack of sample matrices, n >= k.
    k:
        Number of clusters of every problem.
    seeds:
        One seed or generator per problem, for its initialisation.
    n_restarts:
        Independent runs per problem; the lowest-inertia result wins
        (the first one among equals).
    max_iter / tol:
        Lloyd iteration budget and centroid-shift convergence threshold.

    Returns each problem's result, in order — bit for bit the result
    (and generator state) of clustering that problem alone.
    """
    stack = np.asarray(data, dtype=np.float64)
    if stack.ndim != 3:
        raise ClusteringError(
            f"data must be a (B, n, d) stack, got shape {stack.shape}"
        )
    n_problems, n, dims = stack.shape
    check_vectors("data", stack.reshape(n_problems * n, dims))
    if len(seeds) != n_problems:
        raise ClusteringError(
            f"need one seed per problem: {len(seeds)} for {n_problems}"
        )
    if k < 1:
        raise ClusteringError(f"k must be >= 1, got {k}")
    if n < k:
        raise ClusteringError(f"need at least k={k} samples, got {n}")
    if n_restarts < 1:
        raise ClusteringError(f"n_restarts must be >= 1, got {n_restarts}")
    if not n_problems:
        return []
    rngs = [ensure_rng(seed) for seed in seeds]
    # Run r * B + b is restart r of problem b.
    starts = _plus_plus_init(stack, k, rngs, n_restarts)
    runs_data = np.concatenate([stack] * n_restarts)
    sqnorms = np.add.reduce(stack * stack, axis=-1)
    centroids, labels, n_iter = _lloyd(
        runs_data,
        np.concatenate([sqnorms] * n_restarts),
        starts,
        max_iter,
        tol,
    )
    every = np.arange(labels.shape[0])[:, None]
    residual = runs_data - centroids[every, labels]
    np.multiply(residual, residual, out=residual)
    inertia = residual.reshape(every.shape[0], -1).sum(axis=1)
    best = inertia.reshape(n_restarts, n_problems).argmin(axis=0)
    results = []
    for b, restart in enumerate(best):
        run = restart * n_problems + b
        results.append(
            KMeansResult(
                centroids=centroids[run].copy(),
                labels=labels[run].copy(),
                inertia=float(inertia[run]),
                n_iter=int(n_iter[run]),
            )
        )
    return results


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

    The ``B = 1`` call of :func:`kmeans_stacked`.

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
    return kmeans_stacked(
        matrix[None],
        k,
        seeds=[seed],
        n_restarts=n_restarts,
        max_iter=max_iter,
        tol=tol,
    )[0]


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
