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
  at once.  A pick's distance row is the exact kernel's
  (:func:`sq_distances_into`) only where it matters: a later pick can
  only lower a sample's closest distance, and one BLAS product bounds
  the pick's distance from below with :class:`DistanceFilter`'s
  certified margin, so only the samples whose bound does not clear
  their closest distance go through the exact kernel
  (:class:`_SeedingRows`).  Every closest distance, and so every
  sampling probability, is the one full exact rows give.

Lloyd iterates every run at once; a run drops out when its own stop
test fires.  A run also stops as soon as it has *provably* converged —
the labels repeated with no cluster empty, so one more iteration could
only reproduce the same centroids — and reports the iteration count
the full loop would have.  The historical kernels these reproduce live
with the tests that pin them (``tests/reference_build.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

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

    ``np.sum((points - centre) ** 2, axis=-1)`` without its two
    temporaries: the same subtract, square and pairwise row sum, in the
    same order, written into the caller's ``scratch`` (shaped like
    ``points``) and ``out`` — so the result is bit-identical to the
    expression.  Each row is reduced on its own, so a subset of rows
    gets the bits the whole matrix would, ``centre`` may be one (d,)
    centre or one centre per row, and ``points`` may be a stack
    (L, n, d) with one (L, 1, d) centre per slice.  The build's one exact
    distance kernel: k-means++'s first picks run it on every row, and
    otherwise :class:`DistanceFilter` and :class:`_SeedingRows` run it
    only on the rows their certified float filter cannot settle.
    """
    np.subtract(points, centre, out=scratch)
    np.multiply(scratch, scratch, out=scratch)
    return np.add.reduce(scratch, axis=-1, out=out)


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
#: Machine epsilon of float64, the unit of :func:`_assign`'s tie margin.
_EPS = float(np.finfo(np.float64).eps)


class DistanceFilter:
    """Decisions on the exact kernel's distances from the rows of
    ``points``, with that kernel run only where a float filter is unsure.

    Each decision — which of two centres every row is nearer
    (:meth:`sides`), the rows' stable order by that difference
    (:meth:`cut_order`), which row is farthest from a centre
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

    def _difference(
        self, centre_a: np.ndarray, centre_b: np.ndarray
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Every row's ``f = 2·x·(b − a) + ‖a‖² − ‖b‖²`` — ``da − db``
        in exact arithmetic — and its half-width, or ``None`` when the
        intervals cannot be trusted."""
        sq_a = float(np.dot(centre_a, centre_a))
        sq_b = float(np.dot(centre_b, centre_b))
        reach = math.sqrt(sq_a) + math.sqrt(sq_b)
        if not self._certain(reach):
            return None
        with np.errstate(all="ignore"):
            normal = centre_b - centre_a
            normal *= 2.0
            approx = self.points @ normal
            approx += sq_a - sq_b
            return approx, self._half_width(reach * reach)

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
        bounds = self._difference(centre_a, centre_b)
        if bounds is None:
            side = np.empty(self.points.shape[0], dtype=bool)
            unsure = np.arange(side.shape[0])
        else:
            approx, width = bounds
            side = approx < 0.0
            np.abs(approx, out=approx)
            unsure = np.flatnonzero(~(approx > width))
        if unsure.size:
            side[unsure] = self._exact(unsure, centre_a) <= self._exact(
                unsure, centre_b
            )
        return side

    def cut_order(
        self, centre_a: np.ndarray, centre_b: np.ndarray
    ) -> Tuple[np.ndarray, int]:
        """``np.argsort(da − db, kind="stable")`` and the count of
        ``da <= db``, from the exact kernel's distances to the centres.

        The rows are sorted by ``f`` of :meth:`sides`, and the sorted
        rows split into runs wherever every earlier upper bound
        ``f + m`` is below every later lower bound ``f − m``: the exact
        differences then sort in run order.  A run of two or more rows
        is re-sorted by (exact difference, position) — the stable sort's
        order — and a row whose sign ``f`` cannot settle is counted by
        its exact difference.
        """
        n = self.points.shape[0]
        bounds = self._difference(centre_a, centre_b)
        if bounds is None:
            diff = self._exact(np.arange(n), centre_a)
            diff -= self._exact(np.arange(n), centre_b)
            return (
                np.argsort(diff, kind="stable"),
                int(np.count_nonzero(diff <= 0.0)),
            )
        approx, width = bounds
        order = np.argsort(approx)
        approx = approx[order]
        width = width[order]
        upper = np.maximum.accumulate(approx + width)
        lower = np.minimum.accumulate((approx - width)[::-1])[::-1]
        # edge[t]: a run starts at slot t (and one ends before it).
        edge = np.ones(n + 1, dtype=bool)
        np.less(upper[:-1], lower[1:], out=edge[1:n])
        unsure = ~(np.abs(approx) > width)
        alone = edge[:-1] & edge[1:]
        slots = np.flatnonzero(~alone | unsure)
        natural = int(np.count_nonzero((approx < 0.0) & alone & ~unsure))
        if slots.size:
            rows = order[slots]
            diff = self._exact(rows, centre_a)
            diff -= self._exact(rows, centre_b)
            natural += int(np.count_nonzero(diff <= 0.0))
            run = np.cumsum(edge[:-1])[slots]
            order[slots] = rows[np.lexsort((rows, diff, run))]
        return order, natural

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


class _SeedingRows:
    """k-means++'s closest squared distances, lowered through
    :class:`DistanceFilter`'s certified margin.

    A run's first pick needs the exact kernel's distance from every
    sample.  A later pick ``c`` only lowers the samples it is nearer
    than their closest pick so far, and one BLAS product bounds that
    distance from below: ``‖x‖² − 2·x·c + ‖c‖²`` minus the filter's
    half-width ``m = 2κ·(‖x‖² + ‖c‖²) + tiny``, computed as the product
    of a sample row ``[x, ‖x‖²·(1 − 2κ), 1]`` with a centre row
    ``[−2·c, 1, ‖c‖²·(1 − 2κ) − tiny]``.  A sample whose bound exceeds
    its closest distance keeps it; every other one gets
    :func:`sq_distances_into`'s value on its own row — the bits a whole
    row of the kernel holds — and the minimum of the two.  So every
    closest distance is the one the exact rows give.  Where a product
    could overflow, or the rows are too wide for κ, every sample goes to
    the exact kernel.
    """

    def __init__(self, data: np.ndarray) -> None:
        self.data = data
        with np.errstate(all="ignore"):
            sqnorms = np.einsum("bnd,bnd->bn", data, data)
            base = sqnorms - sqnorms * (2.0 * _FILTER_KAPPA)
        ones = np.ones(sqnorms.shape + (1,))
        self.samples = np.concatenate([data, base[..., None], ones], axis=-1)
        self.centres = np.concatenate(
            [data * -2.0, ones, base[..., None] - _FILTER_TINY], axis=-1
        )
        # Centres are samples: ‖x‖ + ‖c‖ is at most twice the top norm.
        span = (
            2.0 * math.sqrt(float(sqnorms.max(initial=0.0)))
            if data.shape[2] <= _FILTER_MAX_DIMS
            else math.inf
        )
        self.certain = span * span < _FILTER_HUGE

    def first(
        self, samples: np.ndarray, problems: np.ndarray, picks: np.ndarray
    ) -> np.ndarray:
        """(L, n) exact rows of ``picks[i]`` in problem ``problems[i]``;
        ``samples`` is ``self.samples[problems]``."""
        points = samples[:, :, : self.data.shape[2]]
        return sq_distances_into(
            points,
            self.data[problems, picks][:, None, :],
            np.empty(points.shape),
            np.empty(points.shape[:2]),
        )

    def lower(
        self,
        closest_sq: np.ndarray,
        samples: np.ndarray,
        problems: np.ndarray,
        picks: np.ndarray,
    ) -> None:
        """Lower ``closest_sq[i]`` to the exact distances to ``picks[i]``
        in problem ``problems[i]`` wherever they are smaller."""
        if self.certain:
            bounds = np.matmul(
                samples, self.centres[problems, picks][:, :, None]
            )
            run, sample = np.nonzero(~(bounds[:, :, 0] > closest_sq))
        else:
            run, sample = np.nonzero(np.ones(closest_sq.shape, dtype=bool))
        where = problems[run]
        diff = self.data[where, sample]
        exact = sq_distances_into(
            diff, self.data[where, picks[run]], diff, np.empty(run.size)
        )
        closest_sq[run, sample] = np.minimum(closest_sq[run, sample], exact)


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
    samples = rows.samples[problem]
    closest_sq = rows.first(samples, problem, first)
    for i in range(1, k):
        total = np.add.reduce(closest_sq, axis=1)
        if total.min() <= 1e-24:
            spent = total <= 1e-24
            spent_at[live[spent]] = i
            kept = ~spent
            live, total = live[kept], total[kept]
            if not live.size:
                break
            closest_sq, uniforms = closest_sq[kept], uniforms[kept]
            problem, samples = problem[kept], samples[kept]
        cdf = closest_sq / total[:, None]
        np.add.accumulate(cdf, axis=1, out=cdf)
        cdf /= cdf[:, -1:]
        picks = (cdf <= uniforms[:, i - 1, None]).sum(axis=1)
        chosen[live, i] = picks
        if i + 1 < k:  # after the last pick nothing reads the distances
            rows.lower(closest_sq, samples, problem, picks)
    return chosen, spent_at


def _plus_plus_init(
    data: np.ndarray,
    k: int,
    rngs: Sequence[np.random.Generator],
    n_restarts: int,
) -> np.ndarray:
    """k-means++ picks of every restart of ``B`` problems, together:
    the (R·B, k) sample indices of run ``r * B + b``'s starting centres.

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
    rows = _SeedingRows(data)
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
    return chosen


def _assign(
    data: np.ndarray,
    centroids: np.ndarray,
    *,
    data_sqnorms: np.ndarray | None = None,
) -> np.ndarray:
    """Label each sample with the index of its nearest centroid.

    ``data`` is ``(..., n, d)`` and ``centroids`` ``(..., k, d)``: one
    table ``‖x‖² − 2·x·c + ‖c‖²`` per slice, its product one gemm per
    slice.  The label is the exactly nearest centroid — least
    ``Σ(x − c)²``, the lowest index among ties.  The expansion's argmin
    is that label wherever the row's best and second-best values are
    more than ``2·(d + 2)·ε·(‖x‖ + max‖c‖)²`` (plus
    :data:`_FILTER_TINY`) apart, the rounding both forms can carry;
    every other row (a NaN or an infinity included) is
    re-decided on the exact sums of the centroids within that margin.
    """
    if data_sqnorms is None:
        data_sqnorms = np.add.reduce(data * data, axis=-1)
    cent_sqnorms = np.add.reduce(centroids * centroids, axis=-1)
    table = np.matmul(data, np.swapaxes(centroids, -1, -2))
    table *= -2.0
    table += data_sqnorms[..., :, None]
    table += cent_sqnorms[..., None, :]
    labels = np.argmin(table, axis=-1)
    k = table.shape[-1]
    flat = table.reshape(-1, k)
    with np.errstate(all="ignore"):
        margin = np.sqrt(data_sqnorms)
        margin += np.sqrt(cent_sqnorms.max(axis=-1))[..., None]
        margin *= margin
        margin *= 2.0 * (data.shape[-1] + 2) * _EPS
        margin += _FILTER_TINY  # gradual underflow's absolute error
        # Each row's candidates: the centroids within the margin of its
        # least value.  argmin takes a NaN first, so a row holding one
        # has a NaN bound, and every centroid is its candidate.
        bound = flat[np.arange(flat.shape[0]), labels.reshape(-1)]
        bound += margin.reshape(-1)
        within = flat <= bound[:, None]
        within[np.isnan(bound)] = True
        if np.count_nonzero(within) == flat.shape[0]:
            return labels
        rows = np.flatnonzero(np.count_nonzero(within, axis=-1) > 1)
        pair_row, pair_col = np.nonzero(within[rows])
    where = np.unravel_index(rows, labels.shape)
    sums = np.full((rows.shape[0], k), np.inf)
    step = data.shape[-2]  # n pairs at a time: memory stays O(n·d)
    for start in range(0, pair_row.shape[0], step):
        i, j = pair_row[start : start + step], pair_col[start : start + step]
        row = tuple(axis[i] for axis in where)
        diff = data[row] - centroids[row[:-1] + (j,)]
        sums[i, j] = np.add.reduce(diff * diff, axis=-1)
    labels.reshape(-1)[rows] = np.argmin(sums, axis=-1)
    return labels


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
    picks = _plus_plus_init(stack, k, rngs, n_restarts)
    problem = np.tile(np.arange(n_problems), n_restarts)
    starts = stack[problem[:, None], picks]
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
