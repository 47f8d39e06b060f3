"""The R*-tree partition of the RFS build (paper §3.1).

The paper builds its RFS structure offline with "a hierarchical
clustering technique, similar to the R*-tree", and so does
:meth:`repro.index.rfs.RFSStructure.build` (method ``"rstar"``): it
asks :func:`bisect_levels` for the tree's partition and makes its nodes
from it.  The data is recursively bisected with balanced 2-means until
each group fits in a node, then every upper level is bisected the same
way over the box centres of the level below.  That yields the compact,
well separated nodes representative selection relies on, with every
node but the root holding between :func:`split_min_entries` and
``max_entries`` members.

The tree is never updated in place: online inserts and removes go to
the serving index's delta segment (:mod:`repro.store.delta`), and a
compaction builds the next generation from scratch.
"""

from __future__ import annotations

from typing import List, NamedTuple, Tuple

import numpy as np

from repro.clustering.kmeans import DistanceFilter
from repro.errors import ConfigurationError
from repro.utils.rng import RandomState, derive_rng, ensure_rng
from repro.utils.validation import check_vectors


def split_min_entries(max_entries: int) -> int:
    """Least member count of a node other than the root.

    ``max(2, 40 % of max_entries)``: the paper's minimum of 70 for a
    capacity of 100 cannot hold under binary bisection (splitting 101
    entries cannot give two nodes of >= 70).  The bound is at most
    ``ceil(max_entries / 2)`` for every ``max_entries >= 4``, so a
    bisection of an overfull group can always leave both halves at or
    above it.
    """
    return max(2, int(0.4 * max_entries))


def bisect_levels(
    points: np.ndarray,
    max_entries: int,
    seed: RandomState = None,
) -> List["BisectLevel"]:
    """The R*-tree partition of ``points``, bottom level first.

    Level 0 groups the rows of ``points`` into leaves, level ``j``
    groups the nodes of level ``j - 1``; the last level has one group,
    the root.  Every split draws its randomness from a stream derived
    from the split's tree path (``derive_rng(rng, "L0ll...")``), so the
    partition is a pure function of the seed and the data.

    Zero rows and non-finite coordinates are refused: a NaN answers
    every comparison with False, so the row would land wherever a cut
    happens to fall (and ``_split_once``'s convergence shortcut assumes
    a finite value is close to itself).
    """
    if max_entries < 4:
        raise ConfigurationError(
            f"max_entries must be >= 4, got {max_entries}"
        )
    pts = check_vectors("points", points)
    if pts.shape[1] == 0:
        raise ConfigurationError("points must have at least one column")
    if pts.shape[0] == 0:
        raise ConfigurationError("cannot partition zero points")
    return _bisect_levels(
        pts, max_entries, split_min_entries(max_entries), ensure_rng(seed)
    )


class BisectLevel(NamedTuple):
    """One level of the R*-tree partition.

    ``groups[j]`` lists the members of the level's ``j``-th node — row
    indices of the points at level 0, positions in the level below
    higher up — and ``lo[j]``/``hi[j]`` bound it.
    """

    groups: List[np.ndarray]
    lo: np.ndarray
    hi: np.ndarray


def _bisect_levels(
    points: np.ndarray,
    group_max: int,
    group_min: int,
    rng: np.random.Generator,
) -> List[BisectLevel]:
    """Partition ``points`` bottom-up into the levels of a tree.

    Points are bisected into leaf groups; every upper level bisects the
    box centres of the level below.
    """
    groups = _balanced_bisect(
        points, np.arange(points.shape[0]), group_max, group_min, rng, "L0"
    )
    # Bounds of the members being grouped: at level 0 a point is its own
    # box, above that the boxes of the level below.
    lows = highs = points
    levels: List[BisectLevel] = []
    while True:
        lo = np.array([lows[g].min(axis=0) for g in groups])
        hi = np.array([highs[g].max(axis=0) for g in groups])
        levels.append(BisectLevel(groups, lo, hi))
        count = len(groups)
        if count == 1:
            return levels
        if count <= group_max:
            groups = [np.arange(count)]
        else:
            groups = _balanced_bisect(
                (lo + hi) / 2.0, np.arange(count), group_max, group_min,
                rng, f"L{len(levels)}",
            )
        lows, highs = lo, hi


def _close(new: np.ndarray, old: np.ndarray) -> bool:
    """``np.allclose(new, old)`` at its default tolerances, for finite
    vectors: the documented test without the NaN/inf handling around it
    (a quarter of the time on 37 values, twice per 2-means pass)."""
    return bool(np.all(np.abs(new - old) <= 1e-8 + 1e-5 * np.abs(old)))


def _mean_of(pts: np.ndarray, members: np.ndarray) -> np.ndarray:
    """``pts[members].mean(axis=0)`` bit for bit: the same row order,
    column sums and division by the count, with the rows gathered by
    ``take`` (faster than a boolean mask) and no ``mean`` wrapper."""
    rows = np.flatnonzero(members)
    return np.add.reduce(pts.take(rows, axis=0), axis=0) / rows.shape[0]


def _split_once(
    all_points: np.ndarray,
    indices: np.ndarray,
    group_min: int,
    rng: np.random.Generator,
) -> Tuple[np.ndarray, np.ndarray]:
    """One balanced 2-means split of ``indices`` into (left, right).

    ``rng`` is the split's own derived stream; the single draw seeds the
    first 2-means centre, and the row farthest from it the second.

    The passes decide each row's side, and the farthest row, through
    :class:`~repro.clustering.kmeans.DistanceFilter`: a BLAS product
    with a certified rounding margin settles almost every row, and the
    exact kernel runs only on the near-ties, so every decision is the
    one the exact distances give.  The loop stops when both centres stop
    moving (:func:`_close`), and that test needs no computing once the
    membership mask repeats: the same members give the same means bit
    for bit, and a finite value is always close to itself.  The balanced
    cut's stable sort of the final centres' distance difference, which
    sets the children's row order, and its natural size come from the
    same filter (:meth:`DistanceFilter.cut_order`): only rows whose
    intervals overlap, or whose sign is unsure, get exact differences.
    """
    pts = all_points[indices]
    n = pts.shape[0]
    rows = DistanceFilter(pts)
    # 2-means to find the natural separation direction.
    centre_a = pts[int(rng.integers(n))]
    # Pick the second seed far from the first.
    centre_b = pts[rows.farthest(centre_a)]
    side_a = rows.sides(centre_a, centre_b)
    for _ in range(12):
        if np.count_nonzero(side_a) in (0, n):
            break
        new_a = _mean_of(pts, side_a)
        new_b = _mean_of(pts, ~side_a)
        settled = _close(new_a, centre_a) and _close(new_b, centre_b)
        centre_a, centre_b = new_a, new_b
        if settled:
            break
        previous, side_a = side_a, rows.sides(centre_a, centre_b)
        if np.array_equal(side_a, previous):
            break
    # Balanced cut: order by affinity difference and cut so both halves
    # stay within bounds.
    order, natural = rows.cut_order(centre_a, centre_b)
    # group_min <= ceil(group_max / 2) guarantees n > group_max implies
    # n >= 2 * group_min, so this window is always non-empty.
    cut = int(np.clip(natural, group_min, n - group_min))
    return indices[order[:cut]], indices[order[cut:]]


def _balanced_bisect(
    all_points: np.ndarray,
    indices: np.ndarray,
    group_max: int,
    group_min: int,
    rng: np.random.Generator,
    path: str = "b",
) -> List[np.ndarray]:
    """Recursively split ``indices`` with balanced 2-means.

    Each returned group has at most ``group_max`` members; splits are
    balanced so no group drops below ``group_min`` (when the input allows
    it).  The 2-means direction adapts to the data, so natural clusters
    end up in separate groups — the property the RFS structure relies on.

    Every split uses ``derive_rng(rng, path)`` — a stream addressed by
    the split's position in the recursion tree, never the shared parent
    sequence — so the partition does not depend on the order the splits
    run in.
    """
    if indices.shape[0] <= group_max:
        return [indices]
    left, right = _split_once(
        all_points, indices, group_min, derive_rng(rng, path)
    )
    out = _balanced_bisect(
        all_points, left, group_max, group_min, rng, path + "l"
    )
    out.extend(
        _balanced_bisect(
            all_points, right, group_max, group_min, rng, path + "r"
        )
    )
    return out
