"""Property-based tests (hypothesis) on core data structures & invariants."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.clustering.kmeans import kmeans
from repro.features.normalize import FeatureNormalizer
from repro.features.texture import haar_dwt2
from repro.index.geometry import MBR
from repro.index.rstar import RStarTree
from repro.retrieval.multipoint import MultipointQuery
from repro.retrieval.topk import (
    RankedList,
    merge_ranked_lists,
    proportional_allocation,
    rank,
)

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def points_strategy(n_min=1, n_max=40, d_min=1, d_max=6):
    return st.integers(d_min, d_max).flatmap(
        lambda d: arrays(
            np.float64,
            st.tuples(st.integers(n_min, n_max), st.just(d)),
            elements=finite,
        )
    )


class TestMBRProperties:
    @given(points_strategy(n_min=2))
    def test_from_points_contains_all(self, pts):
        box = MBR.from_points(pts)
        assert np.all(box.lo <= pts) and np.all(pts <= box.hi)

    @given(points_strategy(n_min=2), points_strategy(n_min=2))
    def test_union_contains_both(self, a, b):
        if a.shape[1] != b.shape[1]:
            return
        box_a = MBR.from_points(a)
        box_b = MBR.from_points(b)
        union = MBR.union_of([box_a, box_b])
        assert np.all(union.lo <= box_a.lo) and np.all(
            union.hi >= box_a.hi
        )
        assert np.all(union.lo <= box_b.lo) and np.all(
            union.hi >= box_b.hi
        )

    @given(points_strategy(n_min=2))
    def test_min_distance_lower_bounds_member_distance(self, pts):
        box = MBR.from_points(pts)
        probe = pts[0] + 17.0
        mind = box.min_distance(probe)
        for p in pts:
            assert mind <= np.linalg.norm(p - probe) + 1e-6

    @given(points_strategy(n_min=2))
    def test_margin_and_diagonal_nonnegative(self, pts):
        box = MBR.from_points(pts)
        assert box.margin() >= 0
        assert box.diagonal() >= 0

class TestKMeansProperties:
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(5, 30), st.integers(2, 4)),
            elements=st.floats(-100, 100),
        ),
        st.integers(1, 5),
    )
    # A near-tie the expanded ‖x‖² − 2·x·c + ‖c‖² decides wrongly: point
    # 1 went to a centroid 5e-9 away while another sat at distance 0.
    @example(np.array([[0, 1], [1e-8, 1], [1, 1], [1, 1], [1, 1]]), 3)
    @settings(max_examples=25, deadline=None)
    def test_every_point_assigned_to_nearest_centroid(self, data, k):
        if data.shape[0] < k:
            return
        result = kmeans(data, k, seed=0, n_restarts=1)
        for i, point in enumerate(data):
            dists = np.linalg.norm(result.centroids - point, axis=1)
            assert dists[result.labels[i]] <= dists.min() + 1e-9

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(4, 20), st.just(3)),
            elements=st.floats(-50, 50),
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_inertia_matches_labels(self, data):
        result = kmeans(data, 2, seed=1, n_restarts=1)
        manual = float(
            np.sum((data - result.centroids[result.labels]) ** 2)
        )
        assert result.inertia == pytest.approx(manual, rel=1e-9, abs=1e-9)


class TestNormalizerProperties:
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(2, 30), st.integers(1, 5)),
            elements=st.floats(-1e3, 1e3),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip(self, data):
        norm = FeatureNormalizer().fit(data)
        back = norm.inverse_transform(norm.transform(data))
        assert np.allclose(back, data, atol=1e-6)


class TestHaarProperties:
    @given(
        arrays(
            np.float64,
            st.tuples(
                st.sampled_from([4, 8, 16]), st.sampled_from([4, 8, 16])
            ),
            elements=st.floats(0, 1),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_energy_preserved(self, channel):
        ll, lh, hl, hh = haar_dwt2(channel)
        total = sum(float(np.sum(b**2)) for b in (ll, lh, hl, hh))
        assert total == pytest.approx(float(np.sum(channel**2)),
                                      rel=1e-9, abs=1e-9)


class TestTopKProperties:
    @given(
        st.lists(
            st.tuples(st.floats(0, 100), st.integers(0, 1000)),
            min_size=1, max_size=50,
        ),
        st.integers(1, 20),
    )
    def test_topk_returns_minimum_scores(self, pairs, k):
        scores = np.array([s for s, _ in pairs])
        ids = [i for _, i in pairs]
        ranked = rank(scores, ids, k)
        cutoff = sorted(scores)[: min(k, len(pairs))][-1]
        assert all(item.score <= cutoff + 1e-12 for item in ranked)

    @given(
        st.lists(
            st.lists(
                st.tuples(st.floats(0, 10), st.integers(0, 50)),
                max_size=10,
            ),
            max_size=5,
        ),
        st.integers(1, 10),
    )
    def test_merge_is_sorted_and_unique(self, list_of_pairs, k):
        lists = [RankedList.from_pairs(p) for p in list_of_pairs]
        merged = merge_ranked_lists(lists, k)
        scores = [it.score for it in merged]
        assert scores == sorted(scores)
        ids = merged.ids()
        assert len(ids) == len(set(ids))
        assert len(merged) <= k


class TestAllocationProperties:
    @given(
        st.lists(st.integers(0, 20), min_size=0, max_size=10),
        st.integers(0, 200),
    )
    def test_allocation_totals_and_bounds(self, sizes, total):
        out = proportional_allocation(sizes, total)
        assert len(out) == len(sizes)
        assert all(v >= 0 for v in out)
        nonempty = sum(1 for s in sizes if s > 0)
        if sizes and (sum(sizes) > 0) and total >= nonempty:
            assert sum(out) == total
        if sizes and sum(sizes) == 0:
            assert sum(out) == total

    @given(st.lists(st.integers(1, 20), min_size=2, max_size=6))
    def test_monotone_in_weight(self, sizes):
        total = 10 * len(sizes)
        out = proportional_allocation(sizes, total)
        for i, a in enumerate(sizes):
            for j, b in enumerate(sizes):
                if a > b:
                    assert out[i] >= out[j] - 1


class TestMultipointProperties:
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 8), st.just(3)),
            elements=st.floats(-100, 100),
        ),
        arrays(np.float64, st.just((3,)), elements=st.floats(-100, 100)),
    )
    @settings(max_examples=40, deadline=None)
    def test_distance_bounded_by_extremes(self, points, cand):
        mq = MultipointQuery(points)
        agg = mq.distance_one(cand)
        individual = np.linalg.norm(points - cand, axis=1)
        assert individual.min() - 1e-9 <= agg <= individual.max() + 1e-9


class TestTreeProperties:
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(2, 200), st.just(4)),
            elements=st.floats(-1e3, 1e3),
        ),
        st.integers(1, 10),
    )
    @settings(max_examples=15, deadline=None)
    def test_bulk_load_knn_matches_brute_force(self, pts, k):
        tree = RStarTree(dims=4, max_entries=8)
        tree.bulk_load(pts, seed=0)
        tree.validate()
        probe = pts[0] + 1.0
        got = tree.knn(probe, k)
        dists = np.sort(np.linalg.norm(pts - probe, axis=1))
        expected = dists[: min(k, len(pts))]
        assert np.allclose(sorted(d for d, _ in got), expected)
