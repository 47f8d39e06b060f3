"""Tests for retrieval primitives: distances, multipoint, top-k, merge."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QueryError
from repro.retrieval.distance import (
    euclidean,
    euclidean_many,
    inverse_variance_weights,
    quadratic_form_distance,
    weighted_euclidean,
)
from repro.retrieval.multipoint import MultipointQuery
from repro.retrieval.topk import (
    RankedList,
    merge_ranked_lists,
    proportional_allocation,
    top_k,
)


class TestDistances:
    def test_euclidean_basic(self):
        assert euclidean(np.array([0.0, 0.0]),
                         np.array([3.0, 4.0])) == pytest.approx(5.0)

    def test_euclidean_many_matches_loop(self, rng):
        pts = rng.normal(size=(20, 4))
        q = rng.normal(size=4)
        batch = euclidean_many(pts, q)
        for i in range(20):
            assert batch[i] == pytest.approx(euclidean(pts[i], q))

    def test_weighted_reduces_to_euclidean_with_unit_weights(self, rng):
        pts = rng.normal(size=(10, 3))
        q = rng.normal(size=3)
        assert np.allclose(
            weighted_euclidean(pts, q, np.ones(3)),
            euclidean_many(pts, q),
        )

    def test_weighted_zero_weight_ignores_dimension(self):
        pts = np.array([[0.0, 100.0]])
        q = np.array([0.0, 0.0])
        w = np.array([1.0, 0.0])
        assert weighted_euclidean(pts, q, w)[0] == pytest.approx(0.0)

    def test_weighted_negative_weight_rejected(self, rng):
        with pytest.raises(QueryError):
            weighted_euclidean(
                rng.normal(size=(3, 2)), np.zeros(2),
                np.array([1.0, -1.0]),
            )

    def test_quadratic_identity_matches_euclidean(self, rng):
        pts = rng.normal(size=(10, 3))
        q = rng.normal(size=3)
        assert np.allclose(
            quadratic_form_distance(pts, q, np.eye(3)),
            euclidean_many(pts, q),
        )

    def test_quadratic_asymmetric_rejected(self, rng):
        bad = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(QueryError):
            quadratic_form_distance(
                rng.normal(size=(3, 2)), np.zeros(2), bad
            )

    def test_quadratic_wrong_shape_rejected(self, rng):
        with pytest.raises(QueryError):
            quadratic_form_distance(
                rng.normal(size=(3, 2)), np.zeros(2), np.eye(3)
            )

    def test_inverse_variance_weights_favour_tight_dims(self, rng):
        tight = rng.normal(0, 0.01, size=50)
        loose = rng.normal(0, 10.0, size=50)
        weights = inverse_variance_weights(
            np.column_stack([tight, loose])
        )
        assert weights[0] > weights[1]

    def test_inverse_variance_weights_normalised(self, rng):
        relevant = rng.normal(size=(30, 5))
        weights = inverse_variance_weights(relevant)
        assert weights.sum() == pytest.approx(5.0)


class TestMultipointQuery:
    def test_single_point_reduces_to_euclidean(self, rng):
        p = rng.normal(size=3)
        mq = MultipointQuery(p[None, :])
        cand = rng.normal(size=(5, 3))
        assert np.allclose(mq.distances(cand), euclidean_many(cand, p))

    def test_uniform_weights_average_distances(self):
        mq = MultipointQuery(np.array([[0.0, 0.0], [2.0, 0.0]]))
        got = mq.distances(np.array([[0.0, 0.0]]))[0]
        assert got == pytest.approx(1.0)  # (0 + 2) / 2

    def test_explicit_weights(self):
        mq = MultipointQuery(
            np.array([[0.0, 0.0], [2.0, 0.0]]), weights=[3.0, 1.0]
        )
        got = mq.distances(np.array([[0.0, 0.0]]))[0]
        assert got == pytest.approx(0.25 * 2.0)

    def test_weights_normalised(self):
        mq = MultipointQuery(np.zeros((2, 2)), weights=[2.0, 2.0])
        assert np.allclose(mq.weights, [0.5, 0.5])

    def test_centroid_weighted(self):
        mq = MultipointQuery(
            np.array([[0.0, 0.0], [4.0, 0.0]]), weights=[1.0, 3.0]
        )
        assert np.allclose(mq.centroid(), [3.0, 0.0])

    def test_distance_one(self, rng):
        pts = rng.normal(size=(3, 4))
        mq = MultipointQuery(pts)
        cand = rng.normal(size=4)
        assert mq.distance_one(cand) == pytest.approx(
            mq.distances(cand[None, :])[0]
        )

    def test_empty_rejected(self):
        with pytest.raises(QueryError):
            MultipointQuery(np.empty((0, 3)))

    def test_bad_weights_rejected(self):
        with pytest.raises(QueryError):
            MultipointQuery(np.zeros((2, 2)), weights=[1.0])
        with pytest.raises(QueryError):
            MultipointQuery(np.zeros((2, 2)), weights=[-1.0, 2.0])

    def test_from_relevant_clusters(self, rng):
        relevant = np.vstack([
            rng.normal(0, 0.1, size=(6, 2)),
            rng.normal(10, 0.1, size=(2, 2)),
        ])
        labels = np.array([0] * 6 + [1] * 2)
        centroids = np.array([[0.0, 0.0], [10.0, 10.0]])
        mq = MultipointQuery.from_relevant_clusters(
            relevant, labels, centroids
        )
        assert mq.size == 2
        # Bigger cluster gets proportionally larger weight.
        assert mq.weights[0] == pytest.approx(0.75)

    def test_from_relevant_clusters_skips_empty(self, rng):
        relevant = rng.normal(size=(4, 2))
        labels = np.zeros(4, dtype=int)
        centroids = np.array([[0.0, 0.0], [50.0, 50.0]])
        mq = MultipointQuery.from_relevant_clusters(
            relevant, labels, centroids
        )
        assert mq.size == 1


class TestTopK:
    def test_returns_lowest_scores(self):
        scores = np.array([5.0, 1.0, 3.0, 2.0])
        rl = top_k(scores, [10, 11, 12, 13], 2)
        assert rl.ids() == [11, 13]

    def test_k_larger_than_n(self):
        rl = top_k(np.array([1.0, 2.0]), [0, 1], 10)
        assert len(rl) == 2

    def test_mismatched_ids_rejected(self):
        with pytest.raises(QueryError):
            top_k(np.array([1.0]), [0, 1], 1)

    def test_invalid_k_rejected(self):
        with pytest.raises(QueryError):
            top_k(np.array([1.0]), [0], 0)

    def test_tie_broken_by_id(self):
        rl = top_k(np.array([1.0, 1.0, 1.0]), [5, 3, 4], 3)
        assert rl.ids() == [3, 4, 5]


class TestRankedList:
    def test_from_pairs_sorts(self):
        rl = RankedList.from_pairs([(0.9, 1), (0.1, 2), (0.5, 3)])
        assert rl.ids() == [2, 3, 1]

    def test_truncate(self):
        rl = RankedList.from_pairs([(0.1, 1), (0.2, 2), (0.3, 3)])
        assert rl.truncate(2).ids() == [1, 2]

    def test_total_score(self):
        rl = RankedList.from_pairs([(0.1, 1), (0.2, 2)])
        assert rl.total_score() == pytest.approx(0.3)

    def test_len_and_iter(self):
        rl = RankedList.from_pairs([(0.1, 1)])
        assert len(rl) == 1
        assert [it.item_id for it in rl] == [1]


class TestMergeRankedLists:
    def test_merge_takes_global_best(self):
        a = RankedList.from_pairs([(0.1, 1), (0.5, 2)])
        b = RankedList.from_pairs([(0.2, 3), (0.3, 4)])
        merged = merge_ranked_lists([a, b], k=3)
        assert merged.ids() == [1, 3, 4]

    def test_dedupe_keeps_best_score(self):
        a = RankedList.from_pairs([(0.5, 1)])
        b = RankedList.from_pairs([(0.1, 1)])
        merged = merge_ranked_lists([a, b], k=1)
        assert merged.items[0].score == pytest.approx(0.1)

    def test_invalid_k(self):
        with pytest.raises(QueryError):
            merge_ranked_lists([], k=0)

    def test_empty_input(self):
        assert len(merge_ranked_lists([], k=5)) == 0


class TestProportionalAllocation:
    def test_exact_split(self):
        assert proportional_allocation([1, 1], 10) == [5, 5]

    def test_proportional(self):
        assert proportional_allocation([3, 1], 8) == [6, 2]

    def test_total_preserved(self, rng):
        for _ in range(50):
            sizes = rng.integers(0, 10, size=5).tolist()
            total = int(rng.integers(0, 30))
            out = proportional_allocation(sizes, total)
            if sum(1 for s in sizes if s > 0) <= total:
                assert sum(out) == total
            assert all(v >= 0 for v in out)

    def test_nonempty_groups_get_at_least_one(self):
        out = proportional_allocation([100, 1], 10)
        assert out[1] >= 1

    def test_zero_weight_groups_get_nothing(self):
        out = proportional_allocation([5, 0, 5], 10)
        assert out[1] == 0

    def test_all_zero_weights_spread_evenly(self):
        out = proportional_allocation([0, 0, 0], 6)
        assert out == [2, 2, 2]

    def test_zero_total(self):
        assert proportional_allocation([3, 4], 0) == [0, 0]

    def test_negative_total_rejected(self):
        with pytest.raises(QueryError):
            proportional_allocation([1], -1)

    def test_empty_groups(self):
        assert proportional_allocation([], 5) == []

    def test_one_heavy_group_and_many_singletons(self):
        # The floor of one slot per group overshoots by 11 here; every
        # excess slot must come back off the heavy group.
        out = proportional_allocation([40] + [1] * 20, 25)
        assert out == [5] + [1] * 20

    @settings(max_examples=300, deadline=None)
    @given(
        # A few groups of any size beside many singletons, and totals
        # near the number of non-empty groups: the one-slot floor then
        # overshoots by the most, with the fewest groups to take from.
        others=st.lists(st.integers(0, 200), max_size=6),
        singletons=st.integers(0, 40),
        slack=st.integers(-10, 400),
    )
    def test_sum_is_exact_and_nonempty_groups_get_a_slot(
        self, others, singletons, slack
    ):
        sizes = others + [1] * singletons
        total = max(0, sum(1 for s in sizes if s > 0) + slack)
        out = proportional_allocation(sizes, total)
        assert len(out) == len(sizes)
        assert all(v >= 0 for v in out)
        if sizes:
            assert sum(out) == total
        nonempty = [i for i, s in enumerate(sizes) if s > 0]
        if nonempty and total >= len(nonempty):
            assert all(out[i] >= 1 for i in nonempty)
            assert all(out[i] == 0 for i, s in enumerate(sizes) if s == 0)

    def test_paper_merge_rule(self):
        """§3.4: result count proportional to marked query images."""
        out = proportional_allocation([4, 2, 2], 24)
        assert out == [12, 6, 6]
