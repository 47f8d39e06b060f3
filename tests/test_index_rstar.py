"""Tests for the R*-tree: bulk load, k-NN, invariants."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, EmptyIndexError
from repro.index.rstar import RStarTree


def brute_knn(points, query, k):
    dists = np.linalg.norm(points - query, axis=1)
    order = np.argsort(dists, kind="stable")[:k]
    return sorted(
        (float(dists[i]), int(i)) for i in order
    )


def assert_knn_equal(got, truth):
    """Same neighbour ids; distances equal to float tolerance."""
    assert sorted(i for _, i in got) == sorted(i for _, i in truth)
    assert np.allclose(
        sorted(d for d, _ in got), sorted(d for d, _ in truth)
    )


class TestConstruction:
    def test_invalid_dims(self):
        with pytest.raises(ConfigurationError):
            RStarTree(dims=0)

    def test_invalid_max_entries(self):
        with pytest.raises(ConfigurationError):
            RStarTree(dims=2, max_entries=3)

    def test_empty_tree(self):
        tree = RStarTree(dims=2)
        assert len(tree) == 0
        assert tree.height == 1


class TestKnn:
    def test_matches_brute_force_after_bulk_load(self, rng):
        pts = rng.normal(size=(500, 5))
        tree = RStarTree(dims=5, max_entries=16)
        tree.bulk_load(pts, seed=0)
        query = rng.normal(size=5)
        assert_knn_equal(tree.knn(query, 10), brute_knn(pts, query, 10))

    def test_k_larger_than_n(self, rng):
        pts = rng.random((5, 2))
        tree = RStarTree(dims=2, max_entries=4)
        tree.bulk_load(pts)
        assert len(tree.knn(np.zeros(2), 10)) == 5

    def test_empty_tree_raises(self):
        with pytest.raises(EmptyIndexError):
            RStarTree(dims=2).knn(np.zeros(2), 1)

    def test_invalid_k(self, rng):
        tree = RStarTree(dims=2)
        tree.bulk_load(rng.random((5, 2)))
        with pytest.raises(ConfigurationError):
            tree.knn(np.zeros(2), 0)

    def test_filter_fn(self, rng):
        pts = rng.random((50, 2))
        tree = RStarTree(dims=2, max_entries=8)
        tree.bulk_load(pts)
        got = tree.knn(np.zeros(2), 5, filter_fn=lambda i: i % 2 == 0)
        assert all(i % 2 == 0 for _, i in got)

    def test_counts_io(self, rng):
        tree = RStarTree(dims=2, max_entries=8)
        tree.bulk_load(rng.random((100, 2)))
        tree.io.reset()
        tree.knn(np.zeros(2), 3, io_category="probe")
        assert tree.io.per_category.get("probe", 0) >= 1

    def test_results_sorted_by_distance(self, rng):
        tree = RStarTree(dims=3, max_entries=8)
        tree.bulk_load(rng.normal(size=(200, 3)))
        got = tree.knn(np.zeros(3), 12)
        dists = [d for d, _ in got]
        assert dists == sorted(dists)


class TestBulkLoad:
    def test_sizes_and_invariants(self, rng):
        tree = RStarTree(dims=6, max_entries=10)
        tree.bulk_load(rng.normal(size=(333, 6)), seed=1)
        assert len(tree) == 333
        tree.validate()

    def test_respects_node_capacity(self, rng):
        tree = RStarTree(dims=3, max_entries=12)
        tree.bulk_load(rng.normal(size=(500, 3)), seed=2)
        for node in tree.iter_nodes():
            assert len(node.entries) <= 12

    def test_custom_item_ids(self, rng):
        tree = RStarTree(dims=2, max_entries=8)
        ids = [100 + i for i in range(20)]
        tree.bulk_load(rng.random((20, 2)), item_ids=ids)
        got = {i for _, i in tree.knn(np.zeros(2), 20)}
        assert got == set(ids)

    def test_id_length_mismatch_rejected(self, rng):
        tree = RStarTree(dims=2)
        with pytest.raises(ConfigurationError):
            tree.bulk_load(rng.random((5, 2)), item_ids=[1, 2])

    def test_zero_points_rejected(self):
        tree = RStarTree(dims=2)
        with pytest.raises(ConfigurationError):
            tree.bulk_load(np.empty((0, 2)))

    def test_wrong_dims_rejected(self, rng):
        tree = RStarTree(dims=3)
        with pytest.raises(ConfigurationError):
            tree.bulk_load(rng.random((5, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("method", ["bulk_load", "bulk_load_str"])
    def test_non_finite_points_rejected(self, rng, method, bad):
        # A NaN row fails every ``da <= db`` and used to land wherever
        # the balanced cut fell; the tree must stay as it was.
        pts = rng.normal(size=(60, 3))
        tree = RStarTree(dims=3, max_entries=8)
        tree.bulk_load(pts, seed=4)
        pts[41, 1] = bad
        with pytest.raises(ConfigurationError, match="non-finite"):
            getattr(tree, method)(pts)
        assert len(tree) == 60
        tree.validate()

    def test_single_point(self):
        tree = RStarTree(dims=2)
        tree.bulk_load(np.array([[0.5, 0.5]]))
        assert len(tree) == 1
        assert tree.height == 1

    def test_separates_natural_clusters(self, rng):
        """Two far-apart blobs should not share a leaf."""
        a = rng.normal(0, 0.5, size=(40, 2))
        b = rng.normal(100, 0.5, size=(40, 2))
        tree = RStarTree(dims=2, max_entries=50)
        tree.bulk_load(np.vstack([a, b]), seed=3)
        for leaf in tree.iter_leaves():
            ids = [e.item_id for e in leaf.entries]
            sides = {0 if i < 40 else 1 for i in ids}
            assert len(sides) == 1

    def test_deterministic_under_seed(self, rng):
        pts = rng.normal(size=(200, 4))
        t1 = RStarTree(dims=4, max_entries=10)
        t1.bulk_load(pts, seed=5)
        t2 = RStarTree(dims=4, max_entries=10)
        t2.bulk_load(pts, seed=5)
        leaves1 = sorted(
            tuple(sorted(e.item_id for e in leaf.entries))
            for leaf in t1.iter_leaves()
        )
        leaves2 = sorted(
            tuple(sorted(e.item_id for e in leaf.entries))
            for leaf in t2.iter_leaves()
        )
        assert leaves1 == leaves2


class TestHighDimensional:
    def test_37d_paper_configuration(self, rng):
        """The paper's setting: 37-d features, 100 entries per node."""
        pts = rng.normal(size=(2000, 37))
        tree = RStarTree(dims=37, max_entries=100)
        tree.bulk_load(pts, seed=0)
        tree.validate()
        assert tree.height >= 2
        query = rng.normal(size=37)
        assert_knn_equal(tree.knn(query, 5), brute_knn(pts, query, 5))
