"""Tests for the STR bulk load."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.index.rstar import RStarTree


class TestStrBulkLoad:
    def test_sizes_and_invariants(self, rng):
        tree = RStarTree(dims=5, max_entries=10)
        tree.bulk_load_str(rng.normal(size=(437, 5)))
        assert len(tree) == 437
        tree.validate()

    def test_knn_matches_brute_force(self, rng):
        pts = rng.normal(size=(400, 6))
        tree = RStarTree(dims=6, max_entries=16)
        tree.bulk_load_str(pts)
        query = rng.normal(size=6)
        got = sorted(i for _, i in tree.knn(query, 9))
        dists = np.linalg.norm(pts - query, axis=1)
        truth = sorted(
            int(i) for i in np.argsort(dists, kind="stable")[:9]
        )
        assert got == truth

    def test_leaves_well_packed(self, rng):
        """STR packs leaves densely (recursive tiling keeps fill high)."""
        tree = RStarTree(dims=3, max_entries=10)
        tree.bulk_load_str(rng.normal(size=(95, 3)))
        sizes = [len(leaf.entries) for leaf in tree.iter_leaves()]
        assert sum(sizes) == 95
        assert max(sizes) <= 10
        assert np.mean(sizes) >= 6.0  # >= 60% average fill

    def test_deterministic(self, rng):
        pts = rng.normal(size=(200, 4))
        def leaf_sets(tree):
            return sorted(
                tuple(sorted(e.item_id for e in leaf.entries))
                for leaf in tree.iter_leaves()
            )
        a = RStarTree(dims=4, max_entries=12)
        a.bulk_load_str(pts)
        b = RStarTree(dims=4, max_entries=12)
        b.bulk_load_str(pts)
        assert leaf_sets(a) == leaf_sets(b)

    def test_custom_sort_dims(self, rng):
        pts = rng.normal(size=(80, 3))
        tree = RStarTree(dims=3, max_entries=8)
        tree.bulk_load_str(pts, sort_dims=[2, 0])
        tree.validate()

    def test_custom_ids(self, rng):
        pts = rng.normal(size=(30, 2))
        tree = RStarTree(dims=2, max_entries=8)
        tree.bulk_load_str(pts, item_ids=[100 + i for i in range(30)])
        got = {i for _, i in tree.knn(np.zeros(2), 30)}
        assert got == {100 + i for i in range(30)}

    def test_zero_points_rejected(self):
        tree = RStarTree(dims=2)
        with pytest.raises(ConfigurationError):
            tree.bulk_load_str(np.empty((0, 2)))

    def test_id_mismatch_rejected(self, rng):
        tree = RStarTree(dims=2)
        with pytest.raises(ConfigurationError):
            tree.bulk_load_str(rng.normal(size=(5, 2)), item_ids=[1])

    def test_single_point(self):
        tree = RStarTree(dims=2)
        tree.bulk_load_str(np.array([[0.1, 0.2]]))
        assert tree.height == 1
        assert len(tree) == 1

    def test_str_vs_clustering_margin(self, rng):
        """On clustered data the clustering load yields tighter leaves
        (lower total margin) than coordinate tiling — the reason it is
        the default for the RFS structure."""
        centers = rng.normal(0, 10, size=(8, 4))
        pts = np.vstack([
            rng.normal(c, 0.3, size=(50, 4)) for c in centers
        ])
        def total_leaf_margin(tree):
            return sum(
                leaf.mbr().margin() for leaf in tree.iter_leaves()
            )
        str_tree = RStarTree(dims=4, max_entries=25)
        str_tree.bulk_load_str(pts)
        cluster_tree = RStarTree(dims=4, max_entries=25)
        cluster_tree.bulk_load(pts, seed=0)
        assert total_leaf_margin(cluster_tree) <= total_leaf_margin(
            str_tree
        )

