"""Tests for the R*-tree partition and the RFS tree built from it."""

import numpy as np
import pytest

from repro.config import RFSConfig
from repro.errors import ConfigurationError
from repro.index.incremental import validate_structure
from repro.index.rfs import RFSStructure
from repro.index.rstar import bisect_levels, split_min_entries
from tests.conftest import brute_force_knn


def leaf_sets(levels):
    return sorted(tuple(sorted(g.tolist())) for g in levels[0].groups)


class TestConstruction:
    def test_invalid_dims(self):
        with pytest.raises(ConfigurationError):
            bisect_levels(np.zeros(5), max_entries=8)
        with pytest.raises(ConfigurationError):
            bisect_levels(np.zeros((5, 0)), max_entries=8)

    def test_invalid_max_entries(self, rng):
        with pytest.raises(ConfigurationError):
            bisect_levels(rng.random((5, 2)), max_entries=3)


class TestBulkLoad:
    def test_sizes_and_invariants(self, rng):
        rfs = RFSStructure.build(
            rng.normal(size=(333, 6)), RFSConfig(node_max_entries=10), seed=1
        )
        assert rfs.root.size == 333
        assert validate_structure(rfs) == []

    def test_respects_node_capacity(self, rng):
        levels = bisect_levels(rng.normal(size=(500, 3)), 12, seed=2)
        assert len(levels[-1].groups) == 1
        low = split_min_entries(12)
        for level in levels[:-1]:
            for group in level.groups:
                assert low <= len(group) <= 12
        assert 1 <= len(levels[-1].groups[0]) <= 12

    def test_zero_points_rejected(self):
        with pytest.raises(ConfigurationError):
            bisect_levels(np.empty((0, 2)), max_entries=8)
        with pytest.raises(ConfigurationError):
            RFSStructure.build(np.empty((0, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", ["bisect_levels", "build"])
    def test_non_finite_points_rejected(self, rng, entry, bad):
        # A NaN row fails every ``da <= db`` and would land wherever the
        # balanced cut fell.
        pts = rng.normal(size=(60, 3))
        pts[41, 1] = bad
        with pytest.raises(ConfigurationError, match="non-finite"):
            if entry == "build":
                RFSStructure.build(pts, RFSConfig(node_max_entries=8))
            else:
                bisect_levels(pts, 8, seed=4)

    def test_single_point(self):
        levels = bisect_levels(np.array([[0.5, 0.5]]), max_entries=8)
        assert len(levels) == 1
        assert [g.tolist() for g in levels[0].groups] == [[0]]
        rfs = RFSStructure.build(np.array([[0.5, 0.5]]))
        assert rfs.height == 1
        assert rfs.root.item_ids.tolist() == [0]

    def test_separates_natural_clusters(self, rng):
        """Two far-apart blobs should not share a leaf."""
        a = rng.normal(0, 0.5, size=(40, 2))
        b = rng.normal(100, 0.5, size=(40, 2))
        levels = bisect_levels(np.vstack([a, b]), 50, seed=3)
        assert len(levels[0].groups) >= 2
        for group in levels[0].groups:
            assert len({0 if i < 40 else 1 for i in group}) == 1

    def test_deterministic_under_seed(self, rng):
        pts = rng.normal(size=(200, 4))
        first = bisect_levels(pts, 10, seed=5)
        again = bisect_levels(pts, 10, seed=5)
        assert leaf_sets(first) == leaf_sets(again)
        for one, two in zip(first, again):
            assert np.array_equal(one.lo, two.lo)
            assert np.array_equal(one.hi, two.hi)


class TestHighDimensional:
    def test_37d_paper_configuration(self, rng):
        """The paper's setting: 37-d features, 100 entries per node."""
        pts = rng.normal(size=(2000, 37))
        rfs = RFSStructure.build(pts, RFSConfig(), seed=0)
        assert validate_structure(rfs) == []
        assert rfs.height >= 2
        query = rng.normal(size=37)
        got = rfs.localized_knn(rfs.root, query, 5)
        assert got.ids() == brute_force_knn(pts, query, 5).ids()
