"""Tests for the clustering substrate: k-means, PCA, quality metrics."""

import numpy as np
import pytest

from repro.clustering.kmeans import kmeans
from repro.clustering.pca import PCA
from repro.clustering.quality import (
    cluster_separation_ratio,
    pairwise_centroid_distances,
    silhouette_score,
)
from repro.errors import ClusteringError


def _blobs(rng, centers, n_per=30, spread=0.2):
    pts, labels = [], []
    for i, c in enumerate(centers):
        pts.append(rng.normal(c, spread, size=(n_per, len(c))))
        labels.extend([i] * n_per)
    return np.vstack(pts), np.array(labels)


class TestKMeans:
    def test_recovers_well_separated_blobs(self, rng):
        data, truth = _blobs(rng, [(0, 0), (10, 10), (-10, 10)])
        result = kmeans(data, 3, seed=1)
        # Each true blob maps to exactly one k-means cluster.
        for blob in range(3):
            assigned = result.labels[truth == blob]
            assert len(set(assigned.tolist())) == 1
        assert result.inertia < 100

    def test_labels_shape_and_range(self, rng):
        data = rng.normal(size=(50, 4))
        result = kmeans(data, 5, seed=0)
        assert result.labels.shape == (50,)
        assert set(result.labels.tolist()) <= set(range(5))

    def test_k_equals_n(self, rng):
        data = rng.normal(size=(6, 2))
        result = kmeans(data, 6, seed=0)
        assert result.inertia == pytest.approx(0.0, abs=1e-12)

    def test_k_one_centroid_is_mean(self, rng):
        data = rng.normal(size=(40, 3))
        result = kmeans(data, 1, seed=0)
        assert np.allclose(result.centroids[0], data.mean(axis=0))

    def test_k_larger_than_n_rejected(self, rng):
        with pytest.raises(ClusteringError):
            kmeans(rng.normal(size=(3, 2)), 4)

    def test_k_zero_rejected(self, rng):
        with pytest.raises(ClusteringError):
            kmeans(rng.normal(size=(3, 2)), 0)

    def test_zero_restarts_rejected(self, rng):
        with pytest.raises(ClusteringError):
            kmeans(rng.normal(size=(5, 2)), 2, n_restarts=0)

    def test_deterministic_under_seed(self, rng):
        data = rng.normal(size=(60, 3))
        a = kmeans(data, 4, seed=9)
        b = kmeans(data, 4, seed=9)
        assert np.array_equal(a.labels, b.labels)
        assert a.inertia == b.inertia

    def test_duplicate_points_handled(self):
        data = np.ones((10, 2))
        result = kmeans(data, 3, seed=0)
        assert result.inertia == pytest.approx(0.0, abs=1e-12)

    def test_cluster_sizes_sum_to_n(self, rng):
        data = rng.normal(size=(45, 3))
        result = kmeans(data, 4, seed=2)
        assert result.cluster_sizes().sum() == 45

    def test_inertia_decreases_with_k(self, rng):
        data = rng.normal(size=(100, 4))
        inertias = [
            kmeans(data, k, seed=3, n_restarts=5).inertia
            for k in (1, 2, 4, 8)
        ]
        assert all(a >= b - 1e-9 for a, b in zip(inertias, inertias[1:]))


class TestPCA:
    def test_projects_to_requested_dims(self, rng):
        data = rng.normal(size=(30, 6))
        proj = PCA(n_components=2).fit_transform(data)
        assert proj.shape == (30, 2)

    def test_first_component_captures_main_axis(self, rng):
        t = rng.normal(size=200)
        data = np.column_stack([t, 2 * t, 0.01 * rng.normal(size=200)])
        pca = PCA(n_components=1).fit(data)
        assert pca.explained_variance_ratio_[0] > 0.99

    def test_components_are_orthonormal(self, rng):
        data = rng.normal(size=(50, 5))
        pca = PCA(n_components=3).fit(data)
        gram = pca.components_ @ pca.components_.T
        assert np.allclose(gram, np.eye(3), atol=1e-9)

    def test_transform_centres_data(self, rng):
        data = rng.normal(5.0, 1.0, size=(100, 4))
        proj = PCA(n_components=2).fit_transform(data)
        assert np.allclose(proj.mean(axis=0), 0.0, atol=1e-9)

    def test_inverse_transform_full_rank_roundtrip(self, rng):
        data = rng.normal(size=(20, 3))
        pca = PCA(n_components=3).fit(data)
        back = pca.inverse_transform(pca.transform(data))
        assert np.allclose(back, data, atol=1e-9)

    def test_deterministic_sign(self, rng):
        data = rng.normal(size=(40, 4))
        a = PCA(n_components=2).fit(data).components_
        b = PCA(n_components=2).fit(data).components_
        assert np.allclose(a, b)

    def test_too_many_components_rejected(self, rng):
        with pytest.raises(ClusteringError):
            PCA(n_components=5).fit(rng.normal(size=(3, 4)))

    def test_zero_components_rejected(self):
        with pytest.raises(ClusteringError):
            PCA(n_components=0)

    def test_use_before_fit_raises(self, rng):
        with pytest.raises(ClusteringError):
            PCA(n_components=1).transform(rng.normal(size=(3, 2)))

    def test_variance_ratios_sorted_and_bounded(self, rng):
        data = rng.normal(size=(60, 6)) * np.array([5, 4, 3, 2, 1, 0.5])
        pca = PCA(n_components=4).fit(data)
        ratios = pca.explained_variance_ratio_
        assert np.all(ratios[:-1] >= ratios[1:] - 1e-12)
        assert 0 < ratios.sum() <= 1.0 + 1e-12


class TestQualityMetrics:
    def test_centroid_distances_symmetric(self, rng):
        data, labels = _blobs(rng, [(0, 0), (5, 0), (0, 5)])
        dist = pairwise_centroid_distances(data, labels)
        assert dist.shape == (3, 3)
        assert np.allclose(dist, dist.T)
        assert np.allclose(np.diag(dist), 0.0)

    def test_centroid_distances_match_geometry(self, rng):
        data, labels = _blobs(rng, [(0, 0), (10, 0)], spread=0.01)
        dist = pairwise_centroid_distances(data, labels)
        assert dist[0, 1] == pytest.approx(10.0, abs=0.1)

    def test_separation_high_for_far_blobs(self, rng):
        data, labels = _blobs(rng, [(0, 0), (20, 0)], spread=0.5)
        assert cluster_separation_ratio(data, labels) > 5

    def test_separation_low_for_overlapping_blobs(self, rng):
        data, labels = _blobs(rng, [(0, 0), (0.5, 0)], spread=1.0)
        assert cluster_separation_ratio(data, labels) < 1

    def test_separation_needs_two_clusters(self, rng):
        data = rng.normal(size=(10, 2))
        with pytest.raises(ClusteringError):
            cluster_separation_ratio(data, np.zeros(10, dtype=int))

    def test_silhouette_near_one_for_far_blobs(self, rng):
        data, labels = _blobs(rng, [(0, 0), (50, 0)], spread=0.1)
        assert silhouette_score(data, labels) > 0.95

    def test_silhouette_near_zero_for_random_labels(self, rng):
        data = rng.normal(size=(60, 2))
        labels = rng.integers(0, 2, size=60)
        assert abs(silhouette_score(data, labels)) < 0.2

    def test_silhouette_needs_two_clusters(self, rng):
        with pytest.raises(ClusteringError):
            silhouette_score(rng.normal(size=(10, 2)),
                             np.zeros(10, dtype=int))

    def test_label_shape_mismatch_rejected(self, rng):
        with pytest.raises(ClusteringError):
            silhouette_score(rng.normal(size=(10, 2)),
                             np.zeros(5, dtype=int))

    def test_singleton_cluster_silhouette_zero_contribution(self, rng):
        data = np.vstack([rng.normal(0, 0.1, (10, 2)),
                          np.array([[50.0, 50.0]])])
        labels = np.array([0] * 10 + [1])
        # Does not raise; the singleton contributes 0.
        score = silhouette_score(data, labels)
        assert -1.0 <= score <= 1.0
