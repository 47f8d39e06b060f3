"""Micro-benchmarks of the substrate operations.

Not a paper table — these time the building blocks (feature extraction,
k-means, RFS construction, localized k-NN) so regressions in the
substrates are visible independently of the end-to-end experiments.
"""

import numpy as np
import pytest

from repro.clustering.kmeans import kmeans
from repro.config import RFSConfig
from repro.features.extractor import FeatureExtractor
from repro.imaging.scenes import render_scene
from repro.index.rfs import RFSStructure


@pytest.fixture(scope="module")
def feature_points():
    return np.random.default_rng(0).normal(size=(5_000, 37))


def test_bench_feature_extraction(benchmark):
    rng = np.random.default_rng(1)
    image = render_scene("computer_desktop", 32, rng)
    extractor = FeatureExtractor()
    vector = benchmark(extractor.extract, image)
    assert vector.shape == (37,)


def test_bench_scene_rendering(benchmark):
    rng = np.random.default_rng(2)
    image = benchmark(render_scene, "mountain_water", 32, rng)
    assert image.shape == (32, 32, 3)


def test_bench_kmeans_100x37_k5(benchmark, feature_points):
    data = feature_points[:100]
    result = benchmark(kmeans, data, 5, seed=0, n_restarts=1)
    assert result.k == 5


def test_bench_rfs_build_5k(benchmark, feature_points):
    def build():
        return RFSStructure.build(
            feature_points, RFSConfig(), seed=0
        )

    rfs = benchmark.pedantic(build, rounds=3, iterations=1)
    assert rfs.root.size == 5_000


def test_bench_localized_knn(benchmark, feature_points):
    rfs = RFSStructure.build(feature_points, RFSConfig(), seed=0)
    leaf = rfs.leaf_of_item(0)
    result = benchmark(
        rfs.localized_knn, leaf, feature_points[0], 20
    )
    assert result
