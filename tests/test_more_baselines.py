"""Tests for the Fagin merge baseline, the full-metric QPM mode, and the
noise sweep."""

import numpy as np
import pytest

from repro.baselines.fagin import FaginMerge
from repro.baselines.qpm import QueryPointMovement
from repro.datasets.build import build_synthetic_database
from repro.errors import ConfigurationError, QueryError


@pytest.fixture(scope="module")
def feature_db():
    return build_synthetic_database(800, n_categories=25, dims=37, seed=4)


class TestFaginMerge:
    def test_matches_brute_force_aggregate(self, feature_db):
        technique = FaginMerge(feature_db, seed=0)
        technique.begin([10])
        got = technique.retrieve(15).ids()
        scores = technique._score(feature_db.features)
        truth = np.argsort(scores, kind="stable")[:15]
        assert sorted(got) == sorted(int(i) for i in truth)

    def test_instance_optimal_depth(self, feature_db):
        """FA stops sorted access far before scanning everything."""
        technique = FaginMerge(feature_db, seed=0)
        technique.begin([10])
        technique.retrieve(10)
        assert technique.sorted_access_depth < feature_db.size / 4

    def test_k_larger_than_database(self, feature_db):
        technique = FaginMerge(feature_db, seed=0)
        technique.begin([0])
        assert len(technique.retrieve(10_000)) == feature_db.size

    def test_example_ranks_first(self, feature_db):
        technique = FaginMerge(feature_db, seed=0)
        technique.begin([42])
        assert technique.retrieve(1).ids() == [42]

    def test_invalid_k(self, feature_db):
        technique = FaginMerge(feature_db, seed=0)
        technique.begin([0])
        with pytest.raises(QueryError):
            technique.retrieve(0)

    def test_subsystem_confinement(self, rendered_db):
        """Fagin merging is still a single-query technique: it misses
        scattered subconcepts like the rest of the family."""
        from repro.datasets.queryset import get_query
        from repro.eval.protocol import run_baseline_session

        technique = FaginMerge(rendered_db, seed=0)
        records = run_baseline_session(
            technique, get_query("bird"), rounds=3, seed=0,
            example_subconcept=0,
        )
        assert records[-1].gtir < 1.0

    def test_wrong_dims_config_rejected(self, feature_db):
        from repro.config import FeatureConfig

        with pytest.raises(QueryError):
            FaginMerge(
                feature_db,
                feature_config=FeatureConfig(
                    color_dims=3, texture_dims=4, edge_dims=18,
                    image_size=32, wavelet_levels=1,
                ),
            )


class TestQPMFullMetric:
    def test_full_metric_runs(self, feature_db):
        technique = QueryPointMovement(feature_db, metric="full", seed=0)
        technique.begin([0])
        technique.feedback([1, 2, 3, 4, 5])
        assert len(technique.retrieve(10)) == 10

    def test_full_metric_uses_matrix(self, feature_db):
        technique = QueryPointMovement(feature_db, metric="full", seed=0)
        technique.begin([0])
        technique.feedback([1, 2, 3, 4])
        assert technique._matrix is not None
        # Symmetric positive (trace-normalised).
        m = technique._matrix
        assert np.allclose(m, m.T)
        assert np.trace(m) == pytest.approx(feature_db.dims)

    def test_single_example_falls_back(self, feature_db):
        technique = QueryPointMovement(feature_db, metric="full", seed=0)
        technique.begin([0])
        assert technique._matrix is None

    def test_invalid_metric_rejected(self, feature_db):
        with pytest.raises(ConfigurationError):
            QueryPointMovement(feature_db, metric="circular")

    def test_full_beats_diagonal_on_correlated_cluster(self, rng):
        """The matrix form exploits correlated relevant dimensions: a
        relevant cluster elongated along x=y inside an isotropic
        distractor cloud is invisible to per-dimension weights (both
        variances are large) but obvious to the inverse covariance."""
        t = rng.uniform(-3, 3, size=(40, 1))
        relevant = t * np.array([[1.0, 1.0]]) + rng.normal(
            0, 0.08, size=(40, 2)
        )
        distractors = rng.normal(0, 1.6, size=(260, 2))
        base = np.vstack([relevant, distractors])
        from repro.datasets.database import ImageDatabase
        from repro.features.normalize import FeatureNormalizer

        norm = FeatureNormalizer().fit(base)
        db = ImageDatabase(
            features=norm.transform(base),
            labels=np.array([0] * 40 + [1] * 260),
            category_names=["target", "rest"],
            normalizer=norm,
        )

        def hits(metric: str) -> int:
            technique = QueryPointMovement(
                db, metric=metric, seed=0, ridge=0.05
            )
            technique.begin([0])
            technique.feedback(list(range(1, 12)))
            got = technique.retrieve(40).ids()
            return sum(1 for i in got if i < 40)

        assert hits("full") > hits("diagonal") + 5


class TestNoiseSweep:
    def test_small_sweep(self, engine):
        from repro.datasets.queryset import get_query
        from repro.eval.robustness import run_noise_sweep

        result = run_noise_sweep(
            engine,
            noise_levels=((0.0, 0.0), (0.4, 0.1)),
            queries=[get_query("bird")],
            trials=1,
            seed=0,
        )
        assert len(result.points) == 2
        clean, noisy = result.points
        assert clean.qd_precision >= noisy.qd_precision - 0.2
        assert "robustness" in result.format()

    def test_empty_levels_rejected(self, engine):
        from repro.errors import EvaluationError
        from repro.eval.robustness import run_noise_sweep

        with pytest.raises(EvaluationError):
            run_noise_sweep(engine, noise_levels=())
