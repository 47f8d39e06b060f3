"""Cross-module integration tests: full pipelines end to end."""

import numpy as np
import pytest

from repro import (
    DatasetConfig,
    QueryDecompositionEngine,
    RFSConfig,
    build_rendered_database,
    build_synthetic_database,
    get_query,
)
from repro.baselines import GlobalKNN, MultipleViewpoints
from repro.eval import SimulatedUser, gtir, precision_at
from repro.eval.protocol import run_baseline_session, run_qd_session
from repro.features import FeatureExtractor
from repro.imaging.scenes import render_scene


class TestPipelineImageToResult:
    """Render → extract → index → query, with no fixtures."""

    def test_fresh_pipeline(self):
        db = build_rendered_database(
            DatasetConfig(total_images=400, n_categories=30, seed=99)
        )
        # At 400 images the paper's 5 % representative budget is too
        # thin to cover 30 categories; scale it up with the density.
        engine = QueryDecompositionEngine.build(
            db,
            RFSConfig(node_max_entries=40,
                      leaf_subclusters=3,
                      representative_fraction=0.2),
            seed=99,
        )
        query = get_query("rose")
        user = SimulatedUser(db, query, seed=99)
        result = engine.run_scripted(user.mark, k=20, seed=99)
        ids = result.flatten(20)
        assert len(ids) == 20
        assert precision_at(ids, db, query) > 0.3

    def test_query_image_outside_database(self, engine):
        """A brand-new rendered image can be projected into the
        database's normalised feature space."""
        db = engine.database
        img = render_scene("bird_owl", 32, np.random.default_rng(1234))
        raw = FeatureExtractor().extract(img)
        projected = db.normalizer.transform_one(raw)
        owl_centroid = db.features[db.ids_of_category("bird_owl")].mean(
            axis=0
        )
        rose_centroid = db.features[db.ids_of_category("rose_red")].mean(
            axis=0
        )
        assert np.linalg.norm(projected - owl_centroid) < np.linalg.norm(
            projected - rose_centroid
        )


class TestScatteredVsCompactQueries:
    def test_scattered_query_needs_multiple_groups(self, engine):
        """'bird' subconcepts live in distinct clusters → several
        localized subqueries."""
        db = engine.database
        query = get_query("bird")
        user = SimulatedUser(db, query, seed=0)
        result = engine.run_scripted(user.mark, k=40, seed=0)
        assert result.n_groups >= 2

    def test_each_group_is_subconcept_coherent(self, engine):
        """Most images in a group share the group's dominant category —
        the grouped presentation of Figure 3."""
        db = engine.database
        query = get_query("bird")
        user = SimulatedUser(db, query, seed=1)
        result = engine.run_scripted(user.mark, k=40, seed=1)
        for group in result.groups:
            ids = group.items.ids()
            if len(ids) < 4:
                continue
            cats = [db.category_of(i) for i in ids]
            dominant = max(set(cats), key=cats.count)
            assert cats.count(dominant) / len(cats) > 0.4


class TestHeadlineComparisons:
    def test_qd_gtir_reaches_one_on_most_queries(self, engine):
        hits = 0
        queries = ("person", "bird", "computer", "water_sports")
        for name in queries:
            result, _ = run_qd_session(
                engine, get_query(name), seed=7
            )
            if result.stats["gtir"] == 1.0:
                hits += 1
        assert hits >= 3

    def test_knn_confined_to_single_neighbourhood(self, engine):
        """Plain k-NN from one example misses scattered subconcepts."""
        db = engine.database
        query = get_query("person")
        technique = GlobalKNN(db, seed=0)
        records = run_baseline_session(
            technique, query, rounds=3, seed=0, example_subconcept=0
        )
        assert records[-1].gtir < 1.0

    def test_qd_beats_mv_aggregate(self, engine):
        db = engine.database
        qd_scores, mv_scores = [], []
        for name in ("bird", "person", "rose"):
            query = get_query(name)
            result, _ = run_qd_session(engine, query, seed=3)
            qd_scores.append(result.stats["precision"])
            mv = MultipleViewpoints(db, seed=3)
            recs = run_baseline_session(mv, query, rounds=3, seed=3)
            mv_scores.append(recs[-1].precision)
        assert np.mean(qd_scores) > np.mean(mv_scores)


class TestIOAccounting:
    def test_feedback_io_independent_of_db_size(self):
        """§5.2.2/§6: feedback reads only representative nodes, so the
        page count per round does not grow with the database."""
        reads = []
        for size in (600, 1800):
            db = build_synthetic_database(size, n_categories=30, seed=2)
            engine = QueryDecompositionEngine.build(
                db,
                RFSConfig(node_max_entries=60),
                seed=2,
            )
            target = db.category_names[0]
            engine.io.reset()
            engine.run_scripted(
                lambda shown: [
                    i for i in shown if db.category_of(i) == target
                ],
                k=10,
                seed=2,
            )
            reads.append(engine.io.per_category.get("feedback", 0))
        assert reads[1] <= reads[0] * 3  # near-constant, not linear

    def test_localized_knn_reads_few_pages(self, engine):
        db = engine.database
        query = get_query("rose")
        user = SimulatedUser(db, query, seed=4)
        engine.io.reset()
        engine.run_scripted(user.mark, k=20, seed=4)
        n_leaves = sum(1 for n in engine.rfs.iter_nodes() if n.is_leaf)
        knn_reads = engine.io.per_category.get("localized_knn", 0)
        assert knn_reads < n_leaves  # far from a full scan

    def test_no_global_knn_during_feedback(self, engine):
        db = engine.database
        user = SimulatedUser(db, get_query("bird"), seed=5)
        engine.io.reset()
        session = engine.new_session(seed=5)
        for _ in range(3):
            session.submit(user.mark(session.display(screens=4)))
        # Feedback rounds never touched any k-NN category.
        assert "localized_knn" not in engine.io.per_category
        assert "knn" not in engine.io.per_category


class TestNoiseRobustness:
    def test_qd_survives_noisy_users(self, engine):
        """With 20 % misses and 5 % false marks the session still
        finds most subconcepts."""
        query = get_query("bird")
        result, _ = run_qd_session(
            engine, query, seed=6, miss_rate=0.2, false_mark_rate=0.05
        )
        assert result.stats["gtir"] >= 2 / 3
        assert result.stats["precision"] > 0.3
