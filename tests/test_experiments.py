"""Tests for the experiment drivers (small-scale sanity of every table/figure)."""

import numpy as np
import pytest

from repro.core.session import FeedbackSession
from repro.datasets.queryset import TABLE1_QUERIES, get_query
from repro.errors import EvaluationError, SessionStateError
from repro.eval.experiments import (
    CASE_STUDIES,
    run_case_studies,
    run_figure1,
    run_scalability,
    run_table1,
    run_table2,
)
from repro.eval.robustness import run_noise_sweep
from repro.index.rfs import RFSStructure


@pytest.fixture(scope="module")
def quality_queries():
    """A 4-query subset keeping the experiment tests quick."""
    return [get_query(n) for n in ("bird", "airplane", "rose", "computer")]


class TestTable1:
    def test_rows_and_averages(self, engine, quality_queries):
        result = run_table1(
            engine, queries=quality_queries, trials=1, seed=0
        )
        assert len(result.rows) == 4
        avg = result.averages()
        assert 0.0 <= avg.mv_precision <= 1.0
        assert 0.0 <= avg.qd_gtir <= 1.0

    def test_qd_beats_mv_on_average(self, engine, quality_queries):
        result = run_table1(
            engine, queries=quality_queries, trials=1, seed=1
        )
        avg = result.averages()
        assert avg.qd_precision > avg.mv_precision
        assert avg.qd_gtir >= avg.mv_gtir

    def test_format_contains_all_queries(self, engine, quality_queries):
        result = run_table1(
            engine, queries=quality_queries, trials=1, seed=2
        )
        text = result.format()
        for query in quality_queries:
            assert query.description in text
        assert "Average" in text

    def test_empty_rows_average_raises(self):
        from repro.eval.experiments import Table1Result

        with pytest.raises(EvaluationError):
            Table1Result(rows=[]).averages()


class TestTable2:
    def test_row_structure(self, engine, quality_queries):
        result = run_table2(
            engine, queries=quality_queries, trials=1, seed=0
        )
        assert [r.round for r in result.rows] == [1, 2, 3]
        assert result.rows[0].qd_precision is None
        assert result.rows[1].qd_precision is None
        assert result.rows[2].qd_precision is not None

    def test_qd_gtir_monotone(self, engine, quality_queries):
        result = run_table2(
            engine, queries=quality_queries, trials=1, seed=1
        )
        gtirs = [r.qd_gtir for r in result.rows]
        assert all(a <= b + 1e-9 for a, b in zip(gtirs, gtirs[1:]))

    def test_format(self, engine, quality_queries):
        text = run_table2(
            engine, queries=quality_queries, trials=1, seed=2
        ).format()
        assert "n/a" in text
        assert "Round" in text


class TestFigure1:
    def test_pose_clusters_distinct(self, rendered_db):
        result = run_figure1(rendered_db)
        assert result.silhouette > 0.1
        assert result.projection.shape[1] == 3
        assert result.knn_pose_purity > 0.5

    def test_centroid_distance_matrix_shape(self, rendered_db):
        result = run_figure1(rendered_db)
        assert result.centroid_distances.shape == (4, 4)
        assert np.allclose(np.diag(result.centroid_distances), 0.0)

    def test_format_mentions_poses(self, rendered_db):
        text = run_figure1(rendered_db).format()
        assert "sedan_side" in text
        assert "silhouette" in text

    def test_missing_pose_raises(self, synthetic_db):
        with pytest.raises(EvaluationError):
            run_figure1(synthetic_db)


class TestCaseStudies:
    def test_three_queries_two_techniques(self, engine):
        result = run_case_studies(engine, seed=0)
        assert len(result.rows) == 2 * len(CASE_STUDIES)
        assert {r.technique for r in result.rows} == {"MV", "QD"}

    def test_paper_k_values(self, engine):
        result = run_case_studies(engine, seed=0)
        ks = sorted({r.k for r in result.rows})
        assert ks == [8, 16, 24]

    def test_format(self, engine):
        text = run_case_studies(engine, seed=0).format()
        assert "top-8" in text and "top-24" in text


class TestScalability:
    def test_points_and_linearity(self):
        result = run_scalability(
            db_sizes=(400, 800), n_queries=5, seed=3
        )
        assert len(result.points) == 2
        assert result.points[0].db_size == 400
        assert all(p.overall_query_time > 0 for p in result.points)
        assert -1.0 <= result.linearity_r2() <= 1.0

    def test_rfs_iteration_cheaper_than_global_knn(self):
        """The §1.2 claim: RFS feedback beats per-round global k-NN."""
        result = run_scalability(
            db_sizes=(2000,), n_queries=10, seed=4
        )
        point = result.points[0]
        assert point.iteration_time < point.global_knn_round_time * 2

    def test_format_figures(self):
        result = run_scalability(db_sizes=(400,), n_queries=3, seed=5)
        assert "Figure 10" in result.format_figure10()
        assert "Figure 11" in result.format_figure11()

    def test_linearity_needs_two_points(self):
        result = run_scalability(db_sizes=(400,), n_queries=3, seed=6)
        with pytest.raises(EvaluationError):
            result.linearity_r2()


class TestOnlyUnmarkedSessionsAreSkipped:
    """A session with no marks is skipped and counted; any other fault
    fails the experiment instead of becoming a data point."""

    @pytest.fixture
    def broken_scan(self, monkeypatch):
        def localized_knn(self, *args, **kwargs):
            raise IndexError("planted scan fault")

        monkeypatch.setattr(RFSStructure, "localized_knn", localized_knn)

    @pytest.fixture
    def nothing_marked(self, monkeypatch):
        def finalize(self, *args, **kwargs):
            raise SessionStateError(
                "cannot finalize: no relevant images were marked"
            )

        monkeypatch.setattr(FeedbackSession, "finalize", finalize)

    def test_noise_sweep_raises_a_scan_fault(self, engine, broken_scan):
        with pytest.raises(IndexError, match="planted"):
            run_noise_sweep(
                engine, noise_levels=((0.0, 0.0),),
                queries=[get_query("bird")], trials=1, seed=0,
            )

    def test_scalability_raises_a_scan_fault(self, broken_scan):
        with pytest.raises(IndexError, match="planted"):
            run_scalability(db_sizes=(400,), n_queries=3, seed=5)

    def test_noise_sweep_counts_unmarked_sessions(self, engine,
                                                  nothing_marked):
        result = run_noise_sweep(
            engine, noise_levels=((0.0, 0.0), (0.1, 0.0)),
            queries=[get_query("bird")], trials=2, seed=0,
        )
        assert result.skipped_sessions == 4
        assert all(p.qd_precision == 0.0 for p in result.points)

    def test_scalability_counts_unmarked_sessions(self, nothing_marked):
        result = run_scalability(db_sizes=(400, 800), n_queries=3, seed=5)
        assert result.skipped_sessions == 6
        assert [p.db_size for p in result.points] == [400, 800]


class TestQuerySetCoverage:
    def test_all_eleven_queries_runnable(self, engine):
        """Every Table-1 query completes a QD session on the test db."""
        from repro.eval.protocol import run_qd_session

        for query in TABLE1_QUERIES:
            result, records = run_qd_session(engine, query, seed=11)
            assert len(records) == 3
            assert result.stats["gtir"] > 0
