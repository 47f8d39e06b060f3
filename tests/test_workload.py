"""Tests for workload generation and the concurrency simulation."""

import numpy as np
import pytest

from repro.config import RFSConfig
from repro.core.engine import QueryDecompositionEngine
from repro.datasets.build import build_synthetic_database
from repro.errors import EvaluationError
from repro.eval.workload import (
    WorkloadSpec,
    generate_workload,
    simulate_concurrent_users,
)


@pytest.fixture(scope="module")
def small_engine():
    db = build_synthetic_database(1200, n_categories=40, seed=8)
    return QueryDecompositionEngine.build(
        db, RFSConfig(node_max_entries=60), seed=8
    )


class TestWorkloadSpec:
    def test_defaults_valid(self):
        WorkloadSpec()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_queries": 0},
            {"max_targets": 0},
            {"zipf_s": -1.0},
            {"rounds": 0},
            {"result_k": 0},
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(EvaluationError):
            WorkloadSpec(**kwargs)


class TestGenerateWorkload:
    def test_count_and_target_bounds(self, small_engine):
        spec = WorkloadSpec(n_queries=30, max_targets=3)
        workload = generate_workload(
            small_engine.database, spec, seed=1
        )
        assert len(workload) == 30
        for query in workload:
            assert 1 <= len(query.targets) <= 3
            assert len(set(query.targets)) == len(query.targets)

    def test_targets_are_real_categories(self, small_engine):
        workload = generate_workload(
            small_engine.database, WorkloadSpec(n_queries=10), seed=2
        )
        names = set(small_engine.database.category_names)
        for query in workload:
            assert set(query.targets) <= names

    def test_deterministic(self, small_engine):
        spec = WorkloadSpec(n_queries=15)
        a = generate_workload(small_engine.database, spec, seed=3)
        b = generate_workload(small_engine.database, spec, seed=3)
        assert a == b

    def test_zipf_skews_popularity(self, small_engine):
        workload = generate_workload(
            small_engine.database,
            WorkloadSpec(n_queries=400, max_targets=1, zipf_s=1.5),
            seed=4,
        )
        counts: dict[str, int] = {}
        for query in workload:
            counts[query.targets[0]] = counts.get(query.targets[0], 0) + 1
        frequencies = sorted(counts.values(), reverse=True)
        # The most popular category appears far more than the median one.
        assert frequencies[0] >= 4 * np.median(frequencies)

    def test_uniform_when_zipf_zero(self, small_engine):
        workload = generate_workload(
            small_engine.database,
            WorkloadSpec(n_queries=400, max_targets=1, zipf_s=0.0),
            seed=5,
        )
        counts: dict[str, int] = {}
        for query in workload:
            counts[query.targets[0]] = counts.get(query.targets[0], 0) + 1
        frequencies = sorted(counts.values(), reverse=True)
        assert frequencies[0] <= 4 * np.median(frequencies)


class TestConcurrencySimulation:
    def test_report_shape(self, small_engine):
        workload = generate_workload(
            small_engine.database, WorkloadSpec(n_queries=12), seed=6
        )
        report = simulate_concurrent_users(
            small_engine, workload, seed=6
        )
        assert report.n_sessions + report.skipped_sessions == 12
        assert report.qd_server_seconds >= 0
        assert report.traditional_server_seconds >= 0

    def test_qd_server_cheaper(self, small_engine):
        workload = generate_workload(
            small_engine.database, WorkloadSpec(n_queries=15), seed=7
        )
        report = simulate_concurrent_users(
            small_engine, workload, seed=7
        )
        assert report.n_sessions > 0
        # Page reads are deterministic; wall-clock at this tiny scale is
        # noise-dominated (the paper-scale assertion lives in
        # benchmarks/bench_concurrency.py).
        assert (
            report.qd_server_page_reads
            < report.traditional_server_page_reads / 5
        )
        assert report.throughput_multiplier > 0.3

    def test_format(self, small_engine):
        workload = generate_workload(
            small_engine.database, WorkloadSpec(n_queries=5), seed=8
        )
        report = simulate_concurrent_users(
            small_engine, workload, seed=8
        )
        assert "throughput multiplier" in report.format()
