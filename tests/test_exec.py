"""Tests for the query execution layer (:mod:`repro.exec`).

The final round's subqueries run in-line through
:class:`repro.exec.SerialSubqueryExecutor`; ``TestRunSubqueryTask`` and
``TestSubqueryObservability`` pin what one of them returns and records.
"""

from __future__ import annotations

from repro import obs
from repro.config import QDConfig
from repro.core.engine import QueryDecompositionEngine
from repro.core.ranking import execute_final_round
from repro.exec import SubqueryTask, run_subquery_task


def _marks_across_leaves(rfs, n_leaves: int, per_leaf: int = 2) -> list:
    """Image ids spanning ``n_leaves`` distinct RFS leaves."""
    by_leaf: dict[int, list[int]] = {}
    for image_id in range(rfs.features.shape[0]):
        leaf_id = rfs.leaf_of_item(image_id).node_id
        bucket = by_leaf.setdefault(leaf_id, [])
        if len(bucket) < per_leaf:
            bucket.append(image_id)
    leaves = sorted(by_leaf)[:n_leaves]
    assert len(leaves) == n_leaves, "database has too few leaves"
    return [i for leaf_id in leaves for i in by_leaf[leaf_id]]


def _signature(result):
    """Everything rank-relevant about a result, exactly."""
    return [
        (
            group.leaf_node_id,
            group.search_node_id,
            tuple((item.item_id, item.score) for item in group.items),
        )
        for group in result.groups
    ]


class TestRunSubqueryTask:
    def test_single_task_matches_direct_knn(self, rfs):
        marks = _marks_across_leaves(rfs, 1, per_leaf=3)
        leaf_id = rfs.leaf_of_item(marks[0]).node_id
        task = SubqueryTask(
            leaf_id=leaf_id, quota=5, query_ids=tuple(marks)
        )
        outcome = run_subquery_task(rfs, QDConfig(), task)
        assert outcome.leaf_id == leaf_id
        assert len(outcome.ranked) >= 5
        scores = outcome.ranked.scores.tolist()
        assert scores == sorted(scores)
        assert outcome.duration_s >= 0.0


class TestSubqueryObservability:
    def test_subquery_spans_attach_to_session_tree(self, rendered_db, rfs):
        from repro.datasets.queryset import get_query
        from repro.eval.oracle import SimulatedUser
        from repro.obs.summarize import summarize

        tracer = obs.Tracer()
        engine = QueryDecompositionEngine(rendered_db, rfs)
        user = SimulatedUser(rendered_db, get_query("bird"), seed=3)
        with obs.use_tracer(tracer), engine:
            result = engine.run_scripted(user.mark, k=60, rounds=3, seed=3)
        # One root; every subquery span landed inside it, none detached.
        assert len(tracer.spans) == 1
        summary = summarize(tracer)
        assert summary.n_localized_knn >= result.n_groups

    def test_final_round_records_one_unlabeled_family(self, rfs):
        marks = _marks_across_leaves(rfs, 4)
        tracer = obs.Tracer()
        registry = obs.MetricsRegistry()
        with obs.use_tracer(tracer), obs.use_metrics(registry):
            execute_final_round(rfs, marks, 24, QDConfig(), rounds_used=1)
        assert registry.counters["qd_subqueries_total"].value == 4
        assert registry.histograms["qd_subquery_seconds"].count == 4
        (merge,) = [
            span
            for root in tracer.spans
            for span in _walk(root)
            if span.name == "merge"
        ]
        assert "executor" not in merge.attributes
        assert "workers" not in merge.attributes
        assert [c.name for c in merge.children].count("subquery") == 4


def _walk(span):
    yield span
    for child in span.children:
        yield from _walk(child)
