"""Tests for the query execution layer (:mod:`repro.exec`).

The final round's subqueries run in-line through
:class:`repro.exec.SerialSubqueryExecutor`; ``TestRunSubqueryTask`` and
``TestSubqueryObservability`` pin what one of them returns and records.
Underneath the shard router sits one :class:`repro.exec.pool.WorkerPool`,
whose contract ``TestPoolContract`` pins once per kind.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro import obs
from repro.config import QDConfig
from repro.core.engine import QueryDecompositionEngine
from repro.core.ranking import execute_final_round
from repro.errors import ConfigurationError
from repro.exec import SubqueryTask, WorkerPool, run_subquery_task
from repro.index.diskmodel import DiskAccessCounter


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


POOL_KINDS = ["serial", "thread"]


class _Shared:
    """What a pool call shares with its tasks: an offset to prove it
    arrived, a disk counter to charge."""

    def __init__(self) -> None:
        self.offset = 100
        self.io = DiskAccessCounter()


def _offset_square(shared, item):
    time.sleep(0.001 * (3 - item % 4))  # finish out of submission order
    return shared.offset + item * item


def _where(shared, item):
    return os.getpid(), threading.get_ident()


def _fail_on_three(shared, item):
    if item == 3:
        raise ValueError("task three failed")
    return item


def _observed(shared, item):
    shared.io.access(item, "pool_contract")
    with obs.get_tracer().span("pool_task", item=item):
        obs.get_metrics().counter(
            "pool_contract_tasks", "tasks run by the contract test"
        ).inc()
    return item


class TestPoolContract:
    """One suite for the one pool, whatever runs on it."""

    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            WorkerPool("gpu")

    def test_worker_counts(self):
        assert WorkerPool("serial", 8).workers == 1
        assert WorkerPool("thread", 3).workers == 3
        assert WorkerPool("thread").workers >= 1  # 0 = the CPU count

    @pytest.mark.parametrize("kind", POOL_KINDS)
    def test_results_come_back_in_submission_order(self, kind):
        items = list(range(12))
        with WorkerPool(kind, 3) as pool:
            assert pool.map(_offset_square, items, _Shared()) == [
                100 + i * i for i in items
            ]
            assert pool.map(_offset_square, [], _Shared()) == []

    @pytest.mark.parametrize("kind", POOL_KINDS)
    def test_raising_task_propagates_and_pool_stays_usable(self, kind):
        shared = _Shared()
        with WorkerPool(kind, 2) as pool:
            with pytest.raises(ValueError, match="task three failed"):
                pool.map(_fail_on_three, list(range(6)), shared)
            assert pool.map(_fail_on_three, [0, 1, 2], shared) == [0, 1, 2]

    @pytest.mark.parametrize("kind", POOL_KINDS)
    def test_close_is_idempotent_and_pool_reusable(self, kind):
        shared = _Shared()
        pool = WorkerPool(kind, 2)
        pool.close()  # nothing started yet
        assert pool.map(_offset_square, [1, 2], shared) == [101, 104]
        pool.close()
        pool.close()
        assert pool.map(_offset_square, [3, 4], shared) == [109, 116]
        pool.close()

    @pytest.mark.parametrize("kind", POOL_KINDS)
    def test_single_item_runs_inline(self, kind):
        here = (os.getpid(), threading.get_ident())
        with WorkerPool(kind, 2) as pool:
            assert pool.map(_where, [0], None) == [here]
            spread = pool.map(_where, [0, 1, 2], None)
        if kind == "serial":
            assert spread == [here] * 3
        else:
            assert all(pid == here[0] for pid, _ in spread)
            assert all(ident != here[1] for _, ident in spread)

    @pytest.mark.parametrize("kind", POOL_KINDS)
    def test_worker_observability_lands_under_dispatching_span(self, kind):
        shared = _Shared()
        tracer = obs.Tracer()
        registry = obs.MetricsRegistry()
        with obs.use_tracer(tracer), obs.use_metrics(registry):
            with WorkerPool(kind, 2) as pool, tracer.span("dispatch"):
                pool.map(_observed, list(range(4)), shared)
        assert shared.io.logical_reads == 4
        assert registry.counters["pool_contract_tasks"].value == 4
        (root,) = tracer.spans  # nothing detached
        assert root.name == "dispatch"
        assert [c.name for c in root.children] == ["pool_task"] * 4
        # Worker page reads land exactly: a serial run of the same tasks
        # reads the same pages.
        serial = _Shared()
        with WorkerPool("serial", 1) as pool:
            pool.map(_observed, list(range(4)), serial)
        assert shared.io.physical_reads == serial.io.physical_reads
        assert shared.io.logical_reads == serial.io.logical_reads


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
