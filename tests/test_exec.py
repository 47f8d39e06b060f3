"""Tests for the parallel subquery execution layer (:mod:`repro.exec`).

The load-bearing property is *determinism*: serial, thread, and process
execution of the final-round fan-out must return bit-identical ranked
ids and scores, across seeds, subquery counts, and boundary-expansion
settings.  The merge consumes outcomes in submission order and every
executor funnels through the same ``run_subquery_task``, so any
divergence here is a real bug, not float noise.

Underneath all of them sits one :class:`repro.exec.pool.WorkerPool` —
also the pool of the offline build and the shard router — whose
contract ``TestPoolContract`` pins once per kind.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.config import MutationConfig, QDConfig, RFSConfig
from repro.core.engine import QueryDecompositionEngine
from repro.core.ranking import execute_final_round
from repro.errors import ConfigurationError
from repro.exec import (
    ProcessSubqueryExecutor,
    SerialSubqueryExecutor,
    SubqueryTask,
    ThreadedSubqueryExecutor,
    WorkerPool,
    build_executor,
    resolve_executor,
    run_subquery_task,
)
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


needs_fork = pytest.mark.skipif(
    not ProcessSubqueryExecutor.fork_available(),
    reason="fork start method unavailable on this platform",
)

POOL_KINDS = ["serial", "thread", pytest.param("process", marks=needs_fork)]


class _Shared:
    """What a pool call shares with its tasks (fork-inherited, never
    pickled): an offset to prove it arrived, a disk counter to charge."""

    def __init__(self) -> None:
        self.offset = 100
        self.io = DiskAccessCounter()


# Pool tasks live at module level: the process kind pickles them by
# reference.
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
        children = len(multiprocessing.active_children())
        pool = WorkerPool(kind, 2)
        pool.close()  # nothing started yet
        assert pool.map(_offset_square, [1, 2], shared) == [101, 104]
        pool.close()
        pool.close()
        assert len(multiprocessing.active_children()) == children
        assert pool.map(_offset_square, [3, 4], shared) == [109, 116]
        pool.close()
        assert len(multiprocessing.active_children()) == children

    @pytest.mark.parametrize("kind", POOL_KINDS)
    def test_single_item_runs_inline(self, kind):
        here = (os.getpid(), threading.get_ident())
        with WorkerPool(kind, 2) as pool:
            assert pool.map(_where, [0], None) == [here]
            spread = pool.map(_where, [0, 1, 2], None)
        if kind == "serial":
            assert spread == [here] * 3
        elif kind == "thread":
            assert all(pid == here[0] for pid, _ in spread)
            assert all(ident != here[1] for _, ident in spread)
        else:
            assert all(pid != here[0] for pid, _ in spread)

    @needs_fork
    def test_process_pool_reforks_when_shared_or_key_changes(self):
        def workers():
            return {p.pid for p in multiprocessing.active_children()}

        before = workers()
        shared = _Shared()
        with WorkerPool("process", 2) as pool:
            pool.map(_offset_square, [1, 2, 3], shared)
            first = workers() - before
            assert first
            pool.map(_offset_square, [1, 2, 3], shared)
            assert workers() - before == first  # unchanged: pool persists
            # Mutated in place: only a new key tells the pool so.
            shared.offset = 200
            assert pool.map(_offset_square, [1, 2], shared, key=1) == [
                201, 204
            ]
            rekeyed = workers() - before
            assert rekeyed and not rekeyed & first
            pool.map(_offset_square, [1, 2], _Shared(), key=1)
            other = workers() - before
            assert other and not other & rekeyed
        assert workers() == before

    @pytest.mark.parametrize("kind", POOL_KINDS)
    def test_worker_observability_lands_under_dispatching_span(self, kind):
        shared = _Shared()
        tracer = obs.Tracer()
        registry = obs.MetricsRegistry()
        with obs.use_tracer(tracer), obs.use_metrics(registry):
            with WorkerPool(kind, 2) as pool, tracer.span("dispatch"):
                pool.map(_observed, list(range(4)), shared)
        assert shared.io.logical_reads == 4
        counters = registry.to_payload()["counters"]
        assert counters["pool_contract_tasks"][1] == 4
        (root,) = tracer.spans  # nothing detached
        assert root.name == "dispatch"
        assert [c.name for c in root.children] == ["pool_task"] * 4
        # Worker page reads come home exactly: a serial run of the same
        # tasks reads the same pages.
        serial = _Shared()
        with WorkerPool("serial", 1) as pool:
            pool.map(_observed, list(range(4)), serial)
        assert shared.io.physical_reads == serial.io.physical_reads
        assert shared.io.logical_reads == serial.io.logical_reads


class TestSharedProcessExecutor:
    @needs_fork
    def test_final_rounds_racing_writes_share_one_process_pool(
        self, synthetic_db
    ):
        """``serve --serve-workers 4 --executor process --mutations``:
        reader threads share the engine's executor while every insert
        moves the mutation epoch and so re-forks the pool under them.
        Ensure + submit under one lock means nobody submits to a pool
        that is being replaced, and none leaks."""
        engine = QueryDecompositionEngine.build(
            synthetic_db,
            RFSConfig(node_max_entries=60),
            QDConfig(executor="process", workers=2),
            seed=77,
            mutations=MutationConfig(auto_compact=False),
        )
        children = len(multiprocessing.active_children())
        marks = _marks_across_leaves(engine.rfs, 4)
        executor = engine.executor
        errors: list[str] = []

        def finalize_repeatedly():
            try:
                for _ in range(20):
                    result = execute_final_round(
                        engine.rfs, marks, 24, engine.config,
                        rounds_used=1, executor=executor,
                    )
                    assert result.n_groups == 4
            except BaseException as exc:  # reported by the main thread
                errors.append(repr(exc))

        readers = [
            threading.Thread(target=finalize_repeatedly, daemon=True)
            for _ in range(4)
        ]
        deadline = time.monotonic() + 120.0
        rng = np.random.default_rng(5)
        inserts = 0
        try:
            for reader in readers:
                reader.start()
            while (
                any(r.is_alive() for r in readers)
                and time.monotonic() < deadline
            ):
                engine.insert_image(
                    rng.normal(size=synthetic_db.features.shape[1])
                )
                inserts += 1
                readers[0].join(0.02)  # pace the writes
            for reader in readers:
                reader.join(max(0.0, deadline - time.monotonic()))
            hung = [r.name for r in readers if r.is_alive()]
            assert not hung, f"final rounds never returned: {hung}"
            assert errors == []
            assert inserts > 1, "no write raced the final rounds"
        finally:
            if not any(r.is_alive() for r in readers):
                engine.close()
        assert len(multiprocessing.active_children()) == children


class TestExecutorConstruction:
    def test_build_by_kind(self):
        assert isinstance(build_executor("serial"), SerialSubqueryExecutor)
        assert isinstance(build_executor("thread", 2), ThreadedSubqueryExecutor)
        assert isinstance(
            build_executor("process", 2), ProcessSubqueryExecutor
        )

    def test_build_unknown_kind_raises(self):
        with pytest.raises(ConfigurationError):
            build_executor("gpu")

    def test_bad_config_values_raise(self):
        with pytest.raises(ConfigurationError):
            QDConfig(executor="gpu")
        with pytest.raises(ConfigurationError):
            QDConfig(workers=-1)

    def test_resolve_from_config(self):
        executor = resolve_executor(QDConfig(executor="thread", workers=3))
        assert isinstance(executor, ThreadedSubqueryExecutor)
        assert executor.workers == 3

    def test_serial_is_single_worker(self):
        assert SerialSubqueryExecutor().workers == 1

    def test_close_is_idempotent(self):
        executor = ThreadedSubqueryExecutor(2)
        executor.close()
        executor.close()


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


class TestDeterminism:
    """Serial vs thread vs process: bit-identical final rankings."""

    @pytest.mark.parametrize("n_leaves", [2, 5, 9])
    @pytest.mark.parametrize("boundary", [0.0, 0.4, 1.0])
    def test_thread_matches_serial(self, rfs, n_leaves, boundary):
        marks = _marks_across_leaves(rfs, n_leaves)
        config = QDConfig(boundary_threshold=boundary)
        k = 6 * n_leaves
        with SerialSubqueryExecutor() as serial:
            baseline = execute_final_round(
                rfs, marks, k, config, rounds_used=1, executor=serial
            )
        with ThreadedSubqueryExecutor(4) as threaded:
            parallel = execute_final_round(
                rfs, marks, k, config, rounds_used=1, executor=threaded
            )
        assert _signature(parallel) == _signature(baseline)

    @needs_fork
    @pytest.mark.parametrize("n_leaves", [2, 6])
    def test_process_matches_serial(self, rfs, n_leaves):
        marks = _marks_across_leaves(rfs, n_leaves)
        config = QDConfig()
        k = 6 * n_leaves
        with SerialSubqueryExecutor() as serial:
            baseline = execute_final_round(
                rfs, marks, k, config, rounds_used=1, executor=serial
            )
        with ProcessSubqueryExecutor(2) as procs:
            parallel = execute_final_round(
                rfs, marks, k, config, rounds_used=1, executor=procs
            )
        assert _signature(parallel) == _signature(baseline)

    @pytest.mark.parametrize("seed", [0, 7, 2006])
    def test_full_session_identical_across_executors(
        self, rendered_db, rfs, seed
    ):
        from repro.datasets.queryset import get_query
        from repro.eval.oracle import SimulatedUser

        query = get_query("bird")
        signatures = []
        for kind in ("serial", "thread"):
            engine = QueryDecompositionEngine(
                rendered_db, rfs, QDConfig(executor=kind, workers=4)
            )
            user = SimulatedUser(rendered_db, query, seed=seed)
            with engine:
                result = engine.run_scripted(
                    user.mark, k=60, rounds=3, seed=seed
                )
            signatures.append(_signature(result))
        assert signatures[0] == signatures[1]


class TestObservabilityAcrossWorkers:
    def test_thread_spans_attach_to_session_tree(self, rendered_db, rfs):
        from repro.datasets.queryset import get_query
        from repro.eval.oracle import SimulatedUser
        from repro.obs.summarize import summarize

        tracer = obs.Tracer()
        engine = QueryDecompositionEngine(
            rendered_db, rfs, QDConfig(executor="thread", workers=4)
        )
        user = SimulatedUser(rendered_db, get_query("bird"), seed=3)
        with obs.use_tracer(tracer), engine:
            result = engine.run_scripted(user.mark, k=60, rounds=3, seed=3)
        # One root; every subquery span landed inside it, none detached.
        assert len(tracer.spans) == 1
        summary = summarize(tracer)
        assert summary.n_localized_knn >= result.n_groups

    @needs_fork
    def test_process_spans_and_metrics_graft(self, rfs):
        marks = _marks_across_leaves(rfs, 4)
        tracer = obs.Tracer()
        registry = obs.MetricsRegistry()
        io = rfs.io
        physical_before, logical_before = io.physical_reads, io.logical_reads
        execute_final_round(
            rfs, marks, 24, QDConfig(), rounds_used=1,
            executor=SerialSubqueryExecutor(),
        )
        serial_physical = io.physical_reads - physical_before
        serial_logical = io.logical_reads - logical_before
        physical_before, logical_before = io.physical_reads, io.logical_reads
        with obs.use_tracer(tracer), obs.use_metrics(registry):
            with ProcessSubqueryExecutor(2) as procs:
                execute_final_round(
                    rfs, marks, 24, QDConfig(), rounds_used=1,
                    executor=procs,
                )
        # Worker page reads were folded back into the parent counter,
        # exactly as many as the serial round read.
        assert io.physical_reads - physical_before == serial_physical > 0
        assert io.logical_reads - logical_before == serial_logical
        # Worker distance computations were merged into the registry.
        dumped = registry.to_payload()
        assert dumped["counters"]["qd_distance_computations"][1] > 0
        # Subquery spans were grafted under the live merge span.
        merge_spans = [
            span
            for root in tracer.spans
            for span in _walk(root)
            if span.name == "merge"
        ]
        assert merge_spans
        grafted = [
            child
            for span in merge_spans
            for child in span.children
            if child.name == "subquery"
        ]
        assert len(grafted) == 4


def _walk(span):
    yield span
    for child in span.children:
        yield from _walk(child)
