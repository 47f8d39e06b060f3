"""Pluggable executors for the final-round subquery fan-out.

The defining structural property of Query Decomposition is that one
query splits into many *independent* localized multipoint k-NN
subqueries — one per relevant RFS subtree (§3.3).  This module turns
that independence into wall-clock parallelism while keeping the merge
deterministic:

* every executor returns outcomes **in task submission order**, never in
  completion order;
* each subquery's ranked list is a pure function of the RFS structure
  and the task, so serial, thread, and process execution produce
  bit-identical rankings (ties are broken by image id everywhere);
* the sequential dedup/merge in :mod:`repro.core.ranking` then consumes
  the outcomes identically regardless of where they were computed.

Executor kinds (select via :attr:`repro.config.QDConfig.executor` or the
CLI ``--executor`` / ``--workers`` flags):

``serial``
    Runs tasks in-line on the calling thread.  Zero overhead; the
    reference behaviour.
``thread``
    A shared-memory thread pool.  NumPy releases the GIL inside the
    distance kernels and the simulated page-latency sleeps release it
    trivially, so subqueries overlap both compute and (simulated) I/O.
    The shared :class:`~repro.index.diskmodel.DiskAccessCounter` buffer
    pool and the obs layer are mutated directly (both are thread-safe),
    and worker spans adopt the dispatching span so traces still
    reconstruct the session tree.
``process``
    A fork-based process pool for fully GIL-free compute.  Workers
    inherit the RFS structure via fork (no pickling of the index), run
    against their own forked buffer pool, and ship results *plus* their
    trace spans, metric increments, and disk-access deltas back to the
    parent, which grafts them into the live session observability.
    Falls back to the thread executor on platforms without ``fork``.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cache import subquery_cache_key
from repro.config import EXECUTOR_KINDS, QDConfig
from repro.errors import ConfigurationError
from repro.index.rfs import RFSStructure
from repro.obs import MetricsRegistry, Tracer, get_metrics, get_tracer
from repro.obs.metrics import use_metrics
from repro.obs.trace import span_from_dict, use_tracer
from repro.retrieval.multipoint import MultipointQuery


def default_worker_count() -> int:
    """The automatic worker count: the machine's CPU count (min 1)."""
    return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class SubqueryTask:
    """One localized multipoint k-NN to execute.

    Attributes
    ----------
    leaf_id:
        RFS leaf the user's marks grouped into.
    quota:
        Result slots allocated to this subquery by the §3.4 merge rule.
    query_ids:
        The marked image ids forming the local multipoint query.
    fetch_extra:
        Over-fetch beyond ``quota`` so the sequential dedup usually
        succeeds without a top-up pass.
    """

    leaf_id: int
    quota: int
    query_ids: Tuple[int, ...]
    fetch_extra: int = 16


@dataclass
class SubqueryOutcome:
    """What one subquery execution produced.

    ``ranked`` is the full over-fetched ranked list — dedup against the
    other subqueries happens sequentially in the merge, not here, so the
    outcome is independent of every other task.  The ``span_dicts`` /
    ``metrics_payload`` / ``io_delta`` fields are only populated by the
    process executor, whose workers cannot mutate the parent's live
    observability state.
    """

    leaf_id: int
    search_node_id: int
    centroid: np.ndarray
    ranked: List[Tuple[float, int]]
    duration_s: float = 0.0
    span_dicts: Optional[List[Dict[str, Any]]] = None
    metrics_payload: Optional[Dict[str, Any]] = None
    io_delta: Optional[Dict[str, Any]] = None


def run_subquery_task(
    rfs: RFSStructure,
    config: QDConfig,
    task: SubqueryTask,
    dim_weights: Optional[np.ndarray] = None,
) -> SubqueryOutcome:
    """Execute one localized subquery (boundary expansion + k-NN).

    Pure with respect to the RFS structure: reads the index and the
    feature matrix, mutates only the shared I/O counter and the obs
    layer (both thread-safe).  All executors funnel through this one
    function, which is what makes their outputs bit-identical.

    Query points come from :meth:`RFSStructure.vectors_for`: with a
    memory-mapped feature store attached, a forked or reopened worker
    gathers them from the shared mapping instead of a per-process copy
    of the feature matrix.

    When the structure carries a :class:`repro.cache.SubqueryResultCache`
    the task is first looked up by its canonical digest (keyed *before*
    boundary expansion, so a hit skips the expansion and the block scan
    entirely); a miss computes as usual and publishes the result for
    later identical subqueries of any session.  A cached answer was
    produced by this very function under the same structure version, so
    serving it cannot change any ranking.

    With a generational delta segment attached, what is cached is the
    **main-only** ranking (``include_delta=False``: tombstone-filtered
    scan of the unchanged store blocks); the live delta rows are merged
    through :meth:`RFSStructure.merge_delta_ranked` *after* the cache
    consult, on hits and misses alike.  Inserts therefore never
    invalidate a cache entry, and a removal evicts only the entries
    whose search node sits on the mutated leaf's root path — and, via
    the invalidation epoch read before the scan, keeps a scan it raced
    from re-publishing a ranking that still holds the removed id.  The
    cached main part always suffices: it holds the top ``requested``
    live main rows (or every live main row when fewer exist), and no
    later merge can promote a main row from beyond that prefix.
    """
    t0 = time.perf_counter()
    with get_tracer().span(
        "subquery",
        leaf=task.leaf_id,
        quota=task.quota,
        marks=len(task.query_ids),
    ) as span:
        leaf = rfs.get_node(task.leaf_id)
        query_points = rfs.vectors_for(
            np.asarray(task.query_ids, dtype=np.int64)
        )
        # Slight over-fetch absorbs most de-duplication against other
        # groups; any residual shortfall is covered by the top-up pass.
        requested = task.quota + task.fetch_extra
        cache = rfs.result_cache
        key = None
        version = rfs.structure_version
        if cache is not None:
            key = subquery_cache_key(
                leaf.node_id,
                query_points,
                requested,
                config.boundary_threshold,
                dim_weights,
                store_fingerprint=rfs.store_fingerprint(),
            )
            entry = cache.get(key, version)
            if entry is not None:
                search_node = rfs.get_node(entry.search_node_id)
                ranked = rfs.merge_delta_ranked(
                    search_node,
                    entry.ranked,
                    entry.centroid,
                    min(rfs.effective_node_size(search_node), requested),
                    weights=dim_weights,
                )
                span.set(
                    search_node=entry.search_node_id,
                    fetched=len(ranked),
                    cache="hit",
                )
                return SubqueryOutcome(
                    leaf_id=task.leaf_id,
                    search_node_id=entry.search_node_id,
                    centroid=entry.centroid,
                    ranked=ranked,
                    duration_s=time.perf_counter() - t0,
                )
        search_node = rfs.expand_search_node(
            leaf, query_points, config.boundary_threshold
        )
        centroid = MultipointQuery(query_points).centroid()
        fetch = min(rfs.effective_node_size(search_node), requested)
        if cache is None:
            ranked = rfs.localized_knn(
                search_node, centroid, fetch, weights=dim_weights
            )
        else:
            epoch = cache.invalidation_epoch()
            main_ranked = rfs.localized_knn(
                search_node, centroid, fetch,
                weights=dim_weights, include_delta=False,
            )
            cache.put(
                key, version, search_node.node_id, centroid, main_ranked,
                epoch=epoch,
            )
            ranked = rfs.merge_delta_ranked(
                search_node, main_ranked, centroid, fetch,
                weights=dim_weights,
            )
        span.set(
            search_node=search_node.node_id,
            fetched=len(ranked),
            cache="miss" if cache is not None else "off",
        )
    return SubqueryOutcome(
        leaf_id=task.leaf_id,
        search_node_id=search_node.node_id,
        centroid=centroid,
        ranked=ranked,
        duration_s=time.perf_counter() - t0,
    )


class SubqueryExecutor:
    """Base class: order-preserving execution of subquery tasks.

    Subclasses implement :meth:`run_subqueries`; pools are created
    lazily and reusable across final rounds, so an engine can hold one
    executor for its whole lifetime.  Executors are context managers —
    leaving the ``with`` block closes the pool.
    """

    name: str = "base"

    def __init__(self, workers: int = 0) -> None:
        self.workers = workers or default_worker_count()

    def run_subqueries(
        self,
        rfs: RFSStructure,
        tasks: Sequence[SubqueryTask],
        config: QDConfig,
        *,
        dim_weights: Optional[np.ndarray] = None,
    ) -> List[SubqueryOutcome]:
        """Execute ``tasks``, returning outcomes in submission order."""
        raise NotImplementedError

    def _record_outcomes(
        self, outcomes: List[SubqueryOutcome]
    ) -> List[SubqueryOutcome]:
        """Record per-executor fan-out metrics; returns ``outcomes``.

        One counter family and one latency histogram, each labeled with
        the executor kind, so serial/thread/process runs land in
        separate children of the same metric family.  The process
        executor calls this in the *parent* (worker durations travel in
        the outcomes), keeping one recording site per task.
        """
        metrics = get_metrics()
        if not metrics.enabled or not outcomes:
            return outcomes
        labels = {"executor": self.name}
        metrics.counter(
            "qd_subqueries_total",
            "localized subqueries executed",
            labels=labels,
        ).inc(len(outcomes))
        latency = metrics.histogram(
            "qd_subquery_seconds",
            "per-subquery wall time",
            labels=labels,
        )
        for outcome in outcomes:
            latency.observe(outcome.duration_s)
        return outcomes

    def close(self) -> None:
        """Release pool resources (idempotent)."""

    def __enter__(self) -> "SubqueryExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(workers={self.workers})"


class SerialSubqueryExecutor(SubqueryExecutor):
    """Runs every task in-line on the calling thread."""

    name = "serial"

    def __init__(self) -> None:
        super().__init__(workers=1)

    def run_subqueries(
        self,
        rfs: RFSStructure,
        tasks: Sequence[SubqueryTask],
        config: QDConfig,
        *,
        dim_weights: Optional[np.ndarray] = None,
    ) -> List[SubqueryOutcome]:
        return self._record_outcomes(
            [
                run_subquery_task(rfs, config, task, dim_weights)
                for task in tasks
            ]
        )


class ThreadedSubqueryExecutor(SubqueryExecutor):
    """Shared-memory thread pool over the subquery fan-out."""

    name = "thread"

    def __init__(self, workers: int = 0) -> None:
        super().__init__(workers)
        self._pool: Optional[ThreadPoolExecutor] = None
        self._lock = threading.Lock()

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="qd-subquery",
                )
            return self._pool

    def run_subqueries(
        self,
        rfs: RFSStructure,
        tasks: Sequence[SubqueryTask],
        config: QDConfig,
        *,
        dim_weights: Optional[np.ndarray] = None,
    ) -> List[SubqueryOutcome]:
        if len(tasks) <= 1:  # nothing to overlap; skip pool dispatch
            return self._record_outcomes(
                [
                    run_subquery_task(rfs, config, task, dim_weights)
                    for task in tasks
                ]
            )
        tracer = get_tracer()
        parent_span = tracer.current

        def call(task: SubqueryTask) -> SubqueryOutcome:
            # Adopt the dispatching span so worker spans attach to the
            # session tree instead of becoming detached roots.
            with tracer.adopt(parent_span):
                return run_subquery_task(rfs, config, task, dim_weights)

        pool = self._ensure_pool()
        return self._record_outcomes(list(pool.map(call, tasks)))

    def close(self) -> None:
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None


# ----------------------------------------------------------------------
# Process executor.  The RFS structure reaches the workers through fork
# inheritance of this module-level slot — pickling a whole index per
# task (features matrix included) would swamp any speedup.
# ----------------------------------------------------------------------
_FORK_STATE: Dict[str, Any] = {"rfs": None}


def _process_entry(
    payload: Tuple[SubqueryTask, QDConfig, Optional[np.ndarray]],
) -> SubqueryOutcome:
    """Worker-process entry point: run one task, capture observability.

    The worker runs against the forked copy of the RFS (shared
    copy-on-write memory), records spans/metrics into fresh local
    objects, and ships them home inside the outcome together with the
    disk-access delta — the parent's live tracer/registry/counter are
    unreachable across the process boundary.
    """
    task, config, dim_weights = payload
    rfs: RFSStructure = _FORK_STATE["rfs"]
    tracer = Tracer()
    registry = MetricsRegistry()
    marker = rfs.io.delta_marker()
    with use_tracer(tracer), use_metrics(registry):
        outcome = run_subquery_task(rfs, config, task, dim_weights)
    outcome.span_dicts = tracer.to_dicts()
    outcome.metrics_payload = registry.to_payload()
    delta = rfs.io.delta_since(marker)
    # Relabel this process's accesses so per-worker accounting stays
    # meaningful after the merge (every child calls itself MainThread).
    if delta["per_worker"]:
        merged = {
            key: sum(s.get(key, 0) for s in delta["per_worker"].values())
            for key in ("hits", "misses")
        }
        delta["per_worker"] = {f"proc{os.getpid()}": merged}
    outcome.io_delta = delta
    return outcome


class ProcessSubqueryExecutor(SubqueryExecutor):
    """Fork-based process pool over the subquery fan-out.

    Requires the ``fork`` start method (Linux/macOS); elsewhere it
    degrades to the thread executor.  Each worker process holds a forked
    (copy-on-write) view of the RFS structure and a private buffer pool;
    results, spans, metrics, and I/O deltas are shipped back and grafted
    into the parent's session state, so traces and accounting look the
    same as a thread run.
    """

    name = "process"

    def __init__(self, workers: int = 0) -> None:
        super().__init__(workers)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pool_rfs_key: Optional[Tuple[int, int]] = None
        self._fallback: Optional[ThreadedSubqueryExecutor] = None

    @staticmethod
    def fork_available() -> bool:
        """Whether the fork start method exists on this platform."""
        import multiprocessing

        return "fork" in multiprocessing.get_all_start_methods()

    def _ensure_pool(self, rfs: RFSStructure) -> ProcessPoolExecutor:
        import multiprocessing

        # Workers run against a forked snapshot, so the pool is stale
        # the moment the structure is swapped *or* mutated: a delta
        # insert/remove after fork would be invisible to the children.
        # The mutation epoch in the key forces a re-fork then.
        key = (id(rfs), rfs.mutation_epoch)
        if self._pool is not None and self._pool_rfs_key != key:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._pool is None:
            _FORK_STATE["rfs"] = rfs
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=multiprocessing.get_context("fork"),
            )
            self._pool_rfs_key = key
        return self._pool

    def run_subqueries(
        self,
        rfs: RFSStructure,
        tasks: Sequence[SubqueryTask],
        config: QDConfig,
        *,
        dim_weights: Optional[np.ndarray] = None,
    ) -> List[SubqueryOutcome]:
        if not self.fork_available():  # pragma: no cover - non-POSIX
            if self._fallback is None:
                self._fallback = ThreadedSubqueryExecutor(self.workers)
            return self._fallback.run_subqueries(
                rfs, tasks, config, dim_weights=dim_weights
            )
        if len(tasks) <= 1:
            return self._record_outcomes(
                [
                    run_subquery_task(rfs, config, task, dim_weights)
                    for task in tasks
                ]
            )
        pool = self._ensure_pool(rfs)
        payloads = [(task, config, dim_weights) for task in tasks]
        outcomes = list(pool.map(_process_entry, payloads))
        for outcome in outcomes:
            self._graft(rfs, outcome)
        return self._record_outcomes(outcomes)

    @staticmethod
    def _graft(rfs: RFSStructure, outcome: SubqueryOutcome) -> None:
        """Fold a worker process's observability payload into the parent."""
        if outcome.io_delta is not None:
            rfs.io.merge_delta(outcome.io_delta)
            outcome.io_delta = None
        metrics = get_metrics()
        if outcome.metrics_payload is not None:
            if metrics.enabled:
                metrics.merge_payload(outcome.metrics_payload)
            outcome.metrics_payload = None
        tracer = get_tracer()
        if outcome.span_dicts is not None:
            if tracer.enabled:
                parent = tracer.current
                for span_dict in outcome.span_dicts:
                    span = span_from_dict(tracer, span_dict)
                    if parent is not None:
                        parent.children.append(span)
                    else:
                        tracer.spans.append(span)
            outcome.span_dicts = None

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
            self._pool_rfs_key = None
        if _FORK_STATE.get("rfs") is not None:
            _FORK_STATE["rfs"] = None
        if self._fallback is not None:  # pragma: no cover - non-POSIX
            self._fallback.close()
            self._fallback = None


def build_executor(kind: str, workers: int = 0) -> SubqueryExecutor:
    """Construct an executor by kind name (``serial``/``thread``/``process``)."""
    if kind == "serial":
        return SerialSubqueryExecutor()
    if kind == "thread":
        return ThreadedSubqueryExecutor(workers)
    if kind == "process":
        return ProcessSubqueryExecutor(workers)
    raise ConfigurationError(
        f"executor must be one of {EXECUTOR_KINDS}, got {kind!r}"
    )


def resolve_executor(config: QDConfig) -> SubqueryExecutor:
    """Executor for a :class:`QDConfig` (its ``executor``/``workers``)."""
    return build_executor(config.executor, config.workers)
