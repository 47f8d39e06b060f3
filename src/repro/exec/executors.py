"""The final round's subquery fan-out.

The defining structural property of Query Decomposition is that one
query splits into many *independent* localized multipoint k-NN
subqueries — one per relevant RFS subtree (§3.3).  Each one reads about
one leaf page, so :class:`SerialSubqueryExecutor` runs them in-line on
the calling thread and returns their outcomes **in task submission
order**; the sequential dedup/merge in :mod:`repro.core.ranking` then
consumes them in that order.  Concurrency comes from serving several
requests at once (``serve --serve-workers``), not from splitting one.

A subquery runs in two halves, :func:`prepare_subquery` (cache consult,
boundary expansion) and :func:`scan_subquery` (scan, publish, delta
merge).  :func:`run_subquery_task` runs one after the other; the seam
between the cache consult and the scan is where a racing write lands,
and it stays callable so that interleaving can be scheduled
deterministically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import QDConfig
from repro.index.rfs import RFSNode, RFSStructure
from repro.obs import get_metrics, get_tracer
from repro.retrieval.multipoint import MultipointQuery
from repro.retrieval.topk import RankedList

if TYPE_CHECKING:  # the cache module loads only when a cache is attached
    from repro.cache import SubqueryResultCache

#: Rows fetched beyond a subquery's quota (and beyond a top-up's
#: deficit), so the sequential dedup against the other subqueries
#: usually succeeds without another scan.  Part of the cache key: a
#: subquery is keyed on ``quota + OVERFETCH``.
OVERFETCH = 16


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
    """

    leaf_id: int
    quota: int
    query_ids: Tuple[int, ...]


@dataclass
class SubqueryOutcome:
    """What one subquery execution produced.

    ``ranked`` is the full over-fetched ranking — dedup against the
    other subqueries happens sequentially in the merge, not here, so the
    outcome is independent of every other task.
    """

    leaf_id: int
    search_node_id: int
    centroid: np.ndarray
    ranked: RankedList
    duration_s: float = 0.0


@dataclass
class PreparedSubquery:
    """A subquery between its cache consult and its scan.

    ``cache`` is ``None`` when the structure has no result cache;
    ``cached`` is a hit's main-only ranking (``search_node`` and
    ``centroid`` are then the entry's, and nothing will be scanned).
    """

    task: SubqueryTask
    search_node: RFSNode
    centroid: np.ndarray
    fetch: int
    cache: Optional[SubqueryResultCache] = None
    key: Optional[str] = None
    version: int = 0
    cached: Optional[RankedList] = None

    @property
    def cache_state(self) -> str:
        """``"off"``, ``"hit"`` or ``"miss"`` (span label)."""
        if self.cache is None:
            return "off"
        return "miss" if self.cached is None else "hit"


def prepare_subquery(
    rfs: RFSStructure,
    config: QDConfig,
    task: SubqueryTask,
) -> PreparedSubquery:
    """Resolve what a subquery will scan — or that the cache has it.

    Query points come from :meth:`RFSStructure.vectors_for` (with a
    memory-mapped feature store attached, gathered from the mapping).

    With a :class:`repro.cache.SubqueryResultCache` on the structure the
    task is first looked up by its canonical digest, keyed *before*
    boundary expansion, so a hit skips the expansion and the block scan
    entirely.  A cached answer was produced by :func:`scan_subquery`
    under the same structure version, so serving it cannot change any
    ranking.
    """
    leaf = rfs.get_node(task.leaf_id)
    query_points = rfs.vectors_for(
        np.asarray(task.query_ids, dtype=np.int64)
    )
    # Any shortfall the over-fetch leaves is covered by the top-up pass.
    requested = task.quota + OVERFETCH
    cache = rfs.result_cache
    key = entry = None
    version = rfs.structure_version
    if cache is not None:
        from repro.cache import subquery_cache_key

        key = subquery_cache_key(
            leaf.node_id,
            query_points,
            requested,
            config.boundary_threshold,
        )
        entry = cache.get(key, version)
    if entry is not None:
        search_node = rfs.get_node(entry.search_node_id)
        centroid = entry.centroid
    else:
        search_node = rfs.expand_search_node(
            leaf, query_points, config.boundary_threshold
        )
        centroid = MultipointQuery(query_points).centroid()
    return PreparedSubquery(
        task,
        search_node,
        centroid,
        min(rfs.effective_node_size(search_node), requested),
        cache,
        key,
        version,
        None if entry is None else entry.ranked,
    )


def scan_subquery(rfs: RFSStructure, prepared: PreparedSubquery) -> SubqueryOutcome:
    """Produce a prepared subquery's ranking.

    With a result cache, what is scanned, published
    (:func:`repro.cache.scan_and_publish`) and served from a hit is the
    **main-only** ranking; the live delta rows are merged afterwards, on
    hits and misses alike, so inserts never invalidate a cache entry.
    The cached part always suffices: it holds the top ``fetch`` live
    main rows (or all of them when fewer exist), and no later merge can
    promote a main row from beyond that prefix.
    """
    node = prepared.search_node
    centroid = prepared.centroid
    if prepared.cache is None:
        ranked = rfs.localized_knn(node, centroid, prepared.fetch)
    else:
        main_ranked = prepared.cached
        if main_ranked is None:
            from repro.cache import scan_and_publish

            main_ranked = scan_and_publish(
                prepared.cache, prepared.key, prepared.version,
                rfs, node, centroid, prepared.fetch
            )
        ranked = rfs.merge_delta_ranked(
            node, main_ranked, centroid, prepared.fetch
        )
    return SubqueryOutcome(
        leaf_id=prepared.task.leaf_id,
        search_node_id=node.node_id,
        centroid=centroid,
        ranked=ranked,
    )


def run_subquery_task(
    rfs: RFSStructure,
    config: QDConfig,
    task: SubqueryTask,
) -> SubqueryOutcome:
    """Execute one localized subquery (boundary expansion + k-NN).

    Pure with respect to the RFS structure: reads the index and the
    feature matrix, mutates only the shared I/O counter, the result
    cache and the obs layer (all thread-safe, so concurrent requests
    may run subqueries at once).
    """
    t0 = time.perf_counter()
    with get_tracer().span(
        "subquery",
        leaf=task.leaf_id,
        quota=task.quota,
        marks=len(task.query_ids),
    ) as span:
        prepared = prepare_subquery(rfs, config, task)
        outcome = scan_subquery(rfs, prepared)
        span.set(
            search_node=outcome.search_node_id,
            fetched=len(outcome.ranked),
            cache=prepared.cache_state,
        )
    outcome.duration_s = time.perf_counter() - t0
    return outcome


class SerialSubqueryExecutor:
    """Runs a final round's subquery tasks in-line on the calling thread."""

    def run_subqueries(
        self,
        rfs: RFSStructure,
        tasks: Sequence[SubqueryTask],
        config: QDConfig,
    ) -> List[SubqueryOutcome]:
        """Execute ``tasks``, returning outcomes in submission order.

        Records one counter and one latency histogram per round.
        """
        outcomes = [run_subquery_task(rfs, config, task) for task in tasks]
        metrics = get_metrics()
        if not metrics.enabled or not outcomes:
            return outcomes
        metrics.counter(
            "qd_subqueries_total", "localized subqueries executed"
        ).inc(len(outcomes))
        latency = metrics.histogram(
            "qd_subquery_seconds", "per-subquery wall time"
        )
        for outcome in outcomes:
            latency.observe(outcome.duration_s)
        return outcomes
