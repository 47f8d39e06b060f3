"""Coalescing batch scheduler for concurrent final rounds.

Under concurrent traffic, many sessions finalize at nearly the same
time, and their final-round subqueries overwhelmingly target the same
hot RFS neighborhoods (Zipfian interest).  Executed one session at a
time, each subquery re-reads and re-materialises the same leaf blocks.
:func:`run_final_round_batch` removes that redundancy in two layers:

1. **Result cache** — every subquery is first resolved against the
   structure's :class:`repro.cache.SubqueryResultCache` (when attached);
   hits skip boundary expansion and scanning entirely.
2. **Coalesced scanning** — the remaining misses are grouped by the
   search node their boundary expansion produced; each group shares a
   memoizing block reader (:meth:`RFSStructure.memoized_block_reader`),
   so one I/O-model charge and one block materialisation per leaf serve
   every query of the group.

Bit-identity: each subquery runs the same two halves as the serial path
(:func:`repro.exec.executors.prepare_subquery` /
:func:`~repro.exec.executors.scan_subquery` — the scheduler only puts
the grouping between them), the §3.4 merge is shared
(:func:`repro.core.ranking.merge_outcomes`), and a memoized reader
returns the exact arrays a fresh read would.  Only the I/O is amortized,
so each query's ranking is bit-identical to running it alone, uncached,
on the serial executor — the parity tests assert this across all three
executor configurations.

Groups scan concurrently on a thread :class:`~repro.exec.pool.WorkerPool`
when the configuration asks for a parallel executor
(``config.executor != "serial"``); blocks, the cache, and all
observability instruments are thread-safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import QDConfig
from repro.exec.executors import (
    PreparedSubquery,
    SubqueryOutcome,
    prepare_subquery,
    scan_subquery,
)
from repro.exec.pool import WorkerPool, default_worker_count
from repro.index.rfs import RFSStructure
from repro.obs import get_metrics, get_tracer


@dataclass(frozen=True)
class BatchQuery:
    """One session's final round, as submitted to the batch scheduler.

    Mirrors the arguments of :meth:`FeedbackSession.finalize` /
    :func:`execute_final_round`: the session's accumulated relevance
    marks, the requested result size, and the optional merge/metric
    variations.
    """

    marked_ids: Tuple[int, ...]
    k: int
    uniform_merge: bool = False
    dim_weights: Optional[np.ndarray] = None


@dataclass
class _Slot:
    """One (query, task) pair flowing through the batch pipeline."""

    query_index: int
    prepared: PreparedSubquery
    outcome: Optional[SubqueryOutcome] = None


def run_final_round_batch(
    rfs: RFSStructure,
    queries: Sequence[BatchQuery],
    config: QDConfig,
    *,
    rounds_used: int = 0,
) -> List["object"]:
    """Execute many final rounds with cross-session coalescing.

    Returns one :class:`repro.core.presentation.QueryResult` per entry
    of ``queries``, in order, each bit-identical to what
    :func:`execute_final_round` would return for that query alone.
    ``result.stats`` additionally records the query's ``cache_hits`` /
    ``cache_misses`` and the batch-wide coalescing factor.
    """
    from repro.core.ranking import merge_outcomes, plan_final_round

    plans = [
        plan_final_round(
            rfs, query.marked_ids, query.k, uniform_merge=query.uniform_merge
        )
        for query in queries
    ]
    cache = rfs.result_cache
    tracer = get_tracer()
    metrics = get_metrics()

    with tracer.span(
        "run_batch",
        queries=len(queries),
        cache="on" if cache is not None else "off",
    ) as span:
        # Phase 1: resolve every task against the cache (a hit needs
        # only its delta merge); collect the misses.
        slots: List[_Slot] = []
        misses: List[_Slot] = []
        query_hits = [0] * len(queries)
        for query_index, (query, plan) in enumerate(zip(queries, plans)):
            for task in plan.tasks:
                slot = _Slot(
                    query_index,
                    prepare_subquery(rfs, config, task, query.dim_weights),
                )
                slots.append(slot)
                if slot.prepared.cached is not None:
                    query_hits[query_index] += 1
                    slot.outcome = scan_subquery(rfs, slot.prepared)
                else:
                    misses.append(slot)

        # Phase 2: group the misses by search node — every slot of a
        # group scans the same leaf span, so one memoized reader per
        # group turns N block reads into one.
        groups: Dict[int, List[_Slot]] = {}
        for slot in misses:
            groups.setdefault(
                slot.prepared.search_node.node_id, []
            ).append(slot)

        def scan_group(_shared: None, group: List[_Slot]) -> None:
            reader = rfs.memoized_block_reader("localized_knn")
            for slot in group:
                slot.outcome = scan_subquery(rfs, slot.prepared, reader)

        group_lists = list(groups.values())
        workers = min(
            len(group_lists), config.workers or default_worker_count()
        )
        parallel = config.executor != "serial" and workers > 1
        with WorkerPool(
            "thread" if parallel else "serial", workers, name="qd-batch"
        ) as pool:
            pool.map(scan_group, group_lists)

        hits = len(slots) - len(misses)
        span.set(
            tasks=len(slots),
            cache_hits=hits,
            scan_groups=len(group_lists),
            coalesced=len(misses) - len(group_lists),
        )
        metrics.counter(
            "qd_batch_queries_total", "queries served by run_batch"
        ).inc(len(queries))
        metrics.counter(
            "qd_batch_coalesced_subqueries",
            "subqueries that shared another subquery's block reads",
        ).inc(max(0, len(misses) - len(group_lists)))
        if hits:
            metrics.counter(
                "qd_batch_subqueries_total",
                "batched subquery tasks by cache outcome",
                labels={"cache": "hit"},
            ).inc(hits)
        if misses:
            metrics.counter(
                "qd_batch_subqueries_total",
                "batched subquery tasks by cache outcome",
                labels={"cache": "miss"},
            ).inc(len(misses))

        # Phase 3: per-query sequential merge, identical to the serial
        # path (shared implementation, same task order).
        results = []
        for query_index, (query, plan) in enumerate(zip(queries, plans)):
            outcomes = [
                slot.outcome
                for slot in slots
                if slot.query_index == query_index
            ]
            result = merge_outcomes(
                rfs,
                plan,
                outcomes,
                rounds_used=rounds_used,
                dim_weights=query.dim_weights,
            )
            if cache is not None:
                hits = query_hits[query_index]
                result.stats["cache_hits"] = float(hits)
                result.stats["cache_misses"] = float(len(outcomes) - hits)
            results.append(result)
    return results


__all__ = ["BatchQuery", "run_final_round_batch"]
