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

Bit-identity: per-query distances, pruning, and the §3.4 merge run the
exact same code as the serial path (:func:`repro.core.ranking.
merge_outcomes` is shared, and a memoized reader returns the exact
arrays a fresh read would).  Only the I/O is amortized, so each query's
ranking is bit-identical to running it alone, uncached, on the serial
executor — the parity tests assert this across all three executor
configurations.

Groups scan concurrently on a local thread pool when the configuration
asks for a parallel executor (``config.executor != "serial"``); blocks,
the cache, and all observability instruments are thread-safe.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cache import subquery_cache_key
from repro.config import QDConfig
from repro.exec.executors import SubqueryOutcome, default_worker_count
from repro.index.rfs import RFSStructure
from repro.obs import get_metrics, get_tracer
from repro.retrieval.multipoint import MultipointQuery


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
    task: object  # SubqueryTask
    dim_weights: Optional[np.ndarray]
    outcome: Optional[SubqueryOutcome] = None
    cache_hit: bool = False
    # Populated for misses only:
    key: Optional[str] = None
    search_node: object = None
    centroid: Optional[np.ndarray] = None
    fetch: int = 0


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
    version = rfs.structure_version
    tracer = get_tracer()
    metrics = get_metrics()

    with tracer.span(
        "run_batch",
        queries=len(queries),
        cache="on" if cache is not None else "off",
    ) as span:
        # Phase 1: resolve every task against the cache; collect misses.
        slots: List[_Slot] = []
        misses: List[_Slot] = []
        for query_index, (query, plan) in enumerate(zip(queries, plans)):
            for task in plan.tasks:
                slot = _Slot(query_index, task, query.dim_weights)
                slots.append(slot)
                _resolve_slot(rfs, config, slot, cache, version)
                if slot.outcome is None:
                    misses.append(slot)

        # Phase 2: group the misses by search node — every slot of a
        # group scans the same leaf span, so one memoized reader per
        # group turns N block reads into one.
        groups: Dict[int, List[_Slot]] = {}
        for slot in misses:
            groups.setdefault(slot.search_node.node_id, []).append(slot)

        def scan_group(group: List[_Slot]) -> None:
            reader = rfs.memoized_block_reader("localized_knn")
            for slot in group:
                epoch = None if cache is None else cache.invalidation_epoch()
                ranked = rfs.localized_knn(
                    slot.search_node,
                    slot.centroid,
                    slot.fetch,
                    weights=slot.dim_weights,
                    read_block=reader,
                    include_delta=cache is None,
                )
                if cache is not None:
                    # Cache the main-only ranking, then merge the live
                    # delta rows for this slot's own outcome.
                    cache.put(
                        slot.key,
                        version,
                        slot.search_node.node_id,
                        slot.centroid,
                        ranked,
                        epoch=epoch,
                    )
                    ranked = rfs.merge_delta_ranked(
                        slot.search_node,
                        ranked,
                        slot.centroid,
                        slot.fetch,
                        weights=slot.dim_weights,
                    )
                slot.outcome = SubqueryOutcome(
                    leaf_id=slot.task.leaf_id,
                    search_node_id=slot.search_node.node_id,
                    centroid=slot.centroid,
                    ranked=ranked,
                )

        group_lists = list(groups.values())
        workers = min(
            len(group_lists), config.workers or default_worker_count()
        )
        if config.executor != "serial" and workers > 1:
            parent_span = tracer.current

            def call(group: List[_Slot]) -> None:
                with tracer.adopt(parent_span):
                    scan_group(group)

            with ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="qd-batch"
            ) as pool:
                list(pool.map(call, group_lists))
        else:
            for group in group_lists:
                scan_group(group)

        hits = sum(1 for slot in slots if slot.cache_hit)
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
                query_hits = sum(
                    1
                    for slot in slots
                    if slot.query_index == query_index and slot.cache_hit
                )
                result.stats["cache_hits"] = float(query_hits)
                result.stats["cache_misses"] = float(
                    len(outcomes) - query_hits
                )
            results.append(result)
    return results


def _resolve_slot(
    rfs: RFSStructure,
    config: QDConfig,
    slot: _Slot,
    cache,
    version: int,
) -> None:
    """Try the cache; on a miss, prepare the slot's scan parameters."""
    task = slot.task
    leaf = rfs.get_node(task.leaf_id)
    query_points = rfs.vectors_for(
        np.asarray(task.query_ids, dtype=np.int64)
    )
    requested = task.quota + task.fetch_extra
    if cache is not None:
        slot.key = subquery_cache_key(
            leaf.node_id,
            query_points,
            requested,
            config.boundary_threshold,
            slot.dim_weights,
            store_fingerprint=rfs.store_fingerprint(),
        )
        entry = cache.get(slot.key, version)
        if entry is not None:
            # Cached entries are main-only; merge the live delta rows
            # now, exactly as the non-batched funnel does.
            node = rfs.get_node(entry.search_node_id)
            slot.cache_hit = True
            slot.outcome = SubqueryOutcome(
                leaf_id=task.leaf_id,
                search_node_id=entry.search_node_id,
                centroid=entry.centroid,
                ranked=rfs.merge_delta_ranked(
                    node,
                    entry.ranked,
                    entry.centroid,
                    min(rfs.effective_node_size(node), requested),
                    weights=slot.dim_weights,
                ),
            )
            return
    slot.search_node = rfs.expand_search_node(
        leaf, query_points, config.boundary_threshold
    )
    slot.centroid = MultipointQuery(query_points).centroid()
    slot.fetch = min(rfs.effective_node_size(slot.search_node), requested)


__all__ = ["BatchQuery", "run_final_round_batch"]
