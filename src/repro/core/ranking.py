"""Final-round computation: localized k-NN, merge, and group ranking.

Implements §3.3 and §3.4 of the paper:

1. the relevant images recorded during feedback are grouped by the RFS
   leaf (subcluster) containing them;
2. each group becomes a localized multipoint query — its similarity score
   for a candidate image is the Euclidean distance between the image and
   the centroid of the group's query points;
3. when a query image lies near its leaf's boundary (centre-distance /
   diagonal above the threshold), the search widens to the parent node,
   repeatedly if necessary;
4. each group contributes a number of top-ranked images proportional to
   the number of query images the user marked in that subcluster;
5. groups are presented ordered by ranking score (sum of member
   similarity scores).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.config import QDConfig
from repro.core.presentation import QueryResult, ResultGroup
from repro.errors import QueryError
from repro.exec import (
    OVERFETCH,
    SerialSubqueryExecutor,
    SubqueryOutcome,
    SubqueryTask,
)
from repro.index.rfs import RFSStructure
from repro.obs import get_metrics, get_tracer
from repro.retrieval.topk import (
    RankedList,
    merge_ranked_lists,
    proportional_allocation,
)


def group_marks_by_leaf(
    rfs: RFSStructure, marked_ids: Sequence[int]
) -> Dict[int, List[int]]:
    """Group relevant image ids by the RFS leaf containing them.

    One batched :meth:`RFSStructure.leaves_of_items` lookup for the
    whole mark set (store binary search or dense map) — no per-item
    Python pass, which matters for the large scripted final rounds of
    the scalability sweeps.
    """
    # Sorted, each id once — a sort rather than ``np.unique``, whose
    # first call imports ``numpy.ma`` (≈ 16–24 ms).
    ids = np.sort(np.asarray(list(marked_ids), dtype=np.int64))
    if ids.size == 0:
        return {}
    ids = ids[np.concatenate(([True], ids[1:] != ids[:-1]))]
    leaf_ids = rfs.leaves_of_items(ids)
    groups: Dict[int, List[int]] = {}
    for leaf_id, image_id in zip(leaf_ids.tolist(), ids.tolist()):
        groups.setdefault(leaf_id, []).append(image_id)
    return groups


@dataclass(frozen=True)
class FinalRoundPlan:
    """The deterministic task list of one final round.

    Produced by :func:`plan_final_round`, consumed by
    :func:`execute_final_round`.  The task order — larger allocations
    first, ties by leaf id — is part of the ranking contract: the
    sequential dedup consumes outcomes in this order.
    """

    k: int
    tasks: Tuple[SubqueryTask, ...]
    uniform_merge: bool


def plan_final_round(
    rfs: RFSStructure,
    marked_ids: Sequence[int],
    k: int,
    *,
    uniform_merge: bool = False,
) -> FinalRoundPlan:
    """Group the marks, allocate result quotas, and order the tasks."""
    if k < 1:
        raise QueryError(f"k must be >= 1, got {k}")
    by_leaf = group_marks_by_leaf(rfs, marked_ids)
    if not by_leaf:
        raise QueryError(
            "no relevant images were identified; cannot run the final "
            "localized queries"
        )
    leaf_ids = sorted(by_leaf)
    if uniform_merge:
        weights = [1] * len(leaf_ids)
    else:
        weights = [len(by_leaf[leaf_id]) for leaf_id in leaf_ids]
    allocation = proportional_allocation(weights, k)
    # Process larger allocations first so overlap after boundary expansion
    # resolves in favour of the more heavily marked subquery.
    order = sorted(
        range(len(leaf_ids)), key=lambda i: (-allocation[i], leaf_ids[i])
    )
    tasks = tuple(
        SubqueryTask(
            leaf_id=leaf_ids[i],
            quota=allocation[i],
            query_ids=tuple(by_leaf[leaf_ids[i]]),
        )
        for i in order
        if allocation[i] > 0
    )
    return FinalRoundPlan(k=k, tasks=tasks, uniform_merge=uniform_merge)


def merge_outcomes(
    rfs: RFSStructure,
    plan: FinalRoundPlan,
    outcomes: Sequence[SubqueryOutcome],
    *,
    rounds_used: int,
    merge_span,
) -> QueryResult:
    """Sequential dedup/merge + top-up over already-executed outcomes.

    ``outcomes`` must align with ``plan.tasks`` (submission order).
    ``merge_span`` is the *already active* span to record into:
    :func:`execute_final_round`, the one caller, passes the span that
    also wrapped the fan-out.
    """
    merge_candidates = get_metrics().histogram(
        "qd_merge_candidates", "candidates fetched per merge decision"
    )
    k = plan.k
    # claimed[i]: image i is already in some group (grown on demand).
    claimed = np.zeros(0, dtype=bool)

    def claim(ranked: RankedList, limit: int) -> RankedList:
        """The first ``limit`` of ``ranked`` not yet claimed, claimed."""
        nonlocal claimed
        ids = ranked.item_ids
        if ids.size and ids.max() >= claimed.size:
            claimed = np.concatenate(
                (claimed, np.zeros(ids.max() + 1 - claimed.size, dtype=bool))
            )
        fresh = np.flatnonzero(~claimed[ids])[:limit]
        claimed[ids[fresh]] = True
        return RankedList(ids[fresh], ranked.scores[fresh])

    payloads: List[dict] = []
    # Sequential, order-fixed dedup: later (smaller-quota) groups
    # yield overlapping images to earlier ones, exactly as in the
    # serial implementation.
    for task, outcome in zip(plan.tasks, outcomes):
        fresh = claim(outcome.ranked, task.quota)
        merge_span.event(
            "merge_decision",
            leaf=task.leaf_id,
            quota=task.quota,
            fetched=len(outcome.ranked),
            taken=len(fresh),
            deduplicated=len(outcome.ranked) - len(fresh),
        )
        merge_candidates.observe(len(outcome.ranked))
        payloads.append(
            {
                "leaf_id": task.leaf_id,
                "search_node": rfs.get_node(outcome.search_node_id),
                "centroid": outcome.centroid,
                "query_ids": list(task.query_ids),
                "results": [fresh],
            }
        )

    # Top-up passes: if duplicates or tiny subclusters left the total
    # short of k, widen the groups' result lists; once a group's
    # search node is exhausted, promote it to its parent (wider
    # locality) and keep going — so a full k results are returned
    # whenever the database holds that many images.
    total = sum(len(payload["results"][0]) for payload in payloads)
    topup_passes = 0
    topup_added = 0
    while total < k:
        added = 0
        topup_passes += 1
        for payload in payloads:
            if total >= k:
                break
            node = payload["search_node"]
            held = sum(map(len, payload["results"]))
            # Fetch just enough to cover this group's share of the
            # deficit (plus what is already held and possibly claimed
            # elsewhere) — never a full subtree ranking.
            deficit = k - total
            # Effective size counts live delta rows and excludes
            # tombstones, so a top-up can drain exactly what a rebuilt
            # structure of the same items would hold under this node.
            fetch = min(
                rfs.effective_node_size(node), held + deficit + OVERFETCH
            )
            ranked = rfs.localized_knn(node, payload["centroid"], fetch)
            # A group holds only claimed ids, so one mask skips both.
            fresh = claim(ranked, deficit)
            payload["results"].append(fresh)
            total += len(fresh)
            added += len(fresh)
        topup_added += added
        if total >= k:
            break
        promoted = False
        for payload in payloads:
            parent = payload["search_node"].parent
            if parent is not None:
                payload["search_node"] = parent
                promoted = True
        if added == 0 and not promoted:
            break  # the whole database is smaller than k
    merge_span.set(
        total=total, topup_passes=topup_passes, topup_added=topup_added
    )
    groups = [
        ResultGroup(
            leaf_node_id=payload["leaf_id"],
            search_node_id=payload["search_node"].node_id,
            query_image_ids=payload["query_ids"],
            items=merge_ranked_lists(payload["results"], dedupe=False),
        )
        for payload in payloads
    ]
    return QueryResult(groups=groups, rounds_used=rounds_used)


def execute_final_round(
    rfs: RFSStructure,
    marked_ids: Sequence[int],
    k: int,
    config: QDConfig,
    *,
    rounds_used: int,
    uniform_merge: bool = False,
) -> QueryResult:
    """Run the localized subqueries and merge their results.

    The subqueries run in-line on the calling thread
    (:class:`repro.exec.SerialSubqueryExecutor`); the dedup/merge that
    follows consumes their outcomes in the plan's task order.

    Parameters
    ----------
    rfs:
        The RFS structure over the database.
    marked_ids:
        All relevant images the user identified during the session.
    k:
        Total number of result images to return.
    config:
        QD parameters (boundary threshold).
    rounds_used:
        Number of feedback rounds that preceded this computation (kept in
        the result for reporting).
    uniform_merge:
        When true, every subquery receives an equal share of the k result
        slots instead of the paper's mark-proportional allocation — the
        ablation of the §3.4 merge rule.
    """
    plan = plan_final_round(rfs, marked_ids, k, uniform_merge=uniform_merge)
    cache = rfs.result_cache
    cache_before = cache.snapshot() if cache is not None else None
    merge_span = get_tracer().span(
        "merge",
        k=k,
        groups=len(plan.tasks),
        strategy="uniform" if uniform_merge else "proportional",
        cache="on" if cache is not None else "off",
    )
    with merge_span:
        outcomes = SerialSubqueryExecutor().run_subqueries(
            rfs, plan.tasks, config
        )
        result = merge_outcomes(
            rfs,
            plan,
            outcomes,
            rounds_used=rounds_used,
            merge_span=merge_span,
        )
    if cache is not None:
        # Warm-vs-cold accounting for this round (deltas, so a cache
        # shared across concurrent sessions still attributes roughly).
        after = cache.snapshot()
        result.stats["cache_hits"] = float(
            after["hits"] - cache_before["hits"]
        )
        result.stats["cache_misses"] = float(
            after["misses"] - cache_before["misses"]
        )
    return result
