"""Reference forms of the final round's ranking — test-side oracles.

Everything here is the *historical* tuple-and-set form of a ranking
step, kept out of ``src/`` on purpose: rankings as lists of
``(score, id)`` tuples, the merge's dedup through a Python set, each
group wrapped in :class:`~repro.retrieval.topk.RankedItem` objects and
sorted with a lambda, the delta merge and the shard gather as
``list.sort`` calls.  The shipped array path (one
:func:`~repro.retrieval.topk.rank` behind every ordering) must
reproduce these id for id and bit for bit, group ranking scores
included — which is what ``tests/test_ranking_oracle.py`` checks.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

from repro.exec import OVERFETCH
from repro.retrieval.topk import RankedItem

Pair = Tuple[float, int]


def pairs_of(ranked) -> List[Pair]:
    """A :class:`~repro.retrieval.topk.RankedList` as ``(score, id)``."""
    return list(zip(ranked.scores.tolist(), ranked.item_ids.tolist()))


def reference_from_pairs(pairs) -> List[RankedItem]:
    """``RankedList.from_pairs``: wrap each pair, sort by (score, id)."""
    items = [RankedItem(item_id=i, score=float(s)) for s, i in pairs]
    items.sort(key=lambda it: (it.score, it.item_id))
    return items


def reference_total_score(items: Sequence[RankedItem]) -> float:
    """``RankedList.total_score``: a left-to-right Python sum."""
    return float(sum(it.score for it in items))


def reference_sorted_cut(pairs: Sequence[Pair], k: int) -> List[Pair]:
    """The delta merge and the shard gather: sort the pool, cut at k."""
    merged = list(pairs)
    merged.sort(key=lambda pair: (pair[0], pair[1]))
    del merged[k:]
    return merged


def reference_merge_outcomes(
    rfs,
    plan,
    rankings: Sequence[Sequence[Pair]],
    search_node_ids: Sequence[int],
    centroids: Sequence,
    localized_knn: Callable[..., List[Pair]],
) -> List[Tuple[int, int, List[RankedItem]]]:
    """``merge_outcomes`` with a set for ``claimed`` and tuple lists.

    ``rankings[i]`` is task ``i``'s over-fetched ranking;
    ``localized_knn(node, centroid, fetch)`` answers a top-up as pairs.
    Returns ``(leaf_id, search_node_id, items)`` per group, in the
    presentation order ``QueryResult`` gives its groups.
    """
    k = plan.k
    claimed = set()
    payloads = []
    for task, ranked, node_id, centroid in zip(
        plan.tasks, rankings, search_node_ids, centroids
    ):
        fresh = [
            (dist, image_id)
            for dist, image_id in ranked
            if image_id not in claimed
        ][: task.quota]
        claimed.update(image_id for _, image_id in fresh)
        payloads.append(
            {
                "leaf_id": task.leaf_id,
                "search_node": rfs.get_node(node_id),
                "centroid": centroid,
                "results": fresh,
            }
        )
    total = sum(len(p["results"]) for p in payloads)
    while total < k:
        added = 0
        for payload in payloads:
            if total >= k:
                break
            node = payload["search_node"]
            have = {image_id for _, image_id in payload["results"]}
            deficit = k - total
            fetch = min(
                rfs.effective_node_size(node), len(have) + deficit + OVERFETCH
            )
            for dist, image_id in localized_knn(
                node, payload["centroid"], fetch
            ):
                if total >= k:
                    break
                if image_id in claimed or image_id in have:
                    continue
                payload["results"].append((dist, image_id))
                claimed.add(image_id)
                total += 1
                added += 1
        if total >= k:
            break
        promoted = False
        for payload in payloads:
            parent = payload["search_node"].parent
            if parent is not None:
                payload["search_node"] = parent
                promoted = True
        if added == 0 and not promoted:
            break
    groups = [
        (
            payload["leaf_id"],
            payload["search_node"].node_id,
            reference_from_pairs(payload["results"]),
        )
        for payload in payloads
    ]
    groups.sort(key=lambda g: (reference_total_score(g[2]), g[0]))
    return groups
