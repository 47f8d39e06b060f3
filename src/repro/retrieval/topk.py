"""Ranked lists and top-k merging.

The Query Decomposition merge step (§3.4) combines several localized
result lists, taking a number of images from each proportional to the
user's feedback; the "merge information from multiple systems" baselines
(Fagin) instead merge by overall rank.  Both operations live here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from repro.errors import QueryError


@dataclass(frozen=True)
class RankedItem:
    """One scored result: lower ``score`` means more similar."""

    item_id: int
    score: float


@dataclass
class RankedList:
    """A list of results ordered by ascending score.

    Examples
    --------
    >>> rl = RankedList.from_pairs([(0.5, 7), (0.1, 3)])
    >>> [item.item_id for item in rl]
    [3, 7]
    """

    items: List[RankedItem] = field(default_factory=list)

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[Tuple[float, int]]
    ) -> "RankedList":
        """Build from ``(score, item_id)`` pairs (sorted internally)."""
        items = [RankedItem(item_id=i, score=float(s)) for s, i in pairs]
        items.sort(key=lambda it: (it.score, it.item_id))
        return cls(items)

    def __iter__(self) -> Iterator[RankedItem]:
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def ids(self) -> List[int]:
        """Result ids in rank order."""
        return [it.item_id for it in self.items]

    def truncate(self, k: int) -> "RankedList":
        """The first ``k`` results as a new list."""
        return RankedList(self.items[:k])

    def total_score(self) -> float:
        """Sum of member scores — the paper's group 'ranking score'."""
        return float(sum(it.score for it in self.items))


def top_k(
    scores: np.ndarray, ids: Sequence[int], k: int
) -> RankedList:
    """Lowest-``k`` entries of a score vector as a :class:`RankedList`."""
    arr = np.asarray(scores, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] != len(ids):
        raise QueryError(
            f"scores shape {arr.shape} does not match {len(ids)} ids"
        )
    if k < 1:
        raise QueryError(f"k must be >= 1, got {k}")
    take = min(k, arr.shape[0])
    order = np.argsort(arr, kind="stable")[:take]
    return RankedList.from_pairs(
        (float(arr[i]), int(ids[i])) for i in order
    )


def top_pairs(
    scores: np.ndarray, ids: np.ndarray, k: int
) -> List[Tuple[float, int]]:
    """Lowest-``k`` ``(score, id)`` pairs, ties broken by ascending id.

    Fully vectorized (partition + lexsort) — the store-backed localized
    k-NN uses it instead of the per-member Python append/sort loop.
    Ties that straddle the ``k``-th score are resolved by id, exactly
    matching a stable ``(score, id)`` sort of the full input.
    """
    if k < 1:
        raise QueryError(f"k must be >= 1, got {k}")
    scores = np.asarray(scores)
    ids = np.asarray(ids)
    n = scores.shape[0]
    take = min(k, n)
    if take == 0:
        return []
    if n > take:
        # Keep everything at or below the k-th score so boundary ties
        # survive into the id tie-break.
        kth = np.partition(scores, take - 1)[take - 1]
        keep = scores <= kth
        scores = scores[keep]
        ids = ids[keep]
    order = np.lexsort((ids, scores))[:take]
    return list(
        zip(
            scores[order].astype(np.float64).tolist(),
            ids[order].tolist(),
        )
    )


def merge_ranked_lists(
    lists: Sequence[RankedList], k: int, dedupe: bool = True
) -> RankedList:
    """Merge several ranked lists into one global top-k by score.

    Ties broken by item id; with ``dedupe`` an item appearing in several
    lists keeps its best score.
    """
    if k < 1:
        raise QueryError(f"k must be >= 1, got {k}")
    best: dict[int, float] = {}
    all_items: List[RankedItem] = []
    for rl in lists:
        for it in rl:
            if dedupe:
                if it.item_id not in best or it.score < best[it.item_id]:
                    best[it.item_id] = it.score
            else:
                all_items.append(it)
    if dedupe:
        all_items = [
            RankedItem(item_id=i, score=s) for i, s in best.items()
        ]
    all_items.sort(key=lambda it: (it.score, it.item_id))
    return RankedList(all_items[:k])


def proportional_allocation(
    group_sizes: Sequence[int], total: int
) -> List[int]:
    """Split ``total`` slots across groups proportionally to their sizes.

    Used by the QD merge step: each localized subquery contributes a
    number of result images proportional to the number of relevant images
    the user identified in its subcluster (§3.4).  Every non-empty group
    receives at least one slot when ``total`` allows; leftover slots go to
    the largest remainders.
    """
    if total < 0:
        raise QueryError(f"total must be >= 0, got {total}")
    sizes = [max(0, int(s)) for s in group_sizes]
    weight_sum = sum(sizes)
    n_groups = len(sizes)
    if n_groups == 0 or total == 0:
        return [0] * n_groups
    if weight_sum == 0:
        # Degenerate: spread evenly.
        base = total // n_groups
        out = [base] * n_groups
        for i in range(total - base * n_groups):
            out[i] += 1
        return out
    raw = [total * s / weight_sum for s in sizes]
    out = [int(np.floor(r)) for r in raw]
    # Guarantee non-empty groups at least one slot if the budget allows.
    nonempty = [i for i, s in enumerate(sizes) if s > 0]
    if total >= len(nonempty):
        for i in nonempty:
            if out[i] == 0:
                out[i] = 1
    # Fix the total by adjusting along largest/smallest remainders.
    def remainder(i: int) -> float:
        return raw[i] - np.floor(raw[i])

    diff = total - sum(out)
    order = sorted(nonempty, key=remainder, reverse=True)
    idx = 0
    while diff > 0 and order:
        out[order[idx % len(order)]] += 1
        diff -= 1
        idx += 1
    # Over budget only when the one-slot floor was applied, i.e. when
    # total >= len(nonempty): then a sum above total leaves some group
    # holding two or more slots, so each pass takes one and this ends.
    idx = 0
    order_low = sorted(nonempty, key=remainder)
    while diff < 0:
        j = order_low[idx % len(order_low)]
        if out[j] > 1:
            out[j] -= 1
            diff += 1
        idx += 1
    return out
