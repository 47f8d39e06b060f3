"""Ranked lists and top-k merging.

The Query Decomposition merge step (§3.4) combines several localized
result lists, taking a number of images from each proportional to the
user's feedback; the "merge information from multiple systems" baselines
(Fagin) instead merge by overall rank.  Both operations live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import QueryError


@dataclass(frozen=True)
class RankedItem:
    """One scored result: lower ``score`` means more similar."""

    item_id: int
    score: float


def _read_only(values, dtype: type) -> np.ndarray:
    """``values`` as a read-only ``dtype`` array, copied if writeable."""
    arr = np.asarray(values, dtype=dtype)
    if arr.flags.writeable:
        arr = arr.copy()
        arr.setflags(write=False)
    return arr


class RankedList:
    """Results in ``(score, id)`` order: ascending score, ties by id.

    ``item_ids`` (int64) and ``scores`` (float64) are two aligned,
    read-only arrays, so one ranking can be shared — by the result
    cache, across sessions — without a defensive copy.  :func:`rank` is
    the only code that puts them in order; iterating yields
    :class:`RankedItem` objects, built on demand.

    Examples
    --------
    >>> RankedList.from_pairs([(0.5, 7), (0.1, 3)]).ids()
    [3, 7]
    """

    __slots__ = ("item_ids", "scores")

    def __init__(self, item_ids=(), scores=()) -> None:
        self.item_ids = _read_only(item_ids, np.int64)
        self.scores = _read_only(scores, np.float64)
        if self.item_ids.ndim != 1 or self.item_ids.shape != self.scores.shape:
            raise QueryError(
                f"ids of shape {self.item_ids.shape} do not match scores "
                f"of shape {self.scores.shape}"
            )

    @classmethod
    def from_pairs(cls, pairs: Iterable[Tuple[float, int]]) -> "RankedList":
        """Rank ``(score, item_id)`` pairs (through :func:`rank`)."""
        pairs = list(pairs)
        return rank([s for s, _ in pairs], [i for _, i in pairs])

    def __iter__(self) -> Iterator[RankedItem]:
        return map(RankedItem, self.item_ids.tolist(), self.scores.tolist())

    def __len__(self) -> int:
        return self.item_ids.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RankedList):
            return NotImplemented
        return np.array_equal(self.item_ids, other.item_ids) and (
            np.array_equal(self.scores, other.scores)
        )

    def ids(self) -> List[int]:
        """Result ids in rank order."""
        return self.item_ids.tolist()

    def truncate(self, k: int) -> "RankedList":
        """The first ``k`` results (read-only views, no copy)."""
        return RankedList(self.item_ids[:k], self.scores[:k])

    def total_score(self) -> float:
        """Sum of member scores — the paper's group 'ranking score'.

        A left-to-right Python ``sum`` in rank order, not the pairwise
        ``np.sum``, so the §3.4 group order never moves by a last bit.
        """
        return float(sum(self.scores.tolist()))


def rank(scores, ids, k: Optional[int] = None) -> RankedList:
    """The lowest-``k`` entries (all when ``k`` is ``None``), ranked.

    The one definition of result order: ascending score, ties broken by
    ascending id — equal to a stable ``(score, id)`` sort of the whole
    input, truncated.  A partition keeps everything at or below the
    ``k``-th score, so ties straddling the cut reach the id tie-break,
    then one lexsort orders the survivors.  Scores come back float64.
    """
    scores = np.asarray(scores)
    ids = np.asarray(ids, dtype=np.int64)
    if scores.ndim != 1 or scores.shape != ids.shape:
        raise QueryError(
            f"scores shape {scores.shape} does not match {ids.shape[0]} ids"
        )
    if k is not None and k < 1:
        raise QueryError(f"k must be >= 1, got {k}")
    take = scores.shape[0] if k is None else min(k, scores.shape[0])
    if scores.shape[0] > take:
        keep = scores <= np.partition(scores, take - 1)[take - 1]
        scores, ids = scores[keep], ids[keep]
    order = np.lexsort((ids, scores))[:take]
    return RankedList(ids[order], scores[order].astype(np.float64))


def merge_ranked_lists(
    lists: Sequence[RankedList], k: Optional[int] = None, dedupe: bool = True
) -> RankedList:
    """Merge several ranked lists into one global top-k by score.

    Ties broken by item id; with ``dedupe`` an item appearing in several
    lists keeps its best score (its first entry in a stable sort by
    ``(id, score)``).  ``k=None`` keeps every result.
    """
    if k is not None and k < 1:
        raise QueryError(f"k must be >= 1, got {k}")
    if not lists:
        return RankedList()
    ids = np.concatenate([rl.item_ids for rl in lists])
    scores = np.concatenate([rl.scores for rl in lists])
    if dedupe and ids.size:
        order = np.lexsort((scores, ids))
        ids, scores = ids[order], scores[order]
        first = np.concatenate(([True], ids[1:] != ids[:-1]))
        ids, scores = ids[first], scores[first]
    return rank(scores, ids, k)


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
