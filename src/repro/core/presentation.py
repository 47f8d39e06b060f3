"""Result presentation: groups, ranking scores, and flattened views.

The prototype presents result images in groups, one per localized
subquery, ordered by each group's *ranking score* — the sum of the
similarity scores of its member images (§3.4, Figure 3).  A transparent
single ranked list ordered by individual similarity is also provided, as
the paper suggests for practical deployments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.retrieval.topk import RankedList, merge_ranked_lists


@dataclass
class ResultGroup:
    """Results of one localized subquery.

    Attributes
    ----------
    leaf_node_id:
        RFS leaf the subquery originated from.
    search_node_id:
        Node actually searched after boundary expansion (may be an
        ancestor of the leaf).
    query_image_ids:
        Relevant images the user marked in this subcluster — the local
        multipoint query.
    items:
        Result images ranked by similarity (ascending distance).
    """

    leaf_node_id: int
    search_node_id: int
    query_image_ids: List[int]
    items: RankedList

    @property
    def ranking_score(self) -> float:
        """Sum of member similarity scores (lower = more relevant group)."""
        return self.items.total_score()

    @property
    def weight(self) -> int:
        """Number of user-identified query images (merge weight)."""
        return len(self.query_image_ids)

    def __len__(self) -> int:
        return len(self.items)


@dataclass
class QueryResult:
    """Final outcome of a Query Decomposition session.

    ``groups`` are ordered by ranking score (best first).  ``flatten``
    preserves the grouped presentation; ``flatten_by_score`` produces the
    transparent single ranked list.
    """

    groups: List[ResultGroup]
    rounds_used: int
    stats: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.groups.sort(key=lambda g: (g.ranking_score, g.leaf_node_id))

    @property
    def n_groups(self) -> int:
        """Number of localized result groups."""
        return len(self.groups)

    def all_ids(self) -> List[int]:
        """Distinct result ids in grouped presentation order."""
        seen: set[int] = set()
        out: List[int] = []
        for group in self.groups:
            for item_id in group.items.ids():
                if item_id not in seen:
                    seen.add(item_id)
                    out.append(item_id)
        return out

    def flatten(self, k: Optional[int] = None) -> List[int]:
        """Result ids group by group (the Figure 3 presentation)."""
        ids = self.all_ids()
        return ids if k is None else ids[:k]

    def flatten_by_score(self, k: Optional[int] = None) -> RankedList:
        """Single ranked list ordered by individual similarity score."""
        return merge_ranked_lists([group.items for group in self.groups], k)

    def describe(self) -> str:
        """Human-readable multi-line summary of the grouped result."""
        lines = [f"QueryResult: {self.n_groups} group(s), "
                 f"{len(self.all_ids())} image(s)"]
        for rank, group in enumerate(self.groups, start=1):
            lines.append(
                f"  group {rank}: leaf={group.leaf_node_id} "
                f"searched={group.search_node_id} "
                f"queries={len(group.query_image_ids)} "
                f"results={len(group)} "
                f"ranking_score={group.ranking_score:.3f}"
            )
        return "\n".join(lines)
