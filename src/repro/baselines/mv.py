"""Multiple Viewpoints (MV) — the paper's main comparator.

Survey §2, reference [5] (French & Jin, CIVR 2004).  MV searches with
several *channel* queries, each considering a different view of the
visual features — the original colour image, its colour negative, its
grey-scale rendition, and the grey-scale negative — and combines the
images returned by the four channels into the final result set (paper
§5.2: "we combined the images returned by the four color channels").

Channel simulation over the 37-d feature layout (colour moments 0–8,
wavelet texture 9–18, edge structure 19–36), operating on z-scored
features where negating a block reflects it about the collection mean —
the feature-space image of the pixel-domain transform:

=================  ======================================================
channel            query transform / metric
=================  ======================================================
color              query unchanged, all 37 dimensions
color-negative     colour block of the query negated, all dimensions
bw                 colour block ignored (weight 0), query unchanged
bw-negative        colour block ignored, texture block negated
=================  ======================================================

Feedback moves the (single) query point to the centroid of the relevant
images — MV refines *where* the neighbourhood sits but, like every
technique built on the k-NN model, explores one neighbourhood per
channel.  The extra channels recover appearance variants (a blue bus vs
a green bus) at the price of admitting channel-matched irrelevant images
— exactly the precision behaviour Table 1 reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.baselines.base import FeedbackTechnique
from repro.config import FeatureConfig
from repro.retrieval.topk import (
    RankedList,
    merge_ranked_lists,
    rank,
)
from repro.retrieval.distance import weighted_euclidean
from repro.errors import QueryError


@dataclass(frozen=True)
class Channel:
    """One MV search channel: a name, a sign vector, and a weight mask."""

    name: str
    signs: np.ndarray
    weights: np.ndarray

    def transform(self, query: np.ndarray) -> np.ndarray:
        """The channel's view of the query point."""
        return query * self.signs


def default_channels(config: FeatureConfig | None = None) -> List[Channel]:
    """The four colour channels of the paper's MV configuration."""
    cfg = config or FeatureConfig()
    d = cfg.total_dims
    color = slice(0, cfg.color_dims)
    texture = slice(cfg.color_dims, cfg.color_dims + cfg.texture_dims)

    ones = np.ones(d)

    signs_neg_color = np.ones(d)
    signs_neg_color[color] = -1.0

    weights_bw = np.ones(d)
    weights_bw[color] = 0.0

    signs_bw_neg = np.ones(d)
    signs_bw_neg[texture] = -1.0

    return [
        Channel("color", np.ones(d), ones.copy()),
        Channel("color-negative", signs_neg_color, ones.copy()),
        Channel("bw", np.ones(d), weights_bw.copy()),
        Channel("bw-negative", signs_bw_neg, weights_bw.copy()),
    ]


class MultipleViewpoints(FeedbackTechnique):
    """Four-channel Multiple Viewpoints retrieval with centroid feedback."""

    name = "mv"

    def __init__(
        self,
        *args,
        channels: List[Channel] | None = None,
        feature_config: FeatureConfig | None = None,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.channels = (
            channels if channels is not None
            else default_channels(feature_config)
        )
        if not self.channels:
            raise QueryError("MV needs at least one channel")
        for ch in self.channels:
            if ch.signs.shape[0] != self.database.dims:
                raise QueryError(
                    f"channel {ch.name!r} dimensionality "
                    f"{ch.signs.shape[0]} != database {self.database.dims}"
                )

    def _update_model(self, relevant: np.ndarray) -> None:
        self._query_point = relevant.mean(axis=0)

    def _score(self, candidates: np.ndarray) -> np.ndarray:
        """Best (minimum) distance over the four channel queries.

        Used where a single score per image is required; the primary
        entry point :meth:`retrieve` combines per-channel result lists
        the way the paper describes.
        """
        scores = np.full(candidates.shape[0], np.inf)
        for ch in self.channels:
            dist = weighted_euclidean(
                candidates, ch.transform(self._query_point), ch.weights
            )
            np.minimum(scores, dist, out=scores)
        return scores

    def retrieve(self, k: int) -> RankedList:
        """Combine the images returned by the four channels.

        Each channel contributes an equal share of the k result slots
        (its top-ranked images under its own metric); remaining slots are
        filled from the overall channel-merged ranking.
        """
        self._require_started()
        if k < 1:
            raise QueryError(f"k must be >= 1, got {k}")
        per_channel = list(self.channel_results(k).values())
        share = max(1, k // len(self.channels))
        chosen: dict[int, float] = {}
        for ranked in per_channel:
            taken = 0
            for item in ranked:
                if taken >= share:
                    break
                if item.item_id in chosen:
                    continue
                chosen[item.item_id] = item.score
                taken += 1
        if len(chosen) < k:
            merged = merge_ranked_lists(per_channel, k=k * 2)
            for item in merged:
                if len(chosen) >= k:
                    break
                if item.item_id not in chosen:
                    chosen[item.item_id] = item.score
        return rank(
            np.fromiter(chosen.values(), dtype=np.float64),
            np.fromiter(chosen.keys(), dtype=np.int64),
            k,
        )

    def channel_results(self, k: int) -> dict[str, RankedList]:
        """Per-channel top-k lists (for analysis and the case studies)."""
        self._require_started()
        out: dict[str, RankedList] = {}
        ids = np.arange(self.database.size)
        for ch in self.channels:
            dist = weighted_euclidean(
                self.database.features,
                ch.transform(self._query_point),
                ch.weights,
            )
            out[ch.name] = rank(dist, ids, k)
        return out
