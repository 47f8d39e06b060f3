"""Fagin multi-system merge — survey §2, references [3, 4].

"This approach evaluates atomic queries (e.g., 'find red objects') in
separate subsystems consecutively ... the top k images are selected from
the overall ranked list as the result."

Each *subsystem* ranks the database under one feature family (colour
moments / wavelet texture / edge structure) — the atomic-query view.
Retrieval runs **Fagin's algorithm (FA)**:

1. do sorted access round-robin over the subsystem rankings until some
   k objects have been seen in *every* ranking;
2. for every object seen at all, fetch its missing subsystem scores by
   random access;
3. return the k objects with the best aggregate (summed) score.

FA is instance-optimal for monotone aggregates over independent ranked
sources; here it demonstrates the survey's point that merging per-
subsystem rankings is still a single-query technique — the result set
stays confined to the neighbourhood(s) of one query point per subsystem.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.baselines.base import FeedbackTechnique
from repro.config import FeatureConfig
from repro.errors import QueryError
from repro.retrieval.topk import RankedList, rank


class FaginMerge(FeedbackTechnique):
    """Fagin's algorithm over per-feature-family subsystem rankings.

    Parameters
    ----------
    feature_config:
        Defines the family column blocks (defaults to the 37-d layout).
    """

    name = "fagin"

    def __init__(
        self,
        *args,
        feature_config: FeatureConfig | None = None,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        cfg = feature_config or FeatureConfig()
        if cfg.total_dims != self.database.dims:
            raise QueryError(
                f"feature config dims {cfg.total_dims} != database "
                f"{self.database.dims}"
            )
        self._slices = {
            "color": slice(0, cfg.color_dims),
            "texture": slice(
                cfg.color_dims, cfg.color_dims + cfg.texture_dims
            ),
            "edges": slice(
                cfg.color_dims + cfg.texture_dims, cfg.total_dims
            ),
        }

    def _update_model(self, relevant: np.ndarray) -> None:
        self._query_point = relevant.mean(axis=0)

    def _subsystem_scores(self) -> Dict[str, np.ndarray]:
        """Distance of every image to the query in each subsystem."""
        feats = self.database.features
        out: Dict[str, np.ndarray] = {}
        for name, block in self._slices.items():
            diff = feats[:, block] - self._query_point[block]
            out[name] = np.sqrt(np.sum(diff * diff, axis=1))
        return out

    def _score(self, candidates: np.ndarray) -> np.ndarray:
        """Aggregate (summed subsystem) distance — the FA aggregate."""
        out = np.zeros(candidates.shape[0])
        for block in self._slices.values():
            diff = candidates[:, block] - self._query_point[block]
            out += np.sqrt(np.sum(diff * diff, axis=1))
        return out

    def retrieve(self, k: int) -> RankedList:
        """Fagin's algorithm over the subsystem rankings."""
        self._require_started()
        if k < 1:
            raise QueryError(f"k must be >= 1, got {k}")
        scores = self._subsystem_scores()
        names = list(scores)
        orders = {
            name: np.argsort(values, kind="stable")
            for name, values in scores.items()
        }
        n = self.database.size
        k_eff = min(k, n)
        seen: Dict[int, set] = {}
        complete = 0
        depth = 0
        # Phase 1: round-robin sorted access until k objects are
        # complete (seen in every list).
        while complete < k_eff and depth < n:
            for name in names:
                obj = int(orders[name][depth])
                entry = seen.setdefault(obj, set())
                before = len(entry)
                entry.add(name)
                if before < len(names) and len(entry) == len(names):
                    complete += 1
            depth += 1
        self._last_depth = depth
        # Phase 2: random access for every object seen at all, then
        # rank by aggregate score.
        candidates = list(seen)
        aggregate = np.zeros(len(candidates))
        for name in names:
            aggregate += scores[name][candidates]
        return rank(aggregate, np.asarray(candidates, dtype=np.int64), k_eff)

    @property
    def sorted_access_depth(self) -> int:
        """Depth phase 1 reached on the last retrieve (diagnostics)."""
        return getattr(self, "_last_depth", 0)
