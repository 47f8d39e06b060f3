"""Common interface of the k-NN-family baseline techniques.

The relevance-feedback loop every baseline implements::

    technique.begin([example_id])
    for round in range(rounds):
        results = technique.retrieve(k)
        technique.feedback(user_marks(results.ids()))

Subclasses override :meth:`FeedbackTechnique._score` (distance of every
database image to the current query model) and
:meth:`FeedbackTechnique._update_model` (how feedback reshapes the query).
"""

from __future__ import annotations

import abc
from typing import List, Sequence

import numpy as np

from repro.datasets.database import ImageDatabase
from repro.errors import QueryError, SessionStateError
from repro.retrieval.topk import RankedList, rank
from repro.utils.rng import RandomState, ensure_rng


class FeedbackTechnique(abc.ABC):
    """Abstract single-query relevance-feedback retrieval technique."""

    #: Short identifier used in reports (subclasses set this).
    name: str = "abstract"

    def __init__(
        self, database: ImageDatabase, *, seed: RandomState = None
    ) -> None:
        self.database = database
        self._rng = ensure_rng(seed)
        self._example_ids: List[int] = []
        self._relevant_ids: List[int] = []
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def begin(self, example_ids: Sequence[int]) -> None:
        """Start a query from one or more example images."""
        ids = [int(i) for i in example_ids]
        if not ids:
            raise QueryError("begin() needs at least one example image")
        for image_id in ids:
            if not 0 <= image_id < self.database.size:
                raise QueryError(f"example id {image_id} out of range")
        self._example_ids = ids
        self._relevant_ids = list(ids)
        self._started = True
        self._update_model(self._relevant_matrix())

    def retrieve(self, k: int) -> RankedList:
        """Current top-k results under the technique's query model."""
        self._require_started()
        if k < 1:
            raise QueryError(f"k must be >= 1, got {k}")
        scores = self._score(self.database.features)
        return rank(scores, np.arange(self.database.size), k)

    def feedback(self, relevant_ids: Sequence[int]) -> None:
        """Incorporate the user's relevance marks into the query model."""
        self._require_started()
        fresh = [int(i) for i in relevant_ids]
        known = set(self._relevant_ids)
        self._relevant_ids.extend(i for i in fresh if i not in known)
        self._update_model(self._relevant_matrix())

    @property
    def relevant_ids(self) -> List[int]:
        """Relevant images accumulated so far (examples included)."""
        return list(self._relevant_ids)

    # ------------------------------------------------------------------
    # Subclass contract
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _update_model(self, relevant: np.ndarray) -> None:
        """Re-estimate the query model from the (m, d) relevant matrix."""

    @abc.abstractmethod
    def _score(self, candidates: np.ndarray) -> np.ndarray:
        """Distance of every candidate row to the query model."""

    # ------------------------------------------------------------------
    def _relevant_matrix(self) -> np.ndarray:
        ids = np.asarray(self._relevant_ids, dtype=np.int64)
        return self.database.features[ids]

    def _require_started(self) -> None:
        if not self._started:
            raise SessionStateError(
                f"{self.name}: call begin() before retrieve()/feedback()"
            )
