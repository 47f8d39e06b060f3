"""MARS-style multipoint queries (survey §2, reference [13]).

A multipoint query aggregates several representative points; the distance
of a database point to the query is the weighted combination of its
distances to the representatives, with weights proportional to how many
relevant images each representative stands for.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import QueryError
from repro.obs import get_metrics
from repro.utils.validation import check_vector, check_vectors


class MultipointQuery:
    """A weighted multi-representative query.

    Parameters
    ----------
    points:
        (m, d) representative points.
    weights:
        Optional per-representative weights (default uniform).  They are
        normalised to sum to 1.

    Examples
    --------
    >>> import numpy as np
    >>> mq = MultipointQuery(np.array([[0.0, 0.0], [2.0, 0.0]]))
    >>> float(mq.distances(np.array([[1.0, 0.0]]))[0])
    1.0
    """

    def __init__(
        self,
        points: np.ndarray,
        weights: Optional[Sequence[float]] = None,
    ) -> None:
        self.points = check_vectors("points", points)
        if self.points.shape[0] == 0:
            raise QueryError("multipoint query needs at least one point")
        m = self.points.shape[0]
        if weights is None:
            w = np.full(m, 1.0 / m)
        else:
            w = np.asarray(weights, dtype=np.float64)
            if w.shape != (m,):
                raise QueryError(
                    f"weights must have shape ({m},), got {w.shape}"
                )
            if np.any(w < 0) or w.sum() <= 0:
                raise QueryError("weights must be non-negative, sum > 0")
            w = w / w.sum()
        self.weights = w

    @property
    def dims(self) -> int:
        """Dimensionality of the query points."""
        return self.points.shape[1]

    @property
    def size(self) -> int:
        """Number of representatives in the query."""
        return self.points.shape[0]

    def centroid(self) -> np.ndarray:
        """Weighted centroid of the representatives."""
        return self.weights @ self.points

    def distances(
        self, candidates: np.ndarray, *, trusted: bool = False
    ) -> np.ndarray:
        """Weighted aggregate distance of each candidate to the query.

        ``dist(x) = sum_i w_i * ||x - p_i||`` — the weighted combination
        of individual distances described in the survey.  Computed one
        representative at a time: an (n, d) scratch buffer instead of
        the (n, m, d) broadcast tensor, so large candidate batches
        (concurrent requests run several at once) stay memory-lean.

        ``trusted=True`` routes an already-validated store block (see
        :mod:`repro.store`) through the fused batched kernel: no
        ``check_vectors`` re-validation, one ``(n, m)`` norm-expansion
        pass instead of the per-representative loop, arithmetic in the
        block's dtype.
        """
        if trusted:
            from repro.store.kernels import multipoint_distances

            return multipoint_distances(
                np.asarray(candidates), self.points, self.weights
            )
        matrix = check_vectors("candidates", candidates, dim=self.dims)
        table = np.empty(
            (matrix.shape[0], self.points.shape[0]), dtype=np.float64
        )
        for j in range(self.points.shape[0]):
            diff = matrix - self.points[j]
            table[:, j] = np.sqrt(np.sum(diff**2, axis=1))
        get_metrics().counter(
            "qd_distance_computations", "feature-vector distance evals"
        ).inc(matrix.shape[0] * self.points.shape[0])
        return table @ self.weights

    def distance_one(self, candidate: np.ndarray) -> float:
        """Aggregate distance of a single candidate vector."""
        vec = check_vector("candidate", candidate, dim=self.dims)
        return float(self.distances(vec[None, :])[0])

    @classmethod
    def from_relevant_clusters(
        cls,
        relevant: np.ndarray,
        labels: np.ndarray,
        centroids: np.ndarray,
    ) -> "MultipointQuery":
        """Build the MARS multipoint query from clustered feedback.

        Each cluster of relevant points is represented by the *relevant
        point nearest its centroid*; the representative's weight is the
        cluster's share of the relevant images.
        """
        matrix = check_vectors("relevant", relevant)
        labels = np.asarray(labels)
        cents = check_vectors("centroids", centroids, dim=matrix.shape[1])
        reps = []
        weights = []
        for j in range(cents.shape[0]):
            members = matrix[labels == j]
            if members.shape[0] == 0:
                continue
            dists = np.linalg.norm(members - cents[j], axis=1)
            reps.append(members[int(np.argmin(dists))])
            weights.append(members.shape[0])
        if not reps:
            raise QueryError("no non-empty clusters in feedback")
        return cls(np.vstack(reps), weights)
