"""Distance functions used across the retrieval techniques.

* :func:`euclidean` / :func:`euclidean_many` — the base metric of the
  prototype (§3.4: "the Euclidian distance between the image and the
  centroid of the local query points").
* :func:`weighted_euclidean` — per-dimension weighting, the mechanism of
  Query Point Movement / MindReader (survey §2).
* :func:`quadratic_form_distance` — full quadratic form, the contour
  machinery behind Qcluster (survey §2).
"""

from __future__ import annotations

import numpy as np

from repro.errors import QueryError
from repro.utils.validation import check_vector, check_vectors


def euclidean(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance between two vectors."""
    va = check_vector("a", a)
    vb = check_vector("b", b, dim=va.shape[0])
    return float(np.linalg.norm(va - vb))


def euclidean_many(points: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Euclidean distances from every row of ``points`` to ``query``."""
    matrix = check_vectors("points", points)
    q = check_vector("query", query, dim=matrix.shape[1])
    return np.linalg.norm(matrix - q, axis=1)


def weighted_euclidean(
    points: np.ndarray, query: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Weighted Euclidean distances (diagonal-metric form).

    ``weights`` are non-negative per-dimension importances; the distance
    is ``sqrt(sum_j w_j (x_j - q_j)^2)``.  Query Point Movement sets the
    weights from the inverse variance of the relevant examples so tight
    dimensions count more.
    """
    matrix = check_vectors("points", points)
    q = check_vector("query", query, dim=matrix.shape[1])
    w = check_vector("weights", weights, dim=matrix.shape[1])
    if np.any(w < 0):
        raise QueryError("weights must be non-negative")
    diff = matrix - q
    return np.sqrt(np.sum(w * diff * diff, axis=1))


def quadratic_form_distance(
    points: np.ndarray, query: np.ndarray, matrix_a: np.ndarray
) -> np.ndarray:
    """Quadratic-form distances ``sqrt((x-q)^T A (x-q))``.

    ``matrix_a`` must be symmetric positive semi-definite.  Qcluster uses
    per-cluster quadratic forms to approximate arbitrary query contours.
    """
    pts = check_vectors("points", points)
    q = check_vector("query", query, dim=pts.shape[1])
    a = np.asarray(matrix_a, dtype=np.float64)
    if a.shape != (pts.shape[1], pts.shape[1]):
        raise QueryError(
            f"matrix_a must be ({pts.shape[1]}, {pts.shape[1]}), got {a.shape}"
        )
    if not np.allclose(a, a.T, atol=1e-9):
        raise QueryError("matrix_a must be symmetric")
    diff = pts - q
    values = np.einsum("ij,jk,ik->i", diff, a, diff)
    if np.any(values < -1e-9):
        raise QueryError("matrix_a is not positive semi-definite")
    return np.sqrt(np.maximum(values, 0.0))


def inverse_variance_weights(
    relevant: np.ndarray, floor: float = 1e-6
) -> np.ndarray:
    """MindReader-style weights: 1 / variance of the relevant examples.

    Dimensions on which the relevant set agrees (low variance) receive
    high weight.  Weights are normalised to sum to the dimensionality so
    the scale stays comparable to the unweighted metric.
    """
    matrix = check_vectors("relevant", relevant)
    variance = matrix.var(axis=0)
    weights = 1.0 / np.maximum(variance, floor)
    weights *= matrix.shape[1] / weights.sum()
    return weights
