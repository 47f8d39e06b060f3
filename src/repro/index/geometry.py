"""Minimum bounding hyperrectangles for the nodes of the RFS structure.

An :class:`MBR` is an axis-aligned box in the 37-d feature space: the
bound every k-NN search prunes with (MINDIST) and the node diagonal of
the RFS boundary-expansion rule.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError


class MBR:
    """Axis-aligned minimum bounding rectangle in d dimensions.

    Immutable by convention: operations return new boxes.  ``lo``/``hi``
    are (d,) arrays with ``lo <= hi`` elementwise.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: np.ndarray, hi: np.ndarray) -> None:
        lo = np.asarray(lo, dtype=np.float64)
        hi = np.asarray(hi, dtype=np.float64)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ConfigurationError(
                f"MBR bounds must be matching 1-D arrays, got "
                f"{lo.shape} and {hi.shape}"
            )
        if np.any(lo > hi):
            raise ConfigurationError("MBR requires lo <= hi elementwise")
        self.lo = lo
        self.hi = hi

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def _trusted(cls, lo: np.ndarray, hi: np.ndarray) -> "MBR":
        """Validation-free constructor for internal hot paths.

        Callers own the invariants (matching 1-D float64 arrays,
        ``lo <= hi``): the build makes one box per node from the
        partition's own bounds.
        """
        box = object.__new__(cls)
        box.lo = lo
        box.hi = hi
        return box

    @classmethod
    def from_points(cls, points: np.ndarray) -> "MBR":
        """Tight box around an (n, d) point matrix."""
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ConfigurationError(
                f"from_points needs a non-empty (n, d) matrix, got shape "
                f"{pts.shape}"
            )
        return cls(pts.min(axis=0), pts.max(axis=0))

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def dims(self) -> int:
        """Dimensionality of the box."""
        return self.lo.shape[0]

    def extents(self) -> np.ndarray:
        """Per-dimension side lengths."""
        return self.hi - self.lo

    def diagonal(self) -> float:
        """Euclidean length of the main diagonal.

        This is the denominator of the paper's boundary-expansion test
        (§3.3): expand to the parent when
        ``dist(query, centre) / diagonal > threshold``.
        """
        return float(np.linalg.norm(self.extents()))

    def min_distance(self, point: np.ndarray) -> float | np.ndarray:
        """MINDIST: Euclidean distance from ``point`` to the box (0 inside).

        The standard lower bound a k-NN search prunes with.  Also
        accepts an (n, d) batch of points, returning the (n,) MINDIST
        vector in one vectorized pass.
        """
        p = np.asarray(point, dtype=np.float64)
        below = np.maximum(self.lo - p, 0.0)
        above = np.maximum(p - self.hi, 0.0)
        gap = below + above
        if p.ndim == 1:
            return float(np.linalg.norm(gap))
        return np.linalg.norm(gap, axis=-1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MBR(dims={self.dims}, diagonal={self.diagonal():.3f})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MBR):
            return NotImplemented
        return bool(
            np.array_equal(self.lo, other.lo)
            and np.array_equal(self.hi, other.hi)
        )

    def __hash__(self) -> int:
        return hash((self.lo.tobytes(), self.hi.tobytes()))


def stacked_min_distances(
    los: np.ndarray,
    his: np.ndarray,
    point: np.ndarray,
) -> np.ndarray:
    """MINDIST from one point to many boxes, vectorized across boxes.

    ``los``/``his`` are (n, d) stacks of box bounds (e.g. every leaf
    under a search node — see
    :meth:`repro.index.rfs.RFSStructure.localized_knn`, which uses this
    to prune leaves without a per-leaf Python call).
    """
    p = np.asarray(point, dtype=np.float64)
    below = np.maximum(los - p, 0.0)
    above = np.maximum(p - his, 0.0)
    return np.linalg.norm(below + above, axis=1)
