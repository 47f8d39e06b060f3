"""Clustering substrate: k-means, PCA, and cluster-quality metrics.

The paper's RFS structure relies on unsupervised k-means at every tree
node to pick representative images (§3.1), and its Figure 1 uses PCA to
visualise the scattering of "white sedan" images into pose clusters.
Neither scikit-learn nor OpenCV is assumed; both algorithms are
implemented here on plain numpy.
"""

from repro._lazy import lazy_exports
from repro.clustering.kmeans import (
    KMeansResult,
    kmeans,
    kmeans_stacked,
)

__all__ = [
    "KMeansResult",
    "kmeans",
    "kmeans_stacked",
    "PCA",
    "cluster_separation_ratio",
    "pairwise_centroid_distances",
    "silhouette_score",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.clustering.pca": ("PCA",),
        "repro.clustering.quality": (
            "cluster_separation_ratio",
            "pairwise_centroid_distances",
            "silhouette_score",
        ),
    },
)
