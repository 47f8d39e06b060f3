"""Distance functions, multipoint queries, and top-k machinery.

These are the retrieval primitives shared by the Query Decomposition core
and all baseline techniques: plain/weighted/quadratic-form distances
(§2's survey of query-point-movement and Qcluster), the MARS-style
multipoint query, and ranked-list utilities.
"""

from repro._lazy import lazy_exports

__all__ = [
    "euclidean",
    "euclidean_many",
    "quadratic_form_distance",
    "weighted_euclidean",
    "MultipointQuery",
    "RankedList",
    "merge_ranked_lists",
    "top_k",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.retrieval.distance": (
            "euclidean",
            "euclidean_many",
            "quadratic_form_distance",
            "weighted_euclidean",
        ),
        "repro.retrieval.multipoint": ("MultipointQuery",),
        "repro.retrieval.topk": ("RankedList", "merge_ranked_lists", "top_k"),
    },
)
