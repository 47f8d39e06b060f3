"""Query Decomposition CBIR — a reproduction of Hua, Yu & Liu (ICDE 2006).

A content-based image retrieval library built around the paper's *Query
Decomposition* model: instead of retrieving the k nearest neighbours from
a single neighbourhood of the feature space, the query is decomposed —
guided by user relevance feedback over an R*-tree-based *Relevance
Feedback Support* (RFS) structure — into localized subqueries whose
results are merged, so semantically similar images scattered across
distant clusters are all retrieved.

Quick start::

    from repro import (DatasetConfig, QueryDecompositionEngine,
                       build_rendered_database, get_query)
    from repro.eval import SimulatedUser

    db = build_rendered_database(DatasetConfig(total_images=3000,
                                               n_categories=60))
    engine = QueryDecompositionEngine.build(db, seed=0)
    user = SimulatedUser(db, get_query("bird"), seed=0)
    result = engine.run_scripted(user.mark, k=120, seed=0)
    print(result.describe())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "DatasetConfig",
    "FeatureConfig",
    "QDConfig",
    "RFSConfig",
    "FeedbackSession",
    "QueryDecompositionEngine",
    "QueryResult",
    "ResultGroup",
    "ImageDatabase",
    "QuerySpec",
    "Subconcept",
    "TABLE1_QUERIES",
    "build_rendered_database",
    "build_synthetic_database",
    "get_query",
    "ReproError",
    "FeatureExtractor",
    "FeatureNormalizer",
    "MBR",
    "DiskAccessCounter",
    "RFSStructure",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.config": (
            "DatasetConfig",
            "FeatureConfig",
            "QDConfig",
            "RFSConfig",
        ),
        "repro.core": (
            "FeedbackSession",
            "QueryDecompositionEngine",
            "QueryResult",
            "ResultGroup",
        ),
        "repro.datasets": (
            "ImageDatabase",
            "QuerySpec",
            "Subconcept",
            "TABLE1_QUERIES",
            "build_rendered_database",
            "build_synthetic_database",
            "get_query",
        ),
        "repro.errors": ("ReproError",),
        "repro.features": ("FeatureExtractor", "FeatureNormalizer"),
        "repro.index": (
            "MBR",
            "DiskAccessCounter",
            "RFSStructure",
        ),
    },
)
