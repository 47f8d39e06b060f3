"""Synthetic Corel-like dataset: categories, query set, and builders.

The paper's test database holds 15,000 Corel images across ~150 expert
labelled categories, plus a few hundred images the authors created to
exercise the semantic gap.  This package synthesises an equivalent:

* :mod:`repro.datasets.concepts` — the category registry: 27 rendered
  categories covering every subconcept of the paper's 11 test queries
  (Table 1) plus parametric distractor categories up to the configured
  count;
* :mod:`repro.datasets.queryset` — the 11 test queries with their
  subconcept → category mapping;
* :mod:`repro.datasets.database` — the :class:`ImageDatabase` container
  (features, labels, category names) with npz persistence;
* :mod:`repro.datasets.build` — the rendered backend (procedural images
  through the real 37-d extractor) and the direct feature-space backend
  (Gaussian clusters with the same topology) for large scalability sweeps.
"""

from repro._lazy import lazy_exports

__all__ = [
    "load_corel_directory",
    "build_rendered_database",
    "build_synthetic_database",
    "CategorySpec",
    "build_category_registry",
    "named_categories",
    "ImageDatabase",
    "QuerySpec",
    "Subconcept",
    "TABLE1_QUERIES",
    "get_query",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.datasets.build": (
            "build_rendered_database",
            "build_synthetic_database",
        ),
        "repro.datasets.corel_loader": ("load_corel_directory",),
        "repro.datasets.concepts": (
            "CategorySpec",
            "build_category_registry",
            "named_categories",
        ),
        "repro.datasets.database": ("ImageDatabase",),
        "repro.datasets.queryset": (
            "QuerySpec",
            "Subconcept",
            "TABLE1_QUERIES",
            "get_query",
        ),
    },
)
