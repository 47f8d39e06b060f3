"""Hierarchical index substrate: the RFS structure and its R*-tree.

The paper organises the image database with an R\\*-tree-style hierarchical
clustering (§3.1, citing Beckmann et al.) and extends each node with
representative images to form the *Relevance Feedback Support* (RFS)
structure.  This package provides:

* :mod:`repro.index.geometry` — minimum bounding (hyper)rectangles,
* :mod:`repro.index.diskmodel` — simulated disk-page access accounting,
* :mod:`repro.index.rstar` — the R\\*-tree partition (recursive balanced
  2-means) the RFS build makes its nodes from,
* :mod:`repro.index.rfs` — the RFS structure: that tree enriched with
  bottom-up k-means representative selection, and its k-NN search,
* :mod:`repro.index.generations` — generational delta-segment
  mutations: writes land in a delta segment, and the write that brings
  it to its threshold re-bulk-loads delta + main into a new generation
  and swaps it in under the index's one write lock.
"""

from repro._lazy import lazy_exports

__all__ = [
    "BuildProgress",
    "DiskAccessCounter",
    "GenerationController",
    "MBR",
    "build_hkmeans_hierarchy",
    "generation_seed",
    "RFSNode",
    "RFSStructure",
    "load_rfs",
    "route_leaf",
    "save_rfs",
    "validate_structure",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.index.diskmodel": ("DiskAccessCounter",),
        "repro.index.generations": (
            "GenerationController",
            "generation_seed",
            "route_leaf",
        ),
        "repro.index.geometry": ("MBR",),
        "repro.index.hierarchies": ("build_hkmeans_hierarchy",),
        "repro.index.incremental": ("validate_structure",),
        "repro.index.rfs": ("BuildProgress", "RFSNode", "RFSStructure"),
        "repro.index.serialize": ("load_rfs", "save_rfs"),
    },
)
