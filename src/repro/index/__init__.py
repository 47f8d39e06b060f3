"""Hierarchical index substrate: R*-tree and the RFS structure.

The paper organises the image database with an R\\*-tree-style hierarchical
clustering (§3.1, citing Beckmann et al.) and extends each node with
representative images to form the *Relevance Feedback Support* (RFS)
structure.  This package provides:

* :mod:`repro.index.geometry` — minimum bounding (hyper)rectangles,
* :mod:`repro.index.diskmodel` — simulated disk-page access accounting,
* :mod:`repro.index.rstar` — a full dynamic R\\*-tree (ChooseSubtree,
  topological split, forced reinsertion) plus STR bulk loading and
  best-first k-NN search,
* :mod:`repro.index.rfs` — the RFS structure: the tree hierarchy enriched
  with bottom-up k-means representative selection,
* :mod:`repro.index.generations` — generational delta-segment
  mutations: writes land in a delta segment, a compactor re-bulk-loads
  delta + main into a new generation off the hot path and swaps it
  atomically behind an epoch guard.
"""

from repro.index.diskmodel import DiskAccessCounter
from repro.index.generations import (
    EpochGuard,
    GenerationController,
    generation_seed,
    route_leaf,
)
from repro.index.geometry import MBR
from repro.index.hierarchies import build_hkmeans_hierarchy
from repro.index.incremental import validate_structure
from repro.index.rfs import BuildProgress, RFSNode, RFSStructure
from repro.index.rstar import RStarTree
from repro.index.serialize import load_rfs, save_rfs

__all__ = [
    "BuildProgress",
    "DiskAccessCounter",
    "EpochGuard",
    "GenerationController",
    "MBR",
    "build_hkmeans_hierarchy",
    "generation_seed",
    "RFSNode",
    "RFSStructure",
    "RStarTree",
    "load_rfs",
    "route_leaf",
    "save_rfs",
    "validate_structure",
]
