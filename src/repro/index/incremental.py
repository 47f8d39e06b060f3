"""Invariant checks for a built (and possibly mutated) RFS structure.

The paper's prototype builds the RFS structure once over a static
database; this reproduction ingests and removes images through the
generational engine in :mod:`repro.index.generations` (delta segment +
compaction under the index's one write lock).  :func:`validate_structure`
is the invariant checker behind that engine's property tests and the
``repro-cbir index verify`` CLI subcommand.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.errors import NodeNotFoundError
from repro.index.rfs import RFSStructure


def validate_structure(rfs: RFSStructure) -> List[str]:
    """Check tree / store / delta invariants; returns found problems.

    An empty list means the structure is internally consistent.  Used
    by the mutation property tests and by the ``repro-cbir index
    verify`` subcommand so operators can audit an index after mutation
    traffic.

    Checks, in order:

    * every inner node's ``item_ids`` is exactly the sorted union of
      its children's, and child ``parent`` links point back;
    * every non-empty node's members lie inside its MBR;
    * every representative is a current member of its node;
    * each leaf's contiguous block of the structure's
      :class:`~repro.store.feature_store.FeatureStore` carries exactly
      the leaf's ids, in order (a ``ShardedRFS`` router holds no store
      of its own; audit its shards' structures for that);
    * when a delta segment is attached: its ``base_rows`` matches the
      feature matrix, every routed leaf exists (and is a leaf), and
      every main-row tombstone names a member of its recorded leaf.
    """
    problems: List[str] = []
    for node in rfs.iter_nodes():
        if not node.is_leaf:
            child_ids = np.sort(
                np.concatenate([c.item_ids for c in node.children])
            ) if node.children else np.empty(0, dtype=np.int64)
            if not np.array_equal(child_ids, node.item_ids):
                problems.append(
                    f"node {node.node_id}: member list is not the "
                    f"union of its children's"
                )
            for child in node.children:
                if child.parent is not node:
                    problems.append(
                        f"node {child.node_id}: parent link does not "
                        f"point at node {node.node_id}"
                    )
        if node.size:
            members = rfs.features[node.item_ids]
            if not (
                np.all(members >= node.mbr.lo - 1e-9)
                and np.all(members <= node.mbr.hi + 1e-9)
            ):
                problems.append(
                    f"node {node.node_id}: member outside its MBR"
                )
        for rep in node.representatives:
            if rep not in node.item_ids:
                problems.append(
                    f"node {node.node_id}: stale representative {rep}"
                )
    store = rfs.store
    if store is not None:  # a ShardedRFS router holds none
        for node in rfs.iter_nodes():
            if not node.is_leaf:
                continue
            try:
                _, ids = store.node_block(node.node_id)
            except (KeyError, NodeNotFoundError):
                problems.append(
                    f"leaf {node.node_id}: no block in the store"
                )
                continue
            if not np.array_equal(ids, node.item_ids):
                problems.append(
                    f"leaf {node.node_id}: store block ids diverge "
                    f"from the tree's member list"
                )
    view = rfs.delta_view()
    if view is not None:
        if view.base_rows != rfs.features.shape[0]:
            problems.append(
                f"delta segment base_rows={view.base_rows} but the "
                f"feature matrix holds {rfs.features.shape[0]} rows"
            )
        for leaf_id in np.unique(
            np.concatenate([view.leaves, view.dead_main_leaves])
        ):
            leaf = rfs.nodes.get(int(leaf_id))
            if leaf is None:
                problems.append(
                    f"delta segment routes to missing node {leaf_id}"
                )
            elif not leaf.is_leaf:
                problems.append(
                    f"delta segment routes to non-leaf {leaf_id}"
                )
        for item, leaf_id in zip(view.dead_main, view.dead_main_leaves):
            leaf = rfs.nodes.get(int(leaf_id))
            if leaf is not None and int(item) not in leaf.item_ids:
                problems.append(
                    f"tombstone {item} recorded under leaf {leaf_id} "
                    f"but the leaf does not hold it"
                )
    return problems
