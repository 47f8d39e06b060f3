"""Persistence for the RFS structure.

The paper's §4 notes the RFS structure is small enough (representatives
are ~5 % of the database) to ship to client machines.  This module
serialises a built :class:`~repro.index.rfs.RFSStructure` to a compact
``.npz`` file — node topology, bounding boxes, centres, representative
lists — and restores it without re-clustering, which is what a deployed
client would download.

The feature matrix itself is *not* stored (it belongs to the database);
:func:`load_rfs` takes it as an argument and validates dimensional
consistency.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.config import RFSConfig
from repro.errors import DatasetError
from repro.index.diskmodel import DiskAccessCounter
from repro.index.geometry import MBR
from repro.index.rfs import RFSNode, RFSStructure
from repro.utils.npzfile import save_npz_atomic

_FORMAT_VERSION = 1


def save_rfs(
    rfs: RFSStructure,
    path: str | Path,
    *,
    store_dir: str | Path | None = None,
) -> None:
    """Serialise an RFS structure to ``path`` (``.npz``).

    Stores per-node: id, level, parent id, item-id span, bounding box,
    centre, and representative list.  Item ids are stored as one flat
    array plus offsets; likewise representatives.

    ``store_dir`` additionally persists the structure's
    :class:`~repro.store.FeatureStore` next to the tree, so
    :func:`load_rfs` can reopen it as a memory map.

    The file is written to a temporary name in the target directory and
    moved into place with ``os.replace``, so a writer that dies half-way
    leaves whatever was at ``path`` before — never a truncated index
    (:func:`~repro.utils.npzfile.save_npz_atomic`).
    """
    if store_dir is not None:
        rfs.store.save(store_dir)
    nodes = list(rfs.iter_nodes())
    node_ids = np.array([n.node_id for n in nodes], dtype=np.int64)
    levels = np.array([n.level for n in nodes], dtype=np.int64)
    parents = np.array(
        [n.parent.node_id if n.parent is not None else -1 for n in nodes],
        dtype=np.int64,
    )
    item_offsets = np.zeros(len(nodes) + 1, dtype=np.int64)
    rep_offsets = np.zeros(len(nodes) + 1, dtype=np.int64)
    items_flat: List[np.ndarray] = []
    reps_flat: List[int] = []
    for i, node in enumerate(nodes):
        items_flat.append(node.item_ids)
        item_offsets[i + 1] = item_offsets[i] + node.item_ids.shape[0]
        reps_flat.extend(node.representatives)
        rep_offsets[i + 1] = rep_offsets[i] + len(node.representatives)
    los = np.vstack([n.mbr.lo for n in nodes])
    his = np.vstack([n.mbr.hi for n in nodes])
    centers = np.vstack([n.center for n in nodes])
    config = rfs.config
    arrays = dict(
        format_version=np.int64(_FORMAT_VERSION),
        node_ids=node_ids,
        levels=levels,
        parents=parents,
        item_offsets=item_offsets,
        items_flat=(
            np.concatenate(items_flat)
            if items_flat
            else np.empty(0, dtype=np.int64)
        ),
        rep_offsets=rep_offsets,
        reps_flat=np.array(reps_flat, dtype=np.int64),
        mbr_lo=los,
        mbr_hi=his,
        centers=centers,
        config=np.array(
            [config.node_max_entries, config.leaf_subclusters],
            dtype=np.int64,
        ),
        config_floats=np.array([config.representative_fraction]),
        # JSON string; build_meta holds only plain ints/strings.
        build_meta=np.array(json.dumps(rfs.build_meta)),
    )
    save_npz_atomic(path, arrays, compress=True)


def load_rfs(
    path: str | Path,
    features: np.ndarray,
    *,
    io: DiskAccessCounter | None = None,
    store_dir: str | Path | None = None,
    store_mode: str = "memmap",
) -> RFSStructure:
    """Restore an RFS structure saved with :func:`save_rfs`.

    ``features`` must be the same matrix the structure was built over
    (checked by size and dimensionality against the stored boxes).

    ``store_dir`` opens a feature store saved next to the tree (see
    :func:`save_rfs`) in ``store_mode`` (``"memmap"`` or ``"inmem"``)
    and attaches it, enabling the batched block-scan path.
    """
    source = Path(path)
    if not source.exists():
        raise DatasetError(f"no RFS file at {source}")
    with np.load(source) as data:
        version = int(data["format_version"])
        if version != _FORMAT_VERSION:
            raise DatasetError(
                f"unsupported RFS format version {version}"
            )
        node_ids = data["node_ids"]
        levels = data["levels"]
        parents = data["parents"]
        item_offsets = data["item_offsets"]
        items_flat = data["items_flat"]
        rep_offsets = data["rep_offsets"]
        reps_flat = data["reps_flat"]
        los = data["mbr_lo"]
        his = data["mbr_hi"]
        centers = data["centers"]
        cfg_ints = data["config"]
        cfg_floats = data["config_floats"]
        # Absent in files written before the build pipeline recorded it.
        build_meta = (
            json.loads(str(data["build_meta"]))
            if "build_meta" in data.files
            else {}
        )

    if los.shape[1] != features.shape[1]:
        raise DatasetError(
            f"feature dimensionality {features.shape[1]} does not match "
            f"stored structure ({los.shape[1]})"
        )
    registry: Dict[int, RFSNode] = {}
    root: RFSNode | None = None
    for i in range(node_ids.shape[0]):
        node = RFSNode(
            node_id=int(node_ids[i]),
            level=int(levels[i]),
            item_ids=items_flat[item_offsets[i] : item_offsets[i + 1]].copy(),
            mbr=MBR(los[i].copy(), his[i].copy()),
            center=centers[i].copy(),
        )
        node.representatives = [
            int(r) for r in reps_flat[rep_offsets[i] : rep_offsets[i + 1]]
        ]
        registry[node.node_id] = node
    for i in range(node_ids.shape[0]):
        parent_id = int(parents[i])
        node = registry[int(node_ids[i])]
        if parent_id == -1:
            root = node
        else:
            parent = registry[parent_id]
            node.parent = parent
            parent.children.append(node)
    if root is None:
        raise DatasetError("stored structure has no root node")
    if root.size > features.shape[0]:
        raise DatasetError(
            f"structure covers {root.size} images but features hold "
            f"{features.shape[0]} rows"
        )
    # Children were appended in save order; restore deterministic order
    # and rebuild representative routing.
    for node in registry.values():
        node.children.sort(key=lambda c: c.node_id)
        for idx, child in enumerate(node.children):
            owned = set(child.item_ids.tolist())
            for rep in node.representatives:
                if rep in owned:
                    node.rep_child_index[rep] = idx
    config = RFSConfig(
        node_max_entries=int(cfg_ints[0]),
        # Files written before the node minimum and the reinsert fraction
        # were dropped store them at [1] and config_floats[1].
        leaf_subclusters=int(cfg_ints[-1]),
        representative_fraction=float(cfg_floats[0]),
    )
    structure = RFSStructure(
        features=features,
        root=root,
        nodes=registry,
        config=config,
        io=io if io is not None else DiskAccessCounter(),
    )
    structure.build_meta = build_meta
    if store_dir is not None:
        from repro.store import FeatureStore

        structure.attach_store(
            FeatureStore.open(store_dir, mode=store_mode)
        )
    return structure
