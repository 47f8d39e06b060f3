"""Database builders: the rendered backend and the feature-space backend.

* :func:`build_rendered_database` — the faithful pipeline: procedural
  images per category → the real 37-d feature extractor → z-scored
  feature matrix.  Used by every retrieval-quality experiment.
* :func:`build_synthetic_database` — a direct Gaussian-mixture feature
  generator with the same category topology.  It skips rendering and
  extraction, which makes the Figure 10/11 scalability sweeps over large
  database sizes cheap; cluster geometry (well separated categories with
  intra-category spread) matches what the rendered pipeline produces.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.config import DatasetConfig, FeatureConfig
from repro.datasets.concepts import CategorySpec, build_category_registry
from repro.datasets.database import ImageDatabase
from repro.errors import DatasetError
from repro.features.extractor import FeatureExtractor
from repro.features.normalize import FeatureNormalizer
from repro.utils.rng import derive_rng, ensure_rng


def allocate_counts(
    total: int, n_groups: int, rng: np.random.Generator, jitter: float = 0.15
) -> np.ndarray:
    """Split ``total`` images across ``n_groups`` categories.

    Counts are near-uniform with multiplicative jitter (Corel categories
    are roughly, not exactly, 100 images each).  Every category receives
    at least 4 images so that leaf-level k-means stays meaningful.
    """
    if n_groups < 1:
        raise DatasetError("need at least one category")
    if total < 4 * n_groups:
        raise DatasetError(
            f"total={total} too small for {n_groups} categories "
            "(needs >= 4 per category)"
        )
    base = total / n_groups
    weights = rng.uniform(1.0 - jitter, 1.0 + jitter, size=n_groups)
    counts = np.maximum(4, np.round(base * weights).astype(int))
    # Fix the sum exactly.
    diff = total - int(counts.sum())
    order = rng.permutation(n_groups)
    idx = 0
    while diff != 0:
        j = order[idx % n_groups]
        if diff > 0:
            counts[j] += 1
            diff -= 1
        elif counts[j] > 4:
            counts[j] -= 1
            diff += 1
        idx += 1
    return counts


def build_rendered_database(
    config: Optional[DatasetConfig] = None,
    feature_config: Optional[FeatureConfig] = None,
    categories: Optional[Sequence[CategorySpec]] = None,
) -> ImageDatabase:
    """Render the synthetic Corel database and extract its features.

    Parameters
    ----------
    config:
        Dataset size/seed settings (paper defaults: 15,000 images, 150
        categories).
    feature_config:
        Feature pipeline settings; the image size must agree with
        ``config.image_size``.
    categories:
        Pre-built category registry; built from ``config`` when omitted.
    """
    cfg = config or DatasetConfig()
    fcfg = feature_config or FeatureConfig(image_size=cfg.image_size)
    if fcfg.image_size != cfg.image_size:
        raise DatasetError(
            f"feature image_size {fcfg.image_size} != dataset image_size "
            f"{cfg.image_size}"
        )
    registry = (
        list(categories)
        if categories is not None
        else build_category_registry(cfg.n_categories, seed=cfg.seed)
    )
    rng = ensure_rng(cfg.seed)
    counts = allocate_counts(
        cfg.total_images, len(registry), derive_rng(rng, "counts")
    )
    extractor = FeatureExtractor(fcfg)

    rows: List[np.ndarray] = []
    labels: List[int] = []
    for label, (spec, count) in enumerate(zip(registry, counts)):
        cat_rng = derive_rng(rng, f"render:{spec.name}")
        for _ in range(int(count)):
            image = spec.render(cfg.image_size, cat_rng)
            rows.append(extractor.extract(image))
            labels.append(label)
    raw = np.vstack(rows)
    normalizer = FeatureNormalizer().fit(raw)
    return ImageDatabase(
        features=normalizer.transform(raw),
        labels=np.asarray(labels, dtype=np.int64),
        category_names=[spec.name for spec in registry],
        normalizer=normalizer,
    )


def build_synthetic_database(
    total_images: int,
    n_categories: int = 150,
    dims: int = 37,
    *,
    seed: int = 2006,
    center_spread: float = 4.0,
    within_spread: float = 0.7,
) -> ImageDatabase:
    """Generate a Gaussian-mixture database directly in feature space.

    Each category is an isotropic Gaussian cluster; centres are drawn so
    inter-category distances dominate intra-category spread, matching the
    geometry of the rendered pipeline.  Category names are generic
    (``cluster_000`` ...), so this backend serves the scalability and
    index experiments rather than the Table-1 semantics.
    """
    if total_images < n_categories:
        raise DatasetError("total_images must be >= n_categories")
    if dims < 2:
        raise DatasetError("dims must be >= 2")
    # Small databases cannot sustain the full category count (each
    # category needs a few images to be a cluster at all): shrink it.
    n_categories = min(n_categories, max(1, total_images // 4))
    rng = ensure_rng(seed)
    counts = allocate_counts(
        max(total_images, 4 * n_categories),
        n_categories,
        derive_rng(rng, "counts"),
    )
    # Trim back to the exact requested size if the 4-per-category floor
    # inflated the sum.
    overshoot = int(counts.sum()) - total_images
    j = 0
    while overshoot > 0:
        if counts[j % n_categories] > 1:
            counts[j % n_categories] -= 1
            overshoot -= 1
        j += 1
    centers = derive_rng(rng, "centers").normal(
        0.0, center_spread, size=(n_categories, dims)
    )
    noise_rng = derive_rng(rng, "noise")
    # Fill one preallocated matrix instead of vstack-ing per-category
    # chunks: at the 100k–1M sizes the scalability sweeps use, the
    # list-of-arrays + vstack approach holds every row twice at peak.
    # The per-category ``normal`` calls are unchanged (same generator,
    # same draw order, same shapes), so seeded datasets are bit-for-bit
    # identical to what the old loop produced.
    total = int(counts.sum())
    raw = np.empty((total, dims), dtype=np.float64)
    starts = np.concatenate(([0], np.cumsum(counts)))
    for label in range(n_categories):
        raw[starts[label]:starts[label + 1]] = noise_rng.normal(
            centers[label], within_spread, size=(int(counts[label]), dims)
        )
    labels = np.repeat(
        np.arange(n_categories, dtype=np.int64), counts
    )
    normalizer = FeatureNormalizer().fit(raw)
    return ImageDatabase(
        features=normalizer.transform(raw),
        labels=labels,
        category_names=[f"cluster_{i:03d}" for i in range(n_categories)],
        normalizer=normalizer,
    )
