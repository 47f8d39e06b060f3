"""Shared fixtures.

The heavier artefacts (rendered database, RFS structure, engine) are
session-scoped: they are deterministic in their seeds, and building them
once keeps the suite fast while letting many tests exercise realistic
state.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from repro.config import DatasetConfig, QDConfig, RFSConfig
from repro.core.engine import QueryDecompositionEngine
from repro.datasets.build import (
    build_rendered_database,
    build_synthetic_database,
)
from repro.index.rfs import RFSStructure
from repro.retrieval.topk import RankedList

# CI (the workflow sets CI=1) replays the same hypothesis draws on
# every run, so a run's time and its failures belong to the commit, not
# to the draw; local runs keep drawing fresh inputs.  ``@example`` cases
# run either way.  Recent hypothesis releases load a "ci" profile of
# their own when CI is set; this one inherits it and pins the two
# settings the replay rests on for any release.
settings.register_profile("ci", derandomize=True, database=None)
if os.environ.get("CI") == "1":
    settings.load_profile("ci")

# Small-but-real scales: every named category exists, leaves hold a few
# dozen images, the tree has >= 2 levels.
SMALL_DB_IMAGES = 1200
SMALL_DB_CATEGORIES = 40
SMALL_RFS = RFSConfig(
    node_max_entries=60, leaf_subclusters=4
)


def brute_force_knn(features, query, k, *, live_ids=None):
    """The reference for the one scan path: plain float64 numpy.

    ``np.linalg.norm`` over the live item set (``live_ids``, default
    every row) — no tree, no store, no cache.  Returns the ``k`` nearest
    as a :class:`~repro.retrieval.topk.RankedList` in ``(distance, id)``
    order, sorted here by its own lexsort.  The store scans at float32,
    so compare ids exactly and distances to ~1e-3.
    """
    ids = (
        np.arange(features.shape[0])
        if live_ids is None
        else np.asarray(live_ids, dtype=np.int64)
    )
    diff = np.asarray(features, dtype=np.float64)[ids] - np.asarray(
        query, dtype=np.float64
    )
    dists = np.linalg.norm(diff, axis=1)
    order = np.lexsort((ids, dists))[:k]
    return RankedList(ids[order], dists[order])


@pytest.fixture(scope="session")
def rendered_db():
    """A 1,200-image rendered database with all named categories."""
    return build_rendered_database(
        DatasetConfig(
            total_images=SMALL_DB_IMAGES,
            n_categories=SMALL_DB_CATEGORIES,
            seed=123,
        )
    )


@pytest.fixture(scope="session")
def synthetic_db():
    """A 900-image Gaussian-mixture database (30 clusters)."""
    return build_synthetic_database(900, n_categories=30, seed=9)


@pytest.fixture(scope="session")
def rfs(rendered_db):
    """RFS structure over the rendered database."""
    return RFSStructure.build(rendered_db.features, SMALL_RFS, seed=77)


@pytest.fixture(scope="session")
def engine(rendered_db):
    """A ready-to-query QD engine over the rendered database."""
    return QueryDecompositionEngine.build(
        rendered_db, SMALL_RFS, QDConfig(), seed=77
    )


@pytest.fixture()
def rng():
    """A fresh deterministic generator per test."""
    return np.random.default_rng(0)
