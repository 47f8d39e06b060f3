"""Tests for the configuration dataclasses."""

import argparse
import dataclasses
import inspect

import numpy as np
import pytest

from repro import config
from repro.cache import subquery_cache_key
from repro.clustering.kmeans import KMeans, kmeans
from repro.cli import build_parser
from repro.config import (
    DatasetConfig,
    FeatureConfig,
    QDConfig,
    RFSConfig,
)
from repro.core.engine import QueryDecompositionEngine
from repro.core.ranking import execute_final_round
from repro.core.session import FeedbackSession
from repro.errors import ConfigurationError
from repro.index.diskmodel import DiskAccessCounter
from repro.index.rfs import RFSStructure
from repro.index.rstar import RStarTree
from repro.shard.engine import Shard, ShardedEngine, ShardedRFS
from repro.store import FeatureStore
from tests.reference_build import structure_digest


class TestFeatureConfig:
    def test_defaults_total_37_dims(self):
        assert FeatureConfig().total_dims == 37

    def test_paper_family_sizes(self):
        cfg = FeatureConfig()
        assert cfg.color_dims == 9
        assert cfg.texture_dims == 10
        assert cfg.edge_dims == 18

    def test_image_size_must_match_wavelet_levels(self):
        with pytest.raises(ConfigurationError):
            FeatureConfig(image_size=30, wavelet_levels=3)

    def test_image_size_48_is_valid_for_3_levels(self):
        assert FeatureConfig(image_size=48).image_size == 48

    def test_zero_color_dims_rejected(self):
        with pytest.raises(ConfigurationError):
            FeatureConfig(color_dims=0)

    def test_negative_edge_dims_rejected(self):
        with pytest.raises(ConfigurationError):
            FeatureConfig(edge_dims=-1)

    def test_frozen(self):
        cfg = FeatureConfig()
        with pytest.raises(AttributeError):
            cfg.color_dims = 5  # type: ignore[misc]


class TestRFSConfig:
    def test_paper_defaults(self):
        cfg = RFSConfig()
        assert cfg.node_max_entries == 100
        assert cfg.representative_fraction == 0.05

    def test_split_min_entries_is_relaxed_bound(self):
        # The paper's min of 70 cannot survive a binary split of 101;
        # the build bounds nodes below by 40 % of the max instead.
        tree = RStarTree(dims=37, max_entries=RFSConfig().node_max_entries)
        assert tree.split_min_entries == 40

    def test_rep_fraction_zero_rejected(self):
        with pytest.raises(ConfigurationError):
            RFSConfig(representative_fraction=0.0)

    def test_rep_fraction_above_one_rejected(self):
        with pytest.raises(ConfigurationError):
            RFSConfig(representative_fraction=1.5)

    def test_zero_leaf_subclusters_rejected(self):
        with pytest.raises(ConfigurationError):
            RFSConfig(leaf_subclusters=0)


class TestQDConfig:
    def test_paper_defaults(self):
        cfg = QDConfig()
        assert cfg.boundary_threshold == 0.4
        assert cfg.display_size == 21
        assert cfg.max_rounds == 3

    def test_threshold_bounds(self):
        QDConfig(boundary_threshold=0.0)
        QDConfig(boundary_threshold=1.0)
        with pytest.raises(ConfigurationError):
            QDConfig(boundary_threshold=1.5)
        with pytest.raises(ConfigurationError):
            QDConfig(boundary_threshold=-0.1)

    def test_display_size_positive(self):
        with pytest.raises(ConfigurationError):
            QDConfig(display_size=0)

    def test_rounds_positive(self):
        with pytest.raises(ConfigurationError):
            QDConfig(max_rounds=0)


class TestDatasetConfig:
    def test_paper_defaults(self):
        cfg = DatasetConfig()
        assert cfg.total_images == 15_000
        assert cfg.n_categories == 150

    def test_fewer_images_than_categories_rejected(self):
        with pytest.raises(ConfigurationError):
            DatasetConfig(total_images=10, n_categories=20)

    def test_zero_categories_rejected(self):
        with pytest.raises(ConfigurationError):
            DatasetConfig(total_images=10, n_categories=0)


#: Every settable value, per config class or signature.  A new knob
#: shows up as a diff here; give it a caller (a CLI flag, a server op,
#: a paper experiment or a benchmark) or do not add it.
SETTABLE_SURFACE = {
    "FeatureConfig": [
        "color_dims", "texture_dims", "edge_dims", "image_size",
        "wavelet_levels",
    ],
    "RFSConfig": [
        "node_max_entries", "representative_fraction", "leaf_subclusters",
    ],
    "QDConfig": [
        "boundary_threshold", "display_size", "max_rounds", "executor",
        "workers",
    ],
    "BuildConfig": ["executor", "workers"],
    "CacheConfig": ["enabled", "capacity_mb"],
    "ServeConfig": [
        "workers", "queue_limit", "default_deadline_s", "drain_timeout_s",
    ],
    "MutationConfig": [
        "auto_compact", "compact_threshold", "background",
    ],
    "DatasetConfig": ["total_images", "n_categories", "image_size", "seed"],
    "DiskAccessCounter": [
        "buffer_pages", "physical_reads", "logical_reads", "bytes_read",
        "per_category", "per_category_logical", "_buffer", "_lock",
    ],
    "RStarTree": ["dims", "max_entries", "io"],
    "kmeans": ["data", "k", "seed", "n_restarts", "max_iter", "tol"],
    "KMeans": ["k", "seed", "n_restarts", "max_iter", "tol"],
    "FeatureStore.build": ["rfs"],
    "QueryDecompositionEngine.build": [
        "database", "rfs_config", "qd_config", "seed", "io", "store",
        "cache", "build", "mutations", "progress",
    ],
    "ShardedEngine.build": [
        "database", "rfs_config", "qd_config", "shards", "partition",
        "parallel_fanout", "seed", "io", "store", "cache",
        "build", "mutations", "progress",
    ],
    # The final round ranks by one metric, plain Euclidean distance
    # over the feature vector: no per-dimension weights are settable
    # anywhere from the session down to the scan and its cache key.
    "FeedbackSession.finalize": ["k", "uniform_merge"],
    "execute_final_round": [
        "rfs", "marked_ids", "k", "config", "rounds_used",
        "uniform_merge", "executor",
    ],
    "RFSStructure.localized_knn": ["node", "query_point", "k", "include_delta"],
    "ShardedRFS.localized_knn": ["node", "query_point", "k", "include_delta"],
    "Shard.localized_knn": ["node_id", "query", "k"],
    "subquery_cache_key": [
        "node_id", "query_points", "requested", "boundary_threshold",
    ],
}


_SIGNATURES = {
    "DiskAccessCounter": DiskAccessCounter,
    "kmeans": kmeans,
    "KMeans": KMeans,
    "FeatureStore.build": FeatureStore.build,
    "QueryDecompositionEngine.build": QueryDecompositionEngine.build,
    "RStarTree": RStarTree,
    "ShardedEngine.build": ShardedEngine.build,
    "FeedbackSession.finalize": FeedbackSession.finalize,
    "execute_final_round": execute_final_round,
    "RFSStructure.localized_knn": RFSStructure.localized_knn,
    "ShardedRFS.localized_knn": ShardedRFS.localized_knn,
    "Shard.localized_knn": Shard.localized_knn,
    "subquery_cache_key": subquery_cache_key,
}


def _parameters(fn):
    return [
        name
        for name in inspect.signature(fn).parameters
        if name not in ("self", "cls")
    ]


class TestSettableSurface:
    def test_config_dataclass_fields_are_pinned(self):
        found = {
            name: [f.name for f in dataclasses.fields(obj)]
            for name, obj in vars(config).items()
            if dataclasses.is_dataclass(obj)
            and obj.__module__ == config.__name__
        }
        assert found == {
            name: fields
            for name, fields in SETTABLE_SURFACE.items()
            if name.endswith("Config")
        }

    @pytest.mark.parametrize("name", sorted(_SIGNATURES))
    def test_signature_parameters_are_pinned(self, name):
        assert _parameters(_SIGNATURES[name]) == SETTABLE_SURFACE[name]

    def test_build_rfs_flags_are_pinned(self):
        assert _command_flags("build-rfs") == BUILD_RFS_FLAGS

    def test_build_store_flags_are_pinned(self):
        assert _command_flags("build-store") == BUILD_STORE_FLAGS

    def test_store_tiers_are_pinned(self):
        # Every scan reads the exact float32 rows: one tier.
        assert config.STORE_TIERS == ("f32",)

    def test_session_store_kinds_are_pinned(self):
        # One in-process store and one durable one.
        assert config.SESSION_STORE_KINDS == ("memory", "sqlite")


def _command_flags(command):
    """A ``repro-cbir`` subcommand's options, by destination."""
    (commands,) = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return [
        action.dest
        for action in commands.choices[command]._actions
        if action.dest != "help"
    ]


#: ``repro-cbir build-rfs``'s options, by destination.
BUILD_RFS_FLAGS = [
    "db", "out", "seed", "node_max", "method", "build_executor",
    "build_workers", "progress",
]

#: ``repro-cbir build-store``'s options, by destination.
BUILD_STORE_FLAGS = [
    "db", "rfs", "out", "tier", "seed", "build_executor", "build_workers",
    "progress",
]

#: A value other than the default for every ``RFSConfig`` field.  A new
#: field fails the test below until it has one here, and then until the
#: value changes what the build makes.
CHANGED_RFS_SETTING = {
    "node_max_entries": 60,
    "representative_fraction": 0.1,
    "leaf_subclusters": 3,
}


class TestEveryRFSSettingChangesTheTree:
    @pytest.fixture(scope="class")
    def features(self):
        return np.random.default_rng(5).normal(size=(1500, 8))

    @pytest.fixture(scope="class")
    def default_digest(self, features):
        return structure_digest(
            RFSStructure.build(features, RFSConfig(), seed=7)
        )

    @pytest.mark.parametrize(
        "name", [field.name for field in dataclasses.fields(RFSConfig)]
    )
    def test_setting_changes_the_built_structure(
        self, name, features, default_digest
    ):
        changed = RFSConfig(**{name: CHANGED_RFS_SETTING[name]})
        rfs = RFSStructure.build(features, changed, seed=7)
        assert structure_digest(rfs) != default_digest
