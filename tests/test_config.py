"""Tests for the configuration dataclasses."""

import argparse
import dataclasses
import inspect

import numpy as np
import pytest

from repro import config
from repro.cache import subquery_cache_key
from repro.clustering.kmeans import kmeans
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
from repro.index.rstar import bisect_levels, split_min_entries
from repro.shard.engine import Shard, ShardedEngine, ShardedRFS, build_router
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
        assert split_min_entries(RFSConfig().node_max_entries) == 40
        assert split_min_entries(4) == 2

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
    "QDConfig": ["boundary_threshold", "display_size", "max_rounds"],
    "CacheConfig": ["enabled", "capacity_mb"],
    "ServeConfig": [
        "workers", "queue_limit", "default_deadline_s", "drain_timeout_s",
    ],
    "MutationConfig": ["compact_threshold"],
    "DatasetConfig": ["total_images", "n_categories", "image_size", "seed"],
    "DiskAccessCounter": [
        "buffer_pages", "physical_reads", "logical_reads", "bytes_read",
        "per_category", "per_category_logical", "_buffer", "_lock",
    ],
    # The offline build runs on the calling thread: no executor or
    # worker count is settable anywhere from the engines down to the
    # bisect.
    "bisect_levels": ["points", "max_entries", "seed"],
    "RFSStructure.build": [
        "features", "config", "seed", "io", "method", "progress",
    ],
    "kmeans": ["data", "k", "seed", "n_restarts", "max_iter", "tol"],
    "FeatureStore.build": ["rfs"],
    "QueryDecompositionEngine.build": [
        "database", "rfs_config", "qd_config", "seed", "io", "store",
        "cache", "mutations", "progress",
    ],
    # A shard scan runs on the request's own thread: no fan-out mode is
    # settable on the engine, the router or the function that builds it.
    "ShardedEngine.build": [
        "database", "rfs_config", "qd_config", "shards", "partition",
        "seed", "io", "store", "cache", "mutations", "progress",
    ],
    "ShardedRFS": ["base", "shards", "assignment"],
    "build_router": ["base", "n_shards", "strategy", "caches"],
    # The final round ranks by one metric, plain Euclidean distance
    # over the feature vector: no per-dimension weights are settable
    # anywhere from the session down to the scan and its cache key.
    "FeedbackSession.finalize": ["k", "uniform_merge"],
    # The final round runs its subqueries on the calling thread: no
    # executor is settable from the engine down to the merge.
    "QueryDecompositionEngine": ["database", "rfs", "config", "store"],
    "FeedbackSession": ["rfs", "config", "seed", "session_id", "store"],
    "FeedbackSession.restore": ["rfs", "state", "config", "store"],
    "execute_final_round": [
        "rfs", "marked_ids", "k", "config", "rounds_used",
        "uniform_merge",
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
    "FeatureStore.build": FeatureStore.build,
    "QueryDecompositionEngine.build": QueryDecompositionEngine.build,
    "bisect_levels": bisect_levels,
    "RFSStructure.build": RFSStructure.build,
    "ShardedEngine.build": ShardedEngine.build,
    "ShardedRFS": ShardedRFS,
    "build_router": build_router,
    "FeedbackSession.finalize": FeedbackSession.finalize,
    "QueryDecompositionEngine": QueryDecompositionEngine,
    "FeedbackSession": FeedbackSession,
    "FeedbackSession.restore": FeedbackSession.restore,
    "execute_final_round": execute_final_round,
    "RFSStructure.localized_knn": RFSStructure.localized_knn,
    "ShardedRFS.localized_knn": ShardedRFS.localized_knn,
    "Shard.localized_knn": Shard.localized_knn,
    "subquery_cache_key": subquery_cache_key,
}


#: The subcommands that took ``--executor`` / ``--workers`` /
#: ``--store-tier``, each with its required arguments.
_ONE_VALUED_FLAG_COMMANDS = {
    "query": ["query", "--db", "db.npz", "--query", "bird"],
    "interactive": ["interactive", "--db", "db.npz"],
    "experiment": ["experiment", "table1", "--db", "db.npz"],
    "serve": ["serve", "--db", "db.npz", "--session-store", "memory"],
}


def _parameters(fn):
    return [
        name
        for name in inspect.signature(fn).parameters
        if name not in ("self", "cls")
    ]


def _leaf_parsers(parser, prefix=()):
    """Every runnable ``repro-cbir`` command, by its words, and its parser."""
    (commands,) = [
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ] or [None]
    if commands is None:
        yield " ".join(prefix), parser
        return
    for name, child in commands.choices.items():
        yield from _leaf_parsers(child, prefix + (name,))


def _flag_surface(parser):
    """Each option's dest, option strings, default, choices, ``required``
    and metavar, in ``--help`` order."""
    return [
        (
            action.dest,
            tuple(action.option_strings),
            action.default,
            None if action.choices is None else tuple(action.choices),
            action.required,
            action.metavar,
        )
        for action in parser._actions
        if action.dest != "help"
    ]


#: Every flag of every ``repro-cbir`` command: a renamed, added or
#: re-defaulted flag shows up as a diff here.
CLI_SURFACE = {
    "build-db": [
        ("images", ("--images",), 3000, None, False, None),
        ("categories", ("--categories",), 60, None, False, None),
        ("seed", ("--seed",), 2006, None, False, None),
        ("out", ("--out",), None, None, True, None),
    ],
    "build-rfs": [
        ("db", ("--db",), None, None, True, None),
        ("out", ("--out",), None, None, True, None),
        ("seed", ("--seed",), 2006, None, False, None),
        ("node_max", ("--node-max",), 100, None, False, None),
        ("method", ("--method",), "rstar", ("rstar", "hkmeans"), False, None),
        ("progress", ("--progress",), False, None, False, None),
    ],
    "build-store": [
        ("db", ("--db",), None, None, True, None),
        ("rfs", ("--rfs",), None, None, False, None),
        ("out", ("--out",), None, None, True, None),
        ("seed", ("--seed",), 2006, None, False, None),
        ("progress", ("--progress",), False, None, False, None),
    ],
    "query": [
        ("db", ("--db",), None, None, True, None),
        ("rfs", ("--rfs",), None, None, False, None),
        (
            "query",
            ("--query",),
            None,
            (
                "person", "airplane", "bird", "car", "horse", "mountain", "rose",
                "water_sports", "computer", "personal_computer", "laptop",
            ),
            True,
            "NAME",
        ),
        ("k", ("--k",), 0, None, False, None),
        ("seed", ("--seed",), 7, None, False, None),
        ("rounds", ("--rounds",), 3, None, False, None),
        ("shards", ("--shards",), 0, None, False, "N"),
        (
            "partition",
            ("--partition",),
            "contiguous",
            ("contiguous", "roundrobin"),
            False,
            None,
        ),
        ("store", ("--store",), "inmem", ("inmem", "memmap"), False, None),
        ("store_path", ("--store-path",), None, None, False, "DIR"),
        ("cache", ("--cache",), False, None, False, None),
        ("cache_mb", ("--cache-mb",), 64.0, None, False, "MB"),
        (
            "session_store",
            ("--session-store",),
            None,
            ("memory", "sqlite"),
            False,
            None,
        ),
        ("session_path", ("--session-path",), None, None, False, "PATH"),
        ("trace", ("--trace",), None, None, False, "FILE"),
        ("metrics", ("--metrics",), False, None, False, None),
        ("profile", ("--profile",), None, None, False, "FILE"),
    ],
    "info": [
        ("db", ("--db",), None, None, True, None),
    ],
    "index verify": [
        ("db", ("--db",), None, None, True, None),
        ("rfs", ("--rfs",), None, None, True, None),
        ("store", ("--store",), "inmem", ("inmem", "memmap"), False, None),
        ("store_path", ("--store-path",), None, None, False, "DIR"),
    ],
    "store info": [
        ("path", ("--path",), None, None, True, None),
    ],
    "interactive": [
        ("db", ("--db",), None, None, True, None),
        ("rfs", ("--rfs",), None, None, False, None),
        ("k", ("--k",), 40, None, False, None),
        ("rounds", ("--rounds",), 3, None, False, None),
        ("screens", ("--screens",), 2, None, False, None),
        ("seed", ("--seed",), 7, None, False, None),
        ("store", ("--store",), "inmem", ("inmem", "memmap"), False, None),
        ("store_path", ("--store-path",), None, None, False, "DIR"),
        ("cache", ("--cache",), False, None, False, None),
        ("cache_mb", ("--cache-mb",), 64.0, None, False, "MB"),
        (
            "session_store",
            ("--session-store",),
            None,
            ("memory", "sqlite"),
            False,
            None,
        ),
        ("session_path", ("--session-path",), None, None, False, "PATH"),
        ("trace", ("--trace",), None, None, False, "FILE"),
        ("metrics", ("--metrics",), False, None, False, None),
        ("profile", ("--profile",), None, None, False, "FILE"),
    ],
    "experiment": [
        (
            "name",
            (),
            None,
            ("table1", "table2", "fig1", "cases", "scalability"),
            True,
            None,
        ),
        ("db", ("--db",), None, None, True, None),
        ("seed", ("--seed",), 2006, None, False, None),
        ("trials", ("--trials",), 3, None, False, None),
        ("store", ("--store",), "inmem", ("inmem", "memmap"), False, None),
        ("store_path", ("--store-path",), None, None, False, "DIR"),
        ("cache", ("--cache",), False, None, False, None),
        ("cache_mb", ("--cache-mb",), 64.0, None, False, "MB"),
        ("trace", ("--trace",), None, None, False, "FILE"),
        ("metrics", ("--metrics",), False, None, False, None),
        ("profile", ("--profile",), None, None, False, "FILE"),
    ],
    "sessions list": [
        (
            "session_store",
            ("--session-store",),
            "sqlite",
            ("memory", "sqlite"),
            True,
            None,
        ),
        ("session_path", ("--session-path",), None, None, False, "PATH"),
    ],
    "sessions expire": [
        (
            "session_store",
            ("--session-store",),
            "sqlite",
            ("memory", "sqlite"),
            True,
            None,
        ),
        ("session_path", ("--session-path",), None, None, False, "PATH"),
        ("ttl", ("--ttl",), 3600.0, None, False, "SECONDS"),
    ],
    "serve": [
        ("db", ("--db",), None, None, True, None),
        ("host", ("--host",), "127.0.0.1", None, False, None),
        ("port", ("--port",), 7306, None, False, None),
        ("seed", ("--seed",), 7, None, False, None),
        ("serve_workers", ("--serve-workers",), 4, None, False, "N"),
        ("queue_limit", ("--queue-limit",), 64, None, False, "N"),
        ("deadline_s", ("--deadline-s",), 30.0, None, False, "SECONDS"),
        ("drain_timeout_s", ("--drain-timeout-s",), 5.0, None, False, "SECONDS"),
        ("shards", ("--shards",), 0, None, False, "N"),
        (
            "partition",
            ("--partition",),
            "contiguous",
            ("contiguous", "roundrobin"),
            False,
            None,
        ),
        ("store", ("--store",), "inmem", ("inmem", "memmap"), False, None),
        ("store_path", ("--store-path",), None, None, False, "DIR"),
        ("cache", ("--cache",), False, None, False, None),
        ("cache_mb", ("--cache-mb",), 64.0, None, False, "MB"),
        (
            "session_store",
            ("--session-store",),
            "sqlite",
            ("memory", "sqlite"),
            True,
            None,
        ),
        ("session_path", ("--session-path",), None, None, False, "PATH"),
        ("mutations", ("--mutations",), False, None, False, None),
        ("compact_threshold", ("--compact-threshold",), 256, None, False, "N"),
        ("trace", ("--trace",), None, None, False, "FILE"),
        ("metrics", ("--metrics",), False, None, False, None),
        ("profile", ("--profile",), None, None, False, "FILE"),
    ],
}


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

    def test_every_command_is_pinned(self):
        assert [name for name, _ in _leaf_parsers(build_parser())] == list(
            CLI_SURFACE
        )

    @pytest.mark.parametrize("command", sorted(CLI_SURFACE))
    def test_command_flags_are_pinned(self, command):
        parsers = dict(_leaf_parsers(build_parser()))
        assert _flag_surface(parsers[command]) == CLI_SURFACE[command]

    @pytest.mark.parametrize(
        "argv",
        [
            ["build-rfs", "--db", "db.npz", "--out", "rfs.npz",
             "--build-executor", "thread"],
            ["build-store", "--db", "db.npz", "--out", "store",
             "--build-workers", "2"],
            ["build-store", "--db", "db.npz", "--out", "store",
             "--tier", "f32"],
            *(
                command + flag
                for command in _ONE_VALUED_FLAG_COMMANDS.values()
                for flag in (
                    ["--executor", "serial"],
                    ["--workers", "0"],
                    ["--store-tier", "f32"],
                )
            ),
            ["index", "verify", "--db", "db.npz", "--rfs", "rfs.npz",
             "--store-tier", "f32"],
            _ONE_VALUED_FLAG_COMMANDS["serve"]
            + ["--mutations", "--compact-background"],
        ],
        ids=[
            "build-executor",
            "build-workers",
            "build-store-tier",
            *(
                f"{name}-{flag}"
                for name in _ONE_VALUED_FLAG_COMMANDS
                for flag in ("executor", "workers", "store-tier")
            ),
            "index-verify-store-tier",
            "serve-compact-background",
        ],
    )
    def test_removed_build_flags_are_usage_errors(self, argv):
        # Each removed flag, given the one value it used to accept.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2

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
    "db", "out", "seed", "node_max", "method", "progress",
]

#: ``repro-cbir build-store``'s options, by destination.
BUILD_STORE_FLAGS = [
    "db", "rfs", "out", "seed", "progress",
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
