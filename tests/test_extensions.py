"""Tests for the extension modules: serialization, alternative
hierarchies, CLI."""

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.config import RFSConfig
from repro.errors import ClusteringError, ConfigurationError, DatasetError
from repro.index.hierarchies import build_hkmeans_hierarchy
from repro.index.rfs import RFSStructure
from repro.index.serialize import load_rfs, save_rfs
from tests.reference_build import structure_digest


@pytest.fixture(scope="module")
def feats():
    return np.random.default_rng(11).normal(size=(600, 10))


@pytest.fixture(scope="module")
def built_rfs(feats):
    cfg = RFSConfig(node_max_entries=50)
    return RFSStructure.build(feats, cfg, seed=4)


class TestSerialization:
    def test_roundtrip_preserves_structure(self, built_rfs, feats,
                                           tmp_path):
        path = tmp_path / "rfs.npz"
        save_rfs(built_rfs, path)
        loaded = load_rfs(path, feats)
        assert loaded.root.size == built_rfs.root.size
        assert sorted(loaded.nodes) == sorted(built_rfs.nodes)
        for node_id in built_rfs.nodes:
            a = built_rfs.get_node(node_id)
            b = loaded.get_node(node_id)
            assert np.array_equal(a.item_ids, b.item_ids)
            assert a.representatives == b.representatives
            assert a.level == b.level
            assert np.allclose(a.center, b.center)

    def test_loaded_structure_answers_queries(self, built_rfs, feats,
                                              tmp_path):
        path = tmp_path / "rfs.npz"
        save_rfs(built_rfs, path)
        loaded = load_rfs(path, feats)
        leaf = loaded.leaf_of_item(3)
        got = loaded.localized_knn(leaf, feats[3], 3)
        assert got.item_ids[0] == 3

    def test_loaded_routing_consistent(self, built_rfs, feats, tmp_path):
        path = tmp_path / "rfs.npz"
        save_rfs(built_rfs, path)
        loaded = load_rfs(path, feats)
        for node in loaded.iter_nodes():
            if node.is_leaf:
                continue
            for rep in node.representatives:
                child = node.child_of_representative(rep)
                assert rep in child.item_ids

    def test_config_preserved(self, built_rfs, feats, tmp_path):
        path = tmp_path / "rfs.npz"
        save_rfs(built_rfs, path)
        loaded = load_rfs(path, feats)
        assert loaded.config == built_rfs.config

    def test_settings_nothing_reads_are_not_stored(self, built_rfs, feats,
                                                   tmp_path):
        path = tmp_path / "rfs.npz"
        save_rfs(built_rfs, path)
        with np.load(path) as data:
            arrays = dict(data)
        cfg = built_rfs.config
        assert arrays["config"].tolist() == [
            cfg.node_max_entries, cfg.leaf_subclusters,
        ]
        assert arrays["config_floats"].tolist() == [
            cfg.representative_fraction,
        ]
        # The layout of files written while the node minimum and the
        # reinsert fraction were settings: they load to the same index.
        arrays["config"] = np.array(
            [cfg.node_max_entries, 25, cfg.leaf_subclusters]
        )
        arrays["config_floats"] = np.array(
            [cfg.representative_fraction, 0.3]
        )
        np.savez(tmp_path / "before.npz", **arrays)
        before = load_rfs(tmp_path / "before.npz", feats)
        assert before.config == cfg
        assert structure_digest(before) == structure_digest(
            load_rfs(path, feats)
        )

    def test_dim_mismatch_rejected(self, built_rfs, tmp_path):
        path = tmp_path / "rfs.npz"
        save_rfs(built_rfs, path)
        with pytest.raises(DatasetError):
            load_rfs(path, np.zeros((600, 99)))

    def test_missing_file_rejected(self, feats, tmp_path):
        with pytest.raises(DatasetError):
            load_rfs(tmp_path / "nope.npz", feats)

    def test_failed_save_keeps_previous_file(self, built_rfs, feats,
                                             tmp_path, monkeypatch):
        path = tmp_path / "rfs.npz"
        save_rfs(built_rfs, path)
        before = path.read_bytes()

        def dies_half_way(handle, **arrays):
            handle.write(before[: len(before) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez_compressed", dies_half_way)
        with pytest.raises(OSError, match="disk full"):
            save_rfs(built_rfs, path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert load_rfs(path, feats).root.size == built_rfs.root.size
        assert [p.name for p in tmp_path.iterdir()] == ["rfs.npz"]

    def test_bare_name_still_gains_npz_suffix(self, built_rfs, feats,
                                              tmp_path):
        save_rfs(built_rfs, tmp_path / "index")
        assert [p.name for p in tmp_path.iterdir()] == ["index.npz"]
        load_rfs(tmp_path / "index.npz", feats)


class TestHKMeansHierarchy:
    def test_partition_invariants(self, feats):
        registry = {}
        root = build_hkmeans_hierarchy(
            feats, RFSConfig(node_max_entries=50),
            registry, seed=0,
        )
        assert root.size == feats.shape[0]
        stack = [root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                assert node.size <= 50
            else:
                child_ids = np.sort(
                    np.concatenate([c.item_ids for c in node.children])
                )
                assert np.array_equal(child_ids, node.item_ids)
                stack.extend(node.children)

    def test_full_rfs_build_with_hkmeans(self, feats):
        rfs = RFSStructure.build(
            feats,
            RFSConfig(node_max_entries=50),
            seed=1,
            method="hkmeans",
        )
        assert rfs.root.size == feats.shape[0]
        assert rfs.root.representatives
        leaf = rfs.leaf_of_item(10)
        assert rfs.localized_knn(leaf, feats[10], 1).item_ids[0] == 10

    def test_unknown_method_rejected(self, feats):
        with pytest.raises(ConfigurationError):
            RFSStructure.build(feats, method="agglomerative")

    def test_invalid_branching_rejected(self, feats):
        with pytest.raises(ClusteringError):
            build_hkmeans_hierarchy(
                feats, RFSConfig(), {}, seed=0, branching=1
            )

    def test_duplicate_points_terminate(self):
        dup = np.ones((200, 4))
        registry = {}
        root = build_hkmeans_hierarchy(
            dup, RFSConfig(node_max_entries=30),
            registry, seed=0,
        )
        assert root.size == 200


class TestCLI:
    @pytest.fixture(scope="class")
    def db_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "db.npz"
        code = cli_main([
            "build-db", "--images", "400", "--categories", "30",
            "--seed", "5", "--out", str(path),
        ])
        assert code == 0
        return path

    def test_info(self, db_path, capsys):
        assert cli_main(["info", "--db", str(db_path)]) == 0
        out = capsys.readouterr().out
        assert "images:      400" in out

    def test_build_rfs_and_query(self, db_path, tmp_path, capsys):
        rfs_path = tmp_path / "rfs.npz"
        assert cli_main([
            "build-rfs", "--db", str(db_path), "--out", str(rfs_path),
            "--node-max", "40",
        ]) == 0
        assert rfs_path.exists()
        assert cli_main([
            "query", "--db", str(db_path), "--rfs", str(rfs_path),
            "--query", "rose", "--seed", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "precision" in out

    def test_store_commands_round_trip(self, db_path, tmp_path, capsys):
        rfs_path = tmp_path / "rfs.npz"
        store_dir = tmp_path / "store"
        assert cli_main([
            "build-rfs", "--db", str(db_path), "--out", str(rfs_path),
        ]) == 0
        assert cli_main([
            "build-store", "--db", str(db_path), "--rfs", str(rfs_path),
            "--out", str(store_dir),
        ]) == 0
        capsys.readouterr()
        assert cli_main(["store", "info", "--path", str(store_dir)]) == 0
        info = capsys.readouterr().out
        assert "dtype:             float32" in info
        assert "node spans:" in info
        query = [
            "query", "--db", str(db_path), "--rfs", str(rfs_path),
            "--query", "bird", "--seed", "2", "--k", "20",
        ]
        assert cli_main(
            query + ["--store", "memmap", "--store-path", str(store_dir)]
        ) == 0
        from_store = capsys.readouterr().out
        assert cli_main(query + ["--store", "inmem"]) == 0
        in_memory = capsys.readouterr().out
        assert "precision" in from_store and "GTIR" in from_store
        assert from_store == in_memory

    @pytest.mark.parametrize(
        "argv",
        [
            ["build-store", "--tier", "f16"],
            ["build-store", "--dtype", "float64"],
            ["build-store", "--tier", "int8"],
            ["query", "--store-tier", "int8"],
            ["serve", "--session-store", "memory", "--store-tier", "int8"],
        ],
        ids=["tier-f16", "dtype", "tier-int8", "store-tier-int8",
             "serve-store-tier-int8"],
    )
    def test_build_store_refuses_removed_formats(
        self, db_path, tmp_path, capsys, argv
    ):
        # The tier flags and --dtype are gone: each is an argparse usage
        # error, raised before anything is built or served.
        command, *flags = argv
        out = (
            ["--out", str(tmp_path / "store")]
            if command == "build-store"
            else []
        )
        with pytest.raises(SystemExit) as exc:
            cli_main([command, "--db", str(db_path), *out, *flags])
        assert exc.value.code == 2
        assert not (tmp_path / "store").exists()

    def test_query_without_prebuilt_rfs(self, db_path, capsys):
        assert cli_main([
            "query", "--db", str(db_path), "--query", "bird",
            "--seed", "2", "--k", "20",
        ]) == 0
        assert "GTIR" in capsys.readouterr().out

    def test_missing_db_is_error(self, capsys):
        assert cli_main(["info", "--db", "/nonexistent/db.npz"]) == 1

    def test_fig1_experiment(self, db_path, capsys):
        assert cli_main([
            "experiment", "fig1", "--db", str(db_path),
        ]) == 0
        assert "sedan" in capsys.readouterr().out

    def test_hkmeans_method(self, db_path, tmp_path, capsys):
        rfs_path = tmp_path / "hk.npz"
        assert cli_main([
            "build-rfs", "--db", str(db_path), "--out", str(rfs_path),
            "--method", "hkmeans",
        ]) == 0
        assert "hkmeans" in capsys.readouterr().out
