"""Tests for the real-Corel directory loader and Netpbm I/O."""

import numpy as np
import pytest

from repro.datasets.corel_loader import (
    load_corel_directory,
    read_netpbm,
    square_resize,
    write_ppm,
)
from repro.errors import DatasetError
from repro.imaging.scenes import render_scene


class TestNetpbmIO:
    def test_ppm_roundtrip(self, tmp_path, rng):
        image = rng.random((12, 16, 3))
        path = tmp_path / "img.ppm"
        write_ppm(path, image)
        back = read_netpbm(path)
        assert back.shape == (12, 16, 3)
        assert np.allclose(back, image, atol=1 / 255 + 1e-9)

    def test_ascii_p3(self, tmp_path):
        path = tmp_path / "img.ppm"
        path.write_text(
            "P3\n# a comment\n2 2\n255\n"
            "255 0 0  0 255 0\n0 0 255  255 255 255\n"
        )
        image = read_netpbm(path)
        assert image.shape == (2, 2, 3)
        assert np.allclose(image[0, 0], [1, 0, 0])
        assert np.allclose(image[1, 1], [1, 1, 1])

    def test_ascii_p2_grayscale(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_text("P2\n2 1\n255\n0 255\n")
        image = read_netpbm(path)
        assert image.shape == (1, 2, 3)
        assert np.allclose(image[0, 0], 0.0)
        assert np.allclose(image[0, 1], 1.0)

    def test_binary_p5_grayscale(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 64, 128, 255]))
        image = read_netpbm(path)
        assert image.shape == (2, 2, 3)
        assert image[1, 1, 0] == pytest.approx(1.0)

    def test_16bit_p6(self, tmp_path):
        header = b"P6\n1 1\n65535\n"
        pixel = (65535).to_bytes(2, "big") * 3
        path = tmp_path / "deep.ppm"
        path.write_bytes(header + pixel)
        image = read_netpbm(path)
        assert np.allclose(image[0, 0], 1.0)

    def test_comments_in_header(self, tmp_path, rng):
        image = rng.random((4, 4, 3))
        path = tmp_path / "img.ppm"
        write_ppm(path, image)
        data = path.read_bytes().replace(
            b"P6\n", b"P6\n# generated\n", 1
        )
        path.write_bytes(data)
        assert read_netpbm(path).shape == (4, 4, 3)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"XX\n1 1\n255\nabc")
        with pytest.raises(DatasetError):
            read_netpbm(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(b"P6\n4 4\n255\n\x00\x01")
        with pytest.raises(DatasetError):
            read_netpbm(path)

    def test_write_rejects_bad_shape(self, tmp_path):
        with pytest.raises(DatasetError):
            write_ppm(tmp_path / "x.ppm", np.zeros((4, 4)))


class TestSquareResize:
    def test_downsample(self, rng):
        image = rng.random((64, 64, 3))
        out = square_resize(image, 32)
        assert out.shape == (32, 32, 3)

    def test_center_crop_wide(self):
        image = np.zeros((10, 30, 3))
        image[:, 10:20] = 1.0  # bright centre band
        out = square_resize(image, 10)
        assert out.mean() == pytest.approx(1.0)

    def test_identity_when_sizes_match(self, rng):
        image = rng.random((16, 16, 3))
        assert np.array_equal(square_resize(image, 16), image)

    def test_upsample(self, rng):
        image = rng.random((8, 8, 3))
        assert square_resize(image, 16).shape == (16, 16, 3)


class TestLoadCorelDirectory:
    @pytest.fixture(scope="class")
    def corel_root(self, tmp_path_factory):
        """A tiny on-disk Corel-style tree of rendered scenes."""
        root = tmp_path_factory.mktemp("corel")
        rng = np.random.default_rng(0)
        for category in ("bird_owl", "rose_red", "mountain_snow"):
            folder = root / category
            folder.mkdir()
            for i in range(6):
                write_ppm(
                    folder / f"img{i:03d}.ppm",
                    render_scene(category, 48, rng),
                )
        (root / "empty_category").mkdir()
        (root / "not_a_dir.txt").write_text("ignore me")
        return root

    def test_loads_all_images(self, corel_root):
        db = load_corel_directory(corel_root)
        assert db.size == 18
        assert sorted(db.category_names) == [
            "bird_owl", "mountain_snow", "rose_red",
        ]

    def test_empty_category_skipped(self, corel_root):
        db = load_corel_directory(corel_root)
        assert "empty_category" not in db.category_names

    def test_max_per_category(self, corel_root):
        db = load_corel_directory(corel_root, max_per_category=2)
        assert db.size == 6

    def test_loaded_features_cluster_by_category(self, corel_root):
        """Real files through the full pipeline still cluster."""
        from repro.clustering.quality import silhouette_score

        db = load_corel_directory(corel_root)
        score = silhouette_score(db.features, db.labels)
        assert score > 0.2

    def test_searchable_end_to_end(self, corel_root):
        from repro.config import RFSConfig
        from repro.index.rfs import RFSStructure

        db = load_corel_directory(corel_root)
        rfs = RFSStructure.build(
            db.features,
            RFSConfig(node_max_entries=8,
                      leaf_subclusters=2,
                      representative_fraction=0.5),
            seed=0,
        )
        owl = int(db.ids_of_category("bird_owl")[0])
        leaf = rfs.leaf_of_item(owl)
        got = rfs.localized_knn(leaf, db.features[owl], 3)
        assert got.item_ids[0] == owl

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(DatasetError):
            load_corel_directory(tmp_path / "nope")

    def test_no_images_rejected(self, tmp_path):
        (tmp_path / "cat").mkdir()
        with pytest.raises(DatasetError):
            load_corel_directory(tmp_path)
