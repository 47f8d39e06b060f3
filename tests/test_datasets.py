"""Tests for the dataset layer: concepts, queryset, database, builders."""

import numpy as np
import pytest

from repro.config import DatasetConfig
from repro.datasets.build import (
    allocate_counts,
    build_rendered_database,
    build_synthetic_database,
)
from repro.datasets.concepts import (
    NAMED_CATEGORY_ORDER,
    build_category_registry,
    distractor_categories,
    named_categories,
)
from repro.datasets.database import ImageDatabase
from repro.datasets.queryset import (
    TABLE1_QUERIES,
    get_query,
    query_names,
)
from repro.errors import DatasetError, UnknownConceptError
from repro.features.normalize import FeatureNormalizer


class TestConcepts:
    def test_27_named_categories(self):
        assert len(named_categories()) == 27
        assert len(NAMED_CATEGORY_ORDER) == 27

    def test_named_categories_render(self, rng):
        for spec in named_categories()[:5]:
            img = spec.render(32, rng)
            assert img.shape == (32, 32, 3)

    def test_registry_size(self):
        registry = build_category_registry(150)
        assert len(registry) == 150
        assert sum(1 for c in registry if not c.is_distractor) == 27

    def test_registry_too_small_rejected(self):
        with pytest.raises(DatasetError):
            build_category_registry(10)

    def test_registry_names_unique(self):
        registry = build_category_registry(100)
        names = [c.name for c in registry]
        assert len(set(names)) == len(names)

    def test_registry_deterministic(self):
        a = [c.name for c in build_category_registry(60, seed=5)]
        b = [c.name for c in build_category_registry(60, seed=5)]
        assert a == b

    def test_distractor_negative_count_rejected(self):
        with pytest.raises(DatasetError):
            distractor_categories(-1, seed=0)


class TestQuerySet:
    def test_eleven_queries(self):
        assert len(TABLE1_QUERIES) == 11

    def test_paper_subconcept_counts(self):
        """Subconcept counts exactly as Table 1 lists them."""
        expected = {
            "person": 3, "airplane": 2, "bird": 3, "car": 3,
            "horse": 3, "mountain": 2, "rose": 2, "water_sports": 2,
            "computer": 3, "personal_computer": 2, "laptop": 2,
        }
        for query in TABLE1_QUERIES:
            assert query.n_subconcepts == expected[query.name]

    def test_all_categories_are_named_categories(self):
        named = set(NAMED_CATEGORY_ORDER)
        for query in TABLE1_QUERIES:
            assert query.relevant_categories() <= named

    def test_sedan_poses_under_modern_sedan(self):
        car = get_query("car")
        sub = car.subconcept_of_category("sedan_front")
        assert sub is not None and sub.name == "modern sedan"

    def test_laptop_categories_shared_between_queries(self):
        for name in ("computer", "personal_computer", "laptop"):
            assert "laptop_clear" in get_query(name).relevant_categories()

    def test_subconcept_of_unrelated_category_is_none(self):
        assert get_query("bird").subconcept_of_category(
            "rose_red"
        ) is None

    def test_get_query_unknown_raises(self):
        with pytest.raises(UnknownConceptError):
            get_query("unicorn")

    def test_query_names_order(self):
        assert query_names()[0] == "person"
        assert len(query_names()) == 11


class TestAllocateCounts:
    def test_sums_to_total(self, rng):
        counts = allocate_counts(1000, 13, rng)
        assert counts.sum() == 1000

    def test_minimum_four_per_category(self, rng):
        counts = allocate_counts(200, 40, rng)
        assert counts.min() >= 4

    def test_too_small_total_rejected(self, rng):
        with pytest.raises(DatasetError):
            allocate_counts(10, 40, rng)

    def test_zero_groups_rejected(self, rng):
        with pytest.raises(DatasetError):
            allocate_counts(10, 0, rng)


class TestRenderedDatabase:
    def test_shapes(self, rendered_db):
        assert rendered_db.features.shape == (rendered_db.size, 37)
        assert rendered_db.labels.shape == (rendered_db.size,)
        assert len(rendered_db.category_names) == 40

    def test_features_normalised(self, rendered_db):
        means = rendered_db.features.mean(axis=0)
        stds = rendered_db.features.std(axis=0)
        assert np.allclose(means, 0.0, atol=1e-9)
        assert np.all(stds <= 1.01)

    def test_every_category_present(self, rendered_db):
        present = set(np.unique(rendered_db.labels).tolist())
        assert present == set(range(40))

    def test_named_categories_first(self, rendered_db):
        assert rendered_db.category_names[:27] == list(
            NAMED_CATEGORY_ORDER
        )

    def test_deterministic_in_seed(self):
        cfg = DatasetConfig(total_images=200, n_categories=30, seed=4)
        a = build_rendered_database(cfg)
        b = build_rendered_database(cfg)
        assert np.allclose(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_image_size_mismatch_rejected(self):
        from repro.config import FeatureConfig

        with pytest.raises(DatasetError):
            build_rendered_database(
                DatasetConfig(total_images=150, n_categories=30,
                              image_size=32),
                feature_config=FeatureConfig(image_size=64),
            )


class TestSyntheticDatabase:
    def test_shapes(self, synthetic_db):
        assert synthetic_db.size == 900
        assert synthetic_db.dims == 37
        assert len(synthetic_db.category_names) == 30

    def test_clusters_are_separated(self, synthetic_db):
        from repro.clustering.quality import silhouette_score

        sample = np.arange(0, synthetic_db.size, 3)
        score = silhouette_score(
            synthetic_db.features[sample], synthetic_db.labels[sample]
        )
        assert score > 0.3

    def test_too_few_images_rejected(self):
        with pytest.raises(DatasetError):
            build_synthetic_database(10, n_categories=20)

    def test_dims_validated(self):
        with pytest.raises(DatasetError):
            build_synthetic_database(100, n_categories=10, dims=1)

    def test_exact_size(self):
        db = build_synthetic_database(501, n_categories=10, seed=1)
        assert db.size == 501


class TestImageDatabase:
    def test_category_lookups(self, rendered_db):
        ids = rendered_db.ids_of_category("bird_owl")
        assert ids.shape[0] > 0
        for image_id in ids[:3]:
            assert rendered_db.category_of(int(image_id)) == "bird_owl"

    def test_label_of_unknown_raises(self, rendered_db):
        with pytest.raises(UnknownConceptError):
            rendered_db.label_of("nope")

    def test_category_of_out_of_range(self, rendered_db):
        with pytest.raises(DatasetError):
            rendered_db.category_of(10**9)

    def test_ids_of_categories_union(self, rendered_db):
        union = rendered_db.ids_of_categories(
            ["bird_owl", "bird_eagle"]
        )
        a = rendered_db.ids_of_category("bird_owl")
        b = rendered_db.ids_of_category("bird_eagle")
        assert union.shape[0] == a.shape[0] + b.shape[0]
        assert np.array_equal(union, np.sort(np.concatenate([a, b])))

    def test_ground_truth_size(self, rendered_db):
        q = get_query("rose")
        size = rendered_db.ground_truth_size(
            sorted(q.relevant_categories())
        )
        assert size == (
            rendered_db.ids_of_category("rose_red").shape[0]
            + rendered_db.ids_of_category("rose_yellow").shape[0]
        )

    def test_mismatched_lengths_rejected(self, rng):
        with pytest.raises(DatasetError):
            ImageDatabase(
                features=rng.normal(size=(5, 3)),
                labels=np.zeros(4, dtype=np.int64),
                category_names=["a"],
                normalizer=FeatureNormalizer(),
            )

    def test_bad_labels_rejected(self, rng):
        with pytest.raises(DatasetError):
            ImageDatabase(
                features=rng.normal(size=(3, 2)),
                labels=np.array([0, 1, 5]),
                category_names=["a", "b"],
                normalizer=FeatureNormalizer(),
            )

    def test_save_load_roundtrip(self, tmp_path, synthetic_db):
        path = tmp_path / "db.npz"
        synthetic_db.save(path)
        loaded = ImageDatabase.load(path)
        assert np.allclose(loaded.features, synthetic_db.features)
        assert np.array_equal(loaded.labels, synthetic_db.labels)
        assert loaded.category_names == synthetic_db.category_names
        assert np.allclose(
            loaded.normalizer.mean_, synthetic_db.normalizer.mean_
        )

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(DatasetError):
            ImageDatabase.load(tmp_path / "nope.npz")


class _RunsOnUnpickle:
    """Pickles to a call that creates ``marker`` when unpickled."""

    def __init__(self, marker):
        self.marker = str(marker)

    def __reduce__(self):
        return (open, (self.marker, "w"))


class TestDatabaseFile:
    def test_file_is_plain_uncompressed_arrays(self, tmp_path, synthetic_db):
        import zipfile

        path = tmp_path / "db.npz"
        synthetic_db.save(path)
        with zipfile.ZipFile(path) as archive:
            members = archive.infolist()
        assert sorted(m.filename for m in members) == [
            "category_names.npy", "features.npy", "labels.npy",
            "norm_mean.npy", "norm_std.npy",
        ]
        assert {m.compress_type for m in members} == {zipfile.ZIP_STORED}
        with np.load(path, allow_pickle=False) as data:
            assert data["category_names"].dtype.kind == "U"
            assert np.array_equal(data["features"], synthetic_db.features)
        loaded = ImageDatabase.load(path)
        assert loaded.category_names == synthetic_db.category_names
        assert all(type(name) is str for name in loaded.category_names)
        assert loaded.normalizer.std_.tobytes() == (
            synthetic_db.normalizer.std_.tobytes()
        )

    def test_category_index_built_on_first_lookup(
        self, tmp_path, synthetic_db
    ):
        path = tmp_path / "db.npz"
        synthetic_db.save(path)
        loaded = ImageDatabase.load(path)
        assert loaded._ids_by_label is None
        name = loaded.category_names[3]
        assert np.array_equal(
            loaded.ids_of_category(name), np.flatnonzero(loaded.labels == 3)
        )
        assert len(loaded._ids_by_label) == len(np.unique(loaded.labels))

    def test_failed_save_keeps_previous_file(
        self, tmp_path, synthetic_db, monkeypatch
    ):
        path = tmp_path / "db.npz"
        synthetic_db.save(path)
        before = path.read_bytes()

        def dies_half_way(handle, **arrays):
            handle.write(before[: len(before) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", dies_half_way)
        with pytest.raises(OSError, match="disk full"):
            synthetic_db.save(path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert ImageDatabase.load(path).size == synthetic_db.size
        assert [p.name for p in tmp_path.iterdir()] == ["db.npz"]

    def test_bare_name_still_gains_npz_suffix(self, tmp_path, synthetic_db):
        synthetic_db.save(tmp_path / "db")
        assert [p.name for p in tmp_path.iterdir()] == ["db.npz"]
        assert ImageDatabase.load(tmp_path / "db.npz").size == 900

    def test_previous_pickled_format_is_refused(self, tmp_path, synthetic_db):
        # What save() wrote before database files were pickle-free.
        path = tmp_path / "old.npz"
        np.savez_compressed(
            path,
            features=synthetic_db.features,
            raw_features=synthetic_db.features,
            labels=synthetic_db.labels,
            category_names=np.array(synthetic_db.category_names, dtype=object),
            norm_mean=synthetic_db.normalizer.mean_,
            norm_std=synthetic_db.normalizer.std_,
        )
        with pytest.raises(DatasetError, match="re-save") as info:
            ImageDatabase.load(path)
        assert "pickled" in str(info.value)

    def test_reduce_payload_never_runs(self, tmp_path, synthetic_db):
        marker = tmp_path / "payload-ran"
        names = np.empty(1, dtype=object)
        names[0] = _RunsOnUnpickle(marker)
        path = tmp_path / "crafted.npz"
        np.savez(
            path,
            features=synthetic_db.features[:1],
            labels=np.zeros(1, dtype=np.int64),
            category_names=names,
            norm_mean=synthetic_db.normalizer.mean_,
            norm_std=synthetic_db.normalizer.std_,
        )
        with pytest.raises(DatasetError, match="pickled"):
            ImageDatabase.load(path)
        assert not marker.exists()
        # The payload is live: unpickling the same file does run it.
        with np.load(path, allow_pickle=True) as data:
            data["category_names"][0].close()  # the file it opened
        assert marker.exists()

    def test_file_without_database_arrays_is_refused(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, features=np.zeros((2, 3)))
        with pytest.raises(DatasetError, match="not a database file"):
            ImageDatabase.load(path)
