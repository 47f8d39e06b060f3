"""Tests for the leaf-contiguous feature store (repro.store).

Covers the build invariants (permutation maps, per-node contiguity),
the save -> memmap/inmem load roundtrip, the zero-copy pickling
contract, the batched kernels against naive references, the store-backed
``localized_knn`` fast path, and — the acceptance property — bit-identical
rankings between the ``inmem`` and ``memmap`` backings under the serial,
thread, and process executors.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.config import QDConfig, RFSConfig
from repro.core.engine import QueryDecompositionEngine
from repro.errors import (
    ConfigurationError,
    DatasetError,
    NodeNotFoundError,
)
from repro.exec import ProcessSubqueryExecutor
from repro.index.rfs import RFSStructure
from repro.index.serialize import load_rfs, save_rfs
from repro.retrieval.distance import euclidean_many, weighted_euclidean
from repro.retrieval.multipoint import MultipointQuery
from repro.retrieval.topk import top_pairs
from repro.store import (
    FeatureStore,
    multipoint_distances,
    pairwise_distances,
    point_distances,
)
from repro.store.kernels import weighted_point_distances
from tests.conftest import brute_force_knn

N_IMAGES = 900
SEED = 2006


@pytest.fixture(scope="module")
def built():
    """A small synthetic database with its RFS structure."""
    from repro.datasets.build import build_synthetic_database

    database = build_synthetic_database(
        N_IMAGES, n_categories=30, seed=SEED
    )
    rfs = RFSStructure.build(
        database.features,
        RFSConfig(
            node_max_entries=60, leaf_subclusters=4
        ),
        seed=SEED,
    )
    return database, rfs


@pytest.fixture()
def saved_store(built, tmp_path):
    """A store built from the shared structure, saved to a tmp dir."""
    _, rfs = built
    store = FeatureStore.build(rfs)
    directory = tmp_path / "store"
    store.save(directory)
    return rfs, store, directory


# ----------------------------------------------------------------------
# Build invariants
# ----------------------------------------------------------------------
class TestBuild:
    def test_permutation_maps_are_inverse(self, built):
        _, rfs = built
        store = FeatureStore.build(rfs)
        n = store.n_rows
        assert n == rfs.root.size
        assert np.array_equal(
            store.row_of_id[store.id_of_row], np.arange(n)
        )
        assert np.array_equal(
            store.id_of_row[store.row_of_id], np.arange(n)
        )

    def test_every_node_is_contiguous(self, built):
        _, rfs = built
        store = FeatureStore.build(rfs)
        for node in rfs.iter_nodes():
            start, stop = store.span_of(node.node_id)
            assert stop - start == node.size
            assert np.array_equal(
                np.sort(store.id_of_row[start:stop]), node.item_ids
            )
        assert store.span_of(rfs.root.node_id) == (0, store.n_rows)

    def test_matrix_is_permuted_features(self, built):
        database, rfs = built
        store = FeatureStore.build(rfs)
        assert np.array_equal(
            np.asarray(store.matrix),
            database.features[store.id_of_row].astype(np.float32),
        )

    def test_default_dtype_float32_contiguous_readonly(self, built):
        _, rfs = built
        store = FeatureStore.build(rfs)
        assert store.dtype == np.float32
        assert store.matrix.flags["C_CONTIGUOUS"]
        assert not store.matrix.flags["WRITEABLE"]

    def test_leaf_node_of_matches_tree_descent(self, built):
        # The structure's item -> leaf map must agree with the store
        # layout: an item's row lies inside its leaf's span.
        _, rfs = built
        store = FeatureStore.build(rfs)
        ids = np.arange(0, N_IMAGES, 37)
        for image_id, node_id in zip(ids, rfs.leaves_of_items(ids)):
            assert rfs.leaf_of_item(image_id).node_id == node_id
            start, stop = store.span_of(int(node_id))
            assert start <= store.row_of_id[image_id] < stop
        with pytest.raises(NodeNotFoundError):
            rfs.leaf_of_item(N_IMAGES + 5)

    def test_sqnorms_cached_and_correct(self, built):
        _, rfs = built
        store = FeatureStore.build(rfs)
        expected = np.einsum(
            "ij,ij->i", store.matrix, store.matrix
        )
        assert np.allclose(store.sqnorms, expected)
        assert store.sqnorms is store.sqnorms  # cached object


# ----------------------------------------------------------------------
# Save -> load roundtrip
# ----------------------------------------------------------------------
class TestRoundtrip:
    def test_roundtrip_memmap_bitwise(self, saved_store):
        _, store, directory = saved_store
        loaded = FeatureStore.open(directory, mode="memmap")
        assert isinstance(loaded.matrix, np.memmap)
        assert loaded.kind == "memmap"
        assert loaded.dtype == store.dtype
        assert loaded.matrix.shape == store.matrix.shape
        assert np.array_equal(
            np.asarray(loaded.matrix), np.asarray(store.matrix)
        )
        assert np.array_equal(loaded.id_of_row, store.id_of_row)
        assert np.array_equal(loaded.row_of_id, store.row_of_id)
        assert loaded.spans == store.spans

    def test_roundtrip_inmem_bitwise(self, saved_store):
        _, store, directory = saved_store
        loaded = FeatureStore.open(directory, mode="inmem")
        assert loaded.kind == "inmem"
        assert np.array_equal(
            np.asarray(loaded.matrix), np.asarray(store.matrix)
        )
        assert not loaded.matrix.flags["WRITEABLE"]

    def test_roundtrip_views_are_readonly(self, saved_store):
        _, _, directory = saved_store
        loaded = FeatureStore.open(directory, mode="memmap")
        block, ids, sqnorms = loaded.node_block(
            next(iter(loaded.spans))
        )
        for arr in (block, ids, sqnorms):
            assert not arr.flags["WRITEABLE"]

    def test_roundtrip_missing_and_corrupt(self, saved_store, tmp_path):
        _, _, directory = saved_store
        with pytest.raises(DatasetError):
            FeatureStore.open(tmp_path / "nowhere")
        # Truncate the data file: byte-size validation must fire.
        data = directory / "features.bin"
        data.write_bytes(data.read_bytes()[:-8])
        with pytest.raises(DatasetError):
            FeatureStore.open(directory)

    def test_open_rejects_bad_mode(self, saved_store):
        _, _, directory = saved_store
        with pytest.raises(ConfigurationError):
            FeatureStore.open(directory, mode="mmap")

    def test_memmap_pickle_ships_path_not_bytes(self, saved_store):
        _, _, directory = saved_store
        loaded = FeatureStore.open(directory, mode="memmap")
        blob = pickle.dumps(loaded)
        # Zero-copy contract: the pickled form must be metadata-sized,
        # never the feature matrix itself.
        assert len(blob) < loaded.nbytes / 2
        clone = pickle.loads(blob)
        assert np.array_equal(
            np.asarray(clone.matrix), np.asarray(loaded.matrix)
        )

    def test_save_rfs_with_store_dir(self, built, tmp_path):
        database, rfs = built
        rfs_path = tmp_path / "rfs.npz"
        store_dir = tmp_path / "store"
        save_rfs(rfs, rfs_path, store_dir=store_dir)
        loaded = load_rfs(
            rfs_path, database.features, store_dir=store_dir
        )
        assert loaded.store is not None
        assert loaded.store.kind == "memmap"
        assert loaded.store.n_rows == rfs.root.size


# ----------------------------------------------------------------------
# Kernels and trusted fast paths
# ----------------------------------------------------------------------
class TestKernels:
    def test_pairwise_matches_naive(self):
        rng = np.random.default_rng(0)
        block = rng.normal(size=(50, 12)).astype(np.float32)
        reps = rng.normal(size=(4, 12))
        table = pairwise_distances(block, reps)
        naive = np.linalg.norm(
            block[:, None, :].astype(np.float64) - reps[None, :, :],
            axis=2,
        )
        assert table.shape == (50, 4)
        assert np.allclose(table, naive, atol=1e-4)

    def test_point_distances_with_cached_norms(self):
        rng = np.random.default_rng(1)
        block = rng.normal(size=(40, 8))
        sq = np.einsum("ij,ij->i", block, block)
        q = rng.normal(size=8)
        dists = point_distances(block, q, block_sqnorms=sq)
        assert np.allclose(
            dists, np.linalg.norm(block - q, axis=1), atol=1e-9
        )

    def test_weighted_point_distances(self):
        rng = np.random.default_rng(2)
        block = rng.normal(size=(30, 6))
        q = rng.normal(size=6)
        w = rng.uniform(0.1, 2.0, size=6)
        dists = weighted_point_distances(block, q, w)
        diff = block - q
        assert np.allclose(
            dists, np.sqrt(np.sum(w * diff * diff, axis=1)), atol=1e-9
        )

    def test_multipoint_matches_query_object(self):
        rng = np.random.default_rng(3)
        block = rng.normal(size=(25, 10))
        reps = rng.normal(size=(3, 10))
        weights = np.array([2.0, 1.0, 1.0])
        mq = MultipointQuery(reps, weights)
        fused = multipoint_distances(block, reps, weights)
        assert np.allclose(fused, mq.distances(block), atol=1e-9)
        # And the trusted entry point on the query object itself.
        assert np.allclose(
            mq.distances(block, trusted=True), mq.distances(block),
            atol=1e-9,
        )

    def test_trusted_distance_fast_paths(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(20, 5))
        q = rng.normal(size=5)
        w = rng.uniform(0.5, 1.5, size=5)
        assert np.allclose(
            euclidean_many(pts, q, trusted=True), euclidean_many(pts, q)
        )
        assert np.allclose(
            weighted_euclidean(pts, q, w, trusted=True),
            weighted_euclidean(pts, q, w),
        )

    def test_top_pairs_matches_full_sort(self):
        rng = np.random.default_rng(5)
        scores = rng.integers(0, 10, size=200).astype(np.float64)
        ids = rng.permutation(200)
        expected = sorted(zip(scores.tolist(), ids.tolist()))[:25]
        assert top_pairs(scores, ids, 25) == [
            (float(s), int(i)) for s, i in expected
        ]


# ----------------------------------------------------------------------
# Batched MBR geometry
# ----------------------------------------------------------------------
class TestBatchedGeometry:
    def test_min_distance_batch_matches_scalar(self):
        from repro.index.geometry import MBR

        rng = np.random.default_rng(6)
        box = MBR(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
        points = rng.normal(scale=2.0, size=(40, 2))
        batch = box.min_distance(points)
        assert batch.shape == (40,)
        for i, point in enumerate(points):
            assert batch[i] == pytest.approx(box.min_distance(point))

    def test_stacked_min_distances_matches_per_box(self):
        from repro.index.geometry import MBR, stacked_min_distances

        rng = np.random.default_rng(8)
        boxes = []
        for _ in range(12):
            lo = rng.normal(size=4)
            boxes.append(MBR(lo, lo + rng.uniform(0.1, 1.0, size=4)))
        los = np.stack([b.lo for b in boxes])
        his = np.stack([b.hi for b in boxes])
        q = rng.normal(size=4)
        plain = stacked_min_distances(los, his, q)
        for i, box in enumerate(boxes):
            assert plain[i] == pytest.approx(box.min_distance(q))


# ----------------------------------------------------------------------
# Store-backed localized k-NN
# ----------------------------------------------------------------------
class TestStoreScan:
    def test_attach_validates_shape(self, built):
        _, rfs = built
        store = FeatureStore.build(rfs)
        other = RFSStructure.build(
            np.random.default_rng(9).normal(size=(300, 37)),
            RFSConfig(node_max_entries=60),
            seed=9,
        )
        with pytest.raises(ConfigurationError):
            other.attach_store(store)

    def test_store_scan_matches_legacy_ids(self, built):
        database, rfs = built
        query = database.features[11]
        leaf = rfs.leaf_of_item(11)
        reference = brute_force_knn(
            database.features, query, 30, live_ids=leaf.item_ids
        )
        rfs.attach_store(FeatureStore.build(rfs))
        try:
            fast = rfs.localized_knn(leaf, query, 30)
        finally:
            rfs.detach_store()
        assert [i for _, i in fast] == [i for _, i in reference]
        assert np.allclose(
            [d for d, _ in fast], [d for d, _ in reference], atol=1e-3
        )

    def test_store_scan_accounts_io_and_bytes(self, built):
        database, rfs = built
        store = FeatureStore.build(rfs)
        rfs.attach_store(store)
        try:
            before_reads = rfs.io.physical_reads
            before_bytes = rfs.io.bytes_read
            blocks_before = store.stats["block_reads"]
            rfs.localized_knn(
                rfs.leaf_of_item(5), database.features[5], 10
            )
            assert rfs.io.physical_reads > before_reads
            assert rfs.io.bytes_read > before_bytes
            assert store.stats["block_reads"] > blocks_before
            assert store.stats["bytes_read"] == (
                rfs.io.bytes_read - before_bytes
            )
        finally:
            rfs.detach_store()

    def test_vectors_for_uses_store(self, built):
        database, rfs = built
        store = FeatureStore.build(rfs)
        rfs.attach_store(store)
        try:
            ids = np.array([3, 141, 590])
            assert np.array_equal(
                rfs.vectors_for(ids),
                database.features[ids].astype(np.float32),
            )
        finally:
            rfs.detach_store()


# ----------------------------------------------------------------------
# Lifecycle: close(), idempotent re-attach, engine teardown
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_close_releases_memmap_and_is_idempotent(self, saved_store):
        _, _, directory = saved_store
        store = FeatureStore.open(directory, mode="memmap")
        node = next(iter(store.spans))
        store.node_block(node)  # works while open
        store.close()
        assert store.closed
        with pytest.raises(DatasetError):
            store.node_block(node)
        with pytest.raises(DatasetError):
            store.vectors_for(np.array([0]))
        store.close()  # second close is a no-op

    def test_reattach_same_store_is_noop(self, built):
        database, _ = built
        rfs = RFSStructure.build(
            database.features,
            RFSConfig(
                node_max_entries=60,
                leaf_subclusters=4,
            ),
            seed=SEED,
        )
        store = FeatureStore.build(rfs)
        rfs.attach_store(store, validate=False)
        version = rfs.structure_version
        rfs.attach_store(store)  # same object: no validation, no bump
        assert rfs.store is store
        assert rfs.structure_version == version
        rfs.detach_store()
        assert rfs.structure_version == version + 1
        rfs.detach_store()  # nothing attached: no bump
        assert rfs.structure_version == version + 1

    def test_engine_close_releases_memmap_store(
        self, built, saved_store
    ):
        database, _ = built
        _, _, directory = saved_store
        store = FeatureStore.open(directory, mode="memmap")
        rfs = RFSStructure.build(
            database.features,
            RFSConfig(
                node_max_entries=60,
                leaf_subclusters=4,
            ),
            seed=SEED,
        )
        engine = QueryDecompositionEngine(
            database, rfs, QDConfig(), store=store
        )
        engine.close()
        assert rfs.store is not store  # detached; scans build their own
        assert store.closed
        engine.close()  # safe to call twice

    def test_engine_close_keeps_inmem_store_attached(self, built):
        database, _ = built
        rfs = RFSStructure.build(
            database.features,
            RFSConfig(
                node_max_entries=60,
                leaf_subclusters=4,
            ),
            seed=SEED,
        )
        store = FeatureStore.build(rfs)
        engine = QueryDecompositionEngine(
            database, rfs, QDConfig(), store=store
        )
        engine.close()
        assert rfs.store is store
        assert not store.closed


# ----------------------------------------------------------------------
# Parity: inmem vs memmap, across executors — the acceptance property
# ----------------------------------------------------------------------
def _signature(result):
    return [
        (
            group.leaf_node_id,
            tuple((item.item_id, item.score) for item in group.items),
        )
        for group in result.groups
    ]


def _run_session(database, store, executor, seed):
    rfs = RFSStructure.build(
        database.features,
        RFSConfig(
            node_max_entries=60, leaf_subclusters=4
        ),
        seed=SEED,
    )
    if store is not None:
        rfs.attach_store(store)
    relevant = set(np.flatnonzero(database.labels == 3).tolist())
    relevant |= set(np.flatnonzero(database.labels == 7).tolist())
    engine = QueryDecompositionEngine(
        database, rfs, QDConfig(executor=executor, workers=2)
    )
    with engine:
        result = engine.run_scripted(
            lambda shown: [i for i in shown if i in relevant],
            k=50,
            seed=seed,
        )
    return _signature(result)


_EXECUTORS = ["serial", "thread"] + (
    ["process"] if ProcessSubqueryExecutor.fork_available() else []
)


class TestParity:
    @pytest.mark.parametrize("executor", _EXECUTORS)
    @pytest.mark.parametrize("seed", [11, 23])
    def test_inmem_and_memmap_rankings_bit_identical(
        self, saved_store, built, executor, seed
    ):
        database, _ = built
        _, _, directory = saved_store
        inmem = FeatureStore.open(directory, mode="inmem")
        memmap = FeatureStore.open(directory, mode="memmap")
        sig_inmem = _run_session(database, inmem, executor, seed)
        sig_memmap = _run_session(database, memmap, executor, seed)
        assert sig_inmem == sig_memmap

    @pytest.mark.parametrize("executor", _EXECUTORS)
    def test_executors_agree_on_store_rankings(
        self, saved_store, built, executor
    ):
        database, _ = built
        _, _, directory = saved_store
        store = FeatureStore.open(directory, mode="memmap")
        sig = _run_session(database, store, executor, 11)
        baseline = _run_session(
            database,
            FeatureStore.open(directory, mode="memmap"),
            "serial",
            11,
        )
        assert sig == baseline

    def test_store_ids_match_legacy_session(self, built, monkeypatch):
        # The same session with every scan replaced by the brute-force
        # reference must pick the same images.
        database, _ = built
        stored = _run_session(database, None, "serial", 11)

        def reference(self, node, query_point, k, **_):
            return brute_force_knn(
                self.features, query_point, k, live_ids=node.item_ids
            )

        monkeypatch.setattr(RFSStructure, "localized_knn", reference)
        legacy = _run_session(database, None, "serial", 11)
        # Per group, as sets: float32 cannot order the marked images
        # themselves, a few 1e-4 from their own centroid.
        legacy_ids = [{i for i, _ in group[1]} for group in legacy]
        stored_ids = [{i for i, _ in group[1]} for group in stored]
        assert legacy_ids == stored_ids
