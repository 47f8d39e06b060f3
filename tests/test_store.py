"""Tests for the leaf-contiguous feature store (repro.store).

Covers the build invariants (permutation maps, per-node contiguity),
the save -> memmap/inmem load roundtrip, the on-disk format tags (a
foreign dtype or tier tag, a future version, version-1 back-compat), the
batched kernels against naive
references and their block-shape independence, the store-backed
``localized_knn`` fast path against the brute-force reference — with
tombstones, and through the final round's top-up — and the acceptance
property: bit-identical rankings between the ``inmem`` and ``memmap``
backings.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import QDConfig, RFSConfig
from repro.core.engine import QueryDecompositionEngine
from repro.core.ranking import execute_final_round
from repro.errors import (
    ConfigurationError,
    DatasetError,
    NodeNotFoundError,
    StoreCodecError,
)
from repro.index.rfs import RFSStructure
from repro.index.serialize import load_rfs, save_rfs
from repro.retrieval.distance import euclidean_many, weighted_euclidean
from repro.retrieval.multipoint import MultipointQuery
from repro.retrieval.topk import rank
from repro.store import FeatureStore, pairwise_distances, point_distances
from repro.store.delta import DeltaSegment
from repro.store.kernels import multipoint_distances, weighted_point_distances
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


#: The codes file a store of each removed scan tier carried.
_CODE_DTYPES = {"f16": np.float16, "int8": np.int8}


def _rewrite_meta(directory, **fields):
    meta = dict(np.load(directory / "meta.npz"))
    meta.update(fields)
    np.savez_compressed(directory / "meta.npz", **meta)
    return meta


class TestFormatTags:
    @pytest.mark.parametrize(
        "tag,value",
        [
            ("dtype", "float64"),
            ("dtype", "int64"),
            ("dtype", "complex64"),
            ("dtype", "object"),
            ("tier", "f16"),
            ("tier", "int8"),
            ("tier", "pq4"),
        ],
        ids=["float64", "int64", "complex64", "object", "f16", "int8", "pq4"],
    )
    def test_foreign_number_format_tag_rejected(
        self, saved_store, tag, value
    ):
        """Rows are float32 and scans read them exactly; any other tag
        is refused by name.

        A foreign ``dtype`` gets its data file rewritten at that width,
        so the byte size matches what the tag claims and only the tag
        check stands between the bytes and a reinterpretation.  A
        foreign ``tier`` gets the codes file such a store carried.
        """
        _, store, directory = saved_store
        if tag == "dtype":
            np.asarray(store.matrix, dtype=np.float64).tofile(
                directory / "features.bin"
            )
        elif value in _CODE_DTYPES:
            np.zeros(store.matrix.shape, dtype=_CODE_DTYPES[value]).tofile(
                directory / "codes.bin"
            )
        _rewrite_meta(directory, **{tag: np.array(value)})
        for mode in ("memmap", "inmem"):
            with pytest.raises(StoreCodecError, match=repr(value)):
                FeatureStore.open(directory, mode=mode)

    def test_future_format_version_rejected(self, saved_store):
        _, _, directory = saved_store
        _rewrite_meta(directory, format_version=np.int64(99))
        with pytest.raises(StoreCodecError):
            FeatureStore.open(directory)

    def test_version1_directory_opens_as_f32(self, saved_store):
        _, store, directory = saved_store
        meta = dict(np.load(directory / "meta.npz"))
        # Version 1 predates the tier tag and the persisted norms.
        del meta["tier"], meta["sqnorms"]
        meta["format_version"] = np.int64(1)
        np.savez_compressed(directory / "meta.npz", **meta)
        loaded = FeatureStore.open(directory)
        assert np.array_equal(
            np.asarray(loaded.matrix), np.asarray(store.matrix)
        )
        assert np.array_equal(loaded.sqnorms, store.sqnorms)

    def test_saved_tags_open_in_older_readers(self, saved_store):
        # Format version 2 with the "f32" tier tag and a float32 dtype
        # tag: what every reader of this format since the tag existed
        # expects, so stores move both ways between versions.
        _, _, directory = saved_store
        with np.load(directory / "meta.npz") as meta:
            assert int(meta["format_version"]) == 2
            assert str(meta["tier"]) == "f32"
            assert str(meta["dtype"]) == "float32"
        assert sorted(p.name for p in directory.iterdir()) == [
            "features.bin", "meta.npz",
        ]

    def test_scan_block_refuses(self, saved_store):
        _, store, _ = saved_store
        with pytest.raises(ConfigurationError, match="node_block"):
            store.scan_block(next(iter(store.spans)))


# ----------------------------------------------------------------------
# Kernels against the public distance functions
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

    def test_kernels_match_public_distance_functions(self):
        rng = np.random.default_rng(4)
        pts = rng.normal(size=(20, 5))
        q = rng.normal(size=5)
        w = rng.uniform(0.5, 1.5, size=5)
        assert np.allclose(point_distances(pts, q), euclidean_many(pts, q))
        assert np.allclose(
            weighted_point_distances(pts, q, w),
            weighted_euclidean(pts, q, w),
        )

    def test_top_pairs_matches_full_sort(self):
        # rank's partition + lexsort equals a stable (score, id) sort
        # of the whole input, boundary ties included.
        rng = np.random.default_rng(5)
        scores = rng.integers(0, 10, size=200).astype(np.float64)
        ids = rng.permutation(200)
        expected = sorted(zip(scores.tolist(), ids.tolist()))[:25]
        got = rank(scores, ids, 25)
        assert got.ids() == [i for _, i in expected]
        assert got.scores.tolist() == [s for s, _ in expected]


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
        assert fast.ids() == reference.ids()
        assert np.allclose(fast.scores, reference.scores, atol=1e-3)

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

    def test_block_nbytes_counts_float32_rows(self, built):
        _, rfs = built
        store = FeatureStore.build(rfs)
        for node in rfs.iter_nodes():
            start, stop = store.span_of(node.node_id)
            assert store.block_nbytes(node.node_id) == (
                (stop - start) * store.dims * 4
            )

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
# Parity: inmem vs memmap — the acceptance property
# ----------------------------------------------------------------------
def _signature(result):
    return [
        (
            group.leaf_node_id,
            tuple((item.item_id, item.score) for item in group.items),
        )
        for group in result.groups
    ]


def _run_session(database, store, seed):
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
    engine = QueryDecompositionEngine(database, rfs, QDConfig())
    with engine:
        result = engine.run_scripted(
            lambda shown: [i for i in shown if i in relevant],
            k=50,
            seed=seed,
        )
    return _signature(result)


class TestParity:
    @pytest.mark.parametrize("seed", [11, 23])
    def test_inmem_and_memmap_rankings_bit_identical(
        self, saved_store, built, seed
    ):
        database, _ = built
        _, _, directory = saved_store
        inmem = FeatureStore.open(directory, mode="inmem")
        memmap = FeatureStore.open(directory, mode="memmap")
        sig_inmem = _run_session(database, inmem, seed)
        sig_memmap = _run_session(database, memmap, seed)
        assert sig_inmem == sig_memmap

    def test_store_ids_match_legacy_session(self, built, monkeypatch):
        # The same session with every scan replaced by the brute-force
        # reference must pick the same images.
        database, _ = built
        stored = _run_session(database, None, 11)

        def reference(self, node, query_point, k, **_):
            return brute_force_knn(
                self.features, query_point, k, live_ids=node.item_ids
            )

        monkeypatch.setattr(RFSStructure, "localized_knn", reference)
        legacy = _run_session(database, None, 11)
        # Per group, as sets: float32 cannot order the marked images
        # themselves, a few 1e-4 from their own centroid.
        legacy_ids = [{i for i, _ in group[1]} for group in legacy]
        stored_ids = [{i for i, _ in group[1]} for group in stored]
        assert legacy_ids == stored_ids


class TestKernelShapeIndependence:
    @given(
        n=st.integers(1, 300),
        d=st.one_of(st.integers(1, 16), st.just(37), st.just(64)),
        seed=st.integers(0, 2**20),
        cached_norms=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_gathered_rows_score_as_in_the_full_block(
        self, n, d, seed, cached_norms
    ):
        # A row's exact distance is the same bits whether it is scored
        # in its full float32 block or in any gather of it (any size,
        # order, repeats): the reductions are einsum's, not gemv's.
        # The delta scan and the leaf scan rely on it.
        rng = np.random.default_rng(seed)
        scale = np.float32(rng.uniform(0.1, 10.0))
        block = rng.normal(size=(n, d)).astype(np.float32) * scale
        query = rng.normal(size=d).astype(np.float32)
        weights = rng.uniform(0.5, 2.0, size=d).astype(np.float32)
        idx = rng.integers(n, size=int(rng.integers(1, n + 1)))
        sqnorms = np.einsum("ij,ij->i", block, block)
        full = point_distances(
            block, query, block_sqnorms=sqnorms if cached_norms else None
        )
        gathered = point_distances(
            block[idx],
            query,
            block_sqnorms=sqnorms[idx] if cached_norms else None,
        )
        assert gathered.tobytes() == full[idx].tobytes()
        assert (
            weighted_point_distances(block[idx], query, weights).tobytes()
            == weighted_point_distances(block, query, weights)[idx].tobytes()
        )


# ----------------------------------------------------------------------
# The leaf scan under tombstones, against the brute-force reference
# ----------------------------------------------------------------------
def _reference_scan(rfs, node, query, k, dead):
    """The block scan written out plainly, as the reference.

    Exact kernel per full block in MINDIST order, tombstoned rows
    dropped, stop at the first leaf whose MINDIST is strictly beyond
    the ``take``-th best live distance.  Returns ``(ranking,
    leaves_read)``.
    """
    from repro.index.geometry import stacked_min_distances

    store = rfs.store
    leaves, los, his = rfs._leaf_geometry(node)
    mindists = stacked_min_distances(los, his, query)
    take = min(k, node.size - len(dead))
    dists, ids, kth, leaves_read = [], [], np.inf, 0
    for pos in np.argsort(mindists, kind="stable"):
        if sum(map(len, ids)) >= take and mindists[pos] > kth:
            break
        block, block_ids, sqnorms = store.node_block(leaves[pos].node_id)
        leaves_read += 1
        d = point_distances(block, query, block_sqnorms=sqnorms)
        alive = ~np.isin(block_ids, dead)
        dists.append(d[alive])
        ids.append(block_ids[alive])
        if sum(map(len, ids)) >= take:
            kth = float(np.sort(np.concatenate(dists))[take - 1])
    return rank(np.concatenate(dists), np.concatenate(ids), take), leaves_read


def _tombstone(rfs, database, dead):
    segment = DeltaSegment(base_rows=database.size, dims=database.dims)
    for victim in dead:
        segment.remove_main(victim, rfs.leaf_of_item(victim).node_id)
    rfs.attach_delta(segment)


def _brute_force_localized_knn(dead):
    """``RFSStructure.localized_knn`` replaced by the float64 reference
    over the node's live members."""

    def localized_knn(self, node, query_point, k, **_):
        live = np.setdiff1d(node.item_ids, dead)
        return brute_force_knn(
            self.features, query_point, k, live_ids=live
        )

    return localized_knn


class TestTombstoneScanParity:
    @pytest.fixture(scope="class")
    def scanned(self, built):
        """A structure of its own: the tests attach delta segments."""
        database, _ = built
        rfs = RFSStructure.build(
            database.features,
            RFSConfig(node_max_entries=60, leaf_subclusters=4),
            seed=SEED,
        )
        return database, rfs

    @settings(max_examples=40, deadline=None)
    @given(
        item=st.integers(0, N_IMAGES - 1),
        levels_up=st.integers(0, 2),
        k=st.integers(1, 70),
        # Which ranks of the clean ranking to tombstone, counted back
        # from the k-th: 0 = the k-th itself, 1 = just inside it, ...
        dead_ranks=st.sets(st.integers(0, 3), max_size=4),
        drain=st.booleans(),
    )
    def test_scan_matches_brute_force_under_tombstones(
        self, scanned, item, levels_up, k, dead_ranks, drain,
    ):
        database, rfs = scanned
        node = rfs.leaf_of_item(item)
        for _ in range(levels_up):
            node = node.parent or node
        # Off the item itself: float32 scores a row against itself
        # as ~1e-3, not 0, through the norm expansion.
        query = database.features[item] + np.random.default_rng(
            item
        ).normal(0.0, 0.05, size=database.dims)
        if drain:
            k = node.size  # take == every live row under the node
        rfs.delta = None
        clean = rfs.localized_knn(node, query, k)
        dead = sorted(
            {clean.ids()[len(clean) - 1 - r] for r in dead_ranks
             if r < len(clean)}
        )
        if len(dead) == node.size:
            dead = dead[1:]  # keep one live row to rank
        _tombstone(rfs, database, dead)
        rfs.io.reset()
        got = rfs.localized_knn(node, query, k)
        reads = rfs.io.per_category["localized_knn"]

        want, want_reads = _reference_scan(
            rfs, node, query, k, np.array(dead, dtype=np.int64)
        )
        assert got == want
        assert reads == want_reads
        assert rfs.effective_node_size(node) == node.size - len(dead)
        reference = _brute_force_localized_knn(dead)(rfs, node, query, k)
        # float32 cannot order rows a few 1e-4 apart, so compare the id
        # sets, and the distances to the float64 ones.
        assert set(got.ids()) == set(reference.ids())
        assert np.allclose(got.scores, reference.scores, atol=1e-3)
        assert len(got) == min(k, node.size - len(dead))
        assert not set(dead) & set(got.ids())

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_topup_under_tombstones_matches_brute_force(
        self, scanned, monkeypatch, seed
    ):
        """The top-up drains promoted search nodes through the scan.

        Marks fall in two leaves and ``k`` exceeds what both hold, so
        every group is promoted and topped up past its leaf; tombstones
        sit in the marked leaves and their parents.  The same final
        round with every scan replaced by the brute-force reference over
        live rows must pick the same images per group.
        """
        database, rfs = scanned
        rng = np.random.default_rng(seed)
        leaves = [n for n in rfs.iter_nodes() if n.is_leaf]
        picked = rng.choice(len(leaves), size=2, replace=False)
        marks = sorted(
            int(i)
            for j in picked
            for i in rng.choice(leaves[j].item_ids, size=3, replace=False)
        )
        pool = np.setdiff1d(
            np.concatenate(
                [leaves[j].parent.item_ids for j in picked]
            ),
            marks,
        )
        dead = np.sort(rng.choice(pool, size=12, replace=False))
        k = sum(leaves[j].size for j in picked) + 40
        config = QDConfig()

        def finalize():
            result = execute_final_round(
                rfs, marks, k, config, rounds_used=1
            )
            return [
                (
                    group.search_node_id,
                    {item.item_id: item.score for item in group.items},
                )
                for group in result.groups
            ]

        rfs.delta = None
        _tombstone(rfs, database, dead)
        got = finalize()
        monkeypatch.setattr(
            RFSStructure, "localized_knn", _brute_force_localized_knn(dead)
        )
        want = finalize()
        assert [node for node, _ in got] == [node for node, _ in want]
        assert all(
            node not in (leaves[j].node_id for j in picked)
            for node, _ in got
        )
        for (_, scan), (_, reference) in zip(got, want):
            assert set(scan) == set(reference)
            assert np.allclose(
                [scan[i] for i in sorted(scan)],
                [reference[i] for i in sorted(reference)],
                atol=1e-3,
            )
        returned = [i for _, group in got for i in group]
        assert len(returned) == len(set(returned)) == k
        assert not set(dead.tolist()) & set(returned)
