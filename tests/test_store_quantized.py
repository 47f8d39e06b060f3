"""Tests for the compressed int8 scan tier (repro.store.quantize).

Covers the quantization round-trip error bounds (property-based, via
hypothesis), the tier-aware byte accounting, the save -> open format
(version 2 with codes + params, version-1 back-compat, unknown-tag
rejection), zero-copy pickling of quantized stores, and — the
acceptance property, targeted by the no-skip ``Parity`` gate in
``scripts/check.sh`` — rankings on the ``int8`` tier
staying bit-identical to the pure-float32 path across executors,
backings, and cached reruns.

The small-``fetch`` sweep in ``TestQuantizedParity`` is a regression
test for a trap the re-rank once fell into: BLAS matrix-vector
reductions change summation order with the matrix's row count, so
re-ranking a *gathered* candidate matrix through ``X @ q`` produced
last-ulp-different distances than the full-block scan.  The exact
kernels reduce with ``einsum``, whose per-row result does not depend on
the block's shape (``TestKernelShapeIndependence``); the re-rank still
reruns them over full leaf blocks, the calls the ``f32`` scan makes.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import SubqueryResultCache
from repro.config import QDConfig, RFSConfig
from repro.core.engine import QueryDecompositionEngine
from repro.errors import ConfigurationError, StoreCodecError
from repro.exec import ProcessSubqueryExecutor
from repro.index.rfs import RFSStructure
from repro.index.serialize import load_rfs, save_rfs
from repro.store import (
    FeatureStore,
    QuantizationParams,
    dequantize,
    dequantized_sqnorms,
    quantize_matrix,
)

N_IMAGES = 900
SEED = 2006
RFS_CONFIG = RFSConfig(
    node_max_entries=60, leaf_subclusters=4
)

_EXECUTORS = ["serial", "thread"] + (
    ["process"] if ProcessSubqueryExecutor.fork_available() else []
)
_QUANT_TIERS = ["int8"]


@pytest.fixture(scope="module")
def database():
    from repro.datasets.build import build_synthetic_database

    return build_synthetic_database(N_IMAGES, n_categories=30, seed=SEED)


@pytest.fixture(scope="module")
def rfs_f32(database):
    return _build_rfs(database)


def _build_rfs(database) -> RFSStructure:
    return RFSStructure.build(database.features, RFS_CONFIG, seed=SEED)


def _signature(result):
    return [
        (
            group.leaf_node_id,
            tuple((item.item_id, item.score) for item in group.items),
        )
        for group in result.groups
    ]


def _run_session(database, store, executor, *, k=50, cache=None, seed=11):
    rfs = _build_rfs(database)
    if store is not None:
        rfs.attach_store(store)
    if cache is not None:
        rfs.attach_cache(cache)
    relevant = set(np.flatnonzero(database.labels == 3).tolist())
    relevant |= set(np.flatnonzero(database.labels == 7).tolist())
    engine = QueryDecompositionEngine(
        database, rfs, QDConfig(executor=executor, workers=2)
    )
    with engine:
        result = engine.run_scripted(
            lambda shown: [i for i in shown if i in relevant],
            k=k,
            seed=seed,
        )
    return _signature(result)


# ----------------------------------------------------------------------
# Quantization round-trip error bounds (property-based)
# ----------------------------------------------------------------------
_matrices = st.integers(0, 2**32 - 1).flatmap(
    lambda seed: st.tuples(
        st.just(seed),
        st.integers(2, 40),
        st.integers(2, 12),
        st.floats(0.01, 100.0),
    )
)


def _random_matrix(seed, rows, dims, spread):
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, spread, size=(rows, dims)).astype(np.float32)


class TestRoundTripBounds:
    @settings(max_examples=60, deadline=None)
    @given(_matrices)
    def test_int8_error_within_half_step(self, params):
        seed, rows, dims, spread = params
        matrix = _random_matrix(seed, rows, dims, spread)
        codes, quant = quantize_matrix(matrix, "int8")
        assert codes.dtype == np.int8
        recon = dequantize(codes, quant)
        err = np.abs(recon - matrix)
        # Nearest-step rounding: per-dim error <= scale/2 (tiny float
        # slack for the affine decode arithmetic itself).
        limit = quant.scale * 0.5 * (1.0 + 1e-4) + 1e-9
        assert np.all(err <= limit[None, :])
        # The recorded per-dim bound is the measured max, so it is both
        # valid and tight.
        assert np.all(err <= quant.dim_err[None, :] + 1e-12)
        assert np.allclose(err.max(axis=0), quant.dim_err, atol=1e-12)
        assert quant.err_bound == pytest.approx(
            float(np.sqrt(np.sum(quant.dim_err**2)))
        )

    @settings(max_examples=30, deadline=None)
    @given(_matrices, st.integers(0, 2**32 - 1))
    def test_distance_error_bounded_by_epsilon(self, params, qseed):
        """|dist(x̂,q) - dist(x,q)| <= ε — the scan's pruning contract."""
        seed, rows, dims, spread = params
        matrix = _random_matrix(seed, rows, dims, spread)
        query = np.random.default_rng(qseed).normal(
            0.0, spread, size=dims
        )
        for tier in _QUANT_TIERS:
            codes, quant = quantize_matrix(matrix, tier)
            recon = dequantize(codes, quant).astype(np.float64)
            exact = np.linalg.norm(matrix.astype(np.float64) - query, axis=1)
            approx = np.linalg.norm(recon - query, axis=1)
            slack = quant.err_bound * (1.0 + 1e-6) + 1e-9
            assert np.all(np.abs(approx - exact) <= slack)

    def test_constant_dimensions_reconstruct_exactly(self):
        matrix = np.full((10, 4), 3.25, dtype=np.float32)
        matrix[:, 2] = -1.5
        codes, quant = quantize_matrix(matrix, "int8")
        assert np.all(quant.scale[np.ptp(matrix, axis=0) == 0] == 1.0)
        assert np.array_equal(dequantize(codes, quant), matrix)
        assert quant.err_bound == 0.0

    def test_weighted_err_bound(self):
        rng = np.random.default_rng(5)
        matrix = rng.normal(size=(30, 6)).astype(np.float32)
        _, quant = quantize_matrix(matrix, "int8")
        w = rng.uniform(0.1, 3.0, size=6)
        expected = float(np.sqrt(np.sum(w * quant.dim_err**2)))
        assert quant.weighted_err_bound(w) == pytest.approx(expected)
        assert quant.weighted_err_bound(None) == quant.err_bound

    def test_dequantize_unknown_tier_raises(self):
        params = QuantizationParams(
            tier="pq4",
            scale=np.ones(2, dtype=np.float32),
            offset=np.zeros(2, dtype=np.float32),
            dim_err=np.zeros(2),
            err_bound=0.0,
        )
        with pytest.raises(StoreCodecError):
            dequantize(np.zeros((1, 2), dtype=np.int8), params)

    def test_quantize_rejects_f32(self):
        with pytest.raises(ConfigurationError):
            quantize_matrix(np.zeros((2, 2), dtype=np.float32), "f32")


# ----------------------------------------------------------------------
# Tier-aware store accounting
# ----------------------------------------------------------------------
class TestTierAccounting:
    @pytest.mark.parametrize(
        "tier,ratio", [("f32", 1.0), ("int8", 4.0)]
    )
    def test_compression_ratio_and_block_bytes(
        self, rfs_f32, tier, ratio
    ):
        store = FeatureStore.build(rfs_f32, tier=tier)
        assert store.compression_ratio == pytest.approx(ratio)
        leaf = next(
            n.node_id for n in rfs_f32.iter_nodes() if n.is_leaf
        )
        start, stop = store.span_of(leaf)
        dims = store.matrix.shape[1]
        assert store.block_nbytes(leaf) == (
            (stop - start) * dims * store.scan_itemsize
        )

    def test_dq_sqnorms_match_reconstruction(self, rfs_f32):
        store = FeatureStore.build(rfs_f32, tier="int8")
        recon = dequantize(np.asarray(store.codes), store.quant)
        assert np.array_equal(
            store.dq_sqnorms, np.einsum("ij,ij->i", recon, recon)
        )
        assert np.array_equal(
            store.dq_sqnorms,
            dequantized_sqnorms(np.asarray(store.codes), store.quant),
        )

    def test_fingerprint_separates_tiers(self, rfs_f32):
        prints = {
            FeatureStore.build(rfs_f32, tier=tier).fingerprint()
            for tier in ("f32", "int8")
        }
        assert len(prints) == 2

    def test_build_rejects_bad_tier_and_margin(self, rfs_f32):
        # The name is kept for continuity: the re-rank margin is now the
        # module constant RERANK_MARGIN, so the tier is the only build
        # option left to validate.
        with pytest.raises(ConfigurationError):
            FeatureStore.build(rfs_f32, tier="pq4")


# ----------------------------------------------------------------------
# Persistence: format v2, v1 back-compat, corrupt/unknown rejection
# ----------------------------------------------------------------------
class TestQuantizedRoundtrip:
    @pytest.mark.parametrize("tier", _QUANT_TIERS)
    @pytest.mark.parametrize("mode", ["memmap", "inmem"])
    def test_save_open_preserves_tier(self, rfs_f32, tmp_path, tier, mode):
        store = FeatureStore.build(rfs_f32, tier=tier)
        directory = tmp_path / tier
        store.save(directory)
        loaded = FeatureStore.open(directory, mode=mode)
        assert loaded.tier == tier
        assert np.array_equal(
            np.asarray(loaded.codes), np.asarray(store.codes)
        )
        assert np.array_equal(loaded.quant.scale, store.quant.scale)
        assert np.array_equal(loaded.quant.offset, store.quant.offset)
        assert np.array_equal(loaded.quant.dim_err, store.quant.dim_err)
        assert np.array_equal(loaded.dq_sqnorms, store.dq_sqnorms)
        assert np.array_equal(loaded.sqnorms, store.sqnorms)
        assert loaded.fingerprint() == store.fingerprint()
        if mode == "memmap":
            assert isinstance(loaded.codes, np.memmap)

    def test_version1_directory_opens_as_f32(self, rfs_f32, tmp_path):
        store = FeatureStore.build(rfs_f32)
        directory = tmp_path / "v1"
        store.save(directory)
        meta = dict(np.load(directory / "meta.npz"))
        # Version 1 predates scan tiers and persisted norms.
        del meta["tier"], meta["sqnorms"]
        meta["format_version"] = np.int64(1)
        np.savez_compressed(directory / "meta.npz", **meta)
        loaded = FeatureStore.open(directory)
        assert loaded.tier == "f32"
        assert np.array_equal(
            np.asarray(loaded.matrix), np.asarray(store.matrix)
        )

    def test_unknown_tier_tag_rejected(self, rfs_f32, tmp_path):
        store = FeatureStore.build(rfs_f32, tier="int8")
        directory = tmp_path / "tagged"
        store.save(directory)
        meta = dict(np.load(directory / "meta.npz"))
        meta["tier"] = np.array("pq4")
        np.savez_compressed(directory / "meta.npz", **meta)
        with pytest.raises(StoreCodecError):
            FeatureStore.open(directory)

    @pytest.mark.parametrize(
        "tag,value",
        [
            ("dtype", "float64"),
            ("dtype", "int64"),
            ("dtype", "complex64"),
            ("dtype", "object"),
            ("tier", "f16"),
        ],
        ids=["float64", "int64", "complex64", "object", "f16"],
    )
    def test_foreign_number_format_tag_rejected(
        self, rfs_f32, tmp_path, tag, value
    ):
        """Rows are float32 and codes int8; any other tag is refused.

        The data file is rewritten at the tag's width, so its byte size
        matches what the tag claims and only the tag check stands
        between the bytes and a reinterpretation as another format.
        """
        store = FeatureStore.build(
            rfs_f32, tier="int8" if tag == "tier" else "f32"
        )
        directory = tmp_path / value
        store.save(directory)
        if tag == "dtype":
            np.asarray(store.matrix, dtype=np.float64).tofile(
                directory / "features.bin"
            )
        else:
            np.asarray(store.codes, dtype=np.float16).tofile(
                directory / "codes.bin"
            )
        meta = dict(np.load(directory / "meta.npz"))
        meta[tag] = np.array(value)
        np.savez_compressed(directory / "meta.npz", **meta)
        for mode in ("memmap", "inmem"):
            with pytest.raises(StoreCodecError, match=value):
                FeatureStore.open(directory, mode=mode)

    def test_future_format_version_rejected(self, rfs_f32, tmp_path):
        store = FeatureStore.build(rfs_f32)
        directory = tmp_path / "future"
        store.save(directory)
        meta = dict(np.load(directory / "meta.npz"))
        meta["format_version"] = np.int64(99)
        np.savez_compressed(directory / "meta.npz", **meta)
        with pytest.raises(StoreCodecError):
            FeatureStore.open(directory)

    def test_missing_codes_file_rejected(self, rfs_f32, tmp_path):
        store = FeatureStore.build(rfs_f32, tier="int8")
        directory = tmp_path / "codeless"
        store.save(directory)
        (directory / "codes.bin").unlink()
        with pytest.raises(StoreCodecError):
            FeatureStore.open(directory)

    def test_pickle_ships_paths_not_code_bytes(self, rfs_f32, tmp_path):
        store = FeatureStore.build(rfs_f32, tier="int8")
        directory = tmp_path / "pickled"
        store.save(directory)
        loaded = FeatureStore.open(directory, mode="memmap")
        blob = pickle.dumps(loaded)
        assert len(blob) < loaded.nbytes / 2
        clone = pickle.loads(blob)
        assert clone.tier == "int8"
        assert np.array_equal(
            np.asarray(clone.codes), np.asarray(loaded.codes)
        )

    def test_save_load_rfs_keeps_quantization(self, database, tmp_path):
        rfs = _build_rfs(database)
        rfs.attach_store(
            FeatureStore.build(rfs, tier="int8"), validate=False
        )
        rfs_path = tmp_path / "rfs.npz"
        store_dir = tmp_path / "store"
        save_rfs(rfs, rfs_path, store_dir=store_dir)
        loaded = load_rfs(
            rfs_path, database.features, store_dir=store_dir
        )
        assert loaded.store is not None
        assert loaded.store.tier == "int8"
        assert loaded.store.fingerprint() == rfs.store.fingerprint()


# ----------------------------------------------------------------------
# Bit-identical rankings vs the float32 tier (the check.sh gate)
# ----------------------------------------------------------------------
class TestQuantizedParity:
    @pytest.fixture(scope="class")
    def f32_baselines(self, database):
        return {
            (executor, k): _run_session(
                database, self._store(database, "f32"), executor, k=k
            )
            for executor in _EXECUTORS
            for k in (50, 200)
        }

    @staticmethod
    def _store(database, tier):
        return FeatureStore.build(_build_rfs(database), tier=tier)

    @pytest.mark.parametrize("tier", _QUANT_TIERS)
    @pytest.mark.parametrize("executor", _EXECUTORS)
    @pytest.mark.parametrize("k", [50, 200])
    def test_sessions_bit_identical_to_f32(
        self, database, f32_baselines, tier, executor, k
    ):
        sig = _run_session(
            database, self._store(database, tier), executor, k=k
        )
        assert sig == f32_baselines[(executor, k)]

    @pytest.mark.parametrize("tier", _QUANT_TIERS)
    @pytest.mark.parametrize("mode", ["memmap", "inmem"])
    def test_reopened_backings_bit_identical_to_f32(
        self, database, f32_baselines, tmp_path, tier, mode
    ):
        directory = tmp_path / f"{tier}-{mode}"
        self._store(database, tier).save(directory)
        sig = _run_session(
            database,
            FeatureStore.open(directory, mode=mode),
            "serial",
            k=200,
        )
        assert sig == f32_baselines[("serial", 200)]

    @pytest.mark.parametrize("tier", _QUANT_TIERS)
    def test_cached_rerun_bit_identical_to_f32(
        self, database, f32_baselines, tier
    ):
        cache = SubqueryResultCache(16 << 20)
        store = self._store(database, tier)
        cold = _run_session(
            database, store, "serial", k=200, cache=cache
        )
        warm = _run_session(
            database, store, "serial", k=200, cache=cache
        )
        assert cold == f32_baselines[("serial", 200)]
        assert warm == f32_baselines[("serial", 200)]
        assert cache.snapshot()["hits"] > 0

    @pytest.mark.parametrize("tier", _QUANT_TIERS)
    def test_small_fetch_localized_knn_parity(self, database, tier):
        """Regression: tiny fetches once diverged in the last ulp.

        The gathered-candidate re-rank fed BLAS a matrix with a
        different row count than the full-block scan, and gemv's
        reduction order (hence the final float) depends on that count.
        Sweep every node at small fetch sizes where the old
        implementation reliably diverged.
        """
        f32 = _build_rfs(database)
        f32.attach_store(FeatureStore.build(f32, tier="f32"))
        quant = _build_rfs(database)
        quant.attach_store(FeatureStore.build(quant, tier=tier))
        rng = np.random.default_rng(7)
        queries = database.features[
            rng.integers(0, database.size, size=3)
        ]
        weights = rng.uniform(0.5, 2.0, size=database.features.shape[1])
        for node in f32.iter_nodes():
            other = quant.get_node(node.node_id)
            for fetch in (1, 3, 10):
                take = min(fetch, node.size)
                for query in queries:
                    assert f32.localized_knn(
                        node, query, take
                    ) == quant.localized_knn(other, query, take)
            assert f32.localized_knn(
                node, queries[0], min(10, node.size), weights=weights
            ) == quant.localized_knn(
                other, queries[0], min(10, node.size), weights=weights
            )


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
        from repro.store.kernels import (
            point_distances,
            weighted_point_distances,
        )

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
# The one scan loop, where the f32 and quantized loops used to differ
# ----------------------------------------------------------------------
def _reference_f32_scan(rfs, node, query, k, weights, dead):
    """The f32 block scan written out plainly, as the reference.

    Exact kernel per full block in MINDIST order, tombstoned rows
    dropped, stop at the first leaf whose MINDIST is strictly beyond
    the ``take``-th best live distance.  Returns ``(ranking,
    leaves_read)``.
    """
    from repro.index.geometry import stacked_min_distances
    from repro.retrieval.topk import top_pairs
    from repro.store.kernels import (
        point_distances,
        weighted_point_distances,
    )

    store = rfs.store
    leaves, los, his = rfs._leaf_geometry(node)
    mindists = stacked_min_distances(los, his, query, weights)
    take = min(k, node.size - len(dead))
    dists, ids, kth, leaves_read = [], [], np.inf, 0
    for pos in np.argsort(mindists, kind="stable"):
        if sum(map(len, ids)) >= take and mindists[pos] > kth:
            break
        block, block_ids, sqnorms = store.node_block(leaves[pos].node_id)
        leaves_read += 1
        if weights is None:
            d = point_distances(block, query, block_sqnorms=sqnorms)
        else:
            d = weighted_point_distances(block, query, weights)
        alive = ~np.isin(block_ids, dead)
        dists.append(d[alive])
        ids.append(block_ids[alive])
        if sum(map(len, ids)) >= take:
            kth = float(np.sort(np.concatenate(dists))[take - 1])
    return (
        top_pairs(np.concatenate(dists), np.concatenate(ids), take),
        leaves_read,
    )


class TestTombstoneScanParity:
    @pytest.fixture(scope="class")
    def tiers(self, database):
        """One structure per tier over the same tree."""
        built = {}
        for tier in ["f32", *_QUANT_TIERS]:
            rfs = _build_rfs(database)
            rfs.attach_store(FeatureStore.build(rfs, tier=tier))
            built[tier] = rfs
        return built

    @settings(max_examples=40, deadline=None)
    @given(
        item=st.integers(0, N_IMAGES - 1),
        levels_up=st.integers(0, 2),
        k=st.integers(1, 70),
        weighted=st.booleans(),
        # Which ranks of the clean ranking to tombstone, counted back
        # from the k-th: 0 = the k-th itself, 1 = just inside it, ...
        dead_ranks=st.sets(st.integers(0, 3), max_size=4),
        drain=st.booleans(),
    )
    def test_tiers_agree_under_tombstones(
        self, tiers, database, item, levels_up, k, weighted, dead_ranks,
        drain,
    ):
        from repro.store.delta import DeltaSegment

        f32 = tiers["f32"]
        node = f32.leaf_of_item(item)
        for _ in range(levels_up):
            node = node.parent or node
        query = np.asarray(database.features[item], dtype=np.float64)
        weights = (
            np.linspace(0.5, 2.0, database.dims) if weighted else None
        )
        if drain:
            k = node.size  # take == every live row under the node
        for rfs in tiers.values():
            rfs.delta = None
        clean = f32.localized_knn(node, query, k, weights=weights)
        dead = sorted(
            {clean[len(clean) - 1 - r][1] for r in dead_ranks
             if r < len(clean)}
        )
        if len(dead) == node.size:
            dead = dead[1:]  # keep one live row to rank

        results = {}
        reads = {}
        for tier, rfs in tiers.items():
            segment = DeltaSegment(
                base_rows=database.size, dims=database.dims
            )
            for victim in dead:
                segment.remove_main(
                    victim, rfs.leaf_of_item(victim).node_id
                )
            rfs.attach_delta(segment)
            rfs.io.reset()
            results[tier] = rfs.localized_knn(
                rfs.get_node(node.node_id), query, k, weights=weights
            )
            reads[tier] = rfs.io.per_category["localized_knn"]

        want, want_reads = _reference_f32_scan(
            f32, node, query, k, weights, np.array(dead, dtype=np.int64)
        )
        assert results["f32"] == want
        assert reads["f32"] == want_reads  # ε = 0 prunes like before
        for tier in _QUANT_TIERS:
            assert results[tier] == want
            assert reads[tier] >= want_reads
        assert len(want) == min(k, node.size - len(dead))
        assert not set(dead) & {i for _, i in want}
