"""Tests for the cross-session subquery result cache.

Covers the canonical cache key, the byte-capped LRU (eviction order,
oversized entries, byte accounting), versioned and per-node
invalidation against generational mutations (the no-skip gate in
``scripts/check.sh`` targets the ``Invalidation`` classes), and cached
final rounds staying bit-identical to the uncached path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache import (
    SubqueryResultCache,
    subquery_cache_key,
)
from repro.config import CacheConfig, MutationConfig, QDConfig, RFSConfig
from repro.core.engine import QueryDecompositionEngine
from repro.core.ranking import execute_final_round
from repro.errors import ConfigurationError
from repro.index.generations import GenerationController
from repro.index.rfs import RFSStructure
from repro.retrieval.topk import RankedList
from repro.shard import ShardedEngine
from repro.store import FeatureStore

N_IMAGES = 900
SEED = 2006
RFS_CONFIG = RFSConfig(
    node_max_entries=60, leaf_subclusters=4
)

@pytest.fixture(scope="module")
def database():
    """A small synthetic database shared by the cache tests."""
    from repro.datasets.build import build_synthetic_database

    return build_synthetic_database(N_IMAGES, n_categories=30, seed=SEED)


def _build_rfs(database) -> RFSStructure:
    """A fresh structure (tests mutate trees, so never share one)."""
    return RFSStructure.build(database.features, RFS_CONFIG, seed=SEED)


def _signature(result):
    return [
        (
            group.leaf_node_id,
            tuple((item.item_id, item.score) for item in group.items),
        )
        for group in result.groups
    ]


def _finalize(rfs, marks, k, config, **kwargs):
    result = execute_final_round(
        rfs, marks, k, config, rounds_used=1, **kwargs
    )
    return _signature(result), result


def _marks(database, label, count=8):
    return tuple(
        int(i) for i in np.flatnonzero(database.labels == label)[:count]
    )


def _put(cache, key, *, version=0, node=1, n_ranked=10, dim=8):
    """Insert a synthetic entry of known size (256 + 8*dim + 16*n)."""
    cache.put(
        key,
        version,
        node,
        np.arange(dim, dtype=np.float64),
        RankedList.from_pairs((float(i), i) for i in range(n_ranked)),
    )


#: Size of the entries ``_put`` makes with its defaults.
_PUT_BYTES = 256 + 8 * 8 + 16 * 10


# ----------------------------------------------------------------------
# Cache key
# ----------------------------------------------------------------------
class TestCacheKey:
    def test_deterministic_and_sensitive(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(3, 8))
        base = subquery_cache_key(5, points, 40, 0.4)
        assert base == subquery_cache_key(5, points.copy(), 40, 0.4)
        assert base != subquery_cache_key(6, points, 40, 0.4)
        assert base != subquery_cache_key(5, points, 41, 0.4)
        assert base != subquery_cache_key(5, points, 40, 0.5)

    def test_dtype_and_bytes_partition_the_key_space(self):
        rng = np.random.default_rng(1)
        points = rng.normal(size=(2, 6))
        base = subquery_cache_key(1, points, 10, 0.4)
        # A float32 store and the raw float64 matrix must never alias.
        assert base != subquery_cache_key(
            1, points.astype(np.float32), 10, 0.4
        )
        nudged = points.copy()
        nudged[0, 0] = np.nextafter(nudged[0, 0], np.inf)
        assert base != subquery_cache_key(1, nudged, 10, 0.4)


# ----------------------------------------------------------------------
# LRU mechanics
# ----------------------------------------------------------------------
class TestResultCacheLRU:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ConfigurationError):
            SubqueryResultCache(0)
        with pytest.raises(ConfigurationError):
            CacheConfig(enabled=True, capacity_mb=0.0)

    def test_put_get_roundtrip(self):
        cache = SubqueryResultCache(1 << 20)
        _put(cache, "k1", version=3, node=17)
        entry = cache.get("k1", 3)
        assert entry is not None
        assert entry.search_node_id == 17
        assert entry.version == 3
        assert entry.centroid.dtype == np.float64
        assert not entry.centroid.flags["WRITEABLE"]
        assert entry.ranked == RankedList(np.arange(10), np.arange(10.0))
        assert cache.stats["hits"] == 1
        assert cache.get("absent", 3) is None
        assert cache.stats["misses"] == 1

    def test_version_mismatch_drops_entry(self):
        cache = SubqueryResultCache(1 << 20)
        _put(cache, "k1", version=0)
        assert cache.get("k1", 1) is None
        snap = cache.snapshot()
        assert snap["misses"] == 1
        assert snap["stale_evictions"] == 1
        assert snap["evictions"] == 1
        assert snap["entries"] == 0 and snap["bytes"] == 0
        # The entry is gone for good — even its own version misses now.
        assert cache.get("k1", 0) is None

    def test_lru_eviction_order(self):
        cache = SubqueryResultCache(2 * _PUT_BYTES + 10)
        _put(cache, "a")
        _put(cache, "b")
        assert cache.get("a", 0) is not None  # refresh a; b is now LRU
        _put(cache, "c")
        assert cache.get("b", 0) is None
        assert cache.get("a", 0) is not None
        assert cache.get("c", 0) is not None
        assert cache.stats["evictions"] == 1
        assert len(cache) == 2

    def test_oversized_entry_not_cached(self):
        cache = SubqueryResultCache(_PUT_BYTES - 1)
        _put(cache, "big")
        assert len(cache) == 0
        assert cache.stats["inserts"] == 0

    def test_byte_accounting_and_clear(self):
        cache = SubqueryResultCache(1 << 20)
        for key in ("a", "b", "c"):
            _put(cache, key)
        assert cache.stats["bytes"] == 3 * _PUT_BYTES
        _put(cache, "b")  # replace in place: no growth
        assert cache.stats["bytes"] == 3 * _PUT_BYTES
        assert cache.stats["entries"] == 3
        cache.clear()
        assert len(cache) == 0
        assert cache.stats["bytes"] == 0
        assert cache.stats["inserts"] == 4  # counters survive clear


# ----------------------------------------------------------------------
# Cached final rounds — parity with the uncached path
# ----------------------------------------------------------------------
class TestFinalRoundCaching:
    def test_hits_skip_scans_and_match_uncached(self, database):
        rfs = _build_rfs(database)
        marks = _marks(database, 3)
        config = QDConfig()
        baseline, uncached_res = _finalize(rfs, marks, 30, config)
        assert "cache_hits" not in uncached_res.stats
        rfs.attach_cache(SubqueryResultCache(8 << 20))

        io = rfs.io
        before = io.physical_reads
        miss_sig, miss_res = _finalize(rfs, marks, 30, config)
        miss_reads = io.physical_reads - before

        before = io.physical_reads
        hit_sig, hit_res = _finalize(rfs, marks, 30, config)
        hit_reads = io.physical_reads - before

        assert miss_sig == baseline
        assert hit_sig == baseline
        assert miss_res.stats["cache_hits"] == 0
        assert miss_res.stats["cache_misses"] > 0
        assert hit_res.stats["cache_misses"] == 0
        assert hit_res.stats["cache_hits"] == (
            miss_res.stats["cache_misses"]
        )
        # Hits skip the block scans, so the warm round reads less.
        assert hit_reads < miss_reads

    def test_identical_sessions_cost_one_session_of_reads(self, database):
        """Three subqueries, none needing a top-up: a top-up scans
        past the cache, so a query that needs one re-reads its blocks
        on every session."""
        marks = sum((_marks(database, label, 6) for label in (11, 5, 7)), ())
        config = QDConfig()
        rfs = _build_rfs(database)
        io = rfs.io
        baseline, _ = _finalize(rfs, marks, 40, config)
        single_reads = io.physical_reads
        assert single_reads > 1

        rfs.attach_cache(SubqueryResultCache(8 << 20))
        for _ in range(4):
            assert _finalize(rfs, marks, 40, config)[0] == baseline
        assert io.physical_reads - single_reads < 2 * single_reads

    def test_cached_sessions_bit_identical_to_uncached(self, database):
        relevant = set(np.flatnonzero(database.labels == 3).tolist())
        relevant |= set(np.flatnonzero(database.labels == 7).tolist())

        def mark(shown):
            return [i for i in shown if i in relevant]

        baseline_engine = QueryDecompositionEngine(
            database, _build_rfs(database), QDConfig()
        )
        with baseline_engine:
            baseline = _signature(
                baseline_engine.run_scripted(mark, k=50, seed=11)
            )

        engine = QueryDecompositionEngine(
            database, _build_rfs(database), QDConfig()
        )
        engine.attach_cache(SubqueryResultCache(8 << 20))
        with engine:
            first = engine.run_scripted(mark, k=50, seed=11)
            second = engine.run_scripted(mark, k=50, seed=11)
        assert _signature(first) == baseline
        assert _signature(second) == baseline
        assert second.stats["cache_hits"] > 0
        assert second.stats["cache_misses"] == 0


# ----------------------------------------------------------------------
# Versioned invalidation — `scripts/check.sh` gates on these passing
# ----------------------------------------------------------------------
class TestCacheInvalidation:
    def test_compaction_bumps_version(self, database):
        rfs = _build_rfs(database)
        controller = GenerationController(rfs)
        v0 = rfs.structure_version
        new_id = controller.insert(np.zeros(database.dims))
        controller.remove(new_id)
        # Mutations land in the delta segment: same tree, same version.
        assert controller.current is rfs
        assert rfs.structure_version == v0
        assert controller.compact() == v0 + 1
        assert controller.current.structure_version == v0 + 1

    def test_attach_cache_does_not_bump_version(self, database):
        rfs = _build_rfs(database)
        version = rfs.structure_version
        cache = SubqueryResultCache(1 << 16)
        rfs.attach_cache(cache)
        assert rfs.result_cache is cache
        assert rfs.structure_version == version
        rfs.detach_cache()
        assert rfs.result_cache is None
        assert rfs.structure_version == version

    def test_mutation_yields_miss_not_stale_hit(self, database):
        rfs = _build_rfs(database)
        cache = SubqueryResultCache(8 << 20)
        rfs.attach_cache(cache)
        controller = GenerationController(rfs)
        marks = _marks(database, 5)
        config = QDConfig()
        warm_sig, _ = _finalize(rfs, marks, 25, config)  # warm
        assert len(cache) > 0
        victim = next(
            i for _, items in warm_sig for i, _ in items if i not in marks
        )

        controller.remove(victim)

        before = cache.snapshot()
        after_sig, _ = _finalize(rfs, marks, 25, config)
        after = cache.snapshot()
        # No global flush happened, yet nothing stale was served: the
        # subqueries that could hold the victim missed and re-ran.
        assert after["misses"] > before["misses"]
        assert before["mutation_evictions"] >= 1
        assert victim not in {i for _, items in after_sig for i, _ in items}

        rfs.detach_cache()
        baseline_sig, _ = _finalize(rfs, marks, 25, config)
        assert after_sig == baseline_sig

    @pytest.mark.parametrize("shards", [0, 2])
    def test_remove_racing_a_scan_is_not_cached(
        self, database, shards, monkeypatch
    ):
        """A remove acknowledged between a scan and that scan's
        ``cache.put`` ran its invalidation *before* the put; the put
        must not re-publish the pre-remove ranking, or every repeat of
        the query is served the removed id until the next compaction.
        Deterministic: the first scan issues the remove as it returns.
        The two cases are the two callers of the one publish step
        (``repro.cache.scan_and_publish``): the subquery funnel and a
        shard's own cache.
        """
        build = {
            "seed": SEED,
            "cache": CacheConfig(enabled=True, capacity_mb=8),
            "mutations": MutationConfig(),
        }
        if shards:
            engine = ShardedEngine.build(
                database, RFS_CONFIG, QDConfig(), shards=shards, **build
            )
        else:
            engine = QueryDecompositionEngine.build(
                database, RFS_CONFIG, QDConfig(), **build
            )
        # k small enough that the scan asks for fewer rows than its
        # search node holds: the shard-level cache keys on that count.
        marks = _marks(database, 5)
        # Victims worth removing: returned by this query, not a mark.
        answer, _ = _finalize(_build_rfs(database), marks, 8, QDConfig())
        victims = {i for _, items in answer for i, _ in items} - set(marks)
        real_scan = RFSStructure.localized_knn
        removed: list[int] = []

        def scan_then_remove(self, node, query_point, k, **kwargs):
            ranked = real_scan(self, node, query_point, k, **kwargs)
            found = [i for i in ranked.ids() if i in victims]
            if found and not removed:
                removed.append(found[0])
                engine.remove_image(found[0])
            return ranked

        with engine:
            with monkeypatch.context() as patch:
                patch.setattr(
                    RFSStructure, "localized_knn", scan_then_remove
                )
                _finalize(engine.rfs, marks, 8, engine.config)
            repeat_sig, _ = _finalize(engine.rfs, marks, 8, engine.config)
        assert removed
        assert removed[0] not in {
            i for _, items in repeat_sig for i, _ in items
        }

    def test_randomized_mutation_query_interleavings(self, database):
        """Property: under any interleaving of inserts, removes,
        compactions and (possibly repeated) queries, a cached final
        round is always bit-identical to an uncached one on the current
        generation."""
        cache = SubqueryResultCache(8 << 20)
        rfs = _build_rfs(database)
        rfs.attach_cache(cache)
        controller = GenerationController(
            rfs, config=MutationConfig(compact_threshold=6)
        )
        config = QDConfig()
        rng = np.random.default_rng(42)
        live_main = list(range(N_IMAGES))
        inserted: list[int] = []
        queries_checked = 0
        for _ in range(30):
            roll = rng.random()
            if roll < 0.20:
                inserted.append(
                    controller.insert(
                        rng.normal(scale=2.0, size=database.dims)
                    )
                )
            elif roll < 0.30 and inserted:
                controller.remove(inserted.pop())
            elif roll < 0.40:
                controller.remove(
                    live_main.pop(int(rng.integers(len(live_main))))
                )
            else:
                current = controller.current
                marks = tuple(
                    int(i) for i in rng.choice(live_main, 6, replace=False)
                )
                cold_sig, _ = _finalize(current, marks, 15, config)
                warm_sig, _ = _finalize(current, marks, 15, config)
                current.detach_cache()
                try:
                    truth_sig, _ = _finalize(current, marks, 15, config)
                finally:
                    current.attach_cache(cache)
                assert cold_sig == truth_sig
                assert warm_sig == truth_sig
                queries_checked += 1
        assert queries_checked > 0
        assert controller.generation > 0
        assert cache.snapshot()["hits"] > 0
        assert cache.snapshot()["mutation_evictions"] > 0


class TestStoreSwapInvalidation:
    def test_store_attach_detach_bump_and_reattach_is_noop(
        self, database
    ):
        rfs = _build_rfs(database)
        store = FeatureStore.build(rfs)
        v0 = rfs.structure_version
        rfs.attach_store(store, validate=False)
        assert rfs.structure_version == v0 + 1
        rfs.attach_store(store)  # same object: idempotent, no bump
        assert rfs.structure_version == v0 + 1
        rfs.detach_store()
        assert rfs.structure_version == v0 + 2
        rfs.detach_store()  # nothing attached: no bump
        assert rfs.structure_version == v0 + 2

    def test_float32_store_entries_not_served_after_detach(
        self, database
    ):
        rfs = _build_rfs(database)
        cache = SubqueryResultCache(8 << 20)
        rfs.attach_cache(cache)
        rfs.attach_store(FeatureStore.build(rfs), validate=False)
        marks = _marks(database, 9)
        config = QDConfig()
        _finalize(rfs, marks, 20, config)  # warm against the store
        rfs.detach_store()
        before = cache.snapshot()
        detached_sig, _ = _finalize(rfs, marks, 20, config)
        assert cache.snapshot()["hits"] == before["hits"]
        rfs.detach_cache()
        baseline_sig, _ = _finalize(rfs, marks, 20, config)
        assert detached_sig == baseline_sig

