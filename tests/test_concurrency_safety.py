"""Concurrency-safety stress tests for the shared mutable state.

Concurrent requests (the server's slots) mutate three shared things:
the simulated disk counter (buffer pool + accounting), the metrics
registry, and the tracer.  These tests hammer each one from many
threads and assert exact totals — a lost update anywhere shows up as an
off-by-N.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

from repro import obs
from repro.index.diskmodel import DiskAccessCounter

N_THREADS = 8
N_OPS = 1000


def _hammer(fn) -> None:
    """Run ``fn(worker_index)`` from N_THREADS threads simultaneously."""
    start = threading.Barrier(N_THREADS)

    def body(worker: int) -> None:
        start.wait()
        fn(worker)

    with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
        for future in [pool.submit(body, w) for w in range(N_THREADS)]:
            future.result()


class TestDiskCounterUnderContention:
    def test_no_lost_updates_unbuffered(self):
        io = DiskAccessCounter()
        _hammer(lambda w: [io.access(i, "knn") for i in range(N_OPS)])
        total = N_THREADS * N_OPS
        assert io.logical_reads == total
        assert io.physical_reads == total
        assert io.per_category["knn"] == total
        assert io.per_category_logical["knn"] == total

    def test_buffer_never_exceeds_capacity(self):
        io = DiskAccessCounter(buffer_pages=8)
        sizes: list[int] = []

        def body(worker: int) -> None:
            for i in range(N_OPS):
                io.access((worker * N_OPS + i) % 64)
                if i % 100 == 0:
                    sizes.append(len(io._buffer))

        _hammer(body)
        assert len(io._buffer) <= 8
        assert max(sizes) <= 8

    def test_lru_eviction_order_single_thread(self):
        io = DiskAccessCounter(buffer_pages=3)
        for page in (1, 2, 3):
            assert io.access(page)  # cold misses
        assert not io.access(1)  # hit refreshes page 1
        assert io.access(4)  # evicts 2 (LRU), not 1
        assert not io.access(1)
        assert not io.access(3)
        assert not io.access(4)
        assert io.access(2)  # 2 was the one evicted


class TestMetricsUnderContention:
    def test_counter_exact_under_contention(self):
        registry = obs.MetricsRegistry()
        counter = registry.counter("stress_total", "stress test")
        _hammer(lambda w: [counter.inc() for _ in range(N_OPS)])
        assert counter.value == N_THREADS * N_OPS

    def test_histogram_exact_under_contention(self):
        registry = obs.MetricsRegistry()
        histogram = registry.histogram("stress_hist", "stress test")
        _hammer(lambda w: [histogram.observe(1.0) for _ in range(N_OPS)])
        assert histogram.count == N_THREADS * N_OPS

    def test_get_or_create_race_yields_one_instrument(self):
        registry = obs.MetricsRegistry()
        _hammer(
            lambda w: [
                registry.counter("shared_total", "race test").inc()
                for _ in range(N_OPS)
            ]
        )
        assert registry.counter("shared_total", "race test").value == (
            N_THREADS * N_OPS
        )


class TestFeatureStoreStatsUnderContention:
    def test_block_access_counters_exact(self):
        from repro.config import RFSConfig
        from repro.datasets.build import build_synthetic_database
        from repro.index.rfs import RFSStructure
        from repro.store import FeatureStore

        database = build_synthetic_database(300, n_categories=10, seed=3)
        rfs = RFSStructure.build(
            database.features,
            RFSConfig(node_max_entries=60),
            seed=3,
        )
        store = FeatureStore.build(rfs)
        node_ids = sorted(store.spans)

        def body(worker: int) -> None:
            for i in range(N_OPS):
                store.record_block_access(
                    node_ids[i % len(node_ids)], physical=(i % 2 == 0)
                )

        _hammer(body)
        total = N_THREADS * N_OPS
        snap = store.stats_snapshot()
        assert snap["block_reads"] == total
        assert snap["cache_hits"] + snap["cache_misses"] == total
        assert snap["cache_misses"] == N_THREADS * ((N_OPS + 1) // 2)
        # Every worker replays the same access sequence, so the byte
        # tally is exactly N_THREADS times one worker's miss bytes.
        one_worker = sum(
            store.block_nbytes(node_ids[i % len(node_ids)])
            for i in range(0, N_OPS, 2)
        )
        assert snap["bytes_read"] == N_THREADS * one_worker


class TestResultCacheUnderContention:
    def test_hit_miss_accounting_exact(self):
        import numpy as np

        from repro.cache import SubqueryResultCache
        from repro.retrieval.topk import RankedList

        cache = SubqueryResultCache(64 << 20)
        centroid = np.zeros(8)
        ranked = RankedList.from_pairs([(1.0, 1)])
        for key in range(32):
            cache.put(str(key), 0, key, centroid, ranked)

        def body(worker: int) -> None:
            for i in range(N_OPS):
                if i % 3 == 0:
                    cache.put(str(i % 32), 0, i, centroid, ranked)
                else:
                    cache.get(str(i % 64), 0)

        _hammer(body)
        snap = cache.snapshot()
        puts_per_worker = (N_OPS + 2) // 3
        gets_per_worker = N_OPS - puts_per_worker
        assert snap["inserts"] == 32 + N_THREADS * puts_per_worker
        assert snap["hits"] + snap["misses"] == (
            N_THREADS * gets_per_worker
        )
        # Byte accounting stayed consistent with the live entries.
        assert snap["entries"] == len(cache) == 32
        assert snap["bytes"] == sum(
            entry.nbytes for entry in cache._entries.values()
        )


class TestTracerAcrossThreads:
    def test_unadopted_worker_span_is_a_root(self):
        tracer = obs.Tracer()
        with tracer.span("dispatch"):
            done = threading.Event()

            def worker() -> None:
                with tracer.span("detached"):
                    pass
                done.set()

            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
            assert done.is_set()
        names = sorted(span.name for span in tracer.spans)
        assert names == ["detached", "dispatch"]
