"""Tests for the sharded scatter-gather engine (repro.shard).

Covers the partitioner (determinism, uneven partitions, validation),
the pruned per-shard structures (global node identity, shared leaf
rows, dropped representatives), the router surface (store routing,
fingerprints, refusal of a global store) and — the acceptance property,
targeted by the no-skip ``Parity`` gate in ``scripts/check.sh`` —
sharded rankings staying **bit-identical** to single-node across shard
counts (1/2/7 and the gate's 1/2/4), partition strategies, store
backings, cache states, tie-heavy distances, and a mid-session
resume handed off between routers with different shard counts.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import obs
from repro.config import CacheConfig, QDConfig, RFSConfig
from repro.core.engine import QueryDecompositionEngine
from repro.datasets.build import build_synthetic_database
from repro.errors import ConfigurationError
from repro.index.rfs import RFSStructure
from repro.shard import (
    Shard,
    ShardAssignment,
    ShardedEngine,
    ShardedRFS,
    build_shard_structure,
    dfs_leaves,
    partition_leaves,
)
from repro.store import FeatureStore

N_IMAGES = 600
SEED = 2006
RFS_CONFIG = RFSConfig(
    node_max_entries=40, leaf_subclusters=3
)

#: The satellite's shard counts (1/2/7) union the gate's (1/2/4).
_SHARD_COUNTS = [1, 2, 4, 7]


@pytest.fixture(scope="module")
def database():
    return build_synthetic_database(
        N_IMAGES, n_categories=24, seed=SEED
    )


@pytest.fixture(scope="module")
def base_rfs(database):
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


def _mark_fn(database):
    relevant = set(np.flatnonzero(database.labels == 3).tolist())
    relevant |= set(np.flatnonzero(database.labels == 5).tolist())
    return lambda shown: [i for i in shown if i in relevant]


def _run_session(engine, database, *, k=60, seed=11):
    return _signature(
        engine.run_scripted(_mark_fn(database), k=k, seed=seed)
    )


def _sharded(
    database,
    *,
    shards,
    store="inmem",
    partition="contiguous",
    cache=False,
) -> ShardedEngine:
    return ShardedEngine.build(
        database,
        RFS_CONFIG,
        QDConfig(),
        shards=shards,
        partition=partition,
        seed=SEED,
        store=store,
        cache=CacheConfig(enabled=True, capacity_mb=8) if cache else None,
    )


# ----------------------------------------------------------------------
# Partitioner
# ----------------------------------------------------------------------
class TestPartition:
    def test_contiguous_covers_all_leaves_unevenly(self, base_rfs):
        leaves = dfs_leaves(base_rfs.root)
        assignment = partition_leaves(leaves, 7)
        flat = [i for bucket in assignment.shards for i in bucket]
        assert flat == [leaf.node_id for leaf in leaves]
        assert all(assignment.shards)  # no empty shard
        sizes = {leaf.node_id: leaf.size for leaf in leaves}
        per_shard = [
            sum(sizes[i] for i in bucket) for bucket in assignment.shards
        ]
        assert sum(per_shard) == base_rfs.root.size
        # Leaf-granular cuts cannot be perfectly even — the point of
        # the parity suite is that uneven is fine.
        assert len(set(per_shard)) > 1

    def test_roundrobin_interleaves(self, base_rfs):
        leaves = dfs_leaves(base_rfs.root)
        assignment = partition_leaves(leaves, 3, "roundrobin")
        assert assignment.shards[0][0] == leaves[0].node_id
        assert assignment.shards[1][0] == leaves[1].node_id
        assert assignment.shards[2][0] == leaves[2].node_id

    def test_deterministic(self, base_rfs):
        leaves = dfs_leaves(base_rfs.root)
        assert partition_leaves(leaves, 4) == partition_leaves(leaves, 4)

    def test_validation(self, base_rfs):
        leaves = dfs_leaves(base_rfs.root)
        with pytest.raises(ConfigurationError):
            partition_leaves(leaves, 0)
        with pytest.raises(ConfigurationError):
            partition_leaves(leaves, len(leaves) + 1)
        with pytest.raises(ConfigurationError):
            partition_leaves(leaves, 2, "hash")

    def test_pruned_structure_keeps_global_identity(self, base_rfs):
        leaves = dfs_leaves(base_rfs.root)
        wanted = [leaf.node_id for leaf in leaves[:3]]
        shard_rfs = build_shard_structure(base_rfs, wanted)
        for node_id, node in shard_rfs.nodes.items():
            original = base_rfs.get_node(node_id)
            assert node.level == original.level
            assert node.mbr is original.mbr
            assert node.center is original.center
            assert node.representatives == []
            if node.is_leaf:
                # Leaf rows are *shared*, order untouched — the block
                # identity the store parity rests on.
                assert node.item_ids is original.item_ids
            else:
                assert np.array_equal(
                    node.item_ids, np.sort(node.item_ids)
                )
        kept = {leaf.node_id for leaf in dfs_leaves(shard_rfs.root)}
        assert kept == set(wanted)
        assert shard_rfs.structure_version == base_rfs.structure_version
        assert shard_rfs.io is base_rfs.io

    def test_pruned_structure_rejects_non_leaves(self, base_rfs):
        with pytest.raises(ConfigurationError):
            build_shard_structure(base_rfs, [base_rfs.root.node_id])
        with pytest.raises(ConfigurationError):
            build_shard_structure(base_rfs, [])


# ----------------------------------------------------------------------
# Router surface
# ----------------------------------------------------------------------
class TestShardedRFS:
    @pytest.fixture(scope="class")
    def router(self, database):
        engine = _sharded(database, shards=3)
        yield engine.sharded_rfs
        engine.close()

    def test_rejects_global_store(self, router, base_rfs):
        with pytest.raises(ConfigurationError):
            router.attach_store(FeatureStore.build(base_rfs))

    def test_vectors_for_matches_global_store(self, router, base_rfs):
        global_store = FeatureStore.build(base_rfs)
        ids = np.arange(0, N_IMAGES, 7, dtype=np.int64)
        gathered = router.vectors_for(ids)
        expected = global_store.vectors_for(ids)
        assert gathered.dtype == expected.dtype
        assert np.array_equal(gathered, expected)

    def test_router_holds_no_store_or_cache(self, router):
        assert router.store is None
        assert router.result_cache is None


# ----------------------------------------------------------------------
# Bit-identical rankings vs single-node (the check.sh gate)
# ----------------------------------------------------------------------
class TestShardedParity:
    @pytest.fixture(scope="class")
    def baseline_store(self, database):
        """Single-node signature with a feature store."""
        rfs = _build_rfs(database)
        rfs.attach_store(FeatureStore.build(rfs), validate=False)
        with QueryDecompositionEngine(database, rfs, QDConfig()) as engine:
            return _run_session(engine, database)

    @pytest.mark.parametrize("shards", _SHARD_COUNTS)
    def test_sessions_bit_identical_with_stores(
        self, database, baseline_store, shards
    ):
        with _sharded(database, shards=shards) as engine:
            assert _run_session(engine, database) == baseline_store

    @pytest.mark.parametrize("partition", ["contiguous", "roundrobin"])
    def test_partition_strategy_is_invisible(
        self, database, baseline_store, partition
    ):
        with _sharded(
            database, shards=4, partition=partition
        ) as engine:
            assert (
                _run_session(engine, database) == baseline_store
            )

    def test_cached_rerun_bit_identical(self, database, baseline_store):
        with _sharded(database, shards=4, cache=True) as engine:
            cold = _run_session(engine, database)
            warm = _run_session(engine, database)
            hits = sum(
                shard.cache.snapshot()["hits"]
                for shard in engine.shards
            )
        assert cold == baseline_store
        assert warm == baseline_store
        assert hits > 0

    def test_heavily_skewed_manual_partition(
        self, database, baseline_store
    ):
        # One shard holding a single leaf, the other holding the rest:
        # the most uneven split the leaf granularity allows.
        base = _build_rfs(database)
        leaves = dfs_leaves(base.root)
        assignment = ShardAssignment(
            shards=(
                (leaves[0].node_id,),
                tuple(leaf.node_id for leaf in leaves[1:]),
            ),
            strategy="contiguous",
        )
        shards = []
        for index, bucket in enumerate(assignment.shards):
            shard_rfs = build_shard_structure(base, bucket)
            shard_rfs.attach_store(
                FeatureStore.build(shard_rfs), validate=False
            )
            shards.append(Shard(index, shard_rfs))
        router = ShardedRFS(base, shards, assignment=assignment)
        with QueryDecompositionEngine(
            database, router, QDConfig()
        ) as engine:
            assert (
                _run_session(engine, database) == baseline_store
            )

    def test_tie_heavy_distances_node_sweep(self):
        # Massively duplicated rows force exact distance ties, so the
        # gather's (distance, id) ordering is the only thing separating
        # candidates — across shards it must reproduce rank().
        rng = np.random.default_rng(5)
        features = np.repeat(
            rng.normal(size=(30, 8)), 20, axis=0
        )  # 600 rows, each vector x20
        config = RFSConfig(
            node_max_entries=40, leaf_subclusters=3
        )
        single = RFSStructure.build(features, config, seed=3)
        single.attach_store(FeatureStore.build(single), validate=False)
        base = RFSStructure.build(features, config, seed=3)
        leaves = dfs_leaves(base.root)
        shards = []
        assignment = partition_leaves(leaves, 5, "roundrobin")
        for index, bucket in enumerate(assignment.shards):
            shard_rfs = build_shard_structure(base, bucket)
            shard_rfs.attach_store(
                FeatureStore.build(shard_rfs), validate=False
            )
            shards.append(Shard(index, shard_rfs))
        router = ShardedRFS(base, shards, assignment=assignment)
        queries = features[rng.integers(0, 600, size=3)]
        for node in single.iter_nodes():
            routed = router.get_node(node.node_id)
            for k in (1, 7, 50):
                for query in queries:
                    assert single.localized_knn(
                        node, query, k
                    ) == router.localized_knn(routed, query, k)

    def test_resume_on_router_with_different_shard_count(self, database):
        """A session checkpointed under a 2-shard router finishes
        bit-identically under a 7-shard router (and vice versa)."""
        from repro.sessionstore import InMemorySessionStore

        mark = _mark_fn(database)
        k, seed = 60, 17

        # Never-suspended single-node reference.
        rfs = _build_rfs(database)
        rfs.attach_store(FeatureStore.build(rfs), validate=False)
        with QueryDecompositionEngine(
            database, rfs, QDConfig()
        ) as engine:
            session = engine.new_session(seed=seed)
            for _ in range(2):
                session.submit(mark(session.display(screens=2)))
            expected = _signature(session.finalize(k))

        for first, second in ((2, 7), (7, 2)):
            store = InMemorySessionStore()
            with _sharded(database, shards=first) as engine_a:
                engine_a.attach_session_store(store)
                sid = engine_a.open_session(seed=seed).session_id
                session = engine_a.resume_session(sid)
                session.submit(mark(session.display(screens=2)))
            with _sharded(database, shards=second) as engine_b:
                engine_b.attach_session_store(store)
                session = engine_b.resume_session(sid)
                session.submit(mark(session.display(screens=2)))
                assert _signature(session.finalize(k)) == expected


# ----------------------------------------------------------------------
# The scatter: one thread, one span tree
# ----------------------------------------------------------------------
def _parented(span, parent=None):
    """Every ``(parent, span)`` pair of the tree under ``span``."""
    yield parent, span
    for child in span.children:
        yield from _parented(child, span)


class TestScatterOnCallingThread:
    def test_shard_scans_run_on_the_calling_thread_under_one_tree(
        self, database, monkeypatch
    ):
        threads = []
        scan = Shard.localized_knn

        def recording_scan(shard, node_id, query, k):
            threads.append(threading.get_ident())
            return scan(shard, node_id, query, k)

        monkeypatch.setattr(Shard, "localized_knn", recording_scan)
        tracer = obs.Tracer()
        # k = 400 of 600 images widens the search node to one that
        # both shards hold leaves of.
        with _sharded(database, shards=2) as engine, obs.use_tracer(tracer):
            engine.run_scripted(_mark_fn(database), k=400, seed=11)
        assert threads
        assert set(threads) == {threading.get_ident()}
        (root,) = tracer.spans  # the session's one tree, nothing detached
        parents = [
            parent for parent, span in _parented(root)
            if span.name == "localized_knn"
        ]
        assert len(parents) == len(threads)
        assert {parent.name for parent in parents} == {"sharded_knn"}
        assert max(parent.attributes["shards"] for parent in parents) == 2


# ----------------------------------------------------------------------
# Engine lifecycle
# ----------------------------------------------------------------------
class TestShardedEngine:
    def test_build_validation(self, database):
        with pytest.raises(ConfigurationError):
            ShardedEngine.build(
                database, RFS_CONFIG, shards=2, store="memmap", seed=SEED
            )
        with pytest.raises(ConfigurationError):
            ShardedEngine.build(
                database, RFS_CONFIG, shards=0, seed=SEED
            )

    def test_shard_accounting(self, database):
        with _sharded(database, shards=3) as engine:
            assert engine.n_shards == 3
            assert (
                sum(shard.n_items for shard in engine.shards) == N_IMAGES
            )
            leaves = sum(shard.n_leaves for shard in engine.shards)
            assert leaves == len(dfs_leaves(engine.sharded_rfs.root))
            version = engine.sharded_rfs.structure_version
            assert all(
                shard.rfs.structure_version == version
                for shard in engine.shards
            )

    def test_close_is_idempotent(self, database):
        engine = _sharded(database, shards=2)
        _run_session(engine, database)
        engine.close()
        engine.close()

    def test_shard_cache_hits_counted(self, database):
        with _sharded(database, shards=2, cache=True) as engine:
            _run_session(engine, database)
            _run_session(engine, database)
            stats = [
                shard.cache.snapshot() for shard in engine.shards
            ]
        assert sum(s["inserts"] for s in stats) > 0
        assert sum(s["hits"] for s in stats) > 0
