"""Generational delta-segment mutations: parity, compaction, engine.

The load-bearing guarantee under test: an index serving from
``main store + delta segment`` ranks **bit-identically** to a
from-scratch rebuild containing the same live items — across store
tiers, shard counts, and pre/post-compaction cache states.
``scripts/check.sh`` runs the ``Parity`` classes as a no-skip gate.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.config import MutationConfig, QDConfig, RFSConfig
from repro.core.engine import QueryDecompositionEngine
from repro.core.ranking import execute_final_round
from repro.datasets.build import build_synthetic_database
from repro.errors import (
    ConfigurationError,
    NodeNotFoundError,
    QueryError,
    StaleSessionError,
)
from repro.index import generations
from repro.index.generations import (
    GenerationController,
    generation_seed,
    route_leaf,
)
from repro.index.incremental import validate_structure
from repro.index.rfs import RFSStructure
from repro.retrieval.topk import RankedList
from repro.store import FeatureStore

CFG = RFSConfig(
    node_max_entries=40, leaf_subclusters=3
)


def _base(n=220, d=16, seed=5, *, attach_store=False):
    feats = np.random.default_rng(seed).normal(size=(n, d))
    rfs = RFSStructure.build(feats, CFG, seed=seed)
    if attach_store:
        rfs.attach_store(FeatureStore.build(rfs), validate=False)
    return rfs


def _mutate(controller, rng, *, inserts=9, removes=6):
    """A deterministic mixed workload; returns (new_ids, removed_ids)."""
    rfs = controller.current
    new_ids = [
        controller.insert(rng.normal(size=rfs.features.shape[1]))
        for _ in range(inserts)
    ]
    candidates = [int(i) for i in rfs.root.item_ids[:: max(1, removes)]]
    removed = candidates[:removes]
    for item in removed:
        controller.remove(item)
    return new_ids, removed


def _rebuild_of(rfs, *, seed=991, attach_store=False):
    """From-scratch structure over ``rfs``'s live items.

    Returns ``(built, live)`` where ``live[pos]`` maps the rebuild's
    row positions back to the generational deployment's global ids.
    """
    view = rfs.delta_view()
    if view is None or (view.n_delta == 0 and view.n_dead_main == 0):
        live_main = np.asarray(rfs.root.item_ids, dtype=np.int64)
        live_delta = np.empty(0, dtype=np.int64)
        full = rfs.features
    else:
        live_main = np.setdiff1d(
            rfs.root.item_ids, view.dead_main, assume_unique=True
        )
        live_delta = view.base_rows + view.live_indices
        full = (
            np.vstack([rfs.features, view.rows])
            if view.n_delta
            else rfs.features
        )
    live = np.concatenate([live_main, live_delta]).astype(np.int64)
    built = RFSStructure.build(full[live], CFG, seed=seed)
    if attach_store:
        built.attach_store(FeatureStore.build(built), validate=False)
    return built, live


def _scan(rfs, query, k):
    """Root-subtree scan: every live item competes."""
    return rfs.localized_knn(rfs.root, query, k)


def _assert_scan_parity(gen_rfs, rebuilt, live, queries, k):
    """Generational scan == rebuilt scan, bit for bit, id for id."""
    for query in queries:
        got = _scan(gen_rfs, query, k)
        want = _scan(rebuilt, query, k)
        assert got == RankedList(live[want.item_ids], want.scores)


def _queries(rfs, n=6, seed=17):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, rfs.features.shape[1]))


class TestDeltaMutations:
    def test_insert_gets_stable_id_and_is_findable(self):
        rfs = _base()
        controller = GenerationController(rfs)
        # Offset well above float32 norm-expansion resolution (~1e-3
        # near distance 0), so the new row is separable from row 3.
        vec = rfs.features[3] + 0.05
        new_id = controller.insert(vec)
        assert new_id == rfs.features.shape[0]
        got = _scan(rfs, vec, 1)
        assert got.item_ids[0] == new_id

    def test_removed_id_disappears_from_scans(self):
        rfs = _base()
        controller = GenerationController(rfs)
        victim = int(rfs.root.item_ids[0])
        controller.remove(victim)
        ids = set(_scan(rfs, rfs.features[victim], 50).ids())
        assert victim not in ids

    def test_remove_unknown_raises(self):
        controller = GenerationController(_base())
        with pytest.raises(NodeNotFoundError):
            controller.remove(10_000)

    def test_remove_twice_raises(self):
        controller = GenerationController(_base())
        controller.remove(0)
        with pytest.raises(NodeNotFoundError):
            controller.remove(0)

    def test_delta_size_counts_rows_and_tombstones(self):
        controller = GenerationController(_base())
        _mutate(controller, np.random.default_rng(0),
                inserts=4, removes=3)
        assert controller.delta_size == 7
        assert controller.n_items == 220 + 4 - 3

    def test_route_leaf_matches_leaf_membership(self):
        rfs = _base()
        for item in (0, 57, 113):
            leaf = route_leaf(rfs, rfs.features[item])
            assert leaf.is_leaf

    def test_validate_structure_clean_under_delta(self):
        rfs = _base(attach_store=True)
        controller = GenerationController(rfs)
        _mutate(controller, np.random.default_rng(1))
        assert validate_structure(rfs) == []


class TestRefusedWrites:
    """A write the index could not keep is refused before it lands."""

    @staticmethod
    def _live(rfs):
        view = rfs.delta_view()
        return set(
            np.setdiff1d(rfs.root.item_ids, view.dead_main).tolist()
        ) | set((view.base_rows + view.live_indices).tolist())

    def test_non_finite_insert_leaves_later_writes_and_compaction_working(
        self,
    ):
        from repro.core import SessionFrontEnd
        from repro.sessionstore import InMemorySessionStore

        database = build_synthetic_database(400, n_categories=20, seed=6)
        dims = database.dims
        rng = np.random.default_rng(12)
        writes = (
            [("insert", {"vector": [float("nan")] * dims})]
            + [("insert", {"vector": rng.normal(size=dims).tolist()})
               for _ in range(3)]
            + [("remove", {"image_id": 17})]
            + [("insert", {"vector": rng.normal(size=dims).tolist()})
               for _ in range(3)]
            + [("remove", {"image_id": 250})]
        )
        with QueryDecompositionEngine.build(
            database, CFG, QDConfig(), seed=31,
            mutations=MutationConfig(compact_threshold=4),
        ) as engine:
            engine.attach_session_store(InMemorySessionStore())
            frontend = SessionFrontEnd(engine)
            expected = set(range(database.size))
            statuses = []
            for op, kwargs in writes:
                outcome = frontend.handle(op, **kwargs)
                statuses.append(outcome.error_kind or "ok")
                if outcome.ok and op == "insert":
                    expected.add(outcome.value)
                elif outcome.ok:
                    expected.discard(kwargs["image_id"])
            assert statuses == ["invalid_request"] + ["ok"] * 8
            controller = engine.mutations
            assert controller.generation == 2  # two automatic compactions
            assert self._live(controller.current) == expected
            engine.insert_image(rng.normal(size=dims))
            assert engine.mutations.compact() is not None
            assert controller.n_items == len(expected) + 1

    @pytest.mark.parametrize("image_id", [1.7, 1.0, True, "1"])
    def test_remove_refuses_an_id_that_is_not_an_integer(self, image_id):
        controller = GenerationController(_base())
        with pytest.raises(QueryError, match="integer"):
            controller.remove(image_id)
        assert controller.delta_size == 0
        controller.remove(np.int64(1))  # numpy integers are integers
        assert controller.delta_size == 1


class TestMutationParity:
    """The gate: delta-bearing scans == from-scratch rebuild scans."""

    # The structure's own lazily built store, or one attached from
    # FeatureStore.build.
    @pytest.mark.parametrize("attach_store", [False, True])
    def test_scan_parity_with_own_and_attached_store(self, attach_store):
        rfs = _base(attach_store=attach_store)
        controller = GenerationController(rfs)
        _mutate(controller, np.random.default_rng(2))
        rebuilt, live = _rebuild_of(rfs, attach_store=attach_store)
        _assert_scan_parity(rfs, rebuilt, live, _queries(rfs), k=25)

    def test_post_compaction_equals_rebuild_at_generation_seed(self):
        rfs = _base(attach_store=True)
        controller = GenerationController(rfs, seed=41)
        _mutate(controller, np.random.default_rng(4))
        live_before = np.sort(
            np.concatenate([
                np.setdiff1d(rfs.root.item_ids,
                             rfs.delta_view().dead_main),
                rfs.delta_view().base_rows
                + rfs.delta_view().live_indices,
            ])
        )
        version = controller.compact()
        current = controller.current
        assert version == current.structure_version
        # Same tree as an independent bulk load at the derived seed.
        rebuilt, live = _rebuild_of(
            current, seed=generation_seed(41, 1), attach_store=True
        )
        assert np.array_equal(np.sort(live), live_before)
        assert np.array_equal(
            np.sort(current.root.item_ids), live_before
        )
        _assert_scan_parity(current, rebuilt, live,
                            _queries(current), k=25)
        assert validate_structure(current) == []

    def test_parity_holds_across_repeated_compactions(self):
        rfs = _base(attach_store=True)
        controller = GenerationController(rfs, seed=8)
        rng = np.random.default_rng(5)
        for round_no in range(3):
            _mutate(controller, rng, inserts=5, removes=3)
            controller.compact()
            current = controller.current
            assert current.build_meta["generation"] == round_no + 1
            rebuilt, live = _rebuild_of(
                current,
                seed=generation_seed(8, round_no + 1),
                attach_store=True,
            )
            _assert_scan_parity(current, rebuilt, live,
                                _queries(current, n=3), k=20)

    def test_mutated_then_scanned_ids_stay_stable_across_swap(self):
        rfs = _base()
        controller = GenerationController(rfs)
        vec = rfs.features[11] + 5e-4
        new_id = controller.insert(vec)
        controller.remove(int(rfs.root.item_ids[1]))
        controller.compact()
        got = _scan(controller.current, vec, 1)
        assert got.item_ids[0] == new_id  # same global id, now a main row


class TestCacheParity:
    """Cache pre/post-compaction: correct results, surgical evictions.

    Parity here means the cache *hit* path (stored main-only ranking +
    post-consult delta merge) returns exactly what the *miss* path
    (fresh block scans) returns on the same structure — before a
    mutation, after it, and across a generation swap.
    """

    QUERIES = [((1, 2, 3), 20), ((40, 41, 90), 20), ((150, 151), 20)]

    def _cached_engine(self):
        from repro.cache import SubqueryResultCache

        database = build_synthetic_database(440, n_categories=16,
                                            seed=19)
        engine = QueryDecompositionEngine.build(
            database, CFG, QDConfig(), seed=21,
            mutations=MutationConfig(),
        )
        engine.rfs.attach_store(
            FeatureStore.build(engine.rfs), validate=False
        )
        engine.rfs.attach_cache(SubqueryResultCache(4 << 20))
        return engine

    def _finalize_all(self, engine):
        """Each query's final round, run as its session would run it."""
        results = [
            execute_final_round(
                engine.rfs, marks, k, engine.config, rounds_used=0
            )
            for marks, k in self.QUERIES
        ]
        return [
            [(it.item_id, it.score) for g in r.groups for it in g.items]
            for r in results
        ]

    def _hit_vs_miss(self, engine):
        """Cached answers == answers with the cache detached."""
        rfs = engine.rfs
        hit = self._finalize_all(engine)
        cache = rfs.result_cache
        rfs.detach_cache()
        try:
            miss = self._finalize_all(engine)
        finally:
            rfs.attach_cache(cache)
        assert hit == miss

    def test_insert_invalidates_nothing_and_hits_stay_exact(self):
        with self._cached_engine() as engine:
            self._finalize_all(engine)  # warm
            cache = engine.rfs.result_cache
            before = cache.snapshot()
            assert before["entries"] > 0
            engine.insert_image(
                np.random.default_rng(8).normal(
                    size=engine.database.dims
                )
            )
            after = cache.snapshot()
            assert after["mutation_evictions"] == (
                before["mutation_evictions"]
            )
            assert after["entries"] == before["entries"]
            self._hit_vs_miss(engine)

    def test_remove_evicts_per_node_not_globally(self):
        with self._cached_engine() as engine:
            self._finalize_all(engine)
            cache = engine.rfs.result_cache
            before = cache.snapshot()
            # Image 0's leaf path holds one cached search node of four:
            # that entry goes, and the other three keep serving hits.
            engine.remove_image(0)
            after = cache.snapshot()
            evicted = after["mutation_evictions"] - before["mutation_evictions"]
            assert 0 < evicted < before["entries"]
            assert after["entries"] == before["entries"] - evicted
            self._finalize_all(engine)
            assert cache.snapshot()["hits"] - after["hits"] >= after["entries"]
            self._hit_vs_miss(engine)

    def test_cache_survives_compaction_and_stays_correct(self):
        with self._cached_engine() as engine:
            self._finalize_all(engine)
            cache = engine.rfs.result_cache
            rng = np.random.default_rng(9)
            for _ in range(5):
                engine.insert_image(rng.normal(
                    size=engine.database.dims))
            engine.remove_image(10)
            engine.mutations.compact()
            assert engine.rfs.result_cache is cache  # carried over
            self._finalize_all(engine)  # stale entries die lazily
            assert cache.snapshot()["stale_evictions"] >= 0
            self._hit_vs_miss(engine)


class TestShardedParity:
    """Router scans with delta == single-node rebuild, pre/post swap."""

    @pytest.mark.parametrize("shards", [2, 3])
    def test_sharded_scan_parity(self, shards):
        from repro.shard import ShardedEngine

        database = build_synthetic_database(500, n_categories=20,
                                            seed=10)
        engine = ShardedEngine.build(
            database, qd_config=QDConfig(), shards=shards,
            seed=23, store="inmem",
            mutations=MutationConfig(),
        )
        try:
            rng = np.random.default_rng(11)
            for _ in range(7):
                engine.insert_image(rng.normal(size=database.dims))
            for item in (2, 150, 333):
                engine.remove_image(item)
            router = engine.rfs
            rebuilt, live = _rebuild_of(router, attach_store=True)
            _assert_scan_parity(router, rebuilt, live,
                                _queries(router), k=25)
            assert engine.mutations.compact() is not None
            router = engine.rfs
            assert len(router.shards) >= 1
            rebuilt, live = _rebuild_of(router, attach_store=True)
            _assert_scan_parity(router, rebuilt, live,
                                _queries(router), k=25)
        finally:
            engine.close()

    def test_compaction_keeps_the_deployment_shape(self):
        from repro.config import CacheConfig
        from repro.shard import ShardedEngine

        database = build_synthetic_database(500, n_categories=20,
                                            seed=10)
        engine = ShardedEngine.build(
            database, qd_config=QDConfig(), shards=3,
            partition="roundrobin", seed=23,
            cache=CacheConfig(enabled=True),
            mutations=MutationConfig(),
        )
        try:
            old = engine.rfs
            caches = [shard.cache for shard in old.shards]
            assert all(cache is not None for cache in caches)
            engine.insert_image(np.zeros(database.dims))
            engine.remove_image(150)
            version = engine.mutations.compact()
            router = engine.rfs
            assert router is not old
            assert router.assignment.strategy == "roundrobin"
            assert router.n_shards == 3
            assert all(
                shard.cache is cache
                for shard, cache in zip(router.shards, caches)
            )
            assert router.structure_version == version
            assert {
                shard.rfs.structure_version for shard in router.shards
            } == {version}
        finally:
            engine.close()


class TestCompaction:
    def test_threshold_triggers_auto_compaction(self):
        rfs = _base()
        controller = GenerationController(
            rfs, config=MutationConfig(compact_threshold=5)
        )
        rng = np.random.default_rng(12)
        for _ in range(5):
            controller.insert(rng.normal(size=16))
        assert controller.generation == 1
        assert controller.delta_size == 0

    def test_empty_delta_compaction_is_a_noop(self):
        controller = GenerationController(_base())
        assert controller.compact() is None
        assert controller.generation == 0

    def test_retired_map_serves_old_versions_and_is_bounded(
        self, monkeypatch
    ):
        monkeypatch.setattr(generations, "MAX_RETIRED", 2)
        rfs = _base()
        v0 = rfs.structure_version
        controller = GenerationController(rfs)
        rng = np.random.default_rng(14)
        versions = [v0]
        for _ in range(3):
            controller.insert(rng.normal(size=16))
            versions.append(controller.compact())
        assert len(controller.retired) == 2
        assert controller.structure_for_version(versions[-1]) is (
            controller.current
        )
        assert controller.structure_for_version(versions[0]) is None
        assert (
            controller.structure_for_version(versions[-2]) is not None
        )

    def test_compacting_everything_away_raises(self):
        rfs = _base(n=60)
        controller = GenerationController(rfs)
        for item in list(rfs.root.item_ids):
            controller.remove(int(item))
        with pytest.raises(ConfigurationError):
            controller.compact()

    def test_generation_seed_is_pure_and_distinct(self):
        assert generation_seed(7, 1) == generation_seed(7, 1)
        assert generation_seed(7, 1) != generation_seed(7, 2)
        assert generation_seed(8, 1) != generation_seed(7, 1)


def _block_builds(monkeypatch, on_build=None):
    """Hold every compaction's tree build until ``release`` is set.

    Returns ``(building, release)``: ``building`` is set once a build
    has started.  ``on_build`` runs first, while the old generation is
    still serving.
    """
    building, release = threading.Event(), threading.Event()
    original = RFSStructure.build

    def build(cls, *args, **kwargs):
        if on_build is not None:
            on_build()
        building.set()
        assert release.wait(30)
        return original(*args, **kwargs)

    monkeypatch.setattr(
        generations.RFSStructure, "build", classmethod(build)
    )
    return building, release


class TestCompactionIsAWrite:
    """A write issued while ``compact()`` builds waits for the swap."""

    def _write_during_build(self, monkeypatch, write):
        """Run ``write(controller)`` on a thread mid-compaction.

        Returns ``(controller, old, result)``; fails unless the write
        was still waiting when the build was released and returned
        only after the swap.
        """
        controller = GenerationController(_base())
        rng = np.random.default_rng(21)
        for _ in range(3):
            controller.insert(rng.normal(size=16))
        controller.remove(7)
        old = controller.current
        building, release = _block_builds(monkeypatch)
        seen = {}

        def compactor():
            seen["version"] = controller.compact()

        def writer():
            seen["result"] = write(controller)
            seen["generation"] = controller.generation

        threads = [threading.Thread(target=compactor)]
        threads[0].start()
        assert building.wait(30)
        threads.append(threading.Thread(target=writer))
        threads[1].start()
        threads[1].join(timeout=0.5)
        waited = threads[1].is_alive()
        release.set()
        for thread in threads:
            thread.join(30)
            assert not thread.is_alive()
        assert waited, "the write returned while compact() was building"
        assert seen["generation"] == 1, "the write landed before the swap"
        assert seen["version"] == controller.current.structure_version
        assert controller.current is not old
        return controller, old, seen["result"]

    def test_insert_mid_compaction_lands_in_the_new_delta(
        self, monkeypatch
    ):
        vec = np.random.default_rng(22).normal(size=16)
        controller, old, new_id = self._write_during_build(
            monkeypatch, lambda c: c.insert(vec)
        )
        snapshot = old.delta_view()
        assert new_id == snapshot.base_rows + snapshot.n_delta
        view = controller.current.delta_view()
        assert view.base_rows == new_id
        assert view.n_delta == 1 and bool(view.live[0])
        assert np.array_equal(view.rows[0], vec)
        assert _scan(controller.current, vec, 1).item_ids[0] == new_id

    def test_remove_mid_compaction_tombstones_the_new_generation(
        self, monkeypatch
    ):
        victim = 42
        controller, old, _ = self._write_during_build(
            monkeypatch, lambda c: c.remove(victim)
        )
        assert victim not in old.delta_view().dead_main
        view = controller.current.delta_view()
        assert view.dead_main.tolist() == [victim]
        assert victim in controller.current.root.item_ids
        scanned = _scan(
            controller.current, controller.current.features[victim], 50
        )
        assert victim not in set(scanned.ids())

    def test_two_writers_crossing_the_threshold(self, monkeypatch):
        threshold = 5
        controller = GenerationController(
            _base(),
            config=MutationConfig(compact_threshold=threshold),
        )
        rng = np.random.default_rng(23)
        for _ in range(threshold - 1):
            controller.insert(rng.normal(size=16))
        sizes = []
        building, release = _block_builds(
            monkeypatch, lambda: sizes.append(controller.delta_size)
        )
        vectors = {w: rng.normal(size=(8, 16)) for w in "ab"}
        removals = {"a": [10, 20], "b": [30, 40, 50]}
        inserted = {"a": [], "b": []}
        errors = []

        def writer(name):
            try:
                for i, vec in enumerate(vectors[name]):
                    inserted[name].append(controller.insert(vec))
                    if i < len(removals[name]):
                        controller.remove(removals[name][i])
            except BaseException as exc:  # surfaced after join
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(name,))
            for name in "ab"
        ]
        for thread in threads:
            thread.start()
        # One writer's first insert reaches the threshold and blocks in
        # the build; give the other time to issue its write meanwhile.
        assert building.wait(30)
        threads[0].join(timeout=0.5)
        release.set()
        for thread in threads:
            thread.join(30)
            assert not thread.is_alive()
        assert errors == []
        # Every compaction started exactly at the threshold: the write
        # that reached it compacted before any other write landed.
        assert sizes and all(size == threshold for size in sizes)

        current = controller.current
        view = current.delta_view()
        live = set(
            np.setdiff1d(current.root.item_ids, view.dead_main).tolist()
        ) | set((view.base_rows + view.live_indices).tolist())
        removed = {item for ids in removals.values() for item in ids}
        for name in "ab":
            for item, vec in zip(inserted[name], vectors[name]):
                assert item in live
                row = (
                    current.features[item]
                    if item < view.base_rows
                    else view.rows[item - view.base_rows]
                )
                assert np.array_equal(row, vec)
        assert not removed & live
        n_inserted = sum(len(ids) for ids in inserted.values())
        assert len(live) == 220 + (threshold - 1) + n_inserted - len(
            removed
        )
        rebuilt, ids = _rebuild_of(current)
        _assert_scan_parity(current, rebuilt, ids, _queries(current), k=25)


class TestEngineMutations:
    def test_requires_enable(self):
        database = build_synthetic_database(400, n_categories=16,
                                            seed=15)
        engine = QueryDecompositionEngine.build(database, CFG, seed=1)
        with pytest.raises(ConfigurationError):
            engine.insert_image(np.zeros(database.dims))

    def test_enable_idempotent_but_not_reconfigurable(self):
        database = build_synthetic_database(400, n_categories=16,
                                            seed=15)
        engine = QueryDecompositionEngine.build(database, CFG, seed=1)
        controller = engine.enable_mutations(MutationConfig())
        assert engine.enable_mutations() is controller
        with pytest.raises(ConfigurationError):
            engine.enable_mutations(MutationConfig())

    def test_swap_repoints_engine_and_sessions_resume_pinned(
        self, monkeypatch
    ):
        from repro.sessionstore import make_session_store

        monkeypatch.setattr(generations, "MAX_RETIRED", 2)
        database = build_synthetic_database(500, n_categories=20,
                                            seed=16)
        engine = QueryDecompositionEngine.build(
            database, CFG, QDConfig(), seed=3,
            mutations=MutationConfig(),
        )
        engine.attach_session_store(make_session_store("memory"))
        with engine:
            session = engine.open_session(seed=5)
            shown = session.display()
            session.submit(shown[:3])
            old_rfs = engine.rfs
            engine.insert_image(np.zeros(database.dims))
            engine.mutations.compact()
            assert engine.rfs is not old_rfs
            resumed = engine.resume_session(session.session_id)
            assert resumed.rfs is old_rfs  # pinned generation
            result = resumed.finalize(k=20)
            assert result.groups

    def test_resume_beyond_retired_window_is_fenced(self, monkeypatch):
        from repro.sessionstore import make_session_store

        monkeypatch.setattr(generations, "MAX_RETIRED", 1)
        database = build_synthetic_database(500, n_categories=20,
                                            seed=16)
        engine = QueryDecompositionEngine.build(
            database, CFG, QDConfig(), seed=3,
            mutations=MutationConfig(),
        )
        engine.attach_session_store(make_session_store("memory"))
        with engine:
            session = engine.open_session(seed=5)
            shown = session.display()
            session.submit(shown[:3])
            for _ in range(2):  # two swaps push v0 out of the window
                engine.insert_image(np.zeros(database.dims))
                engine.mutations.compact()
            with pytest.raises(StaleSessionError):
                engine.resume_session(session.session_id)


class TestServeMutations:
    def test_insert_and_remove_flow_through_front_end(self):
        from repro.core.clientserver import SessionFrontEnd
        from repro.sessionstore import make_session_store

        database = build_synthetic_database(400, n_categories=16,
                                            seed=18)
        engine = QueryDecompositionEngine.build(
            database, CFG, QDConfig(), seed=9,
            mutations=MutationConfig(),
        )
        engine.attach_session_store(make_session_store("memory"))
        with engine:
            front = SessionFrontEnd(engine)
            new_id = front.handle(
                "insert", vector=[0.0] * database.dims
            )
            assert new_id.ok
            assert new_id.value == database.size
            removed = front.handle("remove", image_id=new_id.value)
            assert removed.ok and removed.value is True
            missing = front.handle("remove", image_id=new_id.value)
            assert not missing.ok
            assert missing.error_kind == "not_found"
            bad = front.handle("insert", vector=[0.0, 1.0])
            assert not bad.ok
            assert bad.error_kind == "invalid_request"
