"""Stress: final rounds racing inserts/removes across generation swaps.

Readers hammer final-round scans from threads while a writer applies a
mixed insert/remove workload whose writes trip compactions inline.  Every
scan result is checked for *tearing* — duplicate ids, unsorted scores,
ids that were never allocated, or rows tombstoned before the stress
began — and once the dust settles the surviving index must rank
bit-identically to a from-scratch rebuild of the same live items.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.config import MutationConfig, QDConfig, RFSConfig
from repro.core.engine import QueryDecompositionEngine
from repro.datasets.build import build_synthetic_database
from repro.index.incremental import validate_structure
from repro.index.rfs import RFSStructure
from repro.retrieval.topk import RankedList
from repro.store import FeatureStore

CFG = RFSConfig(
    node_max_entries=40, leaf_subclusters=3
)

N_READERS = 3
READS_PER_THREAD = 25
N_WRITES = 60


def _build_engine():
    database = build_synthetic_database(500, n_categories=20, seed=42)
    engine = QueryDecompositionEngine.build(
        database, CFG, QDConfig(), seed=11,
        mutations=MutationConfig(compact_threshold=16),
    )
    engine.rfs.attach_store(
        FeatureStore.build(engine.rfs), validate=False
    )
    return database, engine


def _check_scan(ranked, *, k, pre_removed, max_id_box):
    """One scan's internal consistency (a torn scan violates these)."""
    assert len(ranked) <= k
    ids = ranked.ids()
    assert len(ids) == len(set(ids)), "duplicate id in one scan"
    dists = ranked.scores.tolist()
    assert dists == sorted(dists), "unsorted ranking"
    for dist in dists:
        assert np.isfinite(dist)
    for item in ids:
        assert 0 <= item < max_id_box[0], "id never allocated"
        assert item not in pre_removed, "tombstoned row resurfaced"


class TestMutationStress:
    # concurrent_compact=True adds a thread that calls compact() while
    # the writer runs, so compactions also start off the writer's thread
    # and race its inserts/removes for the write lock.
    @pytest.mark.parametrize("concurrent_compact", [False, True])
    def test_threaded_scans_race_mutations_without_tearing(
        self, concurrent_compact
    ):
        database, engine = _build_engine()
        controller = engine.mutations
        rng = np.random.default_rng(77)

        # Rows tombstoned *before* readers start must never resurface.
        pre_removed = {5, 120, 333}
        for item in pre_removed:
            engine.remove_image(item)

        max_id_box = [database.size + N_WRITES]  # ids are allocated < this
        errors: list[BaseException] = []
        start = threading.Barrier(N_READERS + 1 + int(concurrent_compact))
        writes_done = threading.Event()
        queries = rng.normal(size=(8, database.dims))

        def reader(worker: int) -> None:
            try:
                start.wait()
                local = np.random.default_rng(worker)
                for i in range(READS_PER_THREAD):
                    rfs = engine.rfs  # one generation per scan
                    query = queries[
                        int(local.integers(0, len(queries)))
                    ]
                    ranked = rfs.localized_knn(rfs.root, query, 25)
                    _check_scan(
                        ranked, k=25, pre_removed=pre_removed,
                        max_id_box=max_id_box,
                    )
            except BaseException as exc:  # surfaced after join
                errors.append(exc)

        def writer() -> None:
            try:
                start.wait()
                inserted: list[int] = []
                for i in range(N_WRITES):
                    if i % 4 == 3 and inserted:
                        engine.remove_image(inserted.pop())
                    else:
                        inserted.append(
                            engine.insert_image(
                                rng.normal(size=database.dims)
                            )
                        )
            except BaseException as exc:
                errors.append(exc)
            finally:
                writes_done.set()

        def compactor() -> None:
            try:
                start.wait()
                while not writes_done.is_set():
                    controller.compact()
                    time.sleep(0.005)
            except BaseException as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=reader, args=(w,))
            for w in range(N_READERS)
        ] + [threading.Thread(target=writer)]
        if concurrent_compact:
            threads.append(threading.Thread(target=compactor))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []

        # Force a final compaction so the whole delta is folded in.
        engine.mutations.compact()
        current = engine.rfs
        assert validate_structure(current) == []
        assert controller.generation >= 1  # swaps actually happened

        # Exact post-swap parity: the survivors rank bit-identically to
        # a from-scratch rebuild over the same live items.
        view = current.delta_view()
        assert view is None or (
            view.n_delta == 0 and view.n_dead_main == 0
        )
        live = np.asarray(current.root.item_ids, dtype=np.int64)
        rebuilt = RFSStructure.build(
            current.features[live], CFG, seed=1234
        )
        rebuilt.attach_store(
            FeatureStore.build(rebuilt), validate=False
        )
        for query in queries:
            got = current.localized_knn(current.root, query, 25)
            want = rebuilt.localized_knn(rebuilt.root, query, 25)
            assert got == RankedList(live[want.item_ids], want.scores)
        for item in pre_removed:
            assert item not in set(live)
        engine.close()

    def test_session_rounds_race_swaps(self):
        """Scripted sessions keep finishing while generations swap."""
        database, engine = _build_engine()
        rng = np.random.default_rng(3)
        errors: list[BaseException] = []
        done = threading.Event()

        def writer() -> None:
            try:
                while not done.is_set():
                    engine.insert_image(rng.normal(size=database.dims))
            except BaseException as exc:
                errors.append(exc)

        thread = threading.Thread(target=writer)
        thread.start()
        # Sessions keep racing the writer until one of its compactions
        # has swapped a generation in — however little CPU the writer
        # thread gets, the race this test is about has then happened.
        deadline = time.monotonic() + 120.0
        trial = 0
        try:
            while trial < 4 or engine.mutations.generation < 1:
                assert not errors, errors
                assert time.monotonic() < deadline, (
                    f"no generation swap after {trial} sessions"
                )
                result = engine.run_scripted(
                    lambda shown: list(shown[:4]),
                    k=25, rounds=2, seed=trial,
                )
                ids = result.flatten(25)
                assert len(ids) == len(set(ids))
                trial += 1
        finally:
            done.set()
            thread.join()
        assert errors == []
        assert engine.mutations.generation >= 1
        assert validate_structure(engine.rfs) == []
        engine.close()
