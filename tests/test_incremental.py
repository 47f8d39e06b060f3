"""Tests for incremental maintenance of a built index.

Inserts and removes go through the generational engine
(:class:`~repro.index.generations.GenerationController`: delta segment
+ compaction); these tests pin what a caller can rely on while the
index changes under it — stable ids, findability, routing, and every
:func:`~repro.index.incremental.validate_structure` invariant, before
and after the delta is compacted into a new generation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MutationConfig, RFSConfig
from repro.errors import NodeNotFoundError, QueryError
from repro.index.generations import GenerationController, route_leaf
from repro.index.incremental import validate_structure
from repro.index.rfs import RFSStructure

MAX_ENTRIES = 40


def _fresh(n=200, d=8, seed=0, *, compact_threshold=None):
    """A controller over a fresh tree; compaction manual by default."""
    base = np.random.default_rng(seed).normal(size=(n, d))
    rfs = RFSStructure.build(
        base,
        RFSConfig(node_max_entries=MAX_ENTRIES,
                  leaf_subclusters=3),
        seed=seed,
    )
    config = (
        None
        if compact_threshold is None
        else MutationConfig(compact_threshold=compact_threshold)
    )
    return GenerationController(rfs, config=config, seed=seed)


def _validate(controller):
    problems = validate_structure(controller.current)
    assert not problems, "; ".join(problems)


def _nearest(controller, vector):
    rfs = controller.current
    return rfs.localized_knn(rfs.root, vector, 1).item_ids[0]


def _leaves(controller):
    return [n for n in controller.current.iter_nodes() if n.is_leaf]


class TestInsert:
    def test_insert_returns_new_id_and_grows(self):
        inc = _fresh()
        new_id = inc.insert(np.zeros(8))
        assert new_id == 200
        assert inc.n_items == 201
        inc.compact()
        assert inc.n_items == 201
        assert inc.current.features.shape == (201, 8)

    def test_inserted_image_findable(self):
        inc = _fresh()
        vec = np.full(8, 0.25)
        new_id = inc.insert(vec)
        leaf = inc.current.leaf_of_item(new_id)
        got = inc.current.localized_knn(leaf, vec, 1)
        assert got.item_ids[0] == new_id

    def test_wrong_dims_rejected(self):
        inc = _fresh()
        with pytest.raises(QueryError):
            inc.insert(np.zeros(5))
        assert inc.n_items == 200

    def test_many_inserts_keep_invariants(self):
        inc = _fresh()
        rng = np.random.default_rng(3)
        for _ in range(120):
            inc.insert(rng.normal(size=8))
        _validate(inc)
        inc.compact()
        _validate(inc)
        assert inc.n_items == 320

    def test_leaf_splits_on_overflow(self):
        inc = _fresh()
        rng = np.random.default_rng(4)
        # Hammer one region: far more rows than one leaf may hold.
        anchor = inc.current.features[0]
        before_leaves = len(_leaves(inc))
        for _ in range(80):
            inc.insert(anchor + rng.normal(0, 0.01, size=8))
        inc.compact()
        # The new generation re-clusters them into leaves within capacity.
        assert len(_leaves(inc)) > before_leaves
        assert all(leaf.size <= MAX_ENTRIES for leaf in _leaves(inc))
        _validate(inc)

    def test_inserts_route_to_nearby_cluster(self):
        inc = _fresh()
        rfs = inc.current
        vec = rfs.features[0] + 1e-6
        new_id = inc.insert(vec)
        routed = rfs.leaf_of_item(new_id)
        assert routed.is_leaf
        assert routed is route_leaf(rfs, vec)
        # Visible from the routed leaf upward, and only there.
        assert rfs.effective_node_size(routed) == routed.size + 1
        assert rfs.effective_node_size(rfs.root) == rfs.root.size + 1


class TestRemove:
    def test_remove_detaches(self):
        inc = _fresh()
        vec = inc.current.features[5].copy()
        inc.remove(5)
        assert inc.n_items == 199
        assert _nearest(inc, vec) != 5
        _validate(inc)
        inc.compact()
        with pytest.raises(NodeNotFoundError):
            inc.current.leaf_of_item(5)
        _validate(inc)

    def test_remove_unknown_raises(self):
        inc = _fresh()
        with pytest.raises(NodeNotFoundError):
            inc.remove(10**9)

    def test_remove_then_reinsert_cycle(self):
        inc = _fresh()
        vec = inc.current.features[7].copy()
        inc.remove(7)
        new_id = inc.insert(vec)
        assert _nearest(inc, vec) == new_id
        _validate(inc)
        inc.compact()
        leaf = inc.current.leaf_of_item(new_id)
        assert new_id in leaf.item_ids
        assert _nearest(inc, vec) == new_id
        _validate(inc)

    def test_emptying_a_leaf_prunes_it(self):
        inc = _fresh()
        leaf = inc.current.leaf_of_item(0)
        emptied = [int(i) for i in leaf.item_ids]
        for image_id in emptied:
            inc.remove(image_id)
        assert inc.current.effective_node_size(leaf) == 0
        inc.compact()
        assert all(node.size > 0 for node in inc.current.iter_nodes())
        assert not set(emptied) & set(inc.current.root.item_ids.tolist())
        _validate(inc)


class TestLazyRefresh:
    def test_representatives_stay_members(self):
        inc = _fresh(compact_threshold=16)
        rng = np.random.default_rng(6)
        alive = list(range(200))
        for step in range(60):
            if step % 3 == 2 and len(alive) > 50:
                inc.remove(alive.pop(int(rng.integers(len(alive)))))
            else:
                alive.append(inc.insert(rng.normal(size=8)))
            _validate(inc)  # includes the stale-representative check
        assert inc.generation >= 3

    def test_queries_work_throughout(self):
        inc = _fresh(compact_threshold=16)
        rng = np.random.default_rng(777)  # distinct from the base data
        for _ in range(40):
            vec = rng.normal(size=8)
            new_id = inc.insert(vec)
            leaf = inc.current.leaf_of_item(new_id)
            got = inc.current.localized_knn(leaf, vec, 1)
            assert got.item_ids[0] == new_id
        assert inc.generation >= 2


class TestPropertyBased:
    @given(st.lists(st.integers(0, 2), min_size=5, max_size=40))
    @settings(max_examples=10, deadline=None)
    def test_random_operation_sequences(self, ops):
        inc = _fresh(n=120, seed=9)
        rng = np.random.default_rng(11)
        alive = set(range(120))
        for op in ops:
            if op in (0, 1) or len(alive) < 10:
                alive.add(inc.insert(rng.normal(size=8)))
            else:
                victim = sorted(alive)[int(rng.integers(len(alive)))]
                inc.remove(victim)
                alive.discard(victim)
        _validate(inc)
        assert inc.n_items == len(alive)
        inc.compact()
        _validate(inc)
        assert inc.n_items == len(alive)
        assert set(inc.current.root.item_ids.tolist()) == alive
