"""Tests for the RFS structure: hierarchy, representatives, localized k-NN."""

import numpy as np
import pytest

from repro.config import RFSConfig
from repro.errors import NodeNotFoundError
from repro.index.rfs import RFSStructure
from tests.conftest import brute_force_knn


@pytest.fixture(scope="module")
def small_rfs():
    feats = np.random.default_rng(3).normal(size=(400, 8))
    cfg = RFSConfig(
        node_max_entries=40, leaf_subclusters=3
    )
    return RFSStructure.build(feats, cfg, seed=5), feats


class TestHierarchy:
    def test_root_covers_everything(self, small_rfs):
        rfs, feats = small_rfs
        assert rfs.root.size == feats.shape[0]
        assert np.array_equal(rfs.root.item_ids, np.arange(400))

    def test_children_partition_parent(self, small_rfs):
        rfs, _ = small_rfs
        for node in rfs.iter_nodes():
            if node.is_leaf:
                continue
            child_ids = np.sort(
                np.concatenate([c.item_ids for c in node.children])
            )
            assert np.array_equal(child_ids, node.item_ids)

    def test_parent_links(self, small_rfs):
        rfs, _ = small_rfs
        for node in rfs.iter_nodes():
            for child in node.children:
                assert child.parent is node

    def test_levels_decrease_downwards(self, small_rfs):
        rfs, _ = small_rfs
        for node in rfs.iter_nodes():
            for child in node.children:
                assert child.level == node.level - 1

    def test_height_consistent(self, small_rfs):
        rfs, _ = small_rfs
        assert rfs.height == rfs.root.level + 1
        assert rfs.height >= 2

    def test_get_node_roundtrip(self, small_rfs):
        rfs, _ = small_rfs
        for node in rfs.iter_nodes():
            assert rfs.get_node(node.node_id) is node

    def test_get_node_unknown_raises(self, small_rfs):
        rfs, _ = small_rfs
        with pytest.raises(NodeNotFoundError):
            rfs.get_node(10**9)

    def test_leaf_of_item(self, small_rfs):
        rfs, _ = small_rfs
        for item in (0, 100, 399):
            leaf = rfs.leaf_of_item(item)
            assert leaf.is_leaf
            assert item in leaf.item_ids

    def test_leaf_of_unknown_item_raises(self, small_rfs):
        rfs, _ = small_rfs
        with pytest.raises(NodeNotFoundError):
            rfs.leaf_of_item(10**9)

    def test_centres_are_member_means(self, small_rfs):
        rfs, feats = small_rfs
        for node in rfs.iter_nodes():
            assert np.allclose(
                node.center, feats[node.item_ids].mean(axis=0)
            )


class TestRepresentatives:
    def test_every_node_has_representatives(self, small_rfs):
        rfs, _ = small_rfs
        for node in rfs.iter_nodes():
            assert node.representatives

    def test_representatives_belong_to_subtree(self, small_rfs):
        rfs, _ = small_rfs
        for node in rfs.iter_nodes():
            members = set(node.item_ids.tolist())
            assert set(node.representatives) <= members

    def test_inner_reps_drawn_from_child_reps(self, small_rfs):
        rfs, _ = small_rfs
        for node in rfs.iter_nodes():
            if node.is_leaf:
                continue
            child_reps = set()
            for child in node.children:
                child_reps.update(child.representatives)
            assert set(node.representatives) <= child_reps

    def test_rep_routing_covers_all_inner_reps(self, small_rfs):
        rfs, _ = small_rfs
        for node in rfs.iter_nodes():
            if node.is_leaf:
                continue
            for rep in node.representatives:
                child = node.child_of_representative(rep)
                assert rep in child.item_ids

    def test_routing_unknown_rep_raises(self, small_rfs):
        rfs, _ = small_rfs
        root = rfs.root
        non_rep = next(
            int(i) for i in root.item_ids
            if int(i) not in root.rep_child_index
        )
        with pytest.raises(NodeNotFoundError):
            root.child_of_representative(non_rep)

    def test_upper_levels_have_more_reps(self, small_rfs):
        """Paper §3.1: upper clusters carry more representatives."""
        rfs, _ = small_rfs
        leaf_counts = [
            len(n.representatives) for n in rfs.iter_nodes() if n.is_leaf
        ]
        assert len(rfs.root.representatives) > max(leaf_counts)

    def test_overall_fraction_close_to_target(self):
        feats = np.random.default_rng(0).normal(size=(2000, 10))
        cfg = RFSConfig(
            node_max_entries=100,
            representative_fraction=0.05,
        )
        rfs = RFSStructure.build(feats, cfg, seed=1)
        assert 0.03 <= rfs.representative_fraction() <= 0.12

    def test_all_representatives_sorted_unique(self, small_rfs):
        rfs, _ = small_rfs
        reps = rfs.all_representatives()
        assert reps == sorted(set(reps))


class TestBoundaryExpansion:
    def test_central_query_stays_at_leaf(self, small_rfs):
        rfs, feats = small_rfs
        leaf = rfs.leaf_of_item(0)
        centre = leaf.center[None, :]
        node = rfs.expand_search_node(leaf, centre, threshold=0.4)
        assert node is leaf

    def test_far_query_expands(self, small_rfs):
        rfs, feats = small_rfs
        leaf = rfs.leaf_of_item(0)
        far = leaf.center + 100.0
        node = rfs.expand_search_node(leaf, far[None, :], threshold=0.4)
        assert node is rfs.root

    def test_threshold_zero_always_expands(self, small_rfs):
        rfs, _ = small_rfs
        leaf = rfs.leaf_of_item(0)
        probe = feats_probe = rfs.features[leaf.item_ids[:1]]
        node = rfs.expand_search_node(leaf, probe, threshold=0.0)
        # Off-centre by any amount triggers expansion to the root.
        if not np.allclose(feats_probe[0], leaf.center):
            assert node is rfs.root

    def test_threshold_one_rarely_expands(self, small_rfs):
        rfs, _ = small_rfs
        leaf = rfs.leaf_of_item(5)
        member = rfs.features[leaf.item_ids[:3]]
        node = rfs.expand_search_node(leaf, member, threshold=1.0)
        assert node is leaf


class TestLocalizedKnn:
    def test_results_come_from_subtree(self, small_rfs):
        rfs, feats = small_rfs
        leaf = rfs.leaf_of_item(10)
        got = rfs.localized_knn(leaf, feats[10], 5)
        members = set(leaf.item_ids.tolist())
        assert all(i in members for i in got.ids())

    def test_self_is_nearest(self, small_rfs):
        rfs, feats = small_rfs
        leaf = rfs.leaf_of_item(10)
        got = rfs.localized_knn(leaf, feats[10], 1)
        assert got.item_ids[0] == 10
        assert got.scores[0] == pytest.approx(0.0)

    def test_k_capped_at_subtree_size(self, small_rfs):
        rfs, feats = small_rfs
        leaf = rfs.leaf_of_item(10)
        got = rfs.localized_knn(leaf, feats[10], 10_000)
        assert len(got) == leaf.size

    def test_sorted_by_distance(self, small_rfs):
        rfs, feats = small_rfs
        leaf = rfs.leaf_of_item(20)
        got = rfs.localized_knn(leaf, feats[20], 10)
        dists = got.scores.tolist()
        assert dists == sorted(dists)

    def test_charges_one_page_per_leaf(self, small_rfs):
        rfs, feats = small_rfs
        leaf = rfs.leaf_of_item(0)
        rfs.io.reset()
        rfs.localized_knn(leaf, feats[0], 3)
        assert rfs.io.per_category["localized_knn"] == 1

    def test_root_search_prunes_leaves(self, small_rfs):
        """Best-first leaf ordering reads only the pages that can hold
        results, never the whole tree."""
        rfs, feats = small_rfs
        n_leaves = sum(1 for n in rfs.iter_nodes() if n.is_leaf)
        rfs.io.reset()
        rfs.localized_knn(rfs.root, feats[0], 3)
        reads = rfs.io.per_category["localized_knn"]
        assert 1 <= reads <= n_leaves

    def test_root_search_matches_brute_force(self, small_rfs):
        """Pruning never changes the result set."""
        rfs, feats = small_rfs
        got = rfs.localized_knn(rfs.root, feats[7], 9)
        expected = brute_force_knn(feats, feats[7], 9)
        assert got.ids() == expected.ids()
        assert np.allclose(got.scores, expected.scores, atol=1e-3)


class TestBuildScales:
    def test_three_level_tree_at_paper_density(self):
        """15k images at 100/node give the paper's 3-level RFS tree —
        checked here at proportional scale."""
        feats = np.random.default_rng(1).normal(size=(1500, 12))
        cfg = RFSConfig(node_max_entries=10)
        rfs = RFSStructure.build(feats, cfg, seed=2)
        assert rfs.height >= 3
