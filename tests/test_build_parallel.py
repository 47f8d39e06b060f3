"""Offline build pipeline: executor parity and vectorized-kernel
equivalence.

The build pipeline's contract is stronger than "same quality": the
structure produced by a parallel build must be **bit-identical** to the
serial build — same node ids, same member sets, same bounding boxes,
same representatives — because every downstream result (rankings,
caches, serialized indexes) is keyed off it.  These tests pin that
contract across the thread and process executors, and pin the
vectorized Lloyd's-iteration kernels to their naive reference
implementations sample-for-sample.
"""

import json

import numpy as np
import pytest

from repro.clustering.kmeans import (
    _assign,
    _assign_naive,
    _lloyd_update,
    _lloyd_update_naive,
    kmeans,
)
from repro.config import BuildConfig, RFSConfig
from repro.errors import ClusteringError, ConfigurationError
from repro.exec.pool import WorkerPool
from repro.index.rfs import BuildProgress, RFSStructure
from repro.index.rstar import RStarTree
from repro.index.serialize import load_rfs, save_rfs
from repro.retrieval.multipoint import MultipointQuery

N_IMAGES = 600
DIMS = 16

CFG = RFSConfig(
    node_max_entries=40, node_min_entries=20, leaf_subclusters=3
)
# Small threshold so the 600-point bulk load actually exercises the
# parallel bisect frontier, not just the in-line fallback.
PARALLEL = dict(workers=4, parallel_group_threshold=64)


def _features(seed=0, n=N_IMAGES, d=DIMS):
    return np.random.default_rng(seed).normal(size=(n, d))


def _signature(rfs):
    """Everything that defines a built structure, bit-for-bit."""
    out = []
    for node_id in sorted(rfs.nodes):
        node = rfs.nodes[node_id]
        out.append(
            (
                node_id,
                node.level,
                node.parent.node_id if node.parent else -1,
                tuple(sorted(c.node_id for c in node.children)),
                node.item_ids.tobytes(),
                tuple(node.representatives),
                tuple(sorted(node.rep_child_index.items())),
                node.mbr.lo.tobytes(),
                node.mbr.hi.tobytes(),
                node.center.tobytes(),
            )
        )
    return out


# ----------------------------------------------------------------------
# Executor parity (gated no-skip in scripts/check.sh)
# ----------------------------------------------------------------------
class TestBuildParity:
    @pytest.mark.parametrize("seed", [7, 2006])
    def test_thread_build_identical_to_serial(self, seed):
        feats = _features(seed)
        serial = RFSStructure.build(feats, CFG, seed=seed)
        threaded = RFSStructure.build(
            feats,
            CFG,
            seed=seed,
            build=BuildConfig(executor="thread", **PARALLEL),
        )
        assert _signature(serial) == _signature(threaded)

    def test_process_build_identical_to_serial(self):
        feats = _features(7)
        serial = RFSStructure.build(feats, CFG, seed=7)
        forked = RFSStructure.build(
            feats,
            CFG,
            seed=7,
            build=BuildConfig(executor="process", **PARALLEL),
        )
        assert _signature(serial) == _signature(forked)

    def test_worker_count_does_not_change_tree(self):
        feats = _features(3)
        builds = [
            RFSStructure.build(
                feats,
                CFG,
                seed=3,
                build=BuildConfig(
                    executor="thread",
                    workers=w,
                    parallel_group_threshold=64,
                ),
            )
            for w in (1, 2, 4)
        ]
        first = _signature(builds[0])
        assert all(_signature(b) == first for b in builds[1:])

    def test_hkmeans_thread_build_identical_to_serial(self):
        feats = _features(5)
        serial = RFSStructure.build(feats, CFG, seed=5, method="hkmeans")
        threaded = RFSStructure.build(
            feats,
            CFG,
            seed=5,
            method="hkmeans",
            build=BuildConfig(executor="thread", **PARALLEL),
        )
        assert _signature(serial) == _signature(threaded)

    def test_query_results_identical_after_parallel_build(self):
        feats = _features(11)
        serial = RFSStructure.build(feats, CFG, seed=11)
        threaded = RFSStructure.build(
            feats,
            CFG,
            seed=11,
            build=BuildConfig(executor="thread", **PARALLEL),
        )
        centroid = MultipointQuery(feats[:4]).centroid()
        assert serial.localized_knn(
            serial.root, centroid, 25
        ) == threaded.localized_knn(threaded.root, centroid, 25)

    def test_charge_io_counts_reps_reads_without_changing_tree(self):
        feats = _features(13)
        plain = RFSStructure.build(feats, CFG, seed=13)
        charged = RFSStructure.build(
            feats,
            CFG,
            seed=13,
            build=BuildConfig(charge_io=True),
        )
        assert _signature(plain) == _signature(charged)
        assert plain.io.per_category_logical.get("build_reps", 0) == 0
        assert charged.io.per_category_logical["build_reps"] == len(
            charged.nodes
        )


class TestBisectParity:
    def test_parallel_bulk_load_matches_serial(self):
        pts = _features(21, n=900, d=8)
        trees = []
        for executor in (None, WorkerPool("thread", 4)):
            tree = RStarTree(dims=8, max_entries=40)
            tree.bulk_load(
                pts, seed=9, executor=executor, inline_threshold=100
            )
            if executor is not None:
                executor.close()
            trees.append(tree)

        def leaf_groups(tree):
            return [
                tuple(sorted(e.item_id for e in leaf.entries))
                for leaf in tree.iter_leaves()
            ]

        assert leaf_groups(trees[0]) == leaf_groups(trees[1])


# ----------------------------------------------------------------------
# Vectorized Lloyd's iteration == naive reference, bit-for-bit
# ----------------------------------------------------------------------
class TestLloydEquivalence:
    @pytest.mark.parametrize("trial", range(5))
    def test_assignment_matches_naive(self, trial):
        rng = np.random.default_rng(trial)
        data = rng.normal(
            scale=float(rng.uniform(0.01, 100.0)), size=(257, 13)
        )
        centroids = data[rng.choice(257, size=9, replace=False)].copy()
        assert np.array_equal(
            _assign(data, centroids), _assign_naive(data, centroids)
        )

    @pytest.mark.parametrize("chunk", [1, 7, 64, 1000])
    def test_chunked_assignment_matches_unchunked(self, chunk):
        rng = np.random.default_rng(42)
        data = rng.normal(size=(200, 11))
        centroids = data[:6].copy()
        assert np.array_equal(
            _assign(data, centroids, chunk_size=chunk),
            _assign(data, centroids),
        )

    @pytest.mark.parametrize("trial", range(5))
    def test_nearest_candidates_matches_naive(self, trial):
        from repro.index.rfs import (
            _nearest_candidates,
            _nearest_candidates_naive,
        )

        rng = np.random.default_rng(300 + trial)
        cand_feats = rng.normal(size=(180, 12))
        centroids = rng.normal(size=(150, 12))
        assert np.array_equal(
            _nearest_candidates(cand_feats, centroids),
            _nearest_candidates_naive(cand_feats, centroids),
        )

    @pytest.mark.parametrize("trial", range(5))
    def test_centroid_update_matches_naive(self, trial):
        rng = np.random.default_rng(100 + trial)
        data = rng.normal(size=(301, 8))
        k = 7
        centroids = data[:k].copy()
        labels = _assign(data, centroids)
        vec = _lloyd_update(data, labels, k, centroids)
        ref = _lloyd_update_naive(data, labels, k, centroids)
        assert vec.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("trial", range(3))
    def test_full_kmeans_matches_chunked_run(self, trial):
        data = np.random.default_rng(trial).normal(size=(240, 10))
        plain = kmeans(data, 6, seed=trial)
        chunked = kmeans(data, 6, seed=trial, chunk_size=37)
        assert plain.centroids.tobytes() == chunked.centroids.tobytes()
        assert np.array_equal(plain.labels, chunked.labels)
        assert plain.inertia == chunked.inertia
        assert plain.n_iter == chunked.n_iter


class TestEmptyClusterRepair:
    def test_multiple_empty_clusters_reseed_distinct_samples(self):
        # Clusters 2 and 3 are empty; both must re-seed, at different
        # samples (historically they collapsed onto the same farthest
        # point).
        data = np.array(
            [[0.0, 0.0], [0.1, 0.0], [10.0, 0.0], [10.1, 0.0],
             [50.0, 0.0], [40.0, 0.0]]
        )
        labels = np.array([0, 0, 1, 1, 0, 1])
        centroids = np.zeros((4, 2))
        centroids[1] = [10.0, 0.0]
        repaired = _lloyd_update(data, labels, 4, centroids)
        # Farthest-first: [50, 0] (dist 50 from centroid 0), then
        # [40, 0] (dist 30 from centroid 1).
        assert repaired[2].tolist() == [50.0, 0.0]
        assert repaired[3].tolist() == [40.0, 0.0]
        assert not np.array_equal(repaired[2], repaired[3])

    def test_single_empty_cluster_takes_farthest_sample(self):
        data = np.array([[0.0], [1.0], [2.0], [9.0]])
        labels = np.array([0, 0, 0, 0])
        centroids = np.array([[0.0], [100.0]])
        repaired = _lloyd_update(data, labels, 2, centroids)
        assert repaired[1].tolist() == [9.0]
        ref = _lloyd_update_naive(data, labels, 2, centroids)
        assert repaired.tobytes() == ref.tobytes()


class TestMinibatch:
    def test_minibatch_deterministic_and_valid(self):
        data = np.random.default_rng(0).normal(size=(400, 6))
        a = kmeans(data, 5, seed=9, minibatch=64)
        b = kmeans(data, 5, seed=9, minibatch=64)
        assert a.centroids.tobytes() == b.centroids.tobytes()
        assert np.array_equal(a.labels, b.labels)
        assert a.labels.shape == (400,)
        assert set(np.unique(a.labels)) <= set(range(5))
        assert a.inertia > 0

    def test_minibatch_larger_than_n_falls_back_to_exact(self):
        data = np.random.default_rng(1).normal(size=(50, 4))
        exact = kmeans(data, 3, seed=2)
        fallback = kmeans(data, 3, seed=2, minibatch=500)
        assert exact.centroids.tobytes() == fallback.centroids.tobytes()

    def test_invalid_knobs_rejected(self):
        data = np.random.default_rng(2).normal(size=(30, 3))
        with pytest.raises(ClusteringError):
            kmeans(data, 3, chunk_size=-1)
        with pytest.raises(ClusteringError):
            kmeans(data, 3, minibatch=-5)


# ----------------------------------------------------------------------
# Build metadata, progress events, config validation
# ----------------------------------------------------------------------
class TestBuildMeta:
    def test_build_meta_json_safe_and_persisted(self, tmp_path):
        feats = _features(17)
        rfs = RFSStructure.build(feats, CFG, seed=17)
        assert rfs.build_meta["method"] == "bisect"
        assert rfs.build_meta["n_points"] == N_IMAGES
        json.dumps(rfs.build_meta)  # plain types only
        path = tmp_path / "rfs.npz"
        save_rfs(rfs, path)
        restored = load_rfs(path, feats)
        assert restored.build_meta == rfs.build_meta

    def test_str_bulk_load_records_plain_int_sort_dims(self):
        pts = _features(19, n=300, d=6)
        tree = RStarTree(dims=6, max_entries=20)
        tree.bulk_load_str(pts)
        dims = tree.build_meta["sort_dims"]
        assert all(type(d) is int for d in dims)
        assert sorted(dims) == list(range(6))
        json.dumps(tree.build_meta)


class TestBuildProgress:
    def test_progress_events_cover_both_phases(self):
        feats = _features(23)
        events = []
        rfs = RFSStructure.build(
            feats, CFG, seed=23, progress=events.append
        )
        assert events[0] == BuildProgress("cluster_tree", 0, 1)
        assert events[1] == BuildProgress("cluster_tree", 1, 1)
        reps = [e for e in events if e.phase == "representatives"]
        assert [e.done for e in reps] == list(range(1, len(rfs.nodes) + 1))
        assert all(e.total == len(rfs.nodes) for e in reps)

    def test_progress_emitted_from_parallel_build_too(self):
        feats = _features(23)
        events = []
        rfs = RFSStructure.build(
            feats,
            CFG,
            seed=23,
            build=BuildConfig(executor="thread", **PARALLEL),
            progress=events.append,
        )
        reps = [e for e in events if e.phase == "representatives"]
        assert [e.done for e in reps] == list(range(1, len(rfs.nodes) + 1))


class TestBuildConfigValidation:
    def test_rejects_unknown_executor(self):
        with pytest.raises(ConfigurationError):
            BuildConfig(executor="gpu")

    def test_rejects_negative_workers(self):
        with pytest.raises(ConfigurationError):
            BuildConfig(workers=-1)

    def test_rejects_bad_thresholds(self):
        with pytest.raises(ConfigurationError):
            BuildConfig(parallel_group_threshold=0)
        with pytest.raises(ConfigurationError):
            BuildConfig(kmeans_chunk=-1)
        with pytest.raises(ConfigurationError):
            BuildConfig(kmeans_minibatch=-1)
