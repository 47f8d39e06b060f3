"""Offline build pipeline: structure digests and vectorized-kernel
equivalence.

The build pipeline's contract is stronger than "same quality": the
built structure must be **bit-identical** to the one recorded — same
node ids, same member sets, same bounding boxes, same representatives —
because every downstream result (rankings, caches, serialized indexes)
is keyed off it.  These tests pin that contract with structure digests,
and pin the vectorized Lloyd's-iteration kernels to their naive
reference implementations sample-for-sample.  The references — and the build
kernels as they were before they stopped computing what they could
prove — live in ``tests/reference_build.py``; the structure digests
below were generated on the last commit that ran them (7d9c120).
"""

import functools
import importlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.clustering.kmeans import (
    DistanceFilter,
    _assign,
    _lloyd_update,
    _plus_plus_init,
    kmeans,
    kmeans_stacked,
)
from repro.config import RFSConfig
from repro.datasets.build import build_synthetic_database
from repro.index.generations import GenerationController, generation_seed
from repro.index.geometry import MBR
from repro.index.rfs import BuildProgress, RFSStructure
from repro.index.rstar import _split_once
from repro.index.serialize import load_rfs, save_rfs
from tests.reference_build import (
    assign_reference,
    kmeans_reference,
    lloyd_update_naive,
    nearest_candidates_naive,
    plus_plus_init_reference,
    plus_plus_picks_reference,
    single_run_reference,
    split_once_reference,
    structure_digest,
)

# The module, not the function the package re-exports under its name.
_km = importlib.import_module("repro.clustering.kmeans")

N_IMAGES = 600
DIMS = 16

CFG = RFSConfig(
    node_max_entries=40, leaf_subclusters=3
)


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
# The build is the parent commit's build, digest for digest
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _synthetic(n):
    return build_synthetic_database(n, n_categories=150, seed=2006).features


#: (n, seed, config, method) -> structure digest of
#: ``RFSStructure.build`` on commit 7d9c120, the last one whose build
#: loaded a separate R*-tree object graph, converted it with
#: ``_materialise`` and drew k-means++ picks through
#: ``Generator.choice``.
PARENT_DIGESTS = {
    "default-777": (
        (777, 3, None, "rstar"),
        "6b3882268be43535933bf1e72e0f4edde10e3b302200784d3f906c9f4ac5f2e3",
    ),
    "default-2000": (
        (2000, 1, None, "rstar"),
        "29d89b6418486f4d5ef1f34a67517bf678fa00c4ae9393202a4139c270a56f28",
    ),
    "default-5000": (
        (5000, 2, None, "rstar"),
        "e4cb828debe314905a544bb7048513309366bba33fa7e075212d58ecb51945ba",
    ),
    "hkmeans-2000": (
        (2000, 1, None, "hkmeans"),
        "5ac0914ed22017474c23e4148bfdb8fead94f373b715ae258db9ec1c39684964",
    ),
    "small-capacity-2000": (
        (2000, 1, CFG, "rstar"),
        "a125b87f1862be78e3f49f6226e861958d331bac6fc60de87845fe2b6bf788fb",
    ),
}


class TestBuildDigestParity:
    @pytest.mark.parametrize("case", sorted(PARENT_DIGESTS))
    def test_digest_equals_parent_commit(self, case):
        (n, seed, config, method), want = PARENT_DIGESTS[case]
        rfs = RFSStructure.build(
            _synthetic(n), config, seed=seed, method=method
        )
        assert structure_digest(rfs) == want
        assert "executor" not in rfs.build_meta

    def test_build_makes_no_per_point_boxes(self, monkeypatch):
        # One box per node, taken from the partition's own bounds.
        made = []
        trusted = MBR._trusted.__func__

        def counting(cls, lo, hi):
            made.append(lo.shape)
            return trusted(cls, lo, hi)

        monkeypatch.setattr(MBR, "_trusted", classmethod(counting))
        monkeypatch.setattr(
            MBR, "__init__", lambda *a: pytest.fail("validated MBR built")
        )
        rfs = RFSStructure.build(_features(29), CFG, seed=29)
        assert rfs.root.size == N_IMAGES
        assert made == [(DIMS,)] * len(rfs.nodes)

    def test_compaction_equals_from_scratch_build_of_live_rows(self):
        feats = _features(37, n=260)
        rfs = RFSStructure.build(feats, CFG, seed=37)
        controller = GenerationController(rfs, seed=43)
        rng = np.random.default_rng(1)
        for _ in range(7):
            controller.insert(rng.normal(size=DIMS))
        for item in rfs.root.item_ids[::50]:
            controller.remove(int(item))
        view = rfs.delta_view()
        live = np.concatenate(
            [
                np.setdiff1d(rfs.root.item_ids, view.dead_main),
                view.base_rows + view.live_indices,
            ]
        ).astype(np.int64)
        full = np.vstack([feats, view.rows])
        controller.compact()
        compacted = controller.current
        scratch = RFSStructure.build(
            full[live], CFG, seed=generation_seed(43, 1)
        )
        GenerationController._remap(scratch, live)
        scratch.build_meta = dict(compacted.build_meta)
        assert structure_digest(compacted) == structure_digest(scratch)


# ----------------------------------------------------------------------
# The shipped kernels == the parent commit's, bit for bit
# ----------------------------------------------------------------------
def _kernel_data(kind, n, d, seed):
    """Inputs that stress ties, duplicates and empty clusters — and,
    for the build's certified distance filter, exact ties (an integer
    grid), rounding far above the spread (an offset of 1e6), gradual
    underflow (scale 1e-160), squares near the top of the range (scale
    1e150) and norm sums whose square would overflow (scale 1e153)."""
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return rng.random((n, d))
    if kind == "rounded":
        return np.round(rng.random((n, d)) * 2.0, 1)
    if kind == "grid":
        return rng.integers(0, 3, size=(n, d)).astype(np.float64)
    if kind == "offset":
        return 1e6 + rng.random((n, d))
    if kind == "tiny":
        return rng.random((n, d)) * 1e-160
    if kind == "huge":
        return rng.random((n, d)) * 1e150
    if kind == "brink":
        return rng.random((n, d)) * 1e153
    distinct = rng.normal(size=(max(1, n // 4), d))
    return distinct[rng.integers(distinct.shape[0], size=n)]


_KINDS = st.sampled_from(["uniform", "rounded", "duplicated"])
_FILTER_KINDS = st.sampled_from(
    ["uniform", "rounded", "duplicated", "grid", "offset", "tiny", "huge",
     "brink"]
)
#: Without "brink": its seeding totals overflow past a few rows (the
#: reference's ``Generator.choice`` refuses them); an example covers it.
_SEEDING_KINDS = st.sampled_from(
    ["uniform", "rounded", "duplicated", "grid", "offset", "tiny", "huge"]
)


def _split_both(kind, n, d, seed):
    """``_split_once`` and its reference on the same rows and seed."""
    points = _kernel_data(kind, n + 5, d, seed)
    indices = np.random.default_rng(seed + 1).permutation(n + 5)[:n]
    group_min = 1 + seed % (n // 2)
    rng, ref_rng = (np.random.default_rng(seed) for _ in range(2))
    got = _split_once(points, indices, group_min, rng)
    want = split_once_reference(points, indices, group_min, ref_rng)
    return got, want, rng, ref_rng


#: (kind, n, d, seed) of a split whose side filter falls back.
_FALLBACK_SPLIT = ("grid", 200, 3, 11)


class TestKernelReferenceParity:
    @given(
        kind=_KINDS,
        n=st.integers(1, 60),
        d=st.integers(1, 9),
        k_pick=st.sampled_from(["one", "all", "some"]),
        seed=st.integers(0, 2**20),
        max_iter=st.sampled_from([1, 2, 3, 100]),
        tol=st.sampled_from([1e-6, 0.0, 0.5, -1.0]),
    )
    # Duplicated rows with k above the distinct count: clusters empty
    # out and re-seed, where the repeated-labels shortcut must not fire.
    @example(kind="duplicated", n=24, d=3, k_pick="all", seed=5,
             max_iter=100, tol=1e-6)
    @example(kind="rounded", n=40, d=2, k_pick="some", seed=11,
             max_iter=2, tol=1e-6)
    @settings(max_examples=150, deadline=None)
    def test_single_run_matches_reference(
        self, kind, n, d, k_pick, seed, max_iter, tol
    ):
        data = _kernel_data(kind, n, d, seed)
        k = {"one": 1, "all": n, "some": 1 + seed % n}[k_pick]
        rng, ref_rng = (np.random.default_rng(seed) for _ in range(2))
        got = kmeans(
            data, k, seed=rng, n_restarts=1, max_iter=max_iter, tol=tol
        )
        want = single_run_reference(data, k, ref_rng, max_iter, tol)
        assert got.centroids.tobytes() == want.centroids.tobytes()
        assert np.array_equal(got.labels, want.labels)
        assert got.inertia == want.inertia
        assert got.n_iter == want.n_iter
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_proven_convergence_skips_the_iteration_not_the_count(
        self, monkeypatch
    ):
        # The differential above is only worth its name if its inputs
        # reach both the early stop and the empty-cluster repair.
        from importlib import import_module

        km = import_module("repro.clustering.kmeans")
        calls = {"_assign": 0, "_reseed_empty": 0}
        for name in calls:

            def counted(*args, _name=name, _real=getattr(km, name), **kw):
                calls[_name] += 1
                return _real(*args, **kw)

            monkeypatch.setattr(km, name, counted)
        data = _kernel_data("uniform", 50, 4, 3)
        got = km.kmeans(data, 4, seed=3, n_restarts=1)
        want = single_run_reference(
            data, 4, np.random.default_rng(3), 100, 1e-6
        )
        # The full loop assigns once up front and once per iteration.
        assert got.n_iter == want.n_iter > 1
        assert calls["_assign"] == want.n_iter
        assert calls["_reseed_empty"] == 0
        data = _kernel_data("duplicated", 24, 3, 5)
        km.kmeans(data, 24, seed=5, n_restarts=1)
        assert calls["_reseed_empty"] > 0

    @given(
        kind=_KINDS,
        n=st.integers(1, 80),
        d=st.integers(1, 9),
        k_pick=st.sampled_from(["one", "all", "some"]),
        seed=st.integers(0, 2**20),
    )
    @settings(max_examples=100, deadline=None)
    def test_plus_plus_pick_matches_generator_choice(
        self, kind, n, d, k_pick, seed
    ):
        data = _kernel_data(kind, n, d, seed)
        k = {"one": 1, "all": n, "some": 1 + seed % n}[k_pick]
        rng, ref_rng = (np.random.default_rng(seed) for _ in range(2))
        got = data[_plus_plus_init(data[None], k, [rng], 1)[0]]
        want = plus_plus_init_reference(data, k, ref_rng)
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @given(
        kind=_KINDS,
        n=st.integers(1, 60),
        d=st.integers(1, 9),
        k_gap=st.integers(0, 3),
        n_restarts=st.integers(1, 4),
        seed=st.integers(0, 2**20),
    )
    # k = n over a quarter as many distinct rows: seeding runs out of
    # distinct samples, and every restart picks the same rows again.
    @example(kind="duplicated", n=24, d=3, k_gap=0, n_restarts=3, seed=5)
    @settings(max_examples=150, deadline=None)
    def test_kmeans_shared_rows_match_reference(
        self, kind, n, d, k_gap, n_restarts, seed
    ):
        data = _kernel_data(kind, n, d, seed)
        k = max(1, n - k_gap)
        rng, ref_rng = (np.random.default_rng(seed) for _ in range(2))
        got = kmeans(data, k, seed=rng, n_restarts=n_restarts)
        want = kmeans_reference(data, k, ref_rng, n_restarts)
        assert got.centroids.tobytes() == want.centroids.tobytes()
        assert np.array_equal(got.labels, want.labels)
        assert got.inertia == want.inertia
        assert got.n_iter == want.n_iter
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @given(
        kind=_SEEDING_KINDS,
        n_problems=st.integers(1, 4),
        n=st.one_of(st.integers(1, 40), st.integers(100, 300)),
        d=st.one_of(st.integers(1, 9), st.just(37)),
        k_pick=st.sampled_from(["one", "all", "some"]),
        n_restarts=st.integers(1, 3),
        seed=st.integers(0, 2**20),
    )
    # Coincident rows: a restart runs out of distinct samples, and its
    # problem is replayed one restart at a time.
    @example(kind="duplicated", n_problems=3, n=24, d=3, k_pick="all",
             n_restarts=3, seed=5)
    # Rounding far above the spread: a bound without its half-width
    # would skip samples the pick is nearer, and change later picks.
    @example(kind="offset", n_problems=2, n=200, d=37, k_pick="some",
             n_restarts=3, seed=50)
    # Squares below the smallest normal: every restart is spent at once.
    @example(kind="tiny", n_problems=2, n=30, d=4, k_pick="some",
             n_restarts=2, seed=9)
    # Norms whose bound could overflow: every sample goes exact.
    @example(kind="brink", n_problems=2, n=20, d=2, k_pick="some",
             n_restarts=3, seed=3)
    @settings(max_examples=150, deadline=None)
    def test_seeding_filter_matches_reference(
        self, kind, n_problems, n, d, k_pick, n_restarts, seed
    ):
        data = np.stack(
            [_kernel_data(kind, n, d, seed + b) for b in range(n_problems)]
        )
        k = {"one": 1, "all": n, "some": 1 + seed % n}[k_pick]
        rngs = [np.random.default_rng(seed + b) for b in range(n_problems)]
        refs = [np.random.default_rng(seed + b) for b in range(n_problems)]
        picks = _plus_plus_init(data, k, rngs, n_restarts)
        for b in range(n_problems):
            for r in range(n_restarts):
                got = picks[r * n_problems + b]
                want = plus_plus_picks_reference(data[b], k, refs[b])
                assert np.array_equal(got, want)
            assert rngs[b].bit_generator.state == refs[b].bit_generator.state

    def test_seeding_filter_falls_back_on_near_ties(self, monkeypatch):
        # The differential above is only worth its name if its inputs
        # reach the exact fallback.  Each later pick must leave every
        # closest distance at the exact rows' minimum, and the exact
        # kernel runs on the samples its bound cannot clear.
        steps = []
        exact_rows = []
        kernel = _km.sq_distances_into
        lower = _km._SeedingRows.lower

        def counted(points, *args):
            exact_rows.append(points.size // points.shape[-1])
            return kernel(points, *args)

        def checked(self, closest_sq, samples, problems, picks):
            rows = self.data[problems]
            centres = rows[np.arange(len(picks)), picks][:, None]
            want = np.minimum(closest_sq, np.sum((rows - centres) ** 2, axis=-1))
            before = len(exact_rows)
            lower(self, closest_sq, samples, problems, picks)
            assert closest_sq.tobytes() == want.tobytes()
            steps.append((sum(exact_rows[before:]), closest_sq.size))

        monkeypatch.setattr(_km, "sq_distances_into", counted)
        monkeypatch.setattr(_km._SeedingRows, "lower", checked)

        def seed(kind, n, d, k):
            steps.clear()
            exact_rows.clear()
            data = _kernel_data(kind, n, d, 1)[None]
            _plus_plus_init(data, k, [np.random.default_rng(1)], 3)
            assert exact_rows[0] == 3 * n  # the first picks: every row
            return [rows for rows, _ in steps], [size for _, size in steps]

        # Well-spread rows: the bound clears most samples of a late pick.
        rows, sizes = seed("uniform", 300, 6, 40)
        assert len(rows) == 38
        assert 0 < sum(rows) < sum(sizes) // 4
        # Exact ties of an integer grid and of duplicated rows reach the
        # exact kernel at every step, some rows not all ...
        for kind in ("grid", "duplicated"):
            rows, sizes = seed(kind, 300, 3, 40)
            assert all(0 < r < s for r, s in zip(rows, sizes))
        # ... the half-width outgrows the spread of rows offset by 1e6 ...
        rows, sizes = seed("offset", 300, 3, 40)
        assert rows == sizes
        # ... and where the bound could overflow it decides nothing.
        rows, sizes = seed("brink", 20, 2, 6)
        assert rows == sizes

    def test_build_runs_the_exact_kernel_on_pinned_rows(self, monkeypatch):
        # The build's CPU is held by the work it does, not by a timing:
        # the rows one build runs through the exact kernel, the only one,
        # repeat exactly.  Every filter in DistanceFilter and
        # _SeedingRows that stops settling rows (a bypassed filter, a
        # margin gone wide) raises this count.
        features = build_synthetic_database(
            2000, n_categories=30, seed=2006
        ).features
        kernel = _km.sq_distances_into
        rows = []

        def counted(points, *args):
            rows.append(points.size // points.shape[-1])
            return kernel(points, *args)

        monkeypatch.setattr(_km, "sq_distances_into", counted)
        RFSStructure.build(features, RFSConfig(), seed=2006)
        assert sum(rows) == 14_802

    def test_kmeans_memory_stays_linear(self):
        # The hkmeans split's shape (k = 8, one restart): every table is
        # O(n·d) or O(n·k).  An n × n one would be 3.2 GB at n = 20 000.
        data = _kernel_data("uniform", 20_000, 8, 0)
        tracemalloc.start()
        try:
            kmeans(data, 8, seed=0, n_restarts=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 << 20

    @given(
        kind=_KINDS,
        n_problems=st.integers(1, 6),
        # Both sides of numpy's 128-element pairwise summation block.
        n=st.one_of(st.integers(1, 40), st.integers(100, 600)),
        d=st.one_of(st.integers(1, 9), st.just(37)),
        k_pick=st.sampled_from(["one", "all", "some"]),
        n_restarts=st.integers(1, 3),
        max_iter=st.sampled_from([1, 2, 100]),
        tol=st.sampled_from([1e-6, 0.0, -1.0]),
        seed=st.integers(0, 2**20),
    )
    # Coincident rows: seeding runs out of distinct points (the
    # generator draws differently) and clusters empty out and re-seed.
    @example(kind="duplicated", n_problems=3, n=24, d=3, k_pick="all",
             n_restarts=3, max_iter=100, tol=1e-6, seed=5)
    @example(kind="duplicated", n_problems=4, n=5, d=2, k_pick="some",
             n_restarts=3, max_iter=100, tol=1e-6, seed=7)
    @example(kind="uniform", n_problems=6, n=483, d=37, k_pick="some",
             n_restarts=3, max_iter=100, tol=1e-6, seed=304)
    @settings(max_examples=40, deadline=None)
    def test_stacked_kmeans_matches_reference_per_problem(
        self, kind, n_problems, n, d, k_pick, n_restarts, max_iter, tol,
        seed,
    ):
        data = np.stack(
            [_kernel_data(kind, n, d, seed + b) for b in range(n_problems)]
        )
        k = {"one": 1, "all": n, "some": 1 + seed % n}[k_pick]
        rngs = [np.random.default_rng(seed + b) for b in range(n_problems)]
        refs = [np.random.default_rng(seed + b) for b in range(n_problems)]
        got = kmeans_stacked(
            data, k, seeds=rngs, n_restarts=n_restarts, max_iter=max_iter,
            tol=tol,
        )
        for b, result in enumerate(got):
            want = kmeans_reference(
                data[b], k, refs[b], n_restarts, max_iter=max_iter, tol=tol
            )
            assert result.centroids.tobytes() == want.centroids.tobytes()
            assert np.array_equal(result.labels, want.labels)
            assert result.inertia == want.inertia
            assert result.n_iter == want.n_iter
            assert rngs[b].bit_generator.state == refs[b].bit_generator.state

    def test_stacked_problems_stop_at_their_own_iteration(self, monkeypatch):
        # The differential above is only worth its name if one group
        # mixes runs that stop at different iterations and problems
        # whose seeding runs out of distinct points.
        calls = {"_plus_plus_picks": 0}
        picks = _km._plus_plus_picks

        def counted(*args, **kw):
            calls["_plus_plus_picks"] += 1
            return picks(*args, **kw)

        monkeypatch.setattr(_km, "_plus_plus_picks", counted)
        data = np.stack([_kernel_data("uniform", 60, 4, b) for b in range(5)])
        got = kmeans_stacked(
            data, 6, seeds=[np.random.default_rng(b) for b in range(5)]
        )
        assert len({r.n_iter for r in got}) > 1
        assert calls["_plus_plus_picks"] == 1  # every restart at once
        spent = np.stack(
            [_kernel_data("uniform", 24, 3, 1), np.zeros((24, 3))]
        )
        rngs = [np.random.default_rng(b) for b in range(2)]
        refs = [np.random.default_rng(b) for b in range(2)]
        got = kmeans_stacked(spent, 4, seeds=rngs)
        # One pass for the group, then the coincident problem's three
        # restarts replayed one at a time.
        assert calls["_plus_plus_picks"] == 1 + 1 + 3
        for b in range(2):
            want = kmeans_reference(spent[b], 4, refs[b], 3)
            assert got[b].centroids.tobytes() == want.centroids.tobytes()
            assert rngs[b].bit_generator.state == refs[b].bit_generator.state

    @given(
        kind=_FILTER_KINDS,
        n=st.integers(4, 600),
        d=st.one_of(st.integers(1, 9), st.just(37)),
        seed=st.integers(0, 2**20),
    )
    # Grid rows tie exactly between the centres: the side filter is
    # unsure of them and hands them to the exact kernel.
    @example(kind=_FALLBACK_SPLIT[0], n=_FALLBACK_SPLIT[1],
             d=_FALLBACK_SPLIT[2], seed=_FALLBACK_SPLIT[3])
    @settings(max_examples=150, deadline=None)
    def test_split_once_matches_reference(self, kind, n, d, seed):
        got, want, rng, ref_rng = _split_both(kind, n, d, seed)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_split_filter_falls_back_on_near_ties(self, monkeypatch):
        # The differentials are only worth their name if their inputs
        # reach the exact fallback: rows through the exact kernel, by
        # the filter method that sent them.
        calls = {}
        exact = _km.DistanceFilter._exact
        method = []

        def counted(self, rows, centre):
            calls.setdefault(method[-1], []).append(rows.shape[0])
            return exact(self, rows, centre)

        def tagged(name):
            real = getattr(_km.DistanceFilter, name)

            def call(self, *args):
                method.append(name)
                try:
                    return real(self, *args)
                finally:
                    method.pop()

            return call

        monkeypatch.setattr(_km.DistanceFilter, "_exact", counted)
        for name in ("farthest", "sides", "cut_order"):
            monkeypatch.setattr(_km.DistanceFilter, name, tagged(name))
        n = _FALLBACK_SPLIT[1]
        _split_both(*_FALLBACK_SPLIT)
        # The farthest pick runs the exact kernel once, on its
        # candidates; the side tests hand over their near-ties, some
        # rows not all; the grid's tied differences reach the cut's.
        assert len(calls["farthest"]) == 1
        assert calls["sides"] and all(0 < r < n for r in calls["sides"])
        assert calls["cut_order"] and all(r > 0 for r in calls["cut_order"])
        # ... on well-spread rows the filter settles every side and the
        # whole cut ...
        calls.clear()
        _split_both("uniform", 500, 37, 3)
        assert list(calls) == ["farthest"]
        # ... and where its sums could overflow it decides nothing.
        calls.clear()
        _split_both("brink", 500, 37, 3)
        assert set(calls) == {"farthest", "sides", "cut_order"}
        assert all(r == 500 for rows in calls.values() for r in rows)

    @given(
        kind=_FILTER_KINDS,
        n=st.integers(1, 600),
        d=st.one_of(st.integers(1, 9), st.just(37)),
        centres=st.sampled_from(["rows", "halves", "same"]),
        seed=st.integers(0, 2**20),
    )
    # One centre twice: every difference is 0, one run of every row.
    @example(kind="grid", n=200, d=3, centres="same", seed=11)
    # Grid centres: many rows tie, on both sides of the cut.
    @example(kind="grid", n=200, d=3, centres="rows", seed=11)
    @example(kind="offset", n=300, d=37, centres="halves", seed=2)
    @example(kind="brink", n=300, d=37, centres="rows", seed=2)
    @settings(max_examples=150, deadline=None)
    def test_cut_order_matches_stable_sort(self, kind, n, d, centres, seed):
        pts = _kernel_data(kind, n, d, seed)
        rng = np.random.default_rng(seed)
        if centres == "halves":
            a, b = pts[: (n + 1) // 2].mean(axis=0), pts[n // 2 :].mean(axis=0)
        else:
            a = pts[rng.integers(n)]
            b = a if centres == "same" else pts[rng.integers(n)]
        da = np.sum((pts - a) ** 2, axis=1)
        db = np.sum((pts - b) ** 2, axis=1)
        order, natural = DistanceFilter(pts).cut_order(a, b)
        assert np.array_equal(order, np.argsort(da - db, kind="stable"))
        assert natural == np.count_nonzero(da <= db)

    @pytest.mark.parametrize("kind", ["rounded", "duplicated", "offset"])
    @pytest.mark.parametrize("n_cand", [3, 180, 2000])
    def test_nearest_candidates_block_size_is_invisible(self, n_cand, kind):
        # The exact kernel decides each centroid's near-ties in chunks
        # of ``n_cand`` pairs: 3 candidates take many chunks, and the
        # offset rows (rounding far above their spread) leave many
        # candidates per centroid.  The first 20 centroids are
        # candidates themselves — duplicated rows tie exactly.
        cand_feats = _kernel_data(kind, n_cand, 12, n_cand)
        centroids = np.vstack(
            [cand_feats[:20], _kernel_data(kind, 40, 12, n_cand + 1)]
        )
        assert np.array_equal(
            DistanceFilter(cand_feats).nearest(centroids),
            nearest_candidates_naive(cand_feats, centroids),
        )


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
            _assign(data, centroids), assign_reference(data, centroids)
        )

    @pytest.mark.parametrize("chunk", [1, 7, 64, 1000])
    def test_chunked_assignment_matches_unchunked(self, chunk):
        # Each row's label depends on that row alone: assigning row
        # slices gives the labels of one whole-matrix pass.
        rng = np.random.default_rng(42)
        data = rng.normal(size=(200, 11))
        centroids = data[:6].copy()
        chunked = np.concatenate(
            [
                _assign(data[start : start + chunk], centroids)
                for start in range(0, data.shape[0], chunk)
            ]
        )
        assert np.array_equal(chunked, _assign(data, centroids))

    @pytest.mark.parametrize("trial", range(5))
    def test_nearest_candidates_matches_naive(self, trial):
        rng = np.random.default_rng(300 + trial)
        cand_feats = rng.normal(size=(180, 12))
        centroids = rng.normal(size=(150, 12))
        assert np.array_equal(
            DistanceFilter(cand_feats).nearest(centroids),
            nearest_candidates_naive(cand_feats, centroids),
        )

    @pytest.mark.parametrize("trial", range(5))
    def test_centroid_update_matches_naive(self, trial):
        rng = np.random.default_rng(100 + trial)
        data = rng.normal(size=(301, 8))
        k = 7
        centroids = data[:k].copy()
        labels = _assign(data, centroids)
        counts = np.bincount(labels, minlength=k)
        vec = _lloyd_update(
            data[None], labels[None], counts[None], centroids[None]
        )[0]
        ref = lloyd_update_naive(data, labels, k, centroids)
        assert vec.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("trial", range(3))
    def test_full_kmeans_matches_chunked_run(self, trial):
        # Re-assigning the training rows to the fitted centroids, 37 at
        # a time, gives exactly the labels the full run ended with.
        data = np.random.default_rng(trial).normal(size=(240, 10))
        plain = kmeans(data, 6, seed=trial)
        chunked = np.concatenate(
            [
                _assign(data[start : start + 37], plain.centroids)
                for start in range(0, data.shape[0], 37)
            ]
        )
        assert np.array_equal(plain.labels, chunked)


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
        repaired = _lloyd_update(
            data[None], labels[None], np.array([[3, 3, 0, 0]]),
            centroids[None],
        )[0]
        # Farthest-first: [50, 0] (dist 50 from centroid 0), then
        # [40, 0] (dist 30 from centroid 1).
        assert repaired[2].tolist() == [50.0, 0.0]
        assert repaired[3].tolist() == [40.0, 0.0]
        assert not np.array_equal(repaired[2], repaired[3])

    def test_single_empty_cluster_takes_farthest_sample(self):
        data = np.array([[0.0], [1.0], [2.0], [9.0]])
        labels = np.array([0, 0, 0, 0])
        centroids = np.array([[0.0], [100.0]])
        repaired = _lloyd_update(
            data[None], labels[None], np.array([[4, 0]]), centroids[None]
        )[0]
        assert repaired[1].tolist() == [9.0]
        ref = lloyd_update_naive(data, labels, 2, centroids)
        assert repaired.tobytes() == ref.tobytes()


# ----------------------------------------------------------------------
# Build metadata and progress events
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

    def test_file_with_an_executor_entry_still_loads(self, tmp_path):
        # Index files written while the build still had an executor
        # option record it in build_meta; they load unchanged and hold
        # the tree a build makes today.  Both sides go through a file:
        # loading lists the registry root first.
        feats = _features(17)
        old = RFSStructure.build(feats, CFG, seed=17)
        old.build_meta = dict(old.build_meta, executor="process")
        save_rfs(old, tmp_path / "old.npz")
        save_rfs(RFSStructure.build(feats, CFG, seed=17), tmp_path / "new.npz")
        restored = load_rfs(tmp_path / "old.npz", feats)
        fresh = load_rfs(tmp_path / "new.npz", feats)
        assert restored.build_meta["executor"] == "process"
        assert "executor" not in fresh.build_meta
        assert structure_digest(restored) == structure_digest(fresh)


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
