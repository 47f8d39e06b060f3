"""The array ranking path against its tuple-and-set reference.

Every ordering of the final round goes through one function,
:func:`repro.retrieval.topk.rank`, over ``(ids, scores)`` arrays.  The
reference in ``tests/reference_ranking.py`` is the form it replaced:
``(score, id)`` tuple lists, a set of claimed ids, ``RankedItem``
lists sorted with a lambda.  The two must agree id for id and bit for
bit — each group's ids, scores, search node and ranking score, and the
group order — on random outcome sets with ids shared across groups,
through the top-up and promotion passes, with live delta rows and
tombstones, and across a 2-shard gather.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MutationConfig, QDConfig, RFSConfig
from repro.core.engine import QueryDecompositionEngine
from repro.core.ranking import (
    FinalRoundPlan,
    merge_outcomes,
    plan_final_round,
)
from repro.datasets.build import build_synthetic_database
from repro.exec import SubqueryOutcome, SubqueryTask
from repro.exec.executors import run_subquery_task
from repro.obs import get_tracer
from repro.retrieval.topk import RankedList
from repro.shard import ShardedEngine
from tests.reference_ranking import (
    pairs_of,
    reference_merge_outcomes,
    reference_sorted_cut,
    reference_total_score,
)

SEED = 1129
N_IMAGES = 400
CFG = RFSConfig(node_max_entries=40, leaf_subclusters=3)
_SETTINGS = settings(max_examples=60, deadline=None)


@pytest.fixture(scope="module")
def database():
    return build_synthetic_database(N_IMAGES, n_categories=20, seed=SEED)


def _mutate(engine, database):
    """Live delta rows near existing ones, and main rows tombstoned."""
    rng = np.random.default_rng(7)
    for row in rng.integers(N_IMAGES, size=25):
        engine.insert_image(
            database.features[row]
            + rng.normal(scale=0.05, size=database.dims)
        )
    for victim in rng.choice(N_IMAGES, size=30, replace=False):
        engine.remove_image(int(victim))


@pytest.fixture(scope="module")
def plain(database):
    with QueryDecompositionEngine.build(
        database, CFG, QDConfig(), seed=SEED
    ) as engine:
        yield engine.rfs


@pytest.fixture(scope="module")
def mutated(database):
    with QueryDecompositionEngine.build(
        database,
        CFG,
        QDConfig(),
        seed=SEED,
        mutations=MutationConfig(),
    ) as engine:
        _mutate(engine, database)
        yield engine.rfs


@pytest.fixture(scope="module")
def sharded(database):
    with ShardedEngine.build(
        database,
        CFG,
        QDConfig(),
        shards=2,
        seed=SEED,
        mutations=MutationConfig(),
    ) as engine:
        _mutate(engine, database)
        yield engine.rfs


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _assert_same_result(rfs, plan, outcomes):
    """merge_outcomes == the reference merge over the same outcomes."""
    with get_tracer().span("merge") as span:
        result = merge_outcomes(
            rfs, plan, outcomes, rounds_used=1, merge_span=span
        )
    want = reference_merge_outcomes(
        rfs,
        plan,
        [pairs_of(outcome.ranked) for outcome in outcomes],
        [outcome.search_node_id for outcome in outcomes],
        [outcome.centroid for outcome in outcomes],
        lambda node, centroid, fetch: pairs_of(
            rfs.localized_knn(node, centroid, fetch)
        ),
    )
    assert len(result.groups) == len(want)
    for group, (leaf_id, search_node_id, items) in zip(result.groups, want):
        assert group.leaf_node_id == leaf_id
        assert group.search_node_id == search_node_id
        assert group.items.ids() == [it.item_id for it in items]
        assert group.items.scores.tobytes() == _bits(
            [it.score for it in items]
        )
        assert group.ranking_score.hex() == (
            reference_total_score(items).hex()
        )
    return result


#: Scores from a small set, so ties — inside a ranking and across
#: groups — are common, or any double, so a group's ranking score
#: depends on the order it is summed in.
_scores = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 0.5 + 2**-52, 1.0, 3.0]),
    st.floats(0.0, 10.0),
)

_outcome_sets = st.lists(
    st.tuples(
        # quotas past a leaf's size force the promotion pass
        st.integers(1, 60),
        st.lists(
            st.tuples(_scores, st.integers(0, N_IMAGES - 1)),
            max_size=30,
            unique_by=lambda pair: pair[1],
        ),
    ),
    min_size=1,
    max_size=5,
)


def _synthetic_round(rfs, groups):
    """A plan and outcomes over the first leaves, one per group."""
    leaves = [n for n in rfs.iter_nodes() if n.is_leaf][: len(groups)]
    tasks, outcomes = [], []
    for leaf, (quota, pairs) in zip(leaves, groups):
        member = int(leaf.item_ids[0])
        tasks.append(
            SubqueryTask(
                leaf_id=leaf.node_id, quota=quota, query_ids=(member,)
            )
        )
        outcomes.append(
            SubqueryOutcome(
                leaf_id=leaf.node_id,
                search_node_id=leaf.node_id,
                centroid=rfs.features[member],
                ranked=RankedList.from_pairs(pairs),
            )
        )
    k = sum(quota for quota, _ in groups)
    return FinalRoundPlan(k=k, tasks=tuple(tasks), uniform_merge=False), (
        outcomes
    )


def _real_round(rfs, database, seed, k):
    """A plan from marks in two categories, and its scanned outcomes."""
    rng = np.random.default_rng(seed)
    labels = rng.choice(np.unique(database.labels), size=2, replace=False)
    view = rfs.delta_view()
    dead = set() if view is None else set(view.dead_main.tolist())
    marks = [
        int(i)
        for label in labels
        for i in np.flatnonzero(database.labels == label)[:6]
        if int(i) not in dead
    ]
    plan = plan_final_round(rfs, marks, k)
    outcomes = [run_subquery_task(rfs, QDConfig(), t) for t in plan.tasks]
    return plan, outcomes


class TestMergeOracle:
    @_SETTINGS
    @given(groups=_outcome_sets)
    def test_random_outcome_sets(self, plain, groups):
        plan, outcomes = _synthetic_round(plain, groups)
        _assert_same_result(plain, plan, outcomes)

    @_SETTINGS
    @given(groups=_outcome_sets)
    def test_random_outcome_sets_over_live_delta_rows(
        self, mutated, groups
    ):
        plan, outcomes = _synthetic_round(mutated, groups)
        _assert_same_result(mutated, plan, outcomes)

    @_SETTINGS
    @given(groups=_outcome_sets)
    def test_random_outcome_sets_over_two_shards(self, sharded, groups):
        plan, outcomes = _synthetic_round(sharded, groups)
        _assert_same_result(sharded, plan, outcomes)

    @pytest.mark.parametrize("k", [5, 60, 300, N_IMAGES])
    @pytest.mark.parametrize("deployment", ["plain", "mutated", "sharded"])
    def test_scanned_final_rounds(self, request, database, deployment, k):
        rfs = request.getfixturevalue(deployment)
        for seed in range(4):
            plan, outcomes = _real_round(rfs, database, seed, k)
            result = _assert_same_result(rfs, plan, outcomes)
            ids = [i for group in result.groups for i in group.items.ids()]
            assert len(ids) == len(set(ids))


class TestScanOracle:
    @pytest.mark.parametrize("k", [1, 9, 40, 500])
    def test_delta_merge_is_the_sorted_pool(self, mutated, k):
        view = mutated.delta_view()
        assert view.live_count and view.n_dead_main
        rng = np.random.default_rng(k)
        for node in mutated.iter_nodes():
            query = rng.normal(size=mutated.features.shape[1])
            fetch = min(k, mutated.effective_node_size(node))
            if fetch < 1:
                continue
            main = mutated.localized_knn(
                node, query, fetch, include_delta=False
            )
            sel = view.live_under(
                mutated._leaf_ids_under(node), node.node_id
            )
            delta = list(
                zip(
                    mutated._delta_distances(view, sel, query).tolist(),
                    (view.base_rows + sel).tolist(),
                )
            )
            want = reference_sorted_cut(pairs_of(main) + delta, fetch)
            got = mutated.localized_knn(node, query, fetch)
            assert pairs_of(got) == want
            assert got.scores.tobytes() == _bits([s for s, _ in want])

    @pytest.mark.parametrize("k", [1, 9, 40, 500])
    def test_two_shard_gather_is_the_sorted_union(self, sharded, k):
        rng = np.random.default_rng(k)
        for node in sharded.iter_nodes():
            query = rng.normal(size=sharded.features.shape[1])
            main = sharded.localized_knn(
                node, query, k, include_delta=False
            )
            take = len(main)
            partials = [
                pairs_of(shard.localized_knn(node.node_id, query, take))
                for shard in sharded.shards
                if take and shard.covers(node.node_id)
            ]
            want = reference_sorted_cut(
                [pair for partial in partials for pair in partial], take
            )
            assert pairs_of(main) == want
            assert main.scores.tobytes() == _bits([s for s, _ in want])
