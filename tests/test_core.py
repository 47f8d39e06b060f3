"""Tests for the QD core: subqueries, sessions, ranking, presentation."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.config import QDConfig
from repro.core.presentation import QueryResult, ResultGroup
from repro.core.ranking import (
    FinalRoundPlan,
    execute_final_round,
    group_marks_by_leaf,
    merge_outcomes,
)
from repro.core.session import FeedbackSession
from repro.core.subquery import SubQuery
from repro.datasets.queryset import get_query
from repro.errors import QueryError, SessionStateError
from repro.eval.oracle import SimulatedUser
from repro.exec import SubqueryOutcome, SubqueryTask
from repro.obs import get_tracer
from repro.retrieval.topk import RankedList


class TestSubQuery:
    def test_unseen_representatives_shrink(self, rfs):
        sub = SubQuery(node=rfs.root)
        before = sub.unseen_representatives()
        sub.shown.add(before[0])
        after = sub.unseen_representatives()
        assert len(after) == len(before) - 1
        assert before[0] not in after

    def test_show_edits_the_unseen_list_in_step_with_shown(self, rfs):
        reps = rfs.root.representatives
        sub = SubQuery(node=rfs.root)
        assert sub.has_unseen
        assert sub.show([0, 2, 5]) == [reps[0], reps[2], reps[5]]
        assert sub.shown == {reps[0], reps[2], reps[5]}
        # positions index what is still unseen, not the node's list
        assert sub.show([0]) == [reps[1]]
        assert sub.unseen_representatives() == [
            r for r in reps if r not in sub.shown
        ]
        # a mark from outside show() is noticed too
        sub.shown.add(reps[3])
        assert reps[3] not in sub.unseen_representatives()
        rest = sub.show(range(len(sub.unseen_representatives())))
        assert sub.shown == set(reps) and rest == sorted(rest)
        assert not sub.has_unseen and sub.unseen_representatives() == []

    def test_query_matrix(self, rfs):
        sub = SubQuery(node=rfs.root)
        sub.marked.update([3, 1, 2])
        matrix = sub.query_matrix(rfs.features)
        assert matrix.shape == (3, rfs.features.shape[1])
        assert np.allclose(matrix[0], rfs.features[1])  # sorted order


class TestSessionLifecycle:
    def test_initial_state(self, rfs):
        session = FeedbackSession(rfs, seed=0)
        assert session.round == 0
        assert session.active_node_ids == [rfs.root.node_id]
        assert not session.finalized

    def test_display_increments_round(self, rfs):
        session = FeedbackSession(rfs, seed=0)
        shown = session.display()
        assert session.round == 1
        assert 0 < len(shown) <= QDConfig().display_size

    def test_display_respects_screens(self, rfs):
        session = FeedbackSession(rfs, seed=0)
        shown = session.display(screens=3)
        assert len(shown) <= 3 * QDConfig().display_size

    def test_display_twice_without_submit_raises(self, rfs):
        session = FeedbackSession(rfs, seed=0)
        session.display()
        with pytest.raises(SessionStateError):
            session.display()

    def test_submit_before_display_raises(self, rfs):
        session = FeedbackSession(rfs, seed=0)
        with pytest.raises(SessionStateError):
            session.submit([1])

    def test_submit_undisplayed_image_raises(self, rfs):
        session = FeedbackSession(rfs, seed=0)
        shown = session.display()
        bad = max(shown) + 10**6
        with pytest.raises(SessionStateError):
            session.submit([bad])

    def test_invalid_screens_raises(self, rfs):
        session = FeedbackSession(rfs, seed=0)
        with pytest.raises(SessionStateError):
            session.display(screens=0)

    def test_finalize_without_marks_raises(self, rfs):
        session = FeedbackSession(rfs, seed=0)
        session.display()
        session.submit([])
        with pytest.raises(SessionStateError):
            session.finalize(10)

    def test_finalize_twice_raises(self, rfs):
        session = FeedbackSession(rfs, seed=0)
        shown = session.display(screens=5)
        session.submit(shown[:2])
        session.finalize(10)
        with pytest.raises(SessionStateError):
            session.finalize(10)

    def test_refused_finalize_leaves_the_session_open(self, rfs):
        # A call refused for its arguments is not the final round: the
        # same session still finalizes afterwards.
        session = FeedbackSession(rfs, seed=0)
        shown = session.display(screens=5)
        session.submit(shown[:2])
        with pytest.raises(QueryError):
            session.finalize(0)
        assert not session.finalized
        assert len(session.finalize(10).flatten(10)) == 10
        assert session.finalized

    def test_display_after_finalize_raises(self, rfs):
        session = FeedbackSession(rfs, seed=0)
        shown = session.display(screens=5)
        session.submit(shown[:1])
        session.finalize(5)
        with pytest.raises(SessionStateError):
            session.display()

    def test_no_marks_keeps_branches_active(self, rfs):
        session = FeedbackSession(rfs, seed=0)
        session.display()
        session.submit([])
        assert session.active_node_ids == [rfs.root.node_id]

    def test_never_reshows_images_for_same_node(self, rfs):
        session = FeedbackSession(rfs, seed=0)
        first = set(session.display(screens=2))
        session.submit([])
        second = set(session.display(screens=2))
        assert not first & second


class TestSessionDecomposition:
    def test_marks_split_query_into_children(self, rfs):
        session = FeedbackSession(rfs, seed=1)
        shown = session.display(screens=50)  # see everything at the root
        # Mark two representatives routed to different children.
        root = rfs.root
        by_child: dict[int, int] = {}
        for rep in shown:
            child = root.child_of_representative(rep)
            by_child.setdefault(child.node_id, rep)
            if len(by_child) == 2:
                break
        assert len(by_child) == 2, "root needs >= 2 children for this test"
        session.submit(list(by_child.values()))
        assert session.n_subqueries == 2
        assert set(session.active_node_ids) == set(by_child)

    def test_marks_accumulate(self, rfs):
        session = FeedbackSession(rfs, seed=1)
        shown = session.display(screens=50)
        session.submit(shown[:3])
        assert len(session.marked_ids) == 3
        shown2 = session.display(screens=50)
        session.submit(shown2[:2])
        assert len(set(session.marked_ids)) >= 3

    def test_io_charged_per_active_node_per_round(self, rfs):
        session = FeedbackSession(rfs, seed=1)
        rfs.io.reset()
        session.display()
        assert rfs.io.per_category["feedback"] == 1  # just the root
        session.submit([])


class TestGroupMarksByLeaf:
    def test_groups_match_leaf_membership(self, rfs):
        marks = [0, 1, 2, 50, 100]
        groups = group_marks_by_leaf(rfs, marks)
        for leaf_id, ids in groups.items():
            leaf = rfs.get_node(leaf_id)
            for image_id in ids:
                assert image_id in leaf.item_ids

    def test_deduplicates(self, rfs):
        groups = group_marks_by_leaf(rfs, [5, 5, 5])
        total = sum(len(v) for v in groups.values())
        assert total == 1


class TestExecuteFinalRound:
    def test_result_has_k_images(self, rfs):
        result = execute_final_round(
            rfs, [0, 1, 2, 200, 300], k=30, config=QDConfig(),
            rounds_used=3,
        )
        assert len(result.all_ids()) == 30

    def test_many_leaves_return_exactly_k(self, rfs):
        # 40 marks in one leaf and one in each of 20 others: the one-
        # slot floor overshoots k = 25 by 11, and every slot of the
        # overshoot must come back off before the subqueries run.
        leaves = sorted(
            (n for n in rfs.iter_nodes() if n.is_leaf),
            key=lambda n: (-n.size, n.node_id),
        )
        marks = [int(i) for i in leaves[0].item_ids[:40]]
        marks += [int(leaf.item_ids[0]) for leaf in leaves[1:21]]
        result = execute_final_round(
            rfs, marks, k=25, config=QDConfig(), rounds_used=3
        )
        assert len(result.groups) == 21
        assert len(result.all_ids()) == 25

    def test_no_duplicate_results(self, rfs):
        result = execute_final_round(
            rfs, [0, 1, 2, 200, 300], k=50, config=QDConfig(),
            rounds_used=3,
        )
        ids = result.all_ids()
        assert len(ids) == len(set(ids))

    def test_groups_sorted_by_ranking_score(self, rfs):
        result = execute_final_round(
            rfs, [0, 50, 200, 300], k=40, config=QDConfig(),
            rounds_used=3,
        )
        scores = [g.ranking_score for g in result.groups]
        assert scores == sorted(scores)

    def test_weights_match_marks(self, rfs):
        marks = [0, 1, 2]
        result = execute_final_round(
            rfs, marks, k=12, config=QDConfig(), rounds_used=3
        )
        assert sum(g.weight for g in result.groups) == len(set(marks))

    def test_invalid_k_rejected(self, rfs):
        with pytest.raises(QueryError):
            execute_final_round(
                rfs, [0], k=0, config=QDConfig(), rounds_used=3
            )

    def test_no_marks_rejected(self, rfs):
        with pytest.raises(QueryError):
            execute_final_round(
                rfs, [], k=5, config=QDConfig(), rounds_used=3
            )

    def test_proportional_contribution(self, rfs):
        """A leaf with more marks contributes more results (§3.4)."""
        leaf_a = rfs.root
        while not leaf_a.is_leaf:
            leaf_a = leaf_a.children[0]
        leaf_b = rfs.root
        while not leaf_b.is_leaf:
            leaf_b = leaf_b.children[-1]
        assert leaf_a.node_id != leaf_b.node_id
        marks = [int(i) for i in leaf_a.item_ids[:4]]
        marks += [int(leaf_b.item_ids[0])]
        result = execute_final_round(
            rfs, marks, k=20, config=QDConfig(), rounds_used=3
        )
        by_leaf = {g.leaf_node_id: len(g) for g in result.groups}
        assert by_leaf[leaf_a.node_id] > by_leaf[leaf_b.node_id]


# One outcome per group: (quota, ranked ids).  Ids come from a pool of
# 40 so groups share many of them, and lists run short of their quota,
# so the merge both deduplicates and tops up.
_outcome_sets = st.lists(
    st.tuples(
        st.integers(1, 15),
        st.lists(st.integers(0, 39), max_size=25, unique=True),
    ),
    min_size=1,
    max_size=5,
)


class TestMergeOutcomesProperty:
    @settings(max_examples=150, deadline=None)
    @example(groups=[(10, list(range(8))), (10, list(range(8)))])
    @given(groups=_outcome_sets)
    def test_no_ranked_id_is_silently_dropped(self, rfs, groups):
        """Each ranked id is returned, or its group's quota was filled
        by ids ranked before it.

        A merge that drops an id present in one input only (a list-of-
        tuples merge that keeps only what every input shares) fails
        this.  Every returned id sits in exactly one group, and the
        top-up fills the result to ``k``.
        """
        leaves = [n for n in rfs.iter_nodes() if n.is_leaf][: len(groups)]
        tasks, outcomes = [], []
        for leaf, (quota, ranked_ids) in zip(leaves, groups):
            tasks.append(
                SubqueryTask(
                    leaf_id=leaf.node_id,
                    quota=quota,
                    query_ids=(int(leaf.item_ids[0]),),
                )
            )
            outcomes.append(
                SubqueryOutcome(
                    leaf_id=leaf.node_id,
                    search_node_id=leaf.node_id,
                    centroid=rfs.features[int(leaf.item_ids[0])],
                    ranked=RankedList.from_pairs(
                        (float(rank), image_id)
                        for rank, image_id in enumerate(ranked_ids)
                    ),
                )
            )
        k = sum(quota for quota, _ in groups)
        plan = FinalRoundPlan(k=k, tasks=tuple(tasks), uniform_merge=False)
        with get_tracer().span("merge") as span:
            result = merge_outcomes(
                rfs, plan, outcomes, rounds_used=1, merge_span=span
            )
        # Groups are presented by ranking score, not in plan order.
        returned = {
            group.leaf_node_id: set(group.items.ids())
            for group in result.groups
        }
        every = [i for ids in returned.values() for i in ids]
        assert len(every) == len(set(every)) == k
        for task, (quota, ranked_ids) in zip(tasks, groups):
            got = returned[task.leaf_id]
            for rank, image_id in enumerate(ranked_ids):
                if image_id in every:
                    continue
                ahead = got.intersection(ranked_ids[:rank])
                assert len(ahead) >= quota, (image_id, rank)


class TestPresentation:
    def _result(self):
        g1 = ResultGroup(
            leaf_node_id=1, search_node_id=1, query_image_ids=[7],
            items=RankedList.from_pairs([(0.5, 10), (0.7, 11)]),
        )
        g2 = ResultGroup(
            leaf_node_id=2, search_node_id=2, query_image_ids=[8, 9],
            items=RankedList.from_pairs([(0.1, 12), (0.2, 13)]),
        )
        return QueryResult(groups=[g1, g2], rounds_used=3)

    def test_groups_reordered_by_ranking_score(self):
        result = self._result()
        assert [g.leaf_node_id for g in result.groups] == [2, 1]

    def test_all_ids_in_group_order(self):
        assert self._result().all_ids() == [12, 13, 10, 11]

    def test_flatten_k(self):
        assert self._result().flatten(3) == [12, 13, 10]

    def test_flatten_by_score_interleaves(self):
        flat = self._result().flatten_by_score()
        assert flat.ids() == [12, 13, 10, 11]

    def test_flatten_by_score_dedupes(self):
        g1 = ResultGroup(1, 1, [0],
                         RankedList.from_pairs([(0.5, 10)]))
        g2 = ResultGroup(2, 2, [1],
                         RankedList.from_pairs([(0.1, 10)]))
        result = QueryResult(groups=[g1, g2], rounds_used=3)
        flat = result.flatten_by_score()
        assert flat.ids() == [10]
        assert flat.scores[0] == pytest.approx(0.1)

    def test_describe_mentions_groups(self):
        text = self._result().describe()
        assert "2 group(s)" in text
        assert "ranking_score" in text

    def test_ranking_score_is_item_sum(self):
        result = self._result()
        group = result.groups[0]
        assert group.ranking_score == pytest.approx(0.1 + 0.2)


class TestEngineScripted:
    def test_oracle_session_end_to_end(self, engine):
        db = engine.database
        query = get_query("rose")
        user = SimulatedUser(db, query, seed=0)
        k = db.ground_truth_size(sorted(query.relevant_categories()))
        result = engine.run_scripted(user.mark, k=k, seed=0)
        assert len(result.all_ids()) == k
        assert result.stats["n_subqueries"] >= 2

    def test_round_callback_invoked(self, engine):
        db = engine.database
        user = SimulatedUser(db, get_query("bird"), seed=1)
        seen = []
        engine.run_scripted(
            user.mark, k=20, seed=1,
            round_callback=lambda r, s: seen.append(r),
        )
        assert seen == [1, 2, 3]

    def test_timing_recorded(self, engine):
        db = engine.database
        user = SimulatedUser(db, get_query("bird"), seed=2)
        tracer, registry = obs.Tracer(), obs.MetricsRegistry()
        with obs.use_tracer(tracer), obs.use_metrics(registry):
            result = engine.run_scripted(user.mark, k=20, seed=2)
        phases = obs.phase_durations(tracer)
        assert {p: len(v) for p, v in phases.items()} == {
            "initial": 1, "iteration": 2, "final_knn": 1,
        }
        for phase in phases:
            # One observation per phase per session, summing its rounds.
            hist = registry.histogram(
                "qd_phase_seconds", labels={"phase": phase}
            )
            assert hist.count == 1
            assert result.stats[f"time_{phase}"] == hist.sum > 0.0

    def test_rounds_override(self, engine):
        db = engine.database
        user = SimulatedUser(db, get_query("bird"), seed=3)
        result = engine.run_scripted(
            user.mark, k=20, rounds=2, seed=3,
            screens_per_round=(50, 50),
        )
        assert result.rounds_used == 2
