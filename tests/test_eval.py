"""Tests for the evaluation harness: metrics, oracle, protocols, reports."""

import pytest

from repro.baselines import GlobalKNN, MultipleViewpoints
from repro.datasets.queryset import get_query
from repro.errors import EvaluationError
from repro.eval.metrics import (
    gtir,
    precision_at,
    recall_at,
    retrieved_subconcepts,
)
from repro.eval.oracle import SimulatedUser
from repro.eval.protocol import (
    default_k,
    run_baseline_session,
    run_qd_session,
)
from repro.eval.reporting import format_series, format_table


class TestMetrics:
    def test_precision_perfect(self, rendered_db):
        query = get_query("rose")
        ids = rendered_db.ids_of_category("rose_red")[:10]
        assert precision_at(
            [int(i) for i in ids], rendered_db, query
        ) == 1.0

    def test_precision_zero(self, rendered_db):
        query = get_query("rose")
        ids = rendered_db.ids_of_category("bird_owl")[:10]
        assert precision_at(
            [int(i) for i in ids], rendered_db, query
        ) == 0.0

    def test_precision_empty_retrieved(self, rendered_db):
        assert precision_at([], rendered_db, get_query("rose")) == 0.0

    def test_precision_mixed(self, rendered_db):
        query = get_query("rose")
        good = [int(i) for i in rendered_db.ids_of_category("rose_red")[:5]]
        bad = [int(i) for i in rendered_db.ids_of_category("bird_owl")[:5]]
        assert precision_at(good + bad, rendered_db, query) == 0.5

    def test_recall(self, rendered_db):
        query = get_query("laptop")
        all_ids = [
            int(i)
            for i in rendered_db.ids_of_categories(
                sorted(query.relevant_categories())
            )
        ]
        assert recall_at(all_ids, rendered_db, query) == 1.0
        assert recall_at(all_ids[: len(all_ids) // 2],
                         rendered_db, query) == pytest.approx(
            (len(all_ids) // 2) / len(all_ids)
        )

    def test_precision_equals_recall_at_gt_size(self, rendered_db):
        """§5.2.1: retrieved count == ground truth size → P == R."""
        query = get_query("rose")
        k = default_k(rendered_db, query)
        red = [int(i) for i in rendered_db.ids_of_category("rose_red")]
        distractors = [
            i for i in range(rendered_db.size)
            if rendered_db.category_of(i) not in
            query.relevant_categories()
        ]
        ids = (red + distractors)[:k]
        assert len(ids) == k
        assert precision_at(ids, rendered_db, query) == pytest.approx(
            recall_at(ids, rendered_db, query)
        )

    def test_gtir_full(self, rendered_db):
        query = get_query("rose")
        ids = [int(rendered_db.ids_of_category("rose_red")[0]),
               int(rendered_db.ids_of_category("rose_yellow")[0])]
        assert gtir(ids, rendered_db, query) == 1.0

    def test_gtir_partial(self, rendered_db):
        query = get_query("bird")
        ids = [int(rendered_db.ids_of_category("bird_owl")[0])]
        assert gtir(ids, rendered_db, query) == pytest.approx(1 / 3)

    def test_gtir_grouped_subconcept(self, rendered_db):
        """Any sedan pose counts for the 'modern sedan' subconcept."""
        query = get_query("car")
        ids = [int(rendered_db.ids_of_category("sedan_back")[0])]
        assert gtir(ids, rendered_db, query) == pytest.approx(1 / 3)

    def test_gtir_min_hits(self, rendered_db):
        query = get_query("rose")
        ids = [int(rendered_db.ids_of_category("rose_red")[0])]
        assert gtir(ids, rendered_db, query, min_hits=2) == 0.0

    def test_gtir_invalid_min_hits(self, rendered_db):
        with pytest.raises(EvaluationError):
            gtir([], rendered_db, get_query("rose"), min_hits=0)

    def test_retrieved_subconcepts_names(self, rendered_db):
        query = get_query("bird")
        ids = [int(rendered_db.ids_of_category("bird_owl")[0]),
               int(rendered_db.ids_of_category("bird_eagle")[0])]
        assert retrieved_subconcepts(ids, rendered_db, query) == {
            "owl", "eagle",
        }


class TestSimulatedUser:
    def test_marks_exactly_relevant(self, rendered_db):
        query = get_query("rose")
        user = SimulatedUser(
            rendered_db, query, seed=0, max_marks_per_category=None
        )
        red = [int(i) for i in rendered_db.ids_of_category("rose_red")[:5]]
        owl = [int(i) for i in rendered_db.ids_of_category("bird_owl")[:5]]
        assert user.mark(red + owl) == red

    def test_category_cap_limits_marks(self, rendered_db):
        """Default user marks a handful per category per round."""
        query = get_query("rose")
        user = SimulatedUser(rendered_db, query, seed=0)
        red = [int(i) for i in rendered_db.ids_of_category("rose_red")]
        assert len(user.mark(red)) == 3

    def test_category_cap_resets_each_round(self, rendered_db):
        query = get_query("rose")
        user = SimulatedUser(rendered_db, query, seed=0)
        red = [int(i) for i in rendered_db.ids_of_category("rose_red")]
        first = user.mark(red[:10])
        second = user.mark(red[10:20])
        assert len(first) == 3 and len(second) == 3

    def test_invalid_cap_rejected(self, rendered_db):
        with pytest.raises(ValueError):
            SimulatedUser(
                rendered_db, get_query("rose"), max_marks_per_category=0
            )

    def test_miss_rate_drops_some(self, rendered_db):
        query = get_query("rose")
        user = SimulatedUser(
            rendered_db, query, seed=0, miss_rate=0.5,
            max_marks_per_category=None,
        )
        red = [int(i) for i in rendered_db.ids_of_category("rose_red")]
        marked = user.mark(red)
        assert 0 < len(marked) < len(red)

    def test_false_mark_rate_adds_some(self, rendered_db):
        query = get_query("rose")
        user = SimulatedUser(
            rendered_db, query, seed=0, false_mark_rate=0.5
        )
        owl = [int(i) for i in rendered_db.ids_of_category("bird_owl")]
        assert len(user.mark(owl)) > 0

    def test_invalid_rates_rejected(self, rendered_db):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            SimulatedUser(rendered_db, get_query("rose"), miss_rate=1.5)

    def test_pick_example_from_subconcept(self, rendered_db):
        query = get_query("bird")
        user = SimulatedUser(rendered_db, query, seed=0)
        ex = user.pick_example(subconcept_index=1)  # owl
        assert rendered_db.category_of(ex) == "bird_owl"

    def test_relevant_ids_matches_ground_truth(self, rendered_db):
        query = get_query("rose")
        user = SimulatedUser(rendered_db, query, seed=0)
        expected = set(
            int(i)
            for i in rendered_db.ids_of_categories(
                sorted(query.relevant_categories())
            )
        )
        assert user.relevant_ids() == expected

    def test_deterministic(self, rendered_db):
        query = get_query("rose")
        shown = [int(i) for i in
                 rendered_db.ids_of_category("rose_red")[:20]]
        a = SimulatedUser(rendered_db, query, seed=5, miss_rate=0.3)
        b = SimulatedUser(rendered_db, query, seed=5, miss_rate=0.3)
        assert a.mark(shown) == b.mark(shown)


class TestProtocols:
    def test_default_k_is_ground_truth_size(self, rendered_db):
        query = get_query("rose")
        assert default_k(rendered_db, query) == (
            rendered_db.ids_of_category("rose_red").shape[0]
            + rendered_db.ids_of_category("rose_yellow").shape[0]
        )

    def test_qd_session_records_per_round(self, engine):
        result, records = run_qd_session(
            engine, get_query("bird"), seed=1
        )
        assert len(records) == 3
        assert records[0].precision is None
        assert records[1].precision is None
        assert records[2].precision is not None
        assert [r.round for r in records] == [1, 2, 3]

    def test_qd_gtir_monotone_nondecreasing(self, engine):
        _, records = run_qd_session(engine, get_query("bird"), seed=2)
        gtirs = [r.gtir for r in records]
        assert all(a <= b + 1e-9 for a, b in zip(gtirs, gtirs[1:]))

    def test_qd_result_size(self, engine):
        query = get_query("rose")
        result, _ = run_qd_session(engine, query, k=30, seed=3)
        assert len(result.flatten(30)) == 30

    def test_baseline_session_records(self, rendered_db):
        technique = GlobalKNN(rendered_db, seed=0)
        records = run_baseline_session(
            technique, get_query("bird"), rounds=3, seed=0
        )
        assert len(records) == 3
        assert all(0.0 <= r.precision <= 1.0 for r in records)
        assert all(0.0 <= r.gtir <= 1.0 for r in records)

    def test_baseline_fixed_example_subconcept(self, rendered_db):
        technique = GlobalKNN(rendered_db, seed=0)
        records = run_baseline_session(
            technique, get_query("bird"), rounds=1, seed=0,
            example_subconcept=1,
        )
        assert records[0].gtir >= 1 / 3  # found at least its own cluster

    def test_qd_beats_mv_on_scattered_query(self, engine):
        """The paper's headline comparison at test scale."""
        query = get_query("bird")
        result, _ = run_qd_session(engine, query, seed=5)
        mv = MultipleViewpoints(engine.database, seed=5)
        mv_records = run_baseline_session(mv, query, rounds=3, seed=5)
        assert result.stats["gtir"] > mv_records[-1].gtir
        assert result.stats["precision"] > mv_records[-1].precision


class TestReporting:
    def test_format_table_alignment(self):
        out = format_table(
            ["name", "value"],
            [("alpha", 1.0), ("b", 0.5)],
            title="T",
        )
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "alpha" in out and "0.500" in out
        # All data lines equal width.
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1

    def test_format_table_none_rendered_as_na(self):
        out = format_table(["a"], [(None,)])
        assert "n/a" in out

    def test_format_series(self):
        out = format_series("x", ["y"], [(1, 0.5), (2, 1.0)])
        assert "0.50000" in out
