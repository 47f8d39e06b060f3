"""Property-based tests on the feedback-session state machine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import QDConfig, RFSConfig
from repro.core.session import FeedbackSession
from repro.index.rfs import RFSStructure


@pytest.fixture(scope="module")
def session_rfs():
    feats = np.random.default_rng(5).normal(size=(500, 10))
    return RFSStructure.build(
        feats,
        RFSConfig(node_max_entries=50,
                  leaf_subclusters=3),
        seed=5,
    )


class TestSessionInvariants:
    @given(
        st.lists(
            st.tuples(
                st.integers(1, 4),          # screens this round
                st.floats(0.0, 1.0),        # fraction of shown to mark
            ),
            min_size=1,
            max_size=5,
        ),
        st.integers(0, 100),
    )
    @settings(max_examples=20, deadline=None)
    def test_random_sessions_keep_invariants(
        self, session_rfs, rounds, seed
    ):
        rng = np.random.default_rng(seed)
        session = FeedbackSession(session_rfs, QDConfig(), seed=seed)
        all_shown: set[int] = set()
        for screens, fraction in rounds:
            shown = session.display(screens=screens)
            all_shown.update(shown)
            n_marks = int(round(fraction * len(shown)))
            marks = (
                [shown[int(i)] for i in
                 rng.choice(len(shown), size=n_marks, replace=False)]
                if shown and n_marks
                else []
            )
            session.submit(marks)

            # Invariant: marks are a subset of everything ever shown.
            assert set(session.marked_ids) <= all_shown
            # Invariant: active nodes cover pairwise-disjoint subtrees.
            actives = [
                session_rfs.get_node(i) for i in session.active_node_ids
            ]
            for i, a in enumerate(actives):
                sa = set(a.item_ids.tolist())
                for b in actives[i + 1:]:
                    sb = set(b.item_ids.tolist())
                    nested = sa <= sb or sb <= sa
                    assert nested or not (sa & sb), (
                        "active subtrees overlap without nesting"
                    )
        if session.marked_ids:
            result = session.finalize(25)
            ids = result.flatten(25)
            # Result ids are unique and drawn from the database.
            assert len(ids) == len(set(ids))
            assert all(
                0 <= i < session_rfs.features.shape[0] for i in ids
            )

    @given(st.integers(0, 50))
    @settings(max_examples=10, deadline=None)
    def test_display_never_repeats_per_node(self, session_rfs, seed):
        # One screen leaves unseen root representatives for the next
        # (two would show them all, and a user who marked nothing then
        # starts browsing the root over).
        session = FeedbackSession(session_rfs, QDConfig(), seed=seed)
        first = session.display(screens=1)
        session.submit([])
        second = session.display(screens=2)
        assert second
        assert not set(first) & set(second)

    @given(st.integers(0, 50))
    @settings(max_examples=10, deadline=None)
    def test_round_counter_monotone(self, session_rfs, seed):
        session = FeedbackSession(session_rfs, QDConfig(), seed=seed)
        for expected in (1, 2, 3):
            session.display()
            assert session.round == expected
            session.submit([])
