"""Localized subquery state.

A :class:`SubQuery` is one branch of the decomposed query: an RFS node
being explored plus the relevant images the user has identified inside
that node's subtree.  The initial query is a single subquery at the root;
each feedback round can split a subquery into several (one per relevant
child) — the decomposition of §3.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Set

import numpy as np

from repro.core.session_state import SubQueryState
from repro.index.rfs import RFSNode
from repro.obs import get_metrics


@dataclass
class SubQuery:
    """One active branch of the decomposed query.

    The not-yet-displayed representatives are kept as a list that
    :meth:`show` shrinks by the screen it displays, so a feedback round
    costs what it shows and marks, not a walk over the node's whole
    representative list (750 ids at the root of a 15k-image tree).

    Attributes
    ----------
    node:
        The RFS node this subquery explores.
    marked:
        Relevant image ids the user identified among this node's
        displayed representatives (cumulative over rounds).
    shown:
        Representative ids already displayed to the user for this node,
        so repeated browsing never re-shows an image.  It only ever
        receives ids of ``node.representatives``, which is free of
        duplicates (built as ``sorted(set(...))``): that is what lets
        :attr:`has_unseen` compare two lengths.
    """

    node: RFSNode
    marked: Set[int] = field(default_factory=set)
    shown: Set[int] = field(default_factory=set)
    #: ``unseen_representatives()`` as of ``len(shown) == _unseen_at``
    #: (``shown`` only grows, so a different length means it was added
    #: to from outside :meth:`show` and the list is rebuilt).
    _unseen: List[int] = field(
        default_factory=list, init=False, repr=False, compare=False
    )
    _unseen_at: int = field(default=-1, init=False, repr=False, compare=False)
    #: What :meth:`frozen` last returned.  Its tuples stand for the
    #: sets while their lengths match, as both sets only grow.
    _state: SubQueryState = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._state = SubQueryState(self.node.node_id, (), ())

    @property
    def node_id(self) -> int:
        """Identifier of the explored node."""
        return self.node.node_id

    @property
    def is_leaf(self) -> bool:
        """Whether the subquery has reached the bottom of the hierarchy."""
        return self.node.is_leaf

    @property
    def has_unseen(self) -> bool:
        """Whether any representative is still undisplayed, in O(1)."""
        return len(self.shown) < len(self.node.representatives)

    def unseen_representatives(self) -> List[int]:
        """Representatives of the node not yet displayed, in node order.

        The list is the subquery's own and :meth:`show` edits it in
        place: read it, do not keep or change it.
        """
        shown = self.shown
        if self._unseen_at != len(shown):
            reps = self.node.representatives
            self._unseen = (
                [r for r in reps if r not in shown] if shown else list(reps)
            )
            self._unseen_at = len(shown)
        return self._unseen

    def show(self, positions: Sequence[int]) -> List[int]:
        """Display the unseen representatives at ``positions``.

        ``positions`` index :meth:`unseen_representatives`, ascending
        and distinct.  Returns the ids in that order; they are
        ``shown`` from now on.
        """
        unseen = self.unseen_representatives()
        reps = [unseen[i] for i in positions]
        for i in reversed(positions):
            del unseen[i]
        self.shown.update(reps)
        self._unseen_at = len(self.shown)
        return reps

    def frozen(self) -> SubQueryState:
        """This branch as a record: its ids sorted, in fresh tuples.

        A tuple whose set has not grown since the last call is that
        call's very tuple, and the record is the same object when
        neither set grew; records are frozen, so sharing them is safe.
        """
        state = self._state
        marked, shown = state.marked, state.shown
        if len(marked) != len(self.marked):
            marked = tuple(sorted(self.marked))
        if len(shown) != len(self.shown):
            shown = tuple(sorted(self.shown))
        if marked is not state.marked or shown is not state.shown:
            state = self._state = SubQueryState(state.node_id, marked, shown)
        return state

    def query_matrix(self, features: np.ndarray) -> np.ndarray:
        """Feature vectors of the marked relevant images."""
        ids = sorted(self.marked)
        get_metrics().histogram(
            "qd_subquery_points", "query points per localized subquery"
        ).observe(len(ids))
        return features[np.asarray(ids, dtype=np.int64)]
