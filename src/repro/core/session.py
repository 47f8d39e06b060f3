"""The multi-round Query Decomposition feedback session (paper §3.2).

Session lifecycle::

    session = FeedbackSession(rfs, config, seed=0)
    shown = session.display(screens=2)     # representative images
    session.submit(relevant_ids)           # user marks relevant ones
    ...                                    # repeat for more rounds
    result = session.finalize(k=120)       # localized k-NN + merge

Each round the session shows representative images of every *active*
node — initially just the root.  For every image the user marks relevant,
the session records it against the leaf subcluster containing it and
activates the child node it routes to, splitting the query into multiple
localized subqueries.  No k-NN computation happens until
:meth:`FeedbackSession.finalize`.

I/O model: displaying a node's representatives costs one simulated page
read per node per round (all routing information is self-contained in the
node — §5.2.2); the final localized queries read the leaf pages they
scan.
"""

from __future__ import annotations

import time
import uuid
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Set

from repro.config import QDConfig
from repro.core.presentation import QueryResult
from repro.core.ranking import execute_final_round
from repro.core.session_state import (
    ANY_RECORD,
    SessionState,
    config_fingerprint,
    rng_record,
)
from repro.core.subquery import SubQuery
from repro.errors import SessionStateError, StaleSessionError
from repro.exec import SubqueryExecutor
from repro.index.rfs import RFSStructure
from repro.obs import get_metrics, get_tracer
from repro.utils.rng import RandomState, ensure_rng

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.sessionstore import SessionStore
    from repro.sessionstore.base import Record


class FeedbackSession:
    """One interactive Query Decomposition query.

    Parameters
    ----------
    rfs:
        The RFS structure over the image database.
    config:
        QD parameters (display size, boundary threshold, round budget).
    seed:
        Randomness source for the "Random" browse function.
    executor:
        Optional :class:`repro.exec.SubqueryExecutor` for the final
        subquery fan-out (e.g. the engine's persistent pool).  When
        omitted, :meth:`finalize` builds one from ``config.executor``.
    session_id:
        Stable identifier the session is checkpointed and resumed
        under; autogenerated (uuid hex) when omitted.
    store:
        Optional :class:`repro.sessionstore.SessionStore`.  When bound,
        the session auto-checkpoints after every :meth:`submit` and
        removes its record when :meth:`finalize` completes, so a
        crashed or re-routed worker can always resume from the last
        completed feedback round.
    """

    def __init__(
        self,
        rfs: RFSStructure,
        config: Optional[QDConfig] = None,
        *,
        seed: RandomState = None,
        executor: Optional[SubqueryExecutor] = None,
        session_id: Optional[str] = None,
        store: Optional["SessionStore"] = None,
    ) -> None:
        self.rfs = rfs
        self.config = config or QDConfig()
        self._executor = executor
        self._rng = ensure_rng(seed)
        self.session_id = session_id or uuid.uuid4().hex
        self._store = store
        self._created_unix = time.time()
        root = rfs.root
        self._active: Dict[int, SubQuery] = {
            root.node_id: SubQuery(node=root)
        }
        self._display_owner: Dict[int, int] = {}
        self._marked: Set[int] = set()
        self.round = 0
        self.finalized = False
        self._awaiting_feedback = False
        #: The stored record this session's next write replaces: what
        #: its last checkpoint stored or its resume read; ``None`` while
        #: none exists; :data:`ANY_RECORD` when restored from a bare
        #: record (it writes over whatever is stored).
        self.stored_record: Any = None
        #: Structure version of the last checkpoint this object wrote
        #: (``None`` before the first one).
        self.checkpoint_version: Optional[int] = None

    # ------------------------------------------------------------------
    @property
    def active_node_ids(self) -> List[int]:
        """Ids of the RFS nodes currently being explored."""
        return sorted(self._active)

    @property
    def marked_ids(self) -> List[int]:
        """All relevant image ids identified so far."""
        return sorted(self._marked)

    @property
    def n_subqueries(self) -> int:
        """Current number of localized subqueries (active branches)."""
        return len(self._active)

    # ------------------------------------------------------------------
    def display(self, screens: int = 1) -> List[int]:
        """Show representative images from every active node.

        ``screens`` emulates the prototype's "Random" browse button: the
        user views up to ``screens`` × ``display_size`` randomly chosen,
        not-yet-seen representatives per active node.  Returns the union
        of displayed image ids.  Reading a node's representative list
        costs one simulated page access per node.
        """
        if self.finalized:
            raise SessionStateError("session already finalized")
        if self._awaiting_feedback:
            raise SessionStateError(
                "submit() feedback for the current display first"
            )
        if screens < 1:
            raise SessionStateError(f"screens must be >= 1, got {screens}")
        self.round += 1
        self._display_owner.clear()
        budget = screens * self.config.display_size
        shown: List[int] = []
        io = self.rfs.io
        physical_before = io.physical_reads
        with get_tracer().span(
            "display", round=self.round, nodes=len(self._active)
        ) as span:
            for node_id in sorted(self._active):
                sub = self._active[node_id]
                io.access(node_id, "feedback")
                unseen = sub.unseen_representatives()
                if not unseen:
                    continue
                take = min(budget, len(unseen))
                picks = self._rng.choice(
                    len(unseen), size=take, replace=False
                )
                reps = sub.show(sorted(picks.tolist()))
                # A representative can appear in several ancestors'
                # lists, but active nodes cover disjoint subtrees, so
                # each rep has a single owner within a round.
                self._display_owner.update(dict.fromkeys(reps, node_id))
                shown.extend(reps)
            span.set(
                shown=len(shown),
                pages_read=io.physical_reads - physical_before,
            )
        get_metrics().histogram(
            "qd_representatives_shown", "images displayed per round"
        ).observe(len(shown))
        self._awaiting_feedback = True
        return shown

    def submit(self, relevant_ids: Iterable[int]) -> None:
        """Record the user's relevance marks and decompose the query.

        Every marked image must have been displayed this round;
        anything else raises :class:`SessionStateError` **before any
        state changes** — validation is atomic, so a rejected batch
        never leaves partial marks or corrupted ``_display_owner``
        routing behind, and the caller may simply re-submit a corrected
        batch.
        """
        if self.finalized:
            raise SessionStateError("session already finalized")
        if not self._awaiting_feedback:
            raise SessionStateError("display() a screen before submitting")
        # Atomic validation: coerce and check every id against this
        # round's display before touching any session state.
        ids: List[int] = []
        for raw_id in relevant_ids:
            try:
                image_id = int(raw_id)
            except (TypeError, ValueError) as exc:
                raise SessionStateError(
                    f"relevant ids must be integers, got {raw_id!r}"
                ) from exc
            if image_id not in self._display_owner:
                raise SessionStateError(
                    f"image {image_id} was not displayed this round"
                )
            ids.append(image_id)
        tracer = get_tracer()
        metrics = get_metrics()
        new_active: Dict[int, SubQuery] = {}
        n_marked_now = 0
        n_splits = 0
        with tracer.span("feedback", round=self.round) as span:
            for image_id in ids:
                owner_id = self._display_owner[image_id]
                self._marked.add(image_id)
                n_marked_now += 1
                owner = self._active[owner_id]
                owner.marked.add(image_id)
                if owner.is_leaf:
                    # Bottom of the hierarchy: the branch stays active so
                    # the user can keep refining until the final round.
                    new_active.setdefault(owner_id, owner)
                else:
                    child = owner.node.child_of_representative(image_id)
                    existing = new_active.get(child.node_id)
                    if existing is None:
                        new_active[child.node_id] = SubQuery(node=child)
                        span.event(
                            "subquery_split",
                            parent=owner_id,
                            child=child.node_id,
                            image=image_id,
                        )
                        n_splits += 1
                    new_active[child.node_id].marked.add(image_id)
                    # The marked cluster itself remains under exploration
                    # while it has representatives the user has not seen
                    # (§3.2: "this process can be repeated with additional
                    # rounds of random displays to select additional
                    # relevant images").
                    if owner.has_unseen:
                        new_active.setdefault(owner_id, owner)
            # Branches without any marks this round are discarded (§3.2:
            # decomposition discards irrelevant subclusters); if nothing
            # was marked at all, the current branches stay active so the
            # user can browse more screens next round.
            if new_active:
                self._active = new_active
            span.set(
                marked=n_marked_now,
                splits=n_splits,
                subqueries=len(self._active),
            )
        metrics.counter(
            "qd_feedback_rounds_total", "feedback rounds executed"
        ).inc()
        if n_splits:
            metrics.counter(
                "qd_subquery_splits_total", "query decompositions"
            ).inc(n_splits)
        metrics.histogram(
            "qd_representatives_marked", "images marked per round"
        ).observe(n_marked_now)
        metrics.histogram(
            "qd_subqueries_per_round", "active branches after feedback"
        ).observe(len(self._active))
        self._awaiting_feedback = False
        # The screen is spent: submit() needs awaiting_feedback and
        # display() starts from an empty map, so nothing can read it
        # again and the record below need not carry it.
        self._display_owner.clear()
        # Externalized state: after each completed feedback round the
        # session is durably resumable by any worker.
        if self._store is not None:
            self.checkpoint()

    def finalize(
        self,
        k: int,
        *,
        uniform_merge: bool = False,
    ) -> QueryResult:
        """Run the localized multipoint k-NN subqueries and merge.

        Ends the session.  The independent subqueries are dispatched
        through the session's executor (``config.executor``: serial,
        thread pool, or process pool — the ranking is bit-identical
        either way).  ``uniform_merge`` replaces the paper's
        mark-proportional result allocation with equal shares (used by
        the merge-rule ablation).  Raises :class:`SessionStateError`
        when no relevant image was ever marked.  A call refused for its
        arguments (``k < 1`` raises :class:`~repro.errors.QueryError`)
        leaves the session open.
        """
        if self.finalized:
            raise SessionStateError("session already finalized")
        if not self._marked:
            raise SessionStateError(
                "cannot finalize: no relevant images were marked"
            )
        io = self.rfs.io
        physical_before = io.physical_reads
        with get_tracer().span(
            "final_round",
            k=k,
            marked=len(self._marked),
        ) as span:
            result = execute_final_round(
                self.rfs,
                self.marked_ids,
                k,
                self.config,
                rounds_used=self.round,
                uniform_merge=uniform_merge,
                executor=self._executor,
            )
            self.finalized = True
            span.set(
                groups=result.n_groups,
                pages_read=io.physical_reads - physical_before,
            )
        result.stats["n_marked"] = float(len(self._marked))
        result.stats["n_subqueries"] = float(result.n_groups)
        # A finalized session is complete: its externalized record is
        # removed so the store only ever holds resumable dialogues —
        # the record this session read, never one written since.
        known = self.stored_record
        if self._store is not None and known is not None:
            removed = self._store.delete(self.session_id, replacing=known)
            if not removed and known is not ANY_RECORD:
                raise StaleSessionError(
                    f"session {self.session_id!r} was written by another "
                    "request since this one read it; its record stays"
                )
        return result

    # ------------------------------------------------------------------
    # Externalized state: capture / checkpoint / restore
    # ------------------------------------------------------------------
    @property
    def store(self) -> Optional["SessionStore"]:
        """The bound session store, if any."""
        return self._store

    def bind_store(self, store: Optional["SessionStore"]) -> None:
        """Bind (or unbind, with ``None``) the checkpoint target."""
        self._store = store

    def capture(self) -> SessionState:
        """Snapshot the session into a serializable record.

        The snapshot shares nothing mutable with the live session
        (ids in tuples, fresh dicts), so the session can keep mutating
        without corrupting an already captured record, and the
        in-memory store keeps it as it is.  A branch whose sets did not
        grow since the last capture hands out the same frozen tuples
        (:meth:`SubQuery.frozen <repro.core.subquery.SubQuery.frozen>`).
        Ids are sorted and ``rng_state`` key-sorted, as the text has
        them; the screen is copied unsorted (only text needs its
        order, :meth:`SessionState.to_dict`).  Capturing is legal in
        any state, including mid-round (between :meth:`display` and
        :meth:`submit`) — the record then carries the live screen via
        ``display_owner``; after :meth:`submit` that map is empty.
        """
        return SessionState(
            session_id=self.session_id,
            round=self.round,
            awaiting_feedback=self._awaiting_feedback,
            finalized=self.finalized,
            active=tuple(
                sub.frozen() for _, sub in sorted(self._active.items())
            ),
            marked=tuple(sorted(self._marked)),
            display_owner=dict(self._display_owner),
            rng_state=rng_record(self._rng.bit_generator.state),
            config_fingerprint=config_fingerprint(self.config),
            structure_version=self.rfs.structure_version,
            created_unix=self._created_unix,
            updated_unix=time.time(),
        )

    def checkpoint(self) -> "Record":
        """Capture and persist the session; returns the stored record.

        Requires a bound store.  Called automatically after each
        :meth:`submit` when a store is bound; call it explicitly to
        persist a mid-round screen.  The record (text, or in memory the
        captured :class:`SessionState`; also kept as
        :attr:`stored_record`) is what the store reads back for this
        session until someone checkpoints it again.  The write replaces
        only :attr:`stored_record`; if the store holds another record
        by now, :class:`~repro.errors.StaleSessionError` is raised and
        the store is unchanged.
        """
        if self._store is None:
            raise SessionStateError(
                "no session store bound; pass store= or bind_store()"
            )
        state = self.capture()
        payload = self._store.put(state, replacing=self.stored_record)
        self.stored_record = payload
        self.checkpoint_version = state.structure_version
        metrics = get_metrics()
        if metrics.enabled:
            metrics.counter(
                "qd_session_checkpoints_total",
                "session checkpoints written",
                labels={"backend": self._store.kind},
            ).inc()
        return payload

    @classmethod
    def restore(
        cls,
        rfs: RFSStructure,
        state: SessionState,
        *,
        config: Optional[QDConfig] = None,
        executor: Optional[SubqueryExecutor] = None,
        store: Optional["SessionStore"] = None,
    ) -> "FeedbackSession":
        """Rehydrate a session from a captured record.

        The restored session continues **bit-identically** to the
        never-suspended one: subqueries, marks, the current screen, and
        the exact RNG stream all come back.  Raises
        :class:`~repro.errors.StaleSessionError` when the record was
        captured against a different structure version (the tree
        mutated since the checkpoint) or a QD config with different
        ranking-relevant parameters, and :class:`SessionStateError`
        when the record is already finalized.
        """
        config = config or QDConfig()
        if state.structure_version != rfs.structure_version:
            raise StaleSessionError(
                f"session {state.session_id!r} was captured against "
                f"structure version {state.structure_version}, but the "
                f"serving structure is at {rfs.structure_version}"
            )
        expected = config_fingerprint(config)
        if state.config_fingerprint != expected:
            raise StaleSessionError(
                f"session {state.session_id!r} was captured under a "
                "different QD configuration (fingerprint "
                f"{state.config_fingerprint} != {expected})"
            )
        if state.finalized:
            raise SessionStateError(
                f"session {state.session_id!r} is already finalized"
            )
        session = cls(
            rfs,
            config,
            seed=state.restore_rng(),
            executor=executor,
            session_id=state.session_id,
            store=store,
        )
        active: Dict[int, SubQuery] = {}
        for sub_state in state.active:
            node = rfs.nodes.get(sub_state.node_id)
            if node is None:
                raise StaleSessionError(
                    f"session {state.session_id!r} references node "
                    f"{sub_state.node_id}, which no longer exists"
                )
            active[sub_state.node_id] = SubQuery(
                node=node,
                marked=set(sub_state.marked),
                shown=set(sub_state.shown),
            )
        session._active = active
        session._marked = set(state.marked)
        session._display_owner = dict(state.display_owner)
        session.round = state.round
        session.finalized = state.finalized
        session._awaiting_feedback = state.awaiting_feedback
        session._created_unix = state.created_unix or time.time()
        session.stored_record = ANY_RECORD
        get_metrics().counter(
            "qd_session_resumes_total", "sessions restored from a record"
        ).inc()
        return session
