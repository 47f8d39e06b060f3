"""The user-facing Query Decomposition engine.

Bundles a database, its RFS structure, and the QD configuration; creates
feedback sessions and offers a one-call driver for scripted (oracle)
users, which the evaluation harness and the examples build on.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Callable, Dict, Optional, Sequence

from repro.config import (
    CacheConfig,
    MutationConfig,
    QDConfig,
    RFSConfig,
)
from repro.errors import ConfigurationError, QueryError, StaleSessionError
from repro.core.presentation import QueryResult
from repro.core.session import FeedbackSession
from repro.datasets.database import ImageDatabase
from repro.index.diskmodel import DiskAccessCounter
from repro.index.rfs import ProgressCallback, RFSStructure
from repro.obs import get_metrics, get_tracer
from repro.utils.rng import RandomState, derive_rng, ensure_rng

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    import numpy as np

    from repro.cache import SubqueryResultCache
    from repro.index.generations import GenerationController
    from repro.sessionstore import SessionStore
    from repro.store import FeatureStore

# A scripted user: receives the displayed image ids, returns the relevant
# ones (any iterable of ids).
MarkFunction = Callable[[Sequence[int]], Sequence[int]]

#: Default per-round browse budget (screens of ``display_size`` images),
#: modelling a persistent user: a casual first look at the root's many
#: representatives, a moderate second round, then exhaustive browsing of
#: the small final subclusters.
DEFAULT_BROWSE_SCREENS: tuple[int, ...] = (6, 10, 1000)

#: Live sessions an engine keeps between the ops of their dialogues
#: (see :meth:`QueryDecompositionEngine.checkout_session`); the least
#: recently checked-in one goes first.
HOT_SESSION_CAPACITY = 1024


class QueryDecompositionEngine:
    """Query Decomposition retrieval over an :class:`ImageDatabase`.

    Examples
    --------
    Build an engine and run one scripted session::

        db = build_rendered_database(DatasetConfig(total_images=2000,
                                                   n_categories=40))
        engine = QueryDecompositionEngine.build(db, seed=0)
        result = engine.run_scripted(
            mark_fn=lambda shown: [i for i in shown if is_relevant(i)],
            k=100,
        )
    """

    def __init__(
        self,
        database: ImageDatabase,
        rfs: RFSStructure,
        config: Optional[QDConfig] = None,
        *,
        store: Optional["FeatureStore"] = None,
    ) -> None:
        self.database = database
        self.rfs = rfs
        self.config = config or QDConfig()
        self._session_store: Optional["SessionStore"] = None
        self._hot_sessions: Dict[str, FeedbackSession] = {}
        self._hot_lock = threading.Lock()
        self._mutations: Optional["GenerationController"] = None
        if store is not None:
            self.rfs.attach_store(store)

    @classmethod
    def build(
        cls,
        database: ImageDatabase,
        rfs_config: Optional[RFSConfig] = None,
        qd_config: Optional[QDConfig] = None,
        *,
        seed: RandomState = None,
        io: Optional[DiskAccessCounter] = None,
        store: str = "inmem",
        cache: Optional[CacheConfig] = None,
        mutations: Optional[MutationConfig] = None,
        progress: Optional[ProgressCallback] = None,
    ) -> "QueryDecompositionEngine":
        """Construct the RFS structure for ``database`` and wrap it.

        The leaf-contiguous :class:`~repro.store.FeatureStore` every
        scan reads through is built in RAM over the fresh structure
        (``store="inmem"``, the only kind a build can create).  A
        ``"memmap"`` store needs an on-disk directory, so it cannot be
        produced here — save one (``FeatureStore.save`` or the CLI
        ``build-store`` command), then ``attach_store(FeatureStore.open
        (dir))`` or pass ``store=`` to the constructor.

        ``cache`` optionally attaches a cross-session subquery result
        cache (see :mod:`repro.cache`) sized by
        :attr:`CacheConfig.capacity_mb` when ``cache.enabled`` is true.

        ``progress`` receives :class:`repro.index.BuildProgress` events
        so long builds are not silent.

        ``mutations`` enables the generational insert/remove path
        immediately (see :meth:`enable_mutations` and
        :class:`repro.config.MutationConfig`).
        """
        rfs = RFSStructure.build(
            database.features,
            rfs_config,
            seed=seed,
            io=io,
            progress=progress,
        )
        if store != "inmem":
            raise ConfigurationError(
                "build() can only create an 'inmem' store; open a "
                "saved store directory for 'memmap'"
            )
        from repro.store import FeatureStore

        rfs.attach_store(FeatureStore.build(rfs), validate=False)
        if cache is not None and cache.enabled:
            from repro.cache import SubqueryResultCache

            rfs.attach_cache(SubqueryResultCache(cache.capacity_bytes))
        engine = cls(database, rfs, qd_config)
        if mutations is not None:
            engine.enable_mutations(
                mutations, seed=seed if isinstance(seed, int) else 0
            )
        return engine

    @property
    def io(self) -> DiskAccessCounter:
        """The simulated disk-access counter shared with the RFS."""
        return self.rfs.io

    @property
    def store(self) -> Optional["FeatureStore"]:
        """The structure's feature store (``None`` on a sharded router)."""
        return self.rfs.store

    def attach_store(self, store: "FeatureStore") -> None:
        """Attach a feature store to the underlying RFS structure."""
        self.rfs.attach_store(store)

    @property
    def result_cache(self) -> Optional["SubqueryResultCache"]:
        """The attached subquery result cache, if any."""
        return self.rfs.result_cache

    def attach_cache(self, cache: "SubqueryResultCache") -> None:
        """Attach a subquery result cache to the RFS structure."""
        self.rfs.attach_cache(cache)

    # ------------------------------------------------------------------
    # Generational mutations (ROADMAP item 4)
    # ------------------------------------------------------------------
    @property
    def mutations(self) -> Optional["GenerationController"]:
        """The generation controller, once :meth:`enable_mutations` ran."""
        return self._mutations

    def enable_mutations(
        self,
        config: Optional[MutationConfig] = None,
        *,
        seed: int = 0,
    ) -> "GenerationController":
        """Turn on generational insert/remove over the current index.

        Attaches a delta segment to the structure and wires a
        :class:`~repro.index.generations.GenerationController` whose
        compaction swaps repoint ``self.rfs`` — sessions already in
        flight keep their pinned generation; new ones see the fresh
        one.  Idempotent when called again without a config.
        """
        if self._mutations is not None:
            if config is not None:
                raise ConfigurationError(
                    "mutations already enabled for this engine; "
                    "re-configuring a live controller is not supported"
                )
            return self._mutations
        from repro.index.generations import GenerationController

        controller = GenerationController(
            self.rfs, config=config, seed=seed
        )
        controller.on_swap.append(self._on_generation_swap)
        self._mutations = controller
        return controller

    def _on_generation_swap(self, rfs: RFSStructure) -> None:
        """Serve new sessions from the freshly compacted generation.

        Nothing else holds the old structure except the sessions pinned
        to it — so the hot copies go, or one could keep a generation
        alive after it left the retired window
        (:data:`~repro.index.generations.MAX_RETIRED`).
        """
        self.rfs = rfs
        self._clear_hot_sessions()

    def _require_mutations(self) -> "GenerationController":
        if self._mutations is None:
            raise ConfigurationError(
                "mutations are not enabled; call enable_mutations() "
                "(or pass mutations=... to build())"
            )
        return self._mutations

    def insert_image(self, vector: "np.ndarray") -> int:
        """Insert a feature row into the serving index; returns its id.

        Lands in the delta segment (no rebuild, no cache flush); the
        new image participates in the very next final-round scan.
        """
        return self._require_mutations().insert(vector)

    def remove_image(self, image_id: int) -> None:
        """Remove an image by id (tombstone; compaction reclaims it)."""
        self._require_mutations().remove(image_id)

    def close(self) -> None:
        """Release the engine's resources (safe to call twice).

        Closes the mutation controller and, when the feature store is
        memory-mapped, detaches it and closes the mapping — a
        long-running server that cycles engines would otherwise leak
        one file handle per engine.  In-RAM stores are left attached
        (they hold no OS resources and may be shared).
        """
        self._clear_hot_sessions()
        if self._mutations is not None:
            self._mutations.close()
            self._mutations = None
        store = self.rfs.store
        if store is not None and store.kind == "memmap":
            self.rfs.detach_store()
            store.close()

    def __enter__(self) -> "QueryDecompositionEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Session lifecycle: open / resume / checkpoint / expire
    # ------------------------------------------------------------------
    @property
    def session_store(self) -> Optional["SessionStore"]:
        """The attached session store, if any."""
        return self._session_store

    def attach_session_store(self, store: "SessionStore") -> None:
        """Externalize session state through ``store``.

        Every session created afterwards auto-checkpoints after each
        feedback round (and is removed on finalize), so any worker with
        the same structure and config can :meth:`resume_session` it.
        """
        self._session_store = store
        self._clear_hot_sessions()

    def detach_session_store(self) -> None:
        """Stop externalizing session state (existing records remain)."""
        self._session_store = None
        self._clear_hot_sessions()

    def new_session(
        self,
        *,
        seed: RandomState = None,
        session_id: Optional[str] = None,
    ) -> FeedbackSession:
        """Start an interactive feedback session.

        With a session store attached, the session auto-checkpoints
        after every ``submit``; use :meth:`open_session` to also write
        the round-zero record immediately.
        """
        return FeedbackSession(
            self.rfs,
            self.config,
            seed=seed,
            session_id=session_id,
            store=self._session_store,
        )

    def open_session(
        self,
        *,
        seed: RandomState = None,
        session_id: Optional[str] = None,
    ) -> FeedbackSession:
        """Start a session and durably register it in the store.

        Requires an attached session store: the round-zero record is
        checkpointed immediately, so the session is visible to (and
        resumable by) other workers before its first feedback round.
        A ``session_id`` that is already open is refused with
        :class:`~repro.errors.QueryError`, and its dialogue is left as
        it was.
        """
        if self._session_store is None:
            raise ConfigurationError(
                "open_session needs an attached session store; call "
                "attach_session_store() first (or use new_session)"
            )
        session = self.new_session(seed=seed, session_id=session_id)
        try:
            session.checkpoint()
        except StaleSessionError:
            raise QueryError(
                f"session {session.session_id!r} is already open"
            ) from None
        return session

    def resume_session(self, session_id: str) -> FeedbackSession:
        """Rehydrate a checkpointed session from the attached store.

        The resumed session continues bit-identically to the
        never-suspended one (see :meth:`FeedbackSession.restore`).
        Raises :class:`~repro.errors.SessionNotFoundError` for unknown
        or already-finalized ids and
        :class:`~repro.errors.StaleSessionError` when the record no
        longer matches this engine's structure version or config.

        With mutations enabled, a session checkpointed against a
        now-compacted generation resumes against that *retired*
        generation (image ids are stable across swaps, so its marks
        and query points stay valid) — until the generation falls out
        of the retired window (``generations.MAX_RETIRED``), at which
        point the usual staleness fencing rejects it.
        """
        store = self._session_store
        if store is None:
            raise ConfigurationError(
                "resume_session needs an attached session store"
            )
        # The record the session's next write must find still stored;
        # read before the state, so a write landing in between makes
        # that write refused rather than overwritten.
        record = store.read_record(session_id)
        state = store.get(session_id)
        session = FeedbackSession.restore(
            self._structure_for(state.structure_version),
            state,
            config=self.config,
            store=store,
        )
        session.stored_record = record
        return session

    def _structure_for(self, version: int) -> RFSStructure:
        """The structure a record captured at ``version`` resumes on.

        The serving one, unless mutations kept the retired generation
        of that version; a version nobody serves any more also gets
        the serving structure, whose fencing then rejects the record.
        """
        rfs = self.rfs
        if (
            self._mutations is not None
            and version != rfs.structure_version
        ):
            pinned = self._mutations.structure_for_version(version)
            if pinned is not None:
                rfs = pinned
        return rfs

    # -- the hot copy: skip the rebuild when the record proves it current
    def checkout_session(self, session_id: str) -> FeedbackSession:
        """Take the session for its next op; the caller owns it.

        :meth:`resume_session`, except that the rebuild is skipped when
        this engine still has the live object it last checkpointed for
        ``session_id`` (:meth:`checkin_session`) *and* the store's
        record is the one that object wrote — the very object in
        memory, byte-for-byte the same text elsewhere: an equal record
        means equal state, because a resumed session continues
        bit-identically.  The hot copy leaves the engine either way, so
        a second concurrent request resumes from the record, and an op
        that fails simply never hands it back.  Everything else — a
        record someone else rewrote or swept, a swapped generation, a
        changed config or store — takes the :meth:`resume_session`
        path and gets its errors.  Either way the session's next write
        replaces only the record checked here or read by the resume
        (:attr:`FeedbackSession.stored_record`), so of two ops racing
        on one session the later writer is refused as stale.
        """
        with self._hot_lock:
            hot = self._hot_sessions.pop(session_id, None)
        store = self._session_store
        if hot is not None and store is not None and self._is_current(hot):
            mine = hot.stored_record
            stored = store.read_record(session_id)
            if stored is mine or stored == mine:
                return hot
        return self.resume_session(session_id)

    def _is_current(self, session: FeedbackSession) -> bool:
        """Would :meth:`resume_session` rebuild exactly ``session``?

        Given that the record is the session's own last checkpoint:
        same store, same config object (so the same fingerprint), the
        same structure object still at the captured version, not
        finalized.
        """
        version = session.checkpoint_version
        return (
            session.store is self._session_store
            and session.config is self.config
            and not session.finalized
            and session.rfs is self._structure_for(version)
            and session.rfs.structure_version == version
        )

    def checkin_session(self, session: FeedbackSession) -> None:
        """Hand back a session taken with :meth:`checkout_session`.

        Call it only after the op's checkpoint succeeded and only when
        nothing else keeps a reference: the next
        :meth:`checkout_session` may return this very object.  A
        session that could not be proven current later anyway
        (finalized, never checkpointed, on a structure this engine no
        longer serves) is dropped instead.
        """
        if session.checkpoint_version is None:
            return
        with self._hot_lock:
            # Under the lock a generation swap's clear comes either
            # before this check (and fails it) or after the insert.
            if not self._is_current(session):
                return
            hot = self._hot_sessions
            hot.pop(session.session_id, None)  # re-insert as newest
            hot[session.session_id] = session
            if len(hot) > HOT_SESSION_CAPACITY:
                del hot[next(iter(hot))]

    def release_session(self, session_id: str) -> None:
        """Forget the hot copy of ``session_id`` (its dialogue ended)."""
        with self._hot_lock:
            self._hot_sessions.pop(session_id, None)

    def _clear_hot_sessions(self) -> None:
        with self._hot_lock:
            self._hot_sessions.clear()

    def expire_sessions(self, ttl_s: float) -> list[str]:
        """Sweep sessions idle longer than ``ttl_s``; returns their ids.

        Run periodically (or from ``repro-cbir sessions expire``) so
        abandoned dialogues do not accumulate in the store.
        """
        if self._session_store is None:
            raise ConfigurationError(
                "expire_sessions needs an attached session store"
            )
        return self._session_store.sweep_expired(ttl_s)

    def run_scripted(
        self,
        mark_fn: MarkFunction,
        k: int,
        *,
        rounds: Optional[int] = None,
        screens_per_round: Sequence[int] | int = DEFAULT_BROWSE_SCREENS,
        seed: RandomState = None,
        round_callback: Optional[
            Callable[[int, FeedbackSession], None]
        ] = None,
    ) -> QueryResult:
        """Drive a full session with a scripted user.

        Parameters
        ----------
        mark_fn:
            Called once per round with the displayed ids; returns the
            relevant ones.
        k:
            Result size for the final merge.
        rounds:
            Feedback rounds before finalizing (default: the configured
            ``max_rounds``).
        screens_per_round:
            How many random screens the user browses each round — either
            one integer for all rounds or a per-round sequence (the last
            value repeats if the sequence is short).
        round_callback:
            Invoked after each round with ``(round_number, session)`` —
            used by the Table 2 experiment to snapshot per-round state.

        The wall time of each Figure 10/11 phase (``"initial"``,
        ``"iteration"``, ``"final_knn"``) is summed into
        ``result.stats["time_<phase>"]`` and the ``qd_phase_seconds``
        histogram; per-round samples are the session trace's ``round``
        and ``final_round`` spans (:func:`repro.obs.phase_durations`).
        """
        rng = ensure_rng(seed)
        total_rounds = rounds if rounds is not None else self.config.max_rounds
        session = self.new_session(seed=derive_rng(rng, "session"))
        phase_s = {"initial": 0.0, "iteration": 0.0, "final_knn": 0.0}
        tracer = get_tracer()
        session_t0 = time.perf_counter()
        io = self.io
        physical_before = io.physical_reads
        logical_before = io.logical_reads
        category_before = dict(io.per_category)
        with tracer.span("session", k=k, rounds=total_rounds) as root:
            for round_no in range(1, total_rounds + 1):
                phase = "initial" if round_no == 1 else "iteration"
                with tracer.span(
                    "round", round=round_no, phase=phase
                ) as round_span:
                    t0 = time.perf_counter()
                    shown = session.display(
                        screens=_screens_for_round(
                            screens_per_round, round_no
                        )
                    )
                    session.submit(mark_fn(shown))
                    phase_s[phase] += time.perf_counter() - t0
                    round_span.set(
                        shown=len(shown),
                        marked=len(session.marked_ids),
                        subqueries=session.n_subqueries,
                    )
                if round_callback is not None:
                    round_callback(round_no, session)
            t0 = time.perf_counter()
            result = session.finalize(k)
            phase_s["final_knn"] += time.perf_counter() - t0
            physical_delta = io.physical_reads - physical_before
            logical_delta = io.logical_reads - logical_before
            root.set(
                rounds_used=result.rounds_used,
                n_subqueries=result.n_groups,
                disk_physical_reads=physical_delta,
                disk_logical_reads=logical_delta,
            )
        for phase, seconds in phase_s.items():
            result.stats[f"time_{phase}"] = seconds
        # Disk accounting for this session (deltas, so a shared counter
        # across sessions still attributes correctly).
        result.stats["disk_physical_reads"] = float(physical_delta)
        result.stats["disk_logical_reads"] = float(logical_delta)
        for category, total in io.per_category.items():
            delta = total - category_before.get(category, 0)
            if delta:
                result.stats[f"disk_reads_{category}"] = float(delta)
        metrics = get_metrics()
        metrics.counter("qd_sessions_total", "completed QD sessions").inc()
        metrics.counter(
            "qd_disk_physical_reads", "buffer-missing page reads"
        ).inc(physical_delta)
        metrics.counter(
            "qd_disk_logical_reads", "page accesses incl. buffer hits"
        ).inc(logical_delta)
        metrics.histogram(
            "qd_session_rounds", "feedback rounds to convergence"
        ).observe(result.rounds_used)
        metrics.histogram(
            "qd_session_seconds", "end-to-end scripted session wall time"
        ).observe(time.perf_counter() - session_t0)
        for phase, seconds in phase_s.items():
            metrics.histogram(
                "qd_phase_seconds",
                "per-session wall time of one Figure 10/11 phase",
                labels={"phase": phase},
            ).observe(seconds)
        return result


def _screens_for_round(
    screens_per_round: Sequence[int] | int, round_no: int
) -> int:
    """Resolve the per-round screen budget."""
    if isinstance(screens_per_round, int):
        return screens_per_round
    if not screens_per_round:
        return 1
    idx = min(round_no - 1, len(screens_per_round) - 1)
    return int(screens_per_round[idx])
